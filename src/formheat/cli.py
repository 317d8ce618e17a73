"""Experiment driver: config parsing, pipelines, CSV artifacts, manifest.

Configs are flat ``key = value`` text files with dotted section
prefixes and ``#`` comments, for example::

    pipeline = evolve
    output = out
    seed = 0
    mesh = square.mesh
    coeff.mu_omega = 1.0
    coeff.weight.s = segment 0 0.5 1 0.5
    coeff.weight.gamma = 0.5
    time.theta = 1.0
    time.dt = 0.001
    time.t_end = 0.1

Subcommands: ``formheat run <config>``, ``formheat validate <config>``,
``formheat version``.  All data outputs are UTF-8 CSV with
header rows; on failure a machine-readable ``error.json`` record is
written next to the outputs and the exit code is nonzero (2 for
configuration and input-file problems, 1 for pipeline failures).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (BlockField, CoefficientSet, build_pencil,
                       validate_envelopes)
from .errors import ConfigError, DegenerateGeometryError, FormheatError
from .evolution import TimeSteppingConfig, evolve
from .geometry import Points, Polyline, load_mesh, refine_uniform
from .model_problems import nodal_full_vector
from .spectral import (embedding_exponents, fractional_embedding_probe,
                       generalized_eigs, probe_trend)
from .weights import (WeightSpec, _scan_window, classify_case,
                      muckenhoupt_lower_bound_scan)

_PIPELINES = ("evolve", "eigs", "exponents", "probe", "scan")

_KNOWN_KEYS = {
    "pipeline", "output", "seed", "mesh",
    "coeff.mu_omega", "coeff.weight.s", "coeff.weight.gamma",
    "coeff.mu_gd", "coeff.mu_sigma", "coeff.c1", "coeff.c2",
    "coeff.zeta.bulk", "coeff.zeta.gd", "coeff.zeta.sigma",
    "time.theta", "time.dt", "time.t_end", "time.snapshots",
    "solver.type", "solver.tol", "mass.lumped",
    "init.bulk", "init.gd", "init.sigma",
    "eigs.count",
    "exponents.d", "exponents.gamma", "exponents.case",
    "exponents.surface_uniform", "exponents.surface_near_s",
    "probe.theta", "probe.p", "probe.levels",
    "scan.s", "scan.gamma", "scan.l_max", "scan.window",
}


def parse_config(path):
    """Parse a flat key = value config; returns {key: (value, line)}.

    Raises :class:`ConfigError` with key and line information on
    malformed lines, unknown keys, or duplicates.  Per-region bulk
    coefficients use keys of the form ``coeff.mu_omega.region.<id>``.
    """
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError("expected 'key = value'", line=lineno)
            key, value = text.split("=", 1)
            key = key.strip()
            value = value.strip()
            known = key in _KNOWN_KEYS or key.startswith("coeff.mu_omega.region.")
            if not known:
                raise ConfigError("unknown key", key=key, line=lineno)
            if key in entries:
                raise ConfigError("duplicate key", key=key, line=lineno)
            entries[key] = (value, lineno)
    return entries


class RunConfig:
    """Parsed and type-checked run configuration."""

    def __init__(self, entries, base_dir):
        self.entries = entries
        self.base_dir = Path(base_dir)
        self.pipeline = self._get("pipeline", str, required=True)
        if self.pipeline not in _PIPELINES:
            raise ConfigError(f"unknown pipeline (expected one of {_PIPELINES})",
                              key="pipeline", line=self._line("pipeline"))
        self.output = Path(self._get("output", str, default="out"))
        self.seed = self._get("seed", int, default=0)
        mesh = self._get("mesh", str, default=None)
        self.mesh_path = (self.base_dir / mesh) if mesh else None

    def _line(self, key):
        return self.entries[key][1] if key in self.entries else None

    def _get(self, key, cast, default=None, required=False):
        if key not in self.entries:
            if required:
                raise ConfigError("missing required key", key=key)
            return default
        value, line = self.entries[key]
        try:
            if cast is bool:
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
                raise ValueError(value)
            return cast(value)
        except ValueError:
            raise ConfigError(f"malformed value '{value}'", key=key,
                              line=line) from None

    def floats(self, key, default=()):
        raw = self._get(key, str, default=None)
        if raw is None:
            return tuple(default)
        try:
            return tuple(float(tok) for tok in raw.split())
        except ValueError:
            raise ConfigError("expected numbers", key=key,
                              line=self._line(key)) from None

    # -- coefficient block ------------------------------------------------

    def _submanifold(self, key, required=False):
        raw = self._get(key, str, default=None, required=required)
        if raw is None:
            return None
        tokens = raw.split()
        try:
            kind = tokens[0]
            nums = [float(t) for t in tokens[1:]]
            pts = np.array(nums).reshape(-1, 2)
            if kind == "point":
                return Points(pts[:1])
            if kind == "points":
                return Points(pts)
            if kind in ("segment", "polyline"):
                return Polyline(pts)
        except (ValueError, IndexError):
            pass
        except DegenerateGeometryError as exc:
            raise ConfigError(str(exc), key=key, line=self._line(key)) from None
        raise ConfigError("expected 'point x y', 'points ...', "
                          "'segment x1 y1 x2 y2' or 'polyline ...'",
                          key=key, line=self._line(key))

    def _weight(self, target, gamma, key):
        try:
            return WeightSpec(target, gamma)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=self._line(key)) from None

    def _surface_coefficient(self, key):
        raw = self._get(key, str, default=None)
        if raw is None:
            return 1.0, None
        tokens = raw.split() or [raw]
        if tokens[0] == "dist_to_point":
            try:
                x, y, gamma = map(float, tokens[1:])
            except ValueError:                 # not three numbers
                raise ConfigError("expected 'dist_to_point x y gamma'",
                                  key=key, line=self._line(key)) from None
            spec = self._weight(Points((x, y)), gamma, key)
            return (lambda pts: spec.eval(pts)), spec
        try:
            return float(tokens[0]), None
        except ValueError:
            raise ConfigError(f"malformed coefficient '{raw}'", key=key,
                              line=self._line(key)) from None

    def bulk_weight(self):
        target = self._submanifold("coeff.weight.s")
        if target is None:
            return None
        gamma = self._get("coeff.weight.gamma", float, default=0.0)
        return self._weight(target, gamma, "coeff.weight.gamma")

    def coefficients(self):
        def matrix(raw, key):
            vals = raw.split()
            if len(vals) == 1:
                return float(vals[0])
            if len(vals) == 4:
                return np.array([float(v) for v in vals]).reshape(2, 2)
            raise ConfigError("expected a scalar or 4 matrix entries",
                              key=key, line=self._line(key))

        mu_omega_raw = self._get("coeff.mu_omega", str, default="1.0")
        regions = {k: v for k, v in self.entries.items()
                   if k.startswith("coeff.mu_omega.region.")}
        if regions:
            mu_bulk = {"default": matrix(mu_omega_raw, "coeff.mu_omega")}
            for key, (value, _) in regions.items():
                rid = int(key.rsplit(".", 1)[1])
                mu_bulk[rid] = matrix(value, key)
        else:
            mu_bulk = matrix(mu_omega_raw, "coeff.mu_omega")

        mu_gd, mu_gd_star = self._surface_coefficient("coeff.mu_gd")
        mu_sigma, mu_sigma_star = self._surface_coefficient("coeff.mu_sigma")
        return CoefficientSet(
            mu_bulk=mu_bulk, mu_gd=mu_gd, mu_sigma=mu_sigma,
            bulk_weight=self.bulk_weight(),
            mu_gd_star=mu_gd_star, mu_sigma_star=mu_sigma_star,
            zeta_bulk=self._get("coeff.zeta.bulk", float, default=1.0),
            zeta_gd=self._get("coeff.zeta.gd", float, default=1.0),
            zeta_sigma=self._get("coeff.zeta.sigma", float, default=1.0),
            c1=self._get("coeff.c1", float, default=1.0),
            c2=self._get("coeff.c2", float, default=1.0))

    def time_config(self):
        """The time-stepping parameters, checked as ``run`` needs them
        (step count included); any violation is a :class:`ConfigError`."""
        kwargs = dict(
            dt=self._get("time.dt", float, required=True),
            t_end=self._get("time.t_end", float, required=True),
            theta=self._get("time.theta", float, default=1.0),
            solver=self._get("solver.type", str, default="auto"),
            solver_tol=self._get("solver.tol", float, default=1e-12),
            snapshot_times=self.floats("time.snapshots"))
        try:
            tcfg = TimeSteppingConfig(**kwargs)
            tcfg.n_steps        # raises unless t_end is a multiple of dt
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return tcfg

    def scan_config(self):
        """The scan's ``(WeightSpec, l_max, window)``, checked as ``run``
        needs them; any violation is a :class:`ConfigError`."""
        target = self._submanifold("scan.s", required=True)
        weight = self._weight(
            target, self._get("scan.gamma", float, default=0.0), "scan.gamma")
        l_max = self._get("scan.l_max", int, default=4)
        window = self.floats("scan.window", default=(-1.0, -1.0, 1.0, 1.0))
        if len(window) != 4:
            raise ConfigError("expected 'xmin ymin xmax ymax'",
                              key="scan.window", line=self._line("scan.window"))
        try:
            _scan_window(l_max, window)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return weight, l_max, window

    def initial_data(self, pencil):
        rng = np.random.default_rng(self.seed)

        def component(key, verts):
            raw = self._get(key, str, default="0.0")
            if raw == "random":
                return rng.uniform(0.0, 1.0, size=len(verts))
            try:
                return np.full(len(verts), float(raw))
            except ValueError:
                raise ConfigError(f"expected a number or 'random'",
                                  key=key, line=self._line(key)) from None

        dofmap = pencil.dofmap
        return BlockField(component("init.bulk", dofmap.free_vertices),
                          component("init.gd", dofmap.gd_vertices),
                          component("init.sigma", dofmap.sigma_vertices))


# -- artifact writers ---------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_snapshot(path, mesh, dofmap, field):
    rows = []
    for kind, verts, values in (("bulk", dofmap.free_vertices, field.bulk),
                                ("gd", dofmap.gd_vertices, field.gd),
                                ("sigma", dofmap.sigma_vertices, field.sigma)):
        for k, v in enumerate(verts):
            x, y = mesh.vertices[v]
            rows.append((kind, k, _fmt(float(x)), _fmt(float(y)),
                         _fmt(float(values[k]))))
    _write_csv(path, "node_kind,node_index,x,y,value", rows)


class _Manifest:
    def __init__(self, cfg):
        self.rows = [("package_version", __version__)]
        for key in sorted(cfg.entries):
            self.rows.append((f"config.{key}", cfg.entries[key][0]))
        self.outputs = []

    def add(self, key, value):
        self.rows.append((key, _fmt(value)))

    def add_output(self, path):
        self.outputs.append(Path(path).name)

    def write(self, outdir, wall_time):
        rows = list(self.rows)
        for name in self.outputs:
            rows.append(("output_file", name))
        rows.append(("wall_time_seconds", repr(wall_time)))
        _write_csv(outdir / "manifest.csv", "key,value", rows)


# -- pipelines ------------------------------------------------------------------

def _load_mesh_checked(cfg):
    if cfg.mesh_path is None:
        raise ConfigError("missing required key", key="mesh")
    if not cfg.mesh_path.exists():
        raise FileNotFoundError(f"mesh: file not found ({cfg.mesh_path})")
    return load_mesh(cfg.mesh_path)


def _pipeline_evolve(cfg, outdir, manifest):
    tcfg = cfg.time_config()
    mesh = _load_mesh_checked(cfg)
    coeff = cfg.coefficients()
    lumped = cfg._get("mass.lumped", bool, default=False)
    pencil = build_pencil(mesh, coeff, lumped=lumped)
    report = evolve(pencil, cfg.initial_data(pencil), None, tcfg)
    monitors = outdir / "monitors.csv"
    report.to_csv(monitors)
    manifest.add_output(monitors)
    for key, value in report.solver.items():
        manifest.add(f"solver.{key}", value)
    for k, (t, field) in enumerate(report.snapshots):
        path = outdir / f"snapshot_{k:03d}.csv"
        _write_snapshot(path, mesh, pencil.dofmap, field)
        manifest.add(f"snapshot_{k:03d}_time", t)
        manifest.add_output(path)
    for key, value in mesh.stats().items():
        manifest.add(f"mesh.{key}", value)
    _, observed = validate_envelopes(mesh, coeff)
    for key, value in observed.items():
        manifest.add(f"observed.{key}", value)


def _pipeline_eigs(cfg, outdir, manifest):
    mesh = _load_mesh_checked(cfg)
    coeff = cfg.coefficients()
    pencil = build_pencil(mesh, coeff)
    count = cfg._get("eigs.count", int, default=6)
    vals, vecs = generalized_eigs(pencil, count)
    mt = pencil.mtilde()
    rows = []
    for k in range(count):
        v = vecs[:, k]
        res = np.linalg.norm(pencil.T @ v - vals[k] * (mt @ v))
        rows.append((k, _fmt(float(vals[k])),
                     _fmt(float(res / np.linalg.norm(v)))))
    path = outdir / "eigs.csv"
    _write_csv(path, "index,lambda,residual", rows)
    manifest.add_output(path)
    for key, value in mesh.stats().items():
        manifest.add(f"mesh.{key}", value)


def _pipeline_exponents(cfg, outdir, manifest):
    d = cfg._get("exponents.d", int, default=2)
    gamma = cfg._get("exponents.gamma", float, default=0.0)
    case = cfg._get("exponents.case", str, default=None)
    if case is None or case == "auto":
        if gamma == 0.0:
            case = "nondegenerate"
        else:
            mesh = _load_mesh_checked(cfg)
            weight = cfg.bulk_weight()
            if weight is None:
                raise ConfigError("exponents.case = auto needs coeff.weight.*",
                                  key="exponents.case")
            case = classify_case(weight, mesh).case
    report = embedding_exponents(
        d, gamma, case=case,
        surface_uniformly_positive=cfg._get("exponents.surface_uniform", bool,
                                            default=False),
        surface_positive_near_s=cfg._get("exponents.surface_near_s", bool,
                                         default=False))
    path = outdir / "exponents.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,gamma,case,r_omega,r_tr,r_tr_gamma,r_tr_star,r0\n")
        fh.write(report.csv_row() + "\n")
    manifest.add_output(path)
    manifest.add("exponents.r0", report.csv_row().rsplit(",", 1)[1])


def _pipeline_probe(cfg, outdir, manifest):
    mesh = _load_mesh_checked(cfg)
    coeff = cfg.coefficients()
    levels = cfg._get("probe.levels", int, default=3)
    pencils = []
    current = mesh
    for _ in range(levels):
        pencils.append(build_pencil(current, coeff))
        current = refine_uniform(current)
    rows = fractional_embedding_probe(
        pencils, cfg._get("probe.theta", float, default=0.5),
        cfg._get("probe.p", int, default=2), seed=cfg.seed)
    path = outdir / "probe.csv"
    _write_csv(path, "level,h,ratio",
               [(r.level, _fmt(r.h), _fmt(r.ratio)) for r in rows])
    manifest.add_output(path)
    manifest.add("probe.trend", probe_trend(rows))


def _pipeline_scan(cfg, outdir, manifest):
    result = muckenhoupt_lower_bound_scan(*cfg.scan_config())
    path = outdir / "scan.csv"
    _write_csv(path, "level,m_x,m_y,normalized",
               [(lvl, mx, my, _fmt(val)) for lvl, mx, my, val, _ in result.rows])
    manifest.add_output(path)
    lpath = outdir / "scan_levels.csv"
    _write_csv(lpath, "level,min,min_on_s",
               [(s["level"], _fmt(s["min"]),
                 "" if s["min_on_s"] is None else _fmt(s["min_on_s"]))
                for s in result.level_stats])
    manifest.add_output(lpath)
    manifest.add("scan.c_min", result.c_min)
    cube = result.argmin_cube
    manifest.add("scan.argmin", f"level={cube.level} m=({cube.mx} {cube.my})")
    if result.warning:
        manifest.add("scan.warning", result.warning)


def run(config_path, output_override=None):
    """Execute the pipeline selected by a config file.

    Returns the process exit code; artifacts and a manifest (or an
    ``error.json`` record) are written to the output directory.
    """
    t_start = time.perf_counter()
    outdir = Path(output_override) if output_override else None
    try:
        entries = parse_config(config_path)
        cfg = RunConfig(entries, Path(config_path).resolve().parent)
        outdir = Path(output_override) if output_override else cfg.output
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = _Manifest(cfg)
        dispatch = {"evolve": _pipeline_evolve, "eigs": _pipeline_eigs,
                    "exponents": _pipeline_exponents,
                    "probe": _pipeline_probe, "scan": _pipeline_scan}
        dispatch[cfg.pipeline](cfg, outdir, manifest)
        manifest.write(outdir, time.perf_counter() - t_start)
        return 0
    except (OSError, ConfigError) as exc:
        _write_error(outdir, exc)
        return 2
    except FormheatError as exc:
        _write_error(outdir, exc)
        return 1


def _write_error(outdir, exc):
    record = {"error": str(exc), "kind": type(exc).__name__}
    print(f"error: {exc}", file=sys.stderr)
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            with open(outdir / "error.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
        except OSError:
            pass


def validate(config_path):
    """Dry-run a config: returns a list of diagnostics, writes nothing."""
    diags = []
    try:
        entries = parse_config(config_path)
        cfg = RunConfig(entries, Path(config_path).resolve().parent)
    except (OSError, ConfigError) as exc:
        return [f"config: {exc}"]

    mesh = None
    if cfg.mesh_path is not None:
        if not cfg.mesh_path.exists():
            diags.append(f"mesh: file not found ({cfg.mesh_path})")
        else:
            try:
                mesh = load_mesh(cfg.mesh_path)
            except FormheatError as exc:
                diags.append(f"mesh: {exc}")
    elif cfg.pipeline in ("evolve", "eigs", "probe"):
        diags.append(f"mesh: required for pipeline '{cfg.pipeline}'")

    try:
        coeff = cfg.coefficients()
    except ConfigError as exc:
        diags.append(f"coefficients: {exc}")
        coeff = None

    weight = None
    if coeff is not None:
        weight = coeff.bulk_weight
        if weight is not None and weight.outside_theory:
            diags.append(
                f"bulk weight exponent gamma = {weight.gamma} is not below "
                f"the codimension {weight.codimension} of the degeneracy set")
        if mesh is not None:
            if weight is not None:
                case = classify_case(weight, mesh)
                diags_case = f"case {case.case} (separation {case.separation:.3e})"
                if case.outside_theory:
                    diags.append(
                        f"degenerate bulk weight reaches the dynamic surfaces "
                        f"({diags_case}) with gamma = {weight.gamma}: "
                        f"well-posedness requires gamma < 1")
            try:
                env_diags, _ = validate_envelopes(mesh, coeff)
                diags.extend(env_diags)
            except FormheatError as exc:
                diags.append(f"coefficients: {exc}")

    if cfg.pipeline == "evolve":
        try:
            tcfg = cfg.time_config()
            for t in tcfg.snapshot_times:
                if t > tcfg.t_end + 1e-12:
                    diags.append(f"snapshot time {t} beyond t_end")
        except ConfigError as exc:
            diags.append(f"time: {exc}")
    if cfg.pipeline == "scan":
        try:
            cfg.scan_config()
        except ConfigError as exc:
            diags.append(f"scan: {exc}")
    if cfg.pipeline == "exponents":
        gamma = cfg._get("exponents.gamma", float, default=0.0)
        case = cfg._get("exponents.case", str, default="nondegenerate")
        if case == "B" and gamma >= 1.0:
            diags.append(
                f"exponents: case B with gamma = {gamma} is outside the "
                f"supported range (needs gamma < 1)")
    return diags


def main(argv=None):
    """Entry point of the ``formheat`` command."""
    parser = argparse.ArgumentParser(
        prog="formheat",
        description="coupled bulk-surface heat flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a pipeline from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None,
                       help="override the output directory")
    p_val = sub.add_parser("validate", help="dry-run checks on a config file")
    p_val.add_argument("config")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "validate":
        diags = validate(args.config)
        if not diags:
            print("ok")
        for d in diags:
            print(d)
        return 0
    return run(args.config, args.output)


if __name__ == "__main__":
    sys.exit(main())
