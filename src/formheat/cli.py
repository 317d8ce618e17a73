"""Experiment driver: config parsing, pipelines, CSV outputs, manifest.

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
``formheat version``.  ``run`` and ``validate`` share one preparation
step that builds every input of the pipeline; ``validate`` stops there
and exits 2 if it reports anything.  Every output of a run is a UTF-8
CSV written by one writer, ``_Output.table``: a header row, then one row
per entry, each number as Python's shortest round-trip ``repr`` and a
cell quoted (RFC 4180) only when it holds ``,``, ``"`` or a line break.
The writer lists each file as an ``output_file`` row of ``manifest.csv``,
in write order.  On failure a machine-readable ``error.json`` record is
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
from .assembly import (BlockField, CoefficientSet, build_dofmap,
                       build_pencil, validate_envelopes)
from .errors import ConfigError, DegenerateGeometryError, FormheatError
from .evolution import TimeSteppingConfig, evolve
from .geometry import Points, Polyline, load_mesh, refine_uniform
from .spectral import (_check_dense_size, _check_probe_arguments,
                       embedding_exponents, fractional_embedding_probe,
                       generalized_eigs, probe_trend)
from .weights import (WeightSpec, _scan_window, classify_case,
                      muckenhoupt_lower_bound_scan)

_KNOWN_KEYS = {
    "pipeline", "output", "seed", "mesh",
    "coeff.mu_omega", "coeff.weight.s", "coeff.weight.gamma",
    "coeff.mu_gd", "coeff.mu_sigma", "coeff.c1", "coeff.c2",
    "coeff.zeta.bulk", "coeff.zeta.gd", "coeff.zeta.sigma",
    "time.theta", "time.dt", "time.t_end", "time.snapshots",
    "solver.tol", "mass.lumped",
    "init.bulk", "init.gd", "init.sigma",
    "eigs.count",
    "exponents.d", "exponents.gamma", "exponents.case",
    "exponents.surface_uniform", "exponents.surface_near_s",
    "probe.theta", "probe.p", "probe.levels",
    "scan.s", "scan.gamma", "scan.l_max", "scan.window",
}


def parse_config(path):
    """Parse a flat key = value config; returns {key: (value, line)}.

    Raises :class:`ConfigError` with key and line information on text
    that is not UTF-8, malformed lines, unknown keys, or duplicates; the
    error names the first bad line and carries the well-formed entries
    as ``entries``.  Per-region bulk coefficients use keys of the form
    ``coeff.mu_omega.region.<id>``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            "not UTF-8 text",
            line=exc.object.count(b"\n", 0, exc.start) + 1) from None
    entries = {}
    problems = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            problems.append(("expected 'key = value'", None, lineno))
            continue
        key, value = text.split("=", 1)
        key = key.strip()
        value = value.strip()
        known = key in _KNOWN_KEYS or key.startswith("coeff.mu_omega.region.")
        if not known:
            problems.append(("unknown key", key, lineno))
        elif key in entries:
            problems.append(("duplicate key", key, lineno))
        else:
            entries[key] = (value, lineno)
    if problems:
        message, key, lineno = problems[0]
        error = ConfigError(message, key=key, line=lineno)
        error.entries = entries
        raise error
    return entries


def _named_output(entries):
    """The output directory a config's ``output`` entry names, read as
    :class:`RunConfig` reads it; ``None`` when there is no such entry."""
    return Path(entries["output"][0]) if "output" in entries else None


# -- value parsers --------------------------------------------------------------
#
# Each takes a key's value text and returns what it means, or raises
# ``ValueError`` (or ``DegenerateGeometryError`` for a set) with the message
# ``RunConfig._read`` reports under the key and its line.

def _scalar(cast):
    """Parser of one value of type ``cast``."""
    def parse(text):
        try:
            return cast(text)
        except (ValueError, KeyError):
            raise ValueError(f"malformed value '{text}'") from None
    return parse


_int, _float = _scalar(int), _scalar(float)
_bool = _scalar(lambda text: {"true": True, "1": True, "yes": True,
                              "false": False, "0": False,
                              "no": False}[text.lower()])


def _checked(parse, accept, message):
    """``parse``, refusing a value ``accept`` rejects with ``message``."""
    def parse_checked(text):
        value = parse(text)
        if not accept(value):
            raise ValueError(message)
        return value
    return parse_checked


def _floats(text):
    try:
        return tuple(float(tok) for tok in text.split())
    except ValueError:
        raise ValueError("expected numbers") from None


_count = _checked(_int, lambda n: n >= 1, "expected a positive count")
_seed = _checked(_int, lambda n: n >= 0, "expected a nonnegative integer")
_finite = _checked(_float, np.isfinite, "envelope constant is not finite")
_relaxation = _checked(_float, lambda z: 0 < z < np.inf,
                       "relaxation coefficient must be positive and finite")
_window = _checked(_floats, lambda box: len(box) == 4,
                   "expected 'xmin ymin xmax ymax'")
_case = _checked(str, ("nondegenerate", "A", "B", "auto").__contains__,
                 "expected nondegenerate, A, B or auto")


def _initial_value(text):
    """A finite constant initial value, or ``None`` for ``random``."""
    if text == "random":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError("expected a number or 'random'") from None
    if not np.isfinite(value):
        raise ValueError("initial value is not finite")
    return value


def _submanifold(text):
    tokens = text.split()
    try:
        kind = tokens[0]
        pts = np.array([float(t) for t in tokens[1:]]).reshape(-1, 2)
        if kind == "point":
            return Points(pts[:1])
        if kind == "points":
            return Points(pts)
        if kind in ("segment", "polyline"):
            return Polyline(pts)
    except (ValueError, IndexError):
        pass
    raise ValueError("expected 'point x y', 'points ...', "
                     "'segment x1 y1 x2 y2' or 'polyline ...'")


def _weight(target):
    """Parser of the exponent of the distance weight to ``target``."""
    return lambda text: WeightSpec(target, _float(text))


def _matrix(text):
    """A bulk coefficient: one number, or the 4 entries of a 2x2 matrix."""
    try:
        vals = [float(v) for v in text.split()]
    except ValueError:
        raise ValueError(f"malformed coefficient '{text}'") from None
    if len(vals) not in (1, 4):
        raise ValueError("expected a scalar or 4 matrix entries")
    if not np.all(np.isfinite(vals)):
        raise ValueError("bulk diffusion coefficient is not finite")
    return vals[0] if len(vals) == 1 else np.array(vals).reshape(2, 2)


def _region(key):
    """Parser of a ``coeff.mu_omega.region.<id>`` entry: ``(id, matrix)``."""
    def parse(text):
        try:
            region = int(key.rsplit(".", 1)[1])
        except ValueError:
            raise ValueError("region id must be an integer") from None
        return region, _matrix(text)
    return parse


def _surface_coefficient(text):
    tokens = text.split() or [text]
    if tokens[0] == "dist_to_point":
        try:
            x, y, gamma = map(float, tokens[1:])
        except ValueError:                 # not three numbers
            raise ValueError("expected 'dist_to_point x y gamma'") from None
        return WeightSpec(Points((x, y)), gamma).eval
    try:
        (value,) = map(float, tokens)
    except ValueError:                 # not exactly one number
        raise ValueError(f"malformed coefficient '{text}' (expected one "
                         "number or 'dist_to_point x y gamma')") from None
    if not 0 <= value < np.inf:
        raise ValueError("surface diffusion coefficient violates "
                         "nonnegativity or is not finite")
    return value


_REQUIRED = object()       # the default of a key that must be present


class RunConfig:
    """Parsed and type-checked run configuration.

    Each pipeline's inputs come from the section builders listed in
    ``_PIPELINES``: methods named after their section that read every
    key of that section through :meth:`_read` and build the input from
    it, raising :class:`ConfigError`, ``OSError``, another
    :class:`FormheatError`, or a library's ``ValueError`` on several
    keys, exactly as ``run`` reports it.  No builder assembles or solves.
    """

    def __init__(self, entries, base_dir):
        self.entries = entries
        self.base_dir = Path(base_dir)
        self.pipeline = self._read("pipeline", _checked(
            str, _PIPELINES.__contains__,
            f"unknown pipeline (expected one of {tuple(_PIPELINES)})"))
        self.output = _named_output(entries) or Path("out")
        self.seed = self._read("seed", _seed, 0)
        self._mesh = None

    def _line(self, key):
        return self.entries[key][1] if key in self.entries else None

    def _read(self, key, parse, default=_REQUIRED):
        """The value of ``key`` as ``parse`` reads its text, or
        ``default`` when the key is absent.  A value ``parse`` refuses,
        or a required key that is absent, is a :class:`ConfigError`
        naming the key and its line."""
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError("missing required key", key=key)
            return default
        text, line = self.entries[key]
        try:
            return parse(text)
        except (ValueError, DegenerateGeometryError) as exc:
            raise ConfigError(str(exc), key=key, line=line) from None

    def bulk_weight(self):
        target = self._read("coeff.weight.s", _submanifold, None)
        if target is None:
            return None
        return self._read("coeff.weight.gamma", _weight(target),
                          WeightSpec(target, 0.0))

    def _read_mesh(self):
        """The mesh file named by ``mesh``, relative to the config; read
        once, however many builders ask for it."""
        if self._mesh is None:
            path = self.base_dir / self._read("mesh", str)
            if not path.is_file():
                raise FileNotFoundError(f"mesh: file not found ({path})")
            self._mesh = load_mesh(path)
        return self._mesh

    # -- section builders ---------------------------------------------------

    def mesh(self):
        """The mesh of a pencil: one that leaves a free bulk dof
        (``build_dofmap`` raises otherwise)."""
        mesh = self._read_mesh()
        build_dofmap(mesh)
        return mesh

    def coefficients(self):
        mu_bulk = self._read("coeff.mu_omega", _matrix, 1.0)
        regions = [key for key in self.entries
                   if key.startswith("coeff.mu_omega.region.")]
        if regions:
            mu_bulk = {"default": mu_bulk}
            mu_bulk.update(self._read(key, _region(key)) for key in regions)
        return CoefficientSet(
            mu_bulk=mu_bulk,
            mu_gd=self._read("coeff.mu_gd", _surface_coefficient, 1.0),
            mu_sigma=self._read("coeff.mu_sigma", _surface_coefficient, 1.0),
            bulk_weight=self.bulk_weight(),
            zeta_bulk=self._read("coeff.zeta.bulk", _relaxation, 1.0),
            zeta_gd=self._read("coeff.zeta.gd", _relaxation, 1.0),
            zeta_sigma=self._read("coeff.zeta.sigma", _relaxation, 1.0),
            c1=self._read("coeff.c1", _finite, 1.0),
            c2=self._read("coeff.c2", _finite, 1.0))

    def time(self):
        """The time-stepping parameters, step count included."""
        tcfg = TimeSteppingConfig(
            dt=self._read("time.dt", _float),
            t_end=self._read("time.t_end", _float),
            theta=self._read("time.theta", _float, 1.0),
            solver_tol=self._read("solver.tol", _float, 1e-12),
            snapshot_times=self._read("time.snapshots", _floats, ()))
        tcfg.n_steps        # raises unless t_end is a multiple of dt
        return tcfg

    def mass(self):
        """Whether the block mass is lumped."""
        return self._read("mass.lumped", _bool, False)

    def init(self):
        """The initial data as a function of the pencil's dof map.  Each
        ``init.*`` block is a constant or ``random``: uniform on [0, 1),
        drawn from ``seed`` in block order."""
        specs = [self._read(key, _initial_value, 0.0)
                 for key in ("init.bulk", "init.gd", "init.sigma")]
        seed = self.seed

        def initial_data(dofmap):
            rng = np.random.default_rng(seed)
            verts = (dofmap.free_vertices, dofmap.gd_vertices,
                     dofmap.sigma_vertices)
            return BlockField(*(
                rng.uniform(0.0, 1.0, size=len(v)) if spec is None
                else np.full(len(v), spec) for spec, v in zip(specs, verts)))
        return initial_data

    def eigs(self):
        """The number of eigenpairs: at most the mesh's free dofs, and
        checked against the size limit of the dense eigensolver where
        ``generalized_eigs`` takes it for nearly all pairs, so that
        neither fails after a pencil is built."""
        count = self._read("eigs.count", _count, 6)
        n = build_dofmap(self.mesh()).n_free
        if count > n:
            raise ConfigError(f"requested {count} eigenpairs of a pencil "
                              f"with {n} dofs", key="eigs.count",
                              line=self._line("eigs.count"))
        if count >= n - 1:
            _check_dense_size(n)
        return count

    def exponents(self):
        """The exponent-catalogue report.  ``exponents.case = auto`` (the
        default) classifies the bulk weight on the mesh unless gamma = 0."""
        d = self._read("exponents.d", _int, 2)
        gamma = self._read("exponents.gamma", _checked(
            _float, np.isfinite, "exponent is not finite"), 0.0)
        case = self._read("exponents.case", _case, "auto")
        if case == "auto":
            if gamma == 0.0:
                case = "nondegenerate"
            else:
                mesh = self._read_mesh()
                weight = self.bulk_weight()
                if weight is None:
                    raise ConfigError("exponents.case = auto needs "
                                      "coeff.weight.*", key="exponents.case")
                case = classify_case(weight, mesh).case
        return embedding_exponents(
            d, gamma, case=case,
            surface_uniformly_positive=self._read(
                "exponents.surface_uniform", _bool, False),
            surface_positive_near_s=self._read(
                "exponents.surface_near_s", _bool, False))

    def probe(self):
        """``(meshes, theta, p)`` of the embedding probe, where
        ``meshes`` is the refinement ladder of the mesh, one mesh per
        level.  Each level is checked against the size limit of the dense
        spectral calculus before the next is refined, so a probe too
        large to run fails here, before any pencil is built."""
        levels = self._read("probe.levels", _int, 3)
        theta = self._read("probe.theta", _float, 0.5)
        p = self._read("probe.p", _int, 2)
        _check_probe_arguments(levels, p, theta)
        meshes = [self.mesh()]
        while True:
            _check_dense_size(build_dofmap(meshes[-1]).n_free)
            if len(meshes) == levels:
                return meshes, theta, p
            meshes.append(refine_uniform(meshes[-1]))

    def scan(self):
        """The scan's ``(WeightSpec, l_max, window)``."""
        target = self._read("scan.s", _submanifold)
        weight = self._read("scan.gamma", _weight(target),
                            WeightSpec(target, 0.0))
        l_max = self._read("scan.l_max", _int, 4)
        window = self._read("scan.window", _window, (-1.0, -1.0, 1.0, 1.0))
        _scan_window(l_max, window)
        return weight, l_max, window


def prepare(cfg, diagnostics=None):
    """Build every input of the configured pipeline, in order.

    Returns ``{section: input}``.  Without ``diagnostics`` the first
    failing builder raises; with a list, each failure is appended to it
    as ``"<section>: <message>"``, that section is left out, and the
    remaining builders still run.  A library check on several keys
    raises ``ValueError``, which is reported as a :class:`ConfigError`.
    A failure an earlier section reported (a builder that reads the
    mesh meets its error again) is not repeated.
    """
    inputs = {}
    reported = set()
    for section in _PIPELINES[cfg.pipeline][0]:
        try:
            inputs[section] = getattr(cfg, section)()
        except (OSError, FormheatError, ValueError) as exc:
            if isinstance(exc, ValueError):
                exc = ConfigError(str(exc))
            if diagnostics is None:
                raise exc from None
            text = str(exc)
            if text in reported:
                continue
            reported.add(text)
            if not text.startswith(f"{section}:"):
                text = f"{section}: {text}"
            diagnostics.append(text)
    return inputs


# -- outputs ------------------------------------------------------------------

_QUOTED = '",\r\n'      # a cell holding one of these is quoted (RFC 4180)


def _column(key, values):
    """The cells of one column, header first: ``str`` of each Python
    value (an array's entries go to Python numbers in one pass), an empty
    cell for ``None``, and RFC 4180 quotes only where a cell needs them."""
    if isinstance(values, np.ndarray):
        cells = [key, *map(str, values.tolist())]
    else:
        cells = [key, *("" if v is None else str(v) for v in values)]
    text = "".join(cells)
    if any(c in text for c in _QUOTED):
        cells = ['"' + cell.replace('"', '""') + '"'
                 if any(c in cell for c in _QUOTED) else cell
                 for cell in cells]
    return cells


class _Output:
    """The files of a run: its output directory, made on creation, and the
    manifest rows (the package version and every config entry of
    ``entries``, then the rows pipelines add) that ``write_manifest``
    writes last."""

    def __init__(self, outdir, entries):
        self.dir = outdir
        outdir.mkdir(parents=True, exist_ok=True)
        self.rows = [("package_version", __version__)]
        self.rows += [(f"config.{key}", value)
                      for key, (value, _) in sorted(entries.items())]
        self.files = []

    def add(self, prefix, values):
        """Add a manifest row ``<prefix><key>,<value>`` per item of the
        dict ``values``."""
        self.rows += [(prefix + key, value) for key, value in values.items()]

    def table(self, name, columns):
        """Write ``<dir>/<name>``, the one CSV writer of a run: a header
        row of the keys of ``columns``, then one row per index of their
        value sequences, each cell as ``_column`` writes it (a float as
        its shortest round-trip ``repr``).  ``name`` becomes an
        ``output_file`` row of the manifest written after it."""
        cells = [_column(key, values) for key, values in columns.items()]
        with open(self.dir / name, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        self.files.append(name)

    def write_manifest(self, wall_time):
        """Write ``manifest.csv``: the rows, then one ``output_file`` row
        per table in write order, then ``wall_time_seconds``."""
        rows = (self.rows + [("output_file", name) for name in self.files]
                + [("wall_time_seconds", wall_time)])
        keys, values = zip(*rows)
        self.table("manifest.csv", {"key": keys, "value": values})


# -- pipelines ------------------------------------------------------------------
#
# Each pipeline computes from the inputs ``prepare`` built and writes
# through the run's ``_Output``; none reads the config.

def _pipeline_evolve(inputs, out):
    mesh, coeff = inputs["mesh"], inputs["coefficients"]
    # sampled before the pencil exists, so that its temporaries do not
    # stack on the pencil and its factorizations
    observed = validate_envelopes(mesh, coeff)[1]
    pencil = build_pencil(mesh, coeff, lumped=inputs["mass"])
    report = evolve(pencil, inputs["init"](pencil.dofmap), None,
                    inputs["time"])
    out.table("monitors.csv", {
        "step": np.arange(len(report.times)), "time": report.times,
        "mass": report.mass, "energy": report.energy,
        "supnorm": report.supnorm, "minval": report.minval,
        "cg_iters": report.cg_iters})
    out.add("solver.", report.solver)
    blocks = (pencil.dofmap.free_vertices, pencil.dofmap.gd_vertices,
              pencil.dofmap.sigma_vertices)
    xy = mesh.vertices[np.concatenate(blocks)]
    nodes = {"node_kind": np.repeat(("bulk", "gd", "sigma"),
                                    [len(b) for b in blocks]),
             "node_index": np.concatenate([np.arange(len(b)) for b in blocks]),
             "x": xy[:, 0], "y": xy[:, 1]}
    for k, (t, field) in enumerate(report.snapshots):
        out.table(f"snapshot_{k:03d}.csv", {**nodes, "value": field.stacked()})
        out.add(f"snapshot_{k:03d}_", {"time": t})
    out.add("mesh.", mesh.stats())
    out.add("observed.", observed)


def _pipeline_eigs(inputs, out):
    mesh, count = inputs["mesh"], inputs["eigs"]
    pencil = build_pencil(mesh, inputs["coefficients"])
    vals, _, residuals = generalized_eigs(pencil, count)
    out.table("eigs.csv", {"index": np.arange(len(vals)), "lambda": vals,
                           "residual": residuals})
    out.add("mesh.", mesh.stats())


def _pipeline_exponents(inputs, out):
    cells = inputs["exponents"].cells()
    out.table("exponents.csv", {key: [cell] for key, cell in cells.items()})
    out.add("exponents.", {"r0": cells["r0"]})


def _pipeline_probe(inputs, out):
    meshes, theta, p = inputs["probe"]
    pencils = [build_pencil(mesh, inputs["coefficients"]) for mesh in meshes]
    rows = fractional_embedding_probe(pencils, theta, p)
    out.table("probe.csv", {key: [getattr(r, key) for r in rows]
                            for key in ("level", "h", "ratio")})
    out.add("probe.", {"trend": probe_trend(rows)})


def _pipeline_scan(inputs, out):
    result = muckenhoupt_lower_bound_scan(*inputs["scan"])
    out.table("scan.csv", dict(zip(("level", "m_x", "m_y", "normalized"),
                                   zip(*result.rows))))
    out.table("scan_levels.csv", {key: [s[key] for s in result.level_stats]
                                  for key in ("level", "min", "min_on_s")})
    cube = result.argmin_cube
    out.add("scan.", {"c_min": result.c_min,
                      "argmin": f"level={cube.level} m=({cube.mx} {cube.my})"})
    if result.warning:
        out.add("scan.", {"warning": result.warning})


# pipeline -> (its sections, in the order ``run`` builds them; the
# function that computes from the built inputs)
_PIPELINES = {
    "evolve": (("time", "mesh", "coefficients", "mass", "init"),
               _pipeline_evolve),
    "eigs": (("mesh", "coefficients", "eigs"), _pipeline_eigs),
    "exponents": (("exponents",), _pipeline_exponents),
    "probe": (("mesh", "coefficients", "probe"), _pipeline_probe),
    "scan": (("scan",), _pipeline_scan),
}


def run(config_path, output_override=None):
    """Execute the pipeline selected by a config file.

    Every input is built and checked before any compute.  Returns the
    process exit code; artifacts and a manifest (or an ``error.json``
    record) are written to the output directory.
    """
    t_start = time.perf_counter()
    outdir = Path(output_override) if output_override else None
    entries = {}
    try:
        entries = parse_config(config_path)
        cfg = RunConfig(entries, Path(config_path).resolve().parent)
        outdir = outdir or cfg.output
        out = _Output(outdir, entries)
        _PIPELINES[cfg.pipeline][1](prepare(cfg), out)
        out.write_manifest(time.perf_counter() - t_start)
        return 0
    except (OSError, ConfigError) as exc:
        # a config that fails to parse or to build still names its output
        if outdir is None:
            outdir = _named_output(getattr(exc, "entries", entries))
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
    """Dry-run a config: returns a list of diagnostics, writes nothing.

    Builds the inputs ``run`` builds, reporting each failing section,
    then adds the theory diagnostics ``run`` does not reject.
    """
    try:
        cfg = RunConfig(parse_config(config_path),
                        Path(config_path).resolve().parent)
    except (OSError, ConfigError) as exc:
        return [f"config: {exc}"]
    diags = []
    inputs = prepare(cfg, diags)
    if "coefficients" in inputs:
        diags += _theory_diagnostics(inputs["coefficients"],
                                     inputs.get("mesh"))
    return diags


def _theory_diagnostics(coeff, mesh):
    """Advisory checks against the well-posedness range of the theory: a
    bulk weight exponent at or above the codimension of its set, a case B
    weight with gamma >= 1, and the sampled envelope bounds."""
    diags = []
    weight = coeff.bulk_weight
    if weight is not None and weight.outside_theory:
        diags.append(
            f"bulk weight exponent gamma = {weight.gamma} is not below "
            f"the codimension {weight.codimension} of the degeneracy set")
    if mesh is None:
        return diags
    if weight is not None:
        case = classify_case(weight, mesh)
        if case.outside_theory:
            diags.append(
                f"degenerate bulk weight reaches the dynamic surfaces (case "
                f"{case.case} (separation {case.separation:.3e})) with "
                f"gamma = {weight.gamma}: well-posedness requires gamma < 1")
    try:
        diags += validate_envelopes(mesh, coeff)[0]
    except FormheatError as exc:
        diags.append(f"coefficients: {exc}")
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
        for d in diags or ["ok"]:
            print(d)
        return 2 if diags else 0
    return run(args.config, args.output)


if __name__ == "__main__":
    sys.exit(main())
