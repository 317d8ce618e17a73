"""Workload inputs and output checks for the ``formheat run`` benchmark.

Every input is generated from the workload seed: the seed goes into the
config's ``seed =`` key (random ``init.*`` data, probe samples) and places
the degeneracy segment of the ``scan`` workload.  The program receives only
the generated mesh and config files.  See ``README.md`` in this directory
for why each workload exists and which layer it bypasses.

This module is imported by the parent process only; it needs nothing
beyond the standard library.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("evolve-stepping", "evolve-degenerate", "scan", "spectral")
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-6


@dataclass
class Run:
    """One ``formheat.cli.run`` call: a config file and what to check."""

    name: str
    pipeline: str
    keys: dict
    expect: dict = field(default_factory=dict)

    def config_text(self):
        lines = [f"pipeline = {self.pipeline}"]
        lines += [f"{k} = {v}" for k, v in self.keys.items()]
        return "\n".join(lines) + "\n"


@dataclass
class Probe:
    """A contract probe: ``ok`` inputs must exit 0 with checked outputs,
    ``config-error`` inputs must exit 2 and write ``error.json``."""

    name: str
    run: Run
    outcome: str


@dataclass
class Workload:
    name: str
    smoke: bool
    meshes: dict            # file name -> n of standard_fixture_mesh(n)
    runs: list              # one timed operation = these runs, in order
    probes: list


def _evolve(name, mesh, seed, dt, steps, snapshots=(), **extra):
    t_end = steps * dt
    keys = {"seed": seed, "mesh": mesh, "time.theta": 1.0,
            "time.dt": repr(dt), "time.t_end": repr(t_end)}
    if snapshots:
        keys["time.snapshots"] = " ".join(repr(f * t_end) for f in snapshots)
    keys.update({"init.bulk": "random", "init.gd": "random",
                 "init.sigma": "random"})
    keys.update(extra)
    return Run(name, "evolve", keys,
               {"n_steps": steps, "snapshots": len(snapshots)})


def build(name, seed, smoke=False):
    """The workload ``name`` for ``seed``; ``smoke`` shrinks every size."""
    if name == "evolve-stepping":
        n, steps = (8, 10) if smoke else (64, 1000)
        bad_dt = Run("nonmultiple-dt", "evolve",
                     {"seed": seed, "mesh": "fixture8.mesh",
                      "time.dt": "0.03", "time.t_end": "0.1"})
        return Workload(name, smoke, {f"fixture{n}.mesh": n,
                                      "fixture8.mesh": 8},
                        [_evolve("evolve", f"fixture{n}.mesh", seed, 0.002,
                                 steps, snapshots=(0.5, 1.0))],
                        [Probe("nonmultiple-dt", bad_dt, "config-error")])
    if name == "evolve-degenerate":
        n = 8 if smoke else 64
        weighted = {"coeff.weight.gamma": 0.5,
                    "coeff.mu_gd": "dist_to_point 0.5 1 0.5"}
        run = _evolve("evolve", f"fixture{n}.mesh", seed, 0.01, 5,
                      **{"coeff.weight.s": "segment 0 0.5 1 0.5"}, **weighted)
        oblique = _evolve("oblique-segment", "fixture8.mesh", seed, 0.01, 5,
                          **{"coeff.weight.s": "segment 0.1 0.2 0.9 0.7"},
                          **weighted)
        return Workload(name, smoke, {f"fixture{n}.mesh": n,
                                      "fixture8.mesh": 8},
                        [run], [Probe("oblique-segment", oblique, "ok")])
    if name == "scan":
        rng = random.Random(seed)
        offset = repr(round(rng.uniform(-0.5, 0.5), 6))
        if rng.random() < 0.5:
            segment = f"segment -1 {offset} 1 {offset}"
        else:
            segment = f"segment {offset} -1 {offset} 1"
        keys = {"seed": seed, "scan.s": segment, "scan.gamma": 0.5,
                "scan.l_max": 3 if smoke else 5, "scan.window": "-1 -1 1 1"}
        return Workload(name, smoke, {}, [Run("scan", "scan", keys)], [])
    if name == "spectral":
        n_eigs, n_probe = (8, 4) if smoke else (44, 10)
        eigs = Run("eigs", "eigs",
                   {"seed": seed, "mesh": f"fixture{n_eigs}.mesh",
                    "eigs.count": 8}, {"count": 8})
        probe = Run("probe", "probe",
                    {"seed": seed, "mesh": f"fixture{n_probe}.mesh",
                     "probe.theta": 0.5, "probe.p": 2, "probe.levels": 3},
                    {"levels": 3})
        return Workload(name, smoke, {f"fixture{n_eigs}.mesh": n_eigs,
                                      f"fixture{n_probe}.mesh": n_probe},
                        [eigs, probe], [])
    raise ValueError(f"unknown workload {name!r} "
                     f"(expected one of {WORKLOADS})")


# -- output checks -----------------------------------------------------------
#
# Each check returns (problems, fingerprint, extras).  The fingerprint is
# compared against reference.json for the default seed; extras feed the
# per-layer metrics.

def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_evolve(outdir, run):
    problems = []
    rows = _rows(outdir / "monitors.csv")
    n_steps = run.expect["n_steps"]
    if len(rows) != n_steps + 1:
        problems.append(f"monitors.csv has {len(rows)} rows, "
                        f"expected {n_steps + 1}")
    cols = ("mass", "energy", "supnorm", "minval")
    values = {c: [float(r[c]) for r in rows] for c in cols}
    if not all(math.isfinite(v) for c in cols for v in values[c]):
        problems.append("monitors.csv has non-finite values")
    energy = values["energy"]
    # theta = 1: the weighted block energy never increases
    for k in range(1, len(energy)):
        if energy[k] > energy[k - 1] * (1.0 + 1e-12):
            problems.append(f"energy increases at step {k}")
            break
    for k in range(run.expect["snapshots"]):
        snap = outdir / f"snapshot_{k:03d}.csv"
        if not snap.is_file() or len(_rows(snap)) == 0:
            problems.append(f"{snap.name} missing or empty")
    iters = [int(r["cg_iters"]) for r in rows[1:]]
    extras = {"solver_iters_mean": sum(iters) / len(iters) if iters else 0.0}
    fingerprint = {"energy_final": energy[-1] if energy else None,
                   "mass_final": values["mass"][-1] if rows else None}
    return problems, fingerprint, extras


def _check_eigs(outdir, run):
    problems = []
    rows = _rows(outdir / "eigs.csv")
    lam = [float(r["lambda"]) for r in rows]
    res = [float(r["residual"]) for r in rows]
    if len(rows) != run.expect["count"]:
        problems.append(f"eigs.csv has {len(rows)} rows, "
                        f"expected {run.expect['count']}")
    if not all(math.isfinite(x) for x in lam + res):
        problems.append("eigs.csv has non-finite values")
    if any(b < a for a, b in zip(lam, lam[1:])):
        problems.append("eigenvalues not ascending")
    if lam and min(lam) < -1e-10:
        problems.append(f"negative eigenvalue {min(lam)!r}")
    if res and max(res) > 1e-8:
        problems.append(f"eigen residual {max(res)!r} above 1e-8")
    return problems, {"lambda": lam}, {}


def _check_probe(outdir, run):
    problems = []
    rows = _rows(outdir / "probe.csv")
    ratios = [float(r["ratio"]) for r in rows]
    if len(rows) != run.expect["levels"]:
        problems.append(f"probe.csv has {len(rows)} rows, "
                        f"expected {run.expect['levels']}")
    if not all(math.isfinite(x) and x > 0 for x in ratios):
        problems.append("probe ratios must be finite and positive")
    return problems, {"ratio": ratios}, {}


def _manifest(outdir):
    return {r["key"]: r["value"] for r in _rows(outdir / "manifest.csv")}


def _check_scan(outdir, run):
    problems = []
    c_min = float(_manifest(outdir).get("scan.c_min", "nan"))
    if not (math.isfinite(c_min) and c_min > 0):
        problems.append(f"scan c_min {c_min!r} is not finite and positive")
    if len(_rows(outdir / "scan.csv")) == 0:
        problems.append("scan.csv is empty")
    return problems, {"c_min": c_min}, {}


_CHECKS = {"evolve": _check_evolve, "eigs": _check_eigs,
           "probe": _check_probe, "scan": _check_scan}


def check_run(run, outdir, exit_code):
    """Check one run's outputs against the README contract for valid input:
    exit 0, a manifest, and the pipeline's promised properties."""
    outdir = Path(outdir)
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}, {}
    try:
        if not (outdir / "manifest.csv").is_file():
            return ["manifest.csv missing"], {}, {}
        return _CHECKS[run.pipeline](outdir, run)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}, {}


def check_config_error(outdir, exit_code):
    """The contract for a configuration error: exit 2 and ``error.json``."""
    problems = []
    if exit_code != 2:
        problems.append(f"exit code {exit_code}, expected 2")
    try:
        record = json.loads((Path(outdir) / "error.json").read_text("utf-8"))
        if "kind" not in record or "error" not in record:
            problems.append("error.json lacks kind/error")
    except (OSError, ValueError):
        problems.append("no readable error.json")
    return problems


def reference_key(workload, smoke):
    return f"{workload}/smoke" if smoke else workload


def compare_reference(workload, smoke, run_name, fingerprint):
    """Differences from the values recorded for the default seed."""
    try:
        table = json.loads(REFERENCE_PATH.read_text("utf-8"))
    except (OSError, ValueError):
        return ["reference.json missing or unreadable"]
    ref = table.get(reference_key(workload, smoke), {}).get(run_name)
    if ref is None:
        return [f"no reference recorded for {workload}/{run_name}"]
    problems = []
    for key, want in ref.items():
        got = fingerprint.get(key)
        want_l = want if isinstance(want, list) else [want]
        got_l = got if isinstance(got, list) else [got]
        if got is None or len(got_l) != len(want_l) or any(
                not math.isclose(g, w, rel_tol=REFERENCE_RTOL, abs_tol=1e-300)
                for g, w in zip(got_l, want_l)):
            problems.append(f"{run_name}.{key} = {got!r} differs from the "
                            f"recorded {want!r}")
    return problems

