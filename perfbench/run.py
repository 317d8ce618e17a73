"""End-to-end benchmark of ``formheat run``.

Usage (from the root of a formheat checkout)::

    python3 perfbench/run.py --workload evolve-stepping --seed 0 \
        --seconds 25 --trace 0

Every operation runs in a fresh child process (``child.py``) with a
wall-clock timeout, a fixed BLAS thread count set before numpy loads, and
an address-space limit.  A run does, in order:

1. one child that writes the fixture meshes and reports machine facts
   (it also warms the bytecode cache, so its set-up time is not used);
2. ``SETUP_SPAWNS`` children that only import ``formheat.cli``;
3. the workload's contract probes, once, untimed;
4. timed operations until ``--seconds`` is used up (at least one).  With
   ``--trace 1`` they alternate untraced and traced, at least one of each.

The whole run has a deadline of ``--seconds`` plus ``HEADROOM_S`` for
set-up, probes and the last operation; if the deadline rather than
``--seconds`` ends the timed loop, the report says so.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, named and with
units as ``BENCHMARK.json`` in the current directory lists them.
``attempted`` and ``failed`` count the timed operations; contract probes
are reported on the lines before it (``failed_frac``) and in the results
file, because they exist to show known defects.  Lines before the last one
are a readable report.  A full record (samples, probes, layer table) and the
traced spans are written under ``--workdir`` (default ``.perfbench``) in
``results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CHILD = Path(__file__).resolve().with_name("child.py")
SETUP_SPAWNS = 8
HEADROOM_S = 145.0            # set-up, probes and the last operation
OP_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 20.0
CHILD_MEMORY_BYTES = 4 << 30
BLAS_THREADS = 1
LAYERS = ("geometry", "weights", "assembly", "evolution", "spectral", "cli")
STEP_SPAN = "evolution.ThetaStepper.step"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def quantile(sorted_xs, q):
    """Nearest-rank quantile of a sorted list; 0.0 when it is empty."""
    if not sorted_xs:
        return 0.0
    return sorted_xs[min(len(sorted_xs) - 1, int(q * len(sorted_xs)))]


def high_percentile(xs):
    """(p, value) for the highest whole percentile with at least ten
    samples above it, or None when there are fewer than 11 samples."""
    n = len(xs)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(xs)[max(0, math.ceil(p / 100 * n) - 1)]


class Bench:
    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env.pop("PYTHONPATH", None)
        self._jobs = 0

    def spawn(self, job, timeout):
        """Run one child; returns its result dict or a failure record."""
        self._jobs += 1
        tag = f"job{self._jobs:03d}"
        job = dict(job, root=str(self.root),
                   result=str(self.work / f"{tag}.result.json"))
        jobfile = self.work / f"{tag}.json"
        jobfile.write_text(json.dumps(job), "utf-8")
        log = self.work / f"{tag}.log"
        timeout = max(1.0, min(timeout, self.deadline - time.monotonic()))
        with open(log, "w", encoding="utf-8") as fh:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), str(jobfile), repr(t0)],
                    cwd=self.work, env=self.env, stdout=fh,
                    stderr=subprocess.STDOUT, timeout=timeout,
                    preexec_fn=_limit_memory)
            except subprocess.TimeoutExpired:
                return {"failure": {
                    "kind": "timeout",
                    "message": f"killed after {timeout:.0f} s"}}
        elapsed = time.monotonic() - t0
        try:
            result = json.loads(Path(job["result"]).read_text("utf-8"))
        except (OSError, ValueError):
            tail = log.read_text("utf-8", "replace").strip().splitlines()
            return {"failure": {
                "kind": "child-crash",
                "message": f"exit {proc.returncode}: "
                           + (tail[-1][:300] if tail else "no output")}}
        result["elapsed_s"] = elapsed
        return result

    def operation(self, spec, tag, timeout, spans=None, compare=False):
        """Run the workload's cli.run calls in one child and check them;
        ``compare`` also checks them against the default-seed reference."""
        runs = []
        for run in spec.runs:
            cfg = self.work / f"{tag}-{run.name}.cfg"
            cfg.write_text(run.config_text(), "utf-8")
            runs.append((run, cfg, self.work / tag / run.name))
        job = {"runs": [[str(c), str(o)] for _, c, o in runs]}
        if spans is not None:
            job.update(spans=str(spans), op=tag)
        res = self.spawn(job, timeout)
        op = {"setup_s": res.get("setup_s"),
              "maxrss_mb": res.get("maxrss_mb"),
              "elapsed_s": res.get("elapsed_s"), "trace": res.get("trace"),
              "failure": res.get("failure"), "fingerprints": {}, "extras": {},
              "output_bytes": 0}
        done = res.get("runs", [])
        op["wall_s"] = sum(r["wall_s"] for r in done)
        for k, (run, _, outdir) in enumerate(runs):
            if op["failure"]:
                break
            if k >= len(done):
                op["failure"] = {"kind": "missing", "message": run.name}
                break
            if done[k]["exception"]:
                op["failure"] = dict(done[k]["exception"], run=run.name)
                break
            problems, fp, extras = workloads.check_run(run, outdir,
                                                       done[k]["exit"])
            if problems:
                op["failure"] = {"kind": "check", "run": run.name,
                                 "message": "; ".join(problems)}
                break
            op["fingerprints"][run.name] = fp
            op["extras"].update(extras)
            op["output_bytes"] += sum(p.stat().st_size
                                      for p in outdir.iterdir())
        if compare and not op["failure"]:
            problems = [p for name, fp in op["fingerprints"].items()
                        for p in workloads.compare_reference(
                            spec.name, spec.smoke, name, fp)]
            if problems:
                op["failure"] = {"kind": "reference",
                                 "message": "; ".join(problems)}
        shutil.rmtree(self.work / tag, ignore_errors=True)
        return op

    def probe(self, probe):
        cfg = self.work / f"probe-{probe.name}.cfg"
        cfg.write_text(probe.run.config_text(), "utf-8")
        outdir = self.work / f"probe-{probe.name}"
        res = self.spawn({"runs": [[str(cfg), str(outdir)]]}, PROBE_TIMEOUT_S)
        record = {"name": probe.name, "expected": probe.outcome}
        if res.get("failure"):
            record["failure"] = res["failure"]
        elif res["runs"][0]["exception"]:
            record["failure"] = res["runs"][0]["exception"]
        else:
            code = res["runs"][0]["exit"]
            if probe.outcome == "ok":
                problems = workloads.check_run(probe.run, outdir, code)[0]
            else:
                problems = workloads.check_config_error(outdir, code)
            if problems:
                record["failure"] = {"kind": "contract",
                                     "message": "; ".join(problems)}
        shutil.rmtree(outdir, ignore_errors=True)
        return record


def layer_metrics(op):
    """Per-layer metrics of one traced operation."""
    tr = op["trace"]
    stats = tr["stats"]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_time(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    steps = sorted(tr["samples"].get(STEP_SPAN, []))
    m = {
        "geometry.load_mesh_s": total("geometry.load_mesh"),
        "geometry.refine_uniform_s": total("geometry.refine_uniform"),
        "geometry.surface_mesh_s": total("geometry.SurfaceMesh.from_mesh"),
        "geometry.set_polygon_distance_s":
            total("geometry.set_polygon_distance"),
        "geometry.set_polygon_distance_calls":
            calls("geometry.set_polygon_distance"),
        "weights.scan_self_s":
            self_time("weights.muckenhoupt_lower_bound_scan"),
        "weights.cell_integral_s": total("weights.weighted_cell_integral"),
        "weights.cell_integral_calls": calls("weights.weighted_cell_integral"),
        "weights.classify_case_s": total("weights.classify_case"),
        "assembly.build_pencil_s": total("assembly.build_pencil"),
        "assembly.build_pencil_self_s": self_time("assembly.build_pencil"),
        "assembly.bulk_stiffness_s": total("assembly.assemble_bulk_stiffness"),
        "assembly.bulk_stiffness_calls":
            calls("assembly.assemble_bulk_stiffness"),
        "assembly.bulk_mass_s": total("assembly.assemble_bulk_mass"),
        "assembly.bulk_mass_calls": calls("assembly.assemble_bulk_mass"),
        "assembly.surface_stiffness_s":
            total("assembly.assemble_surface_stiffness"),
        "assembly.surface_mass_s": total("assembly.assemble_surface_mass"),
        "assembly.block_mass_s": total("assembly.assemble_block_mass"),
        "assembly.validate_envelopes_s": total("assembly.validate_envelopes"),
        "assembly.project_initial_data_s":
            total("assembly.project_initial_data"),
        "assembly.n_free": tr["maxima"].get("assembly.n_free", 0),
        "evolution.evolve_s": total("evolution.evolve"),
        "evolution.evolve_self_s": self_time("evolution.evolve"),
        "evolution.stepper_setup_s": total("evolution.ThetaStepper.__init__"),
        "evolution.step_s_p50": quantile(steps, 0.50),
        "evolution.step_s_p99": quantile(steps, 0.99),
        "evolution.steps": calls("evolution.ThetaStepper.step"),
        "evolution.solver_iters_mean": op["extras"].get("solver_iters_mean",
                                                        0.0),
        "spectral.generalized_eigs_s": total("spectral.generalized_eigs"),
        "spectral.embedding_probe_s":
            total("spectral.fractional_embedding_probe"),
        "spectral.dense_dim_max":
            tr["maxima"].get("spectral.dense_dim_max", 0),
        "cli.run_s": total("cli.run"),
        "cli.output_bytes": op["output_bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items()
                                   if k.startswith(layer + "."))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes that exercise every path in seconds")
    ap.add_argument("--workdir", default=".perfbench",
                    help="scratch and results directory (relative to cwd)")
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    # on SIGTERM, unwind: subprocess.run then kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    if not (root / "src" / "formheat" / "cli.py").is_file():
        print(f"perfbench: no formheat sources under {root / 'src'}; "
              "run from the root of a formheat checkout", file=sys.stderr)
        return 2
    base = (root / args.workdir).resolve()
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    label = (f"{args.workload}{'-smoke' if args.smoke else ''}"
             f"-seed{args.seed}-trace{args.trace}")
    work = base / f"{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, root, work, results_dir, label, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, work, results_dir, label, t_start):
    spec = workloads.build(args.workload, args.seed, args.smoke)
    bench = Bench(root, work, t_start + args.seconds + HEADROOM_S)

    prep = bench.spawn({"prepare": spec.meshes, "dir": str(work)}, 120.0)
    if prep.get("failure"):
        print(f"perfbench: set-up failed: {prep['failure']}", file=sys.stderr)
        return 1
    setup_samples = []
    for _ in range(SETUP_SPAWNS):
        res = bench.spawn({}, 60.0)
        if res.get("failure"):
            print(f"perfbench: import failed: {res['failure']}",
                  file=sys.stderr)
            return 1
        setup_samples.append(res["setup_s"])

    probes = [bench.probe(p) for p in spec.probes]

    compare = args.seed == workloads.DEFAULT_SEED
    ops = []
    t_ops = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        tag = f"op{len(ops):03d}"
        spans = results_dir / f"spans-{label}-{tag}.json" if traced else None
        ops.append(bench.operation(spec, tag, OP_TIMEOUT_S, spans, compare))
        ops[-1]["traced"] = traced
        now = time.monotonic()
        est = max(o["elapsed_s"] or (now - t_ops) for o in ops)
        cut = now + est > bench.deadline - 2.0
        if cut:
            break
        if args.trace and len(ops) < 2:
            continue
        if now + est > t_ops + args.seconds:
            break

    untraced = [o for o in ops if not o["traced"]]
    traced_ops = [o for o in ops if o["traced"] and not o["failure"]]
    good = [o for o in untraced if not o["failure"]] or untraced
    setup_samples += [o["setup_s"] for o in ops if o["setup_s"] is not None]
    walls = [o["wall_s"] for o in good]
    rss = [o["maxrss_mb"] for o in good if o["maxrss_mb"] is not None]
    e2e = {"wall_s": median(walls), "setup_s": median(setup_samples),
           "peak_rss_mb": median(rss)}

    failed_ops = [o for o in ops if o["failure"]]

    failed_probes = [p for p in probes if "failure" in p]
    attempted_all = len(ops) + len(probes)
    failed_frac = (len(failed_ops) + len(failed_probes)) / attempted_all

    layer = {}
    if traced_ops:
        per_op = [layer_metrics(o) for o in traced_ops]
        layer = {k: median([m[k] for m in per_op]) for k in per_op[0]}
        # step percentiles over every step of every traced operation
        steps = sorted(s for o in traced_ops
                       for s in o["trace"]["samples"].get(STEP_SPAN, []))
        layer["evolution.step_s_p50"] = quantile(steps, 0.50)
        layer["evolution.step_s_p99"] = quantile(steps, 0.99)
        layer["trace.overhead_s"] = (median([o["wall_s"] for o in traced_ops])
                                     - e2e["wall_s"])

    facts = dict(prep.get("facts", {}), nproc=os.cpu_count(),
                 cpus_allowed=len(os.sched_getaffinity(0)),
                 blas_threads=BLAS_THREADS, machine=platform.machine())
    _report(args, facts, e2e, walls, setup_samples, rss, ops, probes,
            failed_frac, layer, cut)

    record = {"workload": args.workload, "seed": args.seed,
              "smoke": args.smoke, "trace": args.trace,
              "seconds": args.seconds, "facts": facts, "end_to_end": e2e,
              "failed_frac": failed_frac, "wall_samples": walls,
              "setup_samples": setup_samples, "rss_samples": rss,
              "operations": [{k: o[k] for k in ("wall_s", "setup_s",
                                                "maxrss_mb", "traced",
                                                "failure", "fingerprints")}
                             for o in ops],
              "probes": probes, "per_layer": layer}
    (results_dir / f"{label}.json").write_text(
        json.dumps(record, indent=1), "utf-8")

    manifest = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    group = manifest["per_layer" if args.trace else "end_to_end"]
    values = e2e
    if args.trace:
        # empty when no traced operation passed; the run is then not correct
        values = layer or dict.fromkeys((m["name"] for m in group), 0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in group}
    print(json.dumps({"correct": not failed_ops, "attempted": len(ops),
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


def _report(args, facts, e2e, walls, setups, rss, ops, probes,
            failed_frac, layer, cut):
    p = print
    p(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
      f"{' smoke' if args.smoke else ''}")
    p("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    hi = high_percentile(walls)
    hi_txt = (f"p{hi[0]} {hi[1]:.4f} s" if hi else
              "no percentile with >= 10 samples above it")
    p(f"  wall_s       {e2e['wall_s']:.4f} s   median of {len(walls)}; "
      f"{hi_txt}")
    if cut:
        p(f"  the run's deadline, not --seconds {args.seconds:g}, ended "
          "the timed operations")
    p(f"  setup_s      {e2e['setup_s']:.4f} s   median of {len(setups)}")
    p(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB   median of {len(rss)}")
    n_fail = sum(1 for o in ops if o["failure"]) + sum(
        1 for pr in probes if "failure" in pr)
    p(f"  failed_frac  {failed_frac:.4f}   {n_fail} of "
      f"{len(ops) + len(probes)} operations ({len(ops)} timed, "
      f"{len(probes)} probes)")
    for o in ops:
        if o["failure"]:
            p(f"  FAILED operation: {o['failure']}")
    for pr in probes:
        status = "ok" if "failure" not in pr else f"FAILED {pr['failure']}"
        p(f"  probe {pr['name']} (expects {pr['expected']}): {status}")
    if layer:
        shares = {lay: layer.get(f"{lay}.self_s", 0.0) for lay in LAYERS}
        total = sum(shares.values()) or 1.0
        p("  layer self time: " + ", ".join(
            f"{lay} {v:.3f} s ({100 * v / total:.1f} %)"
            for lay, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        p(f"  tracing overhead: {layer['trace.overhead_s']:+.4f} s")


if __name__ == "__main__":
    sys.exit(main())
