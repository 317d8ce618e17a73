"""Smoke test of the benchmark: every workload, probe, check and the traced
run at tiny sizes.  Run from the repository root with
``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# probes that fail at the commit that added the benchmark; a fix to the
# program should shrink this set, and the test then says so
KNOWN_PROBE_FAILURES = {"oblique-segment", "nonmultiple-dt"}


def _bench(tmp_path, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workdir", str(tmp_path),
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(tmp_path, workload, trace):
    proc = _bench(tmp_path, "--workload", workload, "--seed",
                  str(workloads.DEFAULT_SEED), "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= (2 if trace else 1)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    group = spec["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in group}
    for m in group:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0

    label = f"{workload}-smoke-seed{workloads.DEFAULT_SEED}-trace{trace}"
    record = json.loads((tmp_path / "results" / f"{label}.json").read_text())
    failed = {p["name"] for p in record["probes"] if "failure" in p}
    assert failed == KNOWN_PROBE_FAILURES & {
        p.name for p in workloads.build(workload, 0, smoke=True).probes}
    if trace:
        assert list(tmp_path.joinpath("results").glob(f"spans-{label}-*"))
        layer = record["per_layer"]
        if workload == "scan":
            assert layer["geometry.set_polygon_distance_calls"] > 0
            assert layer["assembly.build_pencil_s"] == 0
            assert layer["evolution.evolve_s"] == 0
        if workload.startswith("evolve"):
            assert layer["evolution.steps"] == (10 if workload ==
                                                "evolve-stepping" else 5)
            assert layer["assembly.bulk_stiffness_calls"] == 2
        if workload == "spectral":
            assert layer["spectral.dense_dim_max"] > 0


def test_refuses_without_sources(tmp_path):
    """Outside a checkout the benchmark fails without a result line."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_check_is_counted(tmp_path):
    """A wrong output fails the operation: energy that grows breaks the
    theta = 1 contraction check."""
    spec = workloads.build("evolve-stepping", 0, smoke=True)
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "manifest.csv").write_text("key,value\n")
    rows = ["step,time,mass,energy,supnorm,minval,cg_iters"]
    rows += [f"{k},{k * 0.002},1.0,{1.0 + k},1.0,0.0,3" for k in range(11)]
    (outdir / "monitors.csv").write_text("\n".join(rows) + "\n")
    problems, _, _ = workloads.check_run(spec.runs[0], outdir, 0)
    assert any("energy increases" in p for p in problems)


def test_high_percentile():
    assert run.high_percentile(list(range(10))) is None
    p, value = run.high_percentile([float(k) for k in range(100)])
    assert p == 90 and value == 89.0
