"""The exit-code contract of ``formheat run`` under a config fuzzer.

Configs are drawn per pipeline from ``cli._KNOWN_KEYS``, with typed value
pools that hold plausible, extreme finite (+-1e308, 5e-324, 1e-300),
non-finite and junk values, on ``standard_fixture_mesh(4)`` (``(2)`` for
``probe``).  Every run must return 0, 1 or 2 without raising; a failed
run leaves an ``error.json`` with a ``kind``; a configuration error
(exit 2) is one ``validate`` reports; and a run that succeeds writes only
finite numbers to its data CSVs.  The pools keep every run small: step
counts stay at most 10, scans at most 4 levels, and no set is a
multi-segment polyline, whose weighted integrals take the slow adaptive
path.
"""

import csv
import json
import math
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from formheat import save_mesh
from formheat.cli import _KNOWN_KEYS, run, validate
from formheat.model_problems import standard_fixture_mesh

_EXTREME = ["1e308", "-1e308", "5e-324", "1e-300", "-1e-300", "nan", "inf",
            "-inf", "0", "-1", "junk", ""]
_INTEGERS = ["0", "1", "2", "3", "-1", "1e308", "99", "junk", "2.5"]
_SETS = ["segment 0 0.5 1 0.5", "point 0.5 0.25", "points 0.2 0.2 0.8 0.8",
         "segment 0.1 0.2 0.9 0.7", "segment 0 0 0 0", "point 1e308 0",
         "segment nan 0 1 0", "points", "junk"]
_COEFFICIENTS = ["1", "2.5", "1 0 0 1", "1 0.5 0.5 1", "1 0.3 -0.3 1",
                 "dist_to_point 0.5 1 0.5", "dist_to_point 0.5 1 1e308",
                 *_EXTREME]
_BOOLEANS = ["true", "false", "1", "no", "maybe"]

# the value pool of each key; a key not listed draws from _EXTREME
_POOLS = {
    "seed": _INTEGERS,
    "mesh": ["fixture4.mesh", "nosuch.mesh", "", "fixture4.mesh x"],
    "coeff.mu_omega": _COEFFICIENTS,
    "coeff.mu_gd": _COEFFICIENTS,
    "coeff.mu_sigma": _COEFFICIENTS,
    "coeff.weight.s": _SETS,
    "coeff.weight.gamma": ["0.5", "1", "1.5", "3", *_EXTREME],
    "coeff.zeta.bulk": ["0.5", "2", "1e300", *_EXTREME],
    "coeff.zeta.gd": ["0.5", "2", "1e300", *_EXTREME],
    "coeff.zeta.sigma": ["0.5", "2", "1e300", *_EXTREME],
    "coeff.c1": ["0.5", "1", "2", *_EXTREME],
    "coeff.c2": ["0.5", "1", "2", *_EXTREME],
    "time.theta": ["0.5", "1", "0.75", "0.3", *_EXTREME],
    # with time.t_end from its own pool a run takes at most 10 steps
    "time.dt": ["0.01", "0.03", "1e-300", "5e-324", "1e308", "0", "-0.01",
                "nan", "inf", "junk"],
    "time.t_end": ["0.05", "0.1", "1e-300", "5e-324", "1e308", "0",
                   "-0.05", "nan", "inf", "junk"],
    "time.snapshots": ["0", "0.05", "0.02 0.04", "1e308", "nan", "junk"],
    "solver.tol": ["1e-12", "1e-300", "5e-324", *_EXTREME],
    "mass.lumped": _BOOLEANS,
    "init.bulk": ["random", "1", "0.25", *_EXTREME],
    "init.gd": ["random", "1", "0.25", *_EXTREME],
    "init.sigma": ["random", "1", "0.25", *_EXTREME],
    "eigs.count": _INTEGERS,
    "exponents.d": _INTEGERS,
    "exponents.gamma": ["0", "0.5", "1.5", *_EXTREME],
    "exponents.case": ["nondegenerate", "A", "B", "auto", "Z"],
    "exponents.surface_uniform": _BOOLEANS,
    "exponents.surface_near_s": _BOOLEANS,
    "probe.theta": ["0.5", "1", "0.25", *_EXTREME],
    "probe.p": ["2", "4", "8", "3", *_EXTREME],
    "probe.levels": ["3", "4", "1", "99", "junk"],
    "scan.s": _SETS,
    "scan.gamma": ["0", "0.5", "1.5", "300", "400", *_EXTREME],
    "scan.l_max": ["0", "1", "3", "9", "-1", "1e308", "junk"],
    "scan.window": ["-1 -1 1 1", "0 0 1 1", "2 2 3 3", "0 0 0 0",
                    "-1e308 -1e308 1e308 1e308", "nan 0 1 1", "junk"],
}

_BASE = {
    "evolve": {"mesh": "fixture4.mesh", "time.dt": "0.01",
               "time.t_end": "0.05", "init.bulk": "random",
               "init.gd": "random", "init.sigma": "random"},
    "eigs": {"mesh": "fixture4.mesh", "eigs.count": "3"},
    "probe": {"mesh": "fixture2.mesh"},
    "exponents": {"exponents.d": "3", "exponents.gamma": "0.5",
                  "exponents.case": "B"},
    "scan": {"scan.s": "segment -1 0.1 1 0.1", "scan.gamma": "0.5",
             "scan.l_max": "2"},
}
_DRAWN = sorted(_KNOWN_KEYS - {"pipeline", "output"})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_mesh(standard_fixture_mesh(4), root / "fixture4.mesh")
    save_mesh(standard_fixture_mesh(2), root / "fixture2.mesh")
    return root


def _numbers_finite(path, allow_inf):
    """Whether every cell of a CSV that reads as a number is finite
    (``allow_inf``: or infinite)."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if math.isnan(value) or (math.isinf(value) and not allow_inf):
                    return False
    return True


@st.composite
def _configs(draw):
    pipeline = draw(st.sampled_from(sorted(_BASE)))
    keys = dict(_BASE[pipeline])
    for key in draw(st.lists(st.sampled_from(_DRAWN), min_size=1,
                             max_size=4, unique=True)):
        keys[key] = draw(st.sampled_from(_POOLS.get(key, _EXTREME)))
    if pipeline == "probe" and keys.get("mesh") == "fixture4.mesh":
        keys["mesh"] = "fixture2.mesh"
    return pipeline, keys


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=_configs())
def test_run_keeps_the_exit_code_contract(fuzz_dir, config):
    pipeline, keys = config
    out = fuzz_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg = fuzz_dir / "fuzz.cfg"
    cfg.write_text(f"pipeline = {pipeline}\noutput = {out}\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items()))
    code = run(str(cfg))
    diags = validate(str(cfg))
    assert code in (0, 1, 2)
    if code:
        record = json.loads((out / "error.json").read_text())
        assert record["kind"], record
    if code == 2:
        assert diags, record
    if code == 0:
        for path in out.glob("*.csv"):
            if path.name != "manifest.csv":
                assert _numbers_finite(path, path.name == "exponents.csv"), \
                    path.read_text()
