import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import formheat.cli as cli
import formheat.spectral as spectral
from formheat import __version__, load_mesh, save_mesh
from formheat.assembly import (BlockField, CoefficientSet, build_dofmap,
                               build_pencil)
from formheat.cli import (_KNOWN_KEYS, RunConfig, _Output, main,
                          parse_config, run, validate)
from formheat.evolution import TimeSteppingConfig, evolve
from formheat.errors import ConfigError
from formheat.geometry import SurfaceMesh
from formheat.model_problems import unit_square_mesh


@pytest.fixture()
def workdir(tmp_path):
    save_mesh(unit_square_mesh(6, bottom="neumann", top="dynamic",
                               interface_y=0.5), tmp_path / "square.mesh")
    save_mesh(unit_square_mesh(6, interface_y=0.5), tmp_path / "mixed.mesh")
    return tmp_path


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pipeline evolve\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(bad)
    bad.write_text("pipeline = evolve\nnot.a.key = 1\n")
    with pytest.raises(ConfigError, match="not.a.key"):
        parse_config(bad)
    bad.write_text("pipeline = evolve\npipeline = scan\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(bad)


def test_exponents_pipeline_row(workdir):
    cfg = write_cfg(workdir / "exp.cfg", f"""
pipeline = exponents
output = {workdir}/exp
exponents.d = 3
exponents.gamma = 0.5
exponents.case = B
""")
    assert run(cfg) == 0
    lines = (workdir / "exp" / "exponents.csv").read_text().splitlines()
    assert lines[0] == "d,gamma,case,r_omega,r_tr,r_tr_gamma,r_tr_star,r0"
    assert lines[1] == "3,0.5,B,4,+inf,2.6667,+inf,2.6667"


def test_exponents_auto_case_without_gamma_is_nondegenerate(workdir):
    cfg = write_cfg(workdir / "exp.cfg", f"""
pipeline = exponents
output = {workdir}/exp
exponents.d = 3
exponents.gamma = 0
exponents.case = auto
""")
    assert run(cfg) == 0
    lines = (workdir / "exp" / "exponents.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == "nondegenerate"


def test_main_run_writes_to_the_output_option(workdir):
    cfg = write_cfg(workdir / "exp.cfg", f"""
pipeline = exponents
output = {workdir}/ignored
exponents.d = 3
exponents.gamma = 0.5
exponents.case = B
""")
    assert main(["run", cfg, "--output", str(workdir / "chosen")]) == 0
    assert sorted(os.listdir(workdir / "chosen")) == ["exponents.csv",
                                                      "manifest.csv"]
    assert not (workdir / "ignored").exists()


def test_evolve_equilibrium_constant_mass(workdir):
    cfg = write_cfg(workdir / "run.cfg", f"""
pipeline = evolve
output = {workdir}/out
seed = 0
mesh = square.mesh
time.theta = 1.0
time.dt = 0.01
time.t_end = 0.1
init.bulk = 1.0
init.gd = 1.0
init.sigma = 1.0
""")
    assert run(cfg) == 0
    rows = (workdir / "out" / "monitors.csv").read_text().splitlines()
    assert rows[0] == "step,time,mass,energy,supnorm,minval,cg_iters"
    masses = [float(r.split(",")[2]) for r in rows[1:]]
    assert max(masses) - min(masses) <= 1e-11 * abs(masses[0])


def test_missing_mesh_error_record(workdir):
    cfg = write_cfg(workdir / "bad.cfg", f"""
pipeline = evolve
output = {workdir}/bad
mesh = nosuch.mesh
time.dt = 0.1
time.t_end = 0.1
""")
    assert run(cfg) == 2
    record = json.loads((workdir / "bad" / "error.json").read_text())
    assert "mesh: file not found" in record["error"]


def test_validate_well_formed_is_clean(workdir):
    cfg = write_cfg(workdir / "ok.cfg", f"""
pipeline = evolve
mesh = square.mesh
time.dt = 0.01
time.t_end = 0.1
""")
    assert validate(cfg) == []


def test_validate_case_b_gamma_range(workdir):
    cfg = write_cfg(workdir / "caseb.cfg", f"""
pipeline = evolve
mesh = mixed.mesh
coeff.weight.s = segment 0 0.5 1 0.5
coeff.weight.gamma = 1.5
time.dt = 0.01
time.t_end = 0.1
""")
    diags = validate(cfg)
    assert any("requires gamma < 1" in d for d in diags)


def test_validate_negative_surface_coefficient(workdir):
    cfg = write_cfg(workdir / "neg.cfg", f"""
pipeline = evolve
mesh = square.mesh
coeff.mu_sigma = -1.0
time.dt = 0.01
time.t_end = 0.1
""")
    diags = validate(cfg)
    assert any("violates nonnegativity" in d for d in diags)


def manifest_rows(outdir):
    """The ``(key, value)`` rows of a run's manifest, read as CSV."""
    with open(outdir / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = [tuple(row) for row in csv.reader(fh)]
    assert rows[0] == ("key", "value")
    return rows[1:]


def test_deterministic_outputs(workdir):
    text = f"""
pipeline = evolve
seed = 42
mesh = square.mesh
time.theta = 1.0
time.dt = 0.01
time.t_end = 0.05
time.snapshots = 0 0.05
init.bulk = random
init.gd = random
init.sigma = random
"""
    cfg = write_cfg(workdir / "det.cfg", text)
    assert run(cfg, output_override=workdir / "det1") == 0
    assert run(cfg, output_override=workdir / "det2") == 0
    names = sorted(os.listdir(workdir / "det1"))
    assert names == sorted(os.listdir(workdir / "det2")) == [
        "manifest.csv", "monitors.csv", "snapshot_000.csv",
        "snapshot_001.csv"]
    for name in names:
        a, b = ((workdir / out / name).read_bytes().splitlines(keepends=True)
                for out in ("det1", "det2"))
        if name == "manifest.csv":     # the wall time is the last row
            assert a[-1].startswith(b"wall_time_seconds,")
            a, b = a[:-1], b[:-1]
        assert a == b


_MANIFEST_CASES = {
    "evolve": ("""
mesh = square.mesh
time.dt = 0.01
time.t_end = 0.05
time.snapshots = 0 0.05
""", ["monitors.csv", "snapshot_000.csv", "snapshot_001.csv"]),
    "eigs": ("""
mesh = mixed.mesh
eigs.count = 3
""", ["eigs.csv"]),
    "exponents": ("""
exponents.d = 3
exponents.gamma = 0.5
exponents.case = B
""", ["exponents.csv"]),
    "probe": ("""
mesh = tiny.mesh
probe.levels = 3
""", ["probe.csv"]),
    "scan": ("""
scan.s = point 0 0
scan.gamma = 1.0
scan.l_max = 2
scan.window = -1 -1 1 1
""", ["scan.csv", "scan_levels.csv"]),
}


@pytest.mark.parametrize("pipeline", sorted(_MANIFEST_CASES))
def test_manifest_completeness(workdir, pipeline):
    save_mesh(unit_square_mesh(4, bottom="neumann", top="dynamic"),
              workdir / "tiny.mesh")
    keys, files = _MANIFEST_CASES[pipeline]
    cfg = write_cfg(workdir / "man.cfg", f"pipeline = {pipeline}\n"
                    f"output = {workdir}/man\n{keys}")
    assert run(cfg) == 0
    rows = manifest_rows(workdir / "man")
    config = [(key[len("config."):], value) for key, value in rows
              if key.startswith("config.")]
    assert config == sorted((key, value) for key, (value, _)
                            in parse_config(cfg).items())
    outputs = [value for key, value in rows if key == "output_file"]
    assert outputs == files
    assert sorted(outputs) == sorted(
        f for f in os.listdir(workdir / "man") if f != "manifest.csv")
    assert rows[-1][0] == "wall_time_seconds"


def test_manifest_quotes_config_values_with_commas_and_quotes(workdir):
    mesh = 'sq "1",2.mesh'
    save_mesh(unit_square_mesh(4, interface_y=0.5), workdir / mesh)
    cfg = write_cfg(workdir / "q.cfg", f"""
pipeline = eigs
output = {workdir}/c,1
mesh = {mesh}
eigs.count = 2
""")
    assert run(cfg) == 0
    text = (workdir / "c,1" / "manifest.csv").read_text()
    assert f'config.mesh,"sq ""1"",2.mesh"\n' in text
    assert f'config.output,"{workdir}/c,1"\n' in text
    assert "config.pipeline,eigs\n" in text       # unquoted where it can be
    rows = manifest_rows(workdir / "c,1")
    assert all(len(row) == 2 for row in rows)
    assert [row for row in rows if row[0].startswith("config.")] == [
        ("config.eigs.count", "2"), ("config.mesh", mesh),
        ("config.output", f"{workdir}/c,1"), ("config.pipeline", "eigs")]


@pytest.mark.parametrize("target, warning", [
    ("point 0 0", None),
    ("point 5 5", "window does not cover the degeneracy set"),
])
def test_scan_manifest_warns_of_a_window_that_misses_the_set(
        workdir, target, warning):
    cfg = write_cfg(workdir / "miss.cfg", f"""
pipeline = scan
output = {workdir}/miss
scan.s = {target}
scan.gamma = 1.0
scan.l_max = 2
""")
    assert run(cfg) == 0
    rows = dict(line.split(",", 1) for line in
                (workdir / "miss" / "manifest.csv").read_text().splitlines())
    assert rows.get("scan.warning") == warning


def test_eigs_pipeline(workdir):
    cfg = write_cfg(workdir / "eigs.cfg", f"""
pipeline = eigs
output = {workdir}/eigs
mesh = mixed.mesh
eigs.count = 3
""")
    assert run(cfg) == 0
    rows = (workdir / "eigs" / "eigs.csv").read_text().splitlines()
    assert rows[0] == "index,lambda,residual"
    assert len(rows) == 4
    lams = [float(r.split(",")[1]) for r in rows[1:]]
    assert lams == sorted(lams)


def test_probe_pipeline(workdir):
    save_mesh(unit_square_mesh(4, bottom="neumann", top="dynamic"),
              workdir / "tiny.mesh")
    cfg = write_cfg(workdir / "probe.cfg", f"""
pipeline = probe
output = {workdir}/probe
mesh = tiny.mesh
probe.theta = 1.0
probe.p = 2
probe.levels = 3
""")
    assert run(cfg) == 0
    rows = (workdir / "probe" / "probe.csv").read_text().splitlines()
    assert rows[0] == "level,h,ratio"
    assert len(rows) == 4


def test_main_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_main_validate_prints_ok(workdir, capsys):
    cfg = write_cfg(workdir / "v.cfg", f"""
pipeline = evolve
mesh = square.mesh
time.dt = 0.01
time.t_end = 0.1
""")
    assert main(["validate", cfg]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_main_validate_exits_2_on_diagnostics(workdir, capsys):
    cfg = write_cfg(workdir / "v.cfg", f"""
pipeline = evolve
mesh = square.mesh
time.dt = 0.01
time.t_end = 0.1
eigs.count = 3
init.bulk = foo
""")
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("init:")


def test_nonmultiple_dt_is_a_config_error(workdir, capsys):
    cfg = write_cfg(workdir / "dt.cfg", f"""
pipeline = evolve
output = {workdir}/dt
mesh = square.mesh
time.dt = 0.03
time.t_end = 0.1
""")
    assert run(cfg) == 2
    record = json.loads((workdir / "dt" / "error.json").read_text())
    assert record["kind"] == "ConfigError"
    assert "integer multiple of dt" in record["error"]
    assert not (workdir / "dt" / "monitors.csv").exists()
    diags = validate(cfg)
    assert any(d.startswith("time:") and "integer multiple of dt" in d
               for d in diags)


@pytest.mark.parametrize("text, message", [
    ("pipeline = eigs\noutput = {out}\nbogus = 1\n", "unknown key"),
    ("bogus = 1\npipeline = eigs\noutput = {out}\n", "unknown key"),
    ("pipeline = eigs\noutput = {out}\noutput = elsewhere\n",
     "duplicate key"),
    ("pipeline = nope\noutput = {out}\n", "unknown pipeline"),
], ids=["unknown-key", "unknown-key-first", "duplicate", "pipeline"])
def test_unparsed_config_writes_error_to_named_output(workdir, text, message):
    out = workdir / "outdir_bad"
    cfg = write_cfg(workdir / "bad.cfg", text.format(out=out))
    assert run(cfg) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["kind"] == "ConfigError"
    assert message in record["error"]
    assert sorted(os.listdir(out)) == ["error.json"]
    assert not (workdir / "elsewhere").exists()


_BASE_KEYS = {
    "scan": {"pipeline": "scan", "scan.s": "segment -1 0 1 0",
             "scan.gamma": "0.5", "scan.l_max": "2"},
    "evolve": {"pipeline": "evolve", "mesh": "square.mesh",
               "time.dt": "0.01", "time.t_end": "0.05",
               "coeff.weight.s": "segment 0 0.5 1 0.5"},
}


@pytest.mark.parametrize("pipeline, key, value, section, message", [
    ("scan", "scan.l_max", "9", "scan", "0..8"),
    ("scan", "scan.l_max", "-1", "scan", "0..8"),
    ("scan", "scan.gamma", "-0.5", "scan", "nonnegative"),
    ("scan", "scan.window", "1 1 -1 -1", "scan", "non-empty"),
    ("scan", "scan.s", "segment 0 0 0 0", "scan", "zero-length"),
    ("scan", "scan.s", "", "scan", "expected 'point x y'"),
    ("evolve", "coeff.weight.gamma", "-1", "coefficients", "nonnegative"),
    ("evolve", "coeff.mu_gd", "dist_to_point 0 1 -0.5", "coefficients",
     "nonnegative"),
    ("evolve", "coeff.mu_gd", "", "coefficients", "malformed coefficient"),
    ("evolve", "coeff.mu_gd", "dist_to_point 0.5 1", "coefficients",
     "expected 'dist_to_point x y gamma'"),
    ("evolve", "coeff.mu_omega", "1 2 3", "coefficients",
     "expected a scalar or 4 matrix entries"),
    ("evolve", "time.snapshots", "0.1 x", "time", "expected numbers"),
    ("scan", "scan.window", "a b c d", "scan", "expected numbers"),
])
def test_bad_config_values_are_config_errors(workdir, pipeline, key, value,
                                             section, message):
    keys = dict(_BASE_KEYS[pipeline], output=f"{workdir}/bad")
    keys[key] = value
    cfg = write_cfg(workdir / "bad.cfg",
                    "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert run(cfg) == 2
    record = json.loads((workdir / "bad" / "error.json").read_text())
    assert record["kind"] == "ConfigError"
    assert message in record["error"]
    assert sorted(os.listdir(workdir / "bad")) == ["error.json"]
    diags = validate(cfg)
    assert any(d.startswith(f"{section}:") and message in d for d in diags)


def test_evolve_manifest_reports_solver(workdir):
    cfg = write_cfg(workdir / "solver.cfg", f"""
pipeline = evolve
output = {workdir}/solver
mesh = mixed.mesh
time.dt = 0.01
time.t_end = 0.05
init.bulk = random
""")
    assert run(cfg) == 0
    rows = dict(line.split(",", 1) for line in
                (workdir / "solver" / "manifest.csv").read_text().splitlines())
    assert rows["solver.method"] == "direct"
    assert int(rows["solver.factor_nnz"]) > 0
    assert 0.0 <= float(rows["solver.backward_error_max"]) <= 1e-11
    monitors = (workdir / "solver" / "monitors.csv").read_text().splitlines()
    assert all(line.endswith(",0") for line in monitors[1:])


# off-diagonal entries one ulp apart: symmetric means bitwise symmetric,
# so its step matrix takes LU, and eigs and probe refuse it
_ULP_SKEW = "1 0.3 0.30000000000000004 1"


@pytest.mark.parametrize("mu_omega, kind", [("1.0", "band-cholesky"),
                                             ("1 0.5 -0.5 1", "lu"),
                                             (_ULP_SKEW, "lu")])
def test_evolve_manifest_names_the_factorization(workdir, mu_omega, kind):
    cfg = write_cfg(workdir / "factor.cfg", f"""
pipeline = evolve
output = {workdir}/factor
mesh = mixed.mesh
time.dt = 0.01
time.t_end = 0.02
coeff.mu_omega = {mu_omega}
""")
    assert run(cfg) == 0
    rows = dict(line.split(",", 1) for line in
                (workdir / "factor" / "manifest.csv").read_text().splitlines())
    assert rows["solver.factorization"] == kind


_AGREE_BASE = {
    "evolve": {"pipeline": "evolve", "mesh": "square.mesh",
               "time.dt": "0.01", "time.t_end": "0.05"},
    "eigs": {"pipeline": "eigs", "mesh": "mixed.mesh", "eigs.count": "3"},
    "probe": {"pipeline": "probe", "mesh": "square.mesh"},
    "exponents": {"pipeline": "exponents", "exponents.d": "3",
                  "exponents.gamma": "0.5", "exponents.case": "A"},
    "scan": _BASE_KEYS["scan"],
}


# (pipeline, changed keys (None deletes one), run's exit code or, for
# exit 1, the kind of its error, the section of validate's diagnostic, a
# fragment of the message); exit 2 rows are configuration errors both
# paths report, exit 0 rows inputs both accept, exit 1 rows with a section
# failures both report before any compute, and exit 1 rows without one
# failures only the run can see
_AGREE_ROWS = [
    ("eigs", {"eigs.count": "0"}, 2, "eigs", "positive count"),
    ("eigs", {"eigs.count": "-2"}, 2, "eigs", "positive count"),
    ("eigs", {"eigs.count": "abc"}, 2, "eigs", "malformed value"),
    ("probe", {"probe.levels": "1"}, 2, "probe", "at least 3"),
    ("probe", {"probe.p": "3"}, 2, "probe", "one of 2, 4, 8"),
    ("probe", {"probe.theta": "-1"}, 2, "probe",
     "fractional exponent must lie in (0, 1], got -1.0"),
    ("probe", {"probe.theta": "0"}, 2, "probe",
     "fractional exponent must lie in (0, 1], got 0.0"),
    ("probe", {"probe.theta": "2.5"}, 2, "probe",
     "fractional exponent must lie in (0, 1], got 2.5"),
    ("probe", {"probe.theta": "inf"}, 2, "probe",
     "fractional exponent must lie in (0, 1], got inf"),
    ("probe", {"probe.theta": "nan"}, 2, "probe",
     "fractional exponent must lie in (0, 1], got nan"),
    ("exponents", {"exponents.d": "1"}, 2, "exponents", "at least 2"),
    ("exponents", {"exponents.gamma": "-1"}, 2, "exponents", "nonnegative"),
    ("exponents", {"exponents.case": "Z"}, 2, "exponents",
     "expected nondegenerate, A, B or auto"),
    ("exponents", {"exponents.case": None}, 2, "exponents",
     "key 'mesh': missing required key"),
    ("evolve", {"mass.lumped": "maybe"}, 2, "mass", "malformed value"),
    ("evolve", {"init.bulk": "foo"}, 2, "init", "a number or 'random'"),
    ("evolve", {"seed": "-1", "init.bulk": "random"}, 2, "config",
     "expected a nonnegative integer"),
    ("evolve", {"solver.tol": "-1"}, 2, "time", "solver_tol must be positive"),
    ("evolve", {"coeff.mu_omega": "abc"}, 2, "coefficients",
     "malformed coefficient"),
    ("evolve", {"coeff.mu_omega.region.1": "1 x 2 3"}, 2, "coefficients",
     "malformed coefficient"),
    ("evolve", {"coeff.mu_omega.region.top": "2"}, 2, "coefficients",
     "region id must be an integer"),
    ("evolve", {"coeff.zeta.gd": "-1"}, 2, "coefficients", "must be positive"),
    ("evolve", {"coeff.mu_sigma": "-1.0"}, 2, "coefficients",
     "violates nonnegativity"),
    ("evolve", {"coeff.mu_sigma": "2.0 junk 7"}, 2, "coefficients",
     "malformed coefficient"),
    ("evolve", {"coeff.mu_gd": "2 0.5 0.5 1"}, 2, "coefficients",
     "malformed coefficient"),
    ("evolve", {"coeff.mu_gd": "-0.5"}, 2, "coefficients",
     "violates nonnegativity"),
    ("evolve", {"time.snapshots": "0.2"}, 2, "time",
     "snapshot times must lie in [0, t_end]"),
    ("scan", {"mesh": "nosuch.mesh"}, 0, None, None),
    ("scan", {"scan.s": "points -0.5 0 0.5 0"}, 0, None, None),
    ("exponents", {"exponents.case": "auto", "exponents.gamma": "0"}, 0,
     None, None),
    ("exponents", {"exponents.case": "auto", "mesh": "square.mesh"}, 2,
     "exponents", "key 'exponents.case': exponents.case = auto needs "
     "coeff.weight.*"),
    ("scan", {"coeff.mu_omega": "abc"}, 0, None, None),
    ("eigs", {"eigs.count": "1000"}, 2, "eigs", "1000 eigenpairs"),
    ("eigs", {"coeff.mu_omega": _ULP_SKEW, "coeff.c1": "0.5",
              "coeff.c2": "2"}, "EigenSolveError", None,
     "pencil is not symmetric"),
    ("probe", {"coeff.mu_omega": _ULP_SKEW, "coeff.c1": "0.5",
               "coeff.c2": "2"}, "EigenSolveError", None,
     "spectral calculus needs a symmetric pencil"),
    # the fourth level of square.mesh (no Dirichlet part) has 49^2 dofs
    ("probe", {"probe.levels": "4"}, "SizeLimitError", "probe",
     "dense spectral calculus limited to 2000 dofs (pencil has 2401)"),
    # (2e7 + 1)^2 cubes on level 0: the scan refuses before allocating
    ("scan", {"scan.l_max": "0", "scan.window": "-1e7 -1e7 1e7 1e7"},
     "SizeLimitError", "scan", "dyadic scan limited to 1050625 cubes per "
     "level (level 0 has 400000040000001)"),
    # step counts past the limit, one of them infinite
    ("evolve", {"time.t_end": "1e308"}, 2, "time",
     "t_end / dt = inf steps is above the limit of 10000000"),
    ("evolve", {"time.dt": "1e-300"}, 2, "time",
     "t_end / dt = 5e+298 steps is above the limit of 10000000"),
    # a finite surface coefficient whose stiffness integral / L^2 is not
    ("eigs", {"coeff.mu_sigma": "1e308"}, "EnvelopeViolationError", None,
     "mu_sigma gives a non-finite tangential stiffness"),
    ("probe", {"coeff.mu_sigma": "1e308"}, "EnvelopeViolationError", None,
     "mu_sigma gives a non-finite tangential stiffness"),
    ("scan", {"scan.s": "segment -1 0.1 1 0.1", "scan.gamma": "1e308"},
     "QuadratureAccuracyError", None,
     "a power with exponent 1e+308 overflows"),
    # a finite bulk coefficient, within its declared envelope, whose
    # stiffness overflows: named before any solve
    ("eigs", {"coeff.mu_omega": "5e307", "coeff.c2": "1e308"},
     "EnvelopeViolationError", None,
     "mu_omega gives a non-finite bulk stiffness K_bulk"),
    ("probe", {"coeff.mu_omega": "5e307", "coeff.c2": "1e308"},
     "EnvelopeViolationError", None,
     "mu_omega gives a non-finite bulk stiffness K_bulk"),
    ("evolve", {"coeff.mu_omega": "5e307", "coeff.c2": "1e308"},
     "EnvelopeViolationError", None,
     "mu_omega gives a non-finite bulk stiffness K_bulk"),
    # finite initial data whose energy overflows
    ("evolve", {"init.sigma": "1e308"}, "SolveError", None,
     "non-finite monitor at step 0"),
]


@pytest.mark.parametrize(
    "pipeline, changes, code, section, message", _AGREE_ROWS,
    ids=[f"{row[0]}-" + ",".join(f"{k}={v}" for k, v in row[1].items())
         for row in _AGREE_ROWS])
def test_run_and_validate_agree(workdir, pipeline, changes, code, section,
                                message):
    keys = dict(_AGREE_BASE[pipeline], output=f"{workdir}/out")
    keys.update(changes)
    cfg = write_cfg(workdir / "agree.cfg", "".join(
        f"{k} = {v}\n" for k, v in keys.items() if v is not None))
    kind, code = (code, 1) if isinstance(code, str) else ("ConfigError", code)
    assert run(cfg) == code
    out = workdir / "out"
    diags = validate(cfg)
    if code == 0:
        assert (out / "manifest.csv").is_file()
        assert diags == []
        return
    record = json.loads((out / "error.json").read_text())
    assert message in record["error"]
    assert record["kind"] == kind
    if section is None:
        assert diags == []
        return
    assert sorted(os.listdir(out)) == ["error.json"]
    assert [d for d in diags if d.startswith(f"{section}:")
            and message in d], diags


# every numeric key that must be finite: (pipeline, key, its value with
# {} for the non-finite number, validate's section); one row per key
_NON_FINITE_ROWS = [
    ("evolve", "time.dt", "{}", "time"),
    ("evolve", "time.t_end", "{}", "time"),
    ("evolve", "solver.tol", "{}", "time"),
    ("evolve", "coeff.mu_omega", "{}", "coefficients"),
    ("evolve", "coeff.mu_omega.region.1", "1 0 0 {}", "coefficients"),
    ("evolve", "coeff.c1", "{}", "coefficients"),
    ("evolve", "coeff.c2", "{}", "coefficients"),
    ("evolve", "coeff.weight.gamma", "{}", "coefficients"),
    ("evolve", "coeff.mu_gd", "{}", "coefficients"),
    ("evolve", "coeff.mu_gd", "dist_to_point 0.5 1 {}", "coefficients"),
    ("evolve", "coeff.mu_sigma", "{}", "coefficients"),
    ("eigs", "coeff.zeta.bulk", "{}", "coefficients"),
    ("evolve", "coeff.zeta.gd", "{}", "coefficients"),
    ("evolve", "coeff.zeta.sigma", "{}", "coefficients"),
    ("evolve", "init.bulk", "{}", "init"),
    ("evolve", "init.gd", "{}", "init"),
    ("evolve", "init.sigma", "{}", "init"),
    ("scan", "scan.gamma", "{}", "scan"),
]


@pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("pipeline, key, value, section", _NON_FINITE_ROWS,
                         ids=[f"{row[1]}={row[2]}" for row in _NON_FINITE_ROWS])
def test_non_finite_values_are_config_errors(workdir, pipeline, key, value,
                                             section, number):
    keys = dict(_AGREE_BASE[pipeline], output=f"{workdir}/out",
                **{"coeff.weight.s": "segment 0 0.5 1 0.5"})
    keys[key] = value.format(number)
    cfg = write_cfg(workdir / "nonfinite.cfg",
                    "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert run(cfg) == 2
    out = workdir / "out"
    assert sorted(os.listdir(out)) == ["error.json"]
    assert json.loads((out / "error.json").read_text())["kind"] == \
        "ConfigError"
    assert [d for d in validate(cfg) if d.startswith(f"{section}:")
            and "finite" in d]


def test_dense_eigs_past_the_size_limit(workdir, monkeypatch):
    # nearly all pairs take the dense branch at any size, so it checks
    # the size limit for kept eigenvectors
    n = build_dofmap(load_mesh(workdir / "mixed.mesh")).n_free
    monkeypatch.setattr(spectral, "_DENSE_CALCULUS_LIMIT", n - 1)
    keys = dict(_AGREE_BASE["eigs"], output=f"{workdir}/out")
    keys["eigs.count"] = str(n - 1)
    cfg = write_cfg(workdir / "eigs.cfg",
                    "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert run(cfg) == 1
    out = workdir / "out"
    assert sorted(os.listdir(out)) == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record["kind"] == "SizeLimitError"
    assert record["error"] == (f"dense spectral calculus limited to {n - 1} "
                               f"dofs (pencil has {n})")


def test_dense_eigs_size_limit_checked_before_any_pencil(workdir,
                                                        monkeypatch):
    n = build_dofmap(load_mesh(workdir / "mixed.mesh")).n_free
    monkeypatch.setattr(spectral, "_DENSE_CALCULUS_LIMIT", n - 1)
    monkeypatch.setattr(cli, "build_pencil", None)
    keys = dict(_AGREE_BASE["eigs"], **{"eigs.count": str(n - 1)})
    cfg = write_cfg(workdir / "eigs.cfg",
                    "".join(f"{k} = {v}\n" for k, v in keys.items()))
    message = (f"dense spectral calculus limited to {n - 1} dofs "
               f"(pencil has {n})")
    assert validate(cfg) == [f"eigs: {message}"]
    assert run(cfg, output_override=workdir / "out") == 1
    record = json.loads((workdir / "out" / "error.json").read_text())
    assert record == {"error": message, "kind": "SizeLimitError"}


@pytest.mark.parametrize("pipeline", ["evolve", "eigs", "probe"])
def test_mesh_without_free_dofs_rejected_before_any_solve(workdir, pipeline):
    save_mesh(unit_square_mesh(1, bottom="dirichlet", top="dirichlet",
                               left="dirichlet", right="dirichlet"),
              workdir / "clamped.mesh")
    keys = dict(_AGREE_BASE[pipeline], mesh="clamped.mesh",
                output=f"{workdir}/out")
    cfg = write_cfg(workdir / "clamped.cfg", "".join(
        f"{k} = {v}\n" for k, v in keys.items()))
    assert run(cfg) == 1
    out = workdir / "out"
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "no free bulk dofs: every vertex is "
                      "constrained", "kind": "ConsistencyError"}
    assert sorted(os.listdir(out)) == ["error.json"]
    assert validate(cfg) == [
        "mesh: no free bulk dofs: every vertex is constrained"]


def test_exponents_classify_on_a_mesh_without_free_dofs(workdir):
    # the exponent report reads the mesh only to classify the weight
    save_mesh(unit_square_mesh(1, bottom="dirichlet", top="dirichlet",
                               left="dirichlet", right="dirichlet"),
              workdir / "clamped.mesh")
    cfg = write_cfg(workdir / "exp.cfg", f"""
pipeline = exponents
output = {workdir}/exp
mesh = clamped.mesh
exponents.gamma = 0.5
coeff.weight.s = point 0.5 0.5
coeff.weight.gamma = 0.5
""")
    assert validate(cfg) == []
    assert run(cfg) == 0


def test_probe_mesh_failure_reported_once(workdir):
    # the probe's refinement ladder reads the mesh too, but a missing
    # mesh is one diagnostic, under mesh:
    cfg = write_cfg(workdir / "probe.cfg",
                    "pipeline = probe\nmesh = nosuch.mesh\n")
    assert validate(cfg) == [
        f"mesh: file not found ({workdir / 'nosuch.mesh'})"]
    assert run(cfg, output_override=workdir / "out") == 2


# one valid value for every known key, and one region override: every
# pipeline validates cleanly from it
_EVERY_KEY = {
    "seed": "1", "mesh": "square.mesh",
    "coeff.mu_omega": "1.0", "coeff.mu_omega.region.1": "2.0",
    "coeff.weight.s": "point 0.5 0.25", "coeff.weight.gamma": "0.5",
    "coeff.mu_gd": "1.0", "coeff.mu_sigma": "dist_to_point 0 0.5 1",
    "coeff.c1": "1", "coeff.c2": "2",
    "coeff.zeta.bulk": "1", "coeff.zeta.gd": "2", "coeff.zeta.sigma": "3",
    "time.theta": "1.0", "time.dt": "0.01", "time.t_end": "0.05",
    "time.snapshots": "0.05", "solver.tol": "1e-10", "mass.lumped": "yes",
    "init.bulk": "random", "init.gd": "1", "init.sigma": "0",
    "eigs.count": "3",
    "exponents.d": "2", "exponents.gamma": "0.5", "exponents.case": "auto",
    "exponents.surface_uniform": "false", "exponents.surface_near_s": "no",
    "probe.theta": "0.5", "probe.p": "2", "probe.levels": "3",
    "scan.s": "point 0 0", "scan.gamma": "1.0", "scan.l_max": "2",
    "scan.window": "-1 -1 1 1",
}


def test_every_known_key_is_read_through_one_reader(workdir, monkeypatch):
    # a listed key no builder reads, or a misspelt read that would fall
    # back to its default, makes the keys read differ from the known ones
    read = set()
    reader = RunConfig._read

    def recording(self, key, *args):
        read.add(key)
        return reader(self, key, *args)

    monkeypatch.setattr(RunConfig, "_read", recording)
    for pipeline in ("evolve", "eigs", "exponents", "probe", "scan"):
        cfg = write_cfg(workdir / f"{pipeline}.cfg", "".join(
            f"{k} = {v}\n" for k, v in
            dict(_EVERY_KEY, pipeline=pipeline, output="out").items()))
        assert validate(cfg) == [], pipeline
    assert read | {"output"} == _KNOWN_KEYS | {"coeff.mu_omega.region.1"}


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = set(re.findall(r"^([\w.]+) *=", block, flags=re.MULTILINE))
    regions = {k for k in keys
               if re.fullmatch(r"coeff\.mu_omega\.region\.\d+", k)}
    assert len(regions) == 1
    assert keys - regions == _KNOWN_KEYS


# A 0xff byte in the config (exit 2) or in a mesh vertex line (exit 1):
# (file, exit code of run, error kind, validate's section)
_NOT_UTF8_ROWS = [
    ("config", 2, "ConfigError", "config"),
    ("mesh", 1, "MeshFormatError", "mesh"),
]


@pytest.mark.parametrize("target, code, kind, section", _NOT_UTF8_ROWS,
                         ids=[row[0] for row in _NOT_UTF8_ROWS])
def test_input_files_that_are_not_utf8(workdir, target, code, kind, section):
    mesh = (workdir / "square.mesh").read_bytes().split(b"\n")
    config = [b"pipeline = eigs", b"mesh = bad.mesh", b"eigs.count = 2", b""]
    bad = config if target == "config" else mesh
    bad[1] += b" \xff"
    (workdir / "bad.mesh").write_bytes(b"\n".join(mesh))
    cfg = workdir / "bad.cfg"
    cfg.write_bytes(b"\n".join(config))
    out = workdir / "out"
    assert run(cfg, output_override=out) == code
    record = json.loads((out / "error.json").read_text())
    assert record == {"kind": kind, "error": "line 2: not UTF-8 text"}
    assert sorted(os.listdir(out)) == ["error.json"]
    assert validate(cfg) == [f"{section}: line 2: not UTF-8 text"]



def test_table_writer_cells(tmp_path):
    awkward = [-0.0, 1.0 / 3.0, 5e-324, 1e16, -1e-300]
    out = _Output(tmp_path / "out", {})
    out.table("t.csv", {
        "array": np.array(awkward),
        "float": awkward,
        "float64": [np.float64(x) for x in awkward],
        "int": [np.int64(-3), 0, 7, 2 ** 70, True],
        "int_array": np.arange(5),
        "text": ["a", "", "None", "two\nlines", "x,y"],
        "mixed": [None, 1.5, 'say "hi"', None, 2]})
    floats = "-0.0 0.3333333333333333 5e-324 1e+16 -1e-300".split()
    ints = "-3 0 7 1180591620717411303424 True".split()
    texts = ["a", "", "None", '"two\nlines"', '"x,y"']
    mixed = ["", "1.5", '"say ""hi"""', "", "2"]
    lines = ["array,float,float64,int,int_array,text,mixed"] + [
        ",".join((floats[k],) * 3 + (ints[k], str(k), texts[k], mixed[k]))
        for k in range(5)]
    path = tmp_path / "out" / "t.csv"
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[5] for row in rows[1:]] == ["a", "", "None", "two\nlines",
                                            "x,y"]
    assert [row[6] for row in rows[1:]] == ["", "1.5", 'say "hi"', "", "2"]
    assert [float(row[0]) for row in rows[1:]] == awkward
    assert out.files == ["t.csv"]


def test_evolve_outputs_match_per_row_layout(workdir):
    cfg = write_cfg(workdir / "snap.cfg", f"""
pipeline = evolve
output = {workdir}/snap
mesh = mixed.mesh
time.dt = 0.01
time.t_end = 0.03
time.snapshots = 0 0.03
init.bulk = 1.0
init.gd = 0.25
init.sigma = -0.5
""")
    assert run(cfg) == 0
    mesh = load_mesh(workdir / "mixed.mesh")
    dofmap = build_dofmap(mesh, SurfaceMesh.from_mesh(mesh, "dynamic"),
                          SurfaceMesh.from_mesh(mesh, "interface"))
    pencil = build_pencil(mesh, CoefficientSet())
    u0 = BlockField(np.full(dofmap.n_free, 1.0), np.full(dofmap.n_gd, 0.25),
                    np.full(dofmap.n_sigma, -0.5))
    report = evolve(pencil, u0, None, TimeSteppingConfig(
        dt=0.01, t_end=0.03, snapshot_times=(0.0, 0.03)))
    monitors = ["step,time,mass,energy,supnorm,minval,cg_iters"] + [
        ",".join([str(k)] + [repr(float(c[k])) for c in (
            report.times, report.mass, report.energy, report.supnorm,
            report.minval)] + [str(int(report.cg_iters[k]))])
        for k in range(4)]
    assert (workdir / "snap" / "monitors.csv").read_bytes() == (
        "\n".join(monitors) + "\n").encode()
    assert len(report.snapshots) == 2
    for k, (_, field) in enumerate(report.snapshots):
        lines = ["node_kind,node_index,x,y,value"]
        for kind, verts, vals in (
                ("bulk", dofmap.free_vertices, field.bulk),
                ("gd", dofmap.gd_vertices, field.gd),
                ("sigma", dofmap.sigma_vertices, field.sigma)):
            for i, v in enumerate(verts):
                x, y = mesh.vertices[v]
                lines.append(f"{kind},{i},{float(x)!r},{float(y)!r},"
                             f"{float(vals[i])!r}")
        assert dofmap.n_gd and dofmap.n_sigma
        path = workdir / "snap" / f"snapshot_{k:03d}.csv"
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
