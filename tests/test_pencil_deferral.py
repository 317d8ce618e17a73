"""The pencil assembles ``M_form`` and ``M_blk_plain`` each on its own
first use: CLI runs build neither, each is built once, on the first
access of that matrix, each diagnostic builds only the matrix it reads,
both equal an eager assembly bit for bit, and the diagnostics that read
them keep the values recorded before the deferral, as does the envelope
check, which now evaluates the bulk weight once.  The same holds for
``M_form_bulk`` and ``interface_mass``, which only the trace probe, the
J-ellipticity constant and flux recovery read.

The recorded values are recomputed in one child process whose BLAS runs
the thread count they were recorded at: the dense eigensolve of the
J-ellipticity constant rounds differently at other counts."""

import hashlib
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh, pencil_reference_coefficients
from oracles import eager_plain_and_form, pencil_digest
import formheat
from formheat import save_mesh
from formheat.assembly import (BlockField, CoefficientSet, DiscreteOperator,
                               build_pencil, validate_envelopes)
from formheat.cli import run
from formheat.evolution import recover_interface_flux, steady_solve
from formheat.geometry import Points, Polyline
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.spectral import j_ellipticity_constant, trace_norm_probe
from formheat.weights import WeightSpec

REFERENCE = json.loads(
    (Path(__file__).with_name("pencil_reference.json")).read_text())


_DEFERRED = ("M_form", "M_blk_plain")
# the parts of the form-domain Gram matrix and of the plain block mass
# that the trace probe reads
_PROBE_MATRICES = ("M_form_bulk", "interface_mass")


def _spy(monkeypatch, names):
    """The name of the matrix each run of the builder of one of the
    deferred matrices ``names`` assembled, in call order."""
    calls = []
    for name in names:
        def counting(pencil, build=getattr(DiscreteOperator, name).func,
                     name=name):
            calls.append(name)
            return build(pencil)

        spy = cached_property(counting)
        spy.__set_name__(DiscreteOperator, name)
        monkeypatch.setattr(DiscreteOperator, name, spy)
    return calls


@pytest.fixture()
def builds(monkeypatch):
    """The builds of ``M_form`` and ``M_blk_plain``, in call order."""
    return _spy(monkeypatch, _DEFERRED)


@pytest.fixture()
def probe_builds(monkeypatch):
    """The builds of ``M_form_bulk`` and ``interface_mass``, in call
    order."""
    return _spy(monkeypatch, _PROBE_MATRICES)


_RUNS = {
    "evolve": """
mesh = mixed.mesh
coeff.weight.s = segment 0 0.5 1 0.5
coeff.weight.gamma = 0.5
coeff.mu_gd = dist_to_point 0.5 1 0.5
mass.lumped = true
time.dt = 0.01
time.t_end = 0.05
time.snapshots = 0 0.05
init.bulk = random
""",
    "eigs": """
mesh = mixed.mesh
eigs.count = 3
""",
    "probe": """
mesh = tiny.mesh
probe.levels = 3
""",
}


@pytest.mark.parametrize("pipeline", sorted(_RUNS))
def test_cli_runs_assemble_no_diagnostic_matrix(tmp_path, builds,
                                                probe_builds, pipeline):
    save_mesh(unit_square_mesh(6, interface_y=0.5), tmp_path / "mixed.mesh")
    save_mesh(unit_square_mesh(4, bottom="neumann", top="dynamic"),
              tmp_path / "tiny.mesh")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"pipeline = {pipeline}\noutput = {tmp_path}/out\n"
                   f"seed = 0\n{_RUNS[pipeline]}")
    assert run(cfg) == 0
    assert builds == []
    assert probe_builds == []


@pytest.mark.parametrize("first", _DEFERRED)
def test_each_matrix_is_built_once_on_its_own_first_access(std_mesh_8, builds,
                                                           first):
    pencil = build_pencil(std_mesh_8, CoefficientSet())
    assert builds == []
    matrix = getattr(pencil, first)
    assert builds == [first]
    assert getattr(pencil, first) is matrix
    assert builds == [first]
    second, = set(_DEFERRED) - {first}
    other = getattr(pencil, second)
    assert builds == [first, second]
    assert getattr(pencil, first) is matrix
    assert getattr(pencil, second) is other
    assert builds == [first, second]


# reads: the builds of (M_form, M_blk_plain) and of (M_form_bulk,
# interface_mass) a diagnostic makes, each in call order
@pytest.mark.parametrize("diagnostic, reads", [
    ("steady_solve", (["M_blk_plain"], [])),
    ("flux", (["M_blk_plain"], ["interface_mass"])),
    ("flux_unforced", ([], ["interface_mass"])),
    ("j_ellipticity", (["M_form"], ["M_form_bulk"])),
    ("trace_probe", ([], ["interface_mass", "M_form_bulk"]))])
def test_each_diagnostic_builds_only_the_matrix_it_reads(
        std_mesh_8, builds, probe_builds, diagnostic, reads):
    pencil = build_pencil(std_mesh_8, CoefficientSet())
    f = BlockField.from_functions(std_mesh_8, pencil.dofmap,
                                  lambda x: 1.0 + x[:, 0])
    u = np.zeros(pencil.n_free)
    {"steady_solve": lambda: steady_solve(pencil, f),
     "flux": lambda: recover_interface_flux(pencil, u, f),
     "flux_unforced": lambda: recover_interface_flux(pencil, u),
     "j_ellipticity": lambda: j_ellipticity_constant(pencil),
     "trace_probe": lambda: trace_norm_probe(pencil)}[diagnostic]()
    assert (builds, probe_builds) == reads


def _csr_bytes(matrix):
    return tuple(np.ascontiguousarray(a).tobytes()
                 for a in (matrix.data, matrix.indices, matrix.indptr))


_bulk = st.sampled_from(["scalar", "matrix", "regions", "callable"])
_weights = {"none": None,
            "segment": WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5),
            "point": WeightSpec(Points((0.5, 0.25)), 1.0)}
_zeta = st.one_of(st.just(1.0), st.floats(0.2, 5.0),
                  st.just(lambda p: 1.5 + p[:, 0] * p[:, 1]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 16), bulk=_bulk,
       weight=st.sampled_from(sorted(_weights)), zeta=_zeta,
       mu_gd=st.one_of(st.floats(0.0, 5.0),
                       st.just(lambda p: 1.0 + p[:, 0] ** 2)),
       top=st.sampled_from(["dynamic", "neumann"]), lumped=st.booleans())
def test_deferred_matrices_equal_eager_assembly(n, seed, bulk, weight, zeta,
                                                mu_gd, top, lumped):
    mu_bulk = {"scalar": 2.0, "matrix": [[2.0, 0.4], [0.4, 1.0]],
               "regions": {0: 1.0, 1: [[3.0, -0.5], [-0.5, 1.0]]},
               "callable": lambda p: 1.0 + p[:, 0] * p[:, 1]}[bulk]
    if callable(mu_bulk) and weight != "none":
        # a callable under a weight is integrated cell by cell: too slow
        # for a property test, and the deferral does not touch it
        weight = "none"
    mesh = jittered_mesh(unit_square_mesh(n, top=top, interface_y=0.5), seed)
    coeff = CoefficientSet(mu_bulk, mu_gd, bulk_weight=_weights[weight],
                           zeta_bulk=zeta, zeta_gd=zeta, zeta_sigma=zeta)
    pencil = build_pencil(mesh, coeff, lumped=lumped)
    plain, m_form = eager_plain_and_form(mesh, coeff, lumped=lumped)
    assert _csr_bytes(pencil.M_blk_plain) == _csr_bytes(plain)
    assert _csr_bytes(pencil.M_form) == _csr_bytes(m_form)


def recorded_values():
    """The values ``REFERENCE["cases"]`` records, for every case,
    computed in this process: ``{case: {value name: digest or hex}}``."""
    values = {}
    for case in REFERENCE["cases"]:
        n, name, mass = case.split("-")
        mesh = standard_fixture_mesh(int(n))
        pencil = build_pencil(mesh, pencil_reference_coefficients()[name],
                              lumped=mass == "lumped")
        f = BlockField.from_functions(
            mesh, pencil.dofmap, lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1],
            lambda x: 1.0 + x[:, 0], lambda x: x[:, 0] ** 2)
        u = steady_solve(pencil, f)
        flux = recover_interface_flux(pencil, u, f)
        values[case] = {
            "pencil": pencil_digest(pencil),
            "steady_solve": hashlib.sha256(u.tobytes()).hexdigest(),
            "interface_flux": hashlib.sha256(flux.tobytes()).hexdigest(),
            "j_ellipticity": j_ellipticity_constant(pencil).hex()}
    return values


@pytest.fixture(scope="module")
def pinned_values():
    """:func:`recorded_values`, computed once in a child process whose
    OpenBLAS and OpenMP run ``REFERENCE["blas_threads"]`` threads."""
    threads = str(REFERENCE["blas_threads"])
    here = Path(__file__).parent
    path = [str(here), str(Path(formheat.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   path + [os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_pencil_deferral as t; "
         "print(json.dumps(t.recorded_values()))"],
        cwd=here, env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("lumped", [False, True],
                         ids=["consistent", "lumped"])
@pytest.mark.parametrize("name", sorted(pencil_reference_coefficients()))
def test_pencil_and_diagnostics_match_recorded_values(pinned_values, n,
                                                      lumped, name):
    case = f"{n}-{name}-{'lumped' if lumped else 'consistent'}"
    assert pinned_values[case] == REFERENCE["cases"][case]


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("name", sorted(pencil_reference_coefficients()))
def test_envelope_check_matches_recorded_values(n, name):
    diagnostics, observed = validate_envelopes(
        standard_fixture_mesh(n), pencil_reference_coefficients()[name])
    assert {"diagnostics": hashlib.sha256(
                "\n".join(diagnostics).encode()).hexdigest(),
            "observed": {key: value.hex()
                         for key, value in observed.items()}
            } == REFERENCE["envelopes"][f"{n}-{name}"]
