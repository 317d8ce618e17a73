"""One benchmark operation in a fresh process.

Usage: ``python perfbench/child.py <job.json> <spawn time>``

The parent passes the ``time.monotonic()`` reading taken just before it
started this process; the set-up time is the interval from then until
``formheat.cli`` is imported from ``<root>/src``.  The job then either
writes the fixture meshes (``prepare``) or calls ``formheat.cli.run`` on
each config in ``runs``, in order, timing each call, optionally under the
span tracer.  Results go to the job's ``result`` file as JSON; an uncaught
exception from ``cli.run`` is recorded as the run's outcome with exit code
1, which is what the ``formheat`` command would exit with.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _facts():
    import platform

    import numpy as np
    import scipy

    def blas(show_config):
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError) as exc:  # builds without mode="dicts"
            return f"unknown ({type(exc).__name__})"

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config)}


def _install_tracer():
    import scipy.linalg

    import spans

    tracer = spans.Tracer()
    spans.install(tracer, {
        "assembly.build_pencil":
            lambda a, kw, r: ("assembly.n_free", r.n_free)})
    for attr in ("eigh", "eigvalsh"):
        spans.wrap_external(
            tracer, scipy.linalg, attr, f"spectral.dense_{attr}",
            lambda a, kw, r: ("spectral.dense_dim_max", a[0].shape[0]))
    return tracer


def main():
    job = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    t_spawn = float(sys.argv[2])
    src = (Path(job["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import formheat
    import formheat.cli as cli
    setup_s = time.monotonic() - t_spawn
    if src not in Path(formheat.__file__).resolve().parents:
        raise SystemExit(f"formheat imported from {formheat.__file__}, "
                         f"not from {src}")

    result = {"setup_s": setup_s, "runs": []}
    if "prepare" in job:
        from formheat import save_mesh, standard_fixture_mesh
        for name, n in job["prepare"].items():
            save_mesh(standard_fixture_mesh(n), Path(job["dir"]) / name)
        result["facts"] = _facts()

    tracer = _install_tracer() if job.get("spans") else None
    for config, outdir in job.get("runs", ()):
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.run(config, outdir)
        except Exception as exc:
            traceback.print_exc()
            code, error = 1, {"kind": type(exc).__name__,
                              "message": str(exc)[:300]}
        wall = time.perf_counter() - t0
        result["runs"].append({"exit": code, "wall_s": wall,
                               "exception": error})
        if code != 0:
            break
    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(job["spans"], job["op"])
    tmp = Path(job["result"] + ".tmp")
    tmp.write_text(json.dumps(result), "utf-8")
    tmp.replace(job["result"])


if __name__ == "__main__":
    main()
