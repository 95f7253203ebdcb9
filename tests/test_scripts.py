"""The scripts under ``scripts/`` and the benchmark's tracer still run
against the package."""

import importlib
import importlib.util
import runpy
from pathlib import Path

import numpy as np
import pytest

import helpers
from spectrahull import FEASIBLE, WITNESS, ShmInstance, eigen, shm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


@pytest.mark.parametrize(
    "name, argv",
    [
        pytest.param(
            "maxcut_demo.py", ["--n", "3", "--epsilon", "1e-2"], id="maxcut_demo"
        ),
    ],
)
def test_script_main_returns_zero(name, argv, capsys):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    assert main(argv) == 0
    assert capsys.readouterr().out


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve_on_the_package():
    """The benchmark's tracer wraps package names by module and attribute,
    and its runner and workloads read a few more; a name dropped from the
    package fails here by name rather than only in a traced round."""
    spans = _load_spans()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in spans.TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert not missing
    assert hasattr(eigen, "HAVE_NUMBA")
    assert hasattr(shm, "solve_shm_cached")


def test_tracer_hooks_read_what_the_package_returns():
    """The tracer's counter hooks read the arguments and return values of
    the functions they wrap: the order of ``jacobi_eigen``'s matrix, the
    ``method`` of a pivot outcome and the ``iterations`` of a certificate.
    A Feasible and a Witness solve under the tracer must count an
    eigendecomposition for every pivot query and every pivot step, and the
    tracer must put the package's own functions back when it exits."""
    spans = _load_spans()
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _, _ in spans.TARGETS
    }
    rng = np.random.default_rng(11)
    n, m = 5, 3
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    vs = helpers.random_unit_vectors(rng, n, n)
    inside = rng.dirichlet(np.ones(n)) @ np.einsum("kij,ti,tj->tk", np.stack(mats), vs, vs)
    certs = []
    with spans.Tracer() as tracer:
        for b, kind in ((inside, FEASIBLE), (inside + 1.0, WITNESS)):
            cert = shm.solve_shm(ShmInstance(mats, b), 1e-4)
            assert cert.kind == kind
            assert cert.iterations >= 1
            certs.append(cert)
    summary, counts = tracer.summary(), tracer.counts
    oracle = summary["shm.oracle"]["calls"]
    assert summary["eigen.jacobi"]["calls"] >= oracle > 0
    assert counts["shm.oracle_jacobi"] == oracle
    assert counts["shm.pivot_steps"] == sum(c.iterations for c in certs)
    assert counts["eigen.jacobi_ops_computed"] > 0
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr}"
