"""The scripts under ``scripts/`` and the benchmark's tracer still run
against the package."""

import importlib
import importlib.util
import runpy
from pathlib import Path

import pytest

from spectrahull import eigen, shm

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


def test_traced_names_resolve_on_the_package():
    """The benchmark's tracer wraps package names by module and attribute,
    and its runner and workloads read a few more; a name dropped from the
    package fails here by name rather than only in a traced round."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in spans.TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert not missing
    assert hasattr(eigen, "HAVE_NUMBA")
    assert hasattr(shm, "solve_shm_cached")
