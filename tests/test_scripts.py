"""The scripts under ``scripts/`` still run against the package."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
