"""Smoke tests: the experiment drivers in scripts/ run on tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("blowup_table", ["--max-k", "2", "--max-l", "3", "--max-vertices", "6"]),
        ("mc_concentration", ["--n", "5", "--samples", "3", "--q-grid", "1/2,3/4"]),
        ("mc_concentration", ["--n", "5", "--samples", "2", "--q-grid", "1/2", "--json"]),
    ],
)
def test_script_runs(capsys, name, argv):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out
