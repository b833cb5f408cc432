"""Every example script imports cleanly and runs to completion.

The examples use module paths the tests do not, so a moved or removed name
would otherwise only surface when someone runs one.  Each keeps its work
under a ``__main__`` guard, so importing it is cheap.
"""

import doctest
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("stem, line", [
    # Wires the stack by hand and schedules joins and warnings itself.
    ("highway_convoy", "vehicle 3  straggler      46/46              35"),
    # Drives the regional and the independent failure injectors.
    ("failure_sweep", "regional r=60 m       6        30         1.000"),
    # MAODV, MAODV + AG and flooding to rescue teams at walking pace.
    ("disaster_relief", "MAODV + AG  131.0 / 131       131         131        100.0%    8623"),
    # One gossip knob at a time against the paper's defaults.
    ("parameter_study", "paper defaults             81.0/81         100.0%    146        96.8%    701"),
    # The README's first run.
    ("quickstart", "MAODV + Anonymous Gossip  81    59.3       55   81   9.7   73.3%     100.0%"),
], ids=["highway_convoy", "failure_sweep", "disaster_relief", "parameter_study", "quickstart"])
def test_example_runs(stem, line, capsys, monkeypatch):
    path = next(path for path in EXAMPLES if path.stem == stem)
    monkeypatch.setattr(sys, "argv", [str(path)])
    _load(path).main()
    assert line in capsys.readouterr().out


@pytest.mark.parametrize("module", [
    "repro.sim.engine",
    "repro.sim.random",
    "repro.mobility.trace",
    "repro.mobility.static",
])
def test_module_docstring_examples(module):
    failed, attempted = doctest.testmod(importlib.import_module(module))
    assert attempted and not failed
