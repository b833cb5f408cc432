"""Wiring test for scripts/retained_memory.py at smoke size."""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "retained_memory.py"
_spec = importlib.util.spec_from_file_location("retained_memory", _SCRIPT)
retained_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(retained_memory)


@pytest.mark.parametrize("workload", ["paper40_maodv", "campaign_quick"])
def test_prints_totals_then_the_top_sites(workload, capsys):
    assert retained_memory.main(["--workload", workload, "--smoke", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("after build: ") and lines[0].endswith(" peak")
    assert lines[1].startswith("after run: ") and lines[1].endswith(" peak")
    assert lines[2] == "top 3 retained allocation sites:"
    assert len(lines) == 6 and all(" MB " in line and " blocks " in line for line in lines[3:])
    assert not tracemalloc.is_tracing()  # the rest of the suite runs untraced


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as raised:
        retained_memory.main(["--workload", "paper41"])
    assert raised.value.code == 2
    assert "known: paper40_ag" in capsys.readouterr().err


def test_set_overrides_scenario_config_fields(monkeypatch, capsys):
    from bench import workloads

    built = []
    real = workloads.scenario_config

    def spy(*args, **overrides):
        built.append(real(*args, **overrides))
        return built[-1]

    monkeypatch.setattr(workloads, "scenario_config", spy)
    argv = ["--workload", "paper40_maodv", "--smoke", "--top", "1",
            "--set", "duration_s=6", "--set", "source_stop_s=5.5", "--set", "protocol=odmrp"]
    assert retained_memory.main(argv) == 0
    (config,) = built
    assert (config.duration_s, config.source_stop_s, config.protocol) == (6, 5.5, "odmrp")
    assert config.num_nodes == workloads.SMOKE_SCENARIO["num_nodes"]  # the rest as before


@pytest.mark.parametrize("setting, message", [
    ("duration_s", "expected FIELD=VALUE"),
    ("no_such_field=1", "no_such_field"),
])
def test_a_bad_set_is_a_usage_error(setting, message, capsys):
    with pytest.raises(SystemExit) as raised:
        retained_memory.main(["--workload", "paper40_maodv", "--smoke", "--set", setting])
    assert raised.value.code == 2
    assert message in capsys.readouterr().err
    assert not tracemalloc.is_tracing()
