"""Tier-1 hook of the benchmark: the names it emits are the names it declares.

Runs the full panel once at toy scale (``--smoke``) and checks the wiring, not
any number: timings at this size mean nothing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def _names(entries):
    return [entry["name"] for entry in entries]


def test_emitted_names_equal_declared_names(declared, panel):
    assert list(panel["workloads"]) == _names(declared["workloads"])
    for entry in panel["workloads"].values():
        assert list(entry["end_to_end"]) == _names(declared["end_to_end"])
        assert list(entry["per_layer"]) == _names(declared["per_layer"])
        assert entry["failed"] == []


def test_names_use_the_contract_alphabet(declared):
    names = [n for key in ("workloads", "end_to_end", "per_layer") for n in _names(declared[key])]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_layer_shares_sum_to_one_with_little_left_over(panel):
    for name, entry in panel["workloads"].items():
        shares = {k: v for k, v in entry["per_layer"].items() if k.endswith(".self_share")}
        assert sum(shares.values()) == pytest.approx(1.0), name
        assert shares["host.other.self_share"] < 0.05, name
