"""Tests for scripts/ab_pairs.py: the verdict rule and the exit status.

No benchmark is spawned: the verdict is a pure function, ``run_once`` reads
a scripted ``bench/run.py`` output, and ``main`` is driven with ``run_once``
replaced by scripted results.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

#: Ten parent runs whose quartiles are 102.25 and 106.75: an inter-quartile
#: distance of 4.5.
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def _shifted(by, ties=0, losses=0):
    """The parent's runs moved by ``by``, the first ``ties`` pairs left equal
    and the next ``losses`` moved the other way."""
    change = [value + by for value in PARENT]
    for index in range(ties):
        change[index] = PARENT[index]
    for index in range(ties, ties + losses):
        change[index] = PARENT[index] - by
    return change


class TestVerdict:
    def test_quartiles_of_the_parent_sample(self):
        assert ab_pairs.quartiles(PARENT) == (102.25, 104.5, 106.75)
        assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_better_needs_nine_wins_and_a_shift_beyond_the_quartiles(self):
        assert ab_pairs.verdict(PARENT, _shifted(5.0), "higher") == (10, 0, "better")
        assert ab_pairs.verdict(PARENT, _shifted(5.0, losses=1), "higher") == (9, 1, "better")
        # Eight wins are not nine tenths of ten, however large the shift.
        assert ab_pairs.verdict(PARENT, _shifted(50.0, losses=2), "higher")[2] == "unresolved"
        # Ten wins out of ten, but inside the parent's own spread.
        assert ab_pairs.verdict(PARENT, _shifted(4.0), "higher") == (10, 0, "unresolved")

    def test_ties_count_for_neither_side(self):
        assert ab_pairs.verdict(PARENT, _shifted(5.0, ties=1), "higher") == (9, 0, "better")
        assert ab_pairs.verdict(PARENT, _shifted(5.0, ties=2), "higher") == (8, 0, "unresolved")
        assert ab_pairs.verdict(PARENT, list(PARENT), "lower") == (0, 0, "unresolved")

    def test_a_single_pair_is_never_resolved(self):
        assert ab_pairs.verdict([100.0], [200.0], "higher") == (1, 0, "unresolved")

    def test_direction_comes_from_the_metric(self):
        # The same numbers read the other way round for a lower-is-better metric.
        assert ab_pairs.verdict(PARENT, _shifted(5.0), "lower") == (0, 10, "worse")
        assert ab_pairs.verdict(PARENT, _shifted(-5.0), "lower") == (10, 0, "better")
        assert ab_pairs.verdict(PARENT, _shifted(-5.0), "higher") == (0, 10, "worse")
        assert ab_pairs.verdict(PARENT, _shifted(-4.0), "higher") == (0, 10, "unresolved")


class TestRunOnce:
    def test_reads_the_last_line_json_and_the_raw_seed_lines(self, monkeypatch):
        output = "\n".join([
            "# seed 1: 263750 events, wall 1.742 s, cpu 1.728 s at machine speed 0.867 "
            "(20 readings), rss 24.7 MB, digest c3b60f0e28b0",
            "# seed 1: 263750 events, wall 1.500 s, cpu 1.400 s at machine speed 1.100 "
            "(20 readings), rss 24.7 MB, digest c3b60f0e28b0",
            "# seed 1: 263750 events, wall 1.600 s, cpu 1.500 s at machine speed 0.900 "
            "(20 readings), rss 24.7 MB, digest c3b60f0e28b0",
            "# digest_changed=0",
            json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
                "cal_events_per_s": {"value": 150000.0, "unit": "1/s"}}}),
        ]) + "\n"
        seen = []

        def scripted(command, cwd, stdout, text):
            seen.append((command, cwd))
            return subprocess.CompletedProcess(command, 0, stdout=output)

        monkeypatch.setattr(ab_pairs.subprocess, "run", scripted)
        metrics, failed, digest_line = ab_pairs.run_once("tree", "paper40_maodv", 1, 2.0)
        assert seen == [(["python3", "bench/run.py", "--workload", "paper40_maodv",
                          "--seed", "1", "--seconds", "2.0", "--trace", "0"], "tree")]
        assert (failed, digest_line) == (0, "# digest_changed=0")
        # Each raw reading is the median over the run's seed lines.
        assert metrics == {"cal_events_per_s": 150000.0,
                           "wall_s": 1.6, "cpu_s": 1.5, "speed": 0.9}


class TestExitStatus:
    METRICS = {"cal_events_per_s": 100.0, "setup_s": 0.2,
               "wall_s": 1.5, "cpu_s": 1.4, "speed": 1.0}

    def _main(self, tmp_path, monkeypatch, results, *options):
        """Run ``main`` (two pairs unless ``options`` say otherwise) with
        ``results[side]`` scripted per tree."""
        trees = {}
        for side in ("parent", "change"):
            trees[side] = tmp_path / side
            trees[side].mkdir(exist_ok=True)
        (trees["parent"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "cal_events_per_s", "better": "higher"},
            {"name": "setup_s", "better": "lower"},
        ]}))
        calls = []

        def scripted(tree, workload, seed, seconds):
            calls.append((Path(tree).name, workload, seed, seconds))
            return results[Path(tree).name]

        monkeypatch.setattr(ab_pairs, "run_once", scripted)
        status = ab_pairs.main([str(trees["parent"]), str(trees["change"]),
                                "--workload", "flood1k", "--pairs", "2", "--seconds", "3",
                                *options])
        return status, calls

    def test_clean_pairs_exit_zero_and_alternate_sides(self, tmp_path, monkeypatch, capsys):
        ok = (self.METRICS, 0, "# digest_changed=0")
        status, calls = self._main(tmp_path, monkeypatch, {"parent": ok, "change": ok})
        assert status == 0
        assert calls == [("parent", "flood1k", 1, 3.0), ("change", "flood1k", 1, 3.0),
                         ("change", "flood1k", 1, 3.0), ("parent", "flood1k", 1, 3.0)]
        out = capsys.readouterr().out
        assert "cal_events_per_s: change won 0, parent won 0 of 2 -> unresolved" in out
        assert "setup_s [lower is better] parent: median 0.2" in out
        raw = out[out.index("raw readings"):]
        assert "raw wall_s [lower wins] parent: median 1.5" in raw
        assert "raw speed: change won 0, parent won 0 of 2\n" in raw
        assert "->" not in raw

    def test_one_pair_runs_of_consecutive_seeds_alternate_sides(self, tmp_path, monkeypatch):
        ok = (self.METRICS, 0, "# digest_changed=0")
        first = {}
        for seed in (61, 62):
            _, calls = self._main(tmp_path, monkeypatch, {"parent": ok, "change": ok},
                                  "--pairs", "1", "--seed", str(seed))
            assert [call[2] for call in calls] == [seed, seed]
            first[seed] = calls[0][0]
        assert first == {61: "parent", 62: "change"}

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_a_failed_operation_on_either_side_exits_non_zero(
        self, tmp_path, monkeypatch, capsys, side
    ):
        results = {"parent": (self.METRICS, 0, "# digest_changed=0"),
                   "change": (self.METRICS, 0, "# digest_changed=0")}
        results[side] = (self.METRICS, 1, "# digest_changed=0")
        status, _ = self._main(tmp_path, monkeypatch, results)
        assert status == 1
        assert f"{side} reported 1 failed operation(s)" in capsys.readouterr().out

    def test_differing_digest_lines_exit_non_zero(self, tmp_path, monkeypatch, capsys):
        status, _ = self._main(tmp_path, monkeypatch, {
            "parent": (self.METRICS, 0, "# digest_changed=0"),
            "change": (self.METRICS, 0, "# digest_changed=1"),
        })
        assert status == 1
        assert "'# digest_changed=0' != '# digest_changed=1'" in capsys.readouterr().out
