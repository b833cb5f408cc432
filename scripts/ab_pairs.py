#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo's benchmark, with a verdict.

Usage::

    python scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W
                               [--pairs 10] [--seed 1] [--seconds 20]

Each pair runs both trees' *own* ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0``, one after the other (the parent first when ``S`` plus
the pair's number is even, else the change, so host drift favours neither
side, also over one-pair runs of consecutive seeds), and reads the
last-line JSON.  Per end-to-end metric it prints every pair, each side's
median and quartiles, the pairs won, and the simplicity guide's verdict:
``better`` only when the change wins at least nine tenths of the pairs (ties
count for neither side) *and* the medians differ by more than the distance
between the parent's quartiles; ``worse`` symmetrically; else ``unresolved``
(always, for a single pair: one run has no spread).
Directions come from ``BENCHMARK.json``.  Apart from those verdicts it
prints the raw readings of each run's ``# seed`` lines (wall and CPU
seconds, machine speed; a run's median when it has several): median,
quartiles and pairs won, with no verdict, since host drift moves them.
Exits non-zero if either side reports a failed operation or the two sides'
``# digest_changed`` lines differ.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, better):
    """``(change_wins, parent_wins, word)`` for one metric's paired values."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    change_wins = sum(gain > 0 for gain in gains)
    parent_wins = sum(gain < 0 for gain in gains)
    q1, parent_median, q3 = quartiles(parent)
    shift = sign * (quartiles(change)[1] - parent_median)
    needed = 0.9 * len(gains)
    word = "unresolved"
    if len(gains) > 1:  # one run says nothing about the parent's spread
        if change_wins >= needed and shift > q3 - q1:
            word = "better"
        elif parent_wins >= needed and -shift > q3 - q1:
            word = "worse"
    return change_wins, parent_wins, word


#: The raw readings of a ``# seed`` line, each with the direction a pair is
#: won in (a higher ``speed`` means the side ran on a faster host).
RAW = {"wall_s": "lower", "cpu_s": "lower", "speed": "higher"}
_SEED_LINE = re.compile(
    r"^# seed \d+: .*, wall ([0-9.]+) s, cpu ([0-9.]+) s at machine speed ([0-9.]+)"
)


def raw_readings(lines):
    """The median of each :data:`RAW` reading over a run's ``# seed`` lines."""
    rows = [match.groups() for match in map(_SEED_LINE.match, lines) if match]
    if not rows:
        return {}
    return {name: statistics.median(float(row[index]) for row in rows)
            for index, name in enumerate(RAW)}


def run_once(tree, workload, seed, seconds):
    """One invocation of ``tree``'s benchmark: ``(metrics, failed, digest_line)``.

    ``metrics`` holds the last-line JSON's values and the :data:`RAW`
    readings.
    """
    done = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    digest_line = next((line for line in lines if line.startswith("# digest_changed")), "")
    if done.returncode != 0 or not lines:
        return {}, 1, digest_line
    report = json.loads(lines[-1])
    metrics = {name: cell["value"] for name, cell in report["metrics"].items()}
    metrics.update(raw_readings(lines))
    return metrics, report["failed"], digest_line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    declared = json.loads((args.parent_dir / "BENCHMARK.json").read_text())
    directions = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    trees = {"parent": args.parent_dir, "change": args.change_dir}
    values = {side: {name: [] for name in {**directions, **RAW}} for side in trees}
    trouble = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if (args.seed + pair) % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            metrics, failed, digests[side] = run_once(
                trees[side], args.workload, args.seed, args.seconds
            )
            if failed:
                trouble.append(f"pair {pair}: {side} reported {failed} failed operation(s)")
            for name in values[side]:
                values[side][name].append(metrics.get(name, float("nan")))
        if digests["parent"] != digests["change"]:
            trouble.append(f"pair {pair}: {digests['parent']!r} != {digests['change']!r}")
        for name in {**directions, **RAW}:
            label = f"raw {name}" if name in RAW else name
            print(f"pair {pair:2d} ({order[0]} first) {label}: parent "
                  f"{values['parent'][name][-1]:.6g}  change {values['change'][name][-1]:.6g}")

    print(f"\n{args.workload}, seed {args.seed}, "
          f"{args.pairs} pair(s) of --seconds {args.seconds:g}")
    for name, better in directions.items():
        parent, change = values["parent"][name], values["change"][name]
        change_wins, parent_wins, word = verdict(parent, change, better)
        for side, column in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(column)
            print(f"{name} [{better} is better] {side}: median {median:.6g} "
                  f"(quartiles {q1:.6g} .. {q3:.6g})")
        print(f"{name}: change won {change_wins}, parent won {parent_wins} "
              f"of {args.pairs} -> {word}")
    print("\nraw readings of the # seed lines (uncalibrated, no verdict)")
    for name, better in RAW.items():
        parent, change = values["parent"][name], values["change"][name]
        for side, column in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(column)
            print(f"raw {name} [{better} wins] {side}: median {median:.6g} "
                  f"(quartiles {q1:.6g} .. {q3:.6g})")
        change_wins, parent_wins, _ = verdict(parent, change, better)
        print(f"raw {name}: change won {change_wins}, parent won {parent_wins} "
              f"of {args.pairs}")
    for line in trouble:
        print(f"TROUBLE: {line}")
    return 1 if trouble else 0


if __name__ == "__main__":
    sys.exit(main())
