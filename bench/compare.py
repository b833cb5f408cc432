"""Compare two panel result files: ``python3 bench/compare.py A.json B.json``.

For every workload x end-to-end metric it prints both medians, the bound from
``BENCHMARK.json`` and one verdict for B against A:

``worse``
    B's median is worse than A's by more than the bound;
``better``
    every invocation of B reads better than every invocation of A, and the
    medians differ by more than either file's own spread;
``unresolved``
    neither, but the invocations of one file spread wider than a tenth and
    the two files' ranges overlap: the data cannot tell "same" from "moved",
    so it does not say "same";
``moved >10 %``
    inside the bound, yet the medians differ by more than a tenth either way;
``same``
    none of the above.

The tenth is the regression bound ISSUE 11 asked for.  ``BENCHMARK.json``
carries wider ones, because its driver measures every invocation on another
seed and seeds differ by that much; two panels run the *same* seed, so here a
tenth is worth reporting even though only the declared bound fails the
comparison.

Simulated outcomes (``sim_digest`` and the exact counts) are compared exactly.
Exit status is 1 when any metric is ``worse`` or B's ``fail_ratio`` is higher
than A's, else 0.  Use it for the A/A check of the benchmark itself and for
the before/after pair of every performance change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from bench import workloads  # noqa: E402

#: ISSUE 11's regression bound, reported beside the declared one.
TENTH = 0.10


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """B against A for one metric; samples are per-invocation values."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / median_a
    if worse_by > bound:
        return "worse"
    spread = max((max(a) - min(a)) / median_a, (max(b) - min(b)) / median_b)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if not overlap and -worse_by > spread:
        return "better"
    if spread > min(bound, TENTH) and overlap:
        return "unresolved"
    if abs(worse_by) > TENTH:
        return "moved >10 %"
    return "same"


def compare(a: dict, b: dict, benchmark: dict, out=sys.stdout) -> int:
    """Print the comparison; return the exit status."""
    status = 0
    print("| workload | metric | unit | A median | B median | change | bound | verdict |", file=out)
    print("|---|---|---|---|---|---|---|---|", file=out)
    for name in workloads.WORKLOADS:
        entry_a, entry_b = a["workloads"].get(name), b["workloads"].get(name)
        if not entry_a or not entry_b:
            print(f"| {name} | (missing in one file) | | | | | | unresolved |", file=out)
            continue
        for metric in benchmark["end_to_end"]:
            row_a = entry_a["end_to_end"][metric["name"]]
            row_b = entry_b["end_to_end"][metric["name"]]
            result = verdict(row_a["samples"], row_b["samples"], metric["better"], metric["bound"])
            status |= result == "worse"
            change = (row_b["median"] - row_a["median"]) / row_a["median"]
            print(f"| {name} | {metric['name']} | {metric['unit']} | {row_a['median']:.5g} | "
                  f"{row_b['median']:.5g} | {change:+.1%} | {metric['bound']:.0%} | {result} |",
                  file=out)
        worse_failures = entry_b["fail_ratio"] > entry_a["fail_ratio"]
        status |= worse_failures
        print(f"| {name} | fail_ratio | failed/attempted | "
              f"{len(entry_a['failed'])}/{entry_a['attempted']} | "
              f"{len(entry_b['failed'])}/{entry_b['attempted']} | | any increase | "
              f"{'worse' if worse_failures else 'same'} |", file=out)
    print(file=out)
    for name in workloads.WORKLOADS:
        entry_a, entry_b = a["workloads"].get(name), b["workloads"].get(name)
        if not entry_a or not entry_b:
            continue
        moved = [metric for metric in workloads.COUNTS if metric != "host.us_per_event"
                 and entry_a["per_layer"].get(metric) != entry_b["per_layer"].get(metric)]
        same_digest = entry_a["digest"] == entry_b["digest"]
        print(f"{name}: sim_digest {'identical' if same_digest else 'DIFFERS'}; exact counts "
              + ("identical" if not moved else "differ: " + ", ".join(moved)), file=out)
    return int(status)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a, b, benchmark)


if __name__ == "__main__":
    sys.exit(main())
