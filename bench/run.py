"""The repo's benchmark: one harness, five workloads, every layer from outside.

Two ways in:

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
    one invocation of one workload, as ``BENCHMARK.json`` describes it: the
    last line of output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
    ``--trace 1``).

``python3 bench/run.py [--seed 1] [--out FILE]``
    the full panel: that invocation of every workload three times with
    tracing off, five times where it measures under ten seconds (round-robin,
    so machine drift hits all alike), then one traced pass per workload, the
    layer kernels and the paired ratios; prints every metric by name with its
    unit and writes the whole result, with the machine block, to ``--out`` (a
    trajectory file).

Every simulation runs in a fresh single-threaded child process, one at a
time (see :mod:`bench.child`); this module only schedules them and does the
arithmetic.  ``--smoke`` (toy sizes, a wiring check for the test suite) is the
exception: it runs them in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT)]

from bench import workloads  # noqa: E402
from bench.layers import layer_metrics  # noqa: E402

#: Set-up samples per invocation: the driver's contract asks for the median of
#: several set-ups.  The measured iterations count; the rest are set-up-only
#: children.
SETUP_SAMPLES = 7
#: Panel invocations per workload: ISSUE 11's ">= 3 repeats for runs >= 10 s,
#: >= 5 below", by the time the workload's invocations measured so far.
REPEATS_LONG, REPEATS_SHORT, LONG_RUN_S = 3, 5, 10.0
#: Pairs per paired ratio in the full panel.
PAIR_REPEATS = 3
CHILD_TIMEOUT_S = 900


# ------------------------------------------------------------------ children
def spawn(spec: dict) -> dict:
    """Run one :mod:`bench.child` to completion and return its JSON result."""
    if spec.get("smoke"):
        # Toy runs last milliseconds; a process each would be all start-up.
        from bench import child

        return child.execute(spec)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped it
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"child exited {done.returncode}: {done.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"child printed no result: {lines[-1][:200]}"}


class Ops:
    """Attempted / failed operation counts of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def absorb(self, label: str, result: dict) -> bool:
        """Count one child's operations; ``True`` when the run completed."""
        self.check(f"{label}:completed", "error" not in result)
        if "error" in result:
            print(f"# {label} failed:\n{result['error']}", file=sys.stderr)
            return False
        for name, ok in result.get("checks", []):
            self.check(f"{label}:{name}", ok)
        return True


def _digest_changed(workload: str, seed: int, digest: str, smoke: bool) -> int:
    """1 when the seed-1 digest left its pin (no other seed or size has one)."""
    pinned = not smoke and seed == workloads.PINNED_SEED
    return int(pinned and digest != workloads.PINNED[workload]["digest"])


# --------------------------------------------------------------- measurement
def measure_untraced(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """One tracing-off invocation: scenario seed ``seed``, as often as fits.

    Every iteration is the same input in a fresh child; another one starts
    while it would still end inside ``seconds``, so a 5 s workload is measured
    four times in 20 s and a 12 s one once.  The iterations must agree on the
    ``sim_digest``.  Each iteration's times are calibrated by the speed its
    child sampled all through the timed run, and each timed metric is the
    median over the iterations.  Set-up-only children run before and after
    them and bring the set-up samples to :data:`SETUP_SAMPLES`, each
    calibrated by the speed its child sampled during set-up; ``setup_s`` is
    their median.
    """
    ops = Ops()
    runs: List[dict] = []
    setups: List[float] = []  # calibrated
    setups_raw: List[float] = []

    def child(label: str, **spec) -> Optional[dict]:
        result = spawn({"workload": workload, "seed": seed, "smoke": smoke, **spec})
        if not ops.absorb(label, result):
            return None
        setups_raw.append(result["setup_s"])
        setups.append(result["setup_s"] * result["setup_speed"])
        return result

    def setup_only(count: int) -> None:
        for _ in range(0 if smoke else count):
            if child(f"{workload}:setup", mode="setup") is None:
                break

    setup_only(SETUP_SAMPLES // 2)
    measured_s = 0.0
    while True:
        result = child(f"{workload}@{seed}")
        if result is None:
            break
        runs.append(result)
        measured_s += result["wall_s"]
        if smoke or measured_s + measured_s / len(runs) > seconds:
            break
    if runs:
        setup_only(SETUP_SAMPLES - len(setups))

    out = {"failed": ops.failed, "measured_s": measured_s, "setup_samples": setups,
           "setup_raw_s": setups_raw,
           "iterations": [{key: run[key] for key in (
               "wall_s", "cpu_s", "speed", "cpu_speed", "speed_samples", "events", "peak_rss_mb",
               "digest")}
               for run in runs],
           "metrics": {}, "first_run": runs[0] if runs else None}
    if runs:
        ops.check(f"{workload}@{seed}:deterministic", len({run["digest"] for run in runs}) == 1)
        median = statistics.median
        out["speed"] = median(run["speed"] for run in runs)
        out["metrics"] = {
            "setup_s": median(setups),
            "cal_events_per_s":
                median(run["events"] / (run["wall_s"] * run["speed"]) for run in runs),
            "cal_cpu_us_per_event":
                median(1e6 * run["cpu_s"] * run["cpu_speed"] / run["events"] for run in runs),
            "peak_rss_mb": median(run["peak_rss_mb"] for run in runs),
        }
        out["digest"] = runs[0]["digest"]
        out["digest_changed"] = _digest_changed(workload, seed, out["digest"], smoke)
    out["attempted"] = ops.attempted
    return out


def measure_traced(workload: str, seed: int, smoke: bool = False,
                   kernels: Optional[dict] = None, plain: Optional[dict] = None) -> dict:
    """The traced pass: scenario seed ``seed`` once under ``cProfile``.

    ``plain`` is an untraced run of the same input (the panel passes the one
    it already has); its digest must equal the traced run's, its wall time is
    the base of ``trace.overhead_ratio`` and its counters are the exact
    counts.  ``seed`` also feeds the kernels' inputs.
    """
    ops = Ops()
    base = {"workload": workload, "seed": seed, "smoke": smoke}
    if plain is None:
        plain = spawn(base)
        ops.absorb(f"{workload}:untraced", plain)
    traced = spawn({**base, "profile": True})
    ops.absorb(f"{workload}:traced", traced)
    if kernels is None:
        kernels = run_kernels(seed, smoke, ops)
    out = {"failed": ops.failed, "metrics": {}}
    if "error" not in plain and "error" not in traced and kernels:
        ops.check(f"{workload}:traced_deterministic", plain["digest"] == traced["digest"])
        metrics = {
            **layer_metrics(traced["layers"]),
            "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
            "host.speed_factor": plain["speed"],
            "sim.digest_changed": _digest_changed(workload, seed, plain["digest"], smoke),
            **plain["counts"],
            "host.us_per_event": 1e6 * plain["wall_s"] / plain["events"],
            **kernels,
        }
        out["metrics"] = {name: metrics[name] for name in workloads.per_layer_units()}
    out["attempted"] = ops.attempted
    return out


def run_kernels(seed: int, smoke: bool, ops: Ops) -> dict:
    result = spawn({"mode": "kernels", "seed": seed, "smoke": smoke})
    return result["kernels"] if ops.absorb("kernels", result) else {}


def measure_pairs(seed: int, ops: Ops) -> dict:
    """The paired ratios: the sides of each pair alternate, medians are compared.

    The shard pair times ``run_scenario()`` whole on every side, because the
    parallel modes build their workers inside it.  A side that failed, or a
    base that came back zero, is a failed harness operation and leaves out
    the ratios that needed it; the others are still reported.
    """
    flood = {"workload": "flood1k", "whole_run": True}
    sides = {
        "obs_off": {"workload": "paper40_maodv"},
        "obs_on": {"workload": "paper40_maodv", "obs": True},
        "unsharded": flood,
        "seq4": {**flood, "overrides": {"shards": 4, "shard_mode": "sequential"}},
        "process2": {**flood, "overrides": {"shards": 2, "shard_mode": "process"}},
        "jobs1": {"workload": "campaign_quick", "jobs": 1},
        "jobsn": {"workload": "campaign_quick", "jobs": os.cpu_count() or 1},
    }
    runs: Dict[str, List[dict]] = {label: [] for label in sides}
    for _ in range(PAIR_REPEATS):
        for label, spec in sides.items():
            result = spawn({"seed": seed, **spec})
            if ops.absorb(f"pair:{label}", result):
                runs[label].append(result)
    # The span cross-check: one instrumented run under the profiler.
    spanned = spawn({"seed": seed, **sides["obs_on"], "profile": True})
    ops.absorb("pair:obs_profiled", spanned)

    pairs: Dict[str, float] = {}

    def ratio(name: str, numerator: Optional[float], denominator: Optional[float]) -> None:
        ok = numerator is not None and bool(denominator)
        ops.check(f"pair:{name}", ok)
        if ok:
            pairs[name] = numerator / denominator

    def wall(label: str) -> Optional[float]:
        complete = len(runs[label]) == PAIR_REPEATS
        return statistics.median(r["wall_s"] for r in runs[label]) if complete else None

    ratio("obs.enabled_overhead_ratio", wall("obs_on"), wall("obs_off"))
    ratio("net.medium.span_vs_profile_ratio",
          spanned.get("medium_span_s"), spanned.get("medium_spanned_cum_s"))
    ratio("sim.shard.seq4_cost_ratio", wall("seq4"), wall("unsharded"))
    ratio("sim.shard.process2_speedup", wall("unsharded"), wall("process2"))
    ratio("campaign.jobs_nproc_speedup", wall("jobs1"), wall("jobsn"))
    if runs["unsharded"] and runs["process2"]:
        delivery = {label: runs[label][0]["counts"]["metrics.delivery_ratio"]
                    for label in ("unsharded", "process2")}
        pairs["sim.shard.process2_delivery_delta"] = delivery["process2"] - delivery["unsharded"]
    return pairs


# -------------------------------------------------------------------- output
def machine_block(kernel_score: Optional[float], speeds: List[float],
                  loadavg: List[float]) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "loadavg_at_start": loadavg,
        "sim.engine.kernel_events_per_s": kernel_score,
        "speed_factor": _summary(speeds) if speeds else None,
        "parent_commit": sha,
    }


def _summary(samples: List[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples), "max": max(samples),
            "n": len(samples), "samples": samples}


def run_panel(seed: int, seconds: float, smoke: bool, out_path: Optional[Path]) -> dict:
    """The full panel; returns the trajectory-file dict (and writes it to ``out_path``)."""
    load = list(os.getloadavg())
    untraced: Dict[str, List[dict]] = {name: [] for name in workloads.WORKLOADS}
    for repeat in range(1 if smoke else REPEATS_SHORT):
        for name in workloads.WORKLOADS:
            runs = untraced[name]
            if repeat >= REPEATS_LONG and \
                    statistics.median(run["measured_s"] for run in runs) >= LONG_RUN_S:
                continue
            print(f"# repeat {repeat + 1}: {name}", file=sys.stderr)
            runs.append(measure_untraced(name, seed, seconds, smoke))
    harness = Ops()
    kernels = run_kernels(seed, smoke, harness)
    result = {
        "schema": 2, "seed": seed, "run_seconds": seconds, "smoke": smoke,
        "sizes": {**workloads.SCENARIOS, **workloads.CAMPAIGN},
        "repeats": {name: len(runs) for name, runs in untraced.items()},
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        print(f"# traced pass: {name}", file=sys.stderr)
        runs = untraced[name]
        iterations = [it for run in runs for it in run["iterations"]]
        plain = runs[0]["first_run"]
        if plain:
            # trace.overhead_ratio is traced wall over the untraced *median*.
            plain = {**plain, "wall_s": statistics.median(it["wall_s"] for it in iterations)}
        traced = measure_traced(name, seed, smoke, kernels, plain or {"error": "no untraced run"})
        ops = Ops()
        ops.check(f"{name}:digest_identical_across_repeats",
                  len({it["digest"] for it in iterations}) == 1)
        measured = [run["metrics"] for run in runs if run["metrics"]]
        attempted = sum(run["attempted"] for run in runs) + traced["attempted"] + ops.attempted
        failed = [f for run in runs for f in run["failed"]] + traced["failed"] + ops.failed
        result["workloads"][name] = {
            "end_to_end": {
                metric: {"unit": unit, **_summary([m[metric] for m in measured])}
                for metric, unit in workloads.END_TO_END.items()
            } if measured else {},
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": len(failed) / attempted,
            "digest": iterations[0]["digest"] if iterations else None,
            "digest_changed": max((run.get("digest_changed", 0) for run in runs), default=0),
            "raw": {
                "events": iterations[0]["events"],
                "wall_s": _summary([it["wall_s"] for it in iterations]),
                "cpu_s": _summary([it["cpu_s"] for it in iterations]),
            } if iterations else {},
            "invocations": [{key: run.get(key) for key in (
                "speed", "setup_samples", "setup_raw_s", "iterations")} for run in runs],
            "per_layer": traced["metrics"],
        }
    result["kernels"] = kernels
    speeds = [run["speed"] for runs in untraced.values() for run in runs if "speed" in run]
    result["machine"] = machine_block(kernels.get("sim.engine.kernel_events_per_s"), speeds, load)
    result["pairs"] = {}
    result["harness"] = {"attempted": harness.attempted, "failed": harness.failed}
    if not smoke:
        # The pairs are the noisiest and least needed part: the file is on
        # disk before them, so nothing they do can cost the panel.
        _write(result, out_path)
        result["pairs"] = measure_pairs(seed, harness)
        result["harness"] = {"attempted": harness.attempted, "failed": harness.failed}
    _write(result, out_path)
    return result


def _write(result: dict, out_path: Optional[Path]) -> None:
    if out_path is not None:
        out_path.write_text(json.dumps(result, indent=1) + "\n")


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):,}"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def print_panel(result: dict, out=sys.stdout) -> None:
    """Every metric of a panel result, by name, with its unit."""
    machine = result["machine"]
    say = lambda line="": print(line, file=out)  # noqa: E731
    repeats = ", ".join(f"{name} x{count}" for name, count in result["repeats"].items())
    say(f"seed {result['seed']}, invocations of {result['run_seconds']} s ({repeats}), "
        f"parent {machine['parent_commit'][:7]}, {machine['nproc']} x {machine['cpu_model']}, "
        f"Python {machine['python']}, load {machine['loadavg_at_start'][0]:.2f}")
    say()
    speed = machine.get("speed_factor")
    if speed:
        say(f"machine speed factor {speed['median']:.3f} [{speed['min']:.3f}..{speed['max']:.3f}] "
            f"over {speed['n']} invocations; engine kernel score "
            f"{_fmt(machine['sim.engine.kernel_events_per_s'] or 0)} events/s")
    say()
    say("End to end (tracing off; times calibrated to machine speed 1.0; median [min..max] of "
        "n invocations; too few for a percentile):")
    say()
    say("| workload | metric | unit | median | min | max | n |")
    say("|---|---|---|---|---|---|---|")
    for name, entry in result["workloads"].items():
        for metric, row in entry["end_to_end"].items():
            say(f"| {name} | {metric} | {row['unit']} | {_fmt(row['median'])} | "
                f"{_fmt(row['min'])} | {_fmt(row['max'])} | {row['n']} |")
    say()
    say("| workload | attempted | failed | fail_ratio | digest_changed | events | "
        "raw wall_s | raw cpu_s | sim_digest |")
    say("|---|---|---|---|---|---|---|---|---|")
    none = {"median": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    for name, entry in result["workloads"].items():
        raw = entry["raw"]
        wall, cpu = raw.get("wall_s", none), raw.get("cpu_s", none)
        say(f"| {name} | {entry['attempted']} | {len(entry['failed'])} | "
            f"{entry['fail_ratio']:.4f} | {entry['digest_changed']} | "
            f"{_fmt(raw.get('events', 0))} | {wall['median']:.2f} "
            f"[{wall['min']:.2f}..{wall['max']:.2f}] n={wall['n']} | {cpu['median']:.2f} "
            f"[{cpu['min']:.2f}..{cpu['max']:.2f}] | {(entry['digest'] or '')[:12]} |")
        for failure in entry["failed"]:
            say(f"|  | failed: {failure} | | | | | | | |")
    names = list(result["workloads"])
    per_layer = {name: result["workloads"][name]["per_layer"] for name in names}
    say()
    say("Layer self time under cProfile (share of the traced run | traced s | calls):")
    say()
    say("| layer | " + " | ".join(names) + " |")
    say("|---|" + "---|" * len(names))
    for layer in workloads.LAYERS:
        cells = []
        for name in names:
            m = per_layer[name]
            if not m:
                cells.append("-")
                continue
            cells.append(f"{100 * m[f'{layer}.self_share']:.1f}% \\| "
                         f"{m[f'{layer}.self_s']:.2f} \\| {_fmt(m[f'{layer}.calls'])}")
        say(f"| {layer} | " + " | ".join(cells) + " |")
    say()
    say("Exact counts (simulated) and derived ratios:")
    say()
    say("| metric | unit | " + " | ".join(names) + " |")
    say("|---|---|" + "---|" * len(names))
    for metric, unit in {**workloads.COUNTS, "trace.overhead_ratio": "ratio",
                         "host.speed_factor": "ratio", "sim.digest_changed": "count"}.items():
        cells = [_fmt(per_layer[n][metric]) if per_layer[n] else "-" for n in names]
        say(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
    say()
    say("Layer kernels (once per panel) and paired ratios (median of "
        f"{PAIR_REPEATS} alternating pairs):")
    say()
    say("| metric | unit | value |")
    say("|---|---|---|")
    for metric, unit in workloads.KERNELS.items():
        say(f"| {metric} | {unit} | {_fmt(result['kernels'].get(metric, 0))} |")
    for metric, unit in workloads.PAIRS.items():
        if metric in result["pairs"]:
            say(f"| {metric} | {unit} | {result['pairs'][metric]:.4f} |")
    for failure in result["harness"]["failed"]:
        say(f"| failed: {failure} | | |")


def driver_main(args) -> int:
    if args.trace:
        measured = measure_traced(args.workload, args.seed, args.smoke)
        units = workloads.per_layer_units()
    else:
        measured = measure_untraced(args.workload, args.seed, args.seconds, args.smoke)
        units = workloads.END_TO_END
        for iteration in measured["iterations"]:
            print("# seed {seed}: {events} events, wall {wall_s:.3f} s, cpu {cpu_s:.3f} s at "
                  "machine speed {speed:.3f} ({speed_samples} readings), rss {peak_rss_mb:.1f} MB, "
                  "digest {digest:.12}".format(seed=args.seed, **iteration))
        print(f"# digest_changed={measured.get('digest_changed', 0)}")
    for failure in measured["failed"]:
        print(f"# failed: {failure}")
    if not measured["metrics"]:
        print("no iteration completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not measured["failed"],
        "attempted": measured["attempted"],
        "failed": len(measured["failed"]),
        "metrics": {name: {"value": measured["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per invocation (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, wiring check only")
    parser.add_argument("--out", type=Path, help="panel: write the result (a trajectory file) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench/run.py: src/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        return driver_main(args)
    result = run_panel(args.seed, args.seconds, args.smoke, args.out)
    print_panel(result)
    failed = sum(len(entry["failed"]) for entry in result["workloads"].values())
    return 1 if failed or result["harness"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
