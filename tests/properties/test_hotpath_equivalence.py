"""Engine/medium/MAC hot path is bit-identical to the recorded goldens.

See :mod:`tests.properties.hotpath_golden` for what is pinned and why.  One
parametrised test per golden scenario (figures 2-8 geometries, all three
protocol stacks, the naive medium, failure injection) compares the full
behavioural digest -- every protocol counter, delivery counts, goodputs,
event count and the delivery-log hash -- against the stored value.

The goldens run the production medium (``fig7_naive_medium`` its linear-scan
oracle, per ``GOLDEN_MEDIA``); a second pass runs every scenario (including
the failure overlays) on the per-copy oracle ``PerCopyMedium`` against the
*same* digests, proving the one-record-per-radio bookkeeping bit-identical
to it the same way grid-vs-naive pins the spatial index.

Logging deliveries wraps every receive-table entry, so the passes above
never take the production receive paths themselves (a HELLO mailbox is
stamped by the logger, not the medium).  A last pass runs every golden
without the log and compares the fields that need none.

The churn pins (``GOLDEN_CHURN``) run every churn model over one and two
groups and compare the per-group, interval-aware outputs.
"""

import pytest

from tests.net.reference_medium import PerCopyMedium
from tests.properties.hotpath_golden import (
    GOLDEN_CHURN,
    GOLDEN_FAILURES,
    GOLDEN_MEDIA,
    GOLDEN_SCENARIOS,
    churn_digest,
    golden_case,
    load_golden,
    run_digest,
    run_unlogged_digest,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_file_has_no_stale_entries(golden):
    """Every stored digest corresponds to a scenario that still runs."""
    expected = set(GOLDEN_SCENARIOS) | set(GOLDEN_FAILURES) | set(GOLDEN_CHURN)
    assert set(golden) == expected


def _assert_digest_matches(observed, expected, name):
    assert expected is not None, (
        f"no golden recorded for {name!r}; run scripts/regen_hotpath_golden.py"
    )
    # Compare the cheap-to-read fields first so a mismatch names the exact
    # counter instead of just reporting different hashes.
    for key in ("protocol_stats", "member_counts", "goodput_by_member",
                "packets_sent", "events_processed", "deliveries_logged",
                "delivery_log_sha256"):
        assert observed[key] == expected[key], f"{name}: {key} diverged from golden"


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_scenario_matches_golden(name, golden):
    observed = run_digest(GOLDEN_SCENARIOS[name], medium=GOLDEN_MEDIA.get(name))
    _assert_digest_matches(observed, golden.get(name), name)


@pytest.mark.parametrize("name", sorted(GOLDEN_FAILURES))
def test_failure_injection_matches_golden(name, golden):
    base, events = GOLDEN_FAILURES[name]
    observed = run_digest(GOLDEN_SCENARIOS[base], failure_events=events)
    _assert_digest_matches(observed, golden.get(name), name)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_object_kernel_matches_golden(name, golden):
    observed = run_digest(GOLDEN_SCENARIOS[name], medium=PerCopyMedium)
    _assert_digest_matches(observed, golden.get(name), name)


@pytest.mark.parametrize("name", sorted(GOLDEN_FAILURES))
def test_object_kernel_failure_injection_matches_golden(name, golden):
    base, events = GOLDEN_FAILURES[name]
    observed = run_digest(
        GOLDEN_SCENARIOS[base], failure_events=events, medium=PerCopyMedium
    )
    _assert_digest_matches(observed, golden.get(name), name)


@pytest.mark.parametrize("name", sorted([*GOLDEN_SCENARIOS, *GOLDEN_FAILURES]))
def test_unlogged_run_matches_golden(name, golden):
    observed = run_unlogged_digest(*golden_case(name))
    expected = golden[name]
    for key, value in observed.items():
        assert value == expected[key], f"{name}: {key} diverged from golden without the log"


@pytest.mark.parametrize("name", sorted(GOLDEN_CHURN))
def test_churn_matches_golden(name, golden):
    observed = churn_digest(GOLDEN_CHURN[name])
    expected = golden[name]
    assert set(observed) == set(expected)
    for key, value in observed.items():
        assert value == expected[key], f"{name}: {key} diverged from golden"
