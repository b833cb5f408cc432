"""Property: the controller and the collectors keep one consistent record.

The controller owns *who is in* each group now; each group's collector owns
*since when* -- the ``[join, leave)`` intervals.  Hypothesis drives random
join/leave proposals through a controller with a floor, a ceiling and
protected nodes, and after every applied event (and at the end) checks that

* ``controller.members(g)`` is exactly the collector's members whose last
  interval is still open, and
* the collector's members with any interval are exactly the nodes the
  controller ever applied a join for (the scenario's ever-members).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.controller import MembershipController
from repro.metrics.collectors import DeliveryCollector
from repro.sim.engine import Simulator

_GROUPS = 2
_NODES = 8

#: ``(group, node, kind)`` proposals, one per simulated second.
_proposals = st.lists(
    st.tuples(
        st.integers(0, _GROUPS - 1),
        st.integers(0, _NODES - 1),
        st.sampled_from(["join", "leave"]),
    ),
    max_size=60,
)
_nodes = st.sets(st.integers(0, _NODES - 1), max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    proposals=_proposals,
    initial=_nodes,
    protected=_nodes,
    floor=st.integers(0, 3),
    ceiling=st.one_of(st.none(), st.integers(3, _NODES)),
)
def test_current_members_and_intervals_agree(proposals, initial, protected, floor, ceiling):
    sim = Simulator()
    collectors = {g: DeliveryCollector() for g in range(_GROUPS)}
    joined = {g: set() for g in range(_GROUPS)}

    def check() -> None:
        for g, collector in collectors.items():
            spans = {m: collector.intervals_of(m) for m in collector.members}
            open_now = [m for m, s in spans.items() if s and s[-1][1] is None]
            assert controller.members(g) == open_now
            assert [m for m, s in spans.items() if s] == sorted(joined[g])

    def on_join(g, node, initial_join):
        joined[g].add(node)
        check()

    controller = MembershipController(
        sim,
        collectors,
        pool=range(_NODES - 2),  # the last two nodes may only join initially
        window=(0.0, 100.0),
        min_members=floor,
        max_members=ceiling,
        protected={0: protected},
        join_hook=on_join,
        leave_hook=lambda g, node, initial_join: check(),
    )
    for node in sorted(initial):
        controller.schedule_initial_join(0, node, 0.0)

    def propose(g, node, kind):
        (controller.join if kind == "join" else controller.leave)(g, node)
        check()

    for at, proposal in enumerate(proposals, start=1):
        sim.call_at(float(at), propose, proposal)
    sim.run(until=len(proposals) + 1.0)
    check()
    # Protected initial members never left group 0.
    assert initial & protected <= set(controller.members(0))
