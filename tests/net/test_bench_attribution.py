"""The benchmark's medium attribution still finds the medium's functions.

``bench/child.py`` books a traced run's medium time by *function name* and
source file (``_MEDIUM_SPANNED``, summed by ``bench/layers.py``): a rename
on the hot path breaks it without moving a single digest.  These checks read
the benchmark's names without importing the harness.
"""

import ast
from pathlib import Path

from repro.net.addressing import BROADCAST_ADDRESS
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.packet import Frame, Packet
from repro.net.phy import Phy
from repro.mobility.static import StaticMobility
from repro.sim.engine import Simulator

CHILD = Path(__file__).resolve().parents[2] / "bench" / "child.py"
MEDIUM_FILE = "repro/net/medium.py"


def _medium_spanned():
    for statement in ast.parse(CHILD.read_text()).body:
        if isinstance(statement, ast.Assign) and any(
            getattr(target, "id", None) == "_MEDIUM_SPANNED" for target in statement.targets
        ):
            return ast.literal_eval(statement.value)
    raise AssertionError("bench/child.py defines no _MEDIUM_SPANNED")


def test_every_spanned_name_the_medium_defines_is_still_a_medium_function():
    defined = [name for name in _medium_spanned() if hasattr(Medium, name)]
    assert defined == ["_transmit_batch", "_finish_batch"]
    for name in defined:
        code = getattr(Medium, name).__code__
        # The profiler keys a frame by its code object's name and file.
        assert code.co_name == name
        assert Path(code.co_filename).as_posix().endswith(MEDIUM_FILE)
    assert Medium.transmit is Medium._transmit_batch


class _StubNode:
    def __init__(self, node_id, x):
        self.node_id = node_id
        self.mobility = StaticMobility(x, 0.0)
        self.position = self.mobility.position


def test_finish_batch_is_the_scheduled_teardown():
    sim = Simulator()
    medium = Medium(sim, RadioConfig())
    sender = Phy(_StubNode(0, 0.0), medium)
    Phy(_StubNode(1, 50.0), medium)
    for dst in (BROADCAST_ADDRESS, 1):
        packet = Packet(origin=0, destination=dst)
        medium.transmit(sender, Frame(src=0, dst=dst, packet=packet))
        (entry,) = [entry for entry in sim._heap if entry[2] is not None]
        assert entry[2].__func__ is Medium._finish_batch
        sim.run()
