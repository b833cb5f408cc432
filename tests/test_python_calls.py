"""``python_calls``: the frame recorder behind the hot-path frame budgets."""

import gc

from tests.conftest import python_calls


def _inner():
    return 1


def _outer():
    return _inner() + _inner()


def _suspended():
    try:
        yield 1
    finally:
        pass


class _Cycle:
    pass


def test_records_frames_in_call_order():
    assert python_calls(_outer) == ["_outer", "_inner", "_inner"]


def test_ignores_finalizers_of_earlier_garbage():
    # Cyclic garbage holding suspended generators: collecting it closes
    # them, which enters their frames.  A collection triggered by the
    # allocations of the recorded call must not show up as its frames.
    threshold = gc.get_threshold()
    gc.set_threshold(50)
    try:
        for _ in range(40):
            holder = _Cycle()
            holder.generator = _suspended()
            next(holder.generator)
            holder.itself = holder
        del holder
        calls = python_calls(lambda: [[i] for i in range(2000)])
    finally:
        gc.set_threshold(*threshold)
    assert "_suspended" not in calls


def test_restores_the_collector_state():
    assert gc.isenabled()
    python_calls(_outer)
    assert gc.isenabled()
    gc.disable()
    try:
        python_calls(_outer)
        assert not gc.isenabled()
    finally:
        gc.enable()
