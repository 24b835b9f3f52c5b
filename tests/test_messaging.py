"""Classical messaging: per-destination inboxes against a per-channel model.

The fabric keeps one inbox per destination, source -> FIFO channel, and
receive_all walks only the sources that sent to it.  A random sequence of
sends, clock steps and receives, rejected calls included, must give what
oracles.ChannelScan gives, which scans every source: the same messages in
the same order, the same errors, and counters that a rejected call leaves
unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.fabric import ClassicalMessage, Fabric, make_partition
from oracles import ChannelScan


@st.composite
def messaging_program(draw):
    """A node count k <= 5 and calls whose nodes may fall outside 0..k-1."""
    k = draw(st.integers(1, 5))
    node = st.integers(-1, k)
    call = st.one_of(
        st.tuples(st.just("send_classical"), node, node, st.sampled_from(["a", "b"]),
                  st.integers(0, 3)),
        st.tuples(st.just("advance_clock"), st.integers(-1, 2)),
        st.tuples(st.just("receive"), node, node),
        st.tuples(st.just("receive_all"), node))
    return k, draw(st.lists(call, max_size=60))


def _outcome(obj, name, args):
    try:
        return "ok", getattr(obj, name)(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(messaging_program())
def test_inboxes_deliver_what_a_per_channel_scan_does(program):
    k, calls = program
    fabric, model = Fabric(make_partition(k, k), with_comm=False), ChannelScan(k)
    counters = fabric.counters
    for name, *args in calls:
        before = (counters.current_tick, counters.classical_messages)
        got, want = _outcome(fabric, name, args), _outcome(model, name, args)
        assert got == want, (name, args)
        if got[0] != "ok":
            assert (counters.current_tick, counters.classical_messages) == before
        assert (counters.current_tick, counters.classical_messages) == (model.tick, model.sent)
    fabric.advance_clock(2)
    model.advance_clock(2)
    for dst in range(k):  # whatever is still queued comes out alike
        assert fabric.receive_all(dst) == model.receive_all(dst)


@pytest.mark.parametrize("dst", [-1, 3, 7])
def test_receive_all_outside_the_plan_raises(dst):
    fabric = Fabric(make_partition(6, 3))
    fabric.send_classical(0, 2, "t", 1)
    fabric.advance_clock(1)
    with pytest.raises(ValueError, match="out of range for k=3"):
        fabric.receive_all(dst)
    assert fabric.receive(0, 2).payload == 1  # nothing was popped


@pytest.mark.parametrize("src,dst", [(5, 0), (0, 5), (-1, 2), (2, -1)])
def test_receive_outside_the_plan_raises_before_any_queue_changes(src, dst):
    fabric = Fabric(make_partition(6, 3))
    fabric.send_classical(1, 0, "t", 1)
    fabric.send_classical(0, 2, "t", 0)
    fabric.advance_clock(1)
    with pytest.raises(ValueError, match="out of range for k=3"):
        fabric.receive(src, dst)
    assert [m.payload for m in fabric.receive_all(0) + fabric.receive_all(2)] == [1, 0]
    with pytest.raises(RuntimeError):
        fabric.receive(1, 1)  # two nodes of the plan, no channel: no deliverable message


def test_a_message_is_the_named_tuple():
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    fabric.advance_clock(3)
    msg = fabric.send_classical(1, 0, "feedforward", 1)
    assert type(msg) is ClassicalMessage
    assert msg == ClassicalMessage(1, 0, "feedforward", 1, 4) == (1, 0, "feedforward", 1, 4)
    assert (msg.src, msg.dst, msg.tag, msg.payload, msg.tick) == (1, 0, "feedforward", 1, 4)


def test_receive_all_walks_only_the_sources_that_sent():
    fabric = Fabric(make_partition(8, 8), with_comm=False)
    for src in (6, 2, 4, 0):  # channels open out of order
        fabric.send_classical(src, 7, "t", src)
    fabric.advance_clock(1)
    assert list(fabric._inbox) == [7]
    assert list(fabric._inbox[7]) == [0, 2, 4, 6]
    assert [m.src for m in fabric.receive_all(7)] == [0, 2, 4, 6]
    assert fabric.receive_all(3) == []  # a node of the plan that nothing was sent to


def test_product_measure_checks_the_factor_and_draws_once():
    fabric = Fabric(make_partition(3, 3), with_comm=False)
    rng = np.random.default_rng(8)
    fabric.apply("h", (1,))
    bit = fabric.measure(1, rng)
    assert fabric.counters.midcircuit_measurements == 1
    assert np.allclose(np.abs(fabric.state._factors[1]), [1 - bit, bit], atol=1e-15)
    fabric.state._factors[2] = [0j, 0j]
    with pytest.raises(ValueError, match="both outcome probabilities vanish on qubit 2"):
        fabric.measure(2, rng)
    assert fabric.counters.midcircuit_measurements == 1
