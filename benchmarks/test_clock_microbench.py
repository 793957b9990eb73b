"""Microbenchmarks of the clock data structures themselves.

Not a paper figure — an engineering regression guard: the simulator's
throughput is dominated by ``prepare_send`` / ``can_deliver`` / ``deliver``
at domain size s, so these keep the hot path honest and quantify the
asymmetry the Updates algorithm introduces (cheap wire, same merge).
"""

import pytest

from repro.bench.harness import run_holdback_churn
from repro.clocks import MatrixClock, UpdatesClock

SIZES = [10, 50, 150]


def pingpong_pair(clock_cls, size):
    a = clock_cls(size, 0)
    b = clock_cls(size, 1)
    # warm the clocks so deltas are steady-state
    for _ in range(3):
        b.deliver(a.prepare_send(1))
        a.deliver(b.prepare_send(0))
    return a, b


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("clock_cls", [MatrixClock, UpdatesClock],
                         ids=["matrix", "updates"])
def test_prepare_send(benchmark, clock_cls, size):
    a, b = pingpong_pair(clock_cls, size)

    def op():
        stamp = a.prepare_send(1)
        b.deliver(stamp)
        back = b.prepare_send(0)
        a.deliver(back)
        return stamp

    stamp = benchmark(op)
    benchmark.extra_info["wire_cells"] = stamp.wire_cells
    benchmark.extra_info["size"] = size


@pytest.mark.parametrize("size", SIZES)
def test_full_matrix_stamp_cells_are_quadratic(benchmark, size):
    a, _ = pingpong_pair(MatrixClock, size)
    stamp = benchmark(a.prepare_send, 1)
    assert stamp.wire_cells == size * size


@pytest.mark.parametrize("size", SIZES)
def test_updates_stamp_cells_constant(benchmark, size):
    a, _ = pingpong_pair(UpdatesClock, size)
    stamp = benchmark(a.prepare_send, 1)
    assert stamp.wire_cells <= 2


@pytest.mark.parametrize("size", SIZES)
def test_snapshot_cost(benchmark, size):
    a, b = pingpong_pair(MatrixClock, size)
    snapshot = benchmark(a.snapshot)
    assert len(snapshot) == size


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("clock_cls", [MatrixClock, UpdatesClock],
                         ids=["matrix", "updates"])
def test_deliver_merge_fan_in(benchmark, clock_cls, size):
    """Every peer sends to server 0 each round — the receiver's merge is
    the hot loop at a busy router. The flat-buffer clocks merge only the
    cells changed since the peer's previous stamp (the change-log window),
    so this stays O(changed) instead of O(s²) per delivery."""
    receiver = clock_cls(size, 0)
    peers = [clock_cls(size, i) for i in range(1, size)]
    # steady state: every peer has sent before
    for peer in peers:
        receiver.deliver(peer.prepare_send(0))

    def fan_in_round():
        for peer in peers:
            receiver.deliver(peer.prepare_send(0))

    benchmark(fan_in_round)
    benchmark.extra_info["size"] = size
    benchmark.extra_info["dirty_cells"] = receiver.dirty_cells()


def test_holdback_churn(benchmark):
    """Most hops of the churn run arrive out of FIFO order and sit in
    the hold-back store: exercises the (sender, seq)-indexed wake-up
    probe instead of a full rescan."""
    mom, _ = benchmark(run_holdback_churn)
    snapshot = mom.metrics.snapshot()
    assert snapshot["channel.heldback"] > 50, "churn scenario lost its bite"
    benchmark.extra_info["heldback"] = snapshot["channel.heldback"]
    benchmark.extra_info["hops_delivered"] = snapshot["channel.hops_delivered"]
