"""The ordering-mechanism zoo: every causal-ordering substrate this
repository implements, on one workload, one table.

Mechanisms (all behind the same CausalClock interface or substrate API):

- ``matrix`` — full-matrix stamps, the classical AAA algorithm (§3);
- ``updates`` — Appendix-A delta stamps;
- ``histories`` — explicit causal histories with ack-pruning ([10] family);
- ``fifo`` — the over-reduced FM-class baseline (per-pair FIFO, §2 [19]):
  cheapest wire, **forfeits global causality**;
- BSS broadcast — vector clocks + flooding ([13]/[17] substrate).

The table reports wire cells per hop and turn-around on the flat MOM,
plus whether the mechanism actually preserves causal order — the column
the paper's whole design is about keeping True for less.
"""

import pytest

from conftest import bench_once
from repro.bench import run_baseline_unicast, run_remote_unicast

N = 30
ROUNDS = 10


@pytest.mark.parametrize("clock", ["matrix", "updates", "histories", "fifo"])
def test_zoo_point(benchmark, clock):
    result = benchmark.pedantic(
        run_remote_unicast,
        kwargs=dict(server_count=N, topology="flat", rounds=ROUNDS, clock=clock),
        iterations=1,
        rounds=2,
    )
    benchmark.extra_info["clock"] = clock
    benchmark.extra_info["sim_ms"] = round(result.mean_turnaround_ms, 1)
    benchmark.extra_info["cells_per_hop"] = result.wire_cells // max(1, result.hops)
    benchmark.extra_info["causal_ok"] = result.causal_ok


def test_zoo_summary(benchmark):
    rows = bench_once(
        benchmark,
        lambda: {
            clock: run_remote_unicast(
                N, topology="flat", rounds=ROUNDS, clock=clock
            )
            for clock in ("matrix", "updates", "histories", "fifo")
        },
    )
    cells = {
        clock: result.wire_cells / max(1, result.hops)
        for clock, result in rows.items()
    }
    # wire footprint ordering on a quiet pair: full matrix >> the rest
    assert cells["matrix"] == N * N
    assert cells["updates"] <= 3
    assert cells["histories"] <= 4
    assert cells["fifo"] == 1
    # every *correct* mechanism preserves causality on this workload...
    for clock in ("matrix", "updates", "histories"):
        assert rows[clock].causal_ok
    # (fifo happens to pass too on a pure ping-pong — no relays — which is
    # exactly why §2 calls the reduction tempting; the relay tests and the
    # model checker's scenario table are where it falls apart)
    assert rows["fifo"].causal_ok


def test_zoo_broadcast_substrate(benchmark):
    """The flooding substrate pays in packets what the others pay in
    cells: n-1 transmissions per logical message."""
    baseline = bench_once(
        benchmark, lambda: run_baseline_unicast(N, rounds=ROUNDS)
    )
    assert baseline.hops / baseline.messages == N - 1


def test_zoo_histories_widen_under_fanout(benchmark):
    """Histories are cheap on quiet pairs but track the causal past's
    breadth: a broadcast-y workload widens the stamps, while Updates
    deltas stay bounded by the matrix size."""
    from repro.bench import run_broadcast

    histories, updates = bench_once(
        benchmark,
        lambda: (
            run_broadcast(12, rounds=4, clock="histories"),
            run_broadcast(12, rounds=4, clock="updates"),
        ),
    )
    hist_cells = histories.wire_cells / max(1, histories.hops)
    upd_cells = updates.wire_cells / max(1, updates.hops)
    assert hist_cells > upd_cells
    assert histories.causal_ok and updates.causal_ok
