"""Self-tests of the benchmark: it is quick to smoke, its names are the
declared ones, its span accounting adds up, and its recorder leaves the
program as it found it.

Outside tier-1's ``testpaths``; run with
``python -m pytest benchmarks/e2e/tests``.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
# the program and the benchmark's modules (no conftest.py here: the
# figure benchmarks one level up import theirs by that bare name)
sys.path[:0] = [str(ROOT / "src"), str(E2E)]

import compare
import layers
import perlayer
import workloads
from repro.simulation.kernel import Simulator

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@pytest.fixture(scope="module")
def declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_epoch():
    """One quick ``churn_w8`` epoch under the span recorder."""
    plain = workloads.run_epoch("churn_w8", 7000, quick=True)
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        recorder.calibrate(calls=2000)
        traced = workloads.run_epoch(
            "churn_w8", 7000, quick=True, region=recorder.region
        )
    finally:
        recorder.uninstall()
    return plain, traced, recorder.aggregate(), list(recorder.spans())


def test_quick_suite_under_30s_with_declared_names(tmp_path, declaration):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 30.0
    document = json.loads(out.read_text())
    assert document["correct"]
    declared = [w["name"] for w in declaration["workloads"]]
    assert list(document["workloads"]) == declared
    end_to_end = {m["name"] for m in declaration["end_to_end"]}
    per_layer = {m["name"] for m in declaration["per_layer"]}
    for name in [*declared, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    for name, workload in document["workloads"].items():
        assert workload["ops_failed"] == 0, name
        for run in workload["runs"]:
            assert set(run["metrics"]) == end_to_end, name
        assert set(workload["traced"]["metrics"]) == per_layer, name
    for key in ("seed", "repeats", "nproc", "python", "wall_s",
                "loadavg_1m_before", "loadavg_1m_after"):
        assert key in document["hygiene"]


def test_span_self_times_sum_to_the_root_span(traced_epoch):
    _, _, aggregate, _ = traced_epoch
    for region, rows in aggregate.rows.items():
        raw = sum(row.raw_self_ns for row in rows.values())
        assert raw == pytest.approx(aggregate.region_ns[region], rel=0.01)
        # the calibrated self times only ever remove wrapper cost
        assert sum(row.self_ns for row in rows.values()) <= raw


def test_recorder_does_not_change_the_simulated_result(traced_epoch):
    plain, traced, _, _ = traced_epoch
    assert traced.fingerprint == plain.fingerprint
    assert traced.ops_completed == traced.ops_attempted


def test_spans_of_one_message_share_its_nid(traced_epoch):
    _, traced, _, spans = traced_epoch
    posts = [i for i, span in enumerate(spans) if span[0] == "channel.post"]
    assert len(posts) == traced.harvest.counters["channel.hops_sent"]
    for index in posts:
        assert spans[index][4] != layers.NO_NID
    # a span that names no message inherits its parent's
    for name, _, _, parent, nid in spans:
        if name.startswith("clocks.") and parent >= 0:
            assert nid == spans[parent][4]
    distinct = {span[4] for span in spans if span[0] == "engine.enqueue"}
    assert len(distinct) == traced.harvest.notifications


def test_every_traced_module_maps_to_a_layer(traced_epoch):
    _, traced, aggregate, _ = traced_epoch
    known = set(layers.LAYERS) | {layers.BENCH, layers.UNATTRIBUTED}
    names = {name for rows in aggregate.rows.values() for name in rows}
    assert {name.split(".", 1)[0] for name in names} <= known
    # longest prefix wins; a module no layer claims is counted, not dropped
    assert layers.layer_of("repro.causality.trace") == "bus"
    assert layers.layer_of("repro.causality.checker") == "causality"
    assert layers.layer_of("repro.mom.server") is None
    metrics = perlayer.layer_metrics(aggregate, traced)
    stray = aggregate.layer_self_ns(perlayer.RUN, layers.UNATTRIBUTED)
    total = sum(row.self_ns for row in aggregate.rows[perlayer.RUN].values())
    assert metrics["trace.unattributed_share"] >= stray / total


def test_layers_separate_on_the_churn_workload(traced_epoch):
    _, traced, aggregate, _ = traced_epoch
    metrics = perlayer.layer_metrics(aggregate, traced)
    assert metrics["channel.heldback_ratio"] >= 0.5
    assert metrics["transport.retransmit_ratio"] == 0
    assert metrics["obs.share"] == 0
    assert metrics["kernel.share"] > metrics["clocks.share"] > 0
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_uninstall_restores_the_program():
    original = Simulator.__dict__["run"]
    recorder = layers.SpanRecorder()
    recorder.install()
    assert Simulator.__dict__["run"] is not original
    recorder.uninstall()
    assert Simulator.__dict__["run"] is original
    recorder.install()
    with pytest.raises(RuntimeError):
        recorder.install()
    recorder.uninstall()
    assert Simulator.__dict__["run"] is original


@pytest.mark.parametrize(
    "b_median, b_runs, spread, expected",
    [
        (1.30, [1.29, 1.31], 0.01, "worse"),
        (1.05, [1.04, 1.06], 0.01, "within-bound"),
        (0.80, [0.79, 0.81], 0.01, "better"),
        (1.30, [0.90, 1.70], 0.40, "unresolved"),
        (0.50, [0.40, 0.60], 0.40, "better"),  # every run beats every run
    ],
)
def test_compare_verdicts(b_median, b_runs, spread, expected):
    def side(median):
        half = spread * median / 2
        return {"median": median, "q1": median - half, "q3": median + half}

    a_runs = [0.99, 1.01] if spread < 0.1 else [0.8, 1.2]
    assert compare.verdict(
        side(1.0), side(b_median), a_runs, b_runs,
        lower_is_better=True, bound=0.15,
    ) == expected
