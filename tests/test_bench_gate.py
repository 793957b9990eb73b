"""The wall-clock gate (``tools/bench_gate.py``).

Unit tests of the baseline schema and the live runtime bands, plus the
committed baseline's linter bands. The simulated observables the gate
once compared against committed snapshots are pinned live, and
exactly, by ``tests/test_bench_contract.py``.
"""

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

spec = importlib.util.spec_from_file_location(
    "bench_gate", os.path.join(REPO, "tools", "bench_gate.py")
)
bench_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gate)


def _runtime(name="noop", **extra):
    return dict(
        {"name": name, "argv": ["{python}", "-c", "pass"], "max_seconds": 30.0},
        **extra,
    )


class TestBaselineSchema:
    def test_good_baseline_validates(self):
        baseline = {"format": bench_gate.FORMAT, "runtime": [_runtime()]}
        assert bench_gate.validate_baseline(baseline) == []

    def test_bad_format_and_shape(self):
        assert bench_gate.validate_baseline(
            {"format": "nope", "runtime": [_runtime()]}
        )
        for runtime in (None, [], "not-a-list"):
            assert bench_gate.validate_baseline(
                {"format": bench_gate.FORMAT, "runtime": runtime}
            )

    def test_runtime_section_validates(self):
        baseline = {
            "format": bench_gate.FORMAT,
            "runtime": [
                {
                    "name": "lint",
                    "argv": ["{python}", "-c", "pass"],
                    "max_seconds": 5.0,
                    "warmup": True,
                    "best_of": 2,
                    "env": {"PYTHONPATH": "src"},
                }
            ],
        }
        assert bench_gate.validate_baseline(baseline) == []

    def test_bad_runtime_entries_fail_closed(self):
        bad_entries = [
            {"argv": ["{python}"], "max_seconds": 1},  # no name
            {"name": "a", "argv": [], "max_seconds": 1},  # empty argv
            {"name": "b", "argv": ["x"], "max_seconds": 0},  # zero budget
            {"name": "c", "argv": ["x"], "max_seconds": 1, "best_of": 0},
            {"name": "d", "argv": ["x"], "max_seconds": 1, "env": {"k": 1}},
        ]
        baseline = {"format": bench_gate.FORMAT, "runtime": bad_entries}
        errors = bench_gate.validate_baseline(baseline)
        assert len(errors) >= len(bad_entries)


class TestRuntimeBands:
    def test_fast_command_passes_its_band(self):
        ok, verdict = bench_gate.run_runtime_entry(
            {
                "name": "noop",
                "argv": ["{python}", "-c", "pass"],
                "max_seconds": 30.0,
            },
            REPO,
        )
        assert ok and "ok" in verdict and "noop" in verdict

    def test_slow_command_fails_its_band(self):
        ok, verdict = bench_gate.run_runtime_entry(
            {
                "name": "sleepy",
                "argv": [
                    "{python}",
                    "-c",
                    "import time; time.sleep(0.3)",
                ],
                "max_seconds": 0.05,
            },
            REPO,
        )
        assert not ok and "FAIL" in verdict and "sleepy" in verdict

    def test_nonzero_exit_fails_regardless_of_speed(self):
        ok, verdict = bench_gate.run_runtime_entry(
            {
                "name": "crasher",
                "argv": [
                    "{python}",
                    "-c",
                    "import sys; print('boom', file=sys.stderr); sys.exit(3)",
                ],
                "max_seconds": 30.0,
            },
            REPO,
        )
        assert not ok and "exit 3" in verdict and "boom" in verdict

    def test_warmup_run_is_not_timed(self):
        # The first run writes a marker into the per-entry temp cache;
        # the timed run sees it and exits fast, so the entry passes even
        # though the warmup itself would have blown the band.
        script = (
            "import os, sys, time\n"
            "path = sys.argv[1]\n"
            "if os.path.exists(path):\n"
            "    sys.exit(0)\n"
            "open(path, 'w').write('warm')\n"
            "time.sleep(0.4)\n"
        )
        ok, verdict = bench_gate.run_runtime_entry(
            {
                "name": "cached",
                "argv": ["{python}", "-c", script, "{cache}"],
                "max_seconds": 0.35,
                "warmup": True,
            },
            REPO,
        )
        assert ok, verdict


class TestRunGate:
    def _write(self, tmp_path, baseline):
        bpath = tmp_path / "baseline.json"
        bpath.write_text(json.dumps(baseline))
        return str(bpath)

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        passing = _runtime()
        failing = _runtime(
            "would-fail", argv=["{python}", "-c", "import sys; sys.exit(9)"]
        )
        bpath = self._write(
            tmp_path, {"format": bench_gate.FORMAT, "runtime": [passing]}
        )
        assert bench_gate.run_gate(bpath, str(tmp_path)) == 0
        bpath = self._write(
            tmp_path,
            {"format": bench_gate.FORMAT, "runtime": [passing, failing]},
        )
        assert bench_gate.run_gate(bpath, str(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "would-fail" in out and "1/2 checks FAILED" in out

    def test_broken_baseline_fails_closed(self, tmp_path, capsys):
        bpath = tmp_path / "baseline.json"
        bpath.write_text(json.dumps({"format": "wrong", "runtime": []}))
        assert bench_gate.run_gate(str(bpath), str(tmp_path)) == 1


class TestCommittedSnapshots:
    """The committed baseline: valid, and carrying the linter's bands."""

    def test_committed_baseline_declares_linter_bands(self):
        with open(os.path.join(REPO, "tools", "bench_baseline.json")) as fh:
            baseline = json.load(fh)
        assert bench_gate.validate_baseline(baseline) == []
        entries = {e["name"]: e for e in baseline["runtime"]}
        cold = entries["analysis-lint-cold"]
        warm = entries["analysis-lint-warm"]
        assert cold["max_seconds"] == pytest.approx(12.0)
        assert warm["max_seconds"] == pytest.approx(2.5)
        assert warm.get("warmup") is True
        for entry in (cold, warm):
            assert "repro.analysis" in entry["argv"]
            assert "{cache}" in entry["argv"]
            assert entry["env"]["PYTHONPATH"] == "src"
