"""The small-scope protocol model checker (the dynamic admission gate).

Covers: admission of all shipping causal cores, rejection of the
non-causal FIFO baseline with a causal-violation counterexample,
rejection of a seeded merge bug (the ``droprow`` fixture) with a
hold-back-leak counterexample, the static admission scan for file-loaded
candidates, and the CLI exit-code contract (0 admitted / 1 violation /
2 usage or scan error).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.model import (
    ScanError,
    check_core,
    check_named,
    checkable_cores,
    clamp_scope,
    load_candidate,
    scan_candidate,
)
from repro.errors import ProtocolError

REPO_ROOT = Path(__file__).resolve().parent.parent
DROPROW = REPO_ROOT / "tests" / "model_fixtures" / "droprow.py"


class TestAdmission:
    @pytest.mark.parametrize("name", ["matrix", "updates", "histories"])
    def test_shipping_causal_cores_admitted_at_small_scope(self, name):
        result = check_named(name, servers=2, messages=2)
        assert result.ok, result.format()
        assert result.kind == "admitted"
        assert result.trace == []
        assert result.states > 1

    def test_matrix_admitted_at_default_scope(self):
        # The full n=3, m=3 sweep the CI gate runs.
        result = check_named("matrix")
        assert result.ok, result.format()
        assert (result.servers, result.messages) == (3, 3)
        assert result.states == 3085

    def test_scope_is_capped(self):
        # the clamp itself, without paying for the n=3, m=4 exploration
        # (CI's analysis job runs that one: `model matrix --messages 4`)
        assert clamp_scope(9, 99) == (3, 4)
        assert clamp_scope(2, 1) == (2, 1)
        # ...and check_core explores and reports the clamped scope
        result = check_named("matrix", servers=9, messages=2)
        assert result.servers == 3
        assert result.messages == 2

    def test_exploration_is_deterministic(self):
        first = check_named("updates", servers=2, messages=2)
        second = check_named("updates", servers=2, messages=2)
        assert first.to_dict() == second.to_dict()

    def test_checkable_cores_reports_causality_flags(self):
        table = dict(checkable_cores())
        assert table == {
            "matrix": True,
            "updates": True,
            "histories": True,
            "fifo": False,
        }


class TestRejection:
    def test_fifo_baseline_violates_causal_delivery(self):
        result = check_named("fifo")
        assert not result.ok
        assert result.kind == "causal-violation"
        assert result.trace, "a violation must carry its interleaving"
        assert "causal predecessor" in result.detail
        formatted = result.format()
        assert "CAUSAL-VIOLATION" in formatted
        assert "counterexample interleaving:" in formatted

    def test_seeded_merge_bug_wedges_holdback(self):
        core = load_candidate(DROPROW)
        result = check_core(core, servers=2, messages=2)
        assert not result.ok
        assert result.kind == "holdback-leak"
        assert "wedged in hold-back" in result.detail
        assert any("held back" in step for step in result.trace)

    def test_counterexample_steps_are_numbered(self):
        core = load_candidate(DROPROW)
        result = check_core(core, servers=2, messages=2)
        lines = result.format().splitlines()
        assert lines[0].startswith("core 'droprow': HOLDBACK-LEAK")
        steps = [l for l in lines if l.strip()[0:1].isdigit()]
        assert len(steps) == len(result.trace)


class TestAdmissionScan:
    def test_fixture_passes_the_scan(self):
        scan_candidate(DROPROW.read_text(encoding="utf-8"), str(DROPROW))

    def test_forbidden_import_rejected(self):
        with pytest.raises(ScanError, match="sandbox"):
            scan_candidate("import os\n", "candidate.py")

    def test_forbidden_from_import_rejected(self):
        with pytest.raises(ScanError, match="subprocess"):
            scan_candidate("from subprocess import run\n", "candidate.py")

    def test_forbidden_call_rejected(self):
        with pytest.raises(ScanError, match=r"open\(\)"):
            scan_candidate("data = open('x').read()\n", "candidate.py")

    def test_syntax_error_rejected(self):
        with pytest.raises(ScanError, match="not parseable"):
            scan_candidate("def broken(:\n", "candidate.py")

    def test_load_candidate_requires_exactly_one_core(self, tmp_path):
        empty = tmp_path / "empty.py"
        empty.write_text("X = 1\n", encoding="utf-8")
        with pytest.raises(ScanError, match="exactly one"):
            load_candidate(empty)

    def test_load_candidate_uses_core_attribute(self):
        core = load_candidate(DROPROW)
        assert core.name == "droprow"
        with pytest.raises(ProtocolError):
            # never registered: only loadable through its file path
            check_named("droprow")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", "model", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )

    def test_admitted_core_exits_zero(self):
        result = self.run_cli("matrix", "--servers", "2", "--messages", "2")
        assert result.returncode == 0, result.stdout + result.stderr
        assert (
            "core 'matrix': ADMITTED (n=2, m=2, 25 states explored)"
            in result.stdout
        )

    def test_violating_candidate_exits_one_with_counterexample(self):
        result = self.run_cli(
            str(DROPROW), "--servers", "2", "--messages", "2"
        )
        assert result.returncode == 1
        assert "core 'droprow': HOLDBACK-LEAK" in result.stdout
        assert "counterexample interleaving:" in result.stdout
        assert "held back" in result.stdout

    def test_unknown_core_exits_two(self):
        result = self.run_cli("nosuch")
        assert result.returncode == 2
        assert "no causal core registered as 'nosuch'" in result.stderr

    def test_rejected_candidate_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import socket\n", encoding="utf-8")
        result = self.run_cli(str(bad))
        assert result.returncode == 2
        assert "admission scan failed" in result.stderr

    def test_no_core_and_no_all_exits_two(self):
        result = self.run_cli()
        assert result.returncode == 2
        assert "name a core or pass --all" in result.stderr

    def test_all_skips_non_causal_baselines(self):
        result = self.run_cli(
            "--all", "--servers", "2", "--messages", "2", "--json"
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "core 'fifo': skipped" in result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        checked = {entry["core"] for entry in payload["results"]}
        assert checked == {"matrix", "updates", "histories"}

    def test_json_reports_the_violation(self):
        result = self.run_cli(
            str(DROPROW), "--servers", "2", "--messages", "2", "--json"
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        (entry,) = payload["results"]
        assert entry["kind"] == "holdback-leak"
        assert entry["states"] == 19
        assert entry["trace"]
