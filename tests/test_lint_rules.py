"""Self-tests for the protocol linter (R001–R017).

Each rule gets a firing fixture, a non-firing fixture and a noqa
fixture under ``tests/lint_fixtures/repro/...``; the directory layout
mirrors the real package so that location-scoped rules resolve module
names exactly as they do on ``src/``. The whole-program rules
(R007/R008/R013/R014/R017) are exercised through :func:`lint_paths`
over the fixture tree, which builds one project from every fixture
file; the noqa escape hatch is covered by one parametric strip-noqa
test that re-lints each ``r*_noqa.py`` fixture with its waiver removed.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Diagnostic, lint_file, lint_paths, lint_source
from repro.analysis.lint import (
    apply_baseline,
    load_baseline,
    module_name,
    write_baseline,
)
from repro.analysis.rules import ALL_RULES, LAYERS, PROJECT_RULES

FIXTURES = Path(__file__).parent / "lint_fixtures" / "repro"
REPO_SRC = Path(__file__).parent.parent / "src"
NOQA_FIXTURES = sorted(FIXTURES.rglob("r*_noqa.py"))


def rules_fired(path: Path) -> list:
    return [d.rule for d in lint_file(path)]


@pytest.fixture(scope="session")
def src_lint_cache(tmp_path_factory):
    """One findings cache for the whole-``src/`` lints: the in-process
    lint fills it, the CLI's ``--changed`` run reuses it warm (both
    name files by the same absolute paths, so the entries match)."""
    return tmp_path_factory.mktemp("lint-cache") / "src.json"


@pytest.fixture(scope="module")
def fixture_project_findings():
    """One whole-program lint of the fixture tree, shared per module."""
    return lint_paths([FIXTURES])


def fired_at(findings, name: str) -> list:
    return [d.rule for d in findings if Path(d.path).name == name]


class TestModuleName:
    def test_src_layout(self):
        assert module_name("src/repro/mom/channel.py") == "repro.mom.channel"

    def test_rightmost_repro_wins(self):
        path = "tests/lint_fixtures/repro/mom/r001_bad.py"
        assert module_name(path) == "repro.mom.r001_bad"

    def test_init_maps_to_package(self):
        assert module_name("src/repro/clocks/__init__.py") == "repro.clocks"

    def test_outside_repro_is_none(self):
        assert module_name("scripts/plot.py") is None


class TestR001ClockInternals:
    def test_fires_outside_clocks(self):
        fired = rules_fired(FIXTURES / "mom" / "r001_bad.py")
        assert fired.count("R001") == 4

    def test_silent_inside_clocks(self):
        assert rules_fired(FIXTURES / "clocks" / "r001_good.py") == []

    def test_reads_never_fire(self):
        findings = lint_source(
            "value = clock._buf[0]\n", module="repro.mom.probe"
        )
        assert findings == []


class TestR002Nondeterminism:
    def test_fires_on_every_source(self):
        fired = rules_fired(FIXTURES / "simulation" / "r002_bad.py")
        assert fired.count("R002") == 5

    def test_seeded_rng_is_fine(self):
        assert rules_fired(FIXTURES / "simulation" / "r002_good.py") == []

    def test_rng_module_is_exempt(self):
        assert rules_fired(FIXTURES / "simulation" / "rng.py") == []


class TestR003UnorderedIteration:
    def test_fires_in_mom(self):
        fired = rules_fired(FIXTURES / "mom" / "r003_bad.py")
        assert fired.count("R003") == 4

    def test_sorted_is_fine(self):
        assert rules_fired(FIXTURES / "mom" / "r003_good.py") == []

    def test_out_of_scope_package(self):
        assert rules_fired(FIXTURES / "bench" / "r003_out_of_scope.py") == []


class TestR004TimestampEquality:
    def test_fires_on_equality(self):
        fired = rules_fired(FIXTURES / "simulation" / "r004_bad.py")
        assert fired.count("R004") == 3

    def test_ordered_comparisons_fine(self):
        assert rules_fired(FIXTURES / "simulation" / "r004_good.py") == []


class TestR005SwallowedErrors:
    def test_fires_on_swallowing(self):
        fired = rules_fired(FIXTURES / "mom" / "r005_bad.py")
        assert fired.count("R005") == 3

    def test_reraise_and_cli_boundary_fine(self):
        assert rules_fired(FIXTURES / "mom" / "r005_good.py") == []


class TestR006LayeredImports:
    def test_fires_on_upward_imports(self):
        fired = rules_fired(FIXTURES / "clocks" / "r006_bad.py")
        assert fired.count("R006") == 3

    def test_downward_and_type_checking_fine(self):
        assert rules_fired(FIXTURES / "mom" / "r006_good.py") == []

    def test_layer_order_matches_reality(self):
        # the declared order must keep every real package distinct
        assert len(set(LAYERS.values())) == len(LAYERS)
        assert LAYERS["errors"] < LAYERS["clocks"] < LAYERS["mom"]
        assert LAYERS["mom"] < LAYERS["bench"] < LAYERS["analysis"]


class TestR007NondeterminismTaint:
    def test_fires_on_both_sinks(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r007_bad.py")
        assert fired.count("R007") == 2

    def test_local_draws_are_fine(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r007_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r007_noqa.py") == []


class TestR008ObservationPurity:
    def test_fires_on_hook_path_mutation(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r008_bad.py")
        assert fired.count("R008") == 1

    def test_diagnostic_names_the_call_path(self, fixture_project_findings):
        (finding,) = [
            d for d in fixture_project_findings if d.rule == "R008"
        ]
        assert "on_send" in finding.message and "_bump" in finding.message

    def test_pure_hooks_are_fine(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r008_good.py") == []

    def test_host_call_sites_are_clean(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r008_state.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r008_noqa.py") == []

    def test_repo_hook_closure_is_mutation_free(self):
        """R008 over src/ statically verifies every obs/metrics hook
        path: non-trivial roots and closure, zero mutations reached."""
        from repro.analysis.callgraph import ModuleInfo, Project
        from repro.analysis.lint import iter_python_files
        from repro.analysis.rules import ObservationPurity, effect_engine

        modules = []
        for path in iter_python_files([REPO_SRC]):
            text = path.read_text(encoding="utf-8")
            modules.append(
                ModuleInfo(
                    module=module_name(path) or str(path),
                    path=str(path),
                    tree=ast.parse(text),
                    source=text,
                )
            )
        project = Project(modules)
        roots = ObservationPurity._hook_roots(project)
        assert any(".BusAccounting." in root for root in roots)
        assert any(".Tracer." in root for root in roots)
        # the channel's typed `_obs` calls reach the tracer's overrides
        assert "repro.obs.tracer.Tracer.channel_commit" in roots
        assert any(root.startswith("repro.metrics.") for root in roots)
        # the snapshot-time pull side, registered as bound methods from
        # inside the accounting observer itself
        assert "repro.mom.accounting.BusAccounting._collect" in roots
        assert "repro.mom.accounting.BusAccounting._idle_rows" in roots
        closure = project.reachable_from(sorted(roots))
        assert len(closure) > len(roots)
        engine = effect_engine(project)
        engine.solve()
        mutating = [
            q
            for q in closure
            if engine.summaries.get(q) and engine.summaries[q].mutates_protocol
        ]
        assert mutating == []


class TestR009GuardDiscipline:
    def test_fires_on_unguarded_calls(self):
        fired = rules_fired(FIXTURES / "mom" / "r009_bad.py")
        assert fired.count("R009") == 3

    def test_every_guard_idiom_passes(self):
        assert rules_fired(FIXTURES / "mom" / "r009_good.py") == []

    def test_noqa_suppresses(self):
        assert rules_fired(FIXTURES / "mom" / "r009_noqa.py") == []


class TestR010TransactionPairing:
    def test_fires_on_leaky_paths(self):
        fired = rules_fired(FIXTURES / "mom" / "r010_bad.py")
        assert fired.count("R010") == 2

    def test_paired_and_handed_off_pass(self):
        assert rules_fired(FIXTURES / "mom" / "r010_good.py") == []

    def test_noqa_suppresses(self):
        assert rules_fired(FIXTURES / "mom" / "r010_noqa.py") == []


class TestR011PersistenceBypass:
    def test_fires_on_backdoor_writes(self):
        fired = rules_fired(FIXTURES / "mom" / "r011_bad.py")
        assert fired.count("R011") == 3

    def test_api_and_lookalikes_pass(self):
        assert rules_fired(FIXTURES / "mom" / "r011_good.py") == []

    def test_persistence_module_is_exempt(self):
        findings = lint_source(
            "self._server.store._data[k] = v\n",
            module="repro.mom.persistence",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        assert rules_fired(FIXTURES / "mom" / "r011_noqa.py") == []


class TestR012HoldbackLeak:
    def test_fires_on_swallowed_exception(self):
        fired = rules_fired(FIXTURES / "mom" / "r012_bad.py")
        assert fired.count("R012") == 1

    def test_cleanup_paths_pass(self):
        assert rules_fired(FIXTURES / "mom" / "r012_good.py") == []

    def test_noqa_suppresses(self):
        assert rules_fired(FIXTURES / "mom" / "r012_noqa.py") == []


class TestR013ForkBoundaryLostUpdate:
    def test_fires_on_worker_module_writes(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r013_bad.py")
        assert fired.count("R013") == 2

    def test_diagnostic_names_the_worker_entry(self, fixture_project_findings):
        messages = [
            d.message
            for d in fixture_project_findings
            if d.rule == "R013" and Path(d.path).name == "r013_bad.py"
        ]
        assert all("_r013_worker" in message for message in messages)

    def test_pipe_shipped_results_are_fine(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r013_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r013_noqa.py") == []


class TestR014PipePickleSafety:
    def test_fires_on_unpicklable_fields(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r014_bad.py")
        assert fired.count("R014") == 2

    def test_diagnostic_names_the_reason(self, fixture_project_findings):
        messages = " ".join(
            d.message
            for d in fixture_project_findings
            if d.rule == "R014"
        )
        assert "lambda" in messages and "thread lock" in messages

    def test_plain_data_and_local_scratch_pass(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r014_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r014_noqa.py") == []


class TestR015EpochDiscipline:
    def test_fires_on_unbumped_log_rebinds(self):
        fired = rules_fired(FIXTURES / "clocks" / "r015_bad.py")
        assert fired.count("R015") == 2

    def test_bumped_aliased_and_same_stmt_pass(self):
        assert rules_fired(FIXTURES / "clocks" / "r015_good.py") == []

    def test_noqa_suppresses(self):
        assert rules_fired(FIXTURES / "clocks" / "r015_noqa.py") == []

    def test_out_of_scope_package(self):
        findings = lint_source(
            "def f(self):\n    self._log = []\n",
            module="repro.mom.x",
            select=["R015"],
        )
        assert findings == []


class TestR016CoordinatorFlushDiscipline:
    def test_fires_on_unflushed_grant_path(self):
        fired = rules_fired(FIXTURES / "simulation" / "r016_bad.py")
        assert fired.count("R016") == 1

    def test_flush_dominating_grants_passes(self):
        assert rules_fired(FIXTURES / "simulation" / "r016_good.py") == []

    def test_noqa_suppresses(self):
        assert rules_fired(FIXTURES / "simulation" / "r016_noqa.py") == []


class TestR017ShardScopedStreams:
    def test_fires_on_shared_stream_name(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r017_bad.py")
        assert fired.count("R017") == 1

    def test_scoped_name_and_sequential_guard_pass(
        self, fixture_project_findings
    ):
        assert fired_at(fixture_project_findings, "r017_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r017_noqa.py") == []


class TestR018CoreIsolation:
    def test_fires_on_private_read_and_direct_write(
        self, fixture_project_findings
    ):
        fired = fired_at(fixture_project_findings, "r018_bad.py")
        assert fired.count("R018") == 2

    def test_public_surface_passes(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r018_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r018_noqa.py") == []

    def test_core_own_methods_are_exempt(self, fixture_project_findings):
        # core_defs mutates its own state freely — the boundary only
        # binds outsiders
        assert fired_at(fixture_project_findings, "core_defs.py") == []


class TestR019InterfaceConformance:
    def test_fires_on_missing_method_and_arity_drift(
        self, fixture_project_findings
    ):
        fired = fired_at(fixture_project_findings, "r019_bad.py")
        assert fired.count("R019") == 2

    def test_conforming_core_passes(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r019_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r019_noqa.py") == []


class TestR020DeliverabilityPurity:
    def test_fires_on_guard_side_mutation(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r020_bad.py")
        assert fired.count("R020") == 1

    def test_pure_guard_and_memo_fill_pass(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r020_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r020_noqa.py") == []


class TestR021StampPicklability:
    def test_fires_on_lock_field(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r021_bad.py")
        assert fired.count("R021") == 1

    def test_plain_fields_pass(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r021_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r021_noqa.py") == []


class TestR022CoreRngTaint:
    def test_fires_on_transitive_taint_outside_guard_scope(
        self, fixture_project_findings
    ):
        fired = fired_at(fixture_project_findings, "r022_bad.py")
        assert fired.count("R022") == 1

    def test_harness_side_randomness_passes(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r022_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r022_noqa.py") == []


class TestR023RegistrationCompleteness:
    def test_fires_on_unregistered_clock(self, fixture_project_findings):
        fired = fired_at(fixture_project_findings, "r023_bad.py")
        assert fired.count("R023") == 1

    def test_protocol_exempt_marker_passes(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r023_good.py") == []

    def test_noqa_suppresses(self, fixture_project_findings):
        assert fired_at(fixture_project_findings, "r023_noqa.py") == []


class TestNoqaStripping:
    """Every ``r*_noqa.py`` fixture must fire again once its waiver is
    stripped — proving the noqa comment is the only thing keeping the
    rule quiet, for file and project rules alike."""

    @pytest.mark.parametrize(
        "fixture", NOQA_FIXTURES, ids=[p.stem for p in NOQA_FIXTURES]
    )
    def test_stripping_noqa_reintroduces_the_finding(self, fixture, tmp_path):
        import shutil

        rule = fixture.stem.split("_")[0].upper()
        copy_root = tmp_path / "repro"
        shutil.copytree(FIXTURES, copy_root)
        target = copy_root / fixture.relative_to(FIXTURES)
        target.write_text(
            fixture.read_text().replace(f"  # noqa: {rule}", "")
        )
        findings = lint_paths([copy_root])
        fired_here = [
            d.rule for d in findings if Path(d.path) == target
        ]
        assert rule in fired_here

    def test_fixture_inventory_is_complete(self):
        stripped_rules = {p.stem.split("_")[0].upper() for p in NOQA_FIXTURES}
        noqa_capable = {
            rule.rule_id for rule in ALL_RULES if rule.rule_id >= "R007"
        }
        assert stripped_rules == noqa_capable


class TestSuppressions:
    def test_noqa_fixture_is_clean(self):
        assert rules_fired(FIXTURES / "mom" / "noqa_suppressed.py") == []

    def test_noqa_only_suppresses_named_rule(self):
        findings = lint_source(
            "clock._buf[0] = 1  # noqa: R002\n", module="repro.mom.x"
        )
        assert [d.rule for d in findings] == ["R001"]


class TestFramework:
    def test_select_restricts_rules(self):
        findings = lint_file(FIXTURES / "mom" / "r001_bad.py")
        only = lint_file(FIXTURES / "mom" / "r001_bad.py", select=["R005"])
        assert findings and only == []

    def test_syntax_error_reports_e999(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert [d.rule for d in findings] == ["E999"]

    def test_diagnostic_format(self):
        d = Diagnostic("R001", "a.py", 3, 5, "msg")
        assert d.format() == "a.py:3:5: R001 msg"
        assert d.to_dict()["line"] == 3

    def test_rule_tiers_split_cleanly(self):
        assert {rule.rule_id for rule in PROJECT_RULES} == {
            "R007",
            "R008",
            "R013",
            "R014",
            "R017",
            "R018",
            "R019",
            "R020",
            "R021",
            "R022",
            "R023",
        }
        assert len(ALL_RULES) == 23

    def test_every_rule_has_a_firing_fixture(self, fixture_project_findings):
        all_fired = {d.rule for d in fixture_project_findings}
        assert {rule.rule_id for rule in ALL_RULES} <= all_fired

    def test_bad_fixtures_fire_only_their_own_rule(
        self, fixture_project_findings
    ):
        for diagnostic in fixture_project_findings:
            name = Path(diagnostic.path).name
            if name.startswith("r0") and "_" in name:
                expected = name.split("_")[0].upper()
                assert diagnostic.rule == expected, diagnostic.format()

    def test_project_rules_are_deterministic(self):
        first = [d.format() for d in lint_paths([FIXTURES])]
        second = [d.format() for d in lint_paths([FIXTURES])]
        assert first == second

    def test_repo_src_is_clean(self, src_lint_cache):
        findings = lint_paths([REPO_SRC], cache=src_lint_cache)
        assert findings == [], "\n".join(d.format() for d in findings)


class TestCache:
    def test_warm_cache_reproduces_cold_results(self, tmp_path):
        cache = tmp_path / "lint-cache.json"
        cold = lint_paths([FIXTURES], cache=cache)
        assert cache.exists()
        warm = lint_paths([FIXTURES], cache=cache)
        assert [d.format() for d in warm] == [d.format() for d in cold]

    def test_content_change_invalidates_one_file(self, tmp_path):
        tree = tmp_path / "repro" / "mom"
        tree.mkdir(parents=True)
        target = tree / "cached.py"
        target.write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        assert lint_paths([tmp_path / "repro"], cache=cache) == []
        target.write_text("clock._buf[0] = 1\n")
        findings = lint_paths([tmp_path / "repro"], cache=cache)
        assert [d.rule for d in findings] == ["R001"]

    def test_selections_get_their_own_bucket(self, tmp_path):
        cache = tmp_path / "cache.json"
        bad = FIXTURES / "mom" / "r001_bad.py"
        only = lint_paths([bad], select=["R001"], cache=cache)
        assert cache.exists()
        payload = json.loads(cache.read_text())
        assert "R001" in payload["runs"]
        warm = lint_paths([bad], select=["R001"], cache=cache)
        assert [d.format() for d in warm] == [d.format() for d in only]

    def test_selected_bucket_cannot_poison_a_full_run(self, tmp_path):
        """Regression: a --select run used to either skip the cache or
        (worse) share entries with the full run. Buckets are keyed by
        selection, so a full lint after a narrow one still fires every
        rule."""
        cache = tmp_path / "cache.json"
        bad = FIXTURES / "mom" / "r001_bad.py"
        assert lint_paths([bad], select=["R005"], cache=cache) == []
        full = lint_paths([bad], cache=cache)
        assert [d.rule for d in full] == ["R001"] * 4

    def test_corrupt_cache_is_ignored(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        findings = lint_paths([FIXTURES / "mom" / "r001_bad.py"], cache=cache)
        assert [d.rule for d in findings] == ["R001"] * 4

    def test_v2_format_cache_is_rejected(self, tmp_path):
        """Regression for the v3 bump: a v2-era payload (same signature,
        old format string, poisoned empty results) must be ignored, not
        trusted."""
        from repro.analysis.lint import analysis_signature

        cache = tmp_path / "cache.json"
        bad = FIXTURES / "mom" / "r001_bad.py"
        cache.write_text(
            json.dumps(
                {
                    "format": "repro.analysis-cache/v2",
                    "signature": analysis_signature(),
                    "runs": {"*": {"files": {}, "project": {"key": "x"}}},
                }
            )
        )
        findings = lint_paths([bad], cache=cache)
        assert [d.rule for d in findings] == ["R001"] * 4
        payload = json.loads(cache.read_text())
        assert payload["format"] == "repro.analysis-cache/v3"

    def test_stale_rule_catalogue_busts_the_cache(self, tmp_path):
        """A v3 payload whose recorded rule catalogue predates the
        contract tier (no R018–R023) is rejected wholesale — newly added
        rules can never be masked by warm entries."""
        from repro.analysis.lint import analysis_signature

        cache = tmp_path / "cache.json"
        bad = FIXTURES / "mom" / "r001_bad.py"
        cold = lint_paths([bad], cache=cache)
        assert [d.rule for d in cold] == ["R001"] * 4
        payload = json.loads(cache.read_text())
        assert payload["signature"] == analysis_signature()
        assert "R018" in payload["rules"] and "R023" in payload["rules"]
        # age the catalogue and poison the stored findings: a trusted
        # reload would now return []
        payload["rules"] = [r for r in payload["rules"] if r < "R018"]
        for bucket in payload["runs"].values():
            for entry in bucket["files"].values():
                entry["findings"] = []
        cache.write_text(json.dumps(payload))
        findings = lint_paths([bad], cache=cache)
        assert [d.rule for d in findings] == ["R001"] * 4


class TestChangedScope:
    def test_changed_only_scopes_file_rules(self, tmp_path):
        tree = tmp_path / "repro" / "mom"
        tree.mkdir(parents=True)
        touched = tree / "touched.py"
        touched.write_text("clock._buf[0] = 1\n")
        (tree / "untouched.py").write_text("clock._buf[0] = 2\n")
        findings = lint_paths(
            [tmp_path / "repro"], changed_only={touched.resolve()}
        )
        assert [(d.rule, Path(d.path).name) for d in findings] == [
            ("R001", "touched.py")
        ]

    def test_project_rules_stay_whole_program(self):
        """An out-of-scope file still feeds the project pass: its
        worker entry points and taint sources must keep firing even
        when only one unrelated file is 'changed'."""
        changed = (FIXTURES / "mom" / "r001_bad.py").resolve()
        findings = lint_paths([FIXTURES], changed_only={changed})
        project_ids = {rule.rule_id for rule in PROJECT_RULES}
        fired = {d.rule for d in findings}
        assert {"R007", "R013", "R014", "R017"} <= fired
        for diagnostic in findings:
            in_scope = Path(diagnostic.path).resolve() == changed
            assert diagnostic.rule in project_ids or in_scope


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, tmp_path):
        findings = lint_file(FIXTURES / "mom" / "r001_bad.py")
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        baseline = load_baseline(baseline_file)
        assert apply_baseline(findings, baseline) == []

    def test_new_findings_survive_the_baseline(self, tmp_path):
        old = lint_file(FIXTURES / "mom" / "r001_bad.py")
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, old)
        baseline = load_baseline(baseline_file)
        new = lint_file(FIXTURES / "simulation" / "r004_bad.py")
        assert apply_baseline(old + new, baseline) == new

    def test_bad_format_is_rejected(self, tmp_path):
        bogus = tmp_path / "baseline.json"
        bogus.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_baseline(bogus)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO_SRC.parent),
        )

    def test_exit_zero_on_clean_tree(self):
        # a clean fixture: TestFramework::test_repo_src_is_clean already
        # lints all of src/ in process
        clean = FIXTURES / "clocks" / "r001_good.py"
        result = self.run_cli("lint", str(clean))
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == ""

    def test_exit_one_with_file_line_diagnostics(self):
        bad = FIXTURES / "mom" / "r001_bad.py"
        result = self.run_cli("lint", str(bad))
        assert result.returncode == 1
        assert "r001_bad.py:5:" in result.stdout
        assert "R001" in result.stdout

    def test_json_output(self):
        bad = FIXTURES / "simulation" / "r004_bad.py"
        result = self.run_cli("lint", "--json", str(bad))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert {entry["rule"] for entry in payload["findings"]} == {"R004"}
        assert payload["count"] == len(payload["findings"]) == 3
        assert payload["clean"] is False

    def test_json_exit_code_matches_payload(self):
        """Regression: the --json payload and the exit code come from
        the same finding list — a noqa'd-only file is clean in both."""
        noqa = FIXTURES / "mom" / "noqa_suppressed.py"
        plain = self.run_cli("lint", str(noqa))
        as_json = self.run_cli("lint", "--json", str(noqa))
        assert plain.returncode == as_json.returncode == 0
        payload = json.loads(as_json.stdout)
        assert payload["clean"] is True and payload["count"] == 0

        bad = FIXTURES / "mom" / "r001_bad.py"
        plain = self.run_cli("lint", str(bad))
        as_json = self.run_cli("lint", "--json", str(bad))
        assert plain.returncode == as_json.returncode == 1
        payload = json.loads(as_json.stdout)
        assert payload["clean"] is False
        assert payload["count"] == len(payload["findings"]) > 0

    def test_rule_flag_selects_one_rule(self):
        bad = FIXTURES / "mom" / "r001_bad.py"
        result = self.run_cli("lint", "--rule", "R005", str(bad))
        assert result.returncode == 0
        result = self.run_cli("lint", "--rule", "R001", str(bad))
        assert result.returncode == 1

    def test_unknown_rule_is_a_usage_error(self):
        result = self.run_cli("lint", "--rule", "R999", "src/")
        assert result.returncode == 2

    def test_baseline_flags(self, tmp_path):
        bad = FIXTURES / "mom" / "r001_bad.py"
        baseline = tmp_path / "baseline.json"
        wrote = self.run_cli(
            "lint", str(bad), "--write-baseline", str(baseline)
        )
        assert wrote.returncode == 0 and baseline.exists()
        result = self.run_cli("lint", str(bad), "--baseline", str(baseline))
        assert result.returncode == 0
        as_json = self.run_cli(
            "lint", "--json", str(bad), "--baseline", str(baseline)
        )
        payload = json.loads(as_json.stdout)
        assert payload["clean"] is True
        assert payload["baseline_suppressed"] == 4

    def test_cache_flag_round_trip(self, tmp_path):
        cache = tmp_path / "cache.json"
        bad = FIXTURES / "mom" / "r001_bad.py"
        cold = self.run_cli("lint", str(bad), "--cache", str(cache))
        warm = self.run_cli("lint", str(bad), "--cache", str(cache))
        assert cold.returncode == warm.returncode == 1
        assert cold.stdout == warm.stdout

    def test_sarif_output(self, tmp_path):
        bad = FIXTURES / "mom" / "r001_bad.py"
        sarif = tmp_path / "out.sarif"
        result = self.run_cli("lint", str(bad), "--sarif", str(sarif))
        assert result.returncode == 1
        payload = json.loads(sarif.read_text())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        catalogue = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {rule.rule_id for rule in ALL_RULES} <= catalogue
        assert {r["ruleId"] for r in run["results"]} == {"R001"}
        assert len(run["results"]) == 4

    def test_sarif_respects_the_baseline(self, tmp_path):
        bad = FIXTURES / "mom" / "r001_bad.py"
        baseline = tmp_path / "baseline.json"
        self.run_cli("lint", str(bad), "--write-baseline", str(baseline))
        sarif = tmp_path / "out.sarif"
        result = self.run_cli(
            "lint", str(bad), "--baseline", str(baseline), "--sarif", str(sarif)
        )
        assert result.returncode == 0
        payload = json.loads(sarif.read_text())
        assert payload["runs"][0]["results"] == []

    def test_changed_flag_on_clean_checkout(self, src_lint_cache):
        result = self.run_cli(
            "lint", str(REPO_SRC), "--changed", "--cache", str(src_lint_cache)
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_changed_outside_git_is_a_usage_error(self, tmp_path):
        (tmp_path / "x.py").write_text("x = 1\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint", "x.py", "--changed"],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
        )
        assert result.returncode == 2
        assert "--changed" in result.stderr

    def test_rules_subcommand(self):
        result = self.run_cli("rules")
        assert result.returncode == 0
        for rule in ALL_RULES:
            assert rule.rule_id in result.stdout
