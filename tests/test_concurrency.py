"""Tests for the fork/pipe happens-before model behind R013–R017.

Two layers: unit tests of :mod:`repro.analysis.concurrency` — fork
topology, pipe flows and picklability on both the real ``src/`` tree
and small synthetic projects — and seeded-bug checks that re-introduce
the two historical concurrency bugs into copies of the real sources
and assert the rules catch them (with unmodified copies staying clean,
so the detections are the surgery's doing and not background noise).
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

from repro.analysis.callgraph import ModuleInfo, Project
from repro.analysis.concurrency import (
    fork_model,
    is_pipe_handle,
    local_bindings,
    module_level_names,
)
from repro.analysis.lint import iter_python_files, lint_paths, module_name

REPO_SRC = Path(__file__).parent.parent / "src"


def build_project(*named_sources):
    modules = [
        ModuleInfo(
            module=module,
            path=f"{module.replace('.', '/')}.py",
            tree=ast.parse(source),
            source=source,
        )
        for module, source in named_sources
    ]
    return Project(modules)


@pytest.fixture(scope="module")
def src_model():
    """The fork model of the real src/ tree, shared per module."""
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
    return fork_model(Project(modules))


class TestForkTopologyOnSrc:
    def test_worker_main_is_the_only_entry(self, src_model):
        assert src_model.worker_entries == ["repro.mom.parallel._worker_main"]

    def test_sync_server_runs_in_the_worker(self, src_model):
        assert src_model.is_worker("repro.simulation.sync.serve")

    def test_parent_side_sync_does_not(self, src_model):
        assert not src_model.is_worker("repro.mom.parallel.ShardedBus._sync")

    def test_worker_path_explains_the_closure(self, src_model):
        path = src_model.worker_path("repro.simulation.sync.serve")
        assert path[0] == "repro.mom.parallel._worker_main"
        assert path[-1] == "repro.simulation.sync.serve"

    def test_stamps_are_shipped_classes(self, src_model):
        shipped = {cls.qualname for cls in src_model.shipped_classes()}
        assert "repro.clocks.matrix.MatrixStamp" in shipped
        assert "repro.clocks.updates.UpdateStamp" in shipped

    def test_src_has_no_worker_module_writes(self, src_model):
        assert src_model.worker_module_writes() == []


class TestForkTopologySynthetic:
    SOURCE = """\
from multiprocessing import Pipe, Process

_RESULTS: dict = {}


def _worker(conn, shard_id):
    _RESULTS[shard_id] = shard_id
    conn.send(("done", shard_id))


def _helper(conn):
    conn.send(("ping",))


def launch():
    parent_conn, child_conn = Pipe()
    proc = Process(target=_worker, args=(child_conn, 0))
    proc.start()
    return parent_conn


def report():
    return dict(_RESULTS)
"""

    def test_entries_writes_and_readers(self):
        project = build_project(("repro.mom.synth", self.SOURCE))
        model = fork_model(project)
        assert model.worker_entries == ["repro.mom.synth._worker"]
        (write,) = model.worker_module_writes()
        assert write.name == "_RESULTS" and write.how == "item write"
        readers = model.parent_readers("repro.mom.synth", "_RESULTS")
        assert [fn.qualname for fn in readers] == ["repro.mom.synth.report"]

    def test_pipe_sends_cover_both_sides(self):
        project = build_project(("repro.mom.synth", self.SOURCE))
        model = fork_model(project)
        handles = sorted(send.handle for send in model.pipe_sends())
        assert handles == ["conn", "conn"]

    def test_fork_model_is_memoized_per_project(self):
        project = build_project(("repro.mom.synth", self.SOURCE))
        assert fork_model(project) is fork_model(project)


class TestPicklability:
    SOURCE = """\
import threading
from multiprocessing import Process


class Payload:
    def __init__(self):
        self.rows = []
        self.merge = lambda a, b: a + b
        self.guard = threading.Lock()
        self.pump = (x for x in range(3))
        self.callback = self.close
        self.nested = [1, threading.Event()]

    def close(self):
        pass


def _worker(conn):
    conn.send(Payload())


def launch(conn):
    Process(target=_worker, args=(conn,)).start()
"""

    def test_every_reason_is_found(self):
        project = build_project(("repro.mom.payloads", self.SOURCE))
        model = fork_model(project)
        (cls,) = model.shipped_classes()
        assert cls.name == "Payload"
        reasons = {
            field: why for _, field, why in model.unpicklable_fields(cls)
        }
        assert reasons == {
            "merge": "a lambda",
            "guard": "a thread lock",
            "pump": "a generator expression",
            "callback": "the bound method self.close",
            "nested": "a thread event",
        }

    def test_plain_data_has_no_reason(self):
        project = build_project(("repro.mom.payloads", self.SOURCE))
        model = fork_model(project)
        assert model.unpicklable_reason(ast.parse("[1, 2]").body[0].value) is None
        assert model.unpicklable_reason(ast.parse("dict(a=1)").body[0].value) is None


class TestHelpers:
    def test_module_level_names_skip_defs_and_imports(self):
        tree = ast.parse(
            "import os\n"
            "X = 1\n"
            "Y: int = 2\n"
            "def f():\n    pass\n"
            "class C:\n    pass\n"
        )
        assert module_level_names(tree) == frozenset({"X", "Y"})

    def test_local_bindings_cover_binding_forms(self):
        fn = ast.parse(
            "def f(a, *args, **kw):\n"
            "    b = 1\n"
            "    for c in range(3):\n"
            "        pass\n"
            "    with open('x') as d:\n"
            "        pass\n"
        ).body[0]
        assert {"a", "args", "kw", "b", "c", "d"} <= set(local_bindings(fn))

    def test_global_escapes_local_bindings(self):
        fn = ast.parse("def f():\n    global g\n    g = 1\n").body[0]
        assert "g" not in local_bindings(fn)

    def test_pipe_handle_heuristic(self):
        assert is_pipe_handle("conn")
        assert is_pipe_handle("parent_conn")
        assert is_pipe_handle("self._conn")
        assert not is_pipe_handle("channel")
        assert not is_pipe_handle("socket")
        assert not is_pipe_handle(None)


# ----------------------------------------------------------------------
# Seeded bugs: re-introduce the two historical races into copies of the
# real sources and prove the rules catch exactly them.
# ----------------------------------------------------------------------

EPOCH_BUMP = (
    '            self._log = array("q")\n            self._log_epoch += 1\n'
)
WORKER_WRITE = "    bus.start()\n"
PARENT_ANCHOR = "        states = self._coordinator.collect()\n"


def seeded_tree(tmp_path: Path, *rel_paths: str) -> Path:
    root = tmp_path / "repro"
    for rel in rel_paths:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_SRC / "repro" / rel, target)
    return root


class TestSeededEpochBug:
    """Reverting the PR-6 epoch bump in ``MatrixClock._trim_log`` — the
    exact bug the window-merge protocol guards against — must trip R015."""

    def test_unmodified_copy_is_clean(self, tmp_path):
        root = seeded_tree(tmp_path, "clocks/matrix.py")
        assert lint_paths([root], select=["R015"]) == []

    def test_reverted_epoch_bump_fires(self, tmp_path):
        root = seeded_tree(tmp_path, "clocks/matrix.py")
        target = root / "clocks" / "matrix.py"
        source = target.read_text()
        assert EPOCH_BUMP in source, "matrix.py no longer matches the surgery"
        target.write_text(
            source.replace(EPOCH_BUMP, '            self._log = array("q")\n')
        )
        findings = lint_paths([root], select=["R015"])
        assert [d.rule for d in findings] == ["R015"]
        assert "_trim_log" not in findings[0].message  # message names the chain
        assert "_log_epoch" in findings[0].message


class TestSeededLostUpdateBug:
    """A worker writing module state the parent later reads is the
    canonical fork-boundary lost update; R013 must catch the surgery."""

    REL_PATHS = ("mom/parallel.py", "simulation/sync.py")

    def test_unmodified_copy_is_clean(self, tmp_path):
        root = seeded_tree(tmp_path, *self.REL_PATHS)
        assert lint_paths([root], select=["R013"]) == []

    def test_worker_side_write_fires(self, tmp_path):
        root = seeded_tree(tmp_path, *self.REL_PATHS)
        target = root / "mom" / "parallel.py"
        source = target.read_text()
        assert WORKER_WRITE in source and PARENT_ANCHOR in source
        source = source.replace(
            '_PARTITION = "partition"\n',
            '_PARTITION = "partition"\n_WORKER_LOG: list = []\n',
        )
        source = source.replace(
            WORKER_WRITE, "    bus.start()\n    _WORKER_LOG.append(shard_id)\n"
        )
        source = source.replace(
            PARENT_ANCHOR, PARENT_ANCHOR + "        len(_WORKER_LOG)\n"
        )
        target.write_text(source)
        findings = lint_paths([root], select=["R013"])
        assert [d.rule for d in findings] == ["R013"]
        assert "_WORKER_LOG" in findings[0].message
        assert "_worker_main" in findings[0].message
