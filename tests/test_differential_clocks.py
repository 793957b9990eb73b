"""Differential tests: flat-buffer clocks vs the retained reference.

The optimized clock core (:mod:`repro.clocks.matrix`,
:mod:`repro.clocks.updates`) must be *observably identical* to the seed
implementations preserved in :mod:`repro.clocks.reference` — same
``can_deliver`` / ``is_duplicate`` decisions, same delivered state, same
``dirty_cells`` accounting, same ``wire_cells`` (and cell payload) on
every stamp — across arbitrary interleavings of sends, deliveries,
retransmissions and crash-restores. Hypothesis drives both
implementations through the same random schedule and the mirror asserts
agreement after every step; if the window-merge, change-log suffix query
or journal-patch persistence ever diverge from the reference semantics,
these tests name the first operation where they do.
"""

import copy
from array import array

from hypothesis import assume, given, settings, strategies as st

from repro.clocks.matrix import MatrixClock, MatrixStamp
from repro.clocks.reference import (
    ReferenceMatrixClock,
    ReferenceMatrixStamp,
    ReferenceUpdatesClock,
)
from repro.clocks.updates import UpdatesClock
from repro.errors import ClockError


PAIRS = {
    "matrix": (MatrixClock, ReferenceMatrixClock),
    "updates": (UpdatesClock, ReferenceUpdatesClock),
}


def stamp_payload(stamp):
    """A comparable wire-format projection of a stamp."""
    if hasattr(stamp, "updates"):  # delta stamp
        return [(u.row, u.col, u.value) for u in stamp.updates]
    size = stamp.size
    return [[stamp.entry(i, j) for j in range(size)] for i in range(size)]


class Mirror:
    """One domain, two implementations, forced through the same schedule."""

    def __init__(self, algo: str, size: int):
        self.algo = algo
        self.size = size
        new_cls, ref_cls = PAIRS[algo]
        self.new_cls, self.ref_cls = new_cls, ref_cls
        self.new = [new_cls(size, i) for i in range(size)]
        self.ref = [ref_cls(size, i) for i in range(size)]
        # in-flight (new_stamp, ref_stamp) pairs per receiver
        self.inflight = {i: [] for i in range(size)}
        # last persisted state per server: (image-for-new, snapshot-for-ref)
        self.persisted = {}

    # -- operations ----------------------------------------------------

    def send(self, src: int, dst: int) -> None:
        s_new = self.new[src].prepare_send(dst)
        s_ref = self.ref[src].prepare_send(dst)
        assert s_new.wire_cells == s_ref.wire_cells
        assert stamp_payload(s_new) == stamp_payload(s_ref)
        self.inflight[dst].append((s_new, s_ref))
        self.check(src)

    def try_deliver(self, dst: int, index: int) -> None:
        pool = self.inflight[dst]
        s_new, s_ref = pool[index % len(pool)]
        dup_new = self.new[dst].is_duplicate(s_new)
        dup_ref = self.ref[dst].is_duplicate(s_ref)
        assert dup_new == dup_ref, f"is_duplicate diverged at server {dst}"
        if dup_new:
            pool.remove((s_new, s_ref))
            return
        ok_new = self.new[dst].can_deliver(s_new)
        ok_ref = self.ref[dst].can_deliver(s_ref)
        assert ok_new == ok_ref, f"can_deliver diverged at server {dst}"
        if not ok_new:
            return  # held back; stays in flight
        self.new[dst].deliver(s_new)
        self.ref[dst].deliver(s_ref)
        pool.remove((s_new, s_ref))
        self.check(dst)

    def retransmit(self, dst: int, index: int) -> None:
        """Queue a second copy of an in-flight envelope — the original
        stamp object, exactly as the channel's QueueOUT retransmits."""
        pool = self.inflight[dst]
        pool.append(pool[index % len(pool)])

    def persist(self, server: int) -> None:
        """What the channel does on every commit: journal-patch the
        retained image. The store keeps it by reference (owned=True)."""
        self.persisted[server] = (
            self.new[server].sync_image(),
            self.ref[server].snapshot(),
        )

    def crash_restore(self, server: int) -> None:
        """Replace the server's clock with a fresh one restored from the
        last persisted image (deep-copied on load, like the store)."""
        if server not in self.persisted:
            return
        image, ref_snap = self.persisted[server]
        fresh_new = self.new_cls(self.size, server)
        fresh_new.restore(copy.deepcopy(image))
        fresh_ref = self.ref_cls(self.size, server)
        fresh_ref.restore(ref_snap)
        self.new[server] = fresh_new
        self.ref[server] = fresh_ref
        self.check(server)

    def clear_dirty(self, server: int) -> None:
        self.new[server].clear_dirty()
        self.ref[server].clear_dirty()

    # -- the mirror assertion ------------------------------------------

    def check(self, server: int) -> None:
        new, ref = self.new[server], self.ref[server]
        assert new.dirty_cells() == ref.dirty_cells()
        if self.algo == "matrix":
            assert new.snapshot() == ref.snapshot()
        else:
            snap_new, snap_ref = new.snapshot(), ref.snapshot()
            for field in ("value", "cstate", "origin", "sent_state", "state"):
                assert snap_new[field] == snap_ref[field], field

    def check_all(self) -> None:
        for server in range(self.size):
            self.check(server)


OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("deliver"), st.integers(0, 7), st.integers(0, 31)),
    st.tuples(st.just("retransmit"), st.integers(0, 7), st.integers(0, 31)),
    st.tuples(st.just("persist"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("restore"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("clear"), st.integers(0, 7), st.just(0)),
)


def run_schedule(algo, size, schedule):
    mirror = Mirror(algo, size)
    for op, a, b in schedule:
        a %= size
        if op == "send":
            dst = b % size
            if dst != a:
                mirror.send(a, dst)
        elif op == "deliver":
            if mirror.inflight[a]:
                mirror.try_deliver(a, b)
        elif op == "retransmit":
            if mirror.inflight[a]:
                mirror.retransmit(a, b)
        elif op == "persist":
            mirror.persist(a)
        elif op == "restore":
            mirror.crash_restore(a)
        elif op == "clear":
            mirror.clear_dirty(a)
    mirror.check_all()
    return mirror


class TestRandomSchedules:
    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(2, 5), schedule=st.lists(OPS, max_size=80))
    def test_matrix(self, size, schedule):
        run_schedule("matrix", size, schedule)

    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(2, 5), schedule=st.lists(OPS, max_size=80))
    def test_updates(self, size, schedule):
        run_schedule("updates", size, schedule)


class TestLogTrimAndWindowMerge:
    """Deterministic schedules that force the optimized structures through
    their edge paths: change-log trims, COW buffer sharing across many
    live stamps, and the full-merge fallback after a trim or restore."""

    def test_long_fifo_stream_crosses_log_trim(self):
        # size 2 → the matrix log trims at max(64, 4·s²) = 64 entries;
        # 200 sends force several trims mid-stream.
        mirror = Mirror("matrix", 2)
        for _ in range(200):
            mirror.send(0, 1)
            mirror.try_deliver(1, 0)
        assert not mirror.inflight[1]

    def test_updates_change_list_compaction(self):
        mirror = Mirror("updates", 2)
        for _ in range(200):
            mirror.send(0, 1)
            mirror.try_deliver(1, 0)
            mirror.send(1, 0)
            mirror.try_deliver(0, 0)

    def test_stale_stamps_survive_sender_restore(self):
        # Stamps taken before a crash share the pre-crash buffer/log; the
        # restored clock starts a new log, so the receiver's window merge
        # must fall back to the full index scan — same result as the
        # reference deep merge.
        mirror = Mirror("matrix", 3)
        mirror.send(0, 1)
        mirror.send(0, 1)
        mirror.persist(0)
        mirror.crash_restore(0)
        mirror.send(0, 2)
        while mirror.inflight[1]:
            mirror.try_deliver(1, 0)
        mirror.try_deliver(2, 0)
        mirror.check_all()

    def test_receiver_restore_resets_merge_window(self):
        # After the receiver restores, its record of "merged up to log
        # position k of sender's log" must not survive — the next merge
        # has to rescan, not trust a window into state it rolled back.
        mirror = Mirror("matrix", 2)
        mirror.send(0, 1)
        mirror.try_deliver(1, 0)
        mirror.persist(1)
        mirror.send(0, 1)
        mirror.try_deliver(1, 0)
        mirror.crash_restore(1)  # rolls back to after first delivery
        mirror.send(0, 1)  # third message; second is gone from flight
        # the receiver is now at seq 1; seq 3 must be held back
        s_new, s_ref = mirror.inflight[1][0]
        assert not mirror.new[1].can_deliver(s_new)
        assert not mirror.ref[1].can_deliver(s_ref)

    def test_legacy_list_snapshot_restore(self):
        # restore() must still accept the seed's list-of-lists snapshot
        # (old persisted images).
        mirror = Mirror("matrix", 3)
        mirror.send(0, 1)
        mirror.try_deliver(1, 0)
        legacy = mirror.ref[1].snapshot()
        fresh = MatrixClock(3, 1)
        fresh.restore(legacy)
        assert fresh.snapshot() == legacy

    def test_sync_image_patches_match_full_snapshot(self):
        # The journal-patched image must equal a from-scratch snapshot at
        # every persist point, for both algorithms.
        for algo in ("matrix", "updates"):
            mirror = Mirror(algo, 3)
            for step in range(30):
                src, dst = step % 3, (step + 1) % 3
                mirror.send(src, dst)
                mirror.try_deliver(dst, 0)
                mirror.persist(dst)
                image, ref_snap = mirror.persisted[dst]
                fresh = mirror.new_cls(3, dst)
                fresh.restore(copy.deepcopy(image))
                if algo == "matrix":
                    assert fresh.snapshot() == ref_snap
                else:
                    got = fresh.snapshot()
                    for field in (
                        "value", "cstate", "origin", "sent_state", "state"
                    ):
                        assert got[field] == ref_snap[field], field


# ----------------------------------------------------------------------
# Random matrices: the column test and the full (row-skipping) merge
# ----------------------------------------------------------------------


def rows_of(flat, size):
    return [list(flat[r * size : (r + 1) * size]) for r in range(size)]


def restored_pair(flat, size, owner):
    """The optimized and the reference clock, both holding ``flat``."""
    new, ref = MatrixClock(size, owner), ReferenceMatrixClock(size, owner)
    new.restore(rows_of(flat, size))
    ref.restore(rows_of(flat, size))
    return new, ref


def outcome(call):
    try:
        return call()
    except ClockError:
        return "ClockError"


@st.composite
def rst_cases(draw):
    """A receiver matrix and a stamp matrix that sits above, below or level
    with it cell by cell. The sender may be out of range or the receiver
    itself; most draws force the FIFO cell to "next" and half keep the
    rest of the receiver's column free of newer messages, so that both
    verdicts of the column test (and the merge behind it) are exercised."""
    size = draw(st.integers(1, 9))
    cells = size * size
    me = draw(st.integers(0, size - 1))
    sender = draw(
        st.one_of(st.integers(0, size - 1), st.integers(-1, size))
    )
    mine = draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
    deltas = draw(
        st.lists(
            st.sampled_from([0, 0, 0, 0, -1, 1, 2]),
            min_size=cells, max_size=cells,
        )
    )
    theirs = [max(0, m + d) for m, d in zip(mine, deltas)]
    if draw(st.booleans()):
        for idx in range(me, cells, size):
            theirs[idx] = min(theirs[idx], mine[idx])
    if 0 <= sender < size and draw(st.integers(0, 3)):
        theirs[sender * size + me] = mine[sender * size + me] + 1
    return size, me, sender, mine, theirs


class TestRandomMatrices:
    """Arbitrary (not protocol-reachable) matrices against the reference:
    the strided column test and the row-skipping full merge must agree
    with the seed's per-row and per-cell loops on every input."""

    def check_delivery(self, new, ref, s_new, s_ref, mine, theirs):
        """Run one stamp through both clocks; everything observable — the
        verdict, the merged cells, the dirty count, the change log and the
        journal-patched persistence image — must match the cell loop."""
        new.sync_image()  # retain an image: the next sync patches it
        verdict = outcome(lambda: new.can_deliver(s_new))
        assert verdict == outcome(lambda: ref.can_deliver(s_ref))
        assert new.snapshot() == ref.snapshot()  # the test is pure
        if verdict is not True:
            # deliver keeps its guard, whatever the reason
            for clock, stamp in ((new, s_new), (ref, s_ref)):
                try:
                    clock.deliver(stamp)
                except ClockError:
                    continue
                raise AssertionError("undeliverable stamp was merged")
            assert new.snapshot() == ref.snapshot() == rows_of(mine, new.size)
            return verdict
        full_before = new.stat_full_merges
        new.deliver(s_new)
        ref.deliver(s_ref)
        assert new.stat_full_merges == full_before + 1
        assert new.snapshot() == ref.snapshot()
        assert new.dirty_cells() == ref.dirty_cells()
        # exactly what the ascending cell loop logged, in its order (the
        # log is a flat array of interleaved (idx, value) pairs)
        assert list(zip(new._log[::2], new._log[1::2])) == [
            (idx, value)
            for idx, value in enumerate(theirs)
            if value > mine[idx]
        ]
        image = new.sync_image()
        assert rows_of(image.buf, new.size) == ref.snapshot()
        return verdict

    @settings(max_examples=300, deadline=None)
    @given(case=rst_cases())
    def test_decoded_stamp_on_restored_clock(self, case):
        # a decoded stamp carries no log, a restored clock remembers no
        # merge position: both force the full merge
        size, me, sender, mine, theirs = case
        new, ref = restored_pair(mine, size, me)
        s_new = MatrixStamp(sender, me, size, array("q", theirs))
        s_ref = ReferenceMatrixStamp(
            sender, me, tuple(tuple(row) for row in rows_of(theirs, size))
        )
        self.check_delivery(new, ref, s_new, s_ref, mine, theirs)

    @settings(max_examples=150, deadline=None)
    @given(case=rst_cases(), data=st.data())
    def test_first_contact_with_a_live_sender(self, case, data):
        # the stamp comes from a real sender clock (it carries a log and
        # an epoch the receiver has never seen) restored to ``theirs``
        size, me, sender, mine, theirs = case
        assume(0 <= sender < size and sender != me)
        idx = sender * size + me
        before = list(theirs)
        before[idx] = max(0, theirs[idx] - 1)
        theirs = list(before)
        theirs[idx] += 1
        new_sender, ref_sender = restored_pair(before, size, sender)
        new, ref = restored_pair(mine, size, me)
        s_new = new_sender.prepare_send(me)
        s_ref = ref_sender.prepare_send(me)
        assert stamp_payload(s_new) == stamp_payload(s_ref)
        verdict = self.check_delivery(new, ref, s_new, s_ref, mine, theirs)
        if verdict is True and data.draw(st.booleans()):
            # a receiver restore forgets the merge position: the next
            # stamp from the same sender is a full merge again
            rolled = new.snapshot()
            new.restore(rolled)
            ref.restore(rolled)
            flat = [cell for row in rolled for cell in row]
            after = [cell for row in new_sender.snapshot() for cell in row]
            after[idx] += 1
            self.check_delivery(
                new, ref,
                new_sender.prepare_send(me), ref_sender.prepare_send(me),
                flat, after,
            )

    def test_wrong_size_stamp_is_an_error_on_both(self):
        new, ref = restored_pair([0] * 9, 3, 1)
        s_new = MatrixStamp(0, 1, 2, array("q", [0, 1, 0, 0]))
        s_ref = ReferenceMatrixStamp(0, 1, ((0, 1), (0, 0)))
        assert outcome(lambda: new.can_deliver(s_new)) == "ClockError"
        assert outcome(lambda: ref.can_deliver(s_ref)) == "ClockError"

    @settings(max_examples=25, deadline=None)
    @given(case=rst_cases())
    def test_full_merge_after_sender_log_trim(self, case):
        # The sender's log is trimmed (new epoch) between two stamps to
        # the same receiver, so the second delivery cannot use the window
        # it recorded for the first and falls back to the full merge.
        size, me, sender, mine, theirs = case
        assume(size >= 3 and 0 <= sender < size and sender != me)
        idx = sender * size + me
        before = list(theirs)
        before[idx] = mine[idx]  # the first stamp is FIFO-next
        column = range(me, size * size, size)
        for cell in column:  # ... and carries nothing newer en route
            if cell != idx:
                before[cell] = min(before[cell], mine[cell])
        new_sender, ref_sender = restored_pair(before, size, sender)
        new, ref = restored_pair(mine, size, me)
        first = (new_sender.prepare_send(me), ref_sender.prepare_send(me))
        assert new.can_deliver(first[0]) and ref.can_deliver(first[1])
        new.deliver(first[0])
        ref.deliver(first[1])
        other = next(k for k in range(size) if k not in (me, sender))
        epoch = new_sender._log_epoch
        for _ in range(max(64, 4 * size * size) + 1):
            new_sender.prepare_send(other)
            ref_sender.prepare_send(other)
        second = (new_sender.prepare_send(me), ref_sender.prepare_send(me))
        assert new_sender._log_epoch > epoch
        new.clear_dirty()
        ref.clear_dirty()
        full_before = new.stat_full_merges
        assert new.can_deliver(second[0]) and ref.can_deliver(second[1])
        new.deliver(second[0])
        ref.deliver(second[1])
        assert new.stat_full_merges == full_before + 1
        assert new.snapshot() == ref.snapshot()
        assert new.dirty_cells() == ref.dirty_cells()
        image = new.sync_image()
        assert rows_of(image.buf, size) == ref.snapshot()
