"""The CausalCore plug-in boundary: registry, delegation, config resolution.

The simulation-level guarantee (factoring the protocol behind the core
changed no result) is pinned by the differential and bench tests; this
file covers the contract surface itself.
"""

import pytest

from repro.clocks.matrix import MatrixClock
from repro.errors import ConfigurationError, ProtocolError
from repro.mom import BusConfig
from repro.protocol import (
    CausalCore,
    core_names,
    get_core,
    has_core,
    register_core,
    registered_cores,
)
from repro.protocol.cores import MatrixCore
from repro.topology import single_domain

ALL_CORE_NAMES = ["matrix", "updates", "histories", "fifo"]


class TestRegistry:
    def test_builtin_cores_are_registered(self):
        assert core_names() == sorted(ALL_CORE_NAMES)
        for name in ALL_CORE_NAMES:
            assert has_core(name)
            assert get_core(name).name == name

    def test_registered_cores_in_name_order(self):
        cores = registered_cores()
        assert [c.name for c in cores] == sorted(ALL_CORE_NAMES)
        assert all(isinstance(c, CausalCore) for c in cores)

    def test_unknown_name_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="no causal core"):
            get_core("nosuch")

    def test_reregistering_same_class_is_idempotent(self):
        before = get_core("matrix")
        register_core(MatrixCore())
        assert type(get_core("matrix")) is type(before)

    def test_conflicting_class_for_taken_name_raises(self):
        class Impostor(MatrixCore):
            name = "matrix"

        with pytest.raises(ProtocolError, match="already registered"):
            register_core(Impostor())

    def test_only_fifo_is_non_causal(self):
        assert not get_core("fifo").causal
        for name in ("matrix", "updates", "histories"):
            assert get_core(name).causal


class TestDelegation:
    """DelegatingCore routes every decision to the clock unchanged."""

    @pytest.mark.parametrize("name", ALL_CORE_NAMES)
    def test_create_clock_builds_the_declared_class(self, name):
        core = get_core(name)
        clock = core.create_clock(3, 1)
        assert isinstance(clock, core.clock_cls)
        assert clock.size == 3
        assert clock.owner == 1

    @pytest.mark.parametrize("name", ALL_CORE_NAMES)
    def test_decisions_match_direct_clock_calls(self, name):
        core = get_core(name)
        sender = core.create_clock(2, 0)
        shadow = core.create_clock(2, 0)
        receiver = core.create_clock(2, 1)
        mirror = core.create_clock(2, 1)

        stamp = core.stamp(sender, 1)
        direct = shadow.prepare_send(1)
        assert isinstance(stamp, core.stamp_cls)

        assert core.deliverable(receiver, stamp) == mirror.can_deliver(direct)
        assert core.duplicate(receiver, stamp) == mirror.is_duplicate(direct)
        core.merge(receiver, stamp)
        mirror.deliver(direct)
        assert core.duplicate(receiver, stamp)
        assert mirror.is_duplicate(direct)

    def test_fifo_ordering_through_the_core(self):
        core = get_core("matrix")
        sender = core.create_clock(2, 0)
        receiver = core.create_clock(2, 1)
        first = core.stamp(sender, 1)
        second = core.stamp(sender, 1)
        assert core.deliverable(receiver, first)
        assert not core.deliverable(receiver, second)
        core.merge(receiver, first)
        assert core.deliverable(receiver, second)

    def test_holdback_key_and_next_expected_defaults(self):
        core = get_core("matrix")
        sender = core.create_clock(2, 0)
        receiver = core.create_clock(2, 1)
        stamp = core.stamp(sender, 1)
        assert core.holdback_key(stamp) == (0, 1)
        assert core.next_expected(receiver, 0) == 1
        core.merge(receiver, stamp)
        assert core.next_expected(receiver, 0) == 2


class TestBusConfigResolution:
    def test_registered_core_is_used_directly(self):
        config = BusConfig(topology=single_domain(2))
        assert config.core is get_core("matrix")
        assert config.clock_cls is MatrixClock

    def test_core_only_algorithms_resolve_without_clocks_entry(self):
        config = BusConfig(
            topology=single_domain(2), clock_algorithm="histories"
        )
        assert config.core is get_core("histories")

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown clock") as info:
            BusConfig(topology=single_domain(2), clock_algorithm="nosuch")
        assert str(sorted(ALL_CORE_NAMES)) in str(info.value)
