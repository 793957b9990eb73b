"""Tests for trace JSONL export/import."""

import io

import pytest

from hypothesis import given, settings, strategies as st

from repro.causality import (
    CausalOrder,
    Message,
    Trace,
    check_trace,
    dump_trace,
    load_trace,
)
from repro.errors import TraceError
from repro.mom import BusConfig, EchoAgent, FunctionAgent, MessageBus
from repro.topology import bus as bus_topology


def roundtrip(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    buffer.seek(0)
    return load_trace(buffer)


class TestRoundtrip:
    def test_simple_trace(self):
        trace = Trace()
        m = Message(1, "p", "q", payload={"k": [1, 2]})
        trace.record_send(m)
        trace.record_receive(m)
        loaded = roundtrip(trace)
        assert len(loaded.messages) == 1
        copy = loaded.message(1)
        assert copy.src == "p" and copy.dst == "q"
        assert copy.payload == {"k": [1, 2]}
        assert loaded.was_received(copy)

    def test_tuple_mids_survive(self):
        trace = Trace()
        m = Message(("hop", 3, 19), 3, 7)
        trace.record_send(m)
        trace.record_receive(m)
        loaded = roundtrip(trace)
        assert loaded.message(("hop", 3, 19)).mid == ("hop", 3, 19)

    def test_local_orders_preserved(self):
        trace = Trace()
        m1 = Message(1, "p", "q")
        m2 = Message(2, "p", "q")
        trace.record_send(m1)
        trace.record_send(m2)
        trace.record_receive(m2)
        trace.record_receive(m1)
        loaded = roundtrip(trace)
        assert loaded.received_in_order("q") == [
            loaded.message(2),
            loaded.message(1),
        ]

    def test_checker_verdict_survives_roundtrip(self):
        trace = Trace()
        m1 = Message(1, "p", "q")
        m2 = Message(2, "p", "q")
        trace.record_send(m1)
        trace.record_send(m2)
        trace.record_receive(m2)
        trace.record_receive(m1)  # FIFO violation
        original = check_trace(trace)
        loaded = check_trace(roundtrip(trace))
        assert original.respects_causality == loaded.respects_causality
        assert len(original.violations) == len(loaded.violations)

    def test_unserializable_payload_degrades_to_repr(self):
        trace = Trace()
        m = Message(1, "p", "q", payload=object())
        trace.record_send(m)
        loaded = roundtrip(trace)
        assert "object" in loaded.message(1).payload

    def test_mom_trace_roundtrips(self):
        mom = MessageBus(BusConfig(topology=bus_topology(9, 3)))
        echo_id = mom.deploy(EchoAgent(), 7)
        pinger = FunctionAgent(lambda ctx, s, p: None)
        pinger.on_boot = lambda ctx: ctx.send(echo_id, "x")
        mom.deploy(pinger, 0)
        mom.start()
        mom.run_until_idle()
        # AgentId endpoints are not JSON; export at the string level
        text_trace = Trace()
        for message in mom.app_trace.messages:
            copy = Message(message.mid, str(message.src), str(message.dst))
            text_trace.record_send(copy)
            if mom.app_trace.was_received(message):
                text_trace.record_receive(copy)
        loaded = roundtrip(text_trace)
        assert len(loaded.messages) == len(mom.app_trace.messages)


class TestLoadErrors:
    def test_bad_json_rejected(self):
        with pytest.raises(TraceError, match="line 1"):
            load_trace(io.StringIO("{not json\n"))

    def test_missing_field_rejected(self):
        with pytest.raises(TraceError, match="missing field"):
            load_trace(io.StringIO('{"kind": "send", "mid": 1, "src": "p"}\n'))

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown kind"):
            load_trace(
                io.StringIO(
                    '{"kind": "peek", "mid": 1, "src": "p", "dst": "q"}\n'
                )
            )

    def test_receive_of_unknown_message_rejected(self):
        with pytest.raises(TraceError, match="unknown message"):
            load_trace(
                io.StringIO(
                    '{"kind": "receive", "mid": 1, "src": "p", "dst": "q"}\n'
                )
            )

    def test_receive_with_other_endpoints_than_sent_rejected(self):
        """A hand-edited dump whose receive line names another link than
        the send used to load silently (src/dst decoded, then ignored)."""
        with pytest.raises(TraceError, match="line 3"):
            load_trace(
                io.StringIO(
                    '{"kind": "send", "mid": 1, "src": "p", "dst": "q"}\n'
                    "\n"
                    '{"kind": "receive", "mid": 1, "src": "r", "dst": "q"}\n'
                )
            )

    def test_blank_lines_ignored(self):
        trace = Trace()
        m = Message(1, "p", "q")
        trace.record_send(m)
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        text = buffer.getvalue() + "\n\n"
        loaded = load_trace(io.StringIO(text))
        assert len(loaded.messages) == 1


mids = st.one_of(
    st.integers(),
    st.text(max_size=8),
    st.tuples(st.text(max_size=4), st.integers()),
)


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ).filter(lambda t: t[0] != t[1]),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=50, deadline=None)
def test_random_traces_roundtrip(ops):
    trace = Trace()
    for index, (src, dst, receive) in enumerate(ops):
        m = Message(index, src, dst)
        trace.record_send(m)
        if receive:
            trace.record_receive(m)
    loaded = roundtrip(trace)
    assert len(loaded.messages) == len(trace.messages)
    for original in trace.messages:
        copy = loaded.message(original.mid)
        assert (copy.src, copy.dst) == (original.src, original.dst)
        assert loaded.was_received(copy) == trace.was_received(original)
