"""Trace export/import: JSON-lines artifacts for offline analysis.

Experiments worth keeping produce traces worth keeping. The JSONL format
is one event per line, in a linearization that respects all local orders
and send→receive edges, so a file replays cleanly through
:func:`load_trace` (and is halfway readable in a pager). Message ids,
process ids and payloads survive as long as they are JSON-representable;
tuples round-trip as tagged lists.

Format, one of::

    {"kind": "send",    "mid": ..., "src": ..., "dst": ..., "payload": ...}
    {"kind": "receive", "mid": ..., "src": ..., "dst": ...}
"""

from __future__ import annotations

import json
from typing import Any, IO, Iterable, List, Union

from repro.causality.diagram import _linearize
from repro.causality.message import Message
from repro.causality.trace import EventKind, Trace
from repro.errors import TraceError

_TUPLE_TAG = "__tuple__"


def _encode(value: Any) -> Any:
    """JSON-encode with tuple tagging (mids are often tuples)."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode(item) for item in value]}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _encode(item) for key, item in value.items()}
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode(item) for item in value[_TUPLE_TAG])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def dump_trace(trace: Trace, stream: IO[str]) -> int:
    """Write ``trace`` to ``stream`` as JSONL; returns the line count.

    Events are emitted in a valid linearization, so the file can be read
    back with the incremental recorder (sends always precede receives).
    """
    count = 0
    for event in _linearize(trace):
        message = event.message
        record = {
            "kind": event.kind.value,
            "mid": _encode(message.mid),
            "src": _encode(message.src),
            "dst": _encode(message.dst),
        }
        if event.kind is EventKind.SEND:
            record["payload"] = _encode(message.payload)
        try:
            line = json.dumps(record)
        except TypeError:
            # non-JSON payloads degrade to their repr; ids must serialize
            record["payload"] = repr(record.get("payload"))
            try:
                line = json.dumps(record)
            except TypeError as error:
                raise TraceError(
                    f"message {message.mid!r} has non-JSON identifiers: {error}"
                ) from None
        stream.write(line + "\n")
        count += 1
    return count


def load_trace(stream: Union[IO[str], Iterable[str]]) -> Trace:
    """Rebuild a trace from JSONL produced by :func:`dump_trace`."""
    trace = Trace()
    messages = {}
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceError(
                f"line {line_number}: not valid JSON ({error})"
            ) from None
        try:
            kind = record["kind"]
            mid = _decode(record["mid"])
            src = _decode(record["src"])
            dst = _decode(record["dst"])
        except KeyError as missing:
            raise TraceError(
                f"line {line_number}: missing field {missing}"
            ) from None
        key = _freeze(mid)
        if kind == EventKind.SEND.value:
            message = Message(mid, src, dst, payload=_decode(record.get("payload")))
            messages[key] = message
            trace.record_send(message)
        elif kind == EventKind.RECEIVE.value:
            message = messages.get(key)
            if message is None:
                raise TraceError(
                    f"line {line_number}: receive of unknown message {mid!r}"
                )
            if (message.src, message.dst) != (src, dst):
                raise TraceError(
                    f"line {line_number}: receive of {mid!r} as "
                    f"{src!r}->{dst!r}, but it was sent as {message!r}"
                )
            trace.record_receive(message)
        else:
            raise TraceError(f"line {line_number}: unknown kind {kind!r}")
    return trace


def _freeze(value: Any) -> Any:
    """A hashable key for possibly-nested mids."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value
