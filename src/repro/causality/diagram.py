"""ASCII space-time diagrams and timelines for traces.

Causality bugs are miserable to read out of logs; a Lamport-style
space-time diagram makes them obvious. :func:`render_space_time` draws one
lane per process with every event in its own column, ordered by a
deterministic linearization that respects each local order and every
send→receive edge; :func:`render_timeline` prints the same linearization
as a numbered list. Both work on any :class:`~repro.causality.trace.Trace`
— including the app/hop traces a MessageBus records — and power the
``describe()`` of violation reports in examples and test failures.

Example output for the Figure-4 violation (ring of three domains)::

    r0: [n>r2]--[m0>r1]-----------------
    r1: --------[>m0]--[m1>r2]----------
    r2: -----------------[>m1]--[>n]----

The receive of ``n`` after the receive of ``m1`` on r2's lane *is* the
causality break.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.causality.trace import Event, EventKind, Trace
from repro.errors import TraceError


def _linearize(trace: Trace) -> List[Event]:
    """:meth:`Trace.linearize`, insisting that it covers every event."""
    order = trace.linearize()
    if len(order) != len(trace):
        raise TraceError(
            "trace has cyclic event dependencies and cannot be linearized "
            "(a receive precedes its own send through local orders)"
        )
    return order


def _default_label(event: Event) -> str:
    mid = event.message.mid
    text = mid if isinstance(mid, str) else repr(mid)
    if isinstance(mid, tuple):
        text = "/".join(str(part) for part in mid)
    if event.kind is EventKind.SEND:
        return f"[{text}>{event.message.dst}]"
    return f"[>{text}]"


def render_space_time(
    trace: Trace,
    label: Optional[Callable[[Event], str]] = None,
) -> str:
    """One lane per process, one column per event, dashes as idle time.

    Args:
        trace: any trace (must be linearizable, i.e. structurally sane).
        label: event → marker text; the default shows ``[mid>dst]`` for
            sends and ``[>mid]`` for receives.
    """
    label = label or _default_label
    order = _linearize(trace)
    processes = trace.processes
    name_width = max((len(str(p)) for p in processes), default=0)

    columns: List[Tuple[Event, str]] = [(event, label(event)) for event in order]
    lanes: Dict[Hashable, List[str]] = {p: [] for p in processes}
    for event, marker in columns:
        width = len(marker)
        for process in processes:
            if process == event.process:
                lanes[process].append(marker)
            else:
                lanes[process].append("-" * width)
    lines = []
    for process in processes:
        body = "--".join(lanes[process]) if lanes[process] else ""
        lines.append(f"{str(process).rjust(name_width)}: {body}")
    return "\n".join(lines)


def render_timeline(trace: Trace) -> str:
    """The linearization as a numbered, human-readable event list."""
    order = _linearize(trace)
    lines = []
    for number, event in enumerate(order, start=1):
        message = event.message
        if event.kind is EventKind.SEND:
            action = f"{message.src!r} sends {message.mid!r} to {message.dst!r}"
        else:
            action = f"{message.dst!r} receives {message.mid!r} from {message.src!r}"
        lines.append(f"{number:4d}. {action}")
    return "\n".join(lines)
