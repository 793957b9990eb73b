"""One-call causality checkers with structured violation reports.

These wrap :class:`~repro.causality.order.CausalOrder` — one linear-time
sweep of the trace through the single ``DeliveryOracle`` — into the two
predicates the paper reasons about, "respects causality" globally and "in
domain d". They are the judges behind the end-to-end theorem tests: every
MOM run records a trace, and these checkers pass judgment on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.causality.chains import Membership
from repro.causality.message import Message
from repro.causality.order import CausalOrder
from repro.causality.trace import Trace
from repro.errors import CausalityViolationError


@dataclass(frozen=True)
class Violation:
    """One causal-delivery violation: ``earlier ≺ later`` but ``process``
    received ``later`` first."""

    process: Hashable
    earlier: Message
    later: Message

    def describe(self) -> str:
        return (
            f"at process {self.process!r}: {self.earlier!r} causally "
            f"precedes {self.later!r} but was received after it"
        )


@dataclass
class CausalityReport:
    """Outcome of checking one trace (or one domain's restriction).

    Attributes:
        scope: ``"global"`` or the domain identifier the check was
            restricted to.
        correct: whether ``≺`` is a partial order on the checked trace.
        violations: all delivery violations found (empty iff the trace
            respects causality — provided it is correct).
    """

    scope: Hashable
    correct: bool
    violations: List[Violation] = field(default_factory=list)

    @property
    def respects_causality(self) -> bool:
        return self.correct and not self.violations

    def raise_on_violation(self) -> None:
        """Raise :class:`CausalityViolationError` describing the first
        violation, if any."""
        if not self.correct:
            raise CausalityViolationError(
                f"trace (scope {self.scope!r}) is not correct: "
                "the causal precedence relation has a cycle"
            )
        if self.violations:
            raise CausalityViolationError(self.violations[0].describe())

    def summary(self) -> str:
        status = "OK" if self.respects_causality else "VIOLATED"
        return (
            f"[{self.scope!r}] causal delivery {status} "
            f"({len(self.violations)} violation(s), "
            f"correct={self.correct})"
        )


def check_trace(trace: Trace, scope: Hashable = "global") -> CausalityReport:
    """Check that a trace respects causality (§4.2's global predicate)."""
    order = CausalOrder(trace)
    correct = order.is_correct()
    violations = [
        Violation(process, earlier, later)
        for process, earlier, later in order.delivery_violations()
    ]
    return CausalityReport(scope=scope, correct=correct, violations=violations)


def check_domain(
    trace: Trace, membership: Membership, domain: Hashable
) -> CausalityReport:
    """Check "respects causality in domain d": restrict the trace to the
    messages with source and destination in ``d``, then check."""
    restricted = trace.restrict(membership.domain_messages(trace, domain))
    return check_trace(restricted, scope=domain)


def check_all_domains(
    trace: Trace, membership: Membership
) -> Dict[Hashable, CausalityReport]:
    """Per-domain reports for every domain of the membership."""
    return {
        domain: check_domain(trace, membership, domain)
        for domain in membership.domains
    }
