"""Static and dynamic analysis for the causal-middleware reproduction.

Two complementary halves:

- :mod:`repro.analysis.lint` — an AST linter (rules R001–R017) that makes
  the invariants behind the middleware — copy-on-write clock buffers,
  seeded determinism, ordered iteration, layered imports, whole-program
  taint and effect discipline (R007–R012) and the fork/pipe concurrency
  rules built on the happens-before model in
  :mod:`repro.analysis.concurrency` (R013–R017) — violations you cannot
  merge. Run it with ``python -m repro.analysis lint src/``.
- :mod:`repro.analysis.sanitizer` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``) that wraps the bus's causal core and app-level
  hooks to catch stamp-mutation-after-share, FIFO skips, matrix-cell
  monotonicity violations, holdback leaks at quiescence and causal-order
  violations while the normal test suite runs.
"""

from repro.analysis.lint import (
    Diagnostic,
    lint_file,
    lint_paths,
    lint_source,
    module_name,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID
from repro.analysis.sanitizer import (
    BusSanitizer,
    OrderChecker,
    SanitizerViolation,
    install,
    is_installed,
    uninstall,
)

__all__ = [
    "Diagnostic",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name",
    "ALL_RULES",
    "RULES_BY_ID",
    "BusSanitizer",
    "OrderChecker",
    "SanitizerViolation",
    "install",
    "is_installed",
    "uninstall",
]
