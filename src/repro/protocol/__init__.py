"""Pluggable causal-delivery protocol cores (the ``CausalCore`` boundary).

Importing this package registers the built-in cores (matrix, updates,
histories, fifo); see :mod:`repro.protocol.core` for the contract and
:mod:`repro.analysis.contract` for the rules that statically verify it.
"""

from repro.protocol.core import CausalCore, DelegatingCore
from repro.protocol.registry import (
    core_names,
    get_core,
    has_core,
    register_core,
    registered_cores,
)
from repro.protocol import cores as _cores  # noqa: F401  (registers built-ins)

__all__ = [
    "CausalCore",
    "DelegatingCore",
    "core_names",
    "get_core",
    "has_core",
    "register_core",
    "registered_cores",
]
