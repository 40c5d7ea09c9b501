"""Pluggable simulation backends.

One frontend model, several interchangeable simulation loops.  The
``scalar`` backend is the zero-allocation columnar hot loop used everywhere
by default; ``reference`` is the record-view oracle it is pinned against;
``batch`` runs several cores as vectorized lanes.  A backend registered here
(built-in or user code) is immediately covered by the parity suite, the
sweep cache key and the ``python -m repro bench`` per-backend report.

Importing this package imports every built-in backend module so its
registration decorator runs (staticcheck rule R005 pins this wiring).
"""

from repro.backends.base import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    SimBackend,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.backends.batch import BatchBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.scalar import ScalarBackend

__all__ = [
    "BACKEND_REGISTRY",
    "BatchBackend",
    "DEFAULT_BACKEND",
    "ReferenceBackend",
    "ScalarBackend",
    "SimBackend",
    "backend_names",
    "get_backend",
    "resolve_backend",
]
