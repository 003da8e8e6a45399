"""Kernels over the evaluation plan, with import-time backend selection.

``pyref.Walk`` is gcb's one walk over valid configurations, exact or
float, on a base graph or on one of its covers.  The compiled extension
speeds up only the float cover sweep; it is preferred when it built, and
the pure-Python reference is the fallback.  Set ``GCB_PURE_KERNELS=1`` to
force the fallback (used by the equivalence tests and the benchmark).
"""

import os

from . import pyref
from .plan import Plan, build_plan, kernel_arrays, perm_tables

if os.environ.get("GCB_PURE_KERNELS") == "1":
    _impl = pyref
else:
    try:
        from . import _fast as _impl
    except ImportError:
        _impl = pyref

BACKEND = "compiled" if _impl.IS_COMPILED else "pure"


def cover_sweep(plan: Plan, full_edge_idx, m: int, inv_t: float, start: int, stop: int):
    """Float sweep over covers [start, stop); see ``pyref.cover_sweep``.

    Only the full edges in ``full_edge_idx`` run through the permutations;
    the others keep the identity.  The compiled twin runs on the plan's
    kernel arrays; plans past its C limits take the pure sweep.
    """
    arrays = kernel_arrays(plan) if _impl.IS_COMPILED else None
    if arrays is None:
        return pyref.cover_sweep(plan, full_edge_idx, m, inv_t, start, stop)
    return _impl.cover_sweep(arrays, full_edge_idx, m, inv_t, start, stop)


__all__ = [
    "BACKEND",
    "Plan",
    "build_plan",
    "kernel_arrays",
    "perm_tables",
    "cover_sweep",
    "pyref",
]
