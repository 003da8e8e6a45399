"""The kernel layer: the evaluation plan, its walk and the cover sweep.

``pyref.Walk`` is gcb's one walk over valid configurations, exact or
float, on a base graph or on one of its covers; ``cover_sweep`` sums the
partition functions of a list of covers on it, and every cover average
goes through it.  Both are plain Python; ``BACKEND`` names that backend in
benchmark records.
"""

from . import pyref
from .plan import Plan, build_plan, perm_tables
from .pyref import cover_sweep

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "Plan",
    "build_plan",
    "perm_tables",
    "cover_sweep",
    "pyref",
]
