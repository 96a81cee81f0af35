"""Purity parameters, block partial traces and the purity inequalities of
bipartite and single-qudit density matrices.

The top level carries the names of the README quick tour; everything else
is imported from its module (``puritylab.states``, ``puritylab.sweep``, ...).
"""

from .density import BlockShape, make_density
from .inequalities import audit_reports, purity_set
from .states import ppt_entangled, werner_state
from .sweep import scan_conjecture

__version__ = "0.1.0"
