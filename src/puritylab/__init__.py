"""Purity parameters, block partial traces and the purity inequalities of
bipartite and single-qudit density matrices."""

from .density import (
    BlockShape,
    DensityMatrix,
    block_sum_map,
    block_trace_map,
    make_density,
    partial_transpose_inner,
    purity,
    random_density,
    random_separable,
)
from .inequalities import (
    InequalityReport,
    PuritySet,
    audit_reports,
    delta,
    find_delta_roots,
    purity_set,
)
from .linalg import HermitianEigen, hermitian_eig
from .prng import SplitMix64, child_seed
from .states import (
    GisinParams,
    XStateParams,
    beta_params,
    beta_state,
    check_eq11,
    check_eq12,
    gisin_closed_forms,
    gisin_params,
    gisin_state,
    gisin_x_max,
    ppt_entangled,
    random_x_params,
    werner_params,
    werner_state,
    x_state,
    x_state_purities,
    xstate_entangled,
)
from .sweep import (
    ScanReport,
    ScanSample,
    SweepRow,
    SweepSpec,
    run_sweep,
    scan_conjecture,
    scan_state,
)

__version__ = "0.1.0"
