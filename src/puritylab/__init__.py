"""Purity parameters, block partial traces and Minkowski-type trace
inequalities for bipartite and single-qudit density matrices."""

from .density import (
    BlockShape,
    DensityMatrix,
    PuritySet,
    block_sum_map,
    block_trace_map,
    make_density,
    normalize,
    partial_transpose_inner,
    purity,
    purity_set,
    random_density,
    random_separable,
    sample_states,
)
from .inequalities import (
    InequalityReport,
    MinkowskiParams,
    audit_reports,
    delta,
    find_delta_roots,
    minkowski_check,
    mu_tilde,
)
from .linalg import (
    HermitianEigen,
    hermitian_eig,
    psd_matrix_power,
)
from .prng import SplitMix64, child_seed
from .states import (
    BetaParam,
    GisinParams,
    WernerParam,
    XStateParams,
    beta_params,
    beta_state,
    check_eq11,
    check_eq12,
    gisin_closed_forms,
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
