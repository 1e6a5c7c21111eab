"""Low-complexity multiparametric DCT approximations.

Exact construction and orthonormalization of the parametrized 8-point
family, fast butterfly kernels with addition/shift accounting, quality
metrics under an AR(1) model, exhaustive Pareto search, size doubling to 16
and 32 points, and a JPEG-like block-compression harness.
"""

from .catalog import ALL_ONES, CATALOG
from .codec import (
    QualityScores,
    RetentionPolicy,
    ape,
    ar1_test_image,
    compress_image,
    default_r_grid,
    forward_2d,
    inverse_2d,
    psnr,
    retain,
    retention_sweep,
    ssim,
    zigzag_order,
)
from .core import (
    FeasibilityError,
    ParamVector,
    Transform,
    build_matrix,
    exact_dct_matrix,
    feasible_mask,
    gram_quarter_units,
    is_feasible,
    orthonormal_approx,
    scale_factors,
)
from .kernel import (
    ComplexityCount,
    apply_fast,
    apply_fast_doubled,
    apply_inverse,
    complexity,
    count_operations,
    factor_matrices,
    factored_product,
)
from .metrics import (
    DEFAULT_RHO,
    MetricsReport,
    SignalModel,
    ar1_covariance,
    evaluate,
    evaluate_matrix,
    mse,
    total_error_energy,
    transform_efficiency,
    unified_coding_gain,
)
from .pgm import read_pgm, write_pgm
from .scaling import ScaledTransform, build_scaled, scale_once, scaled_complexity
from .search import (
    N_CANDIDATES,
    ParetoEntry,
    SearchResult,
    all_candidates_doubled,
    objectives,
    pareto_front,
    run_search,
)

__version__ = "0.1.0"
