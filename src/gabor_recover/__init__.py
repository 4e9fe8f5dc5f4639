"""Recovery of 2D signals from binomially erased row-transform data.

The package covers the full loop: unitary transforms on a grid, random
erasure of transform rows' entries, L1-minimization recovery with and
without certificates, tail bounds for the erasure statistics, and the Monte
Carlo experiment harness the CLI drives.
"""

from .signal import (
    DEFAULT_REL_TOL,
    GridDims,
    Signal2D,
    SupportProfile,
    column_support_max,
    signal_from_json,
    signal_to_json,
    support,
    support_profile,
)
from .transforms import (
    TransformKind,
    dft2,
    gabor_col,
    gabor_col_inverse,
    gabor_row,
    gabor_row_inverse,
    idft2,
)
from .probbounds import (
    TailBoundResult,
    binom_tail_lower,
    binom_tail_upper,
    lemma_tail_bound,
    prob_mmax_below,
    prob_mmin_below,
    support_budget,
)
from .channel import (
    ErasurePattern,
    ErasureStats,
    apply_erasure,
    erasure_stats,
    pattern_from_json,
    pattern_to_json,
    sample_erasure,
)
from .recovery import (
    L1Domain,
    RecoveryProblem,
    RecoveryReport,
    RecoveryStage,
    RowStatus,
    ds_condition,
    l1_recover_1d,
    l1_recover_many,
    recover_rows,
    recover_two_stage,
    report_to_json,
    uniqueness_oracle_1d,
)

__all__ = [
    "DEFAULT_REL_TOL",
    "GridDims",
    "Signal2D",
    "SupportProfile",
    "column_support_max",
    "signal_from_json",
    "signal_to_json",
    "support",
    "support_profile",
    "TransformKind",
    "dft2",
    "idft2",
    "gabor_row",
    "gabor_row_inverse",
    "gabor_col",
    "gabor_col_inverse",
    "TailBoundResult",
    "binom_tail_upper",
    "binom_tail_lower",
    "lemma_tail_bound",
    "prob_mmax_below",
    "prob_mmin_below",
    "support_budget",
    "ErasurePattern",
    "ErasureStats",
    "sample_erasure",
    "erasure_stats",
    "apply_erasure",
    "pattern_to_json",
    "pattern_from_json",
    "L1Domain",
    "RecoveryStage",
    "RowStatus",
    "RecoveryProblem",
    "RecoveryReport",
    "ds_condition",
    "l1_recover_1d",
    "l1_recover_many",
    "uniqueness_oracle_1d",
    "recover_rows",
    "recover_two_stage",
    "report_to_json",
]

__version__ = "0.1.0"
