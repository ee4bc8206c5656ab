"""Numerical laboratory for weighted-gradient area functionals on grids.

`PAREA_THREADS` (default 1) is the one thread setting: it sets the thread
pools of the numerical backends, overriding any inherited pool variable,
because a BLAS split across threads changes the last bits of the artifacts.
It must be applied before numpy loads, which is why it sits at the top of
this module. Only ASCII digits worth at least 1 are a thread count, handed
on without leading zeros: OpenBLAS reads `0`, `-1` or `abc` as every core.
Any other value gives the pools 1 and leaves the message `_threads_error`,
with which the CLI exits 4.
"""

import os as _os

_value = _os.environ.get("PAREA_THREADS") or "1"
_threads = _value.lstrip("0") if _value.isascii() and _value.isdigit() else ""
_threads_error = None if _threads else (
    f"PAREA_THREADS must be a whole number of at least 1, got {_value!r}")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    _os.environ[_var] = _threads or "1"
del _os, _value, _threads, _var

from .grids import (
    Alternating3Field,
    GridDomain,
    ScalarField,
    SkewField,
    VectorField,
    build_domain,
    divergence,
    field_scale,
    gradient,
    integrate,
    quadrature_weights,
    sample,
    sample_vector,
)
from .fieldio import FieldFormatError, read_field, write_csv, write_field
from .horizontal import (
    curl_matrix,
    horizontal_normal,
    singular_stats,
    structure_identity_residual,
    weight,
)
from .skewalg import (
    Rank2Factorization,
    SkewMatrix,
    alignment_residual,
    rank2_audit,
    rank2_factorize,
    skew_rank,
    skew_ranks,
    spectral_pairs,
)
from .integrability import (
    FrobeniusTensor,
    IntegrabilityLabel,
    classify_integrability,
    codazzi_residual_2d,
    frobenius_tensor,
    integrability_labels,
    normal_contraction_residual,
    renormalize_normal,
    tangential_curl_residual,
    weight_equation_residual,
)
from .reconstruction import (
    NormalCheck,
    NotClosedError,
    PotentialResult,
    candidate_gradient,
    closedness_residual,
    integrate_potential,
    verify_normal,
)
from .variational import (
    LineProfile,
    MinimizeOptions,
    MinimizeResult,
    SolverDivergenceError,
    UniquenessReport,
    first_order_residual,
    first_variation,
    functional,
    line_profile,
    minimize,
    pairwise_rotation,
    pointwise_skew_rank,
    skew_divergence,
    skew_transform,
    uniqueness_audit,
)
from .scenarios import (
    Scenario,
    UnknownScenarioError,
    builtin_scenario,
    heisenberg_field,
    interior_bump,
    random_smooth_field,
    random_smooth_scalar,
    seeded_init,
)
from .runner import ExitCode, ExperimentConfig, run

__version__ = "0.1.0"
