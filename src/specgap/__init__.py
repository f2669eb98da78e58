"""specgap: a numerical laboratory for the extreme spectrum of weighted
Fourier-multiplier operators and its scaled-gap asymptotics."""

__version__ = "0.1.0"

from .profiles import (  # noqa: F401
    ProfileRole,
    ProfileSpec,
    ProfilePair,
    ProfileError,
    ValidationReport,
    sigma_exponent,
    make_catalog_profile,
    expression_profile,
    make_pair,
    validate_profile,
)
from .expr import ExpressionError, parse_expression  # noqa: F401
from .grid import (  # noqa: F401
    Grid,
    GridError,
    StateVector,
    build_grid,
    state,
    random_state,
    to_frequency_values,
    to_position_values,
    inner,
    norm,
    save_state,
    load_state,
    save_states,
    load_states,
)
from .operators import (  # noqa: F401
    HermitianOperator,
    OperatorError,
    ScaledSymbols,
    make_scaled_symbols,
    build_scaled_operator,
    build_original_operator,
    build_model_operator,
    build_multiplier_plus_potential,
    symbol_flatness_form,
    weight_flatness_form,
    model_form,
    residual_form,
    normalized_pair,
)
from .eigensolve import (  # noqa: F401
    Mode,
    SolveSettings,
    EigenPair,
    NoConvergenceError,
    InnerSolveStallError,
    largest_eigenpairs,
    smallest_eigenpairs,
)
from .asymptotics import (  # noqa: F401
    LocalizationMetrics,
    SweepRecord,
    ExtrapolationResult,
    Verdict,
    VerdictStatus,
    StudyReport,
    SweepSettings,
    suggest_grid,
    scaled_gap,
    extrapolate_limit,
    localization_metrics,
    run_sweep,
    verify_limit_law,
)
