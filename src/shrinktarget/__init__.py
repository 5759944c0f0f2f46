"""Pressure, Bowen-equation dimensions, and shrinking-target exponents for
expanding interval maps with finitely or countably many inverse branches."""

from .systems import (
    AffineCountableFamily,
    AffineFamily,
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    GaussFamily,
    Interval,
    Word,
    affine_system,
    cylinder,
    doubling_map,
    gauss_system,
    geometric_system,
)
from .pressure import (
    BirkhoffTable,
    Constant,
    LogDerivative,
    Potential,
    PressureEstimate,
    Scale,
    Sum,
    birkhoff_bracket,
    pressure_bracket,
)
from .dimension import (
    DimensionResult,
    Truncation,
    bowen_dimension,
    shrink_exponent_alpha,
    shrink_exponent_potential,
    spectrum,
)
from .targets import (
    CertificateReport,
    CoverReport,
    HitReport,
    TargetSpec,
    cover_sum,
    cylinder_density,
    hit_times,
    upper_dimension_certificate,
)
from .counterexample import (
    CounterexampleSystem,
    ShrinkFn,
    ZeroDimCoverReport,
    build as build_counterexample,
    verify_moran,
    zero_dim_cover_report,
)

__version__ = "0.1.0"
