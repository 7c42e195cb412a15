"""fragkit: self-similar fragmentation with general reproduction laws.

A particle of size x splits at rate x^alpha into children x*xi_j; the total
child size may exceed the parent's (size creation is allowed).  The package
couples an exact breadth-first natural-time simulator with the closed-form
analytics of mean power sums, asymptotic coefficients, and the random limit
of the weighted scaled empirical measure, and cross-validates the two
statistically.
"""

__version__ = "0.1.0"

from .errors import (
    ArithmeticLaw,
    DomainError,
    EmptySnapshot,
    FragkitError,
    InvalidIntensity,
    LawSpecError,
    NoClosedForm,
    NoMalthusianExponent,
    NoQuadrature,
    PoleError,
    PrecisionExhausted,
    RootFindingFailure,
    SecondMomentInfinite,
    SingularBeta,
    TreeSizeExceeded,
    UnsupportedRepresentation,
    UnsupportedSampler,
    UnsupportedTilt,
)
from .laws import (
    AtomComponent,
    BinaryUniformConservative,
    DensityLaw,
    DirichletPolynomial,
    FilippovPower,
    OffspringSample,
    PowerComponent,
    ReproductionLaw,
    StickBreakingConservative,
    StickBreakingLossy,
    TaggedLaw,
    UserAtomic,
    UserPoisson,
    arithmetic_check,
    from_spec,
    load_spec,
    malthusian_exponent,
    no_malthusian_example,
)
from .analytics import (
    GammaExtrapolation,
    IntegroSolution,
    RhoMoments,
    SeriesEvaluation,
    asymptotic_coefficient,
    beta_star_of,
    derivative_identity_check,
    filippov_asymptotic_coefficient,
    filippov_gamma_closed_form,
    gamma_n,
    gamma_z,
    homogeneous_m,
    m_integro,
    m_series,
    rational_coefficient,
    rational_gamma,
    rational_m,
    rational_rho_moment,
    rho_cdf,
    rho_moment,
    rho_moments,
)
from .simulate import (
    GenerationMartingaleResult,
    MInftyEstimate,
    Population,
    PopulationSnapshot,
    SimulationConfig,
    YSampleResult,
    estimate_m_infinity_moments,
    generation_martingale,
    natural_replicates,
    run,
    run_replicates,
    sample_Y,
    snapshot_power_sum,
    tagged_final_sizes,
)
from .estimators import (
    CheckResult,
    OracleValue,
    ValidationReport,
    WeightedEmpiricalMeasure,
    cdf_distance,
    empirical_weighted_measure,
    exp_decay,
    integral_f_rho,
    l2_functional_test,
    m_infinity_second_moment_oracle,
    mean_power_sum_test,
    z_check,
)
