"""fragkit: self-similar fragmentation with general reproduction laws.

A particle of size x splits at rate x^alpha into children x*xi_j; the total
child size may exceed the parent's (size creation is allowed).  The package
couples an exact breadth-first natural-time simulator with the closed-form
analytics of mean power sums, asymptotic coefficients, and the random limit
of the weighted scaled empirical measure, and cross-validates the two
statistically.

Importing the package loads ``fragkit.errors`` and ``fragkit.laws`` (and
numpy); the names of ``analytics``, ``simulate`` and ``estimators``, and
with them mpmath, load on first access.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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

#: names of the submodules that import mpmath or run the simulators, resolved
#: on first access (PEP 562): ``import fragkit`` loads only ``errors`` and
#: ``laws``, and so numpy but not mpmath
_LAZY = {
    "analytics": (
        "GammaExtrapolation", "IntegroSolution", "RhoMoments", "SeriesEvaluation",
        "asymptotic_coefficient", "beta_star_of", "derivative_identity_check",
        "filippov_asymptotic_coefficient", "filippov_gamma_closed_form", "gamma_n",
        "gamma_z", "homogeneous_m", "m_integro", "m_series", "rational_coefficient",
        "rational_gamma", "rational_m", "rational_rho_moment", "rho_cdf", "rho_moment",
        "rho_moments",
    ),
    "simulate": (
        "GenerationMartingaleResult", "MInftyEstimate", "Population", "PopulationSnapshot",
        "SimulationConfig", "YSampleResult", "estimate_m_infinity_moments",
        "generation_martingale", "natural_replicates", "run", "run_replicates", "sample_Y",
        "snapshot_power_sum", "tagged_final_sizes",
    ),
    "estimators": (
        "CheckResult", "OracleValue", "ValidationReport", "WeightedEmpiricalMeasure",
        "cdf_distance", "empirical_weighted_measure", "exp_decay", "integral_f_rho",
        "l2_functional_test", "m_infinity_second_moment_oracle", "mean_power_sum_test",
        "z_check",
    ),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("analytics", "estimators", "rng", "simulate")


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | set(_SUBMODULES))


__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_ORIGIN) | set(_SUBMODULES))
