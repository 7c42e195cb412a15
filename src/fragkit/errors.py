"""Exception types shared across the package.

Statistical *failures* (a z-test outside 3 standard errors) are reported in
validation reports, not raised; exceptions are reserved for contract
violations and numerical dead ends.
"""


class FragkitError(Exception):
    """Base class for all package errors."""


class DomainError(FragkitError):
    """Argument outside the domain of definition (e.g. Re beta <= beta_a)."""


class NoClosedForm(FragkitError):
    """The law carries no closed-form Mellin transform."""


class NoQuadrature(FragkitError):
    """The law has neither a closed form nor an integrable representation."""


class NoMalthusianExponent(FragkitError):
    """phi(beta) = 1 has no root right of the convergence abscissa.

    Carries ``phi_at_abscissa``, the (numerically probed) supremum of phi.
    """

    def __init__(self, message, phi_at_abscissa=None):
        super().__init__(message)
        self.phi_at_abscissa = phi_at_abscissa


class UnsupportedSampler(FragkitError):
    """The law supports analytics only; no exact offspring sampler exists."""


class InvalidIntensity(FragkitError):
    """A Poisson intensity component is not finite (after truncation)."""


class UnsupportedTilt(FragkitError):
    """No exact sampler for the size-biased (tilted) child law is available."""


class PrecisionExhausted(FragkitError):
    """Adaptive-precision summation hit the precision cap before stabilising.

    Carries ``diagnostics``, the last evaluation attempt.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class PoleError(FragkitError):
    """Evaluation requested at (or numerically on top of) a pole."""


class SingularBeta(DomainError):
    """beta is singular: some product factor 1 - phi(beta + alpha*k) vanishes."""


class ArithmeticLaw(FragkitError):
    """Refused: the asymptotic coefficient formula needs a nonarithmetic law."""


class RootFindingFailure(FragkitError):
    """Polynomial/characteristic roots could not be isolated or refined."""


class UnsupportedRepresentation(FragkitError):
    """The operation needs a density/atom representation the law lacks."""


class TreeSizeExceeded(FragkitError):
    """A simulation exceeded its node cap (generation engine) or particle cap (natural time)."""


class EmptySnapshot(FragkitError):
    """All replicates extinct: no atoms to aggregate."""


class SecondMomentInfinite(FragkitError):
    """Monte Carlo probe of E (sum xi^b)^2 diverged."""


class LawSpecError(FragkitError):
    """Malformed JSON law specification (unknown kind/fields, bad values)."""
