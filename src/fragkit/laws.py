"""Reproduction laws of a self-similar fragmentation.

A reproduction law describes the offspring sizes {xi_j} of a unit particle:
a decreasing sequence in [0,1].  Its structural measure sigma is the
intensity of the child-size point process, and the characteristic function

    phi(beta) = integral_0^1 x^beta sigma(dx) = E sum_j xi_j^beta

is its Mellin transform, finite on the half-plane Re beta > beta_a.  The
Malthusian exponent beta_star is the unique real root of phi = 1; it exists
iff phi(beta_a+) >= 1 and drives every asymptotic in the package.

Every law with a sampler declares sigma once, as power terms and atoms,

    sigma(dx) = sum_j lam_j x^(theta_j - 1) dx + sum_i w_i delta_{x_i}(dx),

and the base class derives from it the Mellin data (phi, its derivative and
arbitrary-precision form, the abscissa), the quadrature representations and
the size-biased tilt of a nonnegative power mixture.  A law writes only its
measure, its exact offspring sampler and what is truly its own (factored
closed forms, special tilts, square means).  Density-only laws declare no
measure and compute phi by quadrature; they have no sampler.

A sampler is one batch method, ``offspring_batch(rng, sizes, floor,
beta_star) -> (kids, owner, tail)``: the children of a whole generation of
parents, all the generation engine calls.  The event loop's one-parent
``sample_offspring`` is derived from it (the batch on a unit parent, sorted
and floored).  The binary and stick-breaking laws, which the benchmark's
natural-time workloads simulate, keep a scalar loop drawing the same numbers
without numpy's per-call cost: per split on a 2-core Xeon, scalar 2.8 us vs
derived 9.8 us (binary), 19 us vs 137 us (lossy stick at floor 1e-8).

Built-ins
---------
BinaryUniformConservative   children {U, 1-U};     phi = 2/(1+beta)
StickBreakingLossy          uniform stick-breaking with the first uniform
                            portion lost;          phi = 1/(beta(beta+1))
StickBreakingConservative   plain stick-breaking;  phi = 1/beta
DirichletPolynomial(terms)  sigma = sum_j lam_j x^(theta_j - 1) dx
FilippovPower(lam, theta)   the one-term case sigma = lam x^(theta-1) dx;
                            phi = lam/(theta+beta)
UserAtomic(groups)          finitely many child-size sets with probabilities
UserPoisson(sigma1, sigma2) one draw from sigma1 plus a Poisson process with
                            intensity sigma2 (structural measure sigma1+sigma2)
DensityLaw                  analytics-only: sigma given as a density
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import integrate, optimize

from .errors import (
    DomainError,
    InvalidIntensity,
    LawSpecError,
    NoClosedForm,
    NoMalthusianExponent,
    NoQuadrature,
    RootFindingFailure,
    UnsupportedSampler,
    UnsupportedTilt,
)

DEFAULT_CHILD_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# samples and tagged laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffspringSample:
    """One realised child-size collection of a unit particle.

    ``sizes`` is decreasing with values in [0,1].  For laws producing
    infinitely many children per split, children below the requested floor
    are not materialised; ``truncated_beta_mass_bound`` then accounts for
    them *in expectation*: it equals E[ sum over discarded children of
    xi^beta_star | realised residual ].  For stick-breaking variants the
    unmaterialised tail re-breaks the residual stick r conservatively, so
    the conditional expectation is r^beta_star * phi_cont(beta_star) =
    r^beta_star / beta_star; explicitly dropped children contribute their
    exact xi^beta_star.  (r^beta_star alone would *understate* the expected
    discarded mass whenever beta_star < 1, since sum xi^b >= (sum xi)^b
    pathwise for b <= 1.)
    """

    sizes: np.ndarray
    truncated_beta_mass_bound: float = 0.0


@dataclass(frozen=True)
class TaggedLaw:
    """Single-child law of the size-biased tag: sigma_hat(dx) = x^beta_star sigma(dx).

    phi(beta_star) = 1 makes sigma_hat automatically a probability measure.
    ``sample_eta`` draws the per-split shrink factor; ``sample_eta_first``
    draws the stationary first factor used by the series representation of
    the limit variable Y (density sigma_hat(]0,x]) / (psi_hat'(0) x)).
    """

    base: "ReproductionLaw"
    beta_star: float
    _eta_sampler: callable = field(repr=False)
    _eta0_sampler: callable = field(repr=False)
    _eta_cdf: callable = field(repr=False)

    def sample_eta(self, rng, n):
        return self._eta_sampler(rng, n)

    def sample_eta_first(self, rng, n):
        return self._eta0_sampler(rng, n)

    def eta_cdf(self, x):
        return self._eta_cdf(np.asarray(x, dtype=float))

    def psi_hat(self, z):
        return self.base.psi(z + self.beta_star)

    def mean_eta_pow(self, z):
        """E eta^z = phi(z + beta_star) = 1 - psi_hat(z)."""
        return self.base.phi(z + self.beta_star)


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

def _mellin(power_terms, atoms, beta):
    """integral x^beta sigma(dx) = sum_j lam_j/(theta_j+beta) + sum_i w_i x_i^beta."""
    total = sum(l / (t + beta) for l, t in power_terms)
    if atoms:
        total += sum(w * x**beta for x, w in atoms)
    return total


class ReproductionLaw:
    """Immutable law object.

    ``power_terms`` ((lam_j, theta_j), ...) and ``atoms`` ((x_i, w_i), ...)
    declare the structural measure; both None means the law has no such
    description and supplies its own ``_phi``.  ``beta_a_override`` and
    ``arithmetic_override`` hold the JSON spec's "beta_a" and
    "arithmetic_flag" overrides and are part of the law's identity.
    """

    kind = "abstract"
    power_terms = None
    atoms = None
    beta_a_estimated = False
    conservative = False
    has_sampler = False
    beta_a_override = None
    arithmetic_override = None

    # -- structural measure --------------------------------------------------

    def _sigma(self):
        if self.power_terms is None and self.atoms is None:
            raise NoClosedForm(f"{self.kind}: no closed form")
        return self.power_terms or (), self.atoms or ()

    @property
    def beta_a(self):
        """Abscissa of phi: -min theta_j (atoms converge on the whole plane)."""
        if self.beta_a_override is not None:
            return self.beta_a_override
        return 0.0 - min(t for _, t in self.power_terms) if self.power_terms else -math.inf

    @property
    def arithmetic(self):
        """Whether sigma sits on a geometric grid (declared, or detected by the law)."""
        if self.arithmetic_override is not None:
            return self.arithmetic_override
        return self._detect_arithmetic()

    def _detect_arithmetic(self):
        return False

    def sigma_power_components(self):
        """sigma's density as sum of c * x^q dx on ]0,1], or None."""
        if not self.power_terms:
            return None
        return tuple((l, t - 1.0) for l, t in self.power_terms)

    def sigma_atoms(self):
        """sigma's atoms ((x, weight), ...), or None."""
        return self.atoms

    @property
    def atom_mass_at_one(self):
        """sigma{1}, the limit of phi(beta) as beta -> +inf."""
        return sum(w for x, w in self.atoms or () if x == 1.0)

    def rational_psi(self):
        """(roots, thetas) with psi(beta) = prod_i (beta - r_i) / prod_j (beta + theta_j).

        Power terms with equal theta merge (dropping those whose lam cancels);
        the numerator is solved by companion-matrix eigenvalues polished with
        Newton.  The roots are simple and sorted by decreasing real part, so
        roots[0] is beta*.  Raises NoClosedForm when sigma has atoms or no
        power terms.
        """
        merged = {}
        for l, t in self.power_terms or ():
            merged[t] = merged.get(t, 0.0) + l
        terms = [(l, t) for t, l in merged.items() if l != 0.0]
        if self.atoms or not terms:
            raise NoClosedForm(f"{self.kind}: psi is rational only for power terms without atoms")
        P = np.polynomial.Polynomial
        thetas = np.array([t for _, t in terms])
        den = P.fromroots(-thetas)
        num = den - sum(l * (den // P([t, 1.0])) for l, t in terms)
        dnum = num.deriv()
        roots = num.roots()
        for _ in range(50):
            step = num(roots) / dnum(roots)
            roots = roots - step
            if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(roots))):
                break
        else:
            raise RootFindingFailure("Newton did not converge on the roots of phi = 1")
        gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(roots.size, 1)]
        if np.any(gaps < 1e-8 * (1.0 + np.max(np.abs(roots)))):
            raise RootFindingFailure("roots not simple/isolated")
        roots = roots[np.argsort(-roots.real)]
        if abs(roots[0].imag) > 1e-9:
            raise RootFindingFailure(f"rightmost root {roots[0]} is not real")
        if roots[0].real <= -thetas.min():
            raise RootFindingFailure("rightmost root left of the abscissa")
        return roots, thetas

    # -- Mellin data --------------------------------------------------------

    def _check_domain(self, beta):
        if np.real(beta) <= self.beta_a:
            raise DomainError(
                f"{self.kind}: phi undefined at Re beta = {np.real(beta)} "
                f"<= abscissa {self.beta_a}"
            )

    def phi(self, beta):
        self._check_domain(beta)
        return self._phi(beta)

    def _phi(self, beta):
        return _mellin(*self._sigma(), beta)

    def phi_mp(self, beta):
        """phi evaluated in mpmath arithmetic (closed-form laws only)."""
        terms, atoms = self._sigma()
        b = mp.mpmathify(beta)
        parts = [mp.mpf(l) / (t + b) for l, t in terms]
        if atoms:
            parts += [w * mp.mpf(x) ** b for x, w in atoms]
        # the series calls this once per term: skip fsum's overhead for one part
        return parts[0] if len(parts) == 1 else mp.fsum(parts)

    def psi(self, beta):
        return 1.0 - self.phi(beta)

    def psi_prime(self, beta):
        """d/dbeta [1 - phi]; analytic where available, else Richardson."""
        self._check_domain(beta)
        d = self._phi_prime(beta)
        if d is not None:
            return -d
        return _richardson_derivative(lambda b: self.psi(b), beta, self.beta_a)

    def _phi_prime(self, beta):
        if self.power_terms is None and self.atoms is None:
            return None
        terms, atoms = self._sigma()
        return (sum(w * x**beta * math.log(x) for x, w in atoms)
                - sum(l / (t + beta) ** 2 for l, t in terms))

    # -- sampling -----------------------------------------------------------

    def offspring_batch(self, rng, sizes, floor, beta_star):
        """Children of every parent in ``sizes`` at once: (kids, owner, tail).

        ``kids[i]`` is a child of parent ``owner[i]``, in the order the law
        draws them.  A law with infinitely many children materialises those
        of absolute size >= ``floor`` and reports in ``tail[p]`` the expected
        beta*-mass of parent p's unmaterialised ones; laws with finitely many
        children ignore ``floor`` and ``beta_star`` and report a zero tail.
        """
        raise UnsupportedSampler(f"{self.kind}: analytics-only law, no sampler")

    def sample_offspring(self, rng, floor=DEFAULT_CHILD_FLOOR):
        """Offspring of a unit particle; deterministic function of the stream.

        The batch on one unit parent, sorted decreasingly.  ``floor``:
        children below it are discarded at their exact beta*-mass, which the
        sample's truncation field adds to the batch's tail (see
        OffspringSample).  A law without beta* samples only while no child
        falls below the floor.
        """
        try:
            bs = _beta_star_newton(self)
        except NoMalthusianExponent:
            bs = None  # enough while no child falls below the floor
        kids, _, tail = self.offspring_batch(rng, np.ones(1), floor, bs)
        kids[::-1].sort()
        bound = float(tail[0])
        if kids.size and kids[-1] < floor:
            keep = kids >= floor
            bound += float(np.sum(kids[~keep] ** _beta_star_newton(self)))
            kids = kids[keep]
        return OffspringSample(kids, truncated_beta_mass_bound=bound)

    def offspring_square_mean(self, beta_star):
        """Closed form of E (sum_j xi_j^beta_star)^2, or None."""
        return None

    def tagged(self, beta_star):
        """Exact sampler for sigma_hat(dx) = x^beta_star sigma(dx) of a power mixture.

        With nonnegative power terms only, sigma_hat = sum_j lam_j
        x^(beta*+theta_j-1) dx is again a power mixture, weights
        lam_j/(beta*+theta_j); the stationary first factor, density
        sigma_hat(]0,x])/(psi'(beta*) x), mixes the same powers with weights
        lam_j/(beta*+theta_j)^2.  A one-term law draws no component.
        """
        terms = self.power_terms
        if not terms or self.atoms or any(l < 0 for l, _ in terms):
            raise UnsupportedTilt(f"{self.kind}: no exact tilt sampler")
        # one Newton step: sigma_hat is a probability only at the root itself,
        # and a root finder's beta* carries its tolerance
        root = beta_star - (self._phi(beta_star) - 1.0) / self._phi_prime(beta_star)
        lam = np.array([l for l, _ in terms])
        expo = root + np.array([t for _, t in terms])
        w = lam / expo
        w = w / w.sum()  # sums to phi(beta*) = 1 up to root tolerance
        w0 = lam / expo**2
        w0 = w0 / w0.sum()

        def mixture(p):
            def sample(rng, n):
                e = expo[0] if expo.size == 1 else expo[rng.choice(expo.size, size=n, p=p)]
                return rng.uniform(size=n) ** (1.0 / e)
            return sample

        def eta_cdf(x):
            x = np.clip(x, 0.0, 1.0)
            return sum(wi * x**e for wi, e in zip(w, expo))

        return TaggedLaw(self, beta_star, mixture(w), mixture(w0), eta_cdf)

    # -- misc ---------------------------------------------------------------

    def _identity(self):
        return (self.kind, self._key(), self.beta_a_override, self.arithmetic_override)

    def __hash__(self):
        return hash(self._identity())

    def __eq__(self, other):
        return isinstance(other, ReproductionLaw) and self._identity() == other._identity()

    def _key(self):
        return ()

    def __repr__(self):
        return f"{self.__class__.__name__}()"


def _richardson_derivative(f, x, left_limit, rel_tol=1e-8):
    """Central differences with 3 Richardson levels and step refinement.

    Stops once two successive extrapolations agree to rel_tol.
    """
    span = max(abs(x), 1.0)
    h = 1e-2 * span
    if math.isfinite(left_limit):
        h = min(h, 0.25 * (x - left_limit))
    prev = None
    for _ in range(12):
        d = [(f(x + h / 2**k) - f(x - h / 2**k)) / (2 * h / 2**k) for k in range(3)]
        # two Richardson eliminations of the O(h^2) and O(h^4) terms
        d1 = [(4 * d[k + 1] - d[k]) / 3 for k in range(2)]
        d2 = (16 * d1[1] - d1[0]) / 15
        if prev is not None and abs(d2 - prev) <= rel_tol * max(abs(d2), 1e-300):
            return d2
        prev = d2
        h /= 4
    return prev


# ---------------------------------------------------------------------------
# built-in laws
# ---------------------------------------------------------------------------

class BinaryUniformConservative(ReproductionLaw):
    """Split into {U, 1-U}, U uniform: conservative, beta_star = 1.

    Structural measure 2 dx on (0,1); same Mellin data as FilippovPower(2,1),
    but the sampler conserves mass pathwise.
    """

    kind = "BinaryUniformConservative"
    power_terms = ((2.0, 1.0),)
    conservative = True
    has_sampler = True

    def _phi(self, beta):
        return 2.0 / (1.0 + beta)

    def phi_mp(self, beta):
        return 2 / (1 + mp.mpmathify(beta))

    def _phi_prime(self, beta):
        return -2.0 / (1.0 + beta) ** 2

    def sample_offspring(self, rng, floor=DEFAULT_CHILD_FLOOR):
        u = rng.random()
        v = 1.0 - u
        kids = (u, v) if u >= v else (v, u)
        if kids[1] >= floor:
            return OffspringSample(np.array(kids))
        kept = [k for k in kids if k >= floor]
        dropped = sum(k for k in kids if k < floor)  # beta_star = 1: exact mass
        return OffspringSample(np.array(kept), truncated_beta_mass_bound=dropped)

    def offspring_batch(self, rng, sizes, floor, beta_star):
        u = rng.uniform(size=sizes.size)
        kids = np.concatenate([sizes * u, sizes * (1.0 - u)])
        owner = np.concatenate([np.arange(sizes.size)] * 2)
        return kids, owner, np.zeros(sizes.size)

    def offspring_square_mean(self, beta_star):
        return 1.0  # (U + (1-U))^2


class _StickBreakingBase(ReproductionLaw):
    """Common machinery of the two uniform stick-breaking laws."""

    has_sampler = True
    #: j0 = 1 loses the first uniform portion, j0 = 0 keeps it (conservative)
    _lossy = True

    def sample_offspring(self, rng, floor=DEFAULT_CHILD_FLOOR):
        if floor <= 0:
            raise DomainError(f"{self.kind}: infinitely many children need a floor > 0")
        kids = []
        residual = 1.0
        if self._lossy:
            residual = rng.random()  # portion 1 - U0 is lost
        while residual >= floor:
            u = rng.random()
            kids.append((1.0 - u) * residual)
            residual *= u
        bs = self._beta_star_exact()
        # unmaterialised tail: conservative re-breaking of the residual stick,
        # E[sum tail xi^bs | residual] = residual^bs * (1/bs); materialised
        # children below the floor are dropped at their exact bs-mass
        bound = residual**bs / bs + sum(k**bs for k in kids if k < floor)
        kids = [k for k in kids if k >= floor]
        kids.sort(reverse=True)
        return OffspringSample(np.array(kids), truncated_beta_mass_bound=bound)

    def offspring_batch(self, rng, sizes, floor, beta_star):
        # children (1-U_j) * residual, residual *= U_j, until the residual drops
        # below the floor; re-breaking it would add beta*-mass r^beta*/beta*
        if floor <= 0:
            raise DomainError(f"{self.kind}: infinitely many children need a floor > 0")
        residual = sizes * rng.uniform(size=sizes.size) if self._lossy else sizes
        idx = np.arange(sizes.size)
        tail = np.zeros(sizes.size)
        kids_parts, owner_parts = [], []
        while idx.size:
            done = residual < floor
            if done.any():
                tail[idx[done]] += residual[done] ** beta_star / beta_star
                residual = residual[~done]
                idx = idx[~done]
                if idx.size == 0:
                    break
            u = rng.uniform(size=idx.size)
            kids_parts.append((1.0 - u) * residual)
            owner_parts.append(idx)
            residual = residual * u
        kids = np.concatenate(kids_parts) if kids_parts else np.empty(0)
        owner = np.concatenate(owner_parts) if owner_parts else np.empty(0, dtype=int)
        return kids, owner, tail

    def _beta_star_exact(self):
        raise NotImplementedError


class StickBreakingLossy(_StickBreakingBase):
    """Rank the sizes (1-U_j) prod_{k<j} U_k, j >= 1: the first uniform
    portion of the stick is lost.  phi(beta) = 1/(beta(beta+1)), so
    beta_star = (sqrt(5)-1)/2; sigma has density (1-x)/x."""

    kind = "StickBreakingLossy"
    power_terms = ((1.0, 0.0), (-1.0, 1.0))  # (1-x)/x = x^-1 - x^0
    _lossy = True

    def _phi(self, beta):
        return 1.0 / (beta * (beta + 1.0))

    def phi_mp(self, beta):
        b = mp.mpmathify(beta)
        return 1 / (b * (b + 1))

    def _phi_prime(self, beta):
        return -(2.0 * beta + 1.0) / (beta * (beta + 1.0)) ** 2

    def _beta_star_exact(self):
        return (math.sqrt(5.0) - 1.0) / 2.0

    def offspring_square_mean(self, beta_star):
        # T = U0^b * S with S = (1-U)^b + U^b S' (independent copy):
        #   E S   = E(1-U)^b / (1 - E U^b)
        #   E S^2 = (E(1-U)^{2b} + 2 E[(1-U)^b U^b] E S) / (1 - E U^{2b})
        # and E T^2 = E S^2 / (2b+1).
        b = beta_star
        es = (1.0 / (b + 1.0)) / (1.0 - 1.0 / (b + 1.0))
        beta_fun = math.gamma(b + 1.0) ** 2 / math.gamma(2.0 * b + 2.0)
        es2 = (1.0 / (2.0 * b + 1.0) + 2.0 * beta_fun * es) / (1.0 - 1.0 / (2.0 * b + 1.0))
        return es2 / (2.0 * b + 1.0)

    def tagged(self, beta_star):
        b = beta_star

        def sample_eta(rng, n):
            # density x^(b-1)(1-x): rejection from b x^(b-1), accept w.p. 1-x
            out = np.empty(n)
            need = np.arange(n)
            while need.size:
                x = rng.uniform(size=need.size) ** (1.0 / b)
                acc = rng.uniform(size=need.size) < 1.0 - x
                out[need[acc]] = x[acc]
                need = need[~acc]
            return out

        def sample_eta0(rng, n):
            # density [x^(b-1)/b - x^b/(b+1)] / psi'(b*): rejection from
            # b x^(b-1) with acceptance 1 - b x/(b+1)
            out = np.empty(n)
            need = np.arange(n)
            while need.size:
                x = rng.uniform(size=need.size) ** (1.0 / b)
                acc = rng.uniform(size=need.size) < 1.0 - b * x / (b + 1.0)
                out[need[acc]] = x[acc]
                need = need[~acc]
            return out

        def eta_cdf(x):
            x = np.clip(x, 0.0, 1.0)
            # integral of u^(b-1) - u^b; total mass phi(b*) = 1
            return x**b / b - x ** (b + 1.0) / (b + 1.0)

        return TaggedLaw(self, b, sample_eta, sample_eta0, eta_cdf)


class StickBreakingConservative(_StickBreakingBase):
    """Rank the sizes (1-U_j) prod_{k<j} U_k, j >= 0: nothing is lost.
    phi(beta) = 1/beta, beta_star = 1, sigma has density 1/x."""

    kind = "StickBreakingConservative"
    power_terms = ((1.0, 0.0),)
    conservative = True
    _lossy = False

    def _phi(self, beta):
        return 1.0 / beta

    def phi_mp(self, beta):
        return 1 / mp.mpmathify(beta)

    def _phi_prime(self, beta):
        return -1.0 / beta**2

    def _beta_star_exact(self):
        return 1.0

    def offspring_square_mean(self, beta_star):
        return 1.0


@dataclass(frozen=True, eq=False)
class DirichletPolynomial(ReproductionLaw):
    """sigma(dx) = sum_j lam_j x^(theta_j - 1) dx, phi = sum_j lam_j/(theta_j+beta).

    Sampling needs every lam_j >= 0 and theta_j > 0 (general signed
    polynomials stay analytics-only).  The sampler draws one child from the
    normalised intensity and Poisson(total mass - 1) extras from it.
    """

    terms: tuple
    kind = "DirichletPolynomial"

    def __post_init__(self):
        terms = tuple((float(l), float(t)) for l, t in self.terms)
        if not terms:
            raise ValueError("need at least one term")
        object.__setattr__(self, "terms", terms)

    @property
    def power_terms(self):
        return self.terms

    def _key(self):
        return self.terms

    @cached_property
    def has_sampler(self):
        return all(l >= 0 and t > 0 for l, t in self.terms) and self._total_mass() > 1.0

    def _total_mass(self):
        if any(t <= 0 for _, t in self.terms):
            return math.inf
        return sum(l / t for l, t in self.terms)

    @cached_property
    def _mixture(self):
        """Component probabilities and 1/theta_j of the normalised intensity."""
        w = np.array([l / t for l, t in self.terms])
        return w / w.sum(), 1.0 / np.array([t for _, t in self.terms])

    def _draw_factors(self, rng, n):
        """n i.i.d. child factors from the normalised intensity."""
        probs, inv_thetas = self._mixture
        comp = rng.choice(probs.size, size=n, p=probs) if probs.size > 1 else 0
        return rng.uniform(size=n) ** inv_thetas[comp]

    def offspring_batch(self, rng, sizes, floor, beta_star):
        if not self.has_sampler:
            raise UnsupportedSampler(
                f"{self.kind} sampler needs lam_j >= 0, theta_j > 0, mass > 1"
            )
        counts = 1 + rng.poisson(self._total_mass() - 1.0, size=sizes.size)
        owner = np.repeat(np.arange(sizes.size), counts)
        kids = sizes[owner] * self._draw_factors(rng, owner.size)
        return kids, owner, np.zeros(sizes.size)

    def offspring_square_mean(self, beta_star):
        # one draw A from the normalised intensity plus a Poisson functional B
        # of the rest: E(A+B)^2 = phi1(2b) + 2 phi1(b) phi2(b) + phi2(2b) + phi2(b)^2
        if not self.has_sampler:
            return None
        b = beta_star
        w = self._total_mass()
        phi1 = lambda s: self._phi(s) / w        # normalised intensity
        phi2 = lambda s: self._phi(s) * (1.0 - 1.0 / w)
        return phi1(2 * b) + 2 * phi1(b) * phi2(b) + phi2(2 * b) + phi2(b) ** 2

    def __repr__(self):
        return f"DirichletPolynomial(terms={self.terms})"


@dataclass(frozen=True, eq=False, init=False)
class FilippovPower(DirichletPolynomial):
    """Power-density law sigma(dx) = lam x^(theta-1) dx on ]0,1]: the one-term
    DirichletPolynomial.

    phi(beta) = lam/(theta+beta), abscissa -theta, beta_star = lam - theta.
    Sampling (theta > 0, lam > theta) draws one child from the probability
    theta x^(theta-1) dx plus Poisson((lam-theta)/theta) i.i.d. extras.
    theta <= 0 keeps the Mellin data only (the intensity is infinite near 0).
    """

    kind = "FilippovPower"

    def __init__(self, lam, theta):
        if lam <= 0:
            raise ValueError("lam must be positive")
        if theta > 0 and lam <= theta:
            raise ValueError("theta > 0 requires lam > theta (supercritical law)")
        super().__init__(terms=((lam, theta),))

    @property
    def lam(self):
        return self.terms[0][0]

    @property
    def theta(self):
        return self.terms[0][1]

    def __repr__(self):
        return f"FilippovPower(lam={self.lam}, theta={self.theta})"


@dataclass(frozen=True, eq=False)
class UserAtomic(ReproductionLaw):
    """Finitely many possible child-size sets, chosen with given probabilities.

    ``groups`` is ((prob, (sizes...)), ...); probabilities sum to 1.  The
    structural measure is atomic, beta_a = -inf; the arithmetic flag is
    *detected* (common-ratio test) rather than declared.
    """

    groups: tuple
    kind = "UserAtomic"
    has_sampler = True

    def __post_init__(self):
        gs = []
        for p, sizes in self.groups:
            sizes = tuple(sorted((float(x) for x in sizes if x > 0), reverse=True))
            if any(x > 1.0 for x in sizes):
                raise ValueError("child sizes must lie in [0,1]")
            gs.append((float(p), sizes))
        if abs(sum(p for p, _ in gs) - 1.0) > 1e-12:
            raise ValueError("group probabilities must sum to 1")
        object.__setattr__(self, "groups", tuple(gs))
        object.__setattr__(self, "atoms", self._collect_atoms())
        # batch sampler tables: the cumulative probability that ends each
        # group but the last, and the groups' sizes as zero-padded rows
        width = max(len(s) for _, s in gs)
        object.__setattr__(self, "_group_ends", np.cumsum([p for p, _ in gs])[:-1])
        object.__setattr__(self, "_rows", np.array([s + (0.0,) * (width - len(s)) for _, s in gs]))
        object.__setattr__(self, "_in_row", np.arange(width) < [[len(s)] for _, s in gs])
        if self.atom_mass_at_one >= 1.0:
            raise ValueError("need sigma{1} < 1 (children of size 1 cannot dominate)")

    def _collect_atoms(self):
        acc = {}
        for p, sizes in self.groups:
            for x in sizes:
                acc[x] = acc.get(x, 0.0) + p
        return tuple(sorted(acc.items()))

    def _key(self):
        return self.groups

    def _detect_arithmetic(self):
        return arithmetic_check(self)

    @property
    def conservative(self):
        return all(abs(sum(s) - 1.0) < 1e-12 for _, s in self.groups)

    def offspring_batch(self, rng, sizes, floor, beta_star):
        # a parent takes the first group whose cumulative probability exceeds
        # its uniform, the last one if none does (as rounding may leave)
        g = np.searchsorted(self._group_ends, rng.random(sizes.size), side="right")
        in_row = self._in_row[g]
        owner = in_row.nonzero()[0]  # row-major: each parent's children in turn
        return sizes[owner] * self._rows[g][in_row], owner, np.zeros(sizes.size)

    def offspring_square_mean(self, beta_star):
        return sum(p * sum(x**beta_star for x in s) ** 2 for p, s in self.groups)

    def tagged(self, beta_star):
        xs = np.array([x for x, _ in self.atoms])
        w = np.array([wt * x**beta_star for x, wt in self.atoms])
        w = w / w.sum()

        def sample_eta(rng, n):
            return xs[rng.choice(len(xs), size=n, p=w)]

        def eta_cdf(x):
            x = np.asarray(x, dtype=float)
            return np.array([w[xs <= xx].sum() for xx in np.atleast_1d(x)]).reshape(x.shape)

        # eta0 = V^U with U uniform and V drawn from sigma_hat biased by -log V
        logw = w * (-np.log(xs))
        if logw.sum() <= 0:
            raise UnsupportedTilt("tagged first factor undefined: all atoms at 1")
        logw = logw / logw.sum()

        def sample_eta0(rng, n):
            v = xs[rng.choice(len(xs), size=n, p=logw)]
            return v ** rng.uniform(size=n)

        return TaggedLaw(self, beta_star, sample_eta, sample_eta0, eta_cdf)

    def __repr__(self):
        return f"UserAtomic(groups={self.groups})"


# -- Poisson-construction components ----------------------------------------

@dataclass(frozen=True)
class PowerComponent:
    """Measure mass * theta * x^(theta-1) dx on ]0,1] (probability iff mass=1)."""

    mass: float
    theta: float
    atoms = ()

    def __post_init__(self):
        if self.theta <= 0 or self.mass < 0:
            raise InvalidIntensity("power component needs theta > 0, mass >= 0")

    @property
    def power_terms(self):
        return ((self.mass * self.theta, self.theta),)

    def mellin(self, beta):
        return self.mass * self.theta / (self.theta + beta)

    def sample(self, rng, n):
        return rng.uniform(size=n) ** (1.0 / self.theta)


@dataclass(frozen=True)
class AtomComponent:
    """Finite atomic measure ((x, weight), ...)."""

    atoms: tuple
    power_terms = ()

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        if any(not (0 < x <= 1) or w < 0 for x, w in atoms):
            raise InvalidIntensity("atoms need 0 < x <= 1 and weight >= 0")
        object.__setattr__(self, "atoms", atoms)

    @property
    def mass(self):
        return sum(w for _, w in self.atoms)

    def mellin(self, beta):
        return sum(w * x**beta for x, w in self.atoms)

    def sample(self, rng, n):
        xs = np.array([x for x, _ in self.atoms])
        w = np.array([wt for _, wt in self.atoms])
        return xs[rng.choice(len(xs), size=n, p=w / w.sum())]


@dataclass(frozen=True, eq=False)
class UserPoisson(ReproductionLaw):
    """Offspring = one draw from sigma1 plus a Poisson point process with
    intensity sigma2; the structural measure is sigma1 + sigma2.

    sigma1 must be a probability (mass 1); sigma2 finite.  Any decomposition
    of a target sigma into a probability part and a finite intensity yields
    the prescribed intensity (not a canonical joint law).
    """

    sigma1: object
    sigma2: object
    kind = "UserPoisson"
    has_sampler = True

    def __post_init__(self):
        if abs(self.sigma1.mass - 1.0) > 1e-12:
            raise InvalidIntensity("sigma1 must be a probability measure")
        if not math.isfinite(self.sigma2.mass):
            raise InvalidIntensity("sigma2 must be finite (truncate first)")
        parts = (self.sigma1, self.sigma2)
        object.__setattr__(self, "power_terms", sum((c.power_terms for c in parts), ()) or None)
        object.__setattr__(self, "atoms", sum((c.atoms for c in parts), ()) or None)

    def _key(self):
        return (self.sigma1, self.sigma2)

    def offspring_batch(self, rng, sizes, floor, beta_star):
        n = sizes.size
        counts = 1 + rng.poisson(self.sigma2.mass, size=n)
        owner = np.repeat(np.arange(n), counts)
        # each parent's first child comes from sigma1, the rest from sigma2
        first = np.zeros(owner.size, dtype=bool)
        first[np.cumsum(counts) - counts] = True
        factors = np.empty(owner.size)
        factors[first] = self.sigma1.sample(rng, n)
        if owner.size > n:
            factors[~first] = self.sigma2.sample(rng, owner.size - n)
        return sizes[owner] * factors, owner, np.zeros(n)

    def offspring_square_mean(self, beta_star):
        b = beta_star
        p1 = self.sigma1.mellin(b)
        p2 = self.sigma2.mellin(b)
        return self.sigma1.mellin(2 * b) + 2 * p1 * p2 + self.sigma2.mellin(2 * b) + p2**2

    def __repr__(self):
        return f"UserPoisson(sigma1={self.sigma1}, sigma2={self.sigma2})"


@dataclass(frozen=True, eq=False)
class DensityLaw(ReproductionLaw):
    """Analytics-only law given by a structural density on ]0, support_right].

    phi is computed by quadrature after the substitution x = e^u, which turns
    algebraic endpoint behaviour into exponential decay.  ``integrand_u``,
    when given, evaluates x^(beta+1) * density(x) at x = e^u in log space
    (stable where the raw density overflows near 0).  No sampler.
    """

    density: callable = field(hash=False)
    beta_a_value: float = 0.0
    support_right: float = 1.0
    name: str = "DensityLaw"
    integrand_u: callable = field(default=None, hash=False)

    kind = "DensityLaw"

    def _key(self):
        return (id(self.density), self.beta_a_value, self.support_right)

    @property
    def beta_a(self):
        return self.beta_a_value

    def _phi(self, beta):
        if np.iscomplexobj(beta) or isinstance(beta, complex):
            re = self._quad(np.real(beta), np.imag(beta), "re")
            im = self._quad(np.real(beta), np.imag(beta), "im")
            return re + 1j * im
        return self._quad(float(beta), 0.0, "re")

    def _quad(self, br, bi, part):
        top = math.log(self.support_right)
        if self.integrand_u is not None:
            base = lambda u: self.integrand_u(u, br)
        else:
            base = lambda u: math.exp(u * (br + 1.0)) * self.density(math.exp(u))

        def f(u):
            ang = bi * u
            return base(u) * (math.cos(ang) if part == "re" else math.sin(ang))

        val, err = integrate.quad(f, -np.inf, top, limit=400)
        if not math.isfinite(val) or err > 1e-7 * max(1.0, abs(val)):
            raise NoQuadrature(f"{self.name}: quadrature failed (err {err:g})")
        return val


def no_malthusian_example(c=None):
    """Density c x^(-3/2) |log x|^(-2) on ]0, 1/2[: abscissa 1/2, and
    phi(1/2+) = c/log 2 < 1 for c < log 2, so no Malthusian exponent exists."""
    if c is None:
        c = 0.5 * math.log(2.0)

    def dens(x):
        return c * x ** (-1.5) / math.log(x) ** 2 if 0 < x < 0.5 else 0.0

    def integrand_u(u, br):
        # x^(br+1) * density = c * exp(u (br - 1/2)) / u^2 at x = e^u < 1/2
        return c * math.exp(u * (br - 0.5)) / (u * u) if u < -math.log(2.0) else 0.0

    return DensityLaw(
        density=dens,
        beta_a_value=0.5,
        support_right=0.5,
        name="no-root example",
        integrand_u=integrand_u,
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _beta_star_newton(law):
    """Cheap cached beta_star for truncation bookkeeping inside samplers."""
    cached = getattr(law, "_bs_cache", None)
    if cached is not None:
        return cached
    bs = malthusian_exponent(law, tol=1e-12)
    object.__setattr__(law, "_bs_cache", bs)
    return bs


def malthusian_exponent(law, tol=1e-12):
    """Unique real root beta_star > beta_a of phi(beta) = 1.

    phi is strictly decreasing on the real axis with phi -> sigma{1} < 1, so
    bracketing is safe: expand the right endpoint geometrically from
    max(beta_a + eps, 0), then solve with Brent's method and polish until
    |phi - 1| <= 10 * tol.  Raises NoMalthusianExponent when phi(beta_a+) < 1.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    f = lambda b: law.phi(b) - 1.0

    if math.isfinite(law.beta_a):
        left = None
        eps = max(1e-4 * max(1.0, abs(law.beta_a)), 1e-4)
        probe = None
        for _ in range(8):
            probe = law.beta_a + eps
            val = f(probe)
            if val > 0:
                left = probe
                break
            eps /= 16.0
        if left is None:
            raise NoMalthusianExponent(
                f"phi({probe:.6g}) = {1.0 + val:.6g} < 1: no root right of the "
                f"abscissa {law.beta_a:g}",
                phi_at_abscissa=1.0 + val,
            )
        if law.beta_a < 0 and f(0.0) > 0:
            left = 0.0
    else:
        left = 0.0
        if f(left) <= 0:  # phi(0) <= 1 violates E #children > 1
            raise NoMalthusianExponent(
                f"phi(0) = {law.phi(0.0):.6g} <= 1", phi_at_abscissa=law.phi(0.0)
            )

    width = 1.0
    for _ in range(200):
        if f(left + width) < 0:
            break
        left, width = left + width, 2.0 * width
    else:
        raise NoMalthusianExponent("phi stayed above 1 during bracket expansion")
    right = left + width

    root = optimize.brentq(f, left, right, xtol=0.5 * tol, rtol=8.9e-16)
    # Newton polish: tighten |phi - 1| below 10*tol regardless of slope scale
    for _ in range(4):
        resid = f(root)
        if abs(resid) <= 5.0 * tol:
            break
        slope = -law.psi_prime(root)
        if slope == 0:
            break
        root -= resid / slope
    return root


def arithmetic_check(law):
    """True iff all atoms of a finite atomic law sit on a geometric grid.

    Pairwise log-ratios are reconstructed as rationals with denominator <= 64;
    a relative mismatch above 1e-9 (or an unreachable denominator) means the
    support is not geometric.
    """
    atoms = law.sigma_atoms()
    if atoms is None:
        raise DomainError("arithmetic_check needs a finite atomic law")
    logs = [math.log(x) for x, _ in atoms if x < 1.0]
    if len(logs) <= 1:
        return True
    ref = max(logs)  # smallest magnitude (logs are negative)
    ratios = [l / ref for l in logs]
    fracs = []
    for t in ratios:
        fr = Fraction(t).limit_denominator(64)
        if abs(t - float(fr)) > 1e-9 * abs(t):
            return False
        fracs.append(fr)
    lcm = 1
    for fr in fracs:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    g = ref / lcm
    for l in logs:
        k = round(l / g)
        if k <= 0 or abs(l - k * g) > 1e-9 * abs(l) + 1e-15:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON law specifications (CLI contract)
# ---------------------------------------------------------------------------

_SPEC_KINDS = {
    "BinaryUniformConservative",
    "StickBreakingLossy",
    "StickBreakingConservative",
    "FilippovPower",
    "DirichletPolynomial",
    "UserAtomic",
    "UserPoisson",
}


def _component_from_spec(spec, what):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise LawSpecError(f"{what}: expected an object with a 'kind' field")
    kind = spec["kind"]
    extra = set(spec) - {"kind", "mass", "theta", "atoms"}
    if extra:
        raise LawSpecError(f"{what}: unknown fields {sorted(extra)}")
    if kind == "power":
        return PowerComponent(mass=float(spec.get("mass", 1.0)), theta=float(spec["theta"]))
    if kind == "atoms":
        return AtomComponent(atoms=tuple((float(x), float(w)) for x, w in spec["atoms"]))
    raise LawSpecError(f"{what}: unknown component kind {kind!r}")


def from_spec(doc):
    """Build a law from a JSON document {"kind": ..., "params": {...}}.

    Optional top-level overrides: "arithmetic_flag" (bool), "beta_a" (float).
    Unknown fields anywhere are rejected.
    """
    if not isinstance(doc, dict):
        raise LawSpecError("law spec must be a JSON object")
    extra = set(doc) - {"kind", "params", "arithmetic_flag", "beta_a"}
    if extra:
        raise LawSpecError(f"unknown top-level fields {sorted(extra)}")
    kind = doc.get("kind")
    if kind not in _SPEC_KINDS:
        raise LawSpecError(f"unknown law kind {kind!r}; expected one of {sorted(_SPEC_KINDS)}")
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise LawSpecError("'params' must be an object")

    def reject_unknown(allowed):
        bad = set(params) - allowed
        if bad:
            raise LawSpecError(f"{kind}: unknown params {sorted(bad)}")

    try:
        if kind == "BinaryUniformConservative":
            reject_unknown(set())
            law = BinaryUniformConservative()
        elif kind == "StickBreakingLossy":
            reject_unknown(set())
            law = StickBreakingLossy()
        elif kind == "StickBreakingConservative":
            reject_unknown(set())
            law = StickBreakingConservative()
        elif kind == "FilippovPower":
            reject_unknown({"lam", "theta"})
            law = FilippovPower(lam=float(params["lam"]), theta=float(params["theta"]))
        elif kind == "DirichletPolynomial":
            reject_unknown({"terms"})
            law = DirichletPolynomial(terms=tuple((float(l), float(t)) for l, t in params["terms"]))
        elif kind == "UserAtomic":
            reject_unknown({"groups"})
            groups = tuple(
                (float(g["prob"]), tuple(float(x) for x in g["sizes"])) for g in params["groups"]
            )
            law = UserAtomic(groups=groups)
        else:  # UserPoisson
            reject_unknown({"sigma1", "sigma2"})
            law = UserPoisson(
                sigma1=_component_from_spec(params["sigma1"], "sigma1"),
                sigma2=_component_from_spec(params["sigma2"], "sigma2"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise LawSpecError(f"{kind}: bad params ({exc})") from exc

    # set before the law escapes: the overrides are part of its identity
    if "arithmetic_flag" in doc:
        object.__setattr__(law, "arithmetic_override", bool(doc["arithmetic_flag"]))
    if "beta_a" in doc:
        object.__setattr__(law, "beta_a_override", float(doc["beta_a"]))
    return law


def load_spec(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return from_spec(json.load(fh))
