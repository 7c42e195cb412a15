"""Closed-form and numerical analytics for mean power sums.

For a fragmentation with self-similarity index alpha and reproduction law
with Mellin transform phi, the mean power sum m(t, beta) = E sum_j X_j^beta(t)
solves

    d/dt m(t, beta) = -m(t, beta) + integral_0^1 m(x^alpha t, beta) x^beta sigma(dx),
    m(0, beta) = 1,

and expands as the entire series m(t, beta) = sum_n (-t)^n/n! * g(n, beta)
with g(n, beta) = prod_{k<n} psi(beta + alpha k), psi = 1 - phi.  This module
evaluates:

* g(n, beta) exactly and its extrapolation g(z, beta) to complex z as the
  infinite product prod_k psi(beta+alpha k)/psi(beta+alpha(k+z)), accelerated
  with an Euler-Maclaurin tail;
* the series at a precision read off its largest term before summing (the
  terms alternate and lose about t/ln 10 digits to cancellation), each pass
  summing in fixed point (Python integers over a common power of two, as
  mpmath's own hypergeometric summation does), verified by a second pass 64
  bits higher and capped at MAX_SERIES_BITS.  For a real beta and a law whose
  sigma is made of power terms only, psi(beta + alpha n) is an exact ratio
  of integers read from the declared measure; a complex beta, atoms or a
  law with no declared measure take psi from the law's ``phi_mp``;
* the integro-differential equation by a causal method of steps, whose
  query geometry at the quadrature nodes is built in blocks of up to 32
  steps, each block's steps solved as one linear system (independent
  cross-check of the series);
* the leading large-t asymptotics m(t,beta) ~ C(beta) t^((beta*-beta)/alpha)
  through the residue coefficient C, and the limit-measure moments
  int x^(alpha k) rho(dx) = (k-1)!/(alpha psi'(beta*)) prod_{j<k} 1/psi(beta*+alpha j);
* closed forms for every law whose sigma is made of power terms, so that psi
  is a ratio of monic polynomials (``rational_*``): m as the hypergeometric
  pFp(a; b; -t), g(z, beta) and C(beta) as gamma-function ratios, the rho
  moments as Pochhammer ratios, and the gamma-type CDF of rho when psi has
  a single pole.  They are independent of the general paths above, which
  serve as their oracles.

scipy is imported on first use, only where it is called: the Gauss-Jacobi
rule of ``m_integro``, the gamma function of ``asymptotic_coefficient`` (in
doubles), the gamma and log-gamma functions of ``rational_gamma`` and
``rational_coefficient``, and the incomplete gamma function of ``rho_cdf``.
Importing the module loads numpy and mpmath.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import (
    ArithmeticLaw,
    DomainError,
    NoClosedForm,
    PoleError,
    PrecisionExhausted,
    SingularBeta,
    UnsupportedRepresentation,
)
from .laws import FilippovPower, malthusian_exponent


#: the Malthusian exponent under its older analytics name
beta_star_of = malthusian_exponent


# ---------------------------------------------------------------------------
# input domains
# ---------------------------------------------------------------------------

def _check_alpha(alpha, positive):
    """DomainError unless alpha is finite and >= 0 (> 0 when ``positive``); NaN fails."""
    if not ((alpha > 0 if positive else alpha >= 0) and alpha < math.inf):
        raise DomainError(f"alpha must be finite and {'>' if positive else '>='} 0, got {alpha}")


def _check_beta(law, beta):
    """DomainError unless beta is finite with Re beta > beta_a; NaN fails."""
    if not cmath.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    if not np.real(beta) > law.beta_a:
        raise DomainError(f"Re beta = {np.real(beta)} <= abscissa {law.beta_a}")


# ---------------------------------------------------------------------------
# finite products
# ---------------------------------------------------------------------------

def gamma_n(law, n, beta, alpha):
    """g(n, beta) = prod_{k=0}^{n-1} psi(beta + alpha k); g(0, beta) = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1.0 + 0.0j if np.iscomplexobj(beta) or isinstance(beta, complex) else 1.0
    for k in range(n):
        out = out * law.psi(beta + alpha * k)
    return out


# ---------------------------------------------------------------------------
# adaptive-precision series
# ---------------------------------------------------------------------------

@dataclass
class SeriesEvaluation:
    """Value of m(t, beta) with precision and cancellation diagnostics.

    ``cancellation_digits_lost`` = log10(max term / |value|): the alternating
    series loses about t/ln 10 digits, which is why the summation carries
    that many bits more than the answer needs.  ``max_term_magnitude`` is the
    largest |term| as a double, ``inf`` past 1.8e308 (from t near 700 on);
    ``max_term_log2`` is its log2, finite at every t the series reaches.
    ``working_precision_bits`` is
    the precision of the accepted pass; in the diagnostics of
    PrecisionExhausted it is the pass that would have come next.  The passes
    sum in fixed point; ``mp_value`` is the accepted pass's total rounded to
    ``working_precision_bits`` bits (an mpmath mpf, or mpc for complex beta),
    for downstream big-float work.
    """

    value: complex
    working_precision_bits: int
    terms_used: int
    max_term_magnitude: float
    max_term_log2: float
    cancellation_digits_lost: float
    mp_value: object = None


#: no pass of m_series runs at more bits than this
MAX_SERIES_BITS = 4096
#: the verifying pass carries this many bits more than the main one
_VERIFY_BITS = 64
#: bits kept beyond log2(1/rel_tol) once the cancellation is paid for
_GUARD_BITS = 32


def _psi_ratios(law, beta, alpha):
    """psi(beta + alpha n) = num/den for n = 0, 1, ..., as exact integers, or None.

    Defined when sigma is made of power terms only and beta is a real int or
    float right of their abscissa -min theta_j: beta, alpha and every
    (lam_j, theta_j) are dyadic rationals, so over their common denominator
    2^e, with D_j = (beta + theta_j + alpha n) 2^e > 0 and L_j = lam_j 2^e,
    psi = 1 - sum_j L_j/D_j = num/den with den = prod_j D_j > 0 and num =
    den - sum_j L_j den/D_j, which is 0 exactly where beta + alpha n is a
    root of psi.  num and den are polynomials of degree J = len(sigma's
    terms) in n: their forward differences at n = 0 step them by additions
    alone.  Any other law, and a complex beta, returns None: its psi comes
    from ``phi_mp``.
    """
    terms = law.power_terms
    if (law.atoms or not terms or not isinstance(beta, (int, float))
            or not beta > -min(theta for _, theta in terms)):
        return None
    ratios = [float(x).as_integer_ratio() for x in (beta, alpha, *(x for lt in terms for x in lt))]
    e = max(d.bit_length() for _, d in ratios)
    b, a, *rest = (p << (e - d.bit_length()) for p, d in ratios)
    lams, thetas = rest[0::2], rest[1::2]

    def at(n):
        ds = [b + theta + n * a for theta in thetas]
        den = math.prod(ds)
        return den - sum(lam * (den // d) for lam, d in zip(lams, ds)), den

    nums, dens = zip(*(at(n) for n in range(len(thetas) + 1)))
    return _stepped(_differences(nums), _differences(dens))


def _differences(values):
    """[p(0), delta p(0), delta^2 p(0), ...] of a polynomial from p(0), ..., p(deg)."""
    out = []
    while values:
        out.append(values[0])
        values = [v1 - v0 for v0, v1 in zip(values, values[1:])]
    return out


def _stepped(nums, dens):
    """Yield (nums[0], dens[0]) and step both forward-difference lists, without end."""
    steps = range(len(nums) - 1)
    while True:
        yield nums[0], dens[0]
        for i in steps:
            nums[i] += nums[i + 1]
            dens[i] += dens[i + 1]


def _psi_mp(law, beta, alpha):
    """psi(beta + alpha n) = 1 - phi_mp(beta + alpha n), n = 0, 1, ..., at the ambient precision."""
    bm = mp.mpmathify(beta)
    am = mp.mpmathify(alpha)
    n = 0
    while True:
        yield 1 - law.phi_mp(bm + am * n)
        n += 1


def _gamma_n_mp(law, n, beta, alpha):
    """g(n, beta) at the ambient precision: the product of ``_psi_mp``'s first n factors."""
    return math.prod(itertools.islice(_psi_mp(law, beta, alpha), n), start=mp.mpf(1))


def _mpf_fixed(x, bits):
    """The mpf x as an integer scaled by 2^bits, truncated towards zero."""
    sign, man, exp, _ = x._mpf_
    off = exp + bits
    v = man << off if off >= 0 else man >> -off
    return -v if sign else v


def _series_sum_mp(law, t, beta, alpha):
    """One summation pass at the ambient mpmath precision prec, in fixed point.

    The term and the running total are Python integers scaled by a common
    2^F.  F starts at prec + 16, and whenever a new largest term outgrows
    prec + 32 bits, both are shifted down so that it carries prec + 16: a
    growing term keeps prec + 16 to prec + 32 bits, and once the terms
    decay, each step rounds by one unit of 2^-F, 2^-(prec+16) of the
    largest term or less.  (A single F read off the largest term would leave
    the leading terms too few bits where they share a sign and do not
    cancel, as for a negative psi at small alpha.)

    For a real beta and a law of power terms only, psi_n = psi(beta + alpha
    n) is ``_psi_ratios``' exact num/den and the next term is the one floor
    term * num * (-t) // (den (n + 1)): small integer factors, one rounding.
    Otherwise (complex beta, atoms, no declared measure) psi_n is 1 -
    phi_mp(beta + alpha n) at prec bits, converted exactly to psi_bits =
    prec + 16 fractional bits (while |psi_n| >= 2^-16).  t enters as its
    mantissa and exponent, and the division by n + 1 is one floor division.
    A complex beta carries the term as a pair of integers and compares
    |term|^2.  The pass stops at an exactly zero psi_n (singular beta: the
    series terminated), after ten consecutive terms below 2^(1-prec) times
    the largest one, or at 200000 terms.  Returns (total, terms read,
    largest |term|), the total and |term| as mpmath numbers rounded to prec
    bits.
    """
    prec = mp.mp.prec
    psi_bits = frac = prec + 16
    cplx = isinstance(mp.mpmathify(beta), mp.mpc)
    ratios = _psi_ratios(law, beta, alpha)
    if ratios is not None:
        psis = ((num, den) if num else None for num, den in ratios)
    elif cplx:
        psis = ((_mpf_fixed(psi.real, psi_bits), _mpf_fixed(psi.imag, psi_bits))
                if psi else None for psi in _psi_mp(law, beta, alpha))
    else:
        psis = ((_mpf_fixed(psi, psi_bits), 1) if psi else None
                for psi in _psi_mp(law, beta, alpha))
    _, neg_tm, te, _ = mp.mpf(t)._mpf_
    neg_tm = -neg_tm
    # term * num * t mantissa / den back to 2^F; phi_mp's num has psi_bits, den = 1
    shift = (0 if ratios is not None else psi_bits) - te
    if shift < 0:
        neg_tm <<= -shift
        shift = 0
    # |term| below 2^(1-prec) max |term|; a complex one compares |term|^2
    small_shift = 2 * prec - 2 if cplx else prec - 1
    top = 2 * (prec + 32) if cplx else prec + 32
    tr = 1 << frac
    ti = total_r = total_i = 0
    max_a = small = 0
    consec = 0
    n = 0
    while n < 200000:
        total_r += tr
        total_i += ti
        a = tr * tr + ti * ti if cplx else abs(tr)
        if a > max_a:
            if a >> top:
                k = (a.bit_length() - top) // (2 if cplx else 1) + 16
                tr >>= k
                ti >>= k
                total_r >>= k
                total_i >>= k
                frac -= k
                a = tr * tr + ti * ti if cplx else abs(tr)
            max_a = a
            small = (max_a - 1) >> small_shift
        if a <= small:  # a tail term that rounded to 0 counts here too
            consec += 1
            if consec >= 10:
                break
        else:
            consec = 0
        psi = next(psis)
        n += 1
        if psi is None:  # singular beta: the series terminated exactly
            break
        if cplx:
            pr, pi = psi
            tr, ti = (((x * neg_tm) >> shift) // n for x in (tr * pr - ti * pi, tr * pi + ti * pr))
        else:  # one floor of the exact product: nested floors by positive integers compose
            num, den = psi
            tr = ((tr * (num * neg_tm)) >> shift) // (den * n)
    total = mp.mpf((total_r, -frac))
    if cplx:
        return (mp.mpc(total, mp.mpf((total_i, -frac))), n + 1,
                mp.sqrt(mp.mpf((max_a, -2 * frac))))
    return total, n + 1, mp.mpf((max_a, -frac))


def _series_log2_max_term(law, t, beta, alpha):
    """(log2 of the largest term, terms read), from a pass over log |term|.

    The terms are products, so their logarithms are accurate at double
    precision even where the alternating sum keeps no correct bit.  log
    |psi_n| is log |num| - log den from the same exact ``_psi_ratios`` as
    the summation where those exist, else it comes from ``phi_mp`` at 53
    bits.  The pass stops once ten consecutive terms lie 2^16 below the
    largest: a later regrowth past it would show in the summation's measured
    loss.
    """
    with mp.workprec(53):
        ratios = _psi_ratios(law, beta, alpha)
        if ratios is not None:
            logs = (math.log(abs(num)) - math.log(den) if num else None for num, den in ratios)
        else:
            logs = (_log_abs(psi) if psi else None for psi in _psi_mp(law, beta, alpha))
        log_t = math.log(t)
        cut = 16 * math.log(2.0)
        log_term = log_max = 0.0
        consec = 0
        n = 0
        while n < 200000:
            log_psi = next(logs)
            if log_psi is None:  # singular beta: the series terminated exactly
                break
            log_term += log_t - math.log(n + 1) + log_psi
            if log_term > log_max:
                log_max = log_term
            if log_term < log_max - cut:
                consec += 1
                if consec >= 10:
                    break
            else:
                consec = 0
            n += 1
    return log_max / math.log(2.0), n + 1


def _log_abs(x):
    """log |x| of an mpmath number, in doubles where |x| is a positive finite double."""
    a = abs(complex(x))
    return math.log(a) if 0.0 < a < math.inf else float(mp.log(abs(x)))


def _log2(x):
    """log2 of a positive mpf, from its mantissa and exponent (finite at any size)."""
    _, man, exp, _ = x._mpf_
    return math.log2(man) + exp


def m_series(law, t, beta, alpha, rel_tol=1e-12, start_bits=128):
    """Sum the power series for m(t, beta) at the precision its cancellation needs.

    The alternating sum loses about log2(max term) bits, and a double-precision
    pass over log |term| reads that off before any big-float summation.  The
    series is then summed at p = max(start_bits, log2(max term) +
    log2(1/rel_tol) + 32) bits and verified by one pass at p + 64 bits, each
    in fixed point (``_series_sum_mp``) with psi at the pass's precision and
    none shared between the passes: for a real beta and a law of power terms
    only an exact ratio num/den, entering each term as one floor division by
    den (n + 1), else ``phi_mp`` at the pass's bits + 16, in the probe and in
    both passes alike.  ``mp_value`` is the verifying pass's total rounded to
    p + 64 bits, and ``max_term_log2`` the log2 of its largest term (of the
    probe's, in PrecisionExhausted's diagnostics when no pass ran).  The two
    evaluations must agree to ``rel_tol``, and the accepted (p + 64)-bit one
    must keep log2(1/rel_tol) + 32 bits after the measured loss log2(max
    term / |value|); otherwise p rises and both passes repeat.
    ``start_bits`` is a floor on p.  Raises PrecisionExhausted (with
    diagnostics attached) as soon as a pass would need more than
    MAX_SERIES_BITS = 4096 bits: the loss is about t log2(e) bits, so at the
    default ``rel_tol`` usable t ends near 2750.  Raises DomainError unless
    0 <= alpha < inf and beta is finite with Re beta > beta_a.
    """
    _check_alpha(alpha, positive=False)
    _check_beta(law, beta)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol}")
    if t == 0:
        return SeriesEvaluation(1.0, start_bits, 1, 1.0, 0.0, 0.0, mp.mpf(1))

    need = math.ceil(-math.log2(rel_tol)) + _GUARD_BITS
    log2_max, probe_terms = _series_log2_max_term(law, t, beta, alpha)
    bits = max(start_bits, math.ceil(log2_max) + need)
    last = None
    while bits + _VERIFY_BITS <= MAX_SERIES_BITS:
        with mp.workprec(bits):
            prev, _, _ = _series_sum_mp(law, t, beta, alpha)
        with mp.workprec(bits + _VERIFY_BITS):
            last = total, n_terms, max_term = _series_sum_mp(law, t, beta, alpha)
            diff = abs(total - prev)
            scale = abs(total)
            lost = float(mp.log10(max_term / scale)) if scale > 0 else math.inf
        lost_bits = lost * math.log2(10.0)
        if (scale == 0 and diff == 0) or (
            diff <= rel_tol * scale and bits + _VERIFY_BITS - lost_bits >= need
        ):
            val = complex(total)
            if abs(val.imag) == 0.0:
                val = val.real
            return SeriesEvaluation(
                value=val,
                working_precision_bits=bits + _VERIFY_BITS,
                terms_used=n_terms,
                max_term_magnitude=float(max_term),
                max_term_log2=_log2(max_term),
                cancellation_digits_lost=max(lost, 0.0),
                mp_value=total,
            )
        # the measured loss sets the precision the main pass needs; a
        # disagreement it does not explain grows p by half, the last try
        # landing on the ceiling
        required = math.ceil(min(lost_bits, MAX_SERIES_BITS)) + need
        grown = max(required, bits + bits // 2)
        ceiling = MAX_SERIES_BITS - _VERIFY_BITS
        bits = ceiling if bits < ceiling and required <= ceiling < grown else grown
    raise PrecisionExhausted(
        f"series for m({t}, {beta}) not resolved within MAX_SERIES_BITS = "
        f"{MAX_SERIES_BITS} (next pass: {bits + _VERIFY_BITS} bits)",
        diagnostics=SeriesEvaluation(
            value=complex(last[0]) if last else math.nan,
            working_precision_bits=bits + _VERIFY_BITS,
            terms_used=last[1] if last else probe_terms,
            max_term_magnitude=float(last[2] if last else mp.mpf(2) ** log2_max),
            max_term_log2=_log2(last[2]) if last else log2_max,
            cancellation_digits_lost=float("nan"),
            mp_value=last[0] if last else None,
        ),
    )


# ---------------------------------------------------------------------------
# integro-differential oracle (method of steps)
# ---------------------------------------------------------------------------

@dataclass
class IntegroSolution:
    """m on a uniform grid plus a cubic-Hermite evaluator of the history."""

    ts: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    beta: float
    alpha: float
    quad_nodes: int

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= self.ts[-1])):
            raise DomainError(f"t must lie in the solved grid [0, {self.ts[-1]:g}], got {t}")
        return _hermite_eval(self.ts, self.values, self.derivatives, t)


def _hermite_eval(ts, ms, ds, tq):
    idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
    t0 = ts[idx]
    hh = ts[idx + 1] - t0
    s = np.where(hh > 0, (tq - t0) / np.where(hh > 0, hh, 1.0), 0.0)
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    return h00 * ms[idx] + hh * h10 * ds[idx] + h01 * ms[idx + 1] + hh * h11 * ds[idx + 1]


def _gauss_unit_weight(gamma_exp, n):
    """Nodes/weights for integral_0^1 u^gamma f(u) du (Gauss-Jacobi).

    Weights are renormalised so the rule integrates f = 1 exactly (scipy's
    raw weights carry ~1e-11 relative normalisation error).
    """
    from scipy import special

    x, w = special.roots_jacobi(n, 0.0, gamma_exp)
    w = w * 0.5 ** (gamma_exp + 1.0)
    return (x + 1.0) / 2.0, w * (1.0 / (gamma_exp + 1.0) / w.sum())


def m_integro(law, t_max, beta, alpha, step=None):
    """Solve the Cauchy problem for m(., beta) forward on a uniform grid.

    Causality (x <= 1 so x^alpha t <= t) makes this a method of steps: the
    integral term needs m only at earlier scaled times, read from a cubic
    Hermite interpolant with exact stored derivatives.  The x-integral folds
    the structural density's power behaviour into Gauss-Jacobi weights exactly
    (one rule per power component, merged with the atoms into one node and
    weight array).  The rule starts at 48 nodes and doubles until a check
    agrees to 1e-9 relative: the check marches the same grid's first
    ceil(n/8) steps (at least 10, at most n) with twice the nodes and is
    compared with the march at its last point, so the two differ only in
    their node counts.  PrecisionExhausted when the 384-node march and its
    768-node check still disagree.  (An atoms-only law's integral is exact
    and takes no check.)
    Each step reads the integral at t_i, t_i + h/2 and t_{i+1}.  Where those
    times fall among the nodes does not depend on m, so the cell indices and
    Hermite weights are built once per block of up to 32 steps (at most
    3072 step-node pairs).  The interpolant is linear in the block's unknown
    values and derivatives, so the block's implicit steps (integrating-factor
    Simpson rule; nodes near x = 1 read the cell being solved) are one lower
    block-triangular linear system, solved exactly by one dense solve.
    Independent of m_series by construction.  alpha must be finite and >= 0
    and ``step``, when given, finite and > 0 (DomainError otherwise); the
    returned solution refuses t outside [0, t_max].
    """
    if np.iscomplexobj(beta) or not math.isfinite(beta):
        raise ValueError("m_integro is a real-beta oracle")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if beta <= law.beta_a:
        raise DomainError(f"beta = {beta} <= abscissa {law.beta_a}")
    _check_alpha(alpha, positive=False)
    if step is not None and not 0 < step < math.inf:
        raise DomainError(f"step must be finite and > 0, got {step}")
    terms, atoms = law.power_terms, law.atoms
    if terms is None and atoms is None:
        raise UnsupportedRepresentation(f"{law.kind}: no density/atom representation")

    h = step if step is not None else min(0.005, max(t_max / 2000.0, 1e-4))
    n = max(1, int(math.ceil(t_max / h)))
    h = t_max / n
    ts = np.linspace(0.0, t_max, n + 1)
    i = min(n, max(10, -(-n // 8)))  # the check's last grid point
    n_nodes = 48
    while True:
        sol = _integro_march(ts, h, beta, alpha, terms, atoms, n_nodes)
        if terms is None:
            return sol  # atomic integral is exact
        ref = _integro_march(ts[:i + 1], h, beta, alpha, terms, atoms, 2 * n_nodes).values[i]
        gap = abs(sol.values[i] - ref)
        if gap <= 1e-9 * max(1.0, abs(ref)):
            return sol
        if 2 * n_nodes > 512:
            raise PrecisionExhausted(
                f"m_integro: the {n_nodes}-node march and its {2 * n_nodes}-node check "
                f"differ by {gap:.3g} at t = {ts[i]:g} (bound 1e-9 * max(1, |m|))"
            )
        n_nodes *= 2


def _integro_march(ts, h, beta, alpha, terms, atoms, n_nodes):
    """March m over the grid ``ts`` (uniform, step h, from 0) with an n_nodes-node rule."""
    n = len(ts) - 1
    # zeros: the end values of the cell being solved read as 0 in the history
    ms = np.zeros(n + 1)
    ds = np.zeros(n + 1)

    # one rule for the whole x-integral: I(t) = sum_k w_k m(xa_k t)
    xa, w = [], []
    if terms is not None:
        for lam, theta in terms:
            u, wq = _gauss_unit_weight(beta + (theta - 1.0), n_nodes)
            xa.append(u**alpha)
            w.append(lam * wq)
    if atoms is not None:
        xa.append(np.array([x for x, _ in atoms]) ** alpha)
        w.append(np.array([wt * x**beta for x, wt in atoms]))
    xa = np.concatenate(xa)
    w = np.concatenate(w)

    ms[0] = 1.0
    ds[0] = -1.0 + w.sum()
    eh = math.exp(-h)
    # integrating factor m(t+h) = e^-h m(t) + int_0^h e^-(h-s) I(t+s) ds with
    # the s-integral exact for quadratic I (so constants are preserved exactly):
    # moments M_k = int_0^h e^-(h-s) s^k ds via expm1-safe forms
    em = math.expm1(-h)
    M0 = -em
    A1 = -h - (1.0 + h) * em
    A2 = -2.0 * h - h * h - (2.0 + 2.0 * h + h * h) * em
    M1 = h * M0 - A1
    M2 = h * h * M0 - 2.0 * h * A1 + A2
    a, b = M1 / h, M2 / (h * h)
    W1 = 4.0 * (a - b)
    W2 = 2.0 * b - a
    W0 = M0 - W1 - W2
    # I_p for p = 0, 1, 2 at t_i, t_i + h/2 and t_{i+1}.  The query geometry
    # does not depend on m, so it is built for a block of steps at a time:
    # 32 steps, fewer once a block would pass 3072 step-node pairs (past that
    # its arrays leave the cache and the march slows).  The Hermite history
    # is linear in the block's unknowns x = (m, d) at cells i0+1..i1, so
    # I_p = F_p + G_p x, where F reads those cells as 0 and only nodes with
    # idx >= i0 reach G.  Step i's equations m_{i+1} - e^-h m_i - sum_p W_p
    # I_p = 0 and d_{i+1} + m_{i+1} - I_2 = 0 (the rows of Wm on I) form one
    # lower block-triangular system of 2 nb equations, solved at once; A0
    # holds its terms outside the integral.
    Wm = np.array([[W0, W1, W2], [0.0, 0.0, 1.0]])
    width = min(32, max(1, 3072 // len(xa)))
    A0 = np.eye(2 * width)
    A0[1::2, ::2] += np.eye(width)  # d_{i+1} + m_{i+1}
    A0[2::2, :-2:2] -= eh * np.eye(width - 1)  # m_{i+1} - e^-h m_i
    tqs = np.stack([ts[:-1], ts[:-1] + h / 2, ts[1:]], 1)
    for i0 in range(0, n, width):
        i1 = min(i0 + width, n)
        nb = i1 - i0
        tq = np.multiply.outer(tqs[i0:i1], xa)
        idx = np.minimum((tq * (1.0 / h)).astype(np.intp), np.arange(i0, i1)[:, None, None])
        s = (tq - ts[idx]) / h
        ss = s * s
        s1s1 = (1.0 - s) ** 2
        h00 = (1.0 + 2.0 * s) * s1s1
        h10 = h * s * s1s1
        h01 = ss * (3.0 - 2.0 * s)
        h11 = h * ss * (s - 1.0)
        F = (h00 * ms[idx] + h10 * ds[idx] + h01 * ms[idx + 1] + h11 * ds[idx + 1]) @ w
        # G[j, p] over the columns (m, d) of cells i0..i1; cell i0 is solved
        sel = np.flatnonzero(idx >= i0)
        jp, k = np.divmod(sel, len(xa))
        col = jp * (2 * nb + 2) + 2 * (idx.take(sel) - i0)
        hw = np.concatenate([a.take(sel) for a in (h00, h10, h01, h11)]).reshape(4, -1)
        hw *= w.take(k)
        G = np.bincount((col + np.arange(4)[:, None]).ravel(), hw.ravel(),
                        3 * nb * (2 * nb + 2)).reshape(nb, 3, 2 * nb + 2)[:, :, 2:]
        rhs = (F @ Wm.T).ravel()
        rhs[0] += eh * ms[i0]
        x = np.linalg.solve(A0[:2 * nb, :2 * nb] - (Wm @ G).reshape(2 * nb, 2 * nb), rhs)
        ms[i0 + 1:i1 + 1] = x[0::2]
        ds[i0 + 1:i1 + 1] = x[1::2]
    return IntegroSolution(ts, ms, ds, beta, alpha, n_nodes)


# ---------------------------------------------------------------------------
# derivative identity
# ---------------------------------------------------------------------------

_FD_STENCILS = {
    # (offsets, numerator coefficients, denominator): 4th-order central
    1: ((-2, -1, 1, 2), (1, -8, 8, -1), 12.0),
    2: ((-2, -1, 0, 1, 2), (-1, 16, -30, 16, -1), 12.0),
    3: ((-3, -2, -1, 1, 2, 3), (1, -8, 13, -13, 8, -1), 8.0),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1, 12, -39, 56, -39, 12, -1), 6.0),
}

_FD_FORWARD = {
    # one-sided variants for t near 0 (4th-order)
    1: ((0, 1, 2, 3, 4), (-25, 48, -36, 16, -3), 12.0),
    2: ((0, 1, 2, 3, 4, 5), (45, -154, 214, -156, 61, -10), 12.0),
}


def derivative_identity_check(law, t, beta, k, alpha, h=0.01):
    """Relative residual of d^k/dt^k m(t, beta) = (-1)^k g(k, beta) m(t, beta + k alpha).

    The k-th term shift in the series gives g(n+k, beta) =
    g(k, beta) g(n, beta + alpha k), hence the second argument beta + k*alpha.
    The left side uses 4th-order central differences at a moderate step in
    big-float arithmetic: the series noise (~1e-25 relative) amplified by
    h^-k stays far below the h^4 truncation (~1e-8), which dominates.
    """
    if k == 0:
        return 0.0
    if k not in _FD_STENCILS:
        raise ValueError("k up to 4 supported")
    with mp.workprec(320):
        f = lambda tt: m_series(law, tt, beta, alpha, rel_tol=1e-25, start_bits=320).mp_value
        hh = mp.mpf(h)
        offs, coefs, den = _FD_STENCILS[k]
        if t - 3 * h < 0:
            if t >= 4 * h:
                hh = mp.mpf(t) / 4
            elif k in _FD_FORWARD:
                offs, coefs, den = _FD_FORWARD[k]
            else:
                raise ValueError(f"k={k} derivative needs t >= {3 * h} (or a smaller h)")
        lhs = mp.fsum([c * f(mp.mpf(t) + o * hh) for o, c in zip(offs, coefs)]) / (den * hh**k)
        rhs = (-1) ** k * _gamma_n_mp(law, k, beta, alpha) * m_series(
            law, t, beta + k * alpha, alpha, rel_tol=1e-25, start_bits=320).mp_value
        denom = max(abs(rhs), mp.mpf("1e-300"))
        return float(abs(lhs - rhs) / denom)


# ---------------------------------------------------------------------------
# extrapolated product g(z, beta)
# ---------------------------------------------------------------------------

@dataclass
class GammaExtrapolation:
    """Value of the extrapolated product with truncation diagnostics."""

    z: complex
    beta: complex
    value: complex
    truncation_K: int
    tail_estimate: float


@functools.cache
def _legendre_unit_rule():
    """64-node Gauss-Legendre nodes on [0, 1] and their [-1, 1] weights.

    Computed on first use rather than at import: the eigenvalue solve
    behind it grows every process that imports fragkit by about 1 MB.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    return (x + 1.0) / 2.0, w


def _psi_continued(phi, s):
    """1 - phi(s), left of the abscissa too; PoleError at a pole of phi."""
    try:
        return 1 - phi(s)
    except ZeroDivisionError:
        raise PoleError(f"phi has a pole at {complex(s):.6g}: a factor of g vanishes") from None


def _gamma_z_ladder_float(law, z, beta, alpha, K):
    """(value, |tail|) at truncations K, 2K, 4K, ...; the product runs on across doublings.

    Each rung evaluates psi on five arrays: its new factors' arguments
    beta + alpha k and beta + alpha (k + z), the same at the five
    Euler-Maclaurin offsets, and the 64-node window.  No argument lies left
    of beta + alpha z.  For a law given by power terms or atoms that is one
    call of ``law.psi`` per array, with one domain test each; where beta + alpha z lies left of the
    abscissa, one call of ``law._phi``, which continues psi there as
    ``phi_mp`` does.  Any other law evaluates the same arrays element by
    element through its own ``psi``, which refuses an argument left of the
    abscissa (the first is beta + alpha z, at k = 0).  The
    refusals name the first offending argument, as a loop over k would: a psi
    that is not finite (``PoleError`` at an exact pole of phi, else
    ``DomainError``: it overflows the doubles), then a vanishing numerator
    (``SingularBeta``), then a vanishing denominator (z is a pole).  The
    running product multiplies its factors in k order, each a Python
    division of num by den.
    """
    if law.power_terms is None and law.atoms is None:
        psi = lambda s: np.array([law.psi(x) for x in s.tolist()])
    elif np.real(beta + alpha * z) <= law.beta_a:
        psi = lambda s: 1.0 - law._phi(s)
    else:
        psi = law.psi
    thetas = [t for _, t in law.power_terms or ()]

    def refuse(s):
        """psi(s) is not finite: an exact pole of phi divides by zero, else a power overflows."""
        if any(t + s == 0 for t in thetas):
            raise PoleError(f"phi has a pole at {complex(s):.6g}: a factor of g vanishes")
        raise DomainError(f"psi({complex(s):.6g}) is not finite in doubles; "
                          "precision_bits evaluates it")

    def factors(k, checked):
        """psi(beta + alpha k), psi(beta + alpha (k + z)); ``checked``: the product's tests."""
        s_num, s_den = beta + alpha * k, beta + alpha * (k + z)
        num, den = psi(s_num), psi(s_den)
        bad = ~(np.isfinite(num) & np.isfinite(den))
        if checked:
            bad |= (np.abs(num) < 1e-300) | (np.abs(den) < 1e-12)
        for j in np.flatnonzero(bad).tolist():
            for s, v in ((s_num[j], num[j]), (s_den[j], den[j])):
                if not np.isfinite(v):
                    refuse(s)
            if abs(num[j]) < 1e-300:
                raise SingularBeta(f"psi(beta + {k[j]} alpha) = 0: beta is singular")
            raise PoleError(f"psi(beta + alpha(k+z)) ~ 0 at k={k[j]}: z is a pole")
        return num, den

    u, w = _legendre_unit_rule()
    prod = 1.0 + 0.0j
    k0 = 0
    while True:
        num, den = factors(np.arange(k0, K), True)
        for a, b in zip(num.tolist(), den.tolist()):
            prod *= a / b
        num, den = factors(K + np.arange(-2, 3), False)
        g = np.log(num) - np.log(den)  # at K - 2, ..., K + 2
        # integral_0^1 log psi(s0 + u az) du, 64-node Gauss
        s = beta + alpha * K + u * (alpha * z)
        v = psi(s)
        for j in np.flatnonzero(~np.isfinite(v))[:1]:
            refuse(s[j])
        window = z * (0.5 * np.dot(w, np.log(v)))
        d1 = (-g[4] + 8 * g[3] - 8 * g[1] + g[0]) / 12.0
        d3 = (g[4] - 2 * g[3] + 2 * g[1] - g[0]) / 2.0
        tail = window + g[2] / 2.0 - d1 / 12.0 + d3 / 720.0
        yield prod * np.exp(tail), abs(tail)
        k0, K = K, 2 * K


#: mpmath's Gauss-Legendre degree m has 3 * 2^(m-1) nodes, built once per
#: process and precision: at 260 bits (240 plus mp.quad's 20 guard bits) on a
#: 2-core Xeon, 0.03 s for m = 4, 0.12 s for m = 5 and 0.47 s for m = 6,
#: where tanh-sinh builds its nodes in 0.03 s.  Past m = 4 a first call pays
#: more for nodes than Gauss-Legendre saves over tanh-sinh.
_WINDOW_GL_DEGREE = 4


def _gauss_legendre_reaches(az, room):
    """Whether Gauss-Legendre should converge at the working precision by degree
    ``_WINDOW_GL_DEGREE`` on a segment of length |az| whose midpoint lies
    ``room`` right of the half-plane that holds the integrand's singularities.

    n nodes leave an error of about rho^-2n, for the largest Bernstein ellipse
    (foci at the segment's ends, sum of semi-axes rho times the half-length h)
    clear of that half-plane: its real half-width h sqrt(x^2 cos^2 phi +
    (x^2 - 4) sin^2 phi) / 2, x = rho + 1/rho, phi = arg az, equals ``room``.
    """
    az = complex(az)
    if az == 0:
        return True
    if room <= abs(az.real) / 2:  # the segment reaches the half-plane
        return False
    x = math.hypot(2 * room / (abs(az) / 2), 2 * az.imag / abs(az))
    rho = (x + math.sqrt(x * x - 4)) / 2
    return 2 * 3 * 2 ** (_WINDOW_GL_DEGREE - 1) * math.log2(rho) >= mp.mp.prec


def _logpsi_window_mp(psi, s0, az, left):
    """integral_0^1 log psi(s0 + u*az) du at the ambient precision, with psi's
    zeros and poles taken to lie at Re s <= ``left``.

    The ladder starts at K = 64, so s0 = beta + alpha K usually lies far
    right of every zero and pole of psi: the integrand is analytic on the
    whole segment, where Gauss-Legendre converges geometrically, and
    tanh-sinh (mpmath's default, built for endpoint singularities) needs
    several times the nodes.  Where ``_gauss_legendre_reaches`` the working
    precision, Gauss-Legendre, refined up to degree ``_WINDOW_GL_DEGREE``,
    integrates f and its result is kept when it has converged (mpmath's
    error estimate at most eps/8, where ``mp.quad`` itself stops refining).
    Otherwise tanh-sinh integrates f: at once on a long segment (large
    |alpha z| against alpha K), whose Gauss-Legendre nodes would cost more
    to build and sum than tanh-sinh does.
    """
    f = lambda u: mp.log(psi(s0 + u * az))
    if _gauss_legendre_reaches(az, (s0 + az / 2).real - left):
        value, err = mp.quad(f, [0, 1], method="gauss-legendre", error=True,
                             maxdegree=_WINDOW_GL_DEGREE)
        if err <= mp.eps / 8:
            return value
    return mp.quad(f, [0, 1])


def _gamma_z_ladder_mp(law, z, beta, alpha, K):
    """The big-float ladder at the caller's working precision, which also sets its thresholds."""
    tiny, pole = mp.mpf("1e-300"), mp.mpf("1e-14")
    zm = mp.mpmathify(z)
    bm = mp.mpmathify(beta)
    am = mp.mpmathify(alpha)
    psi = functools.partial(_psi_continued, law.phi_mp)
    G = lambda k: mp.log(psi(bm + am * k)) - mp.log(psi(bm + am * (k + zm)))
    prod = mp.mpf(1)
    k0 = 0
    while True:
        for k in range(k0, K):
            num = psi(bm + am * k)
            den = psi(bm + am * (k + zm))
            if abs(num) < tiny:
                raise SingularBeta(f"psi(beta + {k} alpha) = 0: beta is singular")
            if abs(den) < pole:
                raise PoleError(f"psi(beta + alpha(k+z)) ~ 0 at k={k}: z is a pole")
            prod *= num / den
        window = zm * _logpsi_window_mp(psi, bm + am * K, am * zm, bm.real)
        d1 = mp.diff(G, K, 1)
        d3 = mp.diff(G, K, 3)
        d5 = mp.diff(G, K, 5)
        tail = window + G(K) / 2 - d1 / 12 + d3 / 720 - d5 / 30240
        yield prod * mp.e**tail, abs(tail)
        k0, K = K, 2 * K


def gamma_z(law, z, beta, alpha, tol=1e-11, precision_bits=None):
    """Extrapolate g(., beta) to complex z via the infinite product.

    Satisfies the functional equation g(z+1, beta) = psi(beta + alpha z) g(z, beta)
    and the reciprocal identity g(-z, alpha z + beta) g(z, beta) = 1.  The tail
    past the truncation K is summed by Euler-Maclaurin: a window integral of
    log psi plus derivative corrections; K doubles until two evaluations agree
    to ``tol``.  The window's quadrature rule is Gauss-Legendre: 64 fixed
    nodes in doubles; in big floats mpmath's Gauss-Legendre rule where it
    converges at the working precision by 24 nodes, else (a window long
    against its distance alpha K from Re beta) mpmath's tanh-sinh rule.  The
    window integrates log psi itself: with an atom at 1, its limit
    log(1 - sigma{1}) gives the factor (1 - sigma{1})^z the functional
    equation needs.  In doubles each rung evaluates psi on arrays (its new
    factors, the tail's offsets and the window), continued left of the
    abscissa for a law given by power terms or atoms.  ``precision_bits``
    switches to big-float arithmetic (needed when downstream asymptotics
    consume the value at extreme accuracy, or where psi leaves the doubles).
    Raises DomainError unless z is finite, 0 <= alpha < inf, tol > 0 and
    beta is finite with Re beta > beta_a, and in doubles where a factor's psi
    is not a finite double (an atom's x^s far left of the abscissa).
    """
    _check_alpha(alpha, positive=False)
    _check_beta(law, beta)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    zc = complex(z)
    if zc == 0:
        return GammaExtrapolation(z, beta, mp.mpf(1) if precision_bits else 1.0, 0, 0.0)
    n = round(zc.real)
    ladder = _gamma_z_ladder_mp if precision_bits else _gamma_z_ladder_float
    # in doubles a log of psi <= 0 (left of beta*, or continued) reads NaN, and a later K
    # replaces it; a psi that overflows (inf) is refused by the ladder
    ctx = (mp.workprec(precision_bits) if precision_bits
           else np.errstate(invalid="ignore", divide="ignore", over="ignore"))
    with ctx:
        # the finite product g(n, beta): in big floats only at an exact integer
        if zc.imag == 0 and n >= 0 and (z == n if precision_bits else abs(zc.real - n) < 1e-15):
            g = _gamma_n_mp if precision_bits else gamma_n
            return GammaExtrapolation(z, beta, g(law, n, beta, alpha), n, 0.0)
        K = 64
        steps = ladder(law, z, beta, alpha, K)
        prev, _ = next(steps)
        while K <= (1 << 17):
            K *= 2
            cur, tail = next(steps)
            scale = abs(cur)
            if scale > 0 and abs(cur - prev) <= tol * scale:
                value = cur if precision_bits else _tidy_complex(cur)
                return GammaExtrapolation(z, beta, value, K, float(abs(cur - prev) / scale))
            change = float(abs(cur - prev) / scale) if scale > 0 else math.inf
            prev = cur
        raise PrecisionExhausted(
            f"g(z, beta) product not stable to tol = {tol:g} by K = {K}: the last "
            f"doubling changed it by {change:.3g} relative")


def _tidy_complex(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else v


# ---------------------------------------------------------------------------
# asymptotics and limit-measure moments
# ---------------------------------------------------------------------------

def asymptotic_coefficient(law, beta, alpha, tol=1e-11, precision_bits=None):
    """C(beta) in m(t, beta) ~ C(beta) t^((beta*-beta)/alpha) for nonarithmetic laws.

    C(beta) = Gamma((beta-beta*)/alpha) * psi(beta)/(alpha psi'(beta*))
              / g((beta-beta*)/alpha, alpha + beta*),
    using the reciprocal identity to place the product's second argument at
    alpha + beta* (all factors right of the abscissa).  Refuses arithmetic
    laws (complex roots of phi = 1 on the critical line would contribute
    oscillatory terms) and beta = beta* (pole of the gamma factor).  Raises
    DomainError unless 0 < alpha < inf, tol > 0 and beta is finite with
    Re beta > beta_a.
    """
    _check_alpha(alpha, positive=True)
    _check_beta(law, beta)
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if law.arithmetic:
        raise ArithmeticLaw(f"{law.kind}: coefficient formula needs a nonarithmetic law")
    bs = malthusian_exponent(law)
    z0 = (beta - bs) / alpha  # real for a real beta
    if z0.imag == 0 and abs(z0.real - round(z0.real)) < 1e-9 and round(z0.real) <= 0:
        n = -int(round(z0.real))
        if n == 0:
            raise PoleError("beta = beta*: gamma-factor pole (m(t, beta*) is constant 1)")
        # singular beta = beta* - alpha n: the series is a degree-n polynomial
        # with leading term (-t)^n g(n, beta)/n!, so the poles of the gamma
        # factor and of the extrapolated product cancel to this finite value
        if precision_bits:
            with mp.workprec(precision_bits):
                return (-1) ** n * _gamma_n_mp(law, n, beta, alpha) / mp.factorial(n)
        return _tidy_complex((-1) ** n * gamma_n(law, n, beta, alpha) / math.factorial(n))
    if precision_bits:
        # z0 and the product's second argument formed at precision_bits, not in doubles
        with mp.workprec(precision_bits):
            bm = mp.mpmathify(beta)
            zm = (bm - bs) / alpha
            g = gamma_z(law, zm, alpha + mp.mpf(bs), alpha, tol=tol, precision_bits=precision_bits)
            dpsi = -mp.diff(law.phi_mp, mp.mpf(bs))
            return mp.gamma(zm) * (1 - law.phi_mp(bm)) / (alpha * dpsi) / g.value
    from scipy import special

    g = gamma_z(law, _tidy_complex(z0), alpha + bs, alpha, tol=tol)
    with np.errstate(all="ignore"):  # past the doubles C is inf or NaN, as gamma_z's value
        val = special.gamma(z0) * law.psi(beta) / (alpha * law.psi_prime(bs)) / g.value
    return _tidy_complex(val)


def rho_moment(law, k, alpha):
    """k-th power moment of the limit measure: int x^(alpha k) rho(dx).

    Equals (k-1)!/(alpha psi'(beta*)) * prod_{j=1}^{k-1} 1/psi(beta* + alpha j).
    Raises DomainError unless 0 < alpha < inf, and when the moment is not
    finite in doubles.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_alpha(alpha, positive=True)
    bs = malthusian_exponent(law)
    dpsi = law.psi_prime(bs)
    if not (math.isfinite(dpsi) and dpsi > 0):
        raise DomainError(f"psi'(beta*) = {dpsi}: moments need a finite positive slope")
    # from k = 172 on, (k-1)! overflows the doubles: then the product runs in mpmath
    with mp.workprec(113):
        out = (math.factorial(k - 1) if k <= 171 else mp.factorial(k - 1)) / (alpha * dpsi)
        for j in range(1, k):
            out /= law.psi(bs + alpha * j)
    out = float(out)
    if not math.isfinite(out):
        raise DomainError(f"the rho moment k={k} is not finite in doubles")
    return out


@dataclass
class RhoMoments:
    """Moment sequence of the limit measure rho (k = 1..len(moments))."""

    alpha: float
    beta_star: float
    moments: list

    def log_convex(self):
        """Cauchy-Schwarz: m_k^2 <= m_{k-1} m_{k+1} with m_0 = 1."""
        seq = [1.0] + list(self.moments)
        return all(
            seq[k] ** 2 <= seq[k - 1] * seq[k + 1] * (1 + 1e-12)
            for k in range(1, len(seq) - 1)
        )


def rho_moments(law, k_max, alpha):
    bs = malthusian_exponent(law)
    return RhoMoments(alpha, bs, [rho_moment(law, k, alpha) for k in range(1, k_max + 1)])


# ---------------------------------------------------------------------------
# closed forms for rational psi (the general paths above never dispatch here)
# ---------------------------------------------------------------------------

def _rational_args(law, beta, alpha):
    """a_i = (beta - r_i)/alpha and b_j = (beta + theta_j)/alpha; beta=None means beta*.

    With psi = prod_i (beta - r_i) / prod_j (beta + theta_j) (law.rational_psi)
    every factor of g is psi(beta + alpha k) = prod_i (a_i + k) / prod_j (b_j + k).
    """
    roots, thetas = law.rational_psi()
    if beta is None:
        beta = roots[0].real
    return (beta - roots) / alpha, (beta + thetas) / alpha


def _closed_value(val, *args):
    """Complex roots of psi come in conjugate pairs: real arguments give a real value."""
    val = complex(val)
    if not cmath.isfinite(val):
        raise PoleError("gamma factor hit a pole")
    return val.real if all(np.isreal(x) for x in args) else _tidy_complex(val)


def rational_m(law, t, beta, alpha):
    """m(t, beta) = pFp(a; b; -t), evaluated by mpmath's hypergeometric series."""
    a, b = _rational_args(law, beta, alpha)
    val = mp.hyper([_tidy_complex(x) for x in a], [_tidy_complex(x) for x in b], -mp.mpf(t))
    return _closed_value(val, t, beta, alpha)


def _gamma_ratio(num, den):
    """prod Gamma over the arrays in ``num`` / prod Gamma over those in ``den``.

    The product of the gamma values where it is finite and nonzero.  Where
    the factors overflow to inf/inf or underflow to 0/0, a sum of log-gammas
    exponentiated once, which keeps about |log Gamma| * 1e-16 of error
    (3.7e-14 at FilippovPower(2, 1)'s z = -100.5, where the product has
    3e-16).  A real argument there adds log |Gamma| and multiplies in the
    sign of Gamma, so no multiple of pi i enters the exponent; a complex one
    adds the principal log Gamma.  A pole among ``num`` raises PoleError;
    otherwise a pole among ``den`` makes the ratio 0.  DomainError when the
    ratio overflows a double.
    """
    from scipy import special

    def gamma_prod(groups):
        p = 1.0
        for xs in groups:
            p = p * np.prod(special.gamma(xs))
        return p

    with np.errstate(all="ignore"):  # inf, 0 and NaN send the ratio to the log-gammas
        val = gamma_prod(num) / gamma_prod(den)
    if val != 0 and cmath.isfinite(val):
        return val

    def log_sign(groups):
        xs = np.concatenate(groups).astype(complex)
        real = xs.imag == 0
        r = xs.real[real]
        pole = bool(np.any((r <= 0) & (r == np.round(r))))
        return (pole, special.gammaln(r).sum() + special.loggamma(xs[~real]).sum(),
                np.prod(special.gammasgn(r)))

    num_pole, log_num, sign_num = log_sign(num)
    den_pole, log_den, sign_den = log_sign(den)
    if num_pole:
        raise PoleError("gamma factor hit a pole")
    if den_pole:
        return 0.0
    log_val = log_num - log_den
    with np.errstate(all="ignore"):  # exp(inf + 0j) is inf + nan j, refused below
        val = sign_num * sign_den * np.exp(log_val)
    if not cmath.isfinite(val):
        raise DomainError(f"the gamma ratio overflows a double: its log is {log_val.real:.6g}")
    return val


def rational_gamma(law, z, beta, alpha):
    """g(z, beta) = prod_i Gamma(a_i+z)/Gamma(a_i) * prod_j Gamma(b_j)/Gamma(b_j+z)."""
    a, b = _rational_args(law, beta, alpha)
    val = _gamma_ratio((a + z, b), (a, b + z))
    return _closed_value(val, z, beta, alpha)


def rational_coefficient(law, beta, alpha):
    """C(beta) = prod_{i>=2} Gamma(a*_i)/Gamma(a_i) * prod_j Gamma(b_j)/Gamma(b*_j).

    Starred parameters are taken at beta*; this is the coefficient of the
    leading term t^(-a_1), a_1 = (beta - beta*)/alpha, of pFp(a; b; -t).
    """
    a, b = _rational_args(law, beta, alpha)
    a0, b0 = _rational_args(law, None, alpha)
    val = _gamma_ratio((a0[1:], b), (a[1:], b0))
    return _closed_value(val, beta, alpha)


def rational_rho_moment(law, k, alpha):
    """k-th power moment of rho as a Pochhammer ratio at beta*:

        (k-1)!/(alpha psi'(beta*)) prod_{m=1}^{k-1} prod_j (b*_j+m) / prod_i (a*_i+m),

    with alpha psi'(beta*) = prod_{i>=2} a*_i / prod_j b*_j, since a*_1 = 0.
    That also makes a*_1 + m = m cancel the factor m of (k-1)!, so the
    product takes no factorial and overflows only with the moment itself:
    DomainError when the moment is not finite in doubles, as ``rho_moment``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a0, b0 = _rational_args(law, None, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused below
        val = np.prod(b0) / np.prod(a0[1:])
        for m in range(1, k):
            val = val * np.prod(b0 + m) / np.prod(a0[1:] + m)
    if not cmath.isfinite(val):
        raise DomainError(f"the rho moment k={k} is not finite in doubles")
    return _closed_value(val, alpha)


def rho_cdf(law, alpha, x):
    """CDF of rho when psi has one pole: phi = lam/(beta + theta) makes rho the
    law of G^(1/alpha), G ~ Gamma(lam/alpha, 1), with lam = beta* + theta.

    Raises NoClosedForm for any other law.
    """
    roots, thetas = law.rational_psi()
    if thetas.size != 1:
        raise NoClosedForm(f"{law.kind}: rho has a closed-form CDF only for one power term")
    lam = roots[0].real + thetas[0]
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = special.gammainc(lam / alpha, np.clip(x, 0.0, None) ** alpha)
    return out if out.shape else float(out)


def filippov_gamma_closed_form(z, beta, lam, theta, alpha=1.0):
    """rational_gamma of FilippovPower(lam, theta); kept for the benchmark workloads."""
    return rational_gamma(FilippovPower(lam, theta), z, beta, alpha)


def filippov_asymptotic_coefficient(lam, theta, alpha, beta):
    """rational_coefficient of FilippovPower(lam, theta); kept for the benchmark workloads."""
    return rational_coefficient(FilippovPower(lam, theta), beta, alpha)


# ---------------------------------------------------------------------------
# homogeneous case
# ---------------------------------------------------------------------------

def homogeneous_m(law, t, beta):
    """alpha = 0: g(n, beta) = psi(beta)^n, so m(t, beta) = exp(-t psi(beta))."""
    val = np.exp(-t * law.psi(beta))
    return _tidy_complex(val) if isinstance(val, complex) else float(val)
