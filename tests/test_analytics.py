"""Analytics contracts: series, integro-differential oracle, products, asymptotics."""

import hashlib
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fragkit import analytics as an, laws
from fragkit.errors import (
    ArithmeticLaw,
    DomainError,
    NoClosedForm,
    PoleError,
    PrecisionExhausted,
    SingularBeta,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BINARY = laws.BinaryUniformConservative()
STICK = laws.StickBreakingLossy()
STICK_C = laws.StickBreakingConservative()
FIL21 = laws.FilippovPower(2.0, 1.0)
FIL1510 = laws.FilippovPower(1.5, 1.0)
DIRI = laws.DirichletPolynomial(terms=((1.2, 0.7), (0.9, 2.0)))

NONARITH = [BINARY, STICK, STICK_C, FIL21, FIL1510, DIRI]


# ---------------------------------------------------------------------------
# finite product g(n, beta)
# ---------------------------------------------------------------------------

def test_gamma_n_base_cases():
    assert an.gamma_n(STICK, 0, 1.3, 1.0) == 1.0
    assert an.gamma_n(STICK, 1, 1.3, 1.0) == pytest.approx(STICK.psi(1.3), rel=1e-15)


def test_gamma_n_power_law_pochhammer_ratio():
    # g(n, beta) = (A)_n/(B)_n with A = beta - beta*, B = beta + theta
    beta, n = 1.7, 7
    A, B = beta - 1.0, beta + 1.0
    ref = 1.0
    for k in range(n):
        ref *= (A + k) / (B + k)
    assert an.gamma_n(FIL21, n, beta, 1.0) == pytest.approx(ref, rel=1e-13)


def test_gamma_n_rejects_left_of_abscissa():
    with pytest.raises(DomainError):
        an.gamma_n(STICK, 2, -0.2, 1.0)


#: (call, message): inputs outside the domain that the CLI cases in
#: test_cli do not reach; NaN must fail every comparison that admits a value
_OUT_OF_DOMAIN = {
    "m_series-beta-inf": (lambda: an.m_series(FIL21, 3.0, math.inf, 1.0), "beta"),
    "m_series-beta-complex-nan": (
        lambda: an.m_series(FIL21, 3.0, complex(1.5, math.nan), 1.0), "beta"),
    "gamma_z-z-nan": (lambda: an.gamma_z(FIL21, complex(math.nan, 1.0), 1.5, 1.0), "z"),
    "gamma_z-z-inf": (lambda: an.gamma_z(FIL21, math.inf, 1.5, 1.0), "z"),
    "gamma_z-beta-nan": (lambda: an.gamma_z(FIL21, 0.5, math.nan, 1.0), "beta"),
    # the big-float path evaluates psi(beta) by phi_mp, which checks no domain
    "asymptotic_coefficient-beta-left": (
        lambda: an.asymptotic_coefficient(FIL21, -1.5, 1.0, precision_bits=128), "abscissa"),
    # tol = 0 would double K until the product gave up
    "asymptotic_coefficient-tol-0": (
        lambda: an.asymptotic_coefficient(FIL21, 2.0, 1.0, tol=0), "tol must be > 0"),
}


@pytest.mark.parametrize("call, message", _OUT_OF_DOMAIN.values(), ids=_OUT_OF_DOMAIN.keys())
def test_out_of_domain_inputs_raise(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def test_series_initial_value_exact():
    ev = an.m_series(FIL21, 0.0, 1.3, 1.0)
    assert ev.value == 1.0 and ev.terms_used == 1


def test_series_small_t_expansion():
    # m(t, 1) = 1 - psi(1) t + O(t^2) with psi(1) = 1/2 for stick breaking
    t = 1e-3
    ev = an.m_series(STICK, t, 1.0, 1.0, rel_tol=1e-14)
    assert abs(ev.value - (1.0 - 0.5 * t)) < 0.5 * t**2


def test_series_conservative_is_identically_one():
    for t in (0.5, 3.0, 25.0):
        assert an.m_series(BINARY, t, 1.0, 1.0).value == pytest.approx(1.0, abs=1e-14)


def test_series_singular_beta_polynomial():
    # beta + alpha*n0 = beta* terminates the series: degree-n0 polynomial
    alpha, n0 = 0.4, 2
    beta = 1.0 - alpha * n0
    ev = an.m_series(FIL21, 4.0, beta, alpha, rel_tol=1e-14)
    g2 = an.gamma_n(FIL21, 2, beta, alpha)
    poly = 1.0 - 4.0 * an.gamma_n(FIL21, 1, beta, alpha) + 4.0**2 / 2.0 * g2
    assert ev.value == pytest.approx(poly, rel=1e-13)
    # leading behaviour g(n0, beta) t^n0 / n0!
    big = an.m_series(FIL21, 1e6, beta, alpha, rel_tol=1e-14)
    assert big.value == pytest.approx(g2 * 1e12 / 2.0, rel=1e-5)


def test_series_diagnostics_and_cancellation_bound():
    for law in (FIL21, STICK):
        ev = an.m_series(law, 30.0, an.beta_star_of(law) + 1.0, 1.0, rel_tol=1e-13)
        assert ev.cancellation_digits_lost >= 0.0
        assert ev.cancellation_digits_lost <= 30.0 * math.log10(math.e) + 5.0
        assert ev.max_term_magnitude >= 1.0
        assert ev.working_precision_bits >= 128


def test_series_stability_under_doubling():
    ev = an.m_series(STICK, 12.0, 1.1, 1.0, rel_tol=1e-12)
    with mp.workprec(2 * ev.working_precision_bits):
        again, _, _ = an._series_sum_mp(STICK, 12.0, 1.1, 1.0)
        assert abs(ev.mp_value - again) <= 1e-12 * abs(again)


def _series_sum_reference(law, t, beta, alpha):
    """The series summed term by term in mpmath floats at the ambient precision.

    The reference for ``_series_sum_mp``'s fixed-point pass: the same
    recurrence and stopping rule in the plainest arithmetic, with psi always
    from ``phi_mp`` (the pass reads it exactly wherever ``_psi_ratios`` can).
    """
    neg_t = -mp.mpmathify(t)
    bm = mp.mpmathify(beta)
    am = mp.mpmathify(alpha)
    eps = mp.mpf(2) ** (1 - mp.mp.prec)
    term = mp.mpf(1)
    total = mp.mpf(0) if mp.im(bm) == 0 else mp.mpc(0)
    max_term = small = mp.mpf(0)
    consec = 0
    n = 0
    while n < 200000:
        total += term
        a = abs(term)
        if a > max_term:
            max_term = a
            small = eps * max_term
        if term == 0:  # singular beta: the series terminated exactly
            break
        if a < small:
            consec += 1
            if consec >= 10:
                break
        else:
            consec = 0
        term = term * neg_t / (n + 1) * (1 - law.phi_mp(bm + am * n))
        n += 1
    return total, n + 1, max_term


@given(
    law=st.sampled_from([STICK, FIL21, laws.FilippovPower(2.0, 0.8)]),
    offset=st.floats(0.05, 3.0),
    imag=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    alpha=st.floats(0.0, 2.0, exclude_min=True),
    t=st.floats(0.1, 300.0),
    prec=st.sampled_from([128, 256, 512]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fixed_point_pass_matches_reference(law, offset, imag, alpha, t, prec):
    beta = law.beta_a + offset
    if imag:
        beta = complex(beta, imag)
    with mp.workprec(prec):
        total, n_terms, max_term = an._series_sum_mp(law, t, beta, alpha)
        _, ref_terms, _ = _series_sum_reference(law, t, beta, alpha)
        bound = n_terms * mp.mpf(2) ** (1 - prec) * max_term
    assert n_terms == ref_terms
    with mp.workprec(2 * prec):
        exact, _, _ = _series_sum_reference(law, t, beta, alpha)
        assert abs(total - exact) <= bound


@pytest.mark.parametrize("t, bits, terms", [
    (10.0, (192, 192), (107, 105)),
    (200.0, (419, 408), (637, 629)),
    (1000.0, (1572, 1558), (2816, 2805)),
])
def test_series_diagnostics_pinned_on_bench_cases(t, bits, terms):
    # the lossy stick at alpha = 1 and FilippovPower(2, 0.8) at alpha = 1.3,
    # both at beta* + 1: precision sizing and stopping as summed in mpf
    cases = ((STICK, 1.0), (laws.FilippovPower(2.0, 0.8), 1.3))
    for (law, alpha), b, n in zip(cases, bits, terms):
        beta = an.beta_star_of(law) + 1.0
        ev = an.m_series(law, t, beta, alpha)
        assert (ev.working_precision_bits, ev.terms_used) == (b, n)
        with mp.workprec(b):
            total, ref_terms, max_term = _series_sum_reference(law, t, beta, alpha)
            lost = float(mp.log10(max_term / abs(total)))
        assert ref_terms == n
        assert ev.max_term_magnitude == pytest.approx(float(max_term), rel=1e-15)
        assert ev.cancellation_digits_lost == pytest.approx(lost, rel=1e-15)


POISSON_POWER = laws.UserPoisson(laws.PowerComponent(1.0, 1.0), laws.PowerComponent(0.5, 2.0))
DIRI3 = laws.DirichletPolynomial(terms=((1.2, 0.7), (0.9, 2.0), (-0.1, 3.5)))


@pytest.mark.parametrize("law, t, offset, alpha, prec", [
    (STICK_C, 60.0, 1.3, 1.0, 256),
    (BINARY, 40.0, 0.4, 0.5, 128),
    (DIRI3, 50.0, 0.9, 0.8, 256),
    (POISSON_POWER, 30.0, 0.6, 1.7, 128),
    (FIL21, 30.0, 2.5, 0.0, 128),  # alpha = 0: psi constant, m = exp(-t psi)
    (laws.FilippovPower(2.0, 0.8), 30.0, 1.5, 5e-324, 128),  # common denominator 2^1074
    (DIRI3, 0.1, 0.9, 0.8, 128),  # t = 0.1 has a negative exponent: the product is shifted down
    (FIL21, 20.0, 0.5, 0.7, 256),  # beta_a < beta < beta*: psi < 0 for n <= 2, floors of negatives
    (STICK, 1000.0, 1.0, 1.0, 1600),  # t = 1000: the sum cancels about 1435 bits
], ids=["stick-conservative", "binary", "dirichlet-3", "poisson-power", "alpha-0",
        "alpha-subnormal", "t-negative-exponent", "psi-negative", "stick-t1000"])
def test_exact_psi_pass_matches_reference(law, t, offset, alpha, prec):
    beta = law.beta_a + offset
    # the integers are psi itself, exactly
    ratios = an._psi_ratios(law, beta, alpha)
    for n in range(5):
        num, den = next(ratios)
        s = Fraction(beta) + n * Fraction(alpha)
        assert Fraction(num, den) == 1 - sum(Fraction(l) / (Fraction(th) + s)
                                             for l, th in law.power_terms)
    with mp.workprec(prec):
        total, n_terms, max_term = an._series_sum_mp(law, t, beta, alpha)
        _, ref_terms, _ = _series_sum_reference(law, t, beta, alpha)
        bound = n_terms * mp.mpf(2) ** (1 - prec) * max_term
    assert n_terms == ref_terms
    with mp.workprec(2 * prec):
        exact, _, _ = _series_sum_reference(law, t, beta, alpha)
        assert abs(total - exact) <= bound


def test_series_reads_phi_mp_only_without_exact_psi(monkeypatch):
    calls = []

    def counted(phi_mp):
        def wrapped(self, beta):
            calls.append(self)
            return phi_mp(self, beta)
        return wrapped

    power_laws = (BINARY, STICK, STICK_C, FIL21, DIRI3, POISSON_POWER)
    betas = [an.beta_star_of(law) + 1.0 for law in power_laws]  # solved before counting
    monkeypatch.setattr(laws.ReproductionLaw, "phi_mp", counted(laws.ReproductionLaw.phi_mp))
    # real beta, sigma of power terms only: psi from the declared measure
    for law, beta in zip(power_laws, betas):
        an.m_series(law, 30.0, beta, 1.0)
    an.m_series(FIL21, 30.0, 1.5, 0.0)
    assert calls == []
    # complex beta, atoms: psi from phi_mp
    atomic = laws.UserAtomic(groups=((1.0, (0.5, 0.5)),))
    mixed = laws.UserPoisson(laws.PowerComponent(1.0, 2.0), laws.AtomComponent(((0.5, 0.7),)))
    for law, beta in ((STICK, 1.5 + 0.5j), (FIL21, complex(1.5, 0.0)), (atomic, 1.5),
                      (mixed, 1.5)):
        an.m_series(law, 10.0, beta, 1.0)
        assert calls and all(c is law for c in calls)
        calls.clear()


def test_series_max_term_log2_past_the_doubles():
    # the bench's t = 1000 series: the largest term is near 1e430
    cases = ((STICK, 1.0), (laws.FilippovPower(2.0, 0.8), 1.3))
    near = []
    for law, alpha in cases:
        beta = an.beta_star_of(law) + 1.0
        ev = an.m_series(law, 1000.0, beta, alpha)
        near.append(ev.max_term_log2)
        assert ev.max_term_magnitude == math.inf and math.isfinite(ev.max_term_log2)
        with mp.workprec(ev.working_precision_bits):
            _, _, max_term = _series_sum_reference(law, 1000.0, beta, alpha)
            assert ev.max_term_log2 == pytest.approx(float(mp.log(max_term, 2)), rel=1e-15)
    assert an.m_series(STICK, 0.0, 1.0, 1.0).max_term_log2 == 0.0
    with pytest.raises(PrecisionExhausted) as exc:
        an.m_series(STICK, 3000.0, an.beta_star_of(STICK) + 1.0, 1.0)
    far = exc.value.diagnostics.max_term_log2
    assert math.isfinite(far) and near[0] < far


def test_series_rejects_unusable_t_and_tolerance():
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite"):
            an.m_series(STICK, t, 1.0, 1.0)
    with pytest.raises(ValueError, match="rel_tol"):
        an.m_series(STICK, 1.0, 1.0, 1.0, rel_tol=0.0)


def _agrees_at_twice_the_bits(law, t, beta, alpha, ev, rel_tol):
    with mp.workprec(2 * ev.working_precision_bits):
        again, _, _ = an._series_sum_mp(law, t, beta, alpha)
        return abs(ev.mp_value - again) <= rel_tol * abs(again)


@pytest.mark.parametrize("law, t, beta", [
    (STICK, 40.0, GOLDEN + 0.5 + 1.5j),  # complex beta
    (STICK, 40.0, 0.3),  # beta_a < beta < beta*: psi(beta) < 0, m grows
    (FIL21, 150.0, 1.8),
    (FIL21, 100.0, 21.0),  # m ~ 4e-21: the measured loss raises p once
])
def test_series_precision_from_largest_term(law, t, beta):
    ev = an.m_series(law, t, beta, 1.0, rel_tol=1e-13)
    assert _agrees_at_twice_the_bits(law, t, beta, 1.0, ev, 1e-13)
    # the pass is sized from the largest term, not doubled past it
    lost_bits = ev.cancellation_digits_lost * math.log2(10.0)
    assert lost_bits + 53 <= ev.working_precision_bits <= max(192, lost_bits + 256)


def test_series_terminating_far_below_ceiling():
    # beta + 2 alpha = beta*: a quadratic at t = 1e6, whose largest term
    # needs ~40 bits, not the t log2(e) bits of an entire series
    alpha = 0.4
    beta = 1.0 - 2 * alpha
    ev = an.m_series(FIL21, 1e6, beta, alpha, rel_tol=1e-14)
    assert ev.working_precision_bits <= 256
    assert _agrees_at_twice_the_bits(FIL21, 1e6, beta, alpha, ev, 1e-14)


def test_series_beyond_ceiling_fails_fast(monkeypatch):
    # t log2(e) ~ 4300 bits of cancellation at t = 3000: no pass may run
    passes = []
    summed = an._series_sum_mp

    def counted(*args):
        passes.append(mp.mp.prec)
        return summed(*args)

    monkeypatch.setattr(an, "_series_sum_mp", counted)
    with pytest.raises(PrecisionExhausted) as exc:
        an.m_series(STICK, 3000.0, an.beta_star_of(STICK) + 1.0, 1.0)
    diag = exc.value.diagnostics
    assert isinstance(diag, an.SeriesEvaluation)
    assert diag.working_precision_bits > an.MAX_SERIES_BITS
    assert diag.max_term_magnitude >= 1.0
    assert passes == []


# ---------------------------------------------------------------------------
# integro-differential oracle
# ---------------------------------------------------------------------------

def test_integro_rejects_complex_beta_and_unusable_horizon():
    with pytest.raises(ValueError, match="real-beta"):
        an.m_integro(FIL21, 1.0, 1.5 + 1.0j, 1.0)
    for t_max in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max"):
            an.m_integro(FIL21, t_max, 1.5, 1.0)


def test_integro_slope_at_zero():
    sol = an.m_integro(FIL21, 2.0, 1.5, 1.0, step=0.01)
    assert sol.derivatives[0] == pytest.approx(-FIL21.psi(1.5), abs=1e-10)


def test_integro_matches_series():
    sol = an.m_integro(STICK, 6.0, GOLDEN + 0.5, 1.0, step=0.01)
    for t in (0.5, 2.0, 6.0):
        ref = an.m_series(STICK, t, GOLDEN + 0.5, 1.0, rel_tol=1e-14).value
        assert abs(float(sol(t)) - ref) <= 1e-6 * abs(ref)


def test_integro_conservative_flat():
    sol = an.m_integro(BINARY, 5.0, 1.0, 1.0, step=0.02)
    assert np.max(np.abs(sol.values - 1.0)) < 1e-10


def test_integro_atomic_law():
    at = laws.UserAtomic(groups=((1.0, (0.5, 0.5)),))
    sol = an.m_integro(at, 4.0, 2.0, 1.0, step=0.01)
    ref = an.m_series(at, 4.0, 2.0, 1.0, rel_tol=1e-14).value
    assert abs(sol.values[-1] - ref) <= 1e-8 * abs(ref)


def test_integro_mixed_power_and_atoms():
    # sigma = 2 x dx + 0.7 delta_0.5 + 0.4 delta_0.25: one Gauss-Jacobi rule
    # for the density and an exact rule for the atoms in the same march
    law = laws.UserPoisson(laws.PowerComponent(1.0, 2.0),
                           laws.AtomComponent(((0.5, 0.7), (0.25, 0.4))))
    beta = an.beta_star_of(law) + 0.5
    sol = an.m_integro(law, 5.0, beta, 1.0)
    for t in (0.5, 2.0, 5.0):
        ref = an.m_series(law, t, beta, 1.0, rel_tol=1e-14).value
        assert abs(float(sol(t)) - ref) <= 1e-10 * abs(ref)


def test_integro_unconverged_at_node_cap_raises():
    # at alpha = 0.15 the 384-node march and its 768-node check still differ
    # by more than 1e-9 on the check horizon: the cap raises rather than
    # return a march whose m(5) is off by ~4e-7 relative
    with pytest.raises(PrecisionExhausted, match=r"384-node march .* 768-node check differ by"):
        an.m_integro(STICK, 5.0, GOLDEN + 0.5, 0.15)


def test_integro_rejects_bad_alpha_and_step():
    # alpha = -1 overflowed in the march, NaN was cast to an index, infinity
    # answered; a negative or infinite step ran one step of size t_max, and
    # 0 or NaN raised errors that did not name the step
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha"):
            an.m_integro(FIL21, 1.0, 1.5, alpha)
    for step in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="step"):
            an.m_integro(FIL21, 1.0, 1.5, 1.0, step=step)


def test_integro_solution_refuses_times_off_its_grid():
    sol = an.m_integro(FIL21, 2.0, 1.5, 1.0)
    assert float(sol(0.0)) == 1.0
    assert float(sol(2.0)) == sol.values[-1]
    # past t_max the cubic extrapolates (m(20) read -9.93 against 0.290)
    for t in (20.0, 3.0, -1.0, math.nan, [1.0, 3.0]):
        with pytest.raises(DomainError, match="solved grid"):
            sol(t)


def test_integro_march_known_answers():
    # SHA-256 of values.tobytes() + derivatives.tobytes(), recorded when the
    # march began to solve each block of steps as one linear system: a change
    # that moves any double must say so and re-pin.  Cases: the benchmark's
    # solve (2000 steps, not a multiple of the block), power terms with atoms,
    # atoms only, the lossy stick at alpha = 0.5 (192 nodes), a single step
    # and fewer steps than one block.
    mixed = laws.UserPoisson(laws.PowerComponent(1.0, 2.0),
                             laws.AtomComponent(((0.5, 0.7), (0.25, 0.4))))
    atomic = laws.UserAtomic(groups=((1.0, (0.5, 0.5)),))
    cases = {
        "bench": ((FIL21, 10.0, 1.5, 1.0, None),
                  "e46126c38fa420cf9c212ee53d54f355c3762d3bebce951e465685637f2ac34a"),
        "mixed": ((mixed, 5.0, an.beta_star_of(mixed) + 0.5, 1.0, None),
                  "5d2a40d067c4c84e1fc5658be5a30db6a33e1fc830c4e45350622fc940992d27"),
        "atomic": ((atomic, 4.0, 2.0, 1.0, 0.01),
                   "74e292d4913ec9eff4e9352905a62f562dbaa06f0ddcdddbc638489666cf8bca"),
        "stick": ((STICK, 5.0, GOLDEN + 0.5, 0.5, None),
                  "9446bee4820765507633f2c1b717fc57ff68c6e5079c65d7e261af8e6e5df629"),
        "one-step": ((FIL21, 1.0, 1.5, 1.0, 5.0),
                     "ddabafdb152c2dc248916a66665f7aafca5706038fabaf22421df3972c7dfa6e"),
        "20-steps": ((FIL21, 1.0, 1.5, 1.0, 0.05),
                     "7658e3db6f8dba0303c9463b0bba6484532b8af238adb64fe05e54c581a13b9f"),
    }
    got = {}
    for name, ((law, t_max, beta, alpha, step), _) in cases.items():
        sol = an.m_integro(law, t_max, beta, alpha, step=step)
        got[name] = hashlib.sha256(sol.values.tobytes() + sol.derivatives.tobytes()).hexdigest()
    assert got == {name: digest for name, (_, digest) in cases.items()}


@pytest.mark.parametrize("t_max,step,n,n_check", [
    (10.0, None, 2000, 250),  # the benchmark's solve: ceil(n/8) steps
    (1.0, 0.05, 20, 10),  # at least 10 steps
    (1.0, 0.2, 5, 5),  # at most n
    (1.0, 5.0, 1, 1),
])
def test_integro_node_check_marches_the_main_grid(monkeypatch, t_max, step, n, n_check):
    # the check marches the main grid's first steps at the main step with
    # twice the nodes, so it differs from the march in its node count alone
    calls = []
    march = an._integro_march

    def recorded(ts, h, beta, alpha, terms, atoms, n_nodes):
        calls.append((ts, h, n_nodes))
        return march(ts, h, beta, alpha, terms, atoms, n_nodes)

    monkeypatch.setattr(an, "_integro_march", recorded)
    sol = an.m_integro(FIL21, t_max, 1.5, 1.0, step=step)
    (ts, h, nodes), (ts_check, h_check, nodes_check) = calls
    assert len(ts) - 1 == n and len(ts_check) - 1 == n_check
    assert np.array_equal(ts_check, ts[:n_check + 1]) and h_check == h == t_max / n
    assert (nodes, nodes_check) == (48, 96) and sol.quad_nodes == 48


@pytest.mark.parametrize("law,t_max,beta,alpha,step", [
    (FIL21, 10.0, 1.5, 1.0, None),  # the benchmark's solve
    (FIL21, 1.0, 1.5, 1.0, 0.5),  # h = 0.5 and h = 1: large steps, where
    (FIL21, 1.0, 1.5, 1.0, 5.0),  # an implicit iteration is slowest to settle
    (FIL21, 2.0, 1.5, 0.0, 0.1),  # alpha = 0: every node in the current cell
    (STICK, 5.0, GOLDEN + 0.5, 0.5, None),
    (laws.UserPoisson(laws.PowerComponent(1.0, 2.0),
                      laws.AtomComponent(((0.5, 0.7), (0.25, 0.4)))), 5.0, 1.5, 1.0, None),
], ids=["bench", "h=0.5", "h=1", "alpha=0", "stick-alpha=0.5", "mixed"])
def test_integro_march_solves_its_own_equations(law, t_max, beta, alpha, step):
    # re-evaluate each step's two equations from the returned grid:
    #   m_{i+1} = e^-h m_i + sum_p W_p I_p  and  d_{i+1} = -m_{i+1} + I_2,
    # I_p the x-integral at t_i, t_i + h/2, t_{i+1} read from the Hermite
    # history (cell min(floor(q/h), i)), W_p the weights of the integrating
    # factor's quadratic rule, here from 32-node Gauss-Legendre moments
    sol = an.m_integro(law, t_max, beta, alpha, step=step)
    ts, m, d = sol.ts, sol.values, sol.derivatives
    n = len(ts) - 1
    h = ts[-1] / n
    xa, w = [], []
    for lam, theta in law.power_terms or ():
        u, wq = an._gauss_unit_weight(beta + (theta - 1.0), sol.quad_nodes)
        xa.append(u**alpha)
        w.append(lam * wq)
    for x, wt in law.atoms or ():
        xa.append([x**alpha])
        w.append([wt * x**beta])
    xa, w = np.concatenate(xa), np.concatenate(w)
    s, ws = np.polynomial.legendre.leggauss(32)
    s, ws = h * (s + 1.0) / 2.0, h * ws / 2.0
    moments = [np.sum(ws * np.exp(s - h) * s**k) for k in range(3)]
    W = np.linalg.solve(np.vander([0.0, h / 2.0, h], 3, increasing=True).T, moments)
    tq = np.multiply.outer(np.stack([ts[:-1], ts[:-1] + h / 2.0, ts[1:]], 1), xa)
    idx = np.minimum(np.floor(tq / h).astype(int), np.arange(n)[:, None, None])
    v = (tq - ts[idx]) / h
    parts = [(1 + 2 * v) * (1 - v) ** 2 * m[idx], h * v * (1 - v) ** 2 * d[idx],
             v * v * (3 - 2 * v) * m[idx + 1], h * v * v * (v - 1) * d[idx + 1]]
    I = sum(parts) @ w
    I_abs = sum(np.abs(q) for q in parts) @ np.abs(w)
    eh = math.exp(-h)
    res_m = np.abs(m[1:] - eh * m[:-1] - I @ W) / (
        np.abs(m[1:]) + eh * np.abs(m[:-1]) + I_abs @ np.abs(W))
    res_d = np.abs(d[1:] + m[1:] - I[:, 2]) / (np.abs(d[1:]) + np.abs(m[1:]) + I_abs[:, 2])
    # in ulps of the sum of the magnitudes each equation adds up
    assert max(res_m.max(), res_d.max()) <= 4 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# derivative identity
# ---------------------------------------------------------------------------

def test_derivative_identity():
    assert an.derivative_identity_check(FIL21, 2.0, 1.3, 0, 1.0) == 0.0
    assert an.derivative_identity_check(FIL21, 2.0, 1.3, 1, 1.0) < 1e-6
    assert an.derivative_identity_check(STICK, 1.0, 1.0, 2, 1.0) < 1e-6
    # at t = 0 the k-th derivative equals (-1)^k g(k, beta)
    assert an.derivative_identity_check(FIL21, 0.0, 1.3, 2, 1.0) < 1e-6


# ---------------------------------------------------------------------------
# extrapolated product
# ---------------------------------------------------------------------------

def test_gamma_z_base_cases():
    g0 = an.gamma_z(STICK, 0.0, 1.2, 1.0)
    assert g0.value == 1.0
    g1 = an.gamma_z(STICK, 1.0, 1.2, 1.0)
    assert g1.value == pytest.approx(STICK.psi(1.2), rel=1e-13)


@pytest.mark.parametrize("z", [0.3, 1.7, 0.5 + 1.0j])
def test_gamma_z_power_law_gamma_ratio(z):
    g = an.gamma_z(FIL21, z, 1.3, 1.0, tol=1e-12)
    ref = an.filippov_gamma_closed_form(z, 1.3, 2.0, 1.0)
    assert abs(g.value - ref) <= 1e-10 * abs(ref)


def test_gamma_z_general_alpha_gamma_ratio():
    alpha = 0.7
    g = an.gamma_z(FIL21, 0.9, 1.4, alpha, tol=1e-12)
    ref = an.filippov_gamma_closed_form(0.9, 1.4, 2.0, 1.0, alpha=alpha)
    assert abs(g.value - ref) <= 1e-10 * abs(ref)


def test_gamma_z_identities_random_points():
    rng = np.random.default_rng(99)
    for law in (STICK, DIRI):
        checked = 0
        while checked < 20:
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            beta = (law.beta_a if math.isfinite(law.beta_a) else 0.0) + 0.15 + rng.uniform(0, 2)
            try:
                g0 = an.gamma_z(law, z, beta, 1.0, tol=1e-12).value
                g1 = an.gamma_z(law, z + 1, beta, 1.0, tol=1e-12).value
                gr = an.gamma_z(law, -z, z + beta, 1.0, tol=1e-12).value
            except (PoleError, DomainError):
                continue
            assert abs(g1 - law.psi(beta + z) * g0) <= 1e-9 * abs(g0)
            assert abs(gr * g0 - 1.0) <= 1e-8
            checked += 1


def test_gamma_z_functional_equation_with_atom_at_one():
    # sigma{1} = 1/2: psi -> 1/2 at infinity, and g must still satisfy
    # g(z+1) = psi(beta+z) g(z); the same sigma as a Poisson pair gives the same g
    atomic = laws.UserAtomic(groups=((0.5, (1.0, 0.5)), (0.5, (0.7, 0.3))))
    poisson = laws.UserPoisson(laws.AtomComponent(((1.0, 0.5), (0.7, 0.5))),
                               laws.AtomComponent(((0.5, 0.5), (0.3, 0.5))))
    z, beta = 0.4, 1.3
    g0 = an.gamma_z(atomic, z, beta, 1.0, tol=1e-13).value
    g1 = an.gamma_z(atomic, z + 1, beta, 1.0, tol=1e-13).value
    assert abs(g1 - atomic.psi(beta + z) * g0) <= 1e-10 * abs(g0)
    assert an.gamma_z(poisson, z, beta, 1.0, tol=1e-13).value == pytest.approx(g0, rel=1e-10)


def test_gamma_z_pole_and_singular_errors():
    # z = (beta* - beta)/alpha is the rightmost pole
    with pytest.raises(PoleError):
        an.gamma_z(FIL21, 1.0 - 1.5, 1.5, 1.0)
    # singular beta: a numerator factor vanishes (beta + alpha*k = beta*)
    with pytest.raises(SingularBeta):
        an.gamma_z(FIL21, 0.37, 1.0 - 2 * 0.4, 0.4)


def test_gamma_z_continues_psi_left_of_the_abscissa():
    # beta + alpha (k + z) < beta_a = -1 for k <= 98: the doubles ladder reads
    # psi = 1 - phi continued there, as the big-float ladder's phi_mp does,
    # and a rung whose logs meet psi < 0 warns nothing
    ref = an.rational_gamma(FIL21, -100.5, 1.3, 1.0)
    assert ref == pytest.approx(3.923604404095035e-05, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = an.gamma_z(FIL21, -100.5, 1.3, 1.0).value
    assert abs(g - ref) <= 1e-13 * ref
    assert g == pytest.approx(3.923604404095039e-05, rel=1e-14)
    assert abs(an.gamma_z(FIL21, -100.5, 1.3, 1.0, precision_bits=240).value - ref) <= 1e-13 * ref
    # a law with no declared measure has no continuation
    density = laws.DensityLaw(density=lambda x: 2.0, beta_a_value=-1.0)
    with pytest.raises(DomainError, match="abscissa"):
        an.gamma_z(density, -100.5, 1.3, 1.0)


@pytest.mark.parametrize("bits", [None, 240])
def test_gamma_z_at_a_pole_of_phi_is_a_pole_error(bits):
    # beta + alpha z = -1 is phi's pole at k = 0, so g has a zero factor there;
    # the closed form refuses it as a pole as well
    with pytest.raises(PoleError, match="phi has a pole at -1"):
        an.gamma_z(FIL21, -2.5, 1.5, 1.0, precision_bits=bits)
    with pytest.raises(PoleError):
        an.rational_gamma(FIL21, -2.5, 1.5, 1.0)


@pytest.mark.parametrize("z,beta,alpha,error,message", [
    # the factor at k = 70, in the second rung: psi(beta + alpha(k + z)) ~ 0
    ((1.0 - 1.5) / 0.3 - 70, 1.5, 0.3, PoleError, r"at k=70: z is a pole"),
    # psi(beta + 70 alpha) = psi(1) = 0 exactly
    (0.37, -0.09375, 0.015625, SingularBeta, r"psi\(beta \+ 70 alpha\) = 0"),
    # beta + alpha(k + z) = -1 at k = 64: the first rung's offsets reach it
    (-66.5, 1.5, 1.0, PoleError, r"phi has a pole at -1"),
    (complex(-66.5, 0.0), 1.5, 1.0, PoleError, r"phi has a pole at -1"),
    # beta + alpha(k + z) = -1 at k = 100, inside the second rung's factors
    (-102.5, 1.5, 1.0, PoleError, r"phi has a pole at -1"),
])
def test_gamma_z_refusals_name_the_first_offending_factor(z, beta, alpha, error, message):
    # the doubles ladder evaluates psi on arrays, where an exact pole of phi
    # reads inf or NaN rather than dividing by zero; it refuses each input as
    # a loop over k would, naming the first offending factor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            an.gamma_z(FIL21, z, beta, alpha)


def test_gamma_z_psi_past_the_doubles_is_a_domain_error():
    # continued far left, an atom's x^s overflows the doubles: a DomainError
    # naming the first such argument, with no warning (it was a bare
    # OverflowError, a traceback in the CLI)
    atomic = laws.UserAtomic(groups=((0.6, (0.5, 0.5)), (0.4, (0.7, 0.2, 0.1))))
    for z in (-900.5, complex(-900.5, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"psi\(-899.2\+[01]j\) is not finite"):
                an.gamma_z(atomic, z, 1.3, 1.0)


def test_gamma_z_density_law_matches_its_closed_form():
    # a law with no declared measure evaluates the ladder's arrays element by
    # element through its own psi; sigma(dx) = 2 dx is FilippovPower(2, 1)
    density = laws.DensityLaw(density=lambda x: 2.0, beta_a_value=-1.0)
    for z in (0.4, 0.5 + 1.0j):
        g = an.gamma_z(density, z, 1.3, 1.0).value
        ref = an.rational_gamma(FIL21, z, 1.3, 1.0)
        assert abs(g - ref) <= 1e-10 * abs(ref)


def test_gamma_z_doubles_ladder_reads_psi_once_per_array(monkeypatch):
    # right of the abscissa each rung makes five array calls of the law's
    # psi (its factors' numerators and denominators, the same for the tail's
    # offsets, and the window), each with one domain test; where beta + alpha z lies left of it, psi is continued through
    # _phi and the public psi is not called
    calls = []
    psi = laws.ReproductionLaw.psi

    def recorded(self, beta):
        calls.append(np.shape(beta))
        return psi(self, beta)

    monkeypatch.setattr(laws.ReproductionLaw, "psi", recorded)
    g = an.gamma_z(FIL21, 0.3, 1.3, 1.0)
    rungs = int(math.log2(g.truncation_K // 64)) + 1
    assert len(calls) == 5 * rungs and all(len(shape) == 1 for shape in calls)
    assert g.value == pytest.approx(an.rational_gamma(FIL21, 0.3, 1.3, 1.0), rel=1e-12)
    calls.clear()
    an.gamma_z(FIL21, -100.5, 1.3, 1.0)
    assert calls == []
    # the domain test of an array names its leftmost argument
    with pytest.raises(DomainError, match=r"Re beta = -1.5 <= abscissa -1"):
        FIL21.psi(np.array([0.5, -1.5, 2.0]))


def test_gamma_z_small_alpha_warns_nothing():
    # every argument lies right of the abscissa, but the early rungs' logs
    # reach between it and beta* = 1, where psi < 0
    ref = an.rational_gamma(FIL21, -200.5, 1.3, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = an.gamma_z(FIL21, -200.5, 1.3, 0.01).value
    assert abs(g - ref) <= 1e-13 * abs(ref)


# ---------------------------------------------------------------------------
# asymptotic coefficient and limit moments
# ---------------------------------------------------------------------------

def test_coefficient_at_first_moment_point():
    # C(beta* + alpha) = 1/(alpha psi'(beta*)) = first limit moment
    for law in (FIL21, STICK, DIRI):
        bs = an.beta_star_of(law)
        for alpha in (1.0, 0.8):
            c = an.asymptotic_coefficient(law, bs + alpha, alpha)
            assert c == pytest.approx(1.0 / (alpha * law.psi_prime(bs)), rel=1e-9)


def test_coefficient_power_law_closed_form():
    for alpha in (1.0, 2.0):
        for beta in (0.0, 1.3, 2.0):
            c = an.asymptotic_coefficient(FIL21, beta, alpha)
            ref = an.filippov_asymptotic_coefficient(2.0, 1.0, alpha, beta)
            assert c == pytest.approx(ref, rel=1e-9)


def test_mean_particle_count_coefficient():
    # m(t, 0) ~ Gamma(theta/alpha)/Gamma(lam/alpha) t^((lam-theta)/alpha)
    lam, theta, alpha = 1.5, 1.0, 1.0
    law = laws.FilippovPower(lam, theta)
    c = an.asymptotic_coefficient(law, 0.0, alpha)
    assert c == pytest.approx(math.gamma(theta / alpha) / math.gamma(lam / alpha), rel=1e-9)


def test_coefficient_guards():
    with pytest.raises(PoleError):
        an.asymptotic_coefficient(FIL21, 1.0, 1.0)  # beta = beta*
    grid = laws.UserAtomic(groups=((1.0, (0.5, 0.25, 0.25)),))
    assert grid.arithmetic
    with pytest.raises(ArithmeticLaw):
        an.asymptotic_coefficient(grid, 1.2, 1.0)


@pytest.mark.parametrize("offset", [0.3, 1.3, 2.6])
def test_big_float_coefficient_keeps_its_inputs_in_big_floats(offset):
    # one power term: C(beta) = Gamma((beta+theta)/alpha) / Gamma((beta*+theta)/alpha)
    # exactly; rounding z0 or alpha + beta* to doubles left errors near 5e-17
    law = laws.FilippovPower(2.0, 0.8)
    bs = an.beta_star_of(law)
    c = an.asymptotic_coefficient(law, bs + offset, 1.3, tol=1e-22, precision_bits=240)
    with mp.workprec(240):
        b, theta, alpha = (mp.mpf(x) for x in (bs + offset, 0.8, 1.3))
        ref = mp.gamma((b + theta) / alpha) / mp.gamma((mp.mpf(bs) + theta) / alpha)
        assert abs(c - ref) <= 1e-24 * ref


def test_big_float_product_at_an_integer_z_is_a_big_float():
    g = an.gamma_z(FIL21, 2, 1.3, 1.0, precision_bits=240).value
    assert isinstance(g, mp.mpf)
    with mp.workprec(240):
        b = mp.mpf(1.3)
        ref = (1 - 2 / (1 + b)) * (1 - 2 / (2 + b))  # psi(1.3) psi(2.3)
        assert abs(g - ref) <= mp.mpf(2) ** -230 * ref


def test_big_float_product_at_zero_is_a_big_float():
    g = an.gamma_z(FIL21, 0, 1.3, 1.0, precision_bits=240).value
    assert isinstance(g, mp.mpf) and g == 1


#: the ladder's window at 240 bits: (law, z, beta, alpha) with z and beta at
#: 240 bits, so the FilippovPower(2, 0.8) row is the benchmark's C(beta) product
_FIL08 = laws.FilippovPower(2.0, 0.8)
with mp.workprec(240):
    _BENCH_Z = (mp.mpf(an.beta_star_of(_FIL08) + 0.3) - an.beta_star_of(_FIL08)) / 1.3
    _BENCH_BETA = 1.3 + mp.mpf(an.beta_star_of(_FIL08))
_WINDOWS = {
    "filippov-2-0.8-real-z": (_FIL08, _BENCH_Z, _BENCH_BETA, 1.3),
    "filippov-2-1": (FIL21, 0.5 + 1.0j, 1.3, 1.0),
    "stick-z-0.5+50i": (STICK, 0.5 + 50.0j, 1.2, 1.0),
    "atoms": (laws.UserAtomic(groups=((0.6, (0.5, 0.5)), (0.4, (0.7, 0.2, 0.1)))),
              0.4 + 2.0j, 1.3, 1.0),
}


@pytest.fixture
def quad_rules(monkeypatch):
    """The rules mp.quad is called with, in order (None: the default tanh-sinh)."""
    rules, quad = [], mp.quad

    def recorded(*args, **kwargs):
        rules.append(kwargs.get("method"))
        return quad(*args, **kwargs)

    monkeypatch.setattr(mp, "quad", recorded)
    return rules


@pytest.mark.parametrize("K", [64, 512])
@pytest.mark.parametrize("name", _WINDOWS)
def test_ladder_window_matches_a_400_bit_tanh_sinh_reference(name, K, quad_rules):
    # z times the window is the log of a factor of g, so |z| times the
    # window's error is the relative error it puts into g
    law, z, beta, alpha = _WINDOWS[name]
    assert not law.arithmetic
    with mp.workprec(240):
        zm, bm, am = (mp.mpmathify(x) for x in (z, beta, alpha))
        window = an._logpsi_window_mp(lambda s: 1 - law.phi_mp(s), bm + am * K, am * zm,
                                      bm.real)
    # 24 Gauss-Legendre nodes reach 240 bits on every window but the
    # stick's, 50 long and only 64 right of Re beta
    assert quad_rules == [None if (name, K) == ("stick-z-0.5+50i", 64) else "gauss-legendre"]
    with mp.workprec(400):
        ref = mp.quad(lambda u: mp.log(1 - law.phi_mp(bm + am * K + u * am * zm)), [0, 1])
        assert abs(zm) * abs(window - ref) <= mp.mpf(2) ** -230


def test_ladder_window_falls_back_to_tanh_sinh(quad_rules):
    # left = -100 claims more room than log u has: Gauss-Legendre is tried,
    # does not converge since log u is singular at u = 0, and tanh-sinh
    # integrates again
    with mp.workprec(240):
        window = an._logpsi_window_mp(lambda s: s, mp.mpf(0), mp.mpf(1), -100.0)
        assert quad_rules == ["gauss-legendre", None]
        assert abs(window + 1) <= mp.mpf(2) ** -230  # integral_0^1 log u du = -1


def test_long_ladder_window_goes_straight_to_tanh_sinh(quad_rules):
    # the lossy stick at z = 0.5+1000i: a window 1000 long 64 right of Re beta
    # would need far more than 24 Gauss-Legendre nodes at 240 bits
    z, beta, K = mp.mpc(0.5, 1000), mp.mpf(1.2), 64
    assert not an._gauss_legendre_reaches(z, K + z.real / 2)
    with mp.workprec(240):
        window = an._logpsi_window_mp(lambda s: 1 - STICK.phi_mp(s), beta + K, z, beta)
    assert quad_rules == [None]
    with mp.workprec(400):
        ref = mp.quad(lambda u: mp.log(1 - STICK.phi_mp(beta + K + u * z)), [0, 1])
        assert abs(z) * abs(window - ref) <= mp.mpf(2) ** -230


def test_window_reaching_left_of_beta_goes_to_tanh_sinh():
    # z = -100.5: at K = 64 the window runs from Re beta + 64 to 36.5 left of
    # Re beta, so no ellipse around it clears the half-plane
    assert not an._gauss_legendre_reaches(-100.5, 64 - 100.5 / 2)
    g = an.gamma_z(FIL21, -100.5, 1.3, 1.0, precision_bits=240)
    ref = an.rational_gamma(FIL21, -100.5, 1.3, 1.0)
    # the closed form's plain gamma product is accurate to a few ulps here;
    # summed log-gammas would be 3.7e-14 off
    assert abs(g.value - ref) <= 2e-15 * abs(ref)


def test_bench_coefficient_keeps_its_truncation_and_digits():
    # the benchmark's 240-bit C(beta): K doubles to 512 and stops, and all
    # 75 printed digits stay those of the tanh-sinh window
    with mp.workprec(240):
        g = an.gamma_z(_FIL08, _BENCH_Z, _BENCH_BETA, 1.3, tol=1e-22, precision_bits=240)
    assert g.truncation_K == 512
    c = an.asymptotic_coefficient(_FIL08, an.beta_star_of(_FIL08) + 0.3, 1.3, tol=1e-22,
                                  precision_bits=240)
    assert mp.nstr(c, 75) == ("1.0399718885821016023435791922301119040657470793838501812314046"
                              "8031613735856")


@pytest.mark.parametrize("law, beta", [(FIL21, 0.5), (STICK, 0.4)], ids=["filippov", "stick"])
def test_coefficient_left_of_beta_star_is_real(law, beta):
    c = an.asymptotic_coefficient(law, beta, 1.0)
    assert isinstance(c, float)
    assert c == pytest.approx(an.rational_coefficient(law, beta, 1.0), rel=1e-13)


def test_rho_moments_power_law_pochhammer():
    for lam, theta, alpha in [(2.0, 1.0, 1.0), (1.5, 1.0, 1.0), (2.0, 0.8, 1.3)]:
        law = laws.FilippovPower(lam, theta)
        for k in range(1, 7):
            ref = 1.0
            for i in range(k):
                ref *= lam / alpha + i
            assert an.rho_moment(law, k, alpha) == pytest.approx(ref, rel=1e-12)


def test_rho_moment_past_factorial_overflow():
    # from k = 172, (k-1)! alone overflows the doubles, but a large alpha keeps
    # the Pochhammer moment (lam/alpha)_k finite
    law = laws.FilippovPower(2.0, 1.0)
    for k, alpha in ((172, 1e4), (180, 1e20)):
        with mp.workprec(200):
            ref = float(mp.rf(mp.mpf(2.0) / alpha, k))
        assert an.rho_moment(law, k, alpha) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(DomainError, match="k=172"):
        an.rho_moment(law, 172, 1.0)


def test_rho_moment_k1_is_slope_reciprocal():
    for law in (STICK, DIRI):
        bs = an.beta_star_of(law)
        assert an.rho_moment(law, 1, 1.0) == pytest.approx(
            1.0 / law.psi_prime(bs), rel=1e-12
        )


def test_rho_moments_log_convex():
    for law in NONARITH:
        assert an.rho_moments(law, 10, 1.0).log_convex()


# ---------------------------------------------------------------------------
# closed forms for rational psi
# ---------------------------------------------------------------------------

#: every law whose sigma is made of power terms only, the last a power-only
#: UserPoisson with two distinct thetas
RATIONAL = [BINARY, STICK, STICK_C, FIL21, laws.FilippovPower(2.0, 0.8), DIRI,
            laws.UserPoisson(laws.PowerComponent(1.0, 1.5), laws.PowerComponent(0.8, 0.6))]
ALPHAS = (0.7, 1.0, 1.3)


def test_limit_density_gamma_shape():
    # (lam, theta, alpha) = (2,1,1): density x e^-x, CDF 1 - (1+x) e^-x
    xs = np.linspace(0.0, 6.0, 25)
    ref = 1.0 - (1.0 + xs) * np.exp(-xs)
    for law in (FIL21, BINARY):
        assert np.allclose(an.rho_cdf(law, 1.0, xs), ref, rtol=1e-12, atol=1e-15)
    assert an.rho_cdf(FIL21, 1.0, -1.0) == 0.0


def test_limit_density_general_alpha_moments():
    # int x^(alpha k) rho(dx) = int_0^inf alpha k x^(alpha k - 1) (1 - F(x)) dx
    for law, alpha in ((laws.FilippovPower(2.0, 0.8), 1.5), (STICK_C, 0.7)):
        for k in (1, 2, 3):
            val, _ = integrate.quad(
                lambda x: alpha * k * x ** (alpha * k - 1) * (1.0 - an.rho_cdf(law, alpha, x)),
                0, np.inf, epsabs=0, epsrel=1e-12, limit=200,
            )
            assert val == pytest.approx(an.rho_moment(law, k, alpha), rel=1e-8)


def test_dirichlet_roots_and_psi_factorisation():
    # psi(beta) = prod (beta - r_i) / prod (beta + theta_j), roots[0] = beta*
    for law in RATIONAL:
        roots, thetas = law.rational_psi()
        assert roots.size == thetas.size
        for beta in (1.3, 2.6, 0.9 + 0.4j):
            ref = np.prod(beta - roots) / np.prod(beta + thetas)
            assert abs(law.psi(beta) - ref) <= 1e-12 * abs(law.psi(beta))
        assert roots[0].real == pytest.approx(an.beta_star_of(law), abs=1e-11)
    # equal thetas merge: 1 x^0 dx + 1 x^0 dx is the binary law's 2 dx
    twin = laws.UserPoisson(laws.PowerComponent(1.0, 1.0), laws.PowerComponent(1.0, 1.0))
    assert twin.rational_psi()[1].tolist() == [1.0]


def test_dirichlet_slope_formula():
    # psi = 1 - sum lam/(theta+beta): psi'(beta*) = sum lam/(theta+beta*)^2,
    # and from the factorisation psi'(r_0) = prod_{i>0}(r_0 - r_i) / prod(r_0 + theta_j)
    terms = ((1.2, 0.7), (0.9, 2.0))
    law = laws.DirichletPolynomial(terms=terms)
    bs = an.beta_star_of(law)
    slope = sum(l / (t + bs) ** 2 for l, t in terms)
    assert law.psi_prime(bs) == pytest.approx(slope, rel=1e-12)
    roots, thetas = law.rational_psi()
    r0 = roots[0].real
    factored = np.prod(r0 - roots[1:]) / np.prod(r0 + thetas)
    assert abs(factored - slope) <= 1e-10 * slope


def test_rational_forms_need_power_terms():
    atomic = laws.UserAtomic(groups=((1.0, (0.5, 0.5)),))
    mixed = laws.UserPoisson(laws.PowerComponent(1.0, 2.0), laws.AtomComponent(((0.5, 0.7),)))
    for law in (atomic, mixed, laws.no_malthusian_example()):
        with pytest.raises(NoClosedForm):
            law.rational_psi()
        with pytest.raises(NoClosedForm):
            an.rho_cdf(law, 1.0, 1.0)
    # two poles: rho is not gamma-type
    for law in (STICK, DIRI):
        with pytest.raises(NoClosedForm):
            an.rho_cdf(law, 1.0, 1.0)


def test_rational_gamma_matches_gamma_z():
    for law in RATIONAL:
        beta = an.beta_star_of(law) + 0.6
        for alpha in ALPHAS:
            for z in (0.4, 1.7, 0.5 + 1.0j):
                g = an.gamma_z(law, z, beta, alpha, tol=1e-13).value
                assert abs(an.rational_gamma(law, z, beta, alpha) - g) <= 1e-10 * abs(g)


def test_rational_forms_past_the_gamma_range():
    # each gamma factor overflows (arguments past 171.6) or underflows
    # (Im z = 1e4), but the ratios are finite doubles; the summed log-gammas
    # keep about |log Gamma| * 1e-16 of error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = an.rational_gamma(FIL21, 200, 1.5, 1.0)
        assert g == pytest.approx(an.gamma_z(FIL21, 200, 1.5, 1.0).value, rel=1e-12)
        # FilippovPower(2, 1): C(beta) = Gamma((beta + 1)/alpha) / Gamma(2/alpha)
        c = an.rational_coefficient(FIL21, 2.0, 0.01)
        assert c == pytest.approx(float(mp.gamma(300) / mp.gamma(200)), rel=1e-12)
        z, beta = 0.5 + 1e4j, 1.2
        g = an.rational_gamma(STICK, z, beta, 1.0)
        assert abs(g - an.gamma_z(STICK, z, beta, 1.0).value) <= 1e-10 * abs(g)
    with mp.workdps(30):
        zm, bm = mp.mpmathify(z), mp.mpf(beta)
        a = [bm - (mp.sqrt(5) - 1) / 2, bm + (mp.sqrt(5) + 1) / 2]  # beta - roots of psi
        ref = mp.exp(sum(mp.loggamma(x + zm) - mp.loggamma(x) for x in a)
                     - sum(mp.loggamma(x + zm) - mp.loggamma(x) for x in (bm, bm + 1)))
        assert abs(g - ref) <= 1e-10 * abs(ref)
    # 200! is past the doubles: an overflow, not a pole
    with pytest.raises(DomainError, match="overflows a double"):
        an.rational_coefficient(FIL21, 200.0, 1.0)
    # the true poles: Gamma(a + z) at a + z = 0, and 1/Gamma(b + z) at b + z = 0
    with pytest.raises(PoleError):
        an.rational_gamma(FIL21, -0.5, 1.5, 1.0)
    assert an.rational_gamma(FIL1510, -2.25, 1.25, 1.0) == 0.0


def test_hypergeometric_coefficient_matches_generic():
    for law in RATIONAL:
        bs = an.beta_star_of(law)
        for alpha in ALPHAS:
            for beta in (bs + 0.4, bs + 1.2, bs + 2.1):
                C = an.asymptotic_coefficient(law, beta, alpha)
                assert abs(an.rational_coefficient(law, beta, alpha) - C) <= 1e-10 * abs(C)


def test_dirichlet_integer_moments_match_generic():
    for law in RATIONAL:
        for alpha in ALPHAS:
            for k in range(1, 7):
                assert an.rational_rho_moment(law, k, alpha) == pytest.approx(
                    an.rho_moment(law, k, alpha), rel=1e-10
                )


def test_rational_rho_moment_overflow_is_a_domain_error():
    # FilippovPower(2, 1) at alpha = 1: the moments are k!, finite up to k = 170
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (168, 169):
            assert an.rational_rho_moment(FIL21, k, 1.0) == pytest.approx(
                an.rho_moment(FIL21, k, 1.0), rel=1e-13)
        for k in (170, 171, 172, 400):
            for moment in (an.rho_moment, an.rational_rho_moment):
                with pytest.raises(DomainError, match=f"k={k} is not finite in doubles"):
                    moment(FIL21, k, 1.0)


def test_rational_m_matches_series():
    for law in RATIONAL:
        beta = an.beta_star_of(law) + 0.6
        for alpha in ALPHAS:
            for t in (0.5, 5.0, 40.0):
                ref = an.m_series(law, t, beta, alpha, rel_tol=1e-14).value
                assert abs(an.rational_m(law, t, beta, alpha) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("t", [200.0, 1000.0])
def test_series_large_t_matches_rational_m(t):
    # the series loses ~t/ln 10 digits to cancellation; the accepted pass
    # must carry them plus a double's 53 bits
    law = STICK
    beta = an.beta_star_of(law) + 1.0
    ev = an.m_series(law, t, beta, 1.0)
    assert ev.working_precision_bits >= ev.cancellation_digits_lost * math.log2(10.0) + 53
    ref = an.rational_m(law, t, beta, 1.0)
    assert abs(ev.value - ref) <= 1e-10 * abs(ref)


# ---------------------------------------------------------------------------
# homogeneous case and tagged moments
# ---------------------------------------------------------------------------

def test_homogeneous_exponential_formula():
    for law in (BINARY, STICK):
        bs = an.beta_star_of(law)
        assert an.homogeneous_m(law, 5.0, bs) == pytest.approx(1.0, abs=1e-12)
        for t in (0.0, 1.0, 7.0, 20.0):
            ref = an.m_series(law, t, bs + 0.6, 0.0, rel_tol=1e-14).value
            assert an.homogeneous_m(law, t, bs + 0.6) == pytest.approx(ref, rel=1e-10)

