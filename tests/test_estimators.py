"""Estimator contracts: weighted measures, z-tests, oracles, distances."""

import math

import numpy as np
import pytest

from fragkit import analytics as an, estimators as est, laws, simulate as sim
from fragkit.errors import DomainError, EmptySnapshot, PrecisionExhausted, SecondMomentInfinite
from fragkit.rng import stream

BINARY = laws.BinaryUniformConservative()
STICK = laws.StickBreakingLossy()
FIL21 = laws.FilippovPower(2.0, 1.0)


def _measure(law, t, n, seed, alpha=1.0):
    bs = an.beta_star_of(law)
    cfg = sim.SimulationConfig(alpha=alpha, t_max=t, snapshot_times=(t,), master_seed=seed)
    pop, = sim.natural_replicates(cfg, law, n, beta_star=bs)
    return est.empirical_weighted_measure(pop, alpha, bs), pop


# ---------------------------------------------------------------------------
# weighted empirical measure
# ---------------------------------------------------------------------------

def test_weight_total_identity_exact():
    measure, pop = _measure(BINARY, 6.0, 200, seed=3)
    ends = np.cumsum(pop.counts)
    for r in range(200):
        assert measure.replicate_totals[r] == pytest.approx(
            pop.sizes[ends[r] - pop.counts[r]:ends[r]].sum(), abs=1e-14
        )
    assert np.all(measure.locations > 0)


def test_single_atom_before_first_split():
    bs = 1.0
    cfg = sim.SimulationConfig(alpha=1.0, t_max=1e-9, snapshot_times=(1e-9,), master_seed=5)
    pop, = sim.natural_replicates(cfg, BINARY, 8, beta_star=bs)
    m = est.empirical_weighted_measure(pop, 1.0, bs)
    assert m.locations.size == 8
    assert np.allclose(m.weights, 1.0)
    assert np.allclose(m.locations, 1e-9)  # t^(1/alpha) * size with size = 1


def test_moments_match_finite_time_targets():
    measure, _ = _measure(BINARY, 8.0, 1200, seed=7)
    for k in (1, 2):
        mo, se = measure.moment(k)
        target = 8.0**k * an.m_series(BINARY, 8.0, 1.0 + k, 1.0).value
        assert abs(mo - target) <= 3.0 * se


def test_histogram_mass_equals_weight():
    measure, _ = _measure(BINARY, 6.0, 300, seed=9)
    edges, mass = measure.histogram(n_bins=24)
    inside = (measure.locations >= edges[0]) & (measure.locations <= edges[-1])
    expected = measure.weights[inside].sum() / measure.n_replicates
    assert mass.sum() == pytest.approx(expected, rel=1e-9)


def test_empty_measure_raises():
    # supercritical law with extinction: a replicate can die out; when every
    # replicate is extinct the population carries no atoms
    extinct = laws.UserAtomic(groups=((0.5, ()), (0.5, (0.9, 0.9, 0.9))))
    bs = laws.malthusian_exponent(extinct)
    cfg = sim.SimulationConfig(alpha=1.0, t_max=40.0, snapshot_times=(40.0,), master_seed=11)
    pop, = sim.natural_replicates(cfg, extinct, 40, beta_star=bs)
    dead = pop.counts == 0
    assert dead.any(), "law with 50% immediate-death groups should show extinctions"
    only_dead = sim.Population(pop.t, np.empty(0), pop.counts[dead], pop.frozen[dead])
    with pytest.raises(EmptySnapshot):
        est.empirical_weighted_measure(only_dead, 1.0, bs)
    with pytest.raises(EmptySnapshot):
        est.empirical_weighted_measure(sim.natural_replicates(cfg, extinct, 0)[0], 1.0, bs)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_measure_needs_positive_alpha(alpha):
    # sizes scale by t^(1/alpha): at alpha = 0 every moment read the same number
    cfg = sim.SimulationConfig(alpha=0.0, t_max=1.0, snapshot_times=(1.0,), master_seed=5)
    pop, = sim.natural_replicates(cfg, FIL21, 4, beta_star=1.0)
    with pytest.raises(DomainError, match="alpha > 0"):
        est.empirical_weighted_measure(pop, alpha, 1.0)


def test_scaled_sizes_past_the_power_overflow():
    import mpmath as mp

    sizes = np.array([0.5, 1e-3, 0.0])
    # a finite scale multiplies as before, bit for bit
    assert est.scaled_sizes(10.0, 0.5, sizes).tolist() == (10.0 ** 2.0 * sizes).tolist()
    # log t / alpha = 805: t^(1/alpha) overflows, but a small size's product does not
    t, alpha = 1e7, 0.02
    with pytest.raises(OverflowError):
        t ** (1.0 / alpha)
    small = np.array([1e-300, 3.7e-320, 2.5e-290])
    got = est.scaled_sizes(t, alpha, small)
    with mp.workdps(40):
        ref = [float(mp.mpf(t) ** (1 / mp.mpf(alpha)) * mp.mpf(x)) for x in small]
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    assert est.scaled_sizes(np.float64(t), alpha, small).tolist() == got.tolist()
    # a product past the doubles, or a size that underflowed to 0.0 against
    # that scale, has no finite scaled value
    for bad in ([1e-300, 1e-10], [1e-300, 0.0]):
        with pytest.raises(DomainError, match="alpha = 0.02"):
            est.scaled_sizes(t, alpha, np.array(bad))
    with pytest.raises(DomainError, match="alpha = 1e-300"):
        est.scaled_sizes(10.0, 1e-300, small)


# ---------------------------------------------------------------------------
# mean power-sum test
# ---------------------------------------------------------------------------

def test_power_sum_check_exact_at_zero():
    chk = est.mean_power_sum_test(np.ones(16), 0.0, 1.4, FIL21, 1.0)
    assert chk.passed and chk.se == 0.0


def test_power_sum_check_series_target():
    _, pop = _measure(FIL21, 2.0, 1200, seed=13)
    ps = pop.power_sums(1.6)
    chk = est.mean_power_sum_test(ps, 2.0, 1.6, FIL21, 1.0)
    assert chk.passed
    assert chk.target == pytest.approx(an.m_series(FIL21, 2.0, 1.6, 1.0).value, rel=1e-12)


def test_power_sum_check_asymptotic_fallback(monkeypatch):
    def exhausted(*a, **k):
        raise PrecisionExhausted("forced")

    monkeypatch.setattr(an, "m_series", exhausted)
    # the estimate sits within 5% of C(beta) t^((b*-beta)/alpha): passes
    t, beta = 40.0, 2.0
    target = an.asymptotic_coefficient(FIL21, beta, 1.0) * t ** (1.0 - beta)
    ps = np.full(50, target * 1.03)
    chk = est.mean_power_sum_test(ps, t, beta, FIL21, 1.0)
    assert "asymptotic" in chk.name and chk.passed
    chk2 = est.mean_power_sum_test(np.full(50, target * 1.2), t, beta, FIL21, 1.0)
    assert not chk2.passed


# ---------------------------------------------------------------------------
# fixed-point second moment oracle
# ---------------------------------------------------------------------------

def test_oracle_closed_forms():
    assert est.m_infinity_second_moment_oracle(BINARY, 1.0) == est.OracleValue(1.0, 0.0)
    stick = est.m_infinity_second_moment_oracle(STICK, an.beta_star_of(STICK))
    assert stick.value == pytest.approx(1.3093160954979437, rel=1e-12)
    fil = est.m_infinity_second_moment_oracle(FIL21, 1.0)
    assert fil.value == pytest.approx(2.25, rel=1e-12)


def test_oracle_mc_path_matches_closed_form():
    class Opaque(laws.StickBreakingLossy):
        kind = "OpaqueStickMC"

        def offspring_square_mean(self, beta_star):
            return None

    bs = an.beta_star_of(STICK)
    mc = est.m_infinity_second_moment_oracle(Opaque(), bs, n_mc=40_000, master_seed=15)
    ref = est.m_infinity_second_moment_oracle(STICK, bs)
    assert abs(mc.value - ref.value) <= 3.0 * mc.se


def test_oracle_divergence_detection():
    class Degenerate(laws.ReproductionLaw):
        kind = "HeavySplit"
        beta_a = -math.inf
        has_sampler = True

        def _phi(self, beta):
            return 1.2 * 0.5**beta  # unused beyond phi(2b)

        def offspring_batch(self, rng, sizes, floor, beta_star):
            # parent 0 has 10000 children of size 0.99, every other parent one of 1e-6
            n = sizes.size
            kids = np.concatenate([np.full(10_000, 0.99), np.full(n - 1, 1e-6)])
            owner = np.concatenate([np.zeros(10_000, dtype=int), np.arange(1, n)])
            return kids, owner, np.zeros(n)

    with pytest.raises(SecondMomentInfinite):
        est.m_infinity_second_moment_oracle(Degenerate(), 0.5, n_mc=500, master_seed=17)


# ---------------------------------------------------------------------------
# L2 functional statistics
# ---------------------------------------------------------------------------

def test_integral_oracle_closed_form():
    orc = est.integral_f_rho(FIL21, 1.0, est.exp_decay(), n=150_000, master_seed=19)
    # int e^-x (x e^-x) dx = 1/4 for the gamma-type density
    assert abs(orc.value - 0.25) <= 3.0 * orc.se


def test_l2_functional_report():
    rep = est.l2_functional_test(
        FIL21, 1.0, est.exp_decay(), (5.0, 25.0), n_replicates=500, master_seed=21,
        f_rho=est.OracleValue(0.25, 0.0),
    )
    assert len(rep.checks) == 3
    assert rep.all_pass, rep.table()


def test_l2_constant_function_degenerates():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    one.label = "1"
    rep = est.l2_functional_test(
        BINARY, 1.0, one, (2.0, 8.0), n_replicates=200, master_seed=23,
        f_rho=est.OracleValue(1.0, 0.0), m2_oracle=est.OracleValue(1.0, 0.0),
    )
    # A_t = M(t, b*) = 1 pathwise for the conservative law: the variance
    # statistic is identically zero and everything passes trivially
    var_check = rep.checks[-1]
    assert var_check.estimate == 0.0 and var_check.passed
    assert rep.all_pass


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def test_cdf_distance_against_own_samples():
    rng = stream(25, "cdf")
    xs = rng.gamma(2.0, 1.0, size=30_000)
    measure = est.WeightedEmpiricalMeasure(
        t=1.0, alpha=1.0, beta_star=1.0,
        locations=xs, weights=np.ones_like(xs),
        replicate_index=np.zeros(xs.size, dtype=int),
        replicate_totals=np.array([float(xs.size)]),
    )
    d = est.cdf_distance(measure, lambda x: an.rho_cdf(FIL21, 1.0, x))
    assert d < 3.0 * math.sqrt(math.log(40.0) / (2.0 * xs.size))


def test_cdf_distance_singleton_vs_continuous():
    measure = est.WeightedEmpiricalMeasure(
        t=0.0, alpha=1.0, beta_star=1.0,
        locations=np.array([1e-8]), weights=np.array([1.0]),
        replicate_index=np.array([0]), replicate_totals=np.array([1.0]),
    )
    d = est.cdf_distance(measure, lambda x: an.rho_cdf(FIL21, 1.0, x))
    assert d > 0.95


def test_cdf_distance_simulation_converges():
    measure, _ = _measure(BINARY, 25.0, 800, seed=27)
    d = est.cdf_distance(measure, lambda x: an.rho_cdf(FIL21, 1.0, x))
    assert d < 0.05


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_z_check_and_report_table():
    rep = est.ValidationReport()
    rep.add(est.z_check("good", 1.01, 1.0, 0.01))
    assert rep.all_pass
    rep.add(est.z_check("bad", 2.0, 1.0, 0.01))
    assert not rep.all_pass
    txt = rep.table()
    assert "good" in txt and "NO" in txt
