"""Simulator contracts: determinism, conservation, martingales, tagged chain."""

import math

import numpy as np
import pytest

from fragkit import analytics as an, laws, rng, simulate as sim
from fragkit.errors import NoMalthusianExponent, TreeSizeExceeded, UnsupportedSampler
from fragkit.rng import stream

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BINARY = laws.BinaryUniformConservative()
STICK = laws.StickBreakingLossy()
STICK_C = laws.StickBreakingConservative()
FIL21 = laws.FilippovPower(2.0, 1.0)


def _config(**kw):
    base = dict(alpha=1.0, t_max=5.0, snapshot_times=(1.0, 5.0), master_seed=101)
    base.update(kw)
    return sim.SimulationConfig(**base)


# ---------------------------------------------------------------------------
# determinism and structure
# ---------------------------------------------------------------------------

def test_bit_identical_reruns():
    cfg = _config()
    a = sim.run(cfg, STICK, replicate=3)
    b = sim.run(cfg, STICK, replicate=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.sizes, y.sizes)
        assert x.frozen_beta_mass_bound == y.frozen_beta_mass_bound


def test_snapshot_before_first_split_is_single_ancestor():
    cfg = _config(snapshot_times=(0.0, 5.0))
    snaps = sim.run(cfg, BINARY, replicate=0)
    assert snaps[0].sizes.tolist() == [1.0]
    assert sim.snapshot_power_sum(snaps[0], 2.7) == 1.0


def test_replicates_differ():
    cfg = _config(snapshot_times=(5.0,))
    a = sim.run(cfg, BINARY, replicate=0)[0]
    b = sim.run(cfg, BINARY, replicate=1)[0]
    assert not np.array_equal(a.sizes, b.sizes)


def test_conservative_mass_identity():
    # sum of sizes plus frozen mass equals 1 along the whole run (beta* = 1,
    # so the frozen beta*-mass *is* the frozen mass)
    for law in (BINARY, STICK_C):
        cfg = _config(snapshot_times=(1.0, 3.0, 5.0), master_seed=13)
        for r in range(30):
            for s in sim.run(cfg, law, replicate=r):
                assert abs(s.sizes.sum() + s.frozen_beta_mass_bound - 1.0) < 1e-12


def test_frozen_bound_nondecreasing():
    cfg = _config(snapshot_times=(0.5, 1.0, 2.0, 5.0), master_seed=19, child_floor=1e-4)
    for r in range(10):
        snaps = sim.run(cfg, STICK, replicate=r)
        bounds = [s.frozen_beta_mass_bound for s in snaps]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_population_cap_raises():
    cfg = _config(snapshot_times=(5.0,), max_particles=8, master_seed=3)
    with pytest.raises(TreeSizeExceeded, match="more than 8 particles"):
        sim.run(cfg, STICK, replicate=0)


def test_no_root_law_needs_zero_floor():
    chain = laws.UserPoisson(
        laws.AtomComponent(atoms=((0.5, 1.0),)), laws.AtomComponent(atoms=())
    )
    with pytest.raises(NoMalthusianExponent):
        sim.run(_config(), chain)
    cfg = _config(snapshot_times=(2.0,), child_floor=0.0)
    snaps = sim.run(cfg, chain, replicate=0)
    assert snaps[0].sizes.size == 1  # always exactly one particle


def test_underflowing_rate_never_splits():
    # at alpha = 400 a child below ~0.16 has rate x^alpha = 0.0 in floating
    # point: its lifetime is infinite and it stays alive
    cfg = _config(alpha=400.0, snapshot_times=(5.0,), child_floor=0.0)
    smallest = []
    for r in range(20):
        snap = sim.run(cfg, BINARY, replicate=r)[0]
        assert abs(snap.sizes.sum() - 1.0) < 1e-12
        smallest.append(snap.sizes.min())
    assert min(smallest) ** 400.0 == 0.0


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

#: keys and first ``random()`` of the streams, recorded before ``_key`` was
#: rewritten; a change here moves every simulated number
STREAM_KEYS = (
    ((0, "root-life", (0,)), "73dec783f50fad7df3a1d23c02a499ea", 0.9083641940670607),
    ((7, "genealogy", (3, 20)), "98a32e461861bdf65fb3012a047161a7", 0.6749114822179739),
    ((5, "tagged", (-4,)), "d91e88fce61596dcbae63c8e1a8830e9", 0.44695416319539416),
    ((2**40 + 5, "limit-Y", ()), "607d4461ac1113192025bbd8a2fa164f", 0.6553228042546241),
)
NODE_KEYS = (
    ((0, 0, ()), "c8e2340b094acf3ca41e58d0237fae1a", 0.4670283789829035),
    ((7, 3, tuple(range(20))), "9a687277e44eb7202821ef8123bb7a73", 0.2796433800235989),
    ((5, -2, (1, -3)), "2801651894e127253fd9af9fc72856d2", 0.8084579727487018),
    ((2**40 + 5, 1, (4,)), "86dd87f54ce3fd0cc5c3e20fef8a929d", 0.9340005456243072),
)


def test_stream_keys_known_answers():
    for (seed, purpose, coords), key, first in STREAM_KEYS:
        assert rng._key(seed, purpose, coords).tobytes().hex() == key
        assert stream(seed, purpose, *coords).random() == first
    for (seed, rep, path), key, first in NODE_KEYS:
        assert rng._key(seed, "node", (rep, len(path)) + path).tobytes().hex() == key
        assert rng.node_stream(seed, rep, path).random() == first


def _next_draws(g):
    return (g.random(), g.standard_exponential(5).tolist(), g.poisson(3.0),
            g.integers(0, 1000, size=3, dtype=np.uint32).tolist())


@pytest.mark.parametrize("depth", [0, 20])
def test_node_stream_reuse_matches_fresh(depth):
    path = tuple(range(depth))
    mid_buffer = rng.node_stream(9, 4, (1, 2))
    mid_buffer.random()
    half_word = rng.node_stream(9, 4, (3,))
    half_word.integers(0, 10, dtype=np.uint32)
    for g in (mid_buffer, half_word):
        reused = rng.node_stream(2, 5, path, reuse=g)
        assert reused is g
        assert _next_draws(reused) == _next_draws(rng.node_stream(2, 5, path))


# ---------------------------------------------------------------------------
# martingale and mean checks
# ---------------------------------------------------------------------------

def _corrected_power_sums(cfg, law, n, bs):
    reps = sim.run_replicates(cfg, law, n, beta_star=bs)
    out = []
    for i in range(len(cfg.snapshot_times)):
        out.append(
            np.array([
                sim.snapshot_power_sum(r[i], bs) + r[i].frozen_beta_mass_bound for r in reps
            ])
        )
    return out


def test_natural_time_martingale_stick():
    bs = an.beta_star_of(STICK)
    cfg = _config(t_max=5.0, snapshot_times=(1.0, 5.0), master_seed=29)
    for vals in _corrected_power_sums(cfg, STICK, 1500, bs):
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3.0 * se


def test_power_sum_vs_series_mean():
    cfg = _config(t_max=2.0, snapshot_times=(2.0,), master_seed=31)
    reps = sim.run_replicates(cfg, FIL21, 2500)
    vals = np.array([sim.snapshot_power_sum(r[0], 1.8) for r in reps])
    target = an.m_series(FIL21, 2.0, 1.8, 1.0).value
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * se


def test_homogeneous_mode_matches_exponential():
    for law, beta in ((BINARY, 2.0), (FIL21, 1.5)):
        cfg = sim.SimulationConfig(alpha=0.0, t_max=3.0, snapshot_times=(1.0, 3.0),
                                   master_seed=37)
        reps = sim.run_replicates(cfg, law, 1500)
        for i, t in enumerate(cfg.snapshot_times):
            vals = np.array([sim.snapshot_power_sum(r[i], beta) for r in reps])
            target = an.homogeneous_m(law, t, beta)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) <= 3.0 * se


def test_truncation_accounting_floor_sweep():
    # E M-hat(eps_small) - E M-hat(eps_big) equals the frozen-bound gap in
    # expectation: the paired difference must sit within 3 SE of it
    bs = an.beta_star_of(STICK)
    n = 800
    raw, frozen = {}, {}
    for floor in (1e-4, 1e-3):
        cfg = _config(t_max=4.0, snapshot_times=(4.0,), child_floor=floor, master_seed=43)
        reps = sim.run_replicates(cfg, STICK, n, beta_star=bs)
        raw[floor] = np.array([sim.snapshot_power_sum(r[0], bs) for r in reps])
        frozen[floor] = np.array([r[0].frozen_beta_mass_bound for r in reps])
    gap_mean = raw[1e-4].mean() - raw[1e-3].mean()
    bound_gap = frozen[1e-3].mean() - frozen[1e-4].mean()
    se = math.hypot(raw[1e-4].std(ddof=1), raw[1e-3].std(ddof=1)) / math.sqrt(n)
    assert abs(gap_mean - bound_gap) <= 3.0 * se
    assert bound_gap > 0


def test_self_similarity_rescaling():
    # the size-y process is the unit process with sizes scaled by y and time
    # slowed by y^alpha: E M^(y)(t y^-alpha, beta) = y^beta m(t, beta)
    y, t, beta = 0.6, 3.0, 1.5
    cfg = sim.SimulationConfig(alpha=1.0, t_max=t / y, snapshot_times=(t / y,),
                               master_seed=47, initial_size=y)
    reps = sim.run_replicates(cfg, FIL21, 2500)
    vals = np.array([sim.snapshot_power_sum(r[0], beta) for r in reps])
    target = y**beta * an.m_series(FIL21, t, beta, 1.0).value
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# generation-indexed martingale
# ---------------------------------------------------------------------------

def test_generation_martingale_conservative_exact():
    for eps in (0.0, 0.3):
        res = sim.generation_martingale(BINARY, 1.0, depth=6, eps_prune=eps, n_trees=64,
                                        master_seed=5)
        assert np.allclose(res.m_tilde, 1.0, atol=1e-12)
    res = sim.generation_martingale(STICK_C, 1.0, depth=5, eps_prune=1e-6, n_trees=64,
                                    master_seed=6)
    assert np.allclose(res.m_tilde, 1.0, atol=1e-9)


def test_generation_martingale_unbiased_stick():
    bs = an.beta_star_of(STICK)
    res = sim.generation_martingale(STICK, bs, depth=10, eps_prune=1e-4, n_trees=4000,
                                    master_seed=7)
    mt = res.m_tilde
    for n in (4, 10):
        se = mt[:, n].std(ddof=1) / math.sqrt(mt.shape[0])
        assert abs(mt[:, n].mean() - 1.0) <= 3.0 * se
    # corrections are nonnegative and raw values are biased low
    assert np.all(res.correction >= 0.0)
    assert res.m_hat[:, 10].mean() < mt[:, 10].mean()


#: laws whose batch draws a random child count per parent
COUNTED_LAWS = {
    "FilippovPower": FIL21,
    "DirichletPolynomial": laws.DirichletPolynomial(terms=((1.2, 0.7), (0.9, 2.0))),
    "UserAtomic": laws.UserAtomic(groups=((0.6, (0.5, 0.5)), (0.4, (0.7, 0.2, 0.1)))),
    "UserPoisson-power": laws.UserPoisson(laws.PowerComponent(1.0, 1.5),
                                          laws.PowerComponent(0.8, 0.5)),
    "UserPoisson-atoms": laws.UserPoisson(laws.AtomComponent(((0.6, 1.0),)),
                                          laws.AtomComponent(((0.5, 0.7), (0.25, 0.4)))),
}


@pytest.mark.parametrize("law", COUNTED_LAWS.values(), ids=COUNTED_LAWS.keys())
def test_generation_martingale_counted_laws(law):
    bs = an.beta_star_of(law)
    res = sim.generation_martingale(law, bs, depth=8, eps_prune=1e-7, n_trees=3000,
                                    master_seed=9)
    mt = res.m_tilde[:, 8]
    se = mt.std(ddof=1) / math.sqrt(mt.size)
    # the conservative UserAtomic law has M_n = 1 up to rounding and se ~ 0
    assert abs(mt.mean() - 1.0) <= 3.0 * se + 1e-12


@pytest.mark.parametrize("law", [laws.FilippovPower(1.0, -0.3),
                                 laws.DirichletPolynomial(terms=((2.0, 1.0), (-0.1, 3.0)))],
                         ids=["FilippovPower", "DirichletPolynomial-signed"])
def test_generation_martingale_needs_a_sampler(law):
    # an analytics-only law has no batch sampler: the engine must say so
    # rather than hand numpy parameters it rejects
    with pytest.raises(UnsupportedSampler):
        sim.generation_martingale(law, an.beta_star_of(law), depth=2, n_trees=10)


def test_generation_martingale_supercritical_survival():
    # extinction-capable law: some trees die, survivors keep positive mass
    atomic = laws.UserAtomic(groups=((0.4, ()), (0.6, (0.9, 0.8, 0.7))))
    bs = laws.malthusian_exponent(atomic, tol=1e-12)
    res = sim.generation_martingale(atomic, bs, depth=10, eps_prune=0.0, n_trees=2000,
                                    master_seed=13)
    last = res.m_tilde[:, 10]
    extinct = np.mean(last == 0.0)
    assert 0.05 < extinct < 0.95
    se = last.std(ddof=1) / math.sqrt(last.size)
    assert abs(last.mean() - 1.0) <= 3.0 * se


def test_m_infinity_moment_estimator():
    est = sim.estimate_m_infinity_moments(BINARY, 1.0, n_trees=500, master_seed=15)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.second_moment == pytest.approx(1.0, abs=1e-12)
    bs = an.beta_star_of(STICK)
    est2 = sim.estimate_m_infinity_moments(STICK, bs, n_trees=6000, master_seed=17)
    assert est2.converged
    assert abs(est2.mean - 1.0) <= 3.0 * est2.mean_se
    oracle = 1.3093160954979437  # fixed-point closed form, frozen
    assert abs(est2.second_moment - oracle) <= 3.0 * est2.second_moment_se


def test_m_infinity_nonconvergence_flag():
    bs = an.beta_star_of(STICK)
    est = sim.estimate_m_infinity_moments(STICK, bs, n_trees=300, max_depth=2, master_seed=19)
    assert est.converged is False


# ---------------------------------------------------------------------------
# tagged fragment and Y
# ---------------------------------------------------------------------------

def test_tagged_path_structure():
    ts, sizes = sim.tagged_fragment_path(FIL21, 1.0, 20.0, master_seed=21)
    assert sizes[0] == 1.0 and ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert np.all(np.diff(sizes) < 0)
    assert ts[-1] <= 20.0


def test_tagged_moment_identity():
    # E L_t^(beta - beta*) = m(t, beta): two independent evaluators
    t, beta = 2.0, 1.7
    x = sim.tagged_final_sizes(FIL21, 1.0, t, 30000, master_seed=23)
    vals = x ** (beta - 1.0)
    target = an.m_series(FIL21, t, beta, 1.0).value
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * se


def test_tagged_limit_distribution():
    t = 60.0
    x = sim.tagged_final_sizes(FIL21, 1.0, t, 40000, master_seed=25)
    scaled = np.sort(t * x)
    emp = np.arange(1, scaled.size + 1) / scaled.size
    ks = np.max(np.abs(emp - an.rho_cdf(FIL21, 1.0, scaled)))
    assert ks < 0.03


def test_sample_y_moments_and_positivity():
    res = sim.sample_Y(FIL21, 1.0, 100_000, master_seed=27)
    assert np.all(res.values > 0.0)
    for k, ref in ((1, 2.0), (2, 6.0)):
        vals = res.values**k
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - ref) <= 3.0 * se
    assert res.tail_mean_bound < 1e-10


def test_sample_y_tail_truncation_shift():
    coarse = sim.sample_Y(FIL21, 1.0, 150_000, master_seed=29, eps_tail=1e-3)
    fine = sim.sample_Y(FIL21, 1.0, 150_000, master_seed=29, eps_tail=1e-12)
    shift = fine.values.mean() - coarse.values.mean()
    se = math.hypot(fine.values.std(ddof=1), coarse.values.std(ddof=1)) / math.sqrt(150_000)
    assert abs(shift) <= coarse.tail_mean_bound + 3.0 * se
    assert coarse.tail_mean_bound > fine.tail_mean_bound


def test_sample_y_stick_first_moment():
    bs = an.beta_star_of(STICK)
    res = sim.sample_Y(STICK, 1.0, 80_000, master_seed=31)
    ref = an.rho_moment(STICK, 1, 1.0)
    se = res.values.std(ddof=1) / math.sqrt(res.values.size)
    assert abs(res.values.mean() - ref) <= 3.0 * se
