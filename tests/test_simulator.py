"""Simulator contracts: determinism, conservation, martingales, tagged chain."""

import hashlib
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from fragkit import analytics as an, laws, rng, simulate as sim
from fragkit.errors import (
    DomainError,
    FragkitError,
    NoMalthusianExponent,
    TreeSizeExceeded,
    UnsupportedSampler,
)
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


def _used_streams():
    """Generators left mid-buffer and with a half word held."""
    mid_buffer = rng.node_stream(9, 4, (1, 2))
    mid_buffer.random()
    half_word = stream(9, "natural", 3, 1)
    half_word.integers(0, 10, dtype=np.uint32)
    return mid_buffer, half_word


@pytest.mark.parametrize("depth", [0, 20])
def test_node_stream_reuse_matches_fresh(depth):
    path = tuple(range(depth))
    for g in _used_streams():
        reused = rng.node_stream(2, 5, path, reuse=g)
        assert reused is g
        assert _next_draws(reused) == _next_draws(rng.node_stream(2, 5, path))


@pytest.mark.parametrize("coords", [(), (7, 12)])
def test_stream_reuse_matches_fresh(coords):
    for g in _used_streams():
        reused = stream(2, "genealogy", *coords, reuse=g)
        assert reused is g
        assert _next_draws(reused) == _next_draws(stream(2, "genealogy", *coords))


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
        for pop in sim.natural_replicates(cfg, law, 1500):
            vals = pop.power_sums(beta)
            target = an.homogeneous_m(law, pop.t, beta)
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
    bs = laws.malthusian_exponent(atomic)
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


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


#: SHA-256 of m_hat and correction (depth 8, eps 1e-4, 300 trees, seed 17)
GENERATION_KNOWN_ANSWERS = {
    "StickBreakingLossy": (
        STICK,
        "72d0f9cfad792f5077a0556f26a48dc604df43a0e32c8cf80a1ade74fbdd5652",
        "59209a9025e3a41ffbdc1654227b9edb45a0bd70d404fa96170c41092e117074"),
    "StickBreakingConservative": (
        STICK_C,
        "934f6e32f1e0db0b026f1b413961bee232eed58afb662a337953ca7ec18af1a1",
        "4717a8dce1a949a96217c34c2b94f74ae52df9d49888e3d7fdce87f1935e0d25"),
    "UserAtomic": (
        COUNTED_LAWS["UserAtomic"],
        "b17d3b480f36c19d76d6edf18f2e4283b911ea0397ec653b365133d5be94c68e",
        "bf92e73067b37c9f23401325990bafe864167dd7972af6858e69c564c81d0773"),
}


@pytest.mark.parametrize("law,m_hat_sha,correction_sha", GENERATION_KNOWN_ANSWERS.values(),
                         ids=GENERATION_KNOWN_ANSWERS.keys())
def test_generation_martingale_known_answers(law, m_hat_sha, correction_sha):
    # the engine's draws and sums, pinned bit for bit
    res = sim.generation_martingale(law, laws.malthusian_exponent(law), depth=8, eps_prune=1e-4,
                                    n_trees=300, master_seed=17)
    assert res.m_hat.shape == (300, 9)
    assert (_sha(res.m_hat), _sha(res.correction)) == (m_hat_sha, correction_sha)


def test_m_infinity_known_answer():
    # lockstep pilot blocks, then the remaining blocks, the last one cut,
    # pinned bit for bit
    est = sim.estimate_m_infinity_moments(STICK, laws.malthusian_exponent(STICK), n_trees=2500,
                                          max_depth=10, eps_prune=1e-3, master_seed=5)
    assert repr(est) == (
        "MInftyEstimate(mean=1.014779410717894, mean_se=0.011107386608517013, "
        "second_moment=1.3380889715573427, second_moment_se=0.027234262504684355, "
        "n_generations=4, converged=True)")


def test_generation_engines_hold_one_block(monkeypatch):
    # memory scales with the widest block: no engine holds more than
    # TREE_BATCH trees, while the M_inf pilot still judges convergence on
    # min(PILOT_TREES, n_trees) of them
    widths, judged = [], []

    class Recording(sim._GenerationEngine):
        def __init__(self, law, beta_star, n_trees, *args, **kwargs):
            widths.append(n_trees)
            super().__init__(law, beta_star, n_trees, *args, **kwargs)

    judge = sim._tail_negligible

    def recording_judge(col, *args):
        judged.append(col.size)
        return judge(col, *args)

    monkeypatch.setattr(sim, "_GenerationEngine", Recording)
    monkeypatch.setattr(sim, "_tail_negligible", recording_judge)
    bs = an.beta_star_of(STICK)
    res = sim.generation_martingale(STICK, bs, depth=3, eps_prune=1e-3, n_trees=1500)
    assert res.m_hat.shape == (1500, 4)
    assert max(widths) == sim.TREE_BATCH < 1500 <= sum(widths) <= 2 * 1500
    for n_trees in (3000, 300):
        widths.clear()
        judged.clear()
        sim.estimate_m_infinity_moments(STICK, bs, n_trees=n_trees, max_depth=6, master_seed=3)
        assert max(widths) == sim.TREE_BATCH
        assert judged and set(judged) == {min(sim.PILOT_TREES, n_trees)}


def test_m_infinity_nonconvergence_flag():
    bs = an.beta_star_of(STICK)
    est = sim.estimate_m_infinity_moments(STICK, bs, n_trees=300, max_depth=2, master_seed=19)
    assert est.converged is False


# ---------------------------------------------------------------------------
# breadth-first natural-time engine against the heap
# ---------------------------------------------------------------------------

#: every sampler law the heap and the engine are compared on
KS_LAWS = {
    "BinaryUniformConservative": BINARY,
    "StickBreakingLossy": STICK,
    "StickBreakingConservative": STICK_C,
    "FilippovPower": FIL21,
    "UserAtomic": COUNTED_LAWS["UserAtomic"],
    "UserPoisson-power": COUNTED_LAWS["UserPoisson-power"],
}


@pytest.mark.parametrize("law", KS_LAWS.values(), ids=KS_LAWS.keys())
def test_engine_matches_heap_in_law(law):
    # two-sample KS, heap against engine, on the particle count and on
    # M(t, b*) + frozen at two snapshot times; the floor freezes often enough
    # for the frozen mass to take part
    bs = laws.malthusian_exponent(law)
    cfg = _config(t_max=5.0, snapshot_times=(1.0, 5.0), child_floor=1e-3, master_seed=61)
    heap = sim.run_replicates(cfg, law, 2000, beta_star=bs)
    engine = sim.natural_replicates(cfg, law, 2000, beta_star=bs)
    stats = {"n": lambda pop: pop.counts,
             "M + frozen": lambda pop: pop.power_sums(bs) + pop.frozen}
    for i, pop in enumerate(engine):
        # the heap's snapshots as columns, so both halves sum M(t, b*) in the
        # same order: for a conservative law M + frozen is 1 up to rounding,
        # and KS would otherwise tell summation orders apart, not laws
        snaps = [r[i] for r in heap]
        ref = sim.Population(pop.t, np.concatenate([s.sizes for s in snaps]),
                             np.array([s.sizes.size for s in snaps]),
                             np.array([s.frozen_beta_mass_bound for s in snaps]))
        for name, stat in stats.items():
            p = ks_2samp(stat(ref), stat(pop), method="asymp").pvalue
            assert p >= 1e-3, f"{name} at t={pop.t:g}: KS p = {p:.2e}"


@pytest.mark.parametrize("alpha,x0", [(0.0, 0.75), (1.0, 0.75), (400.0, 1.0)])
@pytest.mark.parametrize("law", [BINARY, STICK_C, COUNTED_LAWS["UserAtomic"]],
                         ids=["binary", "stick-c", "UserAtomic"])
def test_engine_conserves_mass_per_row(law, alpha, x0):
    # at alpha = 400 a particle below ~0.16 has rate 0.0: it must stay alive
    # with an infinite lifetime, not turn into a NaN row
    cfg = _config(alpha=alpha, t_max=3.0, snapshot_times=(0.0, 0.5, 3.0), child_floor=1e-3,
                  master_seed=67, initial_size=x0)
    pops = sim.natural_replicates(cfg, law, 300, beta_star=1.0)
    assert pops[0].counts.tolist() == [1] * 300 and pops[0].sizes.tolist() == [x0] * 300
    for pop in pops:
        assert pop.counts.size == 300
        assert np.max(np.abs(pop.power_sums(1.0) + pop.frozen - x0)) <= 1e-12
    if alpha == 400.0:
        assert pops[-1].sizes.min() ** alpha == 0.0


def test_engine_rows_sorted_and_frozen_nondecreasing():
    cfg = _config(snapshot_times=(0.5, 1.0, 2.0, 5.0), master_seed=19, child_floor=1e-4)
    pops = sim.natural_replicates(cfg, STICK, 40)
    for a, b in zip(pops, pops[1:]):
        assert np.all(b.frozen >= a.frozen)
    for pop in pops:
        rep = pop.replicate_ids
        assert np.all(np.diff(pop.sizes)[rep[1:] == rep[:-1]] <= 0)


def test_engine_keeps_heap_input_rules():
    chain = laws.UserPoisson(
        laws.AtomComponent(atoms=((0.5, 1.0),)), laws.AtomComponent(atoms=())
    )
    with pytest.raises(NoMalthusianExponent):
        sim.natural_replicates(_config(), chain, 2)
    pop, = sim.natural_replicates(_config(snapshot_times=(2.0,), child_floor=0.0), chain, 5)
    assert pop.counts.tolist() == [1] * 5  # always exactly one particle
    with pytest.raises(DomainError, match="floor"):
        sim.natural_replicates(_config(child_floor=0.0), STICK, 2)


def test_engine_population_cap_counts_per_replicate():
    # the cap reacts to growth, not to the block: 200 nodes per replicate
    # hold at t = 2, where a binary Yule tree at alpha 0 has about 2e^2 of
    # them, and trip by t = 8 (about 2e^8), whatever the block width
    short = _config(alpha=0.0, t_max=2.0, snapshot_times=(2.0,), max_particles=200)
    assert sim.natural_replicates(short, BINARY, 1)[0].counts.size == 1
    assert sim.natural_replicates(short, BINARY, 600)[0].counts.size == 600
    long = _config(alpha=0.0, t_max=8.0, snapshot_times=(8.0,), max_particles=200)
    with pytest.raises(TreeSizeExceeded, match="more than 200 particles materialised in "
                                               "replicate"):
        sim.natural_replicates(long, BINARY, 1)


def test_natural_block_layout():
    # each block is as wide as all before it, from 16 to 512 replicates
    assert list(sim._natural_blocks(1)) == [(0, 16)]
    assert list(sim._natural_blocks(17)) == [(0, 16), (16, 16)]
    assert [w for _, w in sim._natural_blocks(1500)] == [16, 16, 32, 64, 128, 256, 512, 512]
    for n in (1, 16, 17, 100, 512, 513, 5000):
        touched = sum(w for _, w in sim._natural_blocks(n))
        assert n <= touched <= max(16, 2 * n)
    assert list(sim._natural_blocks(0)) == []


def test_engine_stops_at_last_snapshot():
    # t_max beyond the last snapshot expands nothing more: a cap that holds
    # up to the snapshot holds for the run, and the rows are the same
    law_cfg = dict(alpha=0.0, snapshot_times=(2.0,), max_particles=200)
    near, = sim.natural_replicates(_config(t_max=2.0, **law_cfg), BINARY, 5)
    far, = sim.natural_replicates(_config(t_max=50.0, **law_cfg), BINARY, 5)
    assert near.sizes.tolist() == far.sizes.tolist()
    assert near.counts.tolist() == far.counts.tolist()
    assert sim.natural_replicates(_config(snapshot_times=()), BINARY, 3) == []


#: laws of the engine's input-edge property: with and without beta*, one
#: without a sampler
EDGE_LAWS = [BINARY, STICK, STICK_C, FIL21,
             laws.DirichletPolynomial(terms=((2.0, 1.0), (-0.1, 3.0))),
             laws.UserPoisson(laws.AtomComponent(atoms=((0.5, 1.0),)),
                              laws.AtomComponent(atoms=()))]


@given(
    law=st.sampled_from(EDGE_LAWS),
    alpha=st.sampled_from([0.0, 400.0]) | st.floats(min_value=0.0, max_value=400.0),
    t_max=st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=3.0),
    initial_size=st.sampled_from([1.0, 1e-300]) | st.floats(min_value=1e-300, max_value=1.0),
    child_floor=st.sampled_from([0.0, 1e-9, 1e-3]),
    max_particles=st.sampled_from([8, 200_000]),
    n=st.integers(min_value=0, max_value=3),
)
@example(law=STICK, alpha=0.0, t_max=0.0, initial_size=1.0, child_floor=0.0,
         max_particles=200_000, n=2)
@example(law=BINARY, alpha=400.0, t_max=3.0, initial_size=1.0, child_floor=0.0,
         max_particles=200_000, n=3)
@example(law=FIL21, alpha=1.0, t_max=3.0, initial_size=1e-300, child_floor=1e-9,
         max_particles=8, n=1)
@example(law=EDGE_LAWS[4], alpha=0.0, t_max=3.0, initial_size=1.0, child_floor=1e-3,
         max_particles=200_000, n=1)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_engine_input_edges(law, alpha, t_max, initial_size, child_floor, max_particles, n):
    # every input ends in finite rows or a FragkitError/ValueError, in bounded
    # time; numpy may not warn (a warning here is a NaN row in waiting), but
    # a rate may underflow to 0.0: that is an infinite lifetime
    t0 = time.monotonic()
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        try:
            cfg = sim.SimulationConfig(alpha=alpha, t_max=t_max, snapshot_times=(0.0, t_max),
                                       child_floor=child_floor, max_particles=max_particles,
                                       master_seed=71, initial_size=initial_size)
            pops = sim.natural_replicates(cfg, law, n)
        except (FragkitError, ValueError):
            pops = None
    assert time.monotonic() - t0 < 30.0
    if pops is not None:
        assert [p.t for p in pops] == [0.0, t_max]
        assert pops[0].sizes.tolist() == [initial_size] * n
        assert pops[0].counts.tolist() == [1] * n
        for pop in pops:
            assert pop.counts.size == pop.frozen.size == n and pop.counts.sum() == pop.sizes.size
            assert np.all(np.isfinite(pop.sizes)) and np.all(pop.sizes >= 0.0)
            assert np.all(np.isfinite(pop.frozen)) and np.all(pop.frozen >= 0)


# ---------------------------------------------------------------------------
# tagged fragment and Y
# ---------------------------------------------------------------------------

def test_tagged_moment_identity():
    # E L_t^(beta - beta*) = m(t, beta): two independent evaluators
    t, beta = 2.0, 1.7
    x = sim.tagged_final_sizes(FIL21, 1.0, t, 30000, master_seed=23)
    vals = x ** (beta - 1.0)
    target = an.m_series(FIL21, t, beta, 1.0).value
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * se


#: SHA-256 of tagged_final_sizes(law, alpha, 5.0, 300, master_seed=11)
TAGGED_KNOWN_ANSWERS = {
    ("stick", 0.0): "6bd8875acccccf47c7fbbbce0a6782714c9849cf7281369011dbad7e277ca10c",
    ("stick", 1.0): "bfd7e4206b84656d6b79191fc966560d7dc15c5bf2db9e3404773f2dd04255bb",
    ("stick", 1e300): "550bbd7fc29f8664c6a526f52af1964cce83a5bf9be2816a45ea743a9a4808a6",
    ("fil21", 0.0): "f454a4bb9611e9150354f3ec420a63d33a939e6736c5607a04c1f3e49850bc8f",
    ("fil21", 1.0): "f76b58a5b9fb78537cfd62deb6831e163f4b565131158a358c87f0c213f8ef2a",
    ("fil21", 1e300): "ed0955e63b30f36e2b270d145380047afd4f822854b171fde5904ede0156dc77",
}


@pytest.mark.parametrize("name, alpha", TAGGED_KNOWN_ANSWERS)
def test_tagged_final_sizes_known_answers(name, alpha):
    # at alpha = 1e300 every size below 1 has a rate that underflows to 0: an
    # infinite wait, which ends the path without a warning
    law = {"stick": STICK, "fil21": FIL21}[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = sim.tagged_final_sizes(law, alpha, 5.0, 300, master_seed=11)
    assert _sha(x) == TAGGED_KNOWN_ANSWERS[name, alpha]


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
