"""Reproduction-law contracts: Mellin data, root finding, samplers, tilts."""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fragkit import analytics, laws
from fragkit.errors import (
    DomainError,
    LawSpecError,
    NoMalthusianExponent,
    UnsupportedSampler,
    UnsupportedTilt,
)
from fragkit.rng import stream

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BINARY = laws.BinaryUniformConservative()
STICK = laws.StickBreakingLossy()
STICK_C = laws.StickBreakingConservative()
FIL21 = laws.FilippovPower(2.0, 1.0)
DIRI = laws.DirichletPolynomial(terms=((1.2, 0.7), (0.9, 2.0)))
ATOMIC = laws.UserAtomic(groups=((0.6, (0.5, 0.5)), (0.4, (0.7, 0.2, 0.1))))
# power terms 1.5 x^0.5 dx + 0.4 x^-0.5 dx: a two-term tilt mixture
POISSON = laws.UserPoisson(laws.PowerComponent(1.0, 1.5), laws.PowerComponent(0.8, 0.5))

SAMPLER_LAWS = [BINARY, STICK, STICK_C, FIL21, ATOMIC]


# ---------------------------------------------------------------------------
# phi / psi closed forms
# ---------------------------------------------------------------------------

def test_phi_spot_values():
    assert STICK.phi(1.0) == pytest.approx(0.5, abs=1e-15)
    assert FIL21.phi(1.0) == pytest.approx(1.0, abs=1e-15)
    assert BINARY.phi(0.0) == pytest.approx(2.0, abs=1e-15)
    assert STICK_C.phi(2.0) == pytest.approx(0.5, abs=1e-15)


def test_phi_at_malthusian_is_one():
    for law in SAMPLER_LAWS:
        bs = laws.malthusian_exponent(law, tol=1e-12)
        assert abs(law.phi(bs) - 1.0) < 1e-10


def test_psi_values_and_derivative():
    # psi = (beta-1)/(beta+1) for the (2,1) power law; psi'(1) = 0.5
    assert FIL21.psi(1.0) == pytest.approx(0.0, abs=1e-15)
    assert FIL21.psi_prime(1.0) == pytest.approx(0.5, rel=1e-12)
    assert STICK.psi(1.0) == pytest.approx(0.5, abs=1e-15)
    # closed-form derivatives agree with the generic Richardson fallback
    for law, b in [(STICK, 0.9), (FIL21, 1.4), (ATOMIC, 0.8), (BINARY, 1.1), (DIRI, 1.2)]:
        fd = laws._richardson_derivative(law.psi, b, law.beta_a)
        assert law.psi_prime(b) == pytest.approx(fd, rel=1e-7)


def test_phi_domain_error():
    with pytest.raises(DomainError):
        STICK.phi(-0.5)
    with pytest.raises(DomainError):
        FIL21.phi(-1.0)


@given(
    st.sampled_from([BINARY, STICK, STICK_C, FIL21, ATOMIC]),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_phi_modulus_bound(law, offset, imag):
    beta = law.beta_a + offset if math.isfinite(law.beta_a) else offset
    val = law.phi(complex(beta, imag))
    assert abs(val) <= law.phi(beta) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Malthusian exponent
# ---------------------------------------------------------------------------

def test_malthusian_stick_breaking():
    assert laws.malthusian_exponent(STICK, tol=1e-12) == pytest.approx(GOLDEN, abs=1e-10)


@pytest.mark.parametrize("lam,theta", [(2.0, 1.0), (1.5, 1.0), (1.0, 0.5)])
def test_malthusian_power_family(lam, theta):
    law = laws.FilippovPower(lam, theta)
    assert laws.malthusian_exponent(law, tol=1e-12) == pytest.approx(lam - theta, abs=1e-10)


def test_malthusian_no_root():
    with pytest.raises(NoMalthusianExponent) as exc:
        laws.malthusian_exponent(laws.no_malthusian_example(), tol=1e-10)
    assert exc.value.phi_at_abscissa == pytest.approx(0.5, abs=1e-3)


def test_malthusian_residual_invariant():
    for law in SAMPLER_LAWS:
        for tol in (1e-6, 1e-10):
            bs = laws.malthusian_exponent(law, tol=tol)
            assert abs(law.phi(bs) - 1.0) < 10 * tol


def test_malthusian_theta_nonpositive_analytics():
    law = laws.FilippovPower(1.0, -0.3)  # abscissa 0.3, root 1.3
    assert laws.malthusian_exponent(law, tol=1e-12) == pytest.approx(1.3, abs=1e-10)
    with pytest.raises(UnsupportedSampler):
        law.sample_offspring(stream(0, "t"))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_binary_conserves_exactly():
    rng = stream(1, "test")
    for _ in range(200):
        s = BINARY.sample_offspring(rng)
        assert s.sizes.sum() == pytest.approx(1.0, abs=1e-15)
        assert s.sizes.size == 2


def test_offspring_sorted_and_in_unit_interval():
    rng = stream(2, "test")
    for law in SAMPLER_LAWS:
        for _ in range(2500):
            s = law.sample_offspring(rng)
            assert np.all(s.sizes >= 0.0) and np.all(s.sizes <= 1.0)
            assert np.all(np.diff(s.sizes) <= 0.0)
            assert s.truncated_beta_mass_bound >= 0.0


def _offspring_power_sums(law, n, betas, seed, add_tail_at=None):
    rng = stream(seed, "mc-phi")
    out = np.zeros((len(betas), n))
    counts = np.zeros(n)
    for i in range(n):
        s = law.sample_offspring(rng)
        counts[i] = s.sizes.size
        for j, b in enumerate(betas):
            out[j, i] = np.sum(s.sizes**b)
            if add_tail_at is not None and b == add_tail_at:
                out[j, i] += s.truncated_beta_mass_bound
    return out, counts


@pytest.mark.parametrize("law", SAMPLER_LAWS, ids=lambda l: l.kind)
def test_mc_power_sums_match_phi(law):
    # E sum xi^beta = phi(beta) within 3 SE at n = 1e5, on the grid
    # {b*/2, b*, b*+1, b*+2} (alpha-spaced with alpha = 1).  At beta = b*
    # the reported tail term is added: it is the exact conditional mean of
    # the floor-truncated children, and conservative laws have *zero*
    # variance there, so any uncorrected deficit would be infinitely many SE.
    n = 100_000
    bs = laws.malthusian_exponent(law, tol=1e-12)
    betas = [bs / 2, bs, bs + 1.0, bs + 2.0]
    sums, counts = _offspring_power_sums(law, n, betas, seed=37, add_tail_at=bs)
    for b, vals in zip(betas, sums):
        se = vals.std(ddof=1) / math.sqrt(n)
        tol = 3.0 * se + 1e-12
        assert abs(vals.mean() - law.phi(b)) <= tol, (law.kind, b)
    # mean offspring count converges to phi(0) when finite
    if law.beta_a < 0:
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - law.phi(0.0)) <= 3.0 * se


#: every law with a sampler, UserPoisson in both component forms
BATCH_LAWS = {law.kind: law for law in SAMPLER_LAWS + [DIRI]}
BATCH_LAWS["UserPoisson-power"] = POISSON
BATCH_LAWS["UserPoisson-atoms"] = laws.UserPoisson(
    laws.AtomComponent(((0.6, 1.0),)), laws.AtomComponent(((0.5, 0.7), (0.25, 0.4))))


@pytest.mark.parametrize("floor", [1e-12, 1e-3, 0.2])
@pytest.mark.parametrize("law", BATCH_LAWS.values(), ids=BATCH_LAWS.keys())
def test_scalar_sampler_matches_batch_on_a_unit_parent(law, floor):
    # on identical streams the scalar sampler (derived, or a law's own loop)
    # and the batch on one unit parent, sorted and floored, give the same
    # children; the truncated mass differs at most by summation order and
    # by the root finder's beta* against a law's exact one
    bs = laws._beta_star_newton(law)
    scalar, batch = stream(21, "two-paths"), stream(21, "two-paths")
    for _ in range(300):
        s = law.sample_offspring(scalar, floor=floor)
        kids, owner, tail = law.offspring_batch(batch, np.ones(1), floor, bs)
        assert np.all(owner == 0)
        kids = np.sort(kids)[::-1]
        keep = kids >= floor
        assert np.array_equal(s.sizes, kids[keep])
        mass = tail[0] + np.sum(kids[~keep] ** bs)
        assert s.truncated_beta_mass_bound == pytest.approx(mass, rel=1e-13, abs=0.0)
    # an extinct generation hands the batch no parents
    kids, owner, tail = law.offspring_batch(batch, np.empty(0), floor, bs)
    assert kids.size == owner.size == tail.size == 0


_ZERO_FLOOR_CALLS = {
    "sampler": "laws.StickBreakingConservative().sample_offspring(stream(0, 't'), floor=0.0)",
    "engine": "simulate.generation_martingale(laws.StickBreakingLossy(), 0.618, depth=2, "
              "eps_prune=0.0, n_trees=4)",
}


@pytest.mark.parametrize("call", _ZERO_FLOOR_CALLS.values(), ids=_ZERO_FLOOR_CALLS.keys())
def test_zero_floor_rejected_for_infinite_offspring(call):
    # stick-breaking has infinitely many children: with floor 0 the residual
    # underflows to 0.0 >= 0.0 and no loop could end, so it must raise
    script = ("from fragkit import laws, simulate\n"
              "from fragkit.errors import DomainError\n"
              "from fragkit.rng import stream\n"
              f"try:\n    {call}\nexcept DomainError:\n    print('rejected')\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={"PYTHONPATH": src})
    assert proc.stdout.strip() == "rejected", proc.stderr


def test_stick_truncation_bound_semantics():
    # the reported tail term is residual^b*/b* plus the exact b*-mass of any
    # materialised children under the floor: O(floor^b*) in total
    rng = stream(3, "test")
    floor = 1e-6
    for _ in range(500):
        s = STICK.sample_offspring(rng, floor=floor)
        assert s.sizes.size == 0 or s.sizes.min() >= floor
        assert 0.0 <= s.truncated_beta_mass_bound <= 64.0 * floor**GOLDEN


# ---------------------------------------------------------------------------
# Poisson construction
# ---------------------------------------------------------------------------

def test_poisson_singleton_child():
    law = laws.UserPoisson(
        laws.AtomComponent(atoms=((0.5, 1.0),)), laws.AtomComponent(atoms=())
    )
    rng = stream(4, "test")
    for _ in range(50):
        s = law.sample_offspring(rng)
        assert s.sizes.tolist() == [0.5]


def test_poisson_expected_count():
    # one sigma1 draw plus Poisson(mass sigma2 = 1): E #children = 2
    law = laws.UserPoisson(laws.PowerComponent(1.0, 1.0), laws.PowerComponent(1.0, 1.0))
    rng = stream(5, "test")
    n = 20_000
    counts = np.array([law.sample_offspring(rng).sizes.size for _ in range(n)])
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - 2.0) <= 3.0 * se


def test_poisson_matches_power_law_mellin():
    # theta x^(theta-1) + (lam-theta) x^(theta-1) rebuilds phi = lam/(theta+beta)
    lam, theta = 2.0, 1.0
    law = laws.UserPoisson(
        laws.PowerComponent(1.0, theta), laws.PowerComponent((lam - theta) / theta, theta)
    )
    for b in (0.5, 1.0, 2.5):
        assert law.phi(b) == pytest.approx(lam / (theta + b), rel=1e-14)
    n = 50_000
    sums, _ = _offspring_power_sums(law, n, [1.5], seed=11)
    se = sums[0].std(ddof=1) / math.sqrt(n)
    assert abs(sums[0].mean() - lam / (theta + 1.5)) <= 3.0 * se


def test_poisson_requires_probability_sigma1():
    with pytest.raises(Exception):
        laws.UserPoisson(laws.PowerComponent(0.5, 1.0), laws.PowerComponent(1.0, 1.0))


def test_atom_mass_at_one_in_either_spec_form():
    # sigma = 0.5 (delta_1 + delta_0.7 + delta_0.5 + delta_0.3), as groups and as a Poisson pair
    atomic = laws.UserAtomic(groups=((0.5, (1.0, 0.5)), (0.5, (0.7, 0.3))))
    poisson = laws.UserPoisson(laws.AtomComponent(((1.0, 0.5), (0.7, 0.5))),
                               laws.AtomComponent(((0.5, 0.5), (0.3, 0.5))))
    assert atomic.atom_mass_at_one == poisson.atom_mass_at_one == 0.5
    assert BINARY.atom_mass_at_one == ATOMIC.atom_mass_at_one == 0.0


# ---------------------------------------------------------------------------
# tilted tag law
# ---------------------------------------------------------------------------

def _dkw_bound(n, delta=0.05):
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@pytest.mark.parametrize("law", [BINARY, STICK, STICK_C, FIL21, ATOMIC, POISSON],
                         ids=lambda l: l.kind)
def test_tilted_law_cdf(law):
    n = 100_000
    bs = laws.malthusian_exponent(law, tol=1e-12)
    tagged = law.tagged(bs)
    rng = stream(6, "tilt")
    eta = tagged.sample_eta(rng, n)
    xs = np.sort(eta)
    if law.sigma_atoms() is not None:
        # discrete tilt: compare right-continuous CDFs at the distinct atoms
        uniq, counts = np.unique(xs, return_counts=True)
        emp = np.cumsum(counts) / n
        ks = np.max(np.abs(emp - tagged.eta_cdf(uniq)))
    else:
        emp = np.arange(1, n + 1) / n
        target = tagged.eta_cdf(xs)
        ks = max(np.max(np.abs(emp - target)), np.max(np.abs(emp - 1.0 / n - target)))
    assert ks < 3.0 * _dkw_bound(n), law.kind


def test_tilt_total_mass_and_moments():
    bs = laws.malthusian_exponent(FIL21, tol=1e-12)
    tagged = FIL21.tagged(bs)
    # sigma_hat is automatically a probability: CDF(1) = phi(beta*) = 1
    assert tagged.eta_cdf(1.0) == pytest.approx(1.0, abs=1e-12)
    # E eta^z = phi(z + beta*); check by Monte Carlo at z = 0.7
    rng = stream(7, "tilt")
    eta = tagged.sample_eta(rng, 100_000)
    vals = eta**0.7
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - FIL21.phi(0.7 + bs)) <= 3.0 * se
    assert tagged.psi_hat(0.7) == pytest.approx(FIL21.psi(0.7 + bs), abs=1e-15)


def test_tilt_unsupported():
    signed = laws.DirichletPolynomial(terms=((2.0, 1.0), (-0.1, 3.0)))
    with pytest.raises(UnsupportedTilt):
        signed.tagged(laws.malthusian_exponent(signed, tol=1e-10))


# ---------------------------------------------------------------------------
# arithmetic detection
# ---------------------------------------------------------------------------

def test_arithmetic_examples():
    grid = laws.UserAtomic(groups=((1.0, (0.5, 0.25, 0.125)),))
    assert laws.arithmetic_check(grid) is True
    off = laws.UserAtomic(groups=((1.0, (0.5, 1.0 / 3.0)),))
    assert laws.arithmetic_check(off) is False
    shifted = laws.UserAtomic(groups=((1.0, (0.25, 0.125)),))  # r = 1/2, powers 2, 3
    assert laws.arithmetic_check(shifted) is True


@given(st.floats(min_value=0.15, max_value=0.9), st.sets(st.integers(1, 8), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_arithmetic_detects_geometric_grids(r, powers):
    sizes = tuple(sorted((r**k for k in powers), reverse=True))
    law = laws.UserAtomic(groups=((1.0, sizes),))
    assert laws.arithmetic_check(law) is True


def test_arithmetic_rejects_off_grid():
    law = laws.UserAtomic(groups=((1.0, (0.5, 0.25, 0.25 * math.exp(-0.1))),))
    assert laws.arithmetic_check(law) is False


def test_builtin_laws_declared_nonarithmetic():
    for law in (BINARY, STICK, STICK_C, FIL21):
        assert law.arithmetic is False


# ---------------------------------------------------------------------------
# second-moment closed forms
# ---------------------------------------------------------------------------

def test_offspring_square_means():
    assert BINARY.offspring_square_mean(1.0) == 1.0
    assert STICK_C.offspring_square_mean(1.0) == 1.0
    assert ATOMIC.offspring_square_mean(0.5) == pytest.approx(
        sum(p * sum(x**0.5 for x in s) ** 2 for p, s in ATOMIC.groups), rel=1e-14
    )
    # stick-breaking closed form vs Monte Carlo
    n = 150_000
    sums, _ = _offspring_power_sums(STICK, n, [GOLDEN], seed=23)
    sq = sums[0] ** 2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - STICK.offspring_square_mean(GOLDEN)) <= 3.0 * se


# ---------------------------------------------------------------------------
# JSON law specs
# ---------------------------------------------------------------------------

def test_from_spec_round_trip():
    law = laws.from_spec({"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}})
    assert law == FIL21
    law2 = laws.from_spec(
        {"kind": "UserAtomic", "params": {"groups": [{"prob": 1.0, "sizes": [0.5, 0.5]}]}}
    )
    assert law2.phi(1.0) == pytest.approx(1.0)
    law3 = laws.from_spec(
        {
            "kind": "UserPoisson",
            "params": {
                "sigma1": {"kind": "power", "theta": 1.0},
                "sigma2": {"kind": "power", "mass": 1.0, "theta": 1.0},
            },
        }
    )
    assert law3.phi(1.0) == pytest.approx(1.0)


def test_from_spec_rejects_unknown_fields():
    with pytest.raises(LawSpecError):
        laws.from_spec({"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0, "x": 1}})
    with pytest.raises(LawSpecError):
        laws.from_spec({"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}, "y": 0})
    with pytest.raises(LawSpecError):
        laws.from_spec({"kind": "NoSuchLaw", "params": {}})
    with pytest.raises(LawSpecError):
        laws.from_spec({"kind": "FilippovPower", "params": {"lam": 2.0}})


def test_from_spec_overrides():
    doc = {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}, "beta_a": -0.5,
           "arithmetic_flag": True}
    law = laws.from_spec(doc)
    assert law.beta_a == -0.5
    assert law.arithmetic is True
    assert law != FIL21  # the overrides are part of the law's identity
    assert law == laws.from_spec(doc) and hash(law) == hash(laws.from_spec(doc))


def test_from_spec_override_not_served_from_cache():
    # beta_a = 2 leaves phi < 1 right of the abscissa; the plain law's cached
    # root must not answer for the overridden one
    doc = {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}, "beta_a": 2.0}
    assert analytics.beta_star_of(FIL21) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NoMalthusianExponent):
        analytics.beta_star_of(laws.from_spec(doc))


# ---------------------------------------------------------------------------
# misc contracts
# ---------------------------------------------------------------------------

def test_dirichlet_sampler_guards():
    signed = laws.DirichletPolynomial(terms=((2.0, 1.0), (-0.1, 3.0)))
    assert signed.has_sampler is False
    with pytest.raises(UnsupportedSampler):
        signed.sample_offspring(stream(8, "t"))


def test_law_immutability_and_hash():
    with pytest.raises(Exception):
        FIL21.lam = 3.0
    assert hash(laws.FilippovPower(2.0, 1.0)) == hash(FIL21)
    assert laws.FilippovPower(2.0, 1.0) == FIL21
    assert laws.FilippovPower(2.0, 1.1) != FIL21
