"""Reproduction-law contracts: Mellin data, root finding, samplers, tilts."""

import hashlib
import importlib.util
import math
import pathlib
import subprocess
import sys
import warnings

import mpmath as mp
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
# atoms only, as a UserAtomic's sigma is; and a uniform draw plus atoms
POISSON_ATOMS = laws.UserPoisson(laws.AtomComponent(((0.6, 1.0),)),
                                 laws.AtomComponent(((0.5, 0.7), (0.25, 0.4))))
POISSON_MIXED = laws.UserPoisson(laws.PowerComponent(1.0, 1.0),
                                 laws.AtomComponent(((0.5, 0.6), (0.3, 0.3))))

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
        bs = laws.malthusian_exponent(law)
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
@settings(max_examples=60, deadline=None, derandomize=True)
def test_phi_modulus_bound(law, offset, imag):
    beta = law.beta_a + offset if math.isfinite(law.beta_a) else offset
    val = law.phi(complex(beta, imag))
    assert abs(val) <= law.phi(beta) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Malthusian exponent
# ---------------------------------------------------------------------------

def test_malthusian_stick_breaking():
    assert laws.malthusian_exponent(STICK) == pytest.approx(GOLDEN, abs=1e-10)


@pytest.mark.parametrize("lam,theta", [(2.0, 1.0), (1.5, 1.0), (1.0, 0.5)])
def test_malthusian_power_family(lam, theta):
    law = laws.FilippovPower(lam, theta)
    assert laws.malthusian_exponent(law) == pytest.approx(lam - theta, abs=1e-10)


def test_malthusian_no_root():
    with pytest.raises(NoMalthusianExponent) as exc:
        laws.malthusian_exponent(laws.no_malthusian_example())
    assert exc.value.phi_at_abscissa == pytest.approx(0.5, abs=1e-3)


def _compare_specs():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_checkouts.py"
    spec = importlib.util.spec_from_file_location("compare_checkouts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


COMPARE_SPECS = _compare_specs()


@pytest.mark.parametrize("doc", COMPARE_SPECS.values(), ids=COMPARE_SPECS.keys())
def test_malthusian_exponent_is_correctly_rounded(doc):
    # the double nearest a 200-bit root of phi = 1, bit for bit (1.0 for binary)
    law = laws.from_spec(doc)
    bs = laws.malthusian_exponent(law)
    with mp.workprec(200):
        root = mp.findroot(lambda b: law.phi_mp(b) - 1, mp.mpf(bs))
    assert bs == float(root)


#: float.hex of beta* as the 113-bit mpmath Newton finish gave it, before power-term
#: laws moved to the exact rational finish; the last four are not in COMPARE_SPECS
PINNED_BETA_STAR = {
    "binary": "0x1.0000000000000p+0",
    "stick-lossy": "0x1.3c6ef372fe950p-1",
    "stick-conservative": "0x1.0000000000000p+0",
    "filippov-2-1": "0x1.0000000000000p+0",
    "filippov-2-0.8": "0x1.3333333333333p+0",
    "filippov-analytic": "0x1.4cccccccccccdp+0",
    "dirichlet": "0x1.02f0dbb4ae780p+0",
    "dirichlet-signed": "0x1.e6b84ea4ebd68p-1",
    "atomic": "0x1.0000000000000p+0",
    "atomic-grid": "0x1.c21f7ad264521p-1",
    "poisson-power": "0x1.0000000000000p+0",
    "poisson-atoms": "0x1.13235152f0ac0p+0",
    "poisson-mixed": "0x1.a4acbd1990f3cp-1",
    "override": "0x1.0000000000000p+0",
    "filippov-1.5-1": "0x1.0000000000000p-1",
    "filippov-1-0.5": "0x1.0000000000000p-1",
    # lam - theta is a midpoint between two doubles: it rounds to the even one
    "filippov-tie": "0x1.944100b416474p+1",
    # phi(0) = 1: the root is 0, far below the bisection's noise
    "dirichlet-root-0": "0x0.0p+0",
}
_PINNED_EXTRA = {
    "filippov-1.5-1": {"kind": "FilippovPower", "params": {"lam": 1.5, "theta": 1.0}},
    "filippov-1-0.5": {"kind": "FilippovPower", "params": {"lam": 1.0, "theta": 0.5}},
    "filippov-tie": {"kind": "FilippovPower",
                     "params": {"lam": 2.7020619476855954, "theta": -0.4561717787520856}},
    "dirichlet-root-0": {"kind": "DirichletPolynomial",
                         "params": {"terms": [[0.25, 0.5], [0.25, 0.5]]}},
}


_PINNED_DOCS = {**COMPARE_SPECS, **_PINNED_EXTRA}


@pytest.mark.parametrize("name", _PINNED_DOCS)
def test_malthusian_exponent_is_pinned(name):
    law = laws.from_spec(_PINNED_DOCS[name])
    assert laws.malthusian_exponent(law).hex() == PINNED_BETA_STAR[name]


@pytest.mark.parametrize("terms", [((0.375, 0.75), (0.25, 0.5)), ((0.75, 1.5), (0.25, 0.5)),
                                   ((0.5, 1.0), (0.25, 0.5)), ((0.125, 0.25), (0.75, 1.5))])
def test_malthusian_root_at_zero_is_zero(terms):
    # phi(0) = sum lam/theta = 1 exactly: the float bisection stops about 1e-16
    # from 0, many more ulps of the root than two Newton steps can close
    law = laws.DirichletPolynomial(terms=terms)
    assert laws.malthusian_exponent(law).hex() == "0x0.0p+0"


def test_malthusian_exponent_solves_once_per_instance(monkeypatch):
    calls = []
    phi = laws.ReproductionLaw.phi
    monkeypatch.setattr(laws.ReproductionLaw, "phi",
                        lambda law, beta: calls.append(beta) or phi(law, beta))
    law = laws.DirichletPolynomial(terms=DIRI.terms)
    bs = laws.malthusian_exponent(law)
    solve = len(calls)
    assert solve > 0
    assert laws.malthusian_exponent(law) == analytics.beta_star_of(law) == bs
    assert len(calls) == solve
    # equal is not identical: a fresh instance solves for itself
    twin = laws.DirichletPolynomial(terms=DIRI.terms)
    assert twin == law and laws.malthusian_exponent(twin) == bs
    assert len(calls) == 2 * solve


def test_malthusian_theta_nonpositive_analytics():
    law = laws.FilippovPower(1.0, -0.3)  # abscissa 0.3, root 1.3
    assert laws.malthusian_exponent(law) == pytest.approx(1.3, abs=1e-10)
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
    # n unit parents in one batch; the tail joins the power sum at beta*
    bs = laws.malthusian_exponent(law)
    kids, owner, tail = law.offspring_batch(stream(seed, "mc-phi"), np.ones(n),
                                            laws.DEFAULT_CHILD_FLOOR, bs)
    out = np.array([np.bincount(owner, weights=kids**b, minlength=n) for b in betas])
    for j, b in enumerate(betas):
        if b == add_tail_at:
            out[j] += tail
    return out, np.bincount(owner, minlength=n)


@pytest.mark.parametrize("law", SAMPLER_LAWS, ids=lambda l: l.kind)
def test_mc_power_sums_match_phi(law):
    # E sum xi^beta = phi(beta) within 3 SE at n = 1e5, on the grid
    # {b*/2, b*, b*+1, b*+2} (alpha-spaced with alpha = 1).  At beta = b*
    # the reported tail term is added: it is the exact conditional mean of
    # the floor-truncated children, and conservative laws have *zero*
    # variance there, so any uncorrected deficit would be infinitely many SE.
    n = 100_000
    bs = laws.malthusian_exponent(law)
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
    # children; the truncated mass differs at most by summation order
    bs = laws.malthusian_exponent(law)
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


def _stick_batch_by_masks(law, rng, sizes, floor, beta_star):
    """The stick sampler as a boolean-mask loop, kept as the reference."""
    residual = sizes * rng.uniform(size=sizes.size) if law._lossy else sizes
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


_STICK_BATCHES = {
    "random-1e-12": (np.random.default_rng(1).random(400), 1e-12),
    "random-1e-3": (np.random.default_rng(2).random(400), 1e-3),
    "random-0.2": (np.random.default_rng(3).random(400), 0.2),
    "empty": (np.empty(0), 1e-3),
    "all-below-floor": (np.full(50, 1e-4), 1e-3),
}


@pytest.mark.parametrize("sizes,floor", _STICK_BATCHES.values(), ids=_STICK_BATCHES.keys())
@pytest.mark.parametrize("law", [STICK, STICK_C], ids=["lossy", "conservative"])
def test_stick_batch_matches_boolean_mask_loop(law, sizes, floor):
    # the position-compacted sampler draws and returns exactly what the
    # boolean-mask loop does, including when no parent survives round one
    bs = laws.malthusian_exponent(law)
    got = law.offspring_batch(stream(23, "stick"), sizes.copy(), floor, bs)
    ref = _stick_batch_by_masks(law, stream(23, "stick"), sizes.copy(), floor, bs)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: SHA-256 of (kids, owner, tail) from offspring_batch on 3000 parents of
#: sizes 1 .. 0.05, stream (41, "mixture-kat"); recorded before the mixture
#: draws of every law shared one implementation
_MIXTURE_BATCH_SHA = {
    "dirichlet": "b1f051aa48e57b30dd796cb31fcc7e295a22be9fb5e71b256e80af4b3e70f79f",
    "filippov": "546b8c94ab6fb4aa9da5964f9318bfa72acb11ea1af567edf5afcdf891a00d9c",
    "poisson-power": "4e47eae17921254681d1cfe14bdb49d137d8caac52efabad22bb61139a1f343f",
    "poisson-atoms": "4a357443f26fc9d481db77f9375b8454642faf1811b4402d68121a3cb27a047c",
    "poisson-mixed": "f3df3074f1a6f50f8f4d00697ddf6b4bbf03f2f1c2680a12c51d8c4ee219b95a",
}


@pytest.mark.parametrize("name", list(_MIXTURE_BATCH_SHA))
def test_mixture_batch_known_answers(name):
    law = {"dirichlet": DIRI, "filippov": FIL21, "poisson-power": POISSON,
           "poisson-atoms": POISSON_ATOMS, "poisson-mixed": POISSON_MIXED}[name]
    sizes = np.linspace(1.0, 0.05, 3000)
    got = law.offspring_batch(stream(41, "mixture-kat"), sizes, 1e-12, law._beta_star)
    assert _sha(*got) == _MIXTURE_BATCH_SHA[name]


def test_mixture_tilt_known_answers():
    # the tilt of a uniform draw plus two atoms: power and atom components alike
    tilt = POISSON_MIXED.tagged()
    assert _sha(tilt.sample_eta(stream(42, "mixture-kat"), 50000)) == (
        "8c9afda88673322c5d2c961265ad8446135eaa6f2b4832572be1991cd02e9e52")
    assert _sha(tilt.sample_eta_first(stream(43, "mixture-kat"), 50000)) == (
        "f9f232586c89b114627363586533706c6bea8c2ff3c2cf48bcc902a793e8e77b")


def test_poisson_zero_mass_sigma2_samples_without_warnings():
    # sigma2 of mass 0 is never drawn, so its draw table (0/0) must never be built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = laws.UserPoisson(laws.PowerComponent(1, 1), laws.PowerComponent(0, 2))
        kids, owner, _ = law.offspring_batch(stream(44, "test"), np.ones(500), 1e-12, None)
        assert owner.tolist() == list(range(500)) and np.all((kids > 0) & (kids <= 1))
        assert law.sample_offspring(stream(45, "test")).sizes.size == 1


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


TILT_LAWS = [BINARY, STICK, STICK_C, FIL21, ATOMIC, POISSON,
             pytest.param(POISSON_ATOMS, id="UserPoisson-atoms"),
             pytest.param(POISSON_MIXED, id="UserPoisson-mixed")]


@pytest.mark.parametrize("law", TILT_LAWS, ids=lambda l: l.kind)
def test_tilted_law_cdf(law):
    n = 100_000
    tagged = law.tagged()
    rng = stream(6, "tilt")
    eta = tagged.sample_eta(rng, n)
    xs = np.sort(eta)
    if law.atoms is not None:
        # tilt with atoms: compare right-continuous CDFs at the distinct draws
        uniq, counts = np.unique(xs, return_counts=True)
        emp = np.cumsum(counts) / n
        ks = np.max(np.abs(emp - tagged.eta_cdf(uniq)))
    else:
        emp = np.arange(1, n + 1) / n
        target = tagged.eta_cdf(xs)
        ks = max(np.max(np.abs(emp - target)), np.max(np.abs(emp - 1.0 / n - target)))
    assert ks < 3.0 * _dkw_bound(n), law.kind


@pytest.mark.parametrize("law", TILT_LAWS, ids=lambda l: l.kind)
def test_tilt_first_factor_moments(law):
    # the stationary first factor has density sigma_hat(]0,x]) / (psi'(beta*) x),
    # so E eta0^z = psi(beta* + z) / (z psi'(beta*))
    bs = laws.malthusian_exponent(law)
    eta0 = law.tagged().sample_eta_first(stream(8, "tilt-first"), 100_000)
    assert np.all((eta0 > 0.0) & (eta0 <= 1.0)), law.kind
    for z in (0.5, 2.0):
        vals = eta0**z
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        target = law.psi(bs + z) / (z * law.psi_prime(bs))
        assert abs(vals.mean() - target) <= 3.0 * se, (law.kind, z)


def test_tilt_total_mass_and_moments():
    bs = laws.malthusian_exponent(FIL21)
    tagged = FIL21.tagged()
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
        signed.tagged()


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
@settings(max_examples=40, deadline=None, derandomize=True)
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


def test_from_spec_rejects_beta_a_left_of_the_abscissa():
    fil = {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}}
    with pytest.raises(LawSpecError, match="override -1.5 lies left of .* abscissa -1"):
        laws.from_spec({**fil, "beta_a": -1.5})
    for bad in ("x", [1.0], float("nan")):
        with pytest.raises(LawSpecError, match="beta_a"):
            laws.from_spec({**fil, "beta_a": bad})
    # at or right of the abscissa, and anywhere for atoms, the override stands
    assert laws.from_spec({**fil, "beta_a": -1.0}).beta_a == -1.0
    atomic = {"kind": "UserAtomic", "params": {"groups": [{"prob": 1.0, "sizes": [0.5, 0.5]}]}}
    assert laws.from_spec({**atomic, "beta_a": -40.0}).beta_a == -40.0


def test_from_spec_rejects_negative_group_probability():
    # the probabilities sum to 1, but a negative one declares no law
    doc = {"kind": "UserAtomic", "params": {"groups": [
        {"prob": 1.5, "sizes": [0.5, 0.5]}, {"prob": -0.5, "sizes": [0.9]}]}}
    with pytest.raises(LawSpecError, match="probabilities must be >= 0"):
        laws.from_spec(doc)


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
