"""Monte Carlo estimators of the limit objects, with error bars.

The weighted scaled empirical measure of a snapshot puts an atom at
t^(1/alpha) X_j(t) with weight X_j^beta*(t); its mean is a probability
measure converging weakly to the limit measure rho, and the weighted sums
A_t = sum_j X_j^beta* f(t^(1/alpha) X_j) converge in L2 to
M_inf * int f drho.  Everything here reduces simulation output to those
statistics and z-tests them against analytic or independent-MC targets.

Statistical convention: a check passes when |z| <= 3 with the standard
error measured over replicates (batch means); independent MC oracles fold
their own SE into the test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import laws, rng as rngmod, simulate
from .errors import (
    DomainError,
    EmptySnapshot,
    PrecisionExhausted,
    SecondMomentInfinite,
    UnsupportedSampler,
)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One named z-test: pass iff |z| <= 3 (or z > 2 for one-sided checks)."""

    name: str
    estimate: float
    target: float
    se: float
    z: float
    passed: bool
    note: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, check):
        self.checks.append(check)
        return check

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)

    def table(self):
        rows = [f"{'check':<44} {'estimate':>12} {'target':>12} {'se':>10} {'z':>7}  pass"]
        for c in self.checks:
            rows.append(
                f"{c.name:<44} {c.estimate:>12.6g} {c.target:>12.6g} "
                f"{c.se:>10.3g} {c.z:>7.2f}  {'yes' if c.passed else 'NO'}"
            )
        return "\n".join(rows)


def z_check(name, estimate, target, se, note=""):
    z = (estimate - target) / se if se > 0 else (0.0 if estimate == target else math.inf)
    return CheckResult(name, float(estimate), float(target), float(se), float(z),
                       bool(abs(z) <= 3.0), note)


# ---------------------------------------------------------------------------
# weighted empirical measure
# ---------------------------------------------------------------------------

@dataclass
class WeightedEmpiricalMeasure:
    """Atoms (t^(1/alpha) size, size^beta*) pooled over replicates.

    ``replicate_totals[r]`` equals the power sum M(t, beta*) of replicate r
    (the weight-total identity); moments carry batch-mean standard errors.
    """

    t: float
    alpha: float
    beta_star: float
    locations: np.ndarray
    weights: np.ndarray
    replicate_index: np.ndarray
    replicate_totals: np.ndarray

    @property
    def n_replicates(self):
        return self.replicate_totals.size

    def moment(self, k):
        """(estimate, se) of int x^(alpha k) d sigma*_t = E sum w loc^(alpha k)."""
        per = self._per_replicate(self.weights * self.locations ** (self.alpha * k))
        return float(per.mean()), float(per.std(ddof=1) / math.sqrt(per.size))

    def functional(self, f):
        """(estimate, se, per-replicate values) of E sum w f(loc)."""
        per = self._per_replicate(self.weights * f(self.locations))
        return float(per.mean()), float(per.std(ddof=1) / math.sqrt(per.size)), per

    def _per_replicate(self, values):
        return np.bincount(self.replicate_index, weights=values, minlength=self.n_replicates)

    def histogram(self, n_bins=40):
        """Weighted histogram over geometric bins between the [0.1%, 99.9%]
        weighted quantiles (the limit density has a power-law left tail)."""
        lo, hi = self.quantiles((0.001, 0.999))
        lo = max(lo, 1e-300)
        edges = np.geomspace(lo, max(hi, lo * (1 + 1e-9)), n_bins + 1)
        mass, edges = np.histogram(self.locations, bins=edges, weights=self.weights)
        return edges, mass / self.n_replicates

    def quantiles(self, qs):
        locs, cdf = self.normalized_cdf()
        return tuple(float(locs[np.searchsorted(cdf, q)]) for q in qs)

    def normalized_cdf(self):
        """(sorted locations, weight-normalised cumulative fractions)."""
        order = np.argsort(self.locations)
        locs = self.locations[order]
        cw = np.cumsum(self.weights[order])
        return locs, cw / cw[-1]


def scaled_sizes(t, alpha, sizes):
    """t^(1/alpha) * sizes, the self-similar rescaling, for alpha > 0.

    At small alpha the power alone overflows the doubles (log t / alpha >
    709) while a product with a small size may not; it is then formed as
    ldexp(size, k) * 2^f with k + f = log2(t)/alpha.  Raises DomainError
    naming alpha when a scaled size is not a finite double, which includes
    a size that underflowed to 0.0 against a scale past the doubles: its
    scaled value is lost.
    """
    t, sizes = float(t), np.asarray(sizes, dtype=float)
    try:
        out = t ** (1.0 / alpha) * sizes
    except OverflowError:
        e = math.log2(t) / alpha
        # past 2^2100 even the smallest subnormal size scales to inf
        out = np.full(sizes.shape, math.inf)
        if e < 2100.0:
            k = math.floor(e)
            with np.errstate(over="ignore"):
                out = np.ldexp(sizes, k) * 2.0 ** (e - k)
            out[sizes == 0.0] = math.inf
    if not np.all(np.isfinite(out)):
        raise DomainError(
            f"t^(1/alpha) * size is not a finite double at alpha = {alpha} (t = {t}): "
            "alpha is too small for this time")
    return out


def empirical_weighted_measure(population, alpha, beta_star):
    """Build the measure from a ``simulate.Population`` (one time, every replicate).

    The sizes are scaled by t^(1/alpha), so the measure needs a finite
    alpha > 0: at alpha = 0 every weighted moment would read the same number,
    and at alpha = inf the moments x^(alpha k) would all read 0.
    """
    if not 0 < alpha < math.inf:
        raise DomainError(f"the weighted empirical measure needs a finite alpha > 0, got {alpha}")
    if (sizes := population.sizes).size == 0:
        raise EmptySnapshot("all replicates extinct")
    return WeightedEmpiricalMeasure(
        t=population.t, alpha=alpha, beta_star=beta_star,
        locations=scaled_sizes(population.t, alpha, sizes), weights=sizes**beta_star,
        replicate_index=population.replicate_ids,
        replicate_totals=population.power_sums(beta_star))


# ---------------------------------------------------------------------------
# power-sum mean test
# ---------------------------------------------------------------------------

def mean_power_sum_test(power_sums, t, beta, law, alpha, name=None):
    """z-test of the Monte Carlo mean of M(t, beta) against the series value.

    If the series hits its precision cap (very large t), falls back to the
    leading asymptotics C(beta) t^((beta*-beta)/alpha) with a 5% tolerance
    band on top of the statistical one.
    """
    ps = np.asarray(power_sums, dtype=float)
    est = ps.mean()
    se = ps.std(ddof=1) / math.sqrt(ps.size) if ps.size > 1 else 0.0
    label = name or f"E M({t:g},{beta:g}) vs series"
    if t == 0:
        return CheckResult(label, est, 1.0, 0.0, 0.0, bool(est == 1.0))
    from . import analytics  # loads mpmath

    try:
        target = analytics.m_series(law, t, beta, alpha).value
        return z_check(label, est, target, se)
    except PrecisionExhausted:
        bs = laws.malthusian_exponent(law)
        target = analytics.asymptotic_coefficient(law, beta, alpha) * t ** ((bs - beta) / alpha)
        z = (est - target) / se if se > 0 else math.inf
        passed = abs(est - target) <= max(3.0 * se, 0.05 * abs(target))
        return CheckResult(label + " (asymptotic, 5% band)", est, float(target), se,
                           float(z), bool(passed))


# ---------------------------------------------------------------------------
# fixed-point second moment
# ---------------------------------------------------------------------------

@dataclass
class OracleValue:
    value: float
    se: float


def m_infinity_second_moment_oracle(law, beta_star, n_mc=1_000_000, master_seed=0):
    """E M_inf^2 from the distributional fixed point of the terminal value.

    Squaring M_inf =d sum_j xi_j^b M_inf^(j) (independent copies, E = 1) and
    solving gives E M_inf^2 = (E (sum_j xi_j^b)^2 - phi(2b)) / (1 - phi(2b)).
    The offspring square mean comes from the law's closed form when it has
    one (conservative laws: exactly 1), else from one ``offspring_batch`` of
    n_mc unit parents (children below the default floor enter at their
    expected beta*-mass) with the propagated standard error.
    """
    b = beta_star
    phi2 = float(law.phi(2.0 * b))
    sq = law.offspring_square_mean(b)
    if sq is not None:
        return OracleValue((sq - phi2) / (1.0 - phi2), 0.0)
    if not law.has_sampler:
        raise UnsupportedSampler(f"{law.kind}: no closed form and no sampler to probe")
    stream = rngmod.stream(master_seed, "offspring-square")
    kids, owner, tail = law.offspring_batch(stream, np.ones(n_mc), laws.DEFAULT_CHILD_FLOOR, b)
    sq_vals = (np.bincount(owner, weights=kids**b, minlength=n_mc) + tail) ** 2
    total = sq_vals.sum()
    if total > 0 and sq_vals.max() > 0.5 * total:
        raise SecondMomentInfinite(
            "square-mean estimate dominated by a single draw: E (sum xi^b)^2 looks infinite"
        )
    est = sq_vals.mean()
    se = sq_vals.std(ddof=1) / math.sqrt(n_mc)
    return OracleValue((est - phi2) / (1.0 - phi2), se / (1.0 - phi2))


# ---------------------------------------------------------------------------
# L2 functional statistic
# ---------------------------------------------------------------------------

def exp_decay():
    f = lambda x: np.exp(-x)
    f.label = "exp(-x)"
    return f


def integral_f_rho(law, alpha, f, n=200_000, master_seed=0):
    """Independent MC oracle for int f drho via the limit-variable sampler.

    rho is the law of Y^(1/alpha), so f-integrals reduce to sampling Y.
    """
    ys = simulate.sample_Y(law, alpha, n, master_seed=master_seed)
    vals = f(ys.values ** (1.0 / alpha))
    return OracleValue(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)))


def l2_functional_test(
    law,
    alpha,
    f,
    t_ladder,
    n_replicates,
    master_seed=0,
    pair_t=None,
    f_rho=None,
    m2_oracle=None,
    child_floor=1e-9,
):
    """Statistics behind the L2 convergence of weighted empirical functionals.

    Checks, for A_t = sum_j X_j^beta* f(t^(1/alpha) X_j):
      (i)   E A_t at the last ladder time against int f drho,
      (ii)  E[A_t M(t, beta*)] at pair_t against E M_inf^2 * int f drho,
      (iii) Var(A_t - M(t, beta*) int f drho) strictly decreasing from the
            first to the last ladder time, beyond 2 SE of the (paired)
            difference -- the quantity whose decay *is* the L2 statement.
    """
    bs = laws.malthusian_exponent(law)
    if f_rho is None:
        f_rho = integral_f_rho(law, alpha, f, master_seed=master_seed + 1)
    if m2_oracle is None:
        m2_oracle = m_infinity_second_moment_oracle(law, bs, master_seed=master_seed + 2)
    times = sorted(set(list(t_ladder) + ([pair_t] if pair_t is not None else [])))
    cfg = simulate.SimulationConfig(
        alpha=alpha,
        t_max=times[-1],
        snapshot_times=tuple(times),
        master_seed=master_seed,
        child_floor=child_floor,
    )
    A, M = {}, {}
    for pop in simulate.natural_replicates(cfg, law, n_replicates, beta_star=bs):
        loc = scaled_sizes(pop.t, alpha, pop.sizes) if alpha > 0 else pop.sizes
        # with f = 1, A_t and M(t, b*) - frozen are the same sum, bit for bit
        A[pop.t] = pop.sums(pop.sizes**bs * f(loc))
        M[pop.t] = pop.power_sums(bs) + pop.frozen

    report = ValidationReport()
    label = getattr(f, "label", "f")
    t_last = t_ladder[-1]
    est, se, _ = _mean_se(A[t_last])
    report.add(
        z_check(
            f"E A_t vs int f drho (f={label}, t={t_last:g})",
            est,
            f_rho.value,
            math.hypot(se, f_rho.se),
            note="independent Y-sampler oracle SE folded in",
        )
    )
    tp = pair_t if pair_t is not None else t_last
    prod = A[tp] * M[tp]
    est2, se2, _ = _mean_se(prod)
    target2 = m2_oracle.value * f_rho.value
    se_t2 = abs(m2_oracle.value) * f_rho.se + abs(f_rho.value) * m2_oracle.se
    report.add(
        z_check(
            f"E[A_t M(t,b*)] vs E Minf^2 int f drho (t={tp:g})",
            est2,
            target2,
            math.hypot(se2, se_t2),
        )
    )
    t0, t1 = t_ladder[0], t_ladder[-1]
    d0 = A[t0] - M[t0] * f_rho.value
    d1 = A[t1] - M[t1] * f_rho.value
    c0 = (d0 - d0.mean()) ** 2
    c1 = (d1 - d1.mean()) ** 2
    diff = c0 - c1
    se_diff = diff.std(ddof=1) / math.sqrt(n_replicates)
    zd = diff.mean() / se_diff if se_diff > 0 else math.inf
    report.add(
        CheckResult(
            f"Var(A_t - M int f drho) decrease t={t0:g}->{t1:g}",
            float(c0.mean() - c1.mean()),
            0.0,
            float(se_diff),
            float(zd),
            bool(zd > 2.0),
            note="one-sided: decrease beyond 2 SE",
        )
    )
    return report


def _mean_se(arr):
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size)), arr


# ---------------------------------------------------------------------------
# distributional distance
# ---------------------------------------------------------------------------

def cdf_distance(measure, target_cdf):
    """Kolmogorov distance between the weight-normalised empirical CDF and a target."""
    locs, cdf = measure.normalized_cdf()
    if locs.size == 0:
        raise EmptySnapshot("empty measure")
    F = np.asarray(target_cdf(locs), dtype=float)
    below = np.concatenate([[0.0], cdf[:-1]])
    return float(np.max(np.maximum(np.abs(cdf - F), np.abs(below - F))))
