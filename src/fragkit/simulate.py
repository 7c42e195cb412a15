"""Exact simulation of the fragmentation process.

Natural time: a particle of size x lives an exponential time with *rate*
x^alpha (mean x^-alpha, so smaller particles live longer when alpha > 0)
and is replaced by children x*xi_j drawn from the reproduction law.  The
process is piecewise constant, so an event-driven min-heap of death times
simulates it without discretisation error.  Every particle's randomness is
a pure function of its genealogical path (counter-based streams), making
runs bit-identical regardless of event ordering.

Generation time: the same tree indexed by generation instead of time,
used for the intrinsic martingale M_n = sum_{|u|=n} xi_u^beta* and its
terminal second moment.  Lineages whose beta*-weight falls below a prune
threshold are cut, and the *exact conditional expectation* of their missing
descendant weight is carried along, so the corrected per-tree statistic has
mean exactly 1 at every generation.

Tagged fragment: the single-size chain whose shrink factors follow the
size-biased tilt sigma_hat(dx) = x^beta* sigma(dx), plus the series
representation of its renormalised limit Y.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import DomainError, NoMalthusianExponent, TreeSizeExceeded
from .laws import (
    BinaryUniformConservative,
    DirichletPolynomial,
    UserAtomic,
    UserPoisson,
    _StickBreakingBase,
    _beta_star_newton,
)


# ---------------------------------------------------------------------------
# configuration and snapshots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters for the natural-time simulator.

    ``child_floor`` freezes children below the given absolute size instead of
    simulating them (for alpha > 0 they split extremely rarely on desk-scale
    horizons); every snapshot carries the accumulated expected beta*-mass of
    frozen lineages so the bias stays auditable.  ``max_particles`` bounds
    the live population: ``run`` raises TreeSizeExceeded beyond it rather
    than return a truncated state.
    """

    alpha: float
    t_max: float
    snapshot_times: tuple
    child_floor: float = 1e-9
    max_particles: int = 10_000_000
    master_seed: int = 0
    initial_size: float = 1.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.snapshot_times)
        if any(t < 0 or t > self.t_max for t in times):
            raise ValueError("snapshot_times must lie in [0, t_max]")
        if sorted(times) != list(times):
            raise ValueError("snapshot_times must be sorted")
        if self.child_floor < 0 or self.alpha < 0:
            raise ValueError("child_floor and alpha must be >= 0")
        if not (0 < self.initial_size <= 1.0):
            raise ValueError("initial_size must lie in ]0, 1]")
        object.__setattr__(self, "snapshot_times", times)


@dataclass
class PopulationSnapshot:
    """Sizes alive at a fixed time, with truncation metadata.

    ``frozen_beta_mass_bound`` is the expected beta*-mass of all lineages
    frozen by the child floor up to this time (non-decreasing within a run);
    for conservative laws (beta* = 1) it is exactly the frozen mass, so
    sum(sizes) + frozen = initial_size up to rounding.
    """

    t: float
    sizes: np.ndarray
    frozen_beta_mass_bound: float
    replicate_id: int
    master_seed: int


def snapshot_power_sum(snapshot, beta):
    """M(t, beta) = sum of size^beta over particles alive in the snapshot."""
    if snapshot.sizes.size == 0:
        return 0.0 if not isinstance(beta, complex) else 0j
    return np.sum(snapshot.sizes**beta)


# ---------------------------------------------------------------------------
# natural-time event loop
# ---------------------------------------------------------------------------

def run(config, law, replicate=0, beta_star=None):
    """Simulate one replicate; returns snapshots at config.snapshot_times.

    Deterministic in (config, law, replicate): each node's offspring and its
    children's lifetimes are drawn from a stream keyed by the node's path.
    The replicate holds one Generator and re-keys it at every split.  Raises
    TreeSizeExceeded as soon as more than ``config.max_particles`` particles
    are alive.
    """
    alpha = config.alpha
    if beta_star is None:
        try:
            beta_star = _beta_star_newton(law)
        except NoMalthusianExponent:
            beta_star = None
    if beta_star is None and config.child_floor > 0:
        raise NoMalthusianExponent(
            "child_floor truncation needs a Malthusian exponent; rerun with child_floor=0"
        )

    seed = config.master_seed
    floor = config.child_floor
    cap = config.max_particles
    heappush, heappop = heapq.heappush, heapq.heappop
    # the root's lifetime lives on its own purpose tag: its node stream is
    # reserved for the offspring draw at death (like every other node)
    stream = rngmod.stream(seed, "root-life", replicate)
    x0 = config.initial_size
    rate0 = x0**alpha if alpha != 0 else 1.0
    d0 = stream.exponential() / rate0
    heap = [(d0, 0, x0, (), 0)]
    seq = 1
    frozen = 0.0

    out = []
    si = 0
    times = config.snapshot_times
    n_times = len(times)
    while si < n_times:
        t_snap = times[si]
        if heap and heap[0][0] <= t_snap:
            d, _, x, path, gen = heappop(heap)
            stream = rngmod.node_stream(seed, replicate, path, reuse=stream)
            sample = law.sample_offspring(stream, floor=floor / x if floor > 0 else 0.0)
            if beta_star is not None and sample.truncated_beta_mass_bound:
                frozen += x**beta_star * sample.truncated_beta_mass_bound
            sizes = sample.sizes.tolist()
            # one call draws the same doubles as len(sizes) exponential() calls
            lives = stream.standard_exponential(len(sizes)).tolist()
            for j, xi in enumerate(sizes):
                cx = x * xi
                rate = cx**alpha  # 1.0 when alpha == 0
                # a rate that underflows to 0 means the child never splits
                death = d + lives[j] / rate if rate else math.inf
                heappush(heap, (death, seq, cx, path + (j,), gen + 1))
                seq += 1
            if len(heap) > cap:
                raise TreeSizeExceeded(
                    f"more than {cap} particles alive at t={d:g} in replicate {replicate}"
                )
        else:
            sizes = np.array(sorted((e[2] for e in heap), reverse=True))
            out.append(
                PopulationSnapshot(
                    t=t_snap,
                    sizes=sizes,
                    frozen_beta_mass_bound=frozen,
                    replicate_id=replicate,
                    master_seed=seed,
                )
            )
            si += 1
    return out


def run_replicates(config, law, n_replicates, beta_star=None):
    """Independent replicates, ordered by replicate id."""
    if beta_star is None:
        try:
            beta_star = _beta_star_newton(law)
        except NoMalthusianExponent:
            beta_star = None
    return [run(config, law, r, beta_star) for r in range(n_replicates)]


# ---------------------------------------------------------------------------
# generation-indexed tree (intrinsic martingale)
# ---------------------------------------------------------------------------

@dataclass
class GenerationMartingaleResult:
    """Per-generation martingale statistics over an ensemble of trees.

    ``m_hat[r, n]`` is the realised sum of xi_u^beta* over materialised
    generation-n nodes of tree r; ``correction[r, n]`` the exact conditional
    expectation of the weight missing at generation n due to pruned lineages
    and unmaterialised sampler tails.  ``m_tilde = m_hat + correction`` is an
    unbiased estimator of M_n (mean exactly 1); ``correction`` is also the
    per-generation downward-bias bound of the raw values.
    """

    m_hat: np.ndarray
    correction: np.ndarray

    @property
    def m_tilde(self):
        return self.m_hat + self.correction

    @property
    def depth(self):
        return self.m_hat.shape[1] - 1


class _GenerationEngine:
    """Vectorised breadth-first tree evolution across an ensemble of trees."""

    def __init__(self, law, beta_star, n_trees, eps_prune, master_seed, node_cap=60_000_000,
                 batch_index=0):
        self.law = law
        self.bs = beta_star
        self.n_trees = n_trees
        self.eps = eps_prune
        self.seed = master_seed
        self.batch = batch_index
        self.cap = node_cap
        self.sizes = np.ones(n_trees)
        self.tree = np.arange(n_trees)
        self.gen = 0
        self.nodes_seen = n_trees
        self.m_hat_cols = [np.ones(n_trees)]
        # corr_tail[n]: missing weight first visible at generation n
        # corr_prune[n]: weight of nodes materialised at n but not extended
        self.corr_tail_cols = [np.zeros(n_trees)]
        self.corr_prune_cols = [np.zeros(n_trees)]

    def step(self):
        n = self.gen + 1
        stream = rngmod.stream(self.seed, "genealogy", self.batch, n)
        kids, owner, tail_mean = self._emit(stream)
        self.nodes_seen += kids.size
        if self.nodes_seen > self.cap:
            raise TreeSizeExceeded(f"more than {self.cap} nodes materialised")

        m_col = np.zeros(self.n_trees)
        tail_col = np.zeros(self.n_trees)
        prune_col = np.zeros(self.n_trees)
        w = kids**self.bs
        np.add.at(m_col, self.tree[owner], w)
        np.add.at(tail_col, self.tree, tail_mean)
        live = w >= self.eps
        if not live.all():
            np.add.at(prune_col, self.tree[owner[~live]], w[~live])
        self.m_hat_cols.append(m_col)
        self.corr_tail_cols.append(tail_col)
        self.corr_prune_cols.append(prune_col)
        self.sizes = kids[live]
        self.tree = self.tree[owner[live]]
        self.gen = n
        return self._m_tilde_col(n)

    def _m_tilde_col(self, n):
        # tail corrections enter at their own generation, prune corrections
        # one generation later (the pruned node itself was materialised)
        tail = sum(self.corr_tail_cols[: n + 1])
        prune = sum(self.corr_prune_cols[:n]) if n >= 1 else 0.0
        return self.m_hat_cols[n] + tail + prune

    def result(self):
        depth = self.gen
        m_hat = np.column_stack(self.m_hat_cols)
        corr = np.column_stack([self._m_tilde_col(n) for n in range(depth + 1)]) - m_hat
        return GenerationMartingaleResult(m_hat=m_hat, correction=corr)

    # -- child emission (law-specific vectorised kernels) -------------------

    def _emit(self, stream):
        law = self.law
        sizes = self.sizes
        if sizes.size == 0:
            return np.empty(0), np.empty(0, dtype=int), np.zeros(sizes.shape)
        if isinstance(law, _StickBreakingBase):
            return self._emit_stick(stream, law._lossy)
        if isinstance(law, BinaryUniformConservative):
            u = stream.uniform(size=sizes.size)
            kids = np.concatenate([sizes * u, sizes * (1.0 - u)])
            owner = np.concatenate([np.arange(sizes.size)] * 2)
            return kids, owner, np.zeros(sizes.size)
        if isinstance(law, (DirichletPolynomial, UserPoisson, UserAtomic)):
            return self._emit_counted(stream)
        return self._emit_generic(stream)

    def _emit_stick(self, stream, lossy):
        # children (1-U_j) * residual, residual *= U_j, until the absolute
        # beta*-weight of the residual drops below the prune threshold
        delta = self.eps ** (1.0 / self.bs)
        if delta <= 0:
            raise DomainError("stick-breaking laws have infinitely many children: "
                              "eps_prune must be > 0")
        residual = self.sizes.copy()
        idx = np.arange(residual.size)
        tail_mean = np.zeros(residual.size)
        if lossy:
            residual = residual * stream.uniform(size=residual.size)
        kids_parts, owner_parts = [], []
        while idx.size:
            done = residual < delta
            if done.any():
                # conservative continuation: E[sum tail xi^bs | r] = r^bs / bs
                tail_mean[idx[done]] += residual[done] ** self.bs / self.bs
                residual = residual[~done]
                idx = idx[~done]
                if idx.size == 0:
                    break
            u = stream.uniform(size=idx.size)
            kids_parts.append((1.0 - u) * residual)
            owner_parts.append(idx.copy())
            residual = residual * u
        kids = np.concatenate(kids_parts) if kids_parts else np.empty(0)
        owner = np.concatenate(owner_parts) if owner_parts else np.empty(0, dtype=int)
        return kids, owner, tail_mean

    def _counts_and_draw(self, stream, n_nodes):
        """Per-node child counts and a flat child-factor draw."""
        law = self.law
        if isinstance(law, DirichletPolynomial):
            counts = 1 + stream.poisson(law._total_mass() - 1.0, size=n_nodes)
            return counts, law._draw_factors(stream, int(counts.sum()))
        if isinstance(law, UserPoisson):
            counts = 1 + stream.poisson(law.sigma2.mass, size=n_nodes)
            total = int(counts.sum())
            # interleave: first child of each node from sigma1, rest from sigma2
            draws = np.empty(total)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            first = np.zeros(total, dtype=bool)
            first[starts.astype(int)] = True
            draws[first] = law.sigma1.sample(stream, n_nodes)
            if total > n_nodes:
                draws[~first] = law.sigma2.sample(stream, total - n_nodes)
            return counts, draws
        # UserAtomic
        groups = law.groups
        probs = np.array([p for p, _ in groups])
        gidx = stream.choice(len(groups), size=n_nodes, p=probs)
        counts = np.array([len(groups[g][1]) for g in gidx])
        draws = np.concatenate([np.array(groups[g][1]) for g in gidx]) if counts.sum() else np.empty(0)
        return counts, draws

    def _emit_counted(self, stream):
        counts, factors = self._counts_and_draw(stream, self.sizes.size)
        owner = np.repeat(np.arange(self.sizes.size), counts)
        kids = self.sizes[owner] * factors
        return kids, owner, np.zeros(self.sizes.size)

    def _emit_generic(self, stream):
        kids_parts, owner_parts = [], []
        tail_mean = np.zeros(self.sizes.size)
        delta = self.eps ** (1.0 / self.bs)
        for i, s in enumerate(self.sizes):
            sample = self.law.sample_offspring(stream, floor=delta / s)
            kids_parts.append(s * sample.sizes)
            owner_parts.append(np.full(sample.sizes.size, i))
            if sample.truncated_beta_mass_bound:
                tail_mean[i] += s**self.bs * sample.truncated_beta_mass_bound
        kids = np.concatenate(kids_parts) if kids_parts else np.empty(0)
        owner = np.concatenate(owner_parts).astype(int) if owner_parts else np.empty(0, dtype=int)
        return kids, owner, tail_mean


#: trees per generation-engine batch; each batch draws from its own stream
TREE_BATCH = 1000


def generation_martingale(law, beta_star, depth, eps_prune=1e-4, n_trees=1, master_seed=0):
    """Intrinsic-martingale values M_0..M_depth for an ensemble of trees.

    Returns a GenerationMartingaleResult: raw per-generation weights of the
    materialised tree plus the exact expected weight of pruned lineages (the
    corrected sum is unbiased for E M_n = 1).  Trees run in memory-bounded
    batches of TREE_BATCH.
    """
    m_hat_parts, corr_parts = [], []
    for b, start in enumerate(range(0, n_trees, TREE_BATCH)):
        eng = _GenerationEngine(
            law, beta_star, min(TREE_BATCH, n_trees - start), eps_prune, master_seed,
            batch_index=b,
        )
        for _ in range(depth):
            eng.step()
        res = eng.result()
        m_hat_parts.append(res.m_hat)
        corr_parts.append(res.correction)
    return GenerationMartingaleResult(
        m_hat=np.vstack(m_hat_parts), correction=np.vstack(corr_parts)
    )


@dataclass
class MInftyEstimate:
    mean: float
    mean_se: float
    second_moment: float
    second_moment_se: float
    n_generations: int
    converged: bool


def estimate_m_infinity_moments(
    law, beta_star, n_trees=10000, max_depth=24, eps_prune=1e-3, master_seed=0,
):
    """Monte Carlo moments of the terminal martingale value.

    A pilot batch advances generations until the variance of the corrected
    statistic has plateaued, judged by the exact L2 rate: conditioning on
    generation n leaves E M_inf^2 - E M_n^2 = q^n Var(M_inf) with
    q = phi(2 beta*) (independent subtrees), so the run stops once that
    analytic tail drops below a fraction of the target standard error (a
    paired-noise test would stall on heavy-tailed variance estimates).  The
    remaining trees run to the selected depth in memory-bounded batches.
    Reports mean (should be 1) and second moment with SEs over all trees.
    """
    pilot_n = min(TREE_BATCH, n_trees)
    q = float(law.phi(2.0 * beta_star))
    eng = _GenerationEngine(law, beta_star, pilot_n, eps_prune, master_seed, batch_index=0)
    cols = [np.ones(pilot_n)]
    converged = False
    for n in range(1, max_depth + 1):
        cols.append(eng.step())
        if n >= 4 and n % 2 == 0:
            v_n = cols[n].var(ddof=1)
            var_inf = v_n / max(1.0 - q**n, 1e-12)
            tail = q**n * var_inf
            se_m2_target = np.std(cols[n] ** 2, ddof=1) / math.sqrt(n_trees)
            if tail < 0.3 * max(se_m2_target, 1e-12):
                converged = True
                break
    depth = len(cols) - 1
    values = [cols[-1]]
    for b, start in enumerate(range(pilot_n, n_trees, TREE_BATCH), start=1):
        eng = _GenerationEngine(
            law, beta_star, min(TREE_BATCH, n_trees - start), eps_prune, master_seed,
            batch_index=b,
        )
        col = None
        for _ in range(depth):
            col = eng.step()
        values.append(col)
    m = np.concatenate(values)
    return MInftyEstimate(
        mean=float(m.mean()),
        mean_se=float(m.std(ddof=1) / math.sqrt(m.size)),
        second_moment=float(np.mean(m**2)),
        second_moment_se=float(np.std(m**2, ddof=1) / math.sqrt(m.size)),
        n_generations=depth,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# tagged fragment and the limit variable Y
# ---------------------------------------------------------------------------

def tagged_fragment_path(law, alpha, t_max, master_seed=0, beta_star=None):
    """One path of the tagged-fragment chain: (jump_times, sizes_after_jump).

    The chain starts at size 1, waits Exp(rate x^alpha), then multiplies by
    eta ~ sigma_hat.  Satisfies E L_t^(beta-beta*) = m(t, beta).
    """
    bs = _beta_star_newton(law) if beta_star is None else beta_star
    tagged = law.tagged(bs)
    stream = rngmod.stream(master_seed, "tagged-path")
    t, x = 0.0, 1.0
    times, sizes = [0.0], [1.0]
    while True:
        rate = x**alpha if alpha != 0 else 1.0
        t += stream.exponential() / rate
        if t > t_max:
            break
        x *= float(tagged.sample_eta(stream, 1)[0])
        times.append(t)
        sizes.append(x)
    return np.array(times), np.array(sizes)


def tagged_final_sizes(law, alpha, t_max, n_paths, master_seed=0, beta_star=None):
    """Vectorised L_{t_max} over independent tagged-fragment paths."""
    bs = _beta_star_newton(law) if beta_star is None else beta_star
    tagged = law.tagged(bs)
    stream = rngmod.stream(master_seed, "tagged")
    x = np.ones(n_paths)
    t = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        ia = np.where(active)[0]
        rate = x[ia] ** alpha if alpha != 0 else np.ones(ia.size)
        t_new = t[ia] + stream.exponential(size=ia.size) / rate
        fire = t_new <= t_max
        t[ia[fire]] = t_new[fire]
        x[ia[fire]] *= tagged.sample_eta(stream, int(fire.sum()))
        active[ia[~fire]] = False
    return x


@dataclass
class YSampleResult:
    """Samples of the limit variable Y with the truncation-tail accounting.

    Y = sum_k eps_k prod_{j<=k} eta_j^alpha (eps exponential, eta_0 from the
    stationary first-factor law, eta_j replicas of the tilt).  The series is
    cut once the running product P falls below eps_tail; the discarded tail
    has conditional mean P * r/(1-r) with r = E eta^alpha, reported as
    ``tail_mean_bound`` (mean over samples).
    """

    values: np.ndarray
    tail_mean_bound: float


def sample_Y(law, alpha, n, master_seed=0, eps_tail=1e-12, beta_star=None):
    if alpha <= 0:
        raise ValueError("the limit variable Y needs alpha > 0")
    bs = _beta_star_newton(law) if beta_star is None else beta_star
    tagged = law.tagged(bs)
    stream = rngmod.stream(master_seed, "limit-Y")
    P = tagged.sample_eta_first(stream, n) ** alpha
    Y = stream.exponential(size=n) * P
    active = P >= eps_tail
    while active.any():
        k = int(active.sum())
        P[active] *= tagged.sample_eta(stream, k) ** alpha
        Y[active] += stream.exponential(size=k) * P[active]
        active[active] = P[active] >= eps_tail
    r = float(np.real(tagged.mean_eta_pow(alpha)))
    tail = float(P.mean()) * r / (1.0 - r)
    return YSampleResult(values=Y, tail_mean_bound=tail)
