"""Exact simulation of the fragmentation process.

Natural time: a particle of size x lives an exponential time with *rate*
x^alpha (mean x^-alpha, so smaller particles live longer when alpha > 0)
and is replaced by children x*xi_j drawn from the reproduction law.  The
population at time t is exactly the set of tree nodes with birth <= t <
death, so ``natural_replicates`` builds the tree breadth first, one
generation of a block of replicates per ``offspring_batch`` call, without
discretisation error, and returns one columnar ``Population`` per snapshot
time; every simulation behind the CLI and the estimators runs on it.  The
event-driven min-heap ``run``/``run_replicates``, whose every particle
draws from a stream keyed by its genealogical path, stays as the reference
the engine is tested against.

Generation time: the same tree indexed by generation instead of time,
used for the intrinsic martingale M_n = sum_{|u|=n} xi_u^beta* and its
terminal second moment.  Lineages whose beta*-weight falls below a prune
threshold are cut, and the *exact conditional expectation* of their missing
descendant weight is carried along, so the corrected per-tree statistic has
mean exactly 1 at every generation.  Each generation's children come from
the law's own batch sampler, ``offspring_batch``; this module knows no law
class.  Trees are laid out in blocks as natural-time replicates are, at
most ``TREE_BATCH`` wide, each run in full on its own streams, so tree r
never depends on how many trees run and memory scales with one block.

Tagged fragment: the single-size chain whose shrink factors follow the
size-biased tilt sigma_hat(dx) = x^beta* sigma(dx), plus the series
representation of its renormalised limit Y.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import laws, rng as rngmod
from .errors import DomainError, NoMalthusianExponent, TreeSizeExceeded


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters for the natural-time simulator.

    ``child_floor`` freezes children below the given absolute size instead of
    simulating them (for alpha > 0 they split extremely rarely on desk-scale
    horizons); every snapshot carries the accumulated expected beta*-mass of
    frozen lineages so the bias stays auditable.  ``max_particles`` bounds
    one replicate: its live population in ``run``, the nodes materialised
    for it in ``natural_replicates``; both raise TreeSizeExceeded beyond it
    rather than return a truncated state.
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
        if not math.isfinite(self.t_max) or not all(0 <= t <= self.t_max for t in times):
            raise ValueError("snapshot_times must lie in [0, t_max] with t_max finite")
        if sorted(times) != list(times):
            raise ValueError("snapshot_times must be sorted")
        if not self.child_floor >= 0:
            raise ValueError(f"child_floor must be >= 0, got {self.child_floor}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (0 < self.initial_size <= 1.0):
            raise ValueError("initial_size must lie in ]0, 1]")
        object.__setattr__(self, "snapshot_times", times)


def _frozen_mass_exponent(law, beta_star, child_floor):
    """beta_star, else the law's Malthusian exponent; None only when nothing freezes."""
    if beta_star is None:
        try:
            beta_star = laws.malthusian_exponent(law)
        except NoMalthusianExponent:
            beta_star = None
    if beta_star is None and child_floor > 0:
        raise NoMalthusianExponent(
            "child_floor truncation needs a Malthusian exponent; rerun with child_floor=0"
        )
    return beta_star


# ---------------------------------------------------------------------------
# natural-time event loop: the reference heap
# ---------------------------------------------------------------------------

@dataclass
class PopulationSnapshot:
    """Sizes alive in one heap replicate at a fixed time, decreasing.

    ``frozen_beta_mass_bound`` is the expected beta*-mass of all lineages
    frozen by the child floor up to this time (non-decreasing within a run);
    for conservative laws (beta* = 1) it is exactly the frozen mass, so
    sum(sizes) + frozen = initial_size up to rounding.
    """

    t: float
    sizes: np.ndarray
    frozen_beta_mass_bound: float


def snapshot_power_sum(snapshot, beta):
    """M(t, beta) = sum of size^beta over particles alive in the snapshot."""
    if snapshot.sizes.size == 0:
        return 0.0 if not isinstance(beta, complex) else 0j
    return np.sum(snapshot.sizes**beta)


def run(config, law, replicate=0, beta_star=None):
    """Simulate one replicate; returns snapshots at config.snapshot_times.

    Deterministic in (config, law, replicate): each node's offspring and its
    children's lifetimes are drawn from a stream keyed by the node's path.
    The replicate holds one Generator and re-keys it at every split.  Raises
    TreeSizeExceeded as soon as more than ``config.max_particles`` particles
    are alive.
    """
    alpha = config.alpha
    beta_star = _frozen_mass_exponent(law, beta_star, config.child_floor)
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
            out.append(PopulationSnapshot(t=t_snap, sizes=sizes, frozen_beta_mass_bound=frozen))
            si += 1
    return out


def run_replicates(config, law, n_replicates, beta_star=None):
    """Independent replicates, ordered by replicate id."""
    return [run(config, law, r, beta_star) for r in range(n_replicates)]


# ---------------------------------------------------------------------------
# breadth-first natural-time engine
# ---------------------------------------------------------------------------

#: width of the first natural-time block and of the widest: each block is
#: as wide as all the blocks before it, between these two, so the layout of
#: replicates into blocks, and with it every replicate's draws, never depends
#: on the replicate count, while a run of n replicates simulates at most
#: max(16, 2n) of them
NATURAL_FIRST_BLOCK = 16
NATURAL_BLOCK = 512


def _natural_blocks(n_replicates, widest=None):
    """(first replicate, width) of each block that a run of n replicates touches.

    Blocks are at most ``widest`` wide, by default ``NATURAL_BLOCK``.
    """
    widest = NATURAL_BLOCK if widest is None else widest
    start = 0
    while start < n_replicates:
        width = min(max(start, NATURAL_FIRST_BLOCK), widest)
        yield start, width
        start += width


def _lifetimes(stream, sizes, alpha):
    """Exp(size^alpha) lifetimes; a rate that underflows to 0 never ends.

    A lifetime that overflows is infinite as well, as in the heap's float
    arithmetic; neither case warns.
    """
    life = stream.standard_exponential(sizes.size)
    if alpha == 0:
        return life
    with np.errstate(over="ignore", under="ignore"):
        rate = sizes**alpha
        return np.divide(life, rate, out=np.full(sizes.size, np.inf), where=rate > 0)


def _natural_block(config, law, block, start, nb, beta_star):
    """Snapshot columns of block ``block``, replicates start to start + nb - 1.

    Returns, per snapshot time, the alive sizes ordered by replicate and
    then decreasingly, the count per replicate and the frozen beta*-mass per
    replicate.  Generation g draws offspring and lifetimes from the stream
    keyed (seed, "natural", block, g), one Generator re-keyed per
    generation; its nodes are materialised with birth and death
    times, and only those that die by the last snapshot are expanded.
    """
    floor, cap = config.child_floor, config.max_particles
    times = config.snapshot_times
    horizon = times[-1]
    stream = rngmod.stream(config.master_seed, "natural", block, 0)
    sizes = np.full(nb, config.initial_size)
    rep = np.arange(nb)
    birth = np.zeros(nb)
    death = _lifetimes(stream, sizes, config.alpha)
    seen = np.ones(nb, dtype=np.int64)
    alive = [([], []) for _ in times]
    frozen = np.zeros((len(times), nb))
    gen = 0
    while True:
        for (reps, kept), t in zip(alive, times):
            on = np.flatnonzero((birth <= t) & (death > t))
            reps.append(rep.take(on))
            kept.append(sizes.take(on))
        split = np.flatnonzero(death <= horizon)
        if not split.size:
            break
        gen += 1
        stream = rngmod.stream(config.master_seed, "natural", block, gen, reuse=stream)
        kids, owner, tail = law.offspring_batch(stream, sizes.take(split), floor, beta_star)
        rep, death = rep.take(split), death.take(split)
        del split, sizes
        kid_rep, birth = rep.take(owner), death.take(owner)
        del owner
        seen += np.bincount(kid_rep, minlength=nb)
        worst = int(seen.argmax())
        if seen[worst] > cap:
            raise TreeSizeExceeded(f"more than {cap} particles materialised in replicate "
                                   f"{start + worst} by generation {gen}")
        if floor > 0:
            # children below the floor and the sampler's tail freeze at their
            # beta*-mass, stamped with the parent's death time
            below = kids < floor
            small = np.flatnonzero(below)
            f_rep = np.concatenate([kid_rep.take(small), rep])
            f_at = np.concatenate([birth.take(small), death])
            f_mass = np.concatenate([kids.take(small) ** beta_star, tail])
            del small
            for i, t in enumerate(times):
                on = np.flatnonzero(f_at <= t)
                frozen[i] += np.bincount(f_rep.take(on), weights=f_mass.take(on), minlength=nb)
            del f_rep, f_at, f_mass
            live = np.flatnonzero(~below)
            del below
            kids, kid_rep, birth = kids.take(live), kid_rep.take(live), birth.take(live)
            del live
        del tail, death
        sizes, rep = kids, kid_rep
        del kids, kid_rep
        death = birth + _lifetimes(stream, sizes, config.alpha)
    out = []
    for (reps, kept), col in zip(alive, frozen):
        reps, kept = np.concatenate(reps), np.concatenate(kept)
        order = np.lexsort((-kept, reps))
        out.append((kept.take(order), np.bincount(reps, minlength=nb), col))
    return out


@dataclass
class Population:
    """Replicates 0 to n - 1 at time t, as columns.

    ``sizes``: replicate 0's alive sizes in decreasing order, then replicate
    1's, and so on (``replicate_ids`` names each entry's replicate); ``counts[r]``:
    replicate r's particle count; ``frozen[r]``: the expected beta*-mass of its
    lineages frozen by the child floor up to t (exactly the frozen mass when beta* = 1).
    """

    t: float
    sizes: np.ndarray
    counts: np.ndarray
    frozen: np.ndarray

    @property
    def replicate_ids(self):
        return np.repeat(np.arange(self.counts.size), self.counts)

    def sums(self, values):
        """Per-replicate sums of a column aligned with ``sizes``, added in order; 0.0 if extinct."""
        return np.bincount(self.replicate_ids, weights=values, minlength=self.counts.size)

    def power_sums(self, beta):
        """M(t, beta) = sum of size^beta per replicate."""
        return self.sums(self.sizes**beta)


def natural_replicates(config, law, n_replicates, beta_star=None):
    """Replicates 0 to n - 1 from the breadth-first engine: one Population per snapshot time.

    The population at time t is the set of tree nodes with birth <= t <
    death, plus the beta*-mass frozen at or before t; each generation of a
    block of replicates is one ``law.offspring_batch`` call.  It follows the
    law of ``run_replicates``, not its draws.  Blocks are laid out by
    ``_natural_blocks`` and always run in full, the surplus replicates
    dropped, so replicate r is a pure function of (config, law, r).  Raises
    TreeSizeExceeded as soon as more than ``config.max_particles`` nodes are
    materialised for one replicate of a block that the run touches.
    """
    beta_star = _frozen_mass_exponent(law, beta_star, config.child_floor)
    if not config.snapshot_times:
        return []
    empty = (np.empty(0), np.empty(0, dtype=np.intp), np.empty(0))
    parts = [[empty] for _ in config.snapshot_times]
    for block, (start, nb) in enumerate(_natural_blocks(n_replicates)):
        keep = min(nb, n_replicates - start)
        for part, (s, c, f) in zip(parts, _natural_block(config, law, block, start, nb, beta_star)):
            part.append((s[:c[:keep].sum()], c[:keep], f[:keep]))
    return [Population(t, *map(np.concatenate, zip(*part)))
            for t, part in zip(config.snapshot_times, parts)]


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


#: most nodes one block of the generation engine materialises over its generations
GENERATION_NODE_CAP = 60_000_000


class _GenerationEngine:
    """Vectorised breadth-first tree evolution across one block of trees.

    ``step`` draws generation n with one ``law.offspring_batch`` call at the
    floor eps_prune^(1/beta*), the size whose beta*-weight is the threshold,
    on the stream keyed (seed, "genealogy", block, n), one Generator
    re-keyed per generation, and returns that generation's corrected column
    m_tilde.  Per-tree sums use ``np.bincount``, which adds in element order
    as ``np.add.at`` does, so the columns carry the same bits; live and
    pruned children are split by position (``flatnonzero`` + ``take``)
    rather than by boolean masks.
    Tail corrections enter at their own generation, prune corrections one
    generation later (the pruned node itself was materialised); both are
    kept as running sums, added in generation order.
    """

    def __init__(self, law, beta_star, n_trees, eps_prune, master_seed, block=0):
        self.law = law
        self.bs = beta_star
        self.n_trees = n_trees
        self.eps = eps_prune
        self.seed = master_seed
        self.block = block
        self.stream = None
        self.sizes = np.ones(n_trees)
        self.tree = np.arange(n_trees)
        self.gen = 0
        self.nodes_seen = n_trees
        self.m_hat_cols = [np.ones(n_trees)]
        self.m_tilde_cols = [np.ones(n_trees)]
        # tail: missing weight first visible up to the current generation;
        # prune: weight of nodes materialised before it but not extended
        self.tail = np.zeros(n_trees)
        self.prune = np.zeros(n_trees)

    def step(self):
        n = self.gen + 1
        nt = self.n_trees
        self.stream = rngmod.stream(self.seed, "genealogy", self.block, n, reuse=self.stream)
        kids, owner, tail_mean = self.law.offspring_batch(
            self.stream, self.sizes, self.eps ** (1 / self.bs), self.bs)
        self.nodes_seen += kids.size
        if self.nodes_seen > GENERATION_NODE_CAP:
            raise TreeSizeExceeded(f"more than {GENERATION_NODE_CAP} nodes materialised")

        kid_tree = self.tree.take(owner)
        del owner
        self.tail = self.tail + np.bincount(self.tree, weights=tail_mean, minlength=nt)
        w = kids**self.bs
        m_col = np.bincount(kid_tree, weights=w, minlength=nt)
        below = w < self.eps
        dead = np.flatnonzero(below)
        prune_col = np.bincount(kid_tree.take(dead), weights=w.take(dead), minlength=nt)
        del w, dead
        live = np.flatnonzero(~below)
        del below
        self.sizes = kids.take(live)
        del kids
        self.tree = kid_tree.take(live)
        del kid_tree, live

        m_tilde = m_col + self.tail + self.prune
        self.prune = self.prune + prune_col
        self.m_hat_cols.append(m_col)
        self.m_tilde_cols.append(m_tilde)
        self.gen = n
        return m_tilde

    def result(self):
        m_hat = np.column_stack(self.m_hat_cols)
        corr = np.column_stack(self.m_tilde_cols) - m_hat
        return GenerationMartingaleResult(m_hat=m_hat, correction=corr)


#: widest block of the generation engine.  Trees are laid out in blocks
#: as natural-time replicates are (``_natural_blocks``): 16 trees first,
#: each block as wide as all before it, up to this width, each run in full
#: on its own streams, so a tree's values never depend on the tree count
#: and n trees cost at most max(16, 2n).  Peak memory scales with this
#: width.  Narrower blocks are cheaper per child (cache-resident arrays)
#: but pay a fixed cost per block and generation, which shallow M_inf runs
#: feel most; 128 measured lowest in memory and no slower end to end than
#: 256 or 512.
TREE_BATCH = 128


def _tree_blocks(law, beta_star, n_trees, eps_prune, master_seed):
    """(engine, trees kept) per block of trees 0 to n_trees - 1, engines not yet grown."""
    for block, (start, width) in enumerate(_natural_blocks(n_trees, TREE_BATCH)):
        yield (_GenerationEngine(law, beta_star, width, eps_prune, master_seed, block=block),
               min(width, n_trees - start))


def generation_martingale(law, beta_star, depth, eps_prune=1e-4, n_trees=1, master_seed=0):
    """Intrinsic-martingale values M_0..M_depth for an ensemble of trees.

    Returns a GenerationMartingaleResult: raw per-generation weights of the
    materialised tree plus the exact expected weight of pruned lineages (the
    corrected sum is unbiased for E M_n = 1).  Trees grow one block at a
    time, blocks of at most TREE_BATCH trees laid out independently of
    n_trees, so row r does not depend on how many trees run.
    """
    m_hat, correction = [], []
    for eng, keep in _tree_blocks(law, beta_star, n_trees, eps_prune, master_seed):
        for _ in range(depth):
            eng.step()
        res = eng.result()
        m_hat.append(res.m_hat[:keep])
        correction.append(res.correction[:keep])
    return GenerationMartingaleResult(m_hat=np.vstack(m_hat), correction=np.vstack(correction))


@dataclass
class MInftyEstimate:
    mean: float
    mean_se: float
    second_moment: float
    second_moment_se: float
    n_generations: int
    converged: bool


#: trees the M_inf pilot judges convergence on (all of them when fewer run)
PILOT_TREES = 1000


def _tail_negligible(col, n, q, n_trees):
    """Whether the L2 tail left after generation n is below 0.3 target SE.

    ``col`` holds the pilot's corrected M_n; the tail is q^n Var(M_inf), and
    the target is the SE of the second moment over ``n_trees`` trees.
    """
    v_n = col.var(ddof=1)
    var_inf = v_n / max(1.0 - q**n, 1e-12)
    tail = q**n * var_inf
    se_m2_target = np.std(col**2, ddof=1) / math.sqrt(n_trees)
    return bool(tail < 0.3 * max(se_m2_target, 1e-12))


def _m_infinity_sample(law, beta_star, n_trees, max_depth, eps_prune, master_seed):
    """(corrected M_depth of trees 0 to n_trees - 1, depth, converged).

    The blocks covering the pilot's min(PILOT_TREES, n_trees) trees step in
    lockstep, one generation at a time, until the tail is negligible or
    max_depth is reached; their surplus trees join the sample when n_trees
    covers them.  The remaining blocks then grow one at a time to that depth.
    """
    pilot_n = min(PILOT_TREES, n_trees)
    q = float(law.phi(2.0 * beta_star))
    blocks = _tree_blocks(law, beta_star, n_trees, eps_prune, master_seed)
    pilot = [next(blocks) for _ in _natural_blocks(pilot_n, TREE_BATCH)]
    converged = False
    depth = 0
    while depth < max_depth and not converged:
        depth += 1
        col = np.concatenate([eng.step() for eng, _ in pilot])[:pilot_n]
        converged = depth >= 4 and depth % 2 == 0 and _tail_negligible(col, depth, q, n_trees)
    m = [eng.m_tilde_cols[depth][:keep] for eng, keep in pilot]
    del pilot
    for eng, keep in blocks:
        for _ in range(depth):
            eng.step()
        m.append(eng.m_tilde_cols[depth][:keep])
    return np.concatenate(m), depth, converged


def estimate_m_infinity_moments(
    law, beta_star, n_trees=10000, max_depth=24, eps_prune=1e-3, master_seed=0,
):
    """Monte Carlo moments of the terminal martingale value.

    A pilot of min(PILOT_TREES, n_trees) trees advances generations until
    the variance of the corrected statistic has plateaued, judged by the
    exact L2 rate: conditioning on generation n leaves E M_inf^2 - E M_n^2 =
    q^n Var(M_inf) with q = phi(2 beta*) (independent subtrees), so the run
    stops once that analytic tail drops below a fraction of the target
    standard error (a paired-noise test would stall on heavy-tailed variance
    estimates).  The remaining trees run to the selected depth in the
    generation engine's blocks.  Reports mean (should be 1) and second
    moment with SEs over all trees.
    """
    m, depth, converged = _m_infinity_sample(law, beta_star, n_trees, max_depth, eps_prune,
                                             master_seed)
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

def _check_tagged(alpha, t_max):
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    # alpha < 0: a path shrinks to zero size in finite time, where its rate
    # x^alpha is infinite and its waits are 0, so t would never reach t_max;
    # alpha = inf is refused as the analytics refuse it
    if not 0 <= alpha < math.inf:
        raise DomainError(f"the tagged fragment needs a finite alpha >= 0, got {alpha}")


def tagged_final_sizes(law, alpha, t_max, n_paths, master_seed=0):
    """L_{t_max} of independent tagged-fragment paths, vectorised over paths.

    A path starts at size 1, waits Exp(rate x^alpha), then multiplies by eta
    ~ sigma_hat, so E L_t^(beta-beta*) = m(t, beta).  A path retires once its
    size underflows to 0.0, its exact final value.
    """
    _check_tagged(alpha, t_max)
    tagged = law.tagged()
    stream = rngmod.stream(master_seed, "tagged")
    x = np.ones(n_paths)
    t = np.zeros(n_paths)
    ia = np.arange(n_paths)  # positions of the active paths, ascending
    while ia.size:
        t_new = t.take(ia) + _lifetimes(stream, x.take(ia), alpha)
        fire = np.flatnonzero(t_new <= t_max)
        ia = ia.take(fire)
        t[ia] = t_new.take(fire)
        x[ia] *= tagged.sample_eta(stream, ia.size)
        ia = ia.take(np.flatnonzero(x.take(ia) > 0.0))
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


MAX_Y_ROUNDS = 100_000


def sample_Y(law, alpha, n, master_seed=0, eps_tail=1e-12):
    """Y by its series; DomainError past MAX_Y_ROUNDS rounds, about log(eps_tail)/log(r)
    with r = E eta^alpha, the mean shrink of P per round, which tends to 1 as alpha -> 0."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"the limit variable Y needs a finite alpha > 0, got {alpha}")
    if not eps_tail > 0:
        raise ValueError("eps_tail must be > 0: the series is cut once P < eps_tail")
    tagged = law.tagged()
    r = float(np.real(tagged.mean_eta_pow(alpha)))
    # r = 0 (every eta^alpha underflows) ends the series in one round
    rounds = 1.0 if r == 0.0 else math.log(eps_tail) / math.log(r) if r < 1.0 else math.inf
    if not rounds <= MAX_Y_ROUNDS:
        raise DomainError(f"alpha = {alpha:g} with eps_tail = {eps_tail:g} needs about "
                          f"{rounds:.3g} rounds of the Y series (E eta^alpha = {r!r}), "
                          f"more than {MAX_Y_ROUNDS}")
    stream = rngmod.stream(master_seed, "limit-Y")
    P = tagged.sample_eta_first(stream, n) ** alpha
    Y = stream.exponential(size=n) * P
    active = P >= eps_tail
    while active.any():
        k = int(active.sum())
        P[active] *= tagged.sample_eta(stream, k) ** alpha
        Y[active] += stream.exponential(size=k) * P[active]
        active[active] = P[active] >= eps_tail
    tail = float(P.mean()) * r / (1.0 - r)
    return YSampleResult(values=Y, tail_mean_bound=tail)
