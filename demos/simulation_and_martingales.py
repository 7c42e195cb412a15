#!/usr/bin/env python3
"""Walk-through: exact event-driven simulation and the intrinsic martingale.

A particle of size x waits Exp(rate x^alpha) and splits into children x*xi_j.
The beta*-power sum M(t, beta*) = sum X_j^beta*(t) is a mean-one martingale;
its generation-indexed counterpart M_n converges to a terminal value whose
second moment solves a distributional fixed point.  Every simulated object
is reproducible bit-for-bit from (seed, replicate, lineage).
"""

import math

import numpy as np

from fragkit import analytics as an, estimators as est, laws, simulate as sim

binary = laws.BinaryUniformConservative()
stick = laws.StickBreakingLossy()
bs = an.beta_star_of(stick)

print("== one replicate, event by event ==")
cfg = sim.SimulationConfig(alpha=1.0, t_max=8.0, snapshot_times=(1.0, 4.0, 8.0),
                           master_seed=42)
for snap in sim.run(cfg, stick, replicate=0):
    m = sim.snapshot_power_sum(snap, bs)
    print(f"t={snap.t:>4g}: {snap.sizes.size:>4d} particles, largest {snap.sizes[0]:.4f}, "
          f"M(t,b*)={m:.4f}, frozen tail {snap.frozen_beta_mass_bound:.2e}")

print("\nconservative splitting keeps the total size at exactly 1:")
for snap in sim.run(cfg, binary, replicate=0):
    print(f"t={snap.t:>4g}: sum sizes = {snap.sizes.sum():.15f}")

print("\n== the natural-time martingale has mean one ==")
reps = sim.run_replicates(cfg, stick, 2000, beta_star=bs)
for i, t in enumerate(cfg.snapshot_times):
    vals = np.array([sim.snapshot_power_sum(r[i], bs) + r[i].frozen_beta_mass_bound
                     for r in reps])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    print(f"t={t:>4g}: mean M = {vals.mean():.4f} +- {se:.4f}")

print("\n== generation-indexed martingale M_n = sum_(|u|=n) xi_u^b* ==")
gen = sim.generation_martingale(stick, bs, depth=10, eps_prune=1e-4, n_trees=4000,
                                master_seed=7)
mt = gen.m_tilde
for n in (2, 6, 10):
    se = mt[:, n].std(ddof=1) / math.sqrt(mt.shape[0])
    print(f"n={n:>2d}: corrected mean {mt[:, n].mean():.4f} +- {se:.4f} "
          f"(raw {gen.m_hat[:, n].mean():.4f}; pruned lineages carried in expectation)")

print("\n== terminal value: fixed-point second moment ==")
oracle = est.m_infinity_second_moment_oracle(stick, bs)
mc = sim.estimate_m_infinity_moments(stick, bs, n_trees=8000, master_seed=11)
print(f"closed form E Minf^2 = {oracle.value:.6f} "
      f"(from E(sum xi^b*)^2 = {stick.offspring_square_mean(bs):.6f})")
print(f"Monte Carlo          = {mc.second_moment:.4f} +- {mc.second_moment_se:.4f} "
      f"({mc.n_generations} generations, converged={mc.converged})")

print("\n== homogeneous mode (alpha = 0): sizes decay exponentially ==")
cfg0 = sim.SimulationConfig(alpha=0.0, t_max=3.0, snapshot_times=(3.0,), master_seed=3)
reps0 = sim.run_replicates(cfg0, binary, 3000)
vals = np.array([sim.snapshot_power_sum(r[0], 2.0) for r in reps0])
print(f"E M(3, 2) = {vals.mean():.4f} vs exp(-3 psi(2)) = {an.homogeneous_m(binary, 3.0, 2.0):.4f}")

print("\n== determinism ==")
a = sim.run(cfg, stick, replicate=5)[2].sizes
b = sim.run(cfg, stick, replicate=5)[2].sizes
print("identical replay:", np.array_equal(a, b))
