#!/usr/bin/env python3
"""Walk-through: the random limit of the weighted scaled empirical measure.

Weighting particles by X_j^beta* and rescaling locations by t^(1/alpha)
stabilises the population: the mean measure converges to a deterministic
probability rho, while the empirical functionals converge in L2 to
M_inf * int f drho with the terminal martingale value as random factor.
The tagged-fragment chain and the limit variable Y give independent
routes to rho.
"""

import math

import numpy as np

from fragkit import analytics as an, estimators as est, laws, simulate as sim

fil = laws.FilippovPower(2.0, 1.0)
binary = laws.BinaryUniformConservative()  # same structural measure in mean

print("== weighted empirical measure vs the gamma-type limit density ==")
t, n_reps = 25.0, 3000
cfg = sim.SimulationConfig(alpha=1.0, t_max=t, snapshot_times=(t,), master_seed=5)
pop, = sim.natural_replicates(cfg, binary, n_reps, beta_star=1.0)
measure = est.empirical_weighted_measure(pop, 1.0, 1.0)
for k in (1, 2):
    mo, se = measure.moment(k)
    exact = t**k * an.m_series(binary, t, 1.0 + k, 1.0).value
    print(f"moment k={k}: {mo:.4f} +- {se:.4f}   exact mean {exact:.4f}   "
          f"limit {an.rho_moment(fil, k, 1.0):g}")
ks = est.cdf_distance(measure, lambda x: an.rho_cdf(fil, 1.0, x))
print(f"Kolmogorov distance to the gamma-type CDF at t={t:g}: {ks:.4f}")

edges, mass = measure.histogram(n_bins=12)
print("histogram of t X_j weighted by X_j (mass per replicate):")
peak = mass.max()
for i in range(mass.size):
    bar = "#" * int(38 * mass[i] / peak)
    print(f"  [{edges[i]:7.3f},{edges[i + 1]:7.3f})  {bar}")

print("\n== tagged fragment: one size, tilted shrink factors ==")
x = sim.tagged_final_sizes(fil, 1.0, 100.0, 50_000, master_seed=9)
scaled = np.sort(100.0 * x)
emp = np.arange(1, scaled.size + 1) / scaled.size
ks_tag = float(np.max(np.abs(emp - an.rho_cdf(fil, 1.0, scaled))))
print(f"t^(1/alpha) L_t at t=100: KS to gamma-type CDF = {ks_tag:.4f}")

print("\n== the limit variable Y (exponential functional of the shrink chain) ==")
ys = sim.sample_Y(fil, 1.0, 100_000, master_seed=13)
print(f"E Y   = {ys.values.mean():.4f}  (moment 1 = {an.rho_moment(fil, 1, 1.0):g})")
print(f"E Y^2 = {np.mean(ys.values**2):.4f}  (moment 2 = {an.rho_moment(fil, 2, 1.0):g})")
print(f"truncation tail bound {ys.tail_mean_bound:.2e}")

print("\n== L2 convergence of weighted functionals ==")
f = est.exp_decay()
rep = est.l2_functional_test(
    fil, 1.0, f, (8.0, 32.0), n_replicates=1200, master_seed=17,
    f_rho=est.OracleValue(0.25, 0.0),  # int e^-x per the gamma-type density
)
print(rep.table())
print("the shrinking variance of A_t - M(t,b*) int f drho is the L2 statement itself")
