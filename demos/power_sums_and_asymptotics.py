#!/usr/bin/env python3
"""Walk-through: mean power sums m(t, beta), two independent evaluators, and
the large-t asymptotics through the extrapolated product.

m(t, beta) = E sum_j X_j(t)^beta solves a causal integro-differential
equation and expands as an alternating entire series.  For large t,
m(t, beta) ~ C(beta) t^((beta*-beta)/alpha): the coefficient is a residue
combining Euler's gamma with the product extrapolation g(z, beta).
"""

import math
import time

import mpmath as mp

from fragkit import analytics as an, laws

fil = laws.FilippovPower(2.0, 1.0)
stick = laws.StickBreakingLossy()

print("== the series and the integro-differential oracle agree ==")
for law in (fil, stick):
    bs = an.beta_star_of(law)
    beta = bs + 0.5
    sol = an.m_integro(law, 10.0, beta, 1.0)
    worst = 0.0
    for t in (0.5, 2.0, 5.0, 10.0):
        series = an.m_series(law, t, beta, 1.0).value
        worst = max(worst, abs(float(sol(t)) - series) / series)
    print(f"{law.kind:<22} beta = b*+0.5: max relative gap {worst:.2e} on t in [0,10]")

print("\n== adaptive precision: the series cancels catastrophically ==")
for t in (10.0, 50.0, 200.0):
    ev = an.m_series(fil, t, 2.0, 1.0, rel_tol=1e-13)
    print(f"t={t:>5g}: m={ev.value:.6e}  bits={ev.working_precision_bits}  "
          f"terms={ev.terms_used}  digits lost={ev.cancellation_digits_lost:.1f}")

print("\n(2,1) power law has the Kummer closed form m(t,2) = 1F1(1; 3; -t) = 2(t-1+e^-t)/t^2:")
t = 50.0
print(f"  series {an.m_series(fil, t, 2.0, 1.0).value:.12e} vs "
      f"1F1 {an.rational_m(fil, t, 2.0, 1.0):.12e} vs "
      f"closed {2 * (t - 1 + math.exp(-t)) / t**2:.12e}")

print("\n== derivative identity: d^k/dt^k m(t,b) = (-1)^k g(k,b) m(t, b+k alpha) ==")
for k in (1, 2):
    res = an.derivative_identity_check(stick, 1.0, 1.0, k, 1.0)
    print(f"k={k}: relative residual {res:.2e}")

print("\n== extrapolated product and its gamma-ratio closed form ==")
for z in (0.3, 1.7, 0.5 + 1.0j):
    g = an.gamma_z(fil, z, 1.3, 1.0)
    ref = an.rational_gamma(fil, z, 1.3, 1.0)
    print(f"g({z}, 1.3): {g.value:.12g}  gamma-ratio {ref:.12g}  K={g.truncation_K}")

print("\nfunctional equation g(z+1,b) = psi(b+z) g(z,b) for the stick law:")
z, beta = 0.62 + 0.4j, 1.1
g0 = an.gamma_z(stick, z, beta, 1.0).value
g1 = an.gamma_z(stick, z + 1, beta, 1.0).value
print(f"  residual {abs(g1 - stick.psi(beta + z) * g0) / abs(g0):.2e}")

print("\n== leading asymptotics via the residue coefficient ==")
t0 = time.time()
for law in (fil, stick):
    bs = an.beta_star_of(law)
    beta = bs + 1.0
    C = an.asymptotic_coefficient(law, beta, 1.0, tol=1e-20, precision_bits=200)
    ev = an.m_series(law, 50.0, beta, 1.0, rel_tol=1e-22, start_bits=256)
    with mp.workprec(200):
        ratio = mp.mpf(50.0) * ev.mp_value / C
    print(f"{law.kind:<22} t^1 m(50, b*+1)/C = {mp.nstr(ratio, 10)}  (to 1 like 1 - c/t)")
print(f"  (big-float evaluation took {time.time() - t0:.2f}s)")

print("\nmean particle count of the (2,1) law grows linearly: C(0) =",
      f"{an.asymptotic_coefficient(fil, 0.0, 1.0):.6f} (= Gamma(1)/Gamma(2))")

print("\n== limit-measure moments ==")
print("power law (lam,theta): int x^(alpha k) drho = (lam/alpha)_k;")
for k in range(1, 5):
    print(f"  k={k}: rho_moment = {an.rho_moment(fil, k, 1.0):.10g} "
          f"(Pochhammer {math.factorial(k + 1)})")
diri = laws.DirichletPolynomial(terms=((1.2, 0.7), (0.9, 2.0)))
roots, poles = diri.rational_psi()
print("two-term Dirichlet polynomial: psi = prod (b - r_i) / prod (b + theta_j), so")
print(f"  roots of phi=1: {roots}, poles: {-poles}")
for alpha in (1.0, 0.7):
    print(f"  alpha={alpha:g}: C(1.8) = {an.rational_coefficient(diri, 1.8, alpha):.10g} "
          f"(gamma ratios) vs {an.asymptotic_coefficient(diri, 1.8, alpha):.10g} (residue); "
          f"moment 3 = {an.rational_rho_moment(diri, 3, alpha):.10g} vs "
          f"{an.rho_moment(diri, 3, alpha):.10g}")
print(f"  m(1000, 1.8) = {an.rational_m(diri, 1000.0, 1.8, 1.0):.10e} as a 2F2, "
      f"(the series needs {an.m_series(diri, 1000.0, 1.8, 1.0).working_precision_bits} bits here)")
