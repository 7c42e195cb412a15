#!/usr/bin/env python3
"""Walk-through: reproduction laws, their Mellin data, and the Malthusian root.

A reproduction law describes the child sizes {xi_j} of a unit particle.  Its
characteristic function phi(beta) = E sum xi_j^beta is strictly decreasing in
real beta with phi -> sigma{1} < 1, so phi = 1 has at most one real root: the
Malthusian exponent beta*, the single number steering every asymptotic.
"""

import numpy as np

from fragkit import laws
from fragkit.errors import NoMalthusianExponent
from fragkit.rng import stream

print("== built-in laws and their characteristic functions ==")
roster = [
    laws.BinaryUniformConservative(),
    laws.StickBreakingLossy(),
    laws.StickBreakingConservative(),
    laws.FilippovPower(2.0, 1.0),
    laws.DirichletPolynomial(terms=((1.2, 0.7), (0.9, 2.0))),
]
for law in roster:
    bs = laws.malthusian_exponent(law)
    print(f"{law.kind:<28} beta_a={law.beta_a:>6.2f}  beta*={bs:.10f}  "
          f"phi(beta*+1)={law.phi(bs + 1):.6f}  conservative={law.conservative}")

print("\nStick-breaking with the first uniform portion lost has "
      "phi(beta) = 1/(beta(beta+1)),")
print("so beta* solves beta^2 + beta = 1: the inverse golden ratio",
      f"{laws.malthusian_exponent(laws.StickBreakingLossy()):.12f}")

print("\n== a structural measure with no Malthusian exponent ==")
# density ~ x^(-3/2) |log x|^(-2) on ]0,1/2[: phi is finite only for
# beta >= 1/2 and tops out below 1, so the root equation has no solution
try:
    laws.malthusian_exponent(laws.no_malthusian_example())
except NoMalthusianExponent as exc:
    print("detected:", exc)

print("\n== sampling offspring ==")
rng = stream(7, "demo")
for law in roster[:4]:
    s = law.sample_offspring(rng)
    shown = np.array2string(s.sizes[:6], precision=4)
    print(f"{law.kind:<28} children {shown}{'...' if s.sizes.size > 6 else ''}  "
          f"sum={s.sizes.sum():.6f}  tail-term={s.truncated_beta_mass_bound:.2e}")

print("\nAny structural measure can be realised as one draw from a probability")
print("part plus a Poisson point process carrying the remaining intensity:")
law = laws.UserPoisson(
    laws.PowerComponent(1.0, 1.0), laws.PowerComponent(1.0, 1.0)
)
counts = [law.sample_offspring(rng).sizes.size for _ in range(20000)]
print(f"uniform + Poisson(1) extras: mean children = {np.mean(counts):.3f} (exactly 2 in mean), "
      f"phi(1) = {law.phi(1.0):.6f}")

print("\n== size-biased tilt (the tagged-fragment child law) ==")
fil = laws.FilippovPower(2.0, 1.0)
tag = fil.tagged()
eta = tag.sample_eta(rng, 100000)
print(f"power law (2,1): tilt density 2x, E eta = {eta.mean():.4f} (2/3), "
      f"E eta^0.5 = {np.mean(eta**0.5):.4f} (phi(1.5) = {fil.phi(1.5):.4f})")

print("\n== arithmetic support detection (atomic laws) ==")
for sizes in [(0.5, 0.25, 0.125), (0.5, 1.0 / 3.0), (0.25, 0.125)]:
    law = laws.UserAtomic(groups=((1.0, sizes),))
    print(f"atoms {sizes}: geometric grid = {laws.arithmetic_check(law)}")
