"""One bounded solution is enough to write down all the others.

For x'' = -2 x'/t - x^5 the bounded solutions on the zero level of the
frozen energy form a one-parameter family: knowing the single member
x1 = (1 + t^2/3)^(-1/2), the value of any other member at the same time
is an algebraic expression in (t, x1, K).  No integration, no initial
value problem -- pick K, evaluate.
"""

import math

from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.solutions import (
    bounded_family,
    frozen_level,
    mixing_constant,
    superpose,
)
from emdenlab.timefn import linspace

seed = bounded_family(1.0)  # (1 + t^2/3)^(-1/2), the smooth member


# --- the algebraic map against the closed family ----------------------------

print("superpose(x1, t, K) against the closed-form member, K = 0.25 and 4")
print()
print("      t        x1         K=0.25 map   K=0.25 exact    K=4 map      K=4 exact")
for t in (0.2, 0.8, 1.5, 2.5, 4.0):
    x1 = seed(t)
    row = [superpose(x1, t, k) for k in (0.25, 4.0)]
    exact = [bounded_family(k)(t) for k in (0.25, 4.0)]
    print(
        f"  {t:5.1f}  {x1:10.7f}   {row[0]:10.7f}   {exact[0]:10.7f}"
        f"   {row[1]:10.7f}   {exact[1]:10.7f}"
    )
print()

# members scale into each other across the fold at |t| = sqrt(3); the
# slope is one-sided there, which is why K is read off *within* a branch
member = bounded_family(2.0)
seam = member.seam
print(f"K = 2 member near the fold t = sqrt(3) ~ {seam:.6f}:")
for t in (seam - 0.01, seam + 0.01):
    print(f"  x({t:.6f}) = {member(t):.9f}, slope = {member.slope(t):+.6f}")
print()


# --- the pairwise constant along the frozen flow -----------------------------

def frozen_rhs(tau, z):
    x, v = z
    return (x + v, -v - x ** 5)


def minus_branch(x):
    # velocity that puts (x, v) on the zero level, lower branch
    return x * (-1.0 - math.sqrt(1.0 - x ** 4 / 3.0))


cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
first = integrate(frozen_rhs, 0.0, (0.9, minus_branch(0.9)), 2.0, cfg)
second = integrate(frozen_rhs, 0.0, (0.7, minus_branch(0.7)), 2.0, cfg)

print("two zero-level trajectories of the frozen system, and the constant")
print("that ties them together:")
print()
print("    tau     level(first)   level(second)   mixing constant")
for tau in linspace(0.0, 2.0, 6):
    xa, va = first(tau)
    xb, vb = second(tau)
    k = mixing_constant(xa, va, xb, vb)
    print(
        f"  {tau:5.2f}   {frozen_level(xa, va):+.3e}    "
        f"{frozen_level(xb, vb):+.3e}    {k:.12f}"
    )
print()
print("the level stays at zero and the constant stays put; a state off the")
print("level is refused:")
try:
    mixing_constant(1.0, 0.5, 0.7, minus_branch(0.7))
except ValueError as exc:
    print(f"  ValueError: {exc}")
