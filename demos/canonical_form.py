"""Strip the damping off an equation by rescaling x and re-reading the clock.

x'' + (2/t) x' = x^5 looks time-dependent, but a scale gamma ~ 1/t and
the matching clock turn it into the autonomous canonical form
z'' = c(tau) z^5 -- and for this damping the coefficient comes out as a
clean power of t.  We build the transformation, tabulate it, and then
*check* it the honest way: integrate the canonical equation in its own
clock, integrate the original equation, map its trajectory, and compare.
"""

from emdenlab.gauge import (
    GeneralizedProblem,
    canonical_residual,
    kummer_liouville,
    reduce_via_particular_solution,
    verify_pushforward,
)
from emdenlab.numerics import linspace
from emdenlab.solutions import catalog_entry
from emdenlab.timefn import PowerFn

gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)

# gamma(1) = 1, gamma'(1) = -1 selects the 1/t scale, which keeps the
# new clock uniform; the default (1, 0) also works but compresses it
kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(1.0, -1.0))
print(kl.render())
print()

print("      t      gamma(t)    gamma*t     tau(t)     coeff*t^4")
for t in linspace(1.0, 5.0, 9):
    print(
        f"  {t:5.1f}  {kl.gamma(t):11.8f}  {kl.gamma(t) * t:9.6f}"
        f"  {kl.tau(t):9.6f}  {kl.coefficient(t) * t ** 4:12.9f}"
    )
print()

residual = canonical_residual(kl, gp, (0.3, 0.0), grid_points=21)
print(f"canonical run against the mapped trajectory, sup relative gap: {residual:.3e}")
print()

# the same machinery, driven from a particular solution instead: the
# known profile of the drag form picks the frame for us
entry = catalog_entry("lane_emden_n5")
red = reduce_via_particular_solution(entry.problem, entry.xp, (0.5, 5.0), dxp=entry.dxp)
print(red.render())
print()

rep = verify_pushforward(entry.problem, red.gauge, (1.3, -0.2), (0.5, 5.0))
print(rep.render())
