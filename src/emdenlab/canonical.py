"""The Kummer-Liouville canonical form: a scale x = gamma(t) x' and a clock
change bring  x'' = -p x' - q x + r x^n  to  d2x'/dtau2 = F(tau) x'^n
(``kummer_liouville``), and ``canonical_residual`` checks it against a
mapped trajectory of the original problem."""

from __future__ import annotations

import math
# KummerLiouvilleReduction is a dataclass only because perfbench/test_perfbench.py
# copies it with dataclasses.replace
from dataclasses import dataclass
from typing import Optional, Tuple

from .exprlang import _power, real_power
from .gauge import GaugeError, _sample_points
from .numerics import _CHECK_CONFIG, integrate
from .problems import GeneralizedProblem
from .timefn import Inliner, TimeFn

__all__ = ["KummerLiouvilleReduction", "kummer_liouville", "canonical_residual"]


@dataclass(frozen=True)
class KummerLiouvilleReduction:
    """Frame plus clock bringing the damped problem to canonical form.

    On t in [t0, t_end]:  x = gamma x',  tau = integral of beta/gamma,
    and in the new variables  d2x'/dtau2 = coefficient x'^n.  gamma solves
    the associated linear equation; beta is fixed by the damping integral,
    normalized to 1/gamma(t0) at t0.  Every function here is a function of t
    and reads one dense trajectory of (gamma, gamma', int p, tau).
    """

    gamma: TimeFn
    dgamma: TimeFn
    beta: TimeFn
    tau: TimeFn
    coefficient: TimeFn
    t0: float
    t_end: float
    truncated: bool  # True when gamma hit zero before the requested end
    n: float

    def render(self) -> str:
        lines = [
            "canonical reduction",
            f"  valid on     [{self.t0:g}, {self.t_end:g}]"
            + ("  (truncated: scale function reached zero)" if self.truncated else ""),
        ]
        if not self.truncated:
            # near a truncation point the clock integrand blows up; skip it
            lines.append(f"  clock range  [0, {_at(self.tau, self.t_end):.6g}]")
        lines.append(f"  coefficient at start {_at(self.coefficient, self.t0):.6g}")
        return "\n".join(lines)


def _at(fn: TimeFn, t: float) -> float:
    """fn(t) outside any run, or a GaugeError that names t."""
    try:
        return fn(t)
    except (ArithmeticError, ValueError) as exc:
        raise GaugeError(f"evaluation failed at t={t}: {exc}") from exc


def _scale_rhs(p: TimeFn, q: Optional[TimeFn], clock: bool):
    """The scale equation gamma'' = -q gamma - p gamma' as (gamma, gamma');
    with clock, also P' = p and tau' = exp(-P)/gamma^2, as (gamma, gamma',
    P, tau).  q None means zero.  Generated from the stage body that
    ``integrate`` inlines, as a problem's rhs is."""
    src = Inliner()
    qg = None if q is None else f"-{src.value(q, '_q')} * x0"
    p = src.value(p, "_p")
    ddg = f"-{p} * x1" if qg is None else f"{qg} - {p} * x1"
    # math.exp itself, so an overflow is an OverflowError from exp
    slopes = (p, f"{src.slot(math.exp)}(-x2) / (x0 * x0)") if clock else ()
    return src.rhs(("x1", ddg) + slopes)


def kummer_liouville(
    prob: GeneralizedProblem,
    t0: float,
    t_end: float,
    gamma_init: Tuple[float, float] = (1.0, 0.0),
) -> KummerLiouvilleReduction:
    """Canonical form of x'' = -p x' - q x + r x^n via scale and clock.

    The scale gamma solves gamma'' = -q gamma - p gamma' from gamma_init at
    t0; beta = exp(-P)/gamma with P = int p, and the new clock is
    tau = int beta/gamma, so tau' = exp(-P)/gamma^2.  (gamma, gamma', P, tau)
    are integrated as one system at the checkers' tolerances (rel 1e-12,
    abs 1e-14) and read from its dense output.

    If gamma crosses zero inside the window the result is truncated just
    before the crossing and flagged.  The crossing is found on the mesh of
    the linear (gamma, gamma') run and bisected on that step's interpolant:
    tau' blows up as gamma -> 0, so the full system cannot reach it.
    """
    t0, t_end = float(t0), float(t_end)
    if t_end <= t0:
        raise ValueError("time window must run forward")
    p = prob.p
    q = prob.q  # None means zero

    g0, dg0 = float(gamma_init[0]), float(gamma_init[1])
    if g0 <= 0.0:
        raise GaugeError(f"initial scale {g0} must be positive")

    linear = integrate(_scale_rhs(p, q, clock=False), t0, (g0, dg0), t_end, _CHECK_CONFIG)
    truncated = False
    end = t_end
    crossing = next((i for i, (gamma, _) in enumerate(linear.ys) if gamma <= 0.0), None)
    if crossing is not None:
        lo, hi = linear.ts[crossing - 1], linear.ts[crossing]  # crossing >= 1, since gamma(t0) > 0
        for _ in range(80):  # bisect the crossing within that step
            mid = 0.5 * (lo + hi)
            if linear(mid)[0] > 0.0:
                lo = mid
            else:
                hi = mid
        end = lo * (1.0 - 1e-9) if lo > 0 else lo - 1e-12 * (t_end - t0)
        if end <= t0:
            raise GaugeError(f"scale function reaches zero at t={lo!r}, too close to "
                             f"the window start {t0:g} to leave a window")
        truncated = True

    clock = integrate(_scale_rhs(p, q, clock=True), t0, (g0, dg0, 0.0, 0.0), end, _CHECK_CONFIG)
    # the last (t, state) read, one tuple: the tau-run reads gamma, beta and coefficient at one t
    last = [(None, None)]

    def traj(t):
        seen = last[0]
        if t != seen[0] or t == 0.0:  # equal nonzero numbers are one float; 0.0, -0.0 are not
            seen = last[0] = (t, clock(t))
        return seen[1]

    def beta(t):
        g, _, int_p, _ = traj(t)
        return math.exp(-int_p) / g

    r, n = prob.r, prob.n

    def coefficient(t):
        g, _, int_p, _ = traj(t)
        return r(t) * real_power(g, n + 3.0) * math.exp(2.0 * int_p)

    return KummerLiouvilleReduction(
        gamma=lambda t: traj(t)[0],
        dgamma=lambda t: traj(t)[1],
        beta=beta,
        tau=lambda t: traj(t)[3],
        coefficient=coefficient,
        t0=t0,
        t_end=end,
        truncated=truncated,
        n=prob.n,
    )


def _sup_rel_gap(pairs, ts):
    """Largest relative gap between paired (got, want) samples at ts, and
    where; relative to the pair's larger size, at least min(1, largest |want|)."""
    pairs = list(pairs)
    floor = min(1.0, max(abs(want) for _, want in pairs))
    worst, where = 0.0, ts[0]
    for t, (got, want) in zip(ts, pairs):
        scale = max(floor, abs(got), abs(want))
        gap = abs(got - want) / scale if scale else 0.0
        if gap > worst:
            worst, where = gap, t
    return worst, where


def _tau_rhs(kl: KummerLiouvilleReduction):
    """The tau-run's (t, x', dx'/dtau)', generated from its stage body."""
    src = Inliner()
    # the t state overshoots by round-off; t is set back to tau at the end,
    # so a value of another type is refused, and named, at tau
    src.lines += ["_tau = t", f"t = min(max(x0, {src.slot(kl.t0)}), {src.slot(kl.t_end)})"]
    src.lines.append(f"_rate = {src.value(kl.gamma, '_g')} / {src.value(kl.beta, '_b')}")
    force = f"{src.value(kl.coefficient, '_c')} * {_power(src.namespace, 'x1', src.slot(kl.n))}"
    src.lines += [f"_force = {force}", "t = _tau"]
    return src.rhs(("_rate", "x2", "_force"))


def canonical_residual(
    kl: KummerLiouvilleReduction,
    prob: GeneralizedProblem,
    z0: Tuple[float, float],
    grid_points: int = 81,
) -> float:
    """Sup relative gap between the canonical equation, solved in its own
    clock, and a trajectory of the original problem mapped into its frame.

    The tau-run integrates d2x'/dtau2 = F x'^n over tau with t as a state,
    dt/dtau = gamma/beta (a Sundman-type change of independent variable),
    reading F and gamma/beta from ``kl``.  It starts from x0/gamma0 and
    v0 gamma0 - x0 gamma'0, since beta(t0) = 1/gamma(t0).  x'(tau(t)) is
    compared with x(t)/gamma(t) at grid_points times uniform in t, relative
    to at least min(1, largest |x/gamma|), so at any scale of gamma; times
    uniform in tau crowd into the end of a truncated window, where x/gamma
    is ill-conditioned.  Both runs use the checkers' tolerances (rel 1e-12,
    abs 1e-14).
    """
    if grid_points < 5:
        raise ValueError(f"canonical_residual needs grid_points >= 5, got {grid_points}")
    t0, t_end = kl.t0, kl.t_end
    orig = integrate(prob.rhs, t0, z0, t_end, _CHECK_CONFIG)

    x0, v0 = z0
    g0 = kl.gamma(t0)
    tau_end = kl.tau(t_end)
    canon = integrate(_tau_rhs(kl), 0.0, (t0, x0 / g0, v0 * g0 - x0 * kl.dgamma(t0)), tau_end,
                      _CHECK_CONFIG)
    ts = _sample_points((t0, t_end), grid_points)
    worst, _ = _sup_rel_gap(((canon(min(kl.tau(t), tau_end))[1], z[0] / kl.gamma(t))
                             for t, z in zip(ts, orig.states(ts))), ts)
    return worst
