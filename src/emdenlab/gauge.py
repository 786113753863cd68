"""Time-dependent linear changes of frame for second-order problems.

A transform here is the pair of maps

    x = gamma(t) * x'            v = beta(t) * v' + alpha(t) * x'

applied to the first-order form (x, v) of  x'' = a(t) x' + b(t) x^n  or of
the damped variant  x'' = -p(t) x' - q(t) x + r(t) x^n.  Pushing a system
through such a transform yields another system of the same five-slot shape
(coefficients on x', x'^n, v' in each equation), and particular choices of
(alpha, beta, gamma) collapse the time dependence partially or entirely:

* a particular solution with decaying slope reduces the problem to a single
  time-dependent rate multiplying a frozen field (``reduce_via_particular_solution``),
* the classical Kummer-Liouville substitution plus a clock change brings the
  damped linear part to canonical form  d2x'/dtau2 = F(tau) x'^n
  (``kummer_liouville``); the scale, the damping integral and the clock are
  components of one ODE run, read from its dense output.

Everything is checked numerically: ``verify_pushforward`` integrates both
sides of the correspondence and reports the gap, and ``canonical_residual``
integrates the canonical form in its own clock against a mapped trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .exprlang import real_power
from .numerics import IntegratorConfig, integrate, linspace
from .timefn import ZERO_FN, PowerFn, TimeFn, as_timefn, constant, nderiv

__all__ = [
    "GaugeError",
    "ReductionError",
    "EmdenProblem",
    "GeneralizedProblem",
    "GaugeTransform",
    "PushedSystem",
    "push_coefficients",
    "push_system",
    "PushforwardReport",
    "verify_pushforward",
    "ReducedLieSystem",
    "Reduction",
    "reduce_via_particular_solution",
    "KummerLiouvilleReduction",
    "kummer_liouville",
    "canonical_residual",
]


class GaugeError(ValueError):
    """A transform violates its positivity or shape requirements."""


class ReductionError(ValueError):
    """A reduction's preconditions fail on the supplied data."""


def _auto_deriv(fn: TimeFn, scale: float = 1.0) -> TimeFn:
    """Best available derivative of a time function.

    Exact for PowerFn; central finite differences otherwise.
    """
    if isinstance(fn, PowerFn):
        return fn.deriv()
    if fn is ZERO_FN:
        return ZERO_FN
    return nderiv(fn, scale=scale)


def _sample_points(interval: Tuple[float, float], count: int) -> List[float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        raise ValueError(f"degenerate interval ({lo}, {hi})")
    return linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class EmdenProblem:
    """x'' = a(t) x' + b(t) x^n, first-order in z = (x, v)."""

    a: TimeFn
    b: TimeFn
    n: float
    singular_points: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", as_timefn(self.a))
        object.__setattr__(self, "b", as_timefn(self.b))
        object.__setattr__(self, "n", float(self.n))
        object.__setattr__(
            self, "singular_points", tuple(float(s) for s in self.singular_points)
        )
        if abs(self.n - 1.0) < 1e-12:
            raise ValueError("exponent n = 1 is the linear case; not handled here")

    def rhs(self, t: float, z):
        x, v = z
        return (v, self.a(t) * v + self.b(t) * real_power(x, self.n))

    def as_generalized(self) -> "GeneralizedProblem":
        neg_a = self.a.scaled(-1) if isinstance(self.a, PowerFn) else (
            lambda t, _a=self.a: -_a(t)
        )
        return GeneralizedProblem(
            p=neg_a, q=None, r=self.b, n=self.n, singular_points=self.singular_points
        )


@dataclass(frozen=True)
class GeneralizedProblem:
    """x'' = -p(t) x' - q(t) x + r(t) x^n.  q=None means exactly zero."""

    p: TimeFn
    q: Optional[TimeFn]
    r: TimeFn
    n: float
    singular_points: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p", as_timefn(self.p))
        if self.q is not None:
            q = as_timefn(self.q)
            object.__setattr__(self, "q", None if q is ZERO_FN else q)
        object.__setattr__(self, "r", as_timefn(self.r))
        object.__setattr__(self, "n", float(self.n))
        object.__setattr__(
            self, "singular_points", tuple(float(s) for s in self.singular_points)
        )
        if abs(self.n - 1.0) < 1e-12:
            raise ValueError("exponent n = 1 is the linear case; not handled here")

    def rhs(self, t: float, z):
        x, v = z
        acc = -self.p(t) * v + self.r(t) * real_power(x, self.n)
        if self.q is not None:
            acc -= self.q(t) * x
        return (v, acc)

    def as_emden(self) -> EmdenProblem:
        if self.q is not None:
            raise ValueError("has a linear restoring term; not of the two-slot form")
        neg_p = self.p.scaled(-1) if isinstance(self.p, PowerFn) else (
            lambda t, _p=self.p: -_p(t)
        )
        return EmdenProblem(
            a=neg_p, b=self.r, n=self.n, singular_points=self.singular_points
        )


# ---------------------------------------------------------------------------
# transforms


@dataclass(frozen=True)
class GaugeTransform:
    """The frame change x = gamma x', v = beta v' + alpha x'.

    alpha=None means the shear term is exactly absent (not merely zero at
    the sampled points); several pushforward formulas simplify exactly in
    that case.  Derivatives may be supplied; missing ones fall back to
    finite differences, except PowerFn inputs, which differentiate exactly.

    beta and gamma must stay positive on any interval the transform is
    used on; ``validate_on`` enforces that by sampling.
    """

    alpha: Optional[TimeFn]
    beta: TimeFn
    gamma: TimeFn
    dalpha: Optional[TimeFn] = None
    dbeta: Optional[TimeFn] = None
    dgamma: Optional[TimeFn] = None

    def __post_init__(self):
        if self.alpha is not None:
            alpha = as_timefn(self.alpha)
            object.__setattr__(self, "alpha", None if alpha is ZERO_FN else alpha)
        object.__setattr__(self, "beta", as_timefn(self.beta))
        object.__setattr__(self, "gamma", as_timefn(self.gamma))
        if self.alpha is not None and self.dalpha is None:
            object.__setattr__(self, "dalpha", _auto_deriv(self.alpha))
        if self.dbeta is None:
            object.__setattr__(self, "dbeta", _auto_deriv(self.beta))
        if self.dgamma is None:
            object.__setattr__(self, "dgamma", _auto_deriv(self.gamma))

    def _scales(self, t: float) -> Tuple[float, float, float]:
        b, g = self.beta(t), self.gamma(t)
        if b <= 0.0:
            raise GaugeError(f"beta({t}) = {b}; must be positive")
        if g <= 0.0:
            raise GaugeError(f"gamma({t}) = {g}; must be positive")
        a = 0.0 if self.alpha is None else self.alpha(t)
        return a, b, g

    def forward(self, t: float, xp: float, vp: float) -> Tuple[float, float]:
        """Map primed coordinates to the original ones."""
        a, b, g = self._scales(t)
        return (g * xp, b * vp + a * xp)

    def inverse(self, t: float, x: float, v: float) -> Tuple[float, float]:
        """Map original coordinates to the primed ones."""
        a, b, g = self._scales(t)
        xp = x / g
        return (xp, (v - a * xp) / b)

    def validate_on(self, interval: Tuple[float, float], samples: int = 64) -> None:
        for t in _sample_points(interval, samples):
            self._scales(t)


# ---------------------------------------------------------------------------
# pushforward


@dataclass(frozen=True)
class PushedSystem:
    """The image system  dx'/dt = gain v' + drift_x x',
    dv'/dt = feedback x' + nonlin x'^n + drift_v v'.
    """

    drift_x: TimeFn
    gain: TimeFn
    drift_v: TimeFn
    feedback: TimeFn
    nonlin: TimeFn
    n: float

    def rhs(self, t: float, z):
        x, v = z
        dx = self.gain(t) * v + self.drift_x(t) * x
        dv = self.drift_v(t) * v + self.nonlin(t) * real_power(x, self.n)
        if self.feedback is not ZERO_FN:
            dv += self.feedback(t) * x
        return (dx, dv)


def push_coefficients(
    coeffs: Sequence[TimeFn], n: float, g: GaugeTransform
) -> Tuple[TimeFn, TimeFn, TimeFn, TimeFn, TimeFn]:
    """Push a five-coefficient system through a transform.

    ``coeffs`` is in table order (drift_x, gain, drift_v, feedback, nonlin).
    Writing the source system as dx/dt = c_g v + c_x x and
    dv/dt = c_f x + c_m x^n + c_v v, substitution gives

        gain'    = c_g beta / gamma
        drift_x' = c_g alpha / gamma + c_x - dgamma / gamma
        nonlin'  = c_m gamma^n / beta
        drift_v' = c_v - dbeta / beta - c_g alpha / gamma
        feedback'= (c_f gamma + c_v alpha - dalpha - alpha drift_x') / beta

    Exactly-zero feedback stays exactly zero when alpha is absent.
    """
    c_x, c_g, c_v, c_f, c_m = (as_timefn(c) for c in coeffs)
    al, be, ga = g.alpha, g.beta, g.gamma
    dal, dbe, dga = g.dalpha, g.dbeta, g.dgamma
    nf = float(n)

    gain = lambda t: c_g(t) * be(t) / ga(t)
    nonlin = lambda t: c_m(t) * real_power(ga(t), nf) / be(t)

    if al is None:
        drift_x = (
            (lambda t: -dga(t) / ga(t))
            if c_x is ZERO_FN
            else (lambda t: c_x(t) - dga(t) / ga(t))
        )
        drift_v = lambda t: c_v(t) - dbe(t) / be(t)
        feedback = (
            ZERO_FN if c_f is ZERO_FN else (lambda t: c_f(t) * ga(t) / be(t))
        )
    else:
        drift_x = lambda t: c_g(t) * al(t) / ga(t) + c_x(t) - dga(t) / ga(t)
        drift_v = lambda t: c_v(t) - dbe(t) / be(t) - c_g(t) * al(t) / ga(t)

        def feedback(t):
            a = al(t)
            shear = c_g(t) * a / ga(t) + c_x(t) - dga(t) / ga(t)
            return (c_f(t) * ga(t) + c_v(t) * a - dal(t) - a * shear) / be(t)

    return (drift_x, gain, drift_v, feedback, nonlin)


def push_system(prob: EmdenProblem, g: GaugeTransform) -> PushedSystem:
    """Image of x'' = a x' + b x^n under the frame change g."""
    table = push_coefficients((ZERO_FN, constant(1.0), prob.a, ZERO_FN, prob.b), prob.n, g)
    return PushedSystem(*table, n=prob.n)


@dataclass(frozen=True)
class PushforwardReport:
    passed: bool
    discrepancy: float
    tolerance: float
    samples: int
    interval: Tuple[float, float]

    def render(self) -> str:
        lines = [
            "pushforward consistency",
            f"  interval    [{self.interval[0]:g}, {self.interval[1]:g}]",
            f"  samples     {self.samples}",
            f"  sup gap     {self.discrepancy:.3e}",
            f"  tolerance   {self.tolerance:.3e}",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def verify_pushforward(
    prob: EmdenProblem,
    g: GaugeTransform,
    z0: Tuple[float, float],
    interval: Tuple[float, float],
    config: Optional[IntegratorConfig] = None,
    samples: int = 101,
) -> PushforwardReport:
    """Cross-check the pushforward on actual trajectories.

    Integrates the original problem from z0, maps every sample into the
    primed frame, and compares against an independent integration of the
    pushed system started from the mapped initial point.  The two must
    agree to within integrator accuracy; the pass bar is
    100 * rel_tol * scale.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(interval[0]), float(interval[1])
    g.validate_on(interval)

    orig = integrate(prob.rhs, t0, z0, t1, cfg)
    z0p = g.inverse(t0, *z0)
    pushed = push_system(prob, g)
    image = integrate(pushed.rhs, t0, z0p, t1, cfg)

    ts = _sample_points(interval, samples)
    gap = 0.0
    scale = 1.0
    for t in ts:
        mapped = g.inverse(t, *orig(t))
        direct = image(t)
        gap = max(gap, abs(mapped[0] - direct[0]), abs(mapped[1] - direct[1]))
        scale = max(scale, abs(mapped[0]), abs(mapped[1]))

    tol = 100.0 * cfg.rel_tol * scale
    return PushforwardReport(
        passed=gap < tol,
        discrepancy=gap,
        tolerance=tol,
        samples=samples,
        interval=(t0, t1),
    )


# ---------------------------------------------------------------------------
# reduction through a particular solution


@dataclass(frozen=True)
class ReducedLieSystem:
    """dx'/dt = f (c11 x' + c12 v'),  dv'/dt = f (c21 v' + cx x' + c22 x'^n).

    A single scalar rate f(t) multiplying a frozen polynomial field; the
    time dependence is confined to the clock.
    """

    f: TimeFn
    c11: float
    c12: float
    c21: float
    c22: float
    cx: float
    n: float

    def rhs(self, t: float, z):
        x, v = z
        ft = self.f(t)
        return (
            ft * (self.c11 * x + self.c12 * v),
            ft * (self.c21 * v + self.cx * x + self.c22 * real_power(x, self.n)),
        )


@dataclass(frozen=True)
class Reduction:
    system: ReducedLieSystem
    gauge: GaugeTransform
    interval: Tuple[float, float]
    rate_consistency: float  # sup relative gap between the two rate routes

    def render(self) -> str:
        s = self.system
        return "\n".join(
            [
                "reduction to a single-rate system",
                f"  coefficients  c11={s.c11:g} c12={s.c12:g} c21={s.c21:g} "
                f"c22={s.c22:g} cx={s.cx:g}",
                f"  exponent      {s.n:g}",
                f"  rate agreement (two derivations): {self.rate_consistency:.3e}",
            ]
        )


def _sup_rel_gap(pair_fn, ts):
    """Largest relative gap between a pair of samples, and where it occurs."""
    worst, where = 0.0, ts[0]
    for t in ts:
        got, want = pair_fn(t)
        gap = abs(got - want) / max(1.0, abs(got), abs(want))
        if gap > worst:
            worst, where = gap, t
    return worst, where


def reduce_via_particular_solution(
    prob: EmdenProblem,
    xp: TimeFn,
    interval: Tuple[float, float],
    dxp: Optional[TimeFn] = None,
    ddxp: Optional[TimeFn] = None,
    samples: int = 200,
    tol: float = 1e-8,
) -> Reduction:
    """Collapse the problem onto a frozen field using a known solution.

    Requires, on the whole interval: xp actually solves the problem, its
    slope squared matches xp^(n+1) (the compatibility condition tying the
    nonlinear and kinetic slots together), and the slope is negative so
    that beta = -dxp stays positive.  The resulting system always carries
    coefficients (c11, c12, c21, c22, cx) = (1, 1, -1, -1, 0); the rate is

        f = b gamma^n / dgamma        with gamma = xp,

    which must agree with the independent route f = -a + ddgamma/dgamma.
    """
    xp = as_timefn(xp)
    if dxp is None:
        dxp = _auto_deriv(xp)
    else:
        dxp = as_timefn(dxp)
    if ddxp is None:
        ddxp = _auto_deriv(dxp)
    else:
        ddxp = as_timefn(ddxp)

    ts = _sample_points(interval, samples)
    a, b, n = prob.a, prob.b, prob.n

    cond_gap, cond_t = _sup_rel_gap(
        lambda t: (dxp(t) ** 2, real_power(xp(t), n + 1.0)), ts
    )
    res_gap, res_t = _sup_rel_gap(
        lambda t: (ddxp(t), a(t) * dxp(t) + b(t) * real_power(xp(t), n)), ts
    )
    failures = []
    if cond_gap > tol:
        failures.append(
            "slope compatibility (dxp^2 = xp^(n+1)) fails "
            f"near t={cond_t:.6g} with relative gap {cond_gap:.3e}"
        )
    if res_gap > tol:
        failures.append(
            "the claimed solution does not satisfy the problem "
            f"near t={res_t:.6g} (residual gap {res_gap:.3e})"
        )
    if failures:
        raise ReductionError("; ".join(failures))

    for t in ts:
        if xp(t) <= 0.0:
            raise ReductionError(f"particular solution is not positive at t={t:.6g}")
        if dxp(t) >= 0.0:
            raise ReductionError(
                f"slope of the particular solution is {dxp(t):.6g} at t={t:.6g}; "
                "a negative slope is required so the frame scale stays positive"
            )

    def rate(t, _b=b, _xp=xp, _dxp=dxp, _n=n):
        return _b(t) * real_power(_xp(t), _n) / _dxp(t)

    # independent derivation of the same rate, used as a cross-check only
    def rate_alt(t, _a=a, _dxp=dxp, _ddxp=ddxp):
        return -_a(t) + _ddxp(t) / _dxp(t)

    worst = 0.0
    for t in ts:
        f1, f2 = rate(t), rate_alt(t)
        worst = max(worst, abs(f1 - f2) / max(1.0, abs(f1)))
    if worst > tol:
        raise ReductionError(
            f"the two rate derivations disagree (sup relative gap {worst:.3e})"
        )

    neg_dxp = dxp.scaled(-1) if isinstance(dxp, PowerFn) else (
        lambda t, _d=dxp: -_d(t)
    )
    neg_ddxp = ddxp.scaled(-1) if isinstance(ddxp, PowerFn) else (
        lambda t, _d=ddxp: -_d(t)
    )
    gauge = GaugeTransform(
        alpha=None, beta=neg_dxp, gamma=xp, dbeta=neg_ddxp, dgamma=dxp
    )
    system = ReducedLieSystem(f=rate, c11=1.0, c12=1.0, c21=-1.0, c22=-1.0, cx=0.0, n=n)
    return Reduction(
        system=system,
        gauge=gauge,
        interval=(float(interval[0]), float(interval[1])),
        rate_consistency=worst,
    )


# ---------------------------------------------------------------------------
# Kummer-Liouville canonical form


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
            lines.append(f"  clock range  [0, {self.tau(self.t_end):.6g}]")
        lines.append(f"  coefficient at start {self.coefficient(self.t0):.6g}")
        return "\n".join(lines)


def kummer_liouville(
    prob: GeneralizedProblem,
    t0: float,
    t_end: float,
    gamma_init: Tuple[float, float] = (1.0, 0.0),
    config: Optional[IntegratorConfig] = None,
) -> KummerLiouvilleReduction:
    """Canonical form of x'' = -p x' - q x + r x^n via scale and clock.

    The scale gamma solves gamma'' = -q gamma - p gamma' from gamma_init at
    t0; beta = exp(-P)/gamma with P = int p, and the new clock is
    tau = int beta/gamma, so tau' = exp(-P)/gamma^2.  (gamma, gamma', P, tau)
    are integrated as one system and read from its dense output.

    If gamma crosses zero inside the window the result is truncated just
    before the crossing and flagged.  The crossing is found on the mesh of
    the linear (gamma, gamma') run and bisected on that step's interpolant:
    tau' blows up as gamma -> 0, so the full system cannot reach it.
    """
    t0, t_end = float(t0), float(t_end)
    if t_end <= t0:
        raise ValueError("time window must run forward")
    cfg = config or IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    p = prob.p
    q = prob.q  # None means zero

    g0, dg0 = float(gamma_init[0]), float(gamma_init[1])
    if g0 <= 0.0:
        raise GaugeError(f"initial scale {g0} must be positive")

    if q is None:
        lin_rhs = lambda t, y: (y[1], -p(t) * y[1])
    else:
        lin_rhs = lambda t, y: (y[1], -q(t) * y[0] - p(t) * y[1])

    linear = integrate(lin_rhs, t0, (g0, dg0), t_end, cfg)
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
        truncated = True

    def rhs(t, y):
        dg, ddg = lin_rhs(t, y)
        return (dg, ddg, p(t), math.exp(-y[2]) / (y[0] * y[0]))

    traj = integrate(rhs, t0, (g0, dg0, 0.0, 0.0), end, cfg)

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


def canonical_residual(
    kl: KummerLiouvilleReduction,
    prob: GeneralizedProblem,
    z0: Tuple[float, float],
    grid_points: int = 81,
    config: Optional[IntegratorConfig] = None,
) -> float:
    """Sup relative gap between the canonical equation, solved in its own
    clock, and a trajectory of the original problem mapped into its frame.

    The tau-run integrates d2x'/dtau2 = F x'^n over tau with t as a state,
    dt/dtau = gamma/beta (a Sundman-type change of independent variable),
    reading F and gamma/beta from ``kl``.  It starts from x0/gamma0 and
    v0 gamma0 - x0 gamma'0, since beta(t0) = 1/gamma(t0).  x'(tau(t)) is
    compared with x(t)/gamma(t) at grid_points times uniform in t; times
    uniform in tau crowd into the end of a truncated window, where x/gamma
    is ill-conditioned.
    """
    if grid_points < 5:
        raise ValueError(f"canonical_residual needs grid_points >= 5, got {grid_points}")
    cfg = config or IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    t0, t_end = kl.t0, kl.t_end
    orig = integrate(prob.rhs, t0, z0, t_end, cfg)

    def rhs(tau, y):
        t = min(max(y[0], t0), t_end)  # the t state overshoots by round-off
        return (kl.gamma(t) / kl.beta(t), y[2], kl.coefficient(t) * real_power(y[1], kl.n))

    x0, v0 = z0
    g0 = kl.gamma(t0)
    tau_end = kl.tau(t_end)
    canon = integrate(rhs, 0.0, (t0, x0 / g0, v0 * g0 - x0 * kl.dgamma(t0)), tau_end, cfg)
    worst, _ = _sup_rel_gap(
        lambda t: (canon(min(kl.tau(t), tau_end))[1], orig(t)[0] / kl.gamma(t)),
        _sample_points((t0, t_end), grid_points),
    )
    return worst
