"""Time-dependent linear changes of frame for second-order problems.

A transform here is the pair of maps

    x = gamma(t) * x'            v = beta(t) * v' + alpha(t) * x'

applied to the first-order form (x, v) of  x'' = a(t) x' + b(t) x^n  or of
the damped variant  x'' = -p(t) x' - q(t) x + r(t) x^n.  The image of the
Emden form under such a transform is again linear in v' and x' plus a
multiple of x'^n; it is written once, as the stage body that ``integrate``
inlines.  Particular choices of (alpha, beta, gamma) collapse the time
dependence partially or entirely:

* a particular solution with decaying slope picks the frame whose image is
  a single time-dependent rate multiplying a frozen field; the reduction
  checks, at every sample, that the image's coefficients collapse to that
  rate (``reduce_via_particular_solution``),
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
# KummerLiouvilleReduction stays a dataclass, since perfbench/test_perfbench.py
# copies it with dataclasses.replace; the other classes are plain, because a
# dataclass generates its methods with exec at every import
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import VerificationFailure
from .exprlang import EvalDomainError, real_power
from .numerics import IntegratorConfig, _compiled_rhs, integrate, linspace
from .problems import EmdenProblem, GeneralizedProblem
from .timefn import ZERO_FN, Inliner, TimeFn, as_timefn

__all__ = [
    "GaugeError",
    "ReductionError",
    "EmdenProblem",
    "GeneralizedProblem",
    "GaugeTransform",
    "PushforwardReport",
    "verify_pushforward",
    "Reduction",
    "reduce_via_particular_solution",
    "KummerLiouvilleReduction",
    "kummer_liouville",
    "canonical_residual",
]


class GaugeError(ValueError, VerificationFailure):
    """A transform violates its positivity or shape requirements."""


class ReductionError(ValueError, VerificationFailure):
    """A reduction's preconditions fail on the supplied data."""


def _auto_deriv(fn: TimeFn, slot: str) -> TimeFn:
    """The exact derivative of the time function in slot, from its deriv()."""
    deriv = getattr(fn, "deriv", None)
    if deriv is None:
        raise TypeError(f"{slot} has no deriv(); supply its derivative")
    return deriv()


def _sample_points(interval: Tuple[float, float], count: int) -> List[float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        raise ValueError(f"degenerate interval ({lo}, {hi})")
    return linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# transforms


class GaugeTransform:
    """The frame change x = gamma x', v = beta v' + alpha x'.

    alpha=None means the shear term is exactly absent (not merely zero at
    the sampled points), and so are the pushforward's shear terms and its
    feedback.  Derivatives may be supplied; a missing one is the function's
    own exact ``deriv()`` (compiled expressions, constants and PowerFn have
    one), and a function without one needs its derivative supplied.

    beta and gamma must stay positive on any interval the transform is
    used on; ``validate_on`` enforces that by sampling.
    """

    __slots__ = ("alpha", "beta", "gamma", "dalpha", "dbeta", "dgamma")

    def __init__(self, alpha: Optional[TimeFn], beta: TimeFn, gamma: TimeFn,
                 dalpha: Optional[TimeFn] = None, dbeta: Optional[TimeFn] = None,
                 dgamma: Optional[TimeFn] = None):
        alpha = None if alpha is None else as_timefn(alpha)
        self.alpha = None if alpha is ZERO_FN else alpha
        self.beta, self.gamma = as_timefn(beta), as_timefn(gamma)
        if self.alpha is not None and dalpha is None:
            dalpha = _auto_deriv(self.alpha, "alpha")
        self.dalpha = dalpha
        self.dbeta = _auto_deriv(self.beta, "beta") if dbeta is None else dbeta
        self.dgamma = _auto_deriv(self.gamma, "gamma") if dgamma is None else dgamma

    def _scales(self, t: float) -> Tuple[float, float, float]:
        b, g = self.beta(t), self.gamma(t)
        if not b > 0.0:  # NaN too
            raise GaugeError(f"beta({t}) = {b}; must be positive")
        if not g > 0.0:
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


def _pushed_rhs(prob: EmdenProblem, g: GaugeTransform):
    """The image of x'' = a x' + b x^n under the frame change g, as the rhs
    of (x', v') generated from its stage body.  x = gamma x', v = beta v' +
    alpha x' turn dx/dt = v, dv/dt = a v + b x^n into

        dx'/dt = (beta / gamma) v' + drift_x x'
        dv'/dt = drift_v v' + (b gamma^n / beta) x'^n + feedback x'

    with drift_x = alpha / gamma - dgamma / gamma, drift_v = a - dbeta / beta
    - alpha / gamma and feedback = (a alpha - dalpha - alpha drift_x) / beta.
    Without alpha its terms and the feedback are absent, not zero.  A stage
    reads beta, gamma, alpha, dgamma, a, dbeta, b, dalpha once each, in order.
    """
    src = Inliner()
    be, ga = src.value(g.beta, "_be"), src.value(g.gamma, "_ga")
    src.lines.append(f"_gain = {be} / {ga}")
    al = None if g.alpha is None else src.value(g.alpha, "_al")
    dga = src.value(g.dgamma, "_dga")
    a, dbe = src.value(prob.a, "_a"), src.value(g.dbeta, "_dbe")
    if al is None:
        src.lines += [f"_drx = -{dga} / {ga}", f"_drv = {a} - {dbe} / {be}"]
    else:
        src.lines += [f"_drx = {al} / {ga} - {dga} / {ga}",
                      f"_drv = {a} - {dbe} / {be} - {al} / {ga}"]
    b = src.value(prob.b, "_b")
    src.lines.append(f"_nl = {b} * {src.power(ga, prob.n, '_gn')} / {be}")
    dv = f"_drv * x1 + _nl * {src.power('x0', prob.n, '_w')}"
    if al is not None:
        dv += f" + ({a} * {al} - {src.value(g.dalpha, '_dal')} - {al} * _drx) / {be} * x0"
    return _compiled_rhs(src.body(("_gain * x1 + _drx * x0", dv)))


class PushforwardReport:
    __slots__ = ("passed", "discrepancy", "tolerance", "samples", "interval")

    def __init__(self, passed: bool, discrepancy: float, tolerance: float, samples: int,
                 interval: Tuple[float, float]):
        self.passed, self.discrepancy, self.tolerance = passed, discrepancy, tolerance
        self.samples, self.interval = samples, interval

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
    image = integrate(_pushed_rhs(prob, g), t0, g.inverse(t0, *z0), t1, cfg)

    ts = _sample_points(interval, samples)
    gap = 0.0
    scale = 1.0
    for t, z, direct in zip(ts, orig.states(ts), image.states(ts)):
        mapped = g.inverse(t, *z)
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


class Reduction:
    """The single-rate system that the frame ``gauge`` maps the problem onto:
    rate(t) times the frozen field with (c11, c12, c21, c22, cx) = (1, 1, -1, -1, 0)."""

    __slots__ = ("rate", "n", "gauge", "interval", "rate_consistency")

    def __init__(self, rate: TimeFn, n: float, gauge: GaugeTransform,
                 interval: Tuple[float, float], rate_consistency: float):
        self.rate, self.n, self.gauge, self.interval = rate, n, gauge, interval
        self.rate_consistency = rate_consistency  # sup relative gap between the two rate routes

    def render(self) -> str:
        return ("reduction to a single-rate system\n"
                "  coefficients  c11=1 c12=1 c21=-1 c22=-1 cx=0\n"
                f"  exponent      {self.n:g}\n"
                f"  rate agreement (two derivations): {self.rate_consistency:.3e}")


def _sup_rel_gap(pairs, ts):
    """Largest relative gap between paired samples at ts, and where it occurs."""
    worst, where = 0.0, ts[0]
    for t, (got, want) in zip(ts, pairs):
        gap = abs(got - want) / max(1.0, abs(got), abs(want))
        if gap > worst:
            worst, where = gap, t
    return worst, where


# The reduction's samples.  The first pass reads dxp, then xp, at every t,
# the second ddxp, a and b; a row is appended once all its values are made,
# so the rows held when a value fails say at which t it failed.
_SAMPLE = """\
def _sample(ts, first, rows):
    for t in ts:
        {first}
        first.append(({d}, {x}, {d} ** 2, _pow({x}, {np1})))
    for t, (d, x, d2, w) in zip(ts, first):
        {second}
        rows.append((x, d, d2, w, {dd}, {a}, {b} * _pow(x, {n})))
"""


def _sampler(xp, dxp, ddxp, a, b, n):
    """_sample(ts, first, rows) with the functions written in by an Inliner
    that calls compiled expressions: rows gets (xp, dxp, dxp^2, xp^(n+1),
    ddxp, a, b xp^n) at each t."""
    src = Inliner(expand=False)
    d, x = src.value(dxp, "_d"), src.value(xp, "_x")
    first, src.lines = src.lines, []
    dd, av, bv = src.value(ddxp, "_dd"), src.value(a, "_a"), src.value(b, "_b")
    indent = "\n        "
    return src.define(_SAMPLE.format(
        first=indent.join(first) or "pass", second=indent.join(src.lines) or "pass",
        d=d, x=x, dd=dd, a=av, b=bv, np1=src.slot(n + 1.0), n=src.slot(n)), "_sample")


def _checked_rate_gap(ts, rows, tol: float) -> float:
    """The sup relative gap between the two rate routes once every check on
    the rows passes, else a ReductionError for the first failure in this
    order: a value that is not finite, slope compatibility and the residual
    (both reported), the frame's sign, the frame's rate, the two routes."""
    cond_gap = res_gap = frame_gap = worst = 0.0
    cond_t = res_t = frame_t = ts[0]
    blowup = sign = None
    for t, (x, d, d2, w, dd, av, bx) in zip(ts, rows):
        r = av * d + bx
        # each gap is |got - want| / max(1.0, |got|, |want|), with max spelled
        # as the comparisons it makes: calling it costs more than the gap
        got, want = abs(d2), abs(w)
        scale = got if got > 1.0 else 1.0
        cond = abs(d2 - w) / (want if want > scale else scale)
        got, want = abs(dd), abs(r)
        scale = got if got > 1.0 else 1.0
        res = abs(dd - r) / (want if want > scale else scale)
        if cond > cond_gap:
            cond_gap, cond_t = cond, t
        if res > res_gap:
            res_gap, res_t = res, t
        finite = cond == cond and res == res  # a gap is NaN only where a value is not finite
        if sign is None:
            if x <= 0.0:
                sign = f"particular solution is not positive at t={t:.6g}"
            elif d >= 0.0:
                sign = (f"slope of the particular solution is {d:.6g} at t={t:.6g}; "
                        "a negative slope is required so the frame scale stays positive")
            else:
                # the rate f = b xp^n / dxp against the independent route
                # -a + ddxp/dxp (a cross-check only), and against -dxp/xp:
                # the frame x = xp x' moves x' at that rate, so f must equal
                # it (under slope compatibility, b = -1)
                f1, f2 = bx / d, -av + dd / d
                scale = abs(f1)
                scale = scale if scale > 1.0 else 1.0
                gap, frame = abs(f1 - f2) / scale, abs(f1 + d / x) / scale
                if gap > worst:
                    worst = gap
                if frame > frame_gap:
                    frame_gap, frame_t = frame, t
                finite = finite and gap == gap and frame == frame
        if blowup is None and not finite:
            blowup = (f"a check is not finite at t={t:.6g}: xp={x!r}, dxp={d!r}, "
                      f"ddxp={dd!r}, a={av!r}, b xp^n={bx!r}")
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
    if blowup is not None:
        raise ReductionError(blowup)
    if failures:
        raise ReductionError("; ".join(failures))
    if sign is not None:
        raise ReductionError(sign)
    if frame_gap > tol:
        raise ReductionError(
            f"the rate b xp^n/dxp differs from the frame's rate -dxp/xp near "
            f"t={frame_t:.6g} (relative gap {frame_gap:.3e}); the collapse needs b = -1"
        )
    if worst > tol:
        raise ReductionError(
            f"the two rate derivations disagree (sup relative gap {worst:.3e})"
        )
    return worst


def reduce_via_particular_solution(
    prob: EmdenProblem,
    xp: TimeFn,
    interval: Tuple[float, float],
    dxp: Optional[TimeFn] = None,
    ddxp: Optional[TimeFn] = None,
    samples: int = 200,
    tol: float = 1e-12,
) -> Reduction:
    """Collapse the problem onto a frozen field using a known solution.

    Requires, on the whole interval: xp actually solves the problem, its
    slope squared matches xp^(n+1) (the compatibility condition tying the
    nonlinear and kinetic slots together), and the slope is negative so
    that beta = -dxp stays positive.  The resulting system always carries
    coefficients (c11, c12, c21, c22, cx) = (1, 1, -1, -1, 0); the rate is

        f = b gamma^n / dgamma        with gamma = xp,

    which must agree with the independent route f = -a + ddgamma/dgamma and,
    at every sample, equal the frame's own rate -dgamma/gamma (b = -1 under
    compatibility); a mismatch beyond tol is a ReductionError naming t.
    Missing derivatives are the exact ``deriv()`` of xp and dxp.
    """
    xp = as_timefn(xp)
    dxp = _auto_deriv(xp, "xp") if dxp is None else as_timefn(dxp)
    ddxp = _auto_deriv(dxp, "dxp") if ddxp is None else as_timefn(ddxp)

    ts = _sample_points(interval, samples)
    a, b, n = prob.a, prob.b, prob.n
    first, rows = [], []
    try:
        _sampler(xp, dxp, ddxp, a, b, n)(ts, first, rows)
    except (EvalDomainError, ArithmeticError) as exc:
        t = ts[len(rows) if len(first) == len(ts) else len(first)]
        raise ReductionError(f"evaluation failed at t={t:.6g}: {exc}") from exc
    worst = _checked_rate_gap(ts, rows, tol)

    def rate(t, _b=b, _xp=xp, _dxp=dxp, _n=n):
        return _b(t) * real_power(_xp(t), _n) / _dxp(t)

    gauge = GaugeTransform(alpha=None, beta=lambda t: -dxp(t), gamma=xp,
                           dbeta=lambda t: -ddxp(t), dgamma=dxp)
    return Reduction(
        rate=rate,
        n=n,
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
    return _compiled_rhs(src.body(("x1", ddg) + slopes))


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

    linear = integrate(_scale_rhs(p, q, clock=False), t0, (g0, dg0), t_end, cfg)
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

    clock = integrate(_scale_rhs(p, q, clock=True), t0, (g0, dg0, 0.0, 0.0), end, cfg)
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


def _tau_rhs(kl: KummerLiouvilleReduction):
    """The tau-run's (t, x', dx'/dtau)', generated from its stage body."""
    src = Inliner()
    # the t state overshoots by round-off; t is set back to tau at the end,
    # so a value of another type is refused, and named, at tau
    src.lines += ["_tau = t", f"t = min(max(x0, {src.slot(kl.t0)}), {src.slot(kl.t_end)})"]
    src.lines.append(f"_rate = {src.value(kl.gamma, '_g')} / {src.value(kl.beta, '_b')}")
    force = f"{src.value(kl.coefficient, '_c')} * _pow(x1, {src.slot(kl.n)})"
    src.lines += [f"_force = {force}", "t = _tau"]
    return _compiled_rhs(src.body(("_rate", "x2", "_force")))


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

    x0, v0 = z0
    g0 = kl.gamma(t0)
    tau_end = kl.tau(t_end)
    canon = integrate(_tau_rhs(kl), 0.0, (t0, x0 / g0, v0 * g0 - x0 * kl.dgamma(t0)), tau_end, cfg)
    ts = _sample_points((t0, t_end), grid_points)
    worst, _ = _sup_rel_gap(((canon(min(kl.tau(t), tau_end))[1], z[0] / kl.gamma(t))
                             for t, z in zip(ts, orig.states(ts))), ts)
    return worst
