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
  checks, on the rows of ``EmdenProblem.sampler``, that the image's
  coefficients collapse to that rate (``reduce_via_particular_solution``),
* the classical Kummer-Liouville substitution plus a clock change brings the
  damped linear part to canonical form, in ``emdenlab.canonical``.

Everything is checked numerically: ``verify_pushforward`` integrates both
sides of the correspondence and reports the gap.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from . import VerificationFailure
from .exprlang import EvalDomainError, real_power
from .problems import EmdenProblem, GeneralizedProblem
from .timefn import ZERO_FN, Inliner, TimeFn, as_timefn, linspace

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
]


def __getattr__(name):
    # perfbench/ reads the canonical form from here; it lives in emdenlab.canonical
    if name in ("KummerLiouvilleReduction", "kummer_liouville", "canonical_residual"):
        from . import canonical

        return getattr(canonical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    used on; ``validate_on`` enforces that at 64 sample times.
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

    def validate_on(self, interval: Tuple[float, float]) -> None:
        for t in _sample_points(interval, 64):
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
    return src.rhs(("_gain * x1 + _drx * x0", dv))


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
) -> PushforwardReport:
    """Cross-check the pushforward on actual trajectories.

    Integrates the original problem from z0 at ``IntegratorConfig()``, maps
    each of 101 uniform samples into the primed frame, and compares against
    an independent integration of the pushed system started from the mapped
    initial point.  The two must agree to within integrator accuracy; the
    pass bar is 100 * 1e-10 (the default rel_tol) * scale.
    """
    from .numerics import IntegratorConfig, integrate

    cfg = IntegratorConfig()
    samples = 101
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

    __slots__ = ("rate", "n", "gauge", "rate_consistency")

    def __init__(self, rate: TimeFn, n: float, gauge: GaugeTransform, rate_consistency: float):
        self.rate, self.n, self.gauge = rate, n, gauge
        self.rate_consistency = rate_consistency  # sup relative gap between the two rate routes

    def render(self) -> str:
        return ("reduction to a single-rate system\n"
                "  coefficients  c11=1 c12=1 c21=-1 c22=-1 cx=0\n"
                f"  exponent      {self.n:g}\n"
                f"  rate agreement (two derivations): {self.rate_consistency:.3e}")


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


_RATE_TOL = 1e-12  # the reduction's bar on every relative gap it checks


def reduce_via_particular_solution(
    prob: EmdenProblem,
    xp: TimeFn,
    interval: Tuple[float, float],
    dxp: Optional[TimeFn] = None,
    ddxp: Optional[TimeFn] = None,
) -> Reduction:
    """Collapse the problem onto a frozen field using a known solution.

    Requires, at 200 uniform samples of the interval: xp actually solves
    the problem, its slope squared matches xp^(n+1) (the compatibility
    condition tying the nonlinear and kinetic slots together), and the slope
    is negative so that beta = -dxp stays positive.  The resulting system
    always carries coefficients (c11, c12, c21, c22, cx) = (1, 1, -1, -1, 0);
    the rate is

        f = b gamma^n / dgamma        with gamma = xp,

    which must agree with the independent route f = -a + ddgamma/dgamma and,
    at every sample, equal the frame's own rate -dgamma/gamma (b = -1 under
    compatibility); a relative mismatch beyond 1e-12 is a ReductionError
    naming t.
    Missing derivatives are the exact ``deriv()`` of xp and dxp.
    """
    xp = as_timefn(xp)
    dxp = _auto_deriv(xp, "xp") if dxp is None else as_timefn(dxp)
    ddxp = _auto_deriv(dxp, "dxp") if ddxp is None else as_timefn(ddxp)

    ts = _sample_points(interval, 200)
    rows = []
    try:
        prob.sampler(xp, dxp, ddxp)(ts, rows)
    except (EvalDomainError, ArithmeticError) as exc:
        raise ReductionError(f"evaluation failed at t={ts[len(rows)]:.6g}: {exc}") from exc
    worst = _checked_rate_gap(ts, rows, _RATE_TOL)

    def rate(t, _b=prob.b, _xp=xp, _dxp=dxp, _n=prob.n):
        return _b(t) * real_power(_xp(t), _n) / _dxp(t)

    gauge = GaugeTransform(alpha=None, beta=lambda t: -dxp(t), gamma=xp,
                           dbeta=lambda t: -ddxp(t), dgamma=dxp)
    return Reduction(rate=rate, n=prob.n, gauge=gauge, rate_consistency=worst)
