"""Adaptive ODE integration with dense output, the package's integral primitive.

The integrator is an embedded Dormand-Prince 5(4) pair with the first-same-
as-last optimization and a quartic dense-output interpolant, so trajectories
can be sampled at arbitrary output times without constraining the step
sequence.  Tableau entries are spelled as exact rationals; the test suite
checks their internal consistency identities (stage sums, interpolant
endpoint conditions) in exact arithmetic.

The states here have 1-6 components, so the loop runs on tuples of plain
floats: each stage is y + h * sum_j a_ij K_j, summed in j order.  At that
size array calls cost more than the arithmetic, and the fixed order gives
the same bytes on every host (libm's exp and pow aside), where a BLAS
kernel chosen by CPU sums in its own order.  The mesh is kept as lists;
``t``, ``y`` and ``sample`` import numpy and build arrays on first use.

Time integrals are carried as extra components of the state: F' = f(t)
rides along in the same run as the quantities it depends on, and its values
come from the same dense output (Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6).  ``quad`` (Gauss-Legendre panels refined by bisection),
``AntiderivativeFn``, ``QuadratureError`` and ``invert_monotone`` have no
caller under src/; they stay for ``perfbench/tracing.py``, which wraps them.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Sequence

__all__ = [
    "IntegratorConfig", "Trajectory", "integrate", "linspace",
    "IntegrationError", "RhsError", "StepSizeUnderflowError", "StepEvaluationError",
    "quad", "QuadratureError", "AntiderivativeFn", "invert_monotone",
    "write_csv",
]


class IntegrationError(RuntimeError):
    """A run could not finish; t_reached is where it stopped, when known."""

    def __init__(self, message: str, t_reached: float | None = None):
        super().__init__(message)
        self.t_reached = t_reached


class RhsError(IntegrationError):
    """The right-hand side was not finite at the starting point."""


class StepSizeUnderflowError(IntegrationError):
    """The controller drove the step below resolution; t_reached says where."""


class StepEvaluationError(IntegrationError):
    """The right-hand side raised inside a step; t_reached is where it began."""


class QuadratureError(RuntimeError):
    pass


# Dormand-Prince 5(4) tableau, exact.
_C = [F(0), F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1), F(1)]
_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
    [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)],
]
_B = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84), F(0)]
# fifth-order weights minus the embedded fourth-order ones
_E = [F(71, 57600), F(0), F(-71, 16695), F(71, 1920),
      F(-17253, 339200), F(22, 525), F(-1, 40)]
# dense-output polynomial: y(t0+th) = y0 + h * K^T P (t, t^2, t^3, t^4)
_P = [
    [F(1), F(-8048581381, 2820520608), F(8663915743, 2820520608),
     F(-12715105075, 11282082432)],
    [F(0), F(0), F(0), F(0)],
    [F(0), F(131558114200, 32700410799), F(-68118460800, 10900136933),
     F(87487479700, 32700410799)],
    [F(0), F(-1754552775, 470086768), F(14199869525, 1410260304),
     F(-10690763975, 1880347072)],
    [F(0), F(127303824393, 49829197408), F(-318862633887, 49829197408),
     F(701980252875, 199316789632)],
    [F(0), F(-282668133, 205662961), F(2019193451, 616988883),
     F(-1453857185, 822651844)],
    [F(0), F(40617522, 29380423), F(-110615467, 29380423),
     F(69997945, 29380423)],
]

# Float forms for the integration loop.  Zero entries are dropped: adding
# 0 * K_j to a sum of finite terms leaves it unchanged.
_CF = tuple(float(c) for c in _C)
_AF = tuple(tuple((j, float(a)) for j, a in enumerate(row) if a) for row in _A)
_EF = tuple((j, float(e)) for j, e in enumerate(_E) if e)
# one row per power of theta in the dense-output polynomial
_PF = tuple(tuple((s, float(p)) for s, p in enumerate(col) if p) for col in zip(*_P))

_ORDER_EXP = -1.0 / 5.0
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    first_step: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        for key, value in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} = {value!r} must be finite and positive")
        if self.rel_tol >= 1.0:
            raise ValueError(f"rel_tol = {self.rel_tol!r} must be below 1")


@dataclass
class Trajectory:
    """Accepted mesh (lists ts, ys) plus a per-step interpolant of the method's
    order; calling it gives the state at any time as a tuple of floats."""

    ts: list
    ys: list
    accepted: int
    rejected: int
    _seg_t: list = field(repr=False, default_factory=list)
    _seg_h: list = field(repr=False, default_factory=list)
    _seg_y: list = field(repr=False, default_factory=list)
    # per segment, the interpolant's coefficients of theta, ..., theta^4
    _seg_q: list = field(repr=False, default_factory=list)
    _t_end: float = field(repr=False, default=0.0)

    @functools.cached_property
    def t(self):
        import numpy as np
        return np.array(self.ts)

    @functools.cached_property
    def y(self):
        import numpy as np
        return np.array(self.ys)

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    def __call__(self, t: float) -> tuple:
        seg_t = self._seg_t
        if not seg_t:
            if t == self.t0:
                return self.ys[0]
            raise ValueError("trajectory has no extent")
        t = float(t)
        t0, t_end = seg_t[0], self._t_end
        lo, hi = (t0, t_end) if t_end >= t0 else (t_end, t0)
        slack = 1e-10 * (hi - lo)
        if not (lo - slack <= t <= hi + slack):
            raise ValueError(f"t={t} outside the integrated interval [{lo}, {hi}]")
        if t_end >= t0:
            i = bisect.bisect_right(seg_t, t) - 1
        else:
            i = bisect.bisect_right(seg_t, -t, key=operator.neg) - 1
        i = min(max(i, 0), len(seg_t) - 1)
        th = (t - seg_t[i]) / self._seg_h[i]
        th2, th3, th4 = th * th, th ** 3, th ** 4
        return tuple([y + (a * th + b * th2 + c * th3 + d * th4)
                      for y, a, b, c, d in zip(self._seg_y[i], *self._seg_q[i])])

    def sample(self, ts: Sequence[float]):
        import numpy as np
        return np.array([self(t) for t in ts])


def linspace(a: float, b: float, count: int) -> list:
    """count >= 2 floats from a to b: a + i * step, the last one set to b.

    This is numpy.linspace's arithmetic, so the two agree bit for bit."""
    if count < 2:
        raise ValueError(f"linspace needs count >= 2, got {count}")
    a, b = float(a), float(b)
    step = (b - a) / (count - 1)
    return [a + i * step for i in range(count - 1)] + [b]


def _combine(y, h, K, row):
    """y + h * sum_j a_j K_j for each component, summed in j order."""
    out = []
    for c, yc in enumerate(y):
        s = 0.0
        for j, a in row:
            s += a * K[j][c]
        out.append(yc + h * s)
    return tuple(out)


def _rms(v) -> float:
    return math.sqrt(sum([x * x for x in v]) / len(v))


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _initial_step(f, t0, y0, f0, direction, rel_tol, abs_tol, span):
    scale = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    hd = h0 * direction
    f1 = f(t0 + hd, tuple([v + hd * k for v, k in zip(y0, f0)]))
    if _finite(f1):
        d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    else:
        d2 = 1.0 / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def integrate(rhs: Callable, t0: float, y0, t_end: float,
              config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate y' = rhs(t, y) from t0 to t_end, either direction.

    rhs receives the state as a tuple of floats and returns a sequence of
    the same length.  Raises RhsError when the right-hand side is not
    finite at the starting point (a singular initial time),
    StepSizeUnderflowError with the reached time when the error controller
    cannot advance (a finite-time blow-up inside the interval, or an
    interval too long to resolve in double precision), and
    StepEvaluationError with the reached time when the right-hand side
    raises an ArithmeticError or ValueError inside a step.  A non-finite t0
    or t_end is a ValueError.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"integration limits t0={t0}, t_end={t_end} must be finite")
    cfg = config or IntegratorConfig()
    t = float(t0)
    y = tuple(float(v) for v in y0)
    n = len(y)

    def f(t, y):
        out = tuple(map(float, rhs(t, y)))
        if len(out) != n:
            raise IntegrationError(f"right-hand side returned {len(out)} components, expected {n}")
        return out

    ts, ys = [t], [y]
    traj = Trajectory(ts, ys, 0, 0, _t_end=float(t_end))
    if t_end == t0:
        return traj

    try:
        k0 = f(t, y)
    except (ArithmeticError, ValueError) as exc:
        raise RhsError(f"right-hand side failed at t={t}: {exc}") from exc
    if not _finite(k0):
        raise RhsError(f"right-hand side is not finite at t={t}")

    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    span_floor = 5e-15 * span
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    K = [k0] * 7
    zero = (0.0,) * n
    accepted = rejected = 0
    try:
        if cfg.first_step is not None:
            h = min(abs(cfg.first_step), span)
        else:
            h = _initial_step(f, t, y, k0, direction, rel_tol, abs_tol, span)
        h = min(h, cfg.max_step)
        while (t_end - t) * direction > 0:
            h_min = max(10.0 * abs(math.nextafter(t, direction * math.inf) - t), span_floor)
            if h < h_min:
                reason = "solution likely blows up here"
                if accepted + rejected == 0 and h_min == span_floor:
                    reason = (f"the first step {h:.3g} is below 5e-15 of the interval length "
                              f"{span:.3g}: too long to resolve in double precision")
                raise StepSizeUnderflowError(
                    f"step size underflow at t={t} ({reason})", t_reached=t)
            if accepted + rejected >= cfg.max_steps:
                raise IntegrationError(
                    f"exceeded {cfg.max_steps} steps at t={t}", t_reached=t)

            clipped = h >= abs(t_end - t)
            h_use = abs(t_end - t) if clipped else h
            hd = h_use * direction

            for i in range(1, 7):
                yi = _combine(y, hd, K, _AF[i])
                K[i] = f(t + _CF[i] * hd, yi)
                if not _finite(K[i]):
                    err = math.inf
                    break
            else:
                y_new = yi  # the last stage's input, since _A[6] == _B
                e = _combine(zero, hd, K, _EF)
                err = _rms([ec / (abs_tol + rel_tol * max(abs(a), abs(b)))
                            for ec, a, b in zip(e, y, y_new)])
            if not math.isfinite(err):
                rejected += 1
                h = h_use * _MIN_FACTOR
                continue

            if err <= 1.0:
                t_new = t_end if clipped else t + hd
                traj._seg_t.append(t)
                traj._seg_h.append(t_new - t)
                traj._seg_y.append(y)
                traj._seg_q.append(tuple(_combine(zero, hd, K, row) for row in _PF))
                ts.append(t_new)
                ys.append(y_new)
                accepted += 1
                t, y, K[0] = t_new, y_new, K[6]
                factor = _MAX_FACTOR if err == 0 else min(
                    _MAX_FACTOR, _SAFETY * err ** _ORDER_EXP)
            else:
                rejected += 1
                factor = max(_MIN_FACTOR, _SAFETY * err ** _ORDER_EXP)
            h = min(h_use * factor, cfg.max_step)
    except (ArithmeticError, ValueError) as exc:
        raise StepEvaluationError(
            f"right-hand side failed in the step from t={t}: {exc}",
            t_reached=t) from exc

    traj.accepted, traj.rejected = accepted, rejected
    return traj


# ---------------------------------------------------------------------------
# quadrature

_MAX_QUAD_DEPTH = 60
# disagreement at this level is double-precision noise, not truncation error
_QUAD_NOISE = 55.0 * sys.float_info.epsilon


@functools.cache
def _gauss_rule() -> tuple:
    """15-point Gauss-Legendre (node, weight) pairs as plain floats."""
    from numpy.polynomial.legendre import leggauss
    return tuple(zip(*(v.tolist() for v in leggauss(15))))


def _panel(f, a: float, b: float) -> float:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = 0.0
    for x, w in _gauss_rule():
        v = f(mid + half * x)
        if not math.isfinite(v):
            raise QuadratureError(
                f"integrand is not finite at t={mid + half * x}")
        total += w * v
    return half * total


def _refine(f, lo: float, hi: float, whole: float, depth: int,
            tol: float, inv_len: float) -> float:
    """Accept [lo, hi] against its two halves or recurse into them."""
    mid = 0.5 * (lo + hi)
    if mid == lo or mid == hi:
        raise QuadratureError(
            f"interval near t={mid} collapsed to machine resolution "
            "without converging")
    left = _panel(f, lo, mid)
    right = _panel(f, mid, hi)
    noise = _QUAD_NOISE * (abs(whole) + abs(left) + abs(right))
    if abs(whole - left - right) <= max(tol * (hi - lo) * inv_len, noise):
        return left + right
    if depth >= _MAX_QUAD_DEPTH:
        raise QuadratureError(
            f"quadrature failed to converge on [{lo}, {hi}]")
    return (_refine(f, lo, mid, left, depth + 1, tol, inv_len)
            + _refine(f, mid, hi, right, depth + 1, tol, inv_len))


def quad(f: Callable[[float], float], a: float, b: float,
         tol: float = 1e-12) -> float:
    """Integral of f over [a, b] with absolute error about tol.

    Gauss panels refined by bisection; a panel is accepted when agreement
    with its two halves meets the length-proportional share of tol.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    return sign * _refine(f, a, b, _panel(f, a, b), 0, tol, 1.0 / (b - a))


class AntiderivativeFn:
    """F(t) = integral of integrand from lower to t; F(lower) is exactly 0.

    Every evaluation integrates from the nearest previously computed node and
    is cached.  Each node carries an accumulated error budget; when chaining
    would push the budget past tol, the value is recomputed straight from the
    anchor instead, so every cached value stays within tol of the truth.
    """

    def __init__(self, integrand: Callable[[float], float], lower: float,
                 tol: float = 1e-12):
        self.integrand = integrand
        self.lower = float(lower)
        self.tol = float(tol)
        self._ts = [self.lower]
        self._vals = [0.0]
        self._budgets = [0.0]

    def __call__(self, t: float) -> float:
        t = float(t)
        i = bisect.bisect_left(self._ts, t)
        if i < len(self._ts) and self._ts[i] == t:
            return self._vals[i]
        cands = [j for j in (i - 1, i) if 0 <= j < len(self._ts)]
        j = min(cands, key=lambda j: abs(self._ts[j] - t))
        gap = t - self._ts[j]
        if abs(gap) <= 1e-13 * max(1.0, abs(t)):
            # below quadrature resolution (root finders probe such points);
            # a trapezoid link is exact to O(gap^3) here, and skipping the
            # cache keeps the node list from filling with near-duplicates
            f0, f1 = self.integrand(self._ts[j]), self.integrand(t)
            return self._vals[j] + 0.5 * (f0 + f1) * gap
        link_tol = self.tol / 8.0
        if self._budgets[j] + link_tol <= self.tol:
            val = self._vals[j] + quad(self.integrand, self._ts[j], t, link_tol)
            budget = self._budgets[j] + link_tol
        else:
            val = quad(self.integrand, self.lower, t, self.tol / 2.0)
            budget = self.tol / 2.0
        i = bisect.bisect_left(self._ts, t)
        self._ts.insert(i, t)
        self._vals.insert(i, val)
        self._budgets.insert(i, budget)
        return val


def invert_monotone(g: Callable[[float], float], target: float,
                    lo: float, hi: float, tol: float = 1e-13) -> float:
    """Solve g(t) = target for monotone g on [lo, hi] by bisection."""
    glo, ghi = g(lo), g(hi)
    if glo == target:
        return lo
    if ghi == target:
        return hi
    if (glo - target) * (ghi - target) > 0:
        raise ValueError(f"target {target} not bracketed on [{lo}, {hi}]")
    increasing = ghi > glo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= tol * max(1.0, abs(lo), abs(hi)):
            return mid
        gm = g(mid)
        if (gm < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def write_csv(dest, header: Sequence[str], rows) -> None:
    """Rows of floats at full double precision, deterministic formatting."""
    def emit(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")

    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="ascii", newline="") as fh:
            emit(fh)
    else:
        emit(dest)
