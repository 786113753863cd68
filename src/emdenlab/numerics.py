"""Adaptive ODE integration with dense output, the package's integral primitive.

The integrator is an embedded Dormand-Prince 5(4) pair with the first-same-
as-last optimization and a quartic dense-output interpolant, so trajectories
can be sampled at arbitrary output times without constraining the step
sequence.  Tableau entries are spelled as exact rationals; the test suite
checks their internal consistency identities (stage sums, interpolant
endpoint conditions) in exact arithmetic.

The states here have 1-6 components, so a step runs on plain floats: each
stage is y + h * (0.0 + sum_j a_ij K_j), summed in j order.  At that size
array calls cost more than the arithmetic, and the fixed order gives the
same bytes on every host (libm's exp and pow aside), where a BLAS kernel
chosen by CPU sums in its own order.  The first run with n components
generates one function that runs the whole adaptive loop for n, with every
tableau entry a float literal, so no loop over components or entries is
left to interpret; dense output is read by one generated reader per state
size, and a grid of times ordered along the run (``Trajectory.states``) by
one generated sweep per state size, which walks the mesh once and does the
reader's arithmetic on the segment a point read bisects to.  The mesh is
kept once, as the lists ``ts`` and ``ys``, with one row of dense
coefficients per step; ``t``, ``y`` and ``sample`` import numpy and build
arrays on first use.

A system's right-hand side is written once, as a stage body: lines that
read t and x0 ... and give the slopes.  ``timefn.Inliner.rhs`` builds every
rhs in the package from one; given such an rhs, each stage runs the same
lines inline, so the meshes, states and first error are the call's, bit for
bit.  Any other callable (a functools.wraps wrapper too) runs as a one-call
stage, whose slopes are what ``_reals`` makes of one call.  Generated code
becomes a function through ``exprlang._define``, which compiles each text
once; numbers reach it through slots.

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
from fractions import Fraction as F
from typing import Callable, Sequence

from . import VerificationFailure
from .exprlang import _define

__all__ = [
    "IntegratorConfig", "Trajectory", "integrate",
    "IntegrationError", "RhsError", "StepSizeUnderflowError", "StepEvaluationError",
    "quad", "QuadratureError", "AntiderivativeFn", "invert_monotone",
    "write_csv",
]


class IntegrationError(RuntimeError, VerificationFailure):
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

# Float forms for the generated step.  Zero entries are dropped: adding
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


class IntegratorConfig:
    """Tolerances and step limits of one ``integrate`` run, checked here."""

    __slots__ = ("rel_tol", "abs_tol", "max_step", "first_step", "max_steps")

    def __init__(self, rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                 max_step: float = math.inf, first_step: float | None = None,
                 max_steps: int = 1_000_000):
        for key, value in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} = {value!r} must be finite and positive")
        if rel_tol >= 1.0:
            raise ValueError(f"rel_tol = {rel_tol!r} must be below 1")
        if not max_step > 0.0:
            raise ValueError(f"max_step = {max_step!r} must be positive")
        if first_step is not None and not 0.0 < first_step < math.inf:
            raise ValueError(f"first_step = {first_step!r} must be finite and positive")
        # a bool is an int, but True is no step count
        if isinstance(max_steps, bool) or not (isinstance(max_steps, int) and max_steps >= 1):
            raise ValueError(f"max_steps = {max_steps!r} must be an integer >= 1")
        # floats, so the step control's own arithmetic raises no TypeError
        self.rel_tol, self.abs_tol, self.max_step = float(rel_tol), float(abs_tol), float(max_step)
        self.first_step, self.max_steps = first_step and float(first_step), max_steps


# the checkers' integrator settings: the Kummer-Liouville runs, the canonical
# residual's runs and the invariants' time integrals
_CHECK_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class Trajectory:
    """Accepted mesh (lists ts, ys) plus a per-step interpolant of the method's
    order; calling it gives the state at any time as a tuple of floats.
    Step i runs from ts[i] to ts[i+1], starting at ys[i]."""

    def __init__(self, ts: list, ys: list):
        self.ts, self.ys = ts, ys
        self.accepted = self.rejected = 0
        # per step, the interpolant's coefficients of theta, ..., theta^4
        self._seg_q = []

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
        ts = self.ts
        if len(ts) == 1:
            if t == self.t0:
                return self.ys[0]
            raise ValueError("trajectory has no extent")
        t = float(t)
        lo, hi, low, high, key = self._window
        if not low <= t <= high:
            raise ValueError(f"t={t} outside the integrated interval [{lo}, {hi}]")
        # the search runs over the step starts from 1, so a t in the slack
        # before ts[0] reads step 0 and one in the slack after ts[-1] the last
        i = bisect.bisect_right(ts, t if key is None else -t, 1, len(ts) - 1, key=key) - 1
        return self._read((t - ts[i]) / (ts[i + 1] - ts[i]), self.ys[i], self._seg_q[i])

    @functools.cached_property
    def _window(self):
        """[lo, hi], what a call accepts (1e-10 of it wider) and ts's search key."""
        t0, t_end = self.ts[0], self.ts[-1]
        lo, hi = (t0, t_end) if t_end >= t0 else (t_end, t0)
        slack = 1e-10 * (hi - lo)
        return lo, hi, lo - slack, hi + slack, None if t_end >= t0 else operator.neg

    @functools.cached_property
    def _read(self):
        return _reader(len(self.ys[0]))

    def states(self, times) -> list:
        """The state at each of times, as ``[self(t) for t in times]`` gives
        it, bit for bit, with the same ValueError for a time outside the run.

        A grid ordered along the run (ascending for a forward run) is read in
        one walk over the mesh by a generated sweep; from the first time that
        leaves the window or turns back, the rest are read one by one."""
        out, times = [], iter(times)
        if len(self.ts) > 1:
            stop = self._sweep(times, self.ts, self.ys, self._seg_q, *self._window[2:4], out)
            if stop is not None:
                out.append(self(stop))
        out += map(self, times)
        return out

    @functools.cached_property
    def _sweep(self):
        return _sweeper(len(self.ys[0]), self._window[4] is not None)

    def sample(self, ts: Sequence[float]):
        """The states at ts as an array, one row per time (``states``)."""
        import numpy as np
        return np.array(self.states(ts))


# The adaptive loop; _kernel fills in the stages, the error terms and the
# dense rows for n components, and the controller's constants.
_LOOP = """\
def _run(t0, y, k0, h, t_end, direction, span_floor, abs_tol, rel_tol,
         max_step, max_steps, ts, ys, seg_q):
    [{y}], [{k0}] = y, k0
    toward, accepted, rejected = direction * _inf, 0, 0
    while (t_end - t0) * direction > 0:
        h_min = max(10.0 * _abs(_nextafter(t0, toward) - t0), span_floor)
        if h < h_min or accepted + rejected >= max_steps: break
        clipped = h >= _abs(t_end - t0)
        h_use = _abs(t_end - t0) if clipped else h
        hd = h_use * direction
        {stages}
        if not _isfinite(err): {reject}
        if err <= 1.0:
            seg_q.append({rows})
            t0, y, [{y}], [{k0}] = t_end if clipped else t0 + hd, {state}, {state}, {k6}
            ts.append(t0)
            ys.append(y)
            accepted += 1
            factor = {max_f} if err == 0 else min({max_f}, {grow})
        else:
            rejected += 1
            factor = max({min_f}, {grow})
        h = min(h_use * factor, max_step)
    return accepted, rejected, h, h_min
"""


@functools.lru_cache(maxsize=64)
def _kernel(n: int, body: tuple) -> str:
    """The source of _LOOP's _run for n components.

    _run steps from t0, y, slopes k0 toward t_end, appends the end of each
    accepted step to ts and ys and its dense rows to seg_q, and returns
    (accepted, rejected, h, h_min); short of t_end, h fell below h_min or the
    steps hit max_steps.
    Each stage forms x0 ... x{n-1} and t, then runs body's lines and n
    slopes (other names come from the namespace).  The source holds only
    names made up here, the body's and float reprs, so it is shared."""
    comps = range(n)

    def tup(items):
        return "(" + "".join(f"{x}, " for x in items) + ")"

    def names(name):
        return ", ".join(f"{name}_{c}" for c in comps)

    def combine(base, row, c):
        return base + " + hd * (0.0" + "".join(f" + {a!r} * k{j}_{c}" for j, a in row) + ")"

    state = tup(f"x{c}" for c in comps)
    reject = f"rejected += 1; h = h_use * {_MIN_FACTOR!r}; continue"
    stages = []
    for i in range(1, 7):
        stages += [f"x{c} = {combine(f'y_{c}', _AF[i], c)}" for c in comps]
        stages.append(f"t = t0 + {_CF[i]!r} * hd")
        stages += body[0]
        stages += [f"k{i}_{c} = {slope}" for c, slope in zip(comps, body[1])]
        finite = " and ".join(f"_isfinite(k{i}_{c})" for c in comps) or "True"
        stages.append(f"if not ({finite}): {reject}")
    # x0 ... now hold the new state, since _A[6] == _B.  The error is _rms of
    # e / scale, with max(a, b) spelled as what it returns for two floats.
    for c in comps:
        stages += [f"a_{c} = _abs(y_{c})", f"b_{c} = _abs(x{c})",
                   f"e_{c} = ({combine('0.0', _EF, c)}) / "
                   f"(abs_tol + rel_tol * (b_{c} if b_{c} > a_{c} else a_{c}))"]
    stages.append(f"err = _sqrt(_sum([{', '.join(f'e_{c} * e_{c}' for c in comps)}]) / {n})")
    source = _LOOP.format(
        y=names("y"), k0=names("k0"), stages="\n        ".join(stages), reject=reject,
        rows=tup(tup(combine("0.0", row, c) for c in comps) for row in _PF),
        state=state, k6=tup(f"k6_{c}" for c in comps), max_f=repr(_MAX_FACTOR),
        min_f=repr(_MIN_FACTOR), grow=f"{_SAFETY!r} * err ** ({_ORDER_EXP!r})")
    return source


def _read_lines(n: int) -> tuple:
    """The lines that unpack th's powers, y and q, and the expression of the
    n-component state at theta = th of the segment from y with
    theta-coefficient rows q: y + (a*th + b*th^2 + ...) each."""
    comps = range(n)
    rows = ", ".join(f"[{', '.join(f'{r}_{c}' for c in comps)}]" for r in "abcd")
    state = "".join(f"y_{c} + (a_{c} * th + b_{c} * th2 + c_{c} * th3 + d_{c} * th4), "
                    for c in comps)
    lines = ["th2, th3, th4 = th * th, th ** 3, th ** 4",
             f"[{', '.join(f'y_{c}' for c in comps)}] = y", f"[{rows}] = q"]
    return lines, f"({state})"


@functools.cache
def _reader(n: int):
    """read(th, y, q): the n-component state at theta = th of the segment
    from y with theta-coefficient rows q (``_read_lines``)."""
    lines, state = _read_lines(n)
    body = "".join(f"    {line}\n" for line in lines)
    return _define(f"def _read(th, y, q):\n{body}    return {state}\n",
                   "_read", {}, f"<dense n={n}>")


# The sweep reads a grid ordered along the run in one walk over the mesh:
# j only moves forward, to the segment bisect_right picks in __call__.  It
# returns the first time that leaves the window or turns back, else None.
_SWEEP = """\
def _sweep(times, ts, ys, qs, low, high, out):
    j, last, prev = 1, len(ts) - 1, {start}
    for t in times:
        t = _float(t)
        if not (low <= t <= high and prev {order} t): return t
        prev = t
        while j < last and ts[j] {order} t: j += 1
        y, q, t_i = ys[j - 1], qs[j - 1], ts[j - 1]
        th = (t - t_i) / (ts[j] - t_i)
        {read}
        out.append({state})
"""


@functools.cache
def _sweeper(n: int, backward: bool):
    """The generated ``_SWEEP`` for n components and the run's direction."""
    lines, state = _read_lines(n)
    source = _SWEEP.format(start="high" if backward else "low", order=">=" if backward else "<=",
                           read="\n        ".join(lines), state=state)
    return _define(source, "_sweep", {"_float": float}, f"<sweep n={n}>")


def _problem_body(rhs, n: int):
    """The n-slope stage body that rhs runs if ``Inliner.rhs`` made it, else None.
    A functools.wraps wrapper copies ``stage_body`` but runs in its own module."""
    body = getattr(rhs, "stage_body", None)
    if body is None or getattr(rhs, "__globals__", None) is not body[2]:
        return None
    return body if len(body[1]) == n else None


def _call_body(n: int, rhs) -> tuple:
    """The stage body of one call of an rhs that carries none, checked as integrate's f is."""
    slopes = tuple(f"_k{c}" for c in range(n))
    state = "".join(f"x{c}, " for c in range(n))
    line = f"[{', '.join(slopes)}] = _reals(_rhs(t, ({state})), {n}, t)"
    return (line,), slopes, {"_rhs": rhs, "_reals": _reals}


def _reals(out, n: int, t: float) -> tuple:
    """What a right-hand side returned at t as n floats, or an IntegrationError.
    ldexp(v, 0) is float(v) for a real v, but it does not parse text."""
    try:
        if isinstance(out, (str, bytes, bytearray)):
            raise TypeError
        values = tuple([math.ldexp(v, 0) for v in out])
    except (TypeError, ValueError):
        raise IntegrationError(
            f"right-hand side returned {out!r} at t={t}, not a sequence of real numbers"
        ) from None
    if len(values) != n:
        raise IntegrationError(
            f"right-hand side returned {len(values)} components, expected {n}, at t={t}")
    return values


def _rms(v) -> float:
    squares = sum([x * x for x in v])
    if squares == math.inf:  # a square overflowed; hypot scales before it squares
        return math.hypot(*v) / math.sqrt(len(v))
    return math.sqrt(squares / len(v))


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


def _raised_by_rhs(exc: BaseException, f, run=None) -> bool:
    """Whether exc is the right-hand side failing: an ArithmeticError or
    ValueError, or a TypeError raised in or below the generated loop run,
    which inlines or calls rhs, or below f's call of rhs (a coefficient that
    returns text or None fails in the arithmetic on it).  One raised in f's
    own frame (rhs does not take (t, y)) or in _initial_step stays a
    TypeError; run's step control, on floats, raises none."""
    if not isinstance(exc, TypeError):
        return True
    codes, tb = [], exc.__traceback__
    while tb is not None:
        codes.append(tb.tb_frame.f_code)
        tb = tb.tb_next
    return codes[-1] is not f.__code__ and (
        f.__code__ in codes or getattr(run, "__code__", None) in codes)


def integrate(rhs: Callable, t0: float, y0, t_end: float,
              config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate y' = rhs(t, y) from t0 to t_end, either direction.

    rhs receives the state as a tuple of floats and returns a sequence of
    as many real numbers; anything else is an IntegrationError that names
    the t of the call (mid-run, with t_reached the start of its step).
    Raises RhsError when the right-hand side is not finite at the starting
    point (a singular initial time), StepSizeUnderflowError with the
    reached time when the error controller cannot advance (a finite-time
    blow-up inside the interval, or an interval too long to resolve in
    double precision), and StepEvaluationError with the reached time when
    the right-hand side raises an ArithmeticError, ValueError or TypeError
    inside a step (a coefficient that returns text or None fails in the
    arithmetic).  A non-finite t0 or t_end is a ValueError; an rhs that
    does not take (t, y) gives the TypeError of the call.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"integration limits t0={t0}, t_end={t_end} must be finite")
    cfg = config or IntegratorConfig()
    # floats, since the last step ends exactly at t_end and puts it in ts
    t = t0 = float(t0)
    t_end = float(t_end)
    y = tuple(float(v) for v in y0)
    n = len(y)

    def f(t, y):
        return _reals(rhs(t, y), n, t)

    ts, ys = [t], [y]
    traj = Trajectory(ts, ys)
    if t_end == t0:
        return traj

    try:
        k0 = f(t, y)
    except (ArithmeticError, ValueError, TypeError) as exc:
        if not _raised_by_rhs(exc, f):
            raise
        raise RhsError(f"right-hand side failed at t={t}: {exc}") from exc
    if not _finite(k0):
        raise RhsError(f"right-hand side is not finite at t={t}")

    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    body = _problem_body(rhs, n) or _call_body(n, rhs)
    namespace = {"_isfinite": math.isfinite, "_abs": abs, "_sqrt": math.sqrt, "_sum": sum,
                 "_inf": math.inf, "_nextafter": math.nextafter, **body[2]}
    run = _define(_kernel(n, body[:2]), "_run", namespace, f"<dopri5 n={n}>")
    # every step starts at the last accepted time, so ts[-1] is where a failure stops
    try:
        h = cfg.first_step or _initial_step(f, t, y, k0, direction, cfg.rel_tol, cfg.abs_tol, span)
        h = min(h, span, cfg.max_step)
        traj.accepted, traj.rejected, h, h_min = run(
            t, y, k0, h, t_end, direction, 5e-15 * span, cfg.abs_tol, cfg.rel_tol,
            cfg.max_step, cfg.max_steps, ts, ys, traj._seg_q)
    except (ArithmeticError, ValueError, TypeError) as exc:
        if not _raised_by_rhs(exc, f, run):
            raise
        raise StepEvaluationError(
            f"right-hand side failed in the step from t={ts[-1]}: {exc}",
            t_reached=ts[-1]) from exc
    except IntegrationError as exc:
        if exc.t_reached is None:  # f refused what rhs returned in this step
            exc.t_reached = ts[-1]
        raise

    t = ts[-1]
    if (t_end - t) * direction > 0:
        if h < h_min:
            reason = "solution likely blows up here"
            # h_min is never below 10 ulp(t): a shorter interval helps only above it
            if traj.accepted + traj.rejected == 0 and h >= 10.0 * math.ulp(t):
                reason = (f"the first step {h:.3g} is below 5e-15 of the interval length "
                          f"{span:.3g}: too long to resolve in double precision")
            raise StepSizeUnderflowError(f"step size underflow at t={t} ({reason})", t_reached=t)
        raise IntegrationError(f"exceeded {cfg.max_steps} steps at t={t}", t_reached=t)
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


def write_csv(dest, header: Sequence[str], rows, footer: str = "") -> None:
    """Rows of floats at full double precision, deterministic formatting,
    then footer, to dest: a path or a text stream."""
    def emit(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")
        fh.write(footer)

    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="ascii", newline="") as fh:
            emit(fh)
    else:
        emit(dest)
