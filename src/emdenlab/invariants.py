"""Time-dependent constants of motion and drift measurement.

Constructors build callables I(t, x, v) that stay constant along solutions
of  x'' = a(t) x' + b(t) x^n.  Each conditional constructor first checks its
integrability condition on a grid (the rescaled energy's pointwise, with no
time integral) and reports the sampled values on failure.  ``drift``
evaluates any invariant along an integrated trajectory and reports how
far from constant it actually is, which is the ground truth every
construction here is tested against.
"""

from __future__ import annotations

import functools
import math
import operator
# Invariant, ConditionedInvariant and DriftReport are dataclasses only because
# perfbench/test_perfbench.py copies them with dataclasses.replace; this module
# and canonical are the two that load dataclasses and the integrator at import
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import VerificationFailure
from .exprlang import _power, real_power
from .numerics import _CHECK_CONFIG, Trajectory, integrate, write_csv
from .problems import EmdenProblem
from .timefn import ExactnessError, Inliner, PowerFn, TimeFn, frac_power, linspace

__all__ = [
    "Invariant",
    "InvariantDomainError",
    "invariant_from_particular_solution",
    "particular_invariant_expansion",
    "ConditionedInvariant",
    "rescaled_energy_invariant",
    "dilation_invariant",
    "DriftReport",
    "drift",
]


class InvariantDomainError(ValueError, VerificationFailure):
    """An invariant was evaluated where it is not defined."""


@dataclass(frozen=True)
class Invariant:
    """A scalar I(t, x, v), constant along solutions of its source system."""

    evaluator: Callable[[float, float, float], float]
    provenance: str
    validity_interval: Optional[Tuple[float, float]] = None

    def __call__(self, t: float, x: float, v: float) -> float:
        return self.evaluator(t, x, v)


def _integral_evaluator(value, run: Trajectory):
    """evaluator(t, x, v) = value(t, run(t), x, v); its ``grid(ts, states)``
    gives the values at the states at ts, bit for bit, reading run in one sweep."""
    evaluator = lambda t, x, v: value(t, run(t), x, v)
    evaluator.grid = lambda ts, states: [value(t, s, x, v) for t, s, (x, v)
                                         in zip(ts, run.states(ts), states)]
    return evaluator


def _power_potential(n: float) -> Callable[[float], float]:
    """x -> x^(n+1)/(n+1), with the log form at the n = -1 degeneracy."""
    if abs(n + 1.0) < 1e-12:
        return math.log
    np1 = n + 1.0
    return lambda x: real_power(x, np1) / np1


_EVALUATOR = """\
def evaluator(t, x, v):
    {lines}
    if {dp} == 0.0 or {p} == 0.0:
        raise {error}(f"reference solution data vanishes at t={{t}}; invariant undefined")
    return {pot} + v * v / (2.0 * {dp} * {dp}) - x * v / ({p} * {dp})
"""


def _particular_evaluator(profile: TimeFn, slope: TimeFn, n: float):
    """I(t, x, v) of ``invariant_from_particular_solution``, the profile and
    the slope written in by an Inliner that calls compiled expressions;
    log(x/p) in place of the power at n = -1."""
    src = Inliner(expand=False)
    p, dp = src.value(profile, "_p"), src.value(slope, "_dp")
    if abs(n + 1.0) < 1e-12:
        pot = f"{src.slot(math.log)}(x / {p})"
    else:
        np1 = src.slot(n + 1.0)
        pot = f"{_power(src.namespace, 'x', np1)} / ({np1} * {_power(src.namespace, p, np1)})"
    return src.define(_EVALUATOR.format(
        lines="\n    ".join(src.lines) or "pass", p=p, dp=dp, pot=pot,
        error=src.slot(InvariantDomainError)), "evaluator")


def invariant_from_particular_solution(
    prob: EmdenProblem,
    xp: TimeFn,
    interval: Tuple[float, float],
    dxp: Optional[TimeFn] = None,
    ddxp: Optional[TimeFn] = None,
) -> Invariant:
    """Time-dependent constant of motion built from one known solution.

    xp must pass the particular-solution reduction checks on the interval
    (it solves the problem, its slope is compatible with the nonlinearity,
    and it decays).  Then

        I(t,x,v) = x^(n+1) / ((n+1) xp^(n+1)) + v^2/(2 dxp^2) - x v/(xp dxp)

    is constant along every solution of the problem, not just xp.  For
    n = -1 the first term becomes log(x/xp).
    """
    # the only use of gauge here, so the conditioned invariants do not load it
    from .gauge import reduce_via_particular_solution

    red = reduce_via_particular_solution(prob, xp, interval, dxp=dxp, ddxp=ddxp)
    # profile = xp, coerced, and its slope dxp, exact or supplied
    evaluator = _particular_evaluator(red.gauge.gamma, red.gauge.dgamma, prob.n)
    return Invariant(
        evaluator=evaluator,
        provenance="particular-solution",
        validity_interval=(float(interval[0]), float(interval[1])),
    )


def particular_invariant_expansion(
    xp: PowerFn, n
) -> Dict[Tuple[Fraction, int], Tuple[Fraction, Fraction]]:
    """Exact monomial expansion of the particular-solution invariant.

    For a pure power xp = c (m t)^e, with slope c e m (m t)^(e-1), each
    coefficient 1/((n+1) xp^(n+1)), 1/(2 xp'^2), -1/(xp xp') is one monomial
    scale * coeff^k (m t)^(expo k), so the invariant is exactly

        I = sum  coeff * t^tpow * x^xdeg * v^vdeg.

    Returns {(xdeg, vdeg): (coeff, tpow)} over exact rationals.  Raises
    ExactnessError for n = -1 (the logarithmic form), a shift k != 0, a
    float field, a zero c, m or e, and an irrational coefficient, such as
    an even root of a negative number.
    """
    if not isinstance(xp, PowerFn):
        raise TypeError("expansion needs the profile as a PowerFn")
    np1 = Fraction(n) + 1
    if np1 == 0:
        raise ExactnessError("the n = -1 logarithmic form has no monomial expansion")
    if xp.k != 0:
        raise ExactnessError("base has a shift, not a pure monomial in t")
    c, m, e = xp.c, xp.m, xp.e
    if not all(isinstance(v, Fraction) for v in (c, m, e)):
        raise ExactnessError("inexact fields")

    def term(scale, coeff, expo, k):
        # scale * (coeff (m t)^expo)^k as (coefficient, power of t)
        return scale * frac_power(coeff, k) * frac_power(m, expo * k), expo * k

    return {(np1, 0): term(1 / np1, c, e, -np1),
            (Fraction(0), 2): term(Fraction(1, 2), c * e * m, e - 1, Fraction(-2)),
            (Fraction(1), 1): term(Fraction(-1), c * c * e * m, 2 * e - 1, Fraction(-1))}


# ---------------------------------------------------------------------------
# conditional constructions


@dataclass(frozen=True)
class ConditionedInvariant:
    """Outcome of a construction gated by an integrability condition.

    The condition is sampled at ``ts``: for the dilation invariant its values,
    with ``constant`` their mean and ``variation`` the largest deviation from
    it over |mean| (inf for a nonzero condition of mean 0); for the rescaled
    energy the gaps of b' = 2ab, with ``constant`` K = b(anchor) and
    ``variation`` the largest gap.  Above the tolerance no invariant is
    produced and the sampled values are kept for inspection.
    """

    passed: bool
    constant: float
    variation: float
    rel_tol: float
    ts: List[float]
    condition_values: List[float]
    invariant: Optional[Invariant]
    label: str

    def render(self) -> str:
        vals = self.condition_values
        lines = [
            f"{self.label} integrability condition",
            f"  samples      {len(vals)} on [{self.ts[0]:g}, {self.ts[-1]:g}]",
            f"  mean value   {self.constant:.12g}",
            f"  range        [{min(vals):.12g}, {max(vals):.12g}]",
            f"  variation    {self.variation:.3e} (allowed {self.rel_tol:.1e})",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def _integrals_rhs(a: TimeFn):
    """(A, G)' = (a(t), exp(A)), generated as a problem's rhs is."""
    src = Inliner()
    a = src.value(a, "_a")
    # math.exp itself, so an overflow is an OverflowError from exp
    return src.rhs((a, f"{src.slot(math.exp)}(x0)"))


_CONDITION_TOL = 1e-8  # the largest variation of a condition that passes


def _forward(interval: Tuple[float, float]) -> Tuple[float, float]:
    """The interval's ends as floats; it must end after it starts."""
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError(f"interval ({lo}, {hi}) must end after it starts")
    return lo, hi


def _condition_report(
    label: str,
    cond: Callable[[float, tuple], float],
    integrals: Trajectory,
    interval: Tuple[float, float],
    invariant: Invariant,
) -> ConditionedInvariant:
    """cond(t, integrals at t) sampled at 200 uniform points of interval;
    the invariant is kept when their variation is at most 1e-8."""
    ts = linspace(interval[0], interval[1], 200)
    vals = [cond(t, state) for t, state in zip(ts, integrals.states(ts))]
    for t, value in zip(ts, vals):
        if not math.isfinite(value):
            raise InvariantDomainError(f"condition value is not finite at t={t:.6g}")
    # added left to right from 0.0: sum() compensates on Python 3.12+, so its
    # last digit, and the printed variation, would depend on the version
    constant = functools.reduce(operator.add, vals, 0.0) / len(vals)
    deviation = max(abs(v - constant) for v in vals)
    # relative to the condition's own size, so the verdict does not depend on
    # the scale of b; about a zero mean only a zero condition passes
    variation = deviation / abs(constant) if constant else math.inf if deviation else 0.0
    passed = variation <= _CONDITION_TOL
    return ConditionedInvariant(
        passed=passed,
        constant=constant,
        variation=variation,
        rel_tol=_CONDITION_TOL,
        ts=ts,
        condition_values=vals,
        invariant=invariant if passed else None,
        label=label,
    )


def rescaled_energy_invariant(
    prob: EmdenProblem,
    anchor: float,
    interval: Tuple[float, float],
) -> ConditionedInvariant:
    """Exponentially rescaled energy, valid when b exp(-2 int a) is constant.

    It is constant, K = b(anchor), exactly where b' = 2ab and b != 0; then
    exp(-2 int a) = K/b, and I = K (v^2/(2b) - x^(n+1)/(n+1)) (log x at
    n = -1), with no time integral, has total derivative
    K v^2 (2ab - b')/(2b^2).  The condition is the gap |b' - 2ab| /
    max(|b'|, |2ab|, |b|/(t1 - t0)) (b' from b.deriv()) at 200 points of the
    interval [t0, t1], which must not start before the anchor; it passes
    when each is at most 1e-8.  The floor |b|/(t1 - t0) keeps the rounding
    noise in b' of a constant b from reading as a gap of 1.  It is checked
    where a and b are differentiable: a jump of b passes it, and the drift
    is the backstop.  K must be finite and nonzero, and b finite and of K's
    sign at each sample.
    """
    t_start, t_end = _forward(interval)
    if t_start < float(anchor):
        raise ValueError(f"interval ({t_start}, {t_end}) must not start before "
                         f"the anchor {anchor}")
    a, b, pot = prob.a, prob.b, _power_potential(prob.n)
    if not hasattr(b, "deriv"):
        raise TypeError(f"b = {b!r} has no exact deriv(); the condition needs b'")
    db, K = b.deriv(), b(float(anchor))
    # nan where K is zero or not finite, so that no b has its sign
    sign = math.copysign(1.0, K) if K and math.isfinite(K) else math.nan
    ts, gaps, span = linspace(interval[0], interval[1], 200), [], t_end - t_start
    for t in ts:
        bt, slope = b(t), db(t)
        balance = 2.0 * a(t) * bt
        scale = max(abs(slope), abs(balance), abs(bt) / span)
        gaps.append(abs(slope - balance) / scale if scale else 0.0)
        if not (0.0 < bt * sign < math.inf and math.isfinite(gaps[-1])):
            raise InvariantDomainError(f"b = {bt!r}, gap {gaps[-1]!r} of b' = 2ab at t={t:.6g}; "
                                       f"both must be finite, b of the sign of b(anchor) = {K!r}")
    passed = max(gaps) <= _CONDITION_TOL
    invariant = Invariant(lambda t, x, v: K * (v * v / (2.0 * b(t)) - pot(x)),
                          "rescaled-energy", (t_start, t_end)) if passed else None
    return ConditionedInvariant(passed, K, max(gaps), _CONDITION_TOL, ts, gaps, invariant,
                                "rescaled energy")


def dilation_invariant(
    prob: EmdenProblem,
    anchor: float,
    interval: Tuple[float, float],
) -> ConditionedInvariant:
    """Dilation-type invariant with a position-velocity cross term.

    With A the integral of a from the anchor and G the integral of exp(A)
    from the same anchor, carried together as two components of one ODE run,

        I = (v^2/2 - b(t) x^(n+1)/(n+1)) exp(-2A) G - (1/2) x v exp(-A)

    is conserved when  b exp(-2A) (2G)^((n+3)/2) = K.  At n = -3 the outer
    power degenerates and the condition collapses to b exp(-2A) = K, while
    the invariant keeps the same shape.  G vanishes at the anchor, so the
    condition and the invariant are only sampled strictly after it.  The
    condition is sampled at 200 points and passes when its variation is at
    most 1e-8.
    """
    t_start, t_end = _forward(interval)
    if t_start <= float(anchor):
        raise ValueError(
            f"interval ({t_start}, {t_end}) must start strictly after the anchor "
            f"{anchor} (the inner antiderivative vanishes there)"
        )
    a, b, n = prob.a, prob.b, prob.n
    AG = integrate(_integrals_rhs(a), float(anchor), (0.0, 0.0), t_end,
                   _CHECK_CONFIG)
    pot = _power_potential(n)
    degenerate = abs(n + 3.0) < 1e-12
    half_shift = (n + 3.0) / 2.0

    def cond(t: float, state: tuple) -> float:
        A, G = state
        base = b(t) * math.exp(-2.0 * A)
        if degenerate:
            return base
        return base * real_power(2.0 * G, half_shift)

    def value(t: float, state: tuple, x: float, v: float) -> float:
        A, G = state
        eA = math.exp(-A)
        energy = v * v / 2.0 - b(t) * pot(x)
        return energy * eA * eA * G - 0.5 * x * v * eA

    invariant = Invariant(_integral_evaluator(value, AG), "dilation", (t_start, t_end))
    return _condition_report("dilation", cond, AG, interval, invariant)


# ---------------------------------------------------------------------------
# drift measurement


@dataclass(frozen=True)
class DriftReport:
    """How far from constant an invariant is along one trajectory."""

    ts: List[float]
    values: List[float]
    reference: float
    max_drift: float
    relative_drift: float
    provenance: str

    def write_csv(self, dest) -> None:
        write_csv(dest, ("t", "I"), zip(self.ts, self.values), footer=(
            f"# relative drift {self.relative_drift:.17g} "
            f"(max |I - I0| {self.max_drift:.17g}, reference {self.reference:.17g})\n"))

    def render(self) -> str:
        return (
            f"invariant drift ({self.provenance}): relative {self.relative_drift:.3e}, "
            f"max |I - I0| = {self.max_drift:.3e} over {len(self.ts)} samples, "
            f"I0 = {self.reference:.12g}"
        )


def drift(inv: Invariant, traj: Trajectory, samples: int = 200) -> DriftReport:
    """Evaluate an invariant along a trajectory and measure its wobble.

    Samples the dense output at samples uniform times in one sweep
    (``Trajectory.states``), evaluated through ``evaluator.grid`` if there
    is one; the relative figure is max |I - I0| / max(1, |I0|, max |I_i|),
    so identically-zero invariants report their absolute drift.
    """
    if samples < 2:
        raise ValueError(f"drift needs samples >= 2 to compare anything, got {samples}")
    if inv.validity_interval is not None:
        lo, hi = inv.validity_interval
        slack = 1e-9 * (abs(hi - lo) + 1.0)
        t_lo, t_hi = sorted((traj.t0, traj.t_end))
        if t_lo < lo - slack or t_hi > hi + slack:
            raise ValueError(
                f"trajectory [{t_lo}, {t_hi}] leaves the invariant's validity "
                f"interval [{lo}, {hi}]"
            )
    ts = linspace(traj.t0, traj.t_end, samples)
    states = traj.states(ts)
    grid = getattr(inv.evaluator, "grid", None)
    try:  # on a failure, evaluated again one by one below, which names the sample
        known = grid and grid(ts, states)
    except (ArithmeticError, ValueError, TypeError):
        known = None
    values = []
    for i, (t, (x, v)) in enumerate(zip(ts, states)):
        try:
            value = inv(t, x, v) if known is None else known[i]
        except (ArithmeticError, ValueError) as exc:
            raise InvariantDomainError(
                f"invariant evaluation failed at sample {i} (t={t:.6g}): {exc}"
            ) from exc
        if not math.isfinite(value):
            raise InvariantDomainError(f"invariant is {value} at sample {i} (t={t:.6g})")
        values.append(value)
    reference = values[0]
    max_drift = max(abs(v - reference) for v in values)
    relative = max_drift / max(1.0, abs(reference), max(abs(v) for v in values))
    return DriftReport(
        ts=ts,
        values=values,
        reference=reference,
        max_drift=max_drift,
        relative_drift=relative,
        provenance=inv.provenance,
    )
