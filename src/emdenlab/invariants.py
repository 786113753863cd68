"""Time-dependent constants of motion and drift measurement.

Constructors build callables I(t, x, v) that stay constant along solutions
of  x'' = a(t) x' + b(t) x^n.  Each conditional constructor first checks its
integrability condition numerically on a grid and reports the sampled
values on failure instead of returning a bogus invariant.  ``drift``
evaluates any invariant along an integrated trajectory and reports how
far from constant it actually is, which is the ground truth every
construction here is tested against.
"""

from __future__ import annotations

import math
# Invariant, ConditionedInvariant and DriftReport stay dataclasses, since
# perfbench/test_perfbench.py copies them with dataclasses.replace
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import VerificationFailure
from .exprlang import real_power
from .gauge import reduce_via_particular_solution
from .numerics import IntegratorConfig, Trajectory, _compiled_rhs, integrate, linspace, write_csv
from .problems import EmdenProblem
from .timefn import ExactnessError, Inliner, PowerFn, TimeFn

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
        pot = f"_pow(x, {np1}) / ({np1} * _pow({p}, {np1}))"
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
    red = reduce_via_particular_solution(prob, xp, interval, dxp=dxp, ddxp=ddxp)
    # profile = xp, coerced, and its slope dxp, exact or supplied
    evaluator = _particular_evaluator(red.gauge.gamma, red.gauge.dgamma, prob.n)
    return Invariant(
        evaluator=evaluator,
        provenance="particular-solution",
        validity_interval=(float(interval[0]), float(interval[1])),
    )


def particular_invariant_expansion(
    xp: PowerFn, n, dxp: Optional[PowerFn] = None
) -> Dict[Tuple[Fraction, int], Tuple[Fraction, Fraction]]:
    """Exact monomial expansion of the particular-solution invariant.

    For a pure power profile (no additive shift in the base) the three
    coefficient functions of the invariant are themselves pure powers of t
    with rational data, so the whole invariant expands exactly as

        I = sum  coeff * t^tpow * x^xdeg * v^vdeg.

    Returns {(xdeg, vdeg): (coeff, tpow)} over exact rationals.  Raises
    ExactnessError when the profile's data leave the rational domain.
    """
    if not isinstance(xp, PowerFn):
        raise TypeError("expansion needs the profile as a PowerFn")
    if dxp is None:
        dxp = xp.deriv()
    n_exact = Fraction(n)
    np1 = n_exact + 1
    if np1 == 0:
        raise ExactnessError("the n = -1 logarithmic form has no monomial expansion")

    pot = xp.power(-np1).scaled(Fraction(1, 1) / np1)   # 1/((n+1) xp^(n+1))
    kin = dxp.power(-2).scaled(Fraction(1, 2))          # 1/(2 dxp^2)
    cross = (xp * dxp).reciprocal().scaled(-1)          # -1/(xp dxp)

    out: Dict[Tuple[Fraction, int], Tuple[Fraction, Fraction]] = {}
    for (xdeg, vdeg), fn in (((np1, 0), pot), ((Fraction(0), 2), kin), ((Fraction(1), 1), cross)):
        coeff, tpow = fn.as_monomial()
        out[(xdeg, vdeg)] = (coeff, tpow)
    return out


# ---------------------------------------------------------------------------
# conditional constructions


@dataclass(frozen=True)
class ConditionedInvariant:
    """Outcome of a construction gated by an integrability condition.

    The condition function is sampled on a grid; ``constant`` is its mean
    and ``variation`` the largest relative deviation from it.  When the
    variation exceeds the tolerance no invariant is produced and the
    sampled values are kept for inspection.
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


# time integrals from the anchor ride as ODE components at these tolerances
_INTEGRAL_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _integrals_rhs(a: TimeFn, with_g: bool):
    """A' = a(t) as (A,); with with_g, also G' = exp(A) as (A, G).  Generated
    from the stage body that ``integrate`` inlines, as a problem's rhs is."""
    src = Inliner()
    a = src.value(a, "_a")
    # math.exp itself, so an overflow is an OverflowError from exp
    return _compiled_rhs(src.body((a, f"{src.slot(math.exp)}(x0)") if with_g else (a,)))


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
    grid: int,
    rel_tol: float,
    make_invariant,
) -> ConditionedInvariant:
    """cond(t, integrals at t) sampled on grid points of interval."""
    ts = linspace(interval[0], interval[1], grid)
    vals = [cond(t, state) for t, state in zip(ts, integrals.states(ts))]
    for t, value in zip(ts, vals):
        if not math.isfinite(value):
            raise InvariantDomainError(f"condition value is not finite at t={t:.6g}")
    constant = sum(vals) / len(vals)
    variation = max(abs(v - constant) for v in vals) / max(1.0, abs(constant))
    passed = variation <= rel_tol
    return ConditionedInvariant(
        passed=passed,
        constant=constant,
        variation=variation,
        rel_tol=rel_tol,
        ts=ts,
        condition_values=vals,
        invariant=make_invariant(constant) if passed else None,
        label=label,
    )


def rescaled_energy_invariant(
    prob: EmdenProblem,
    anchor: float,
    interval: Tuple[float, float],
    grid: int = 200,
    rel_tol: float = 1e-8,
) -> ConditionedInvariant:
    """Exponentially rescaled energy, valid when b exp(-2 int a) is constant.

    With A(t) the integral of a from the anchor, carried as an ODE component,

        I = exp(-2A) (v^2/2 - b(t) x^(n+1)/(n+1))

    is conserved exactly when b exp(-2A) = K.  The condition is sampled on
    the interval, which must not start before the anchor; on failure the
    report carries the sampled values.
    """
    t_start, t_end = _forward(interval)
    if t_start < float(anchor):
        raise ValueError(f"interval ({t_start}, {t_end}) must not start before "
                         f"the anchor {anchor}")
    a, b, n = prob.a, prob.b, prob.n
    A = integrate(_integrals_rhs(a, with_g=False), float(anchor), (0.0,), t_end, _INTEGRAL_CONFIG)
    pot = _power_potential(n)

    def cond(t: float, state: tuple) -> float:
        return b(t) * math.exp(-2.0 * state[0])

    def make_invariant(_constant: float) -> Invariant:
        def evaluator(t: float, x: float, v: float) -> float:
            return math.exp(-2.0 * A(t)[0]) * (v * v / 2.0 - b(t) * pot(x))

        return Invariant(
            evaluator=evaluator,
            provenance="rescaled-energy",
            validity_interval=(t_start, t_end),
        )

    return _condition_report(
        "rescaled energy", cond, A, interval, grid, rel_tol, make_invariant
    )


def dilation_invariant(
    prob: EmdenProblem,
    anchor: float,
    interval: Tuple[float, float],
    grid: int = 200,
    rel_tol: float = 1e-8,
) -> ConditionedInvariant:
    """Dilation-type invariant with a position-velocity cross term.

    With A the integral of a from the anchor and G the integral of exp(A)
    from the same anchor, carried together as two components of one ODE run,

        I = (v^2/2 - b(t) x^(n+1)/(n+1)) exp(-2A) G - (1/2) x v exp(-A)

    is conserved when  b exp(-2A) (2G)^((n+3)/2) = K.  At n = -3 the outer
    power degenerates and the condition collapses to b exp(-2A) = K, while
    the invariant keeps the same shape.  G vanishes at the anchor, so the
    condition and the invariant are only sampled strictly after it.
    """
    t_start, t_end = _forward(interval)
    if t_start <= float(anchor):
        raise ValueError(
            f"interval ({t_start}, {t_end}) must start strictly after the anchor "
            f"{anchor} (the inner antiderivative vanishes there)"
        )
    a, b, n = prob.a, prob.b, prob.n
    AG = integrate(_integrals_rhs(a, with_g=True), float(anchor), (0.0, 0.0), t_end,
                   _INTEGRAL_CONFIG)
    pot = _power_potential(n)
    degenerate = abs(n + 3.0) < 1e-12
    half_shift = (n + 3.0) / 2.0

    def cond(t: float, state: tuple) -> float:
        A, G = state
        base = b(t) * math.exp(-2.0 * A)
        if degenerate:
            return base
        return base * real_power(2.0 * G, half_shift)

    def make_invariant(_constant: float) -> Invariant:
        def evaluator(t: float, x: float, v: float) -> float:
            A, G = AG(t)
            eA = math.exp(-A)
            energy = v * v / 2.0 - b(t) * pot(x)
            return energy * eA * eA * G - 0.5 * x * v * eA

        return Invariant(
            evaluator=evaluator,
            provenance="dilation",
            validity_interval=(t_start, t_end),
        )

    return _condition_report(
        "dilation", cond, AG, interval, grid, rel_tol, make_invariant
    )


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
        rows = zip(self.ts, self.values)
        summary = (
            f"# relative drift {self.relative_drift:.17g} "
            f"(max |I - I0| {self.max_drift:.17g}, reference {self.reference:.17g})\n"
        )
        if isinstance(dest, (str,)) or hasattr(dest, "__fspath__"):
            with open(dest, "w", encoding="ascii", newline="") as fh:
                write_csv(fh, ("t", "I"), rows)
                fh.write(summary)
        else:
            write_csv(dest, ("t", "I"), rows)
            dest.write(summary)

    def render(self) -> str:
        return (
            f"invariant drift ({self.provenance}): relative {self.relative_drift:.3e}, "
            f"max |I - I0| = {self.max_drift:.3e} over {len(self.ts)} samples, "
            f"I0 = {self.reference:.12g}"
        )


def drift(inv: Invariant, traj: Trajectory, samples: int = 200) -> DriftReport:
    """Evaluate an invariant along a trajectory and measure its wobble.

    Samples the dense output at samples uniform times, read in one sweep
    (``Trajectory.states``); the relative figure is normalized by
    max(1, |I0|, max |I_i|), so identically-zero invariants report their
    absolute drift.
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
    values = []
    for i, (t, (x, v)) in enumerate(zip(ts, traj.states(ts))):
        try:
            value = inv(t, x, v)
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
