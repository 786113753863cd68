"""Time-dependent constants of motion and drift measurement.

Constructors build callables I(t, x, v) that stay constant along solutions
of  x'' = a(t) x' + b(t) x^n  (or of the frozen reduced system, for the
time-independent one).  Each conditional constructor first checks its
integrability condition numerically on a grid and reports the sampled
values on failure instead of returning a bogus invariant.  ``drift``
evaluates any invariant along an integrated trajectory and reports how
far from constant it actually is, which is the ground truth every
construction here is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .exprlang import real_power
from .gauge import EmdenProblem, reduce_via_particular_solution
from .numerics import IntegratorConfig, Trajectory, integrate, write_csv
from .timefn import ExactnessError, PowerFn, TimeFn, as_timefn

__all__ = [
    "Invariant",
    "InvariantDomainError",
    "generic_first_integral",
    "invariant_from_particular_solution",
    "particular_invariant_expansion",
    "ConditionedInvariant",
    "rescaled_energy_invariant",
    "dilation_invariant",
    "DriftReport",
    "drift",
]


class InvariantDomainError(ValueError):
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


def generic_first_integral(
    c11: float, c12: float, c21: float, c22: float, cx: float, n: float
) -> Invariant:
    """First integral of the frozen field with the given coefficients.

    dx/dt = c11 x + c12 v, dv/dt = c21 v + cx x + c22 x^n admits

        I = -c12 v^2/2 + cx x^2/2 + c21 v x + c22 x^(n+1)/(n+1)

    exactly when c21 = -c11 (the diagonal drifts cancel); otherwise an
    integrating factor would be needed, which is not constructed here.
    The n = -1 case replaces the power by a logarithm.
    """
    if abs(c11 + c21) > 1e-12:
        raise ValueError(
            f"c21 = {c21} is not -c11 = {-c11}: this field only admits a first "
            "integral through an integrating factor, which is unsupported"
        )
    n = float(n)
    pot = _power_potential(n)

    def evaluator(t: float, x: float, v: float) -> float:
        return -c12 * v * v / 2.0 + cx * x * x / 2.0 + c21 * v * x + c22 * pot(x)

    return Invariant(evaluator=evaluator, provenance="generic")


def invariant_from_particular_solution(
    prob: EmdenProblem,
    xp: TimeFn,
    interval: Tuple[float, float],
    dxp: Optional[TimeFn] = None,
) -> Invariant:
    """Time-dependent constant of motion built from one known solution.

    xp must pass the particular-solution reduction checks on the interval
    (it solves the problem, its slope is compatible with the nonlinearity,
    and it decays).  Then

        I(t,x,v) = x^(n+1) / ((n+1) xp^(n+1)) + v^2/(2 dxp^2) - x v/(xp dxp)

    is constant along every solution of the problem, not just xp.  For
    n = -1 the first term becomes log(x/xp).
    """
    red = reduce_via_particular_solution(prob, xp, interval, dxp=dxp)
    profile = red.gauge.gamma          # = xp, coerced
    slope = red.gauge.dgamma           # = dxp, exact or supplied
    n = prob.n
    log_form = abs(n + 1.0) < 1e-12
    np1 = n + 1.0

    def evaluator(t: float, x: float, v: float) -> float:
        p, dp = profile(t), slope(t)
        if dp == 0.0 or p == 0.0:
            raise InvariantDomainError(
                f"reference solution data vanishes at t={t}; invariant undefined"
            )
        if log_form:
            pot = math.log(x / p)
        else:
            pot = real_power(x, np1) / (np1 * real_power(p, np1))
        return pot + v * v / (2.0 * dp * dp) - x * v / (p * dp)

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
    ts: np.ndarray
    condition_values: np.ndarray
    invariant: Optional[Invariant]
    label: str

    def render(self) -> str:
        vals = self.condition_values
        lines = [
            f"{self.label} integrability condition",
            f"  samples      {len(vals)} on [{self.ts[0]:g}, {self.ts[-1]:g}]",
            f"  mean value   {self.constant:.12g}",
            f"  range        [{vals.min():.12g}, {vals.max():.12g}]",
            f"  variation    {self.variation:.3e} (allowed {self.rel_tol:.1e})",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


# time integrals from the anchor ride as ODE components at these tolerances
_INTEGRAL_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _condition_report(
    label: str,
    cond: Callable[[float], float],
    interval: Tuple[float, float],
    grid: int,
    rel_tol: float,
    make_invariant,
) -> ConditionedInvariant:
    ts = np.linspace(float(interval[0]), float(interval[1]), grid)
    vals = np.array([cond(float(t)) for t in ts])
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise InvariantDomainError(
            f"condition value is not finite at t={ts[bad]:.6g}"
        )
    constant = float(vals.mean())
    variation = float(np.max(np.abs(vals - constant))) / max(1.0, abs(constant))
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
    a, b, n = prob.a, prob.b, prob.n
    A = integrate(lambda t, y: (a(t),), float(anchor), (0.0,), float(interval[1]),
                  _INTEGRAL_CONFIG)
    pot = _power_potential(n)

    def cond(t: float) -> float:
        return b(t) * math.exp(-2.0 * A(t)[0])

    def make_invariant(_constant: float) -> Invariant:
        def evaluator(t: float, x: float, v: float) -> float:
            return math.exp(-2.0 * A(t)[0]) * (v * v / 2.0 - b(t) * pot(x))

        return Invariant(
            evaluator=evaluator,
            provenance="rescaled-energy",
            validity_interval=(float(interval[0]), float(interval[1])),
        )

    return _condition_report(
        "rescaled energy", cond, interval, grid, rel_tol, make_invariant
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
    t_start = float(interval[0])
    if t_start <= float(anchor):
        raise ValueError(
            f"interval must start strictly after the anchor {anchor} "
            "(the inner antiderivative vanishes there)"
        )
    a, b, n = prob.a, prob.b, prob.n
    AG = integrate(lambda t, y: (a(t), math.exp(y[0])), float(anchor), (0.0, 0.0),
                   float(interval[1]), _INTEGRAL_CONFIG)
    pot = _power_potential(n)
    degenerate = abs(n + 3.0) < 1e-12
    half_shift = (n + 3.0) / 2.0

    def cond(t: float) -> float:
        A, G = AG(t)
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
            validity_interval=(t_start, float(interval[1])),
        )

    return _condition_report(
        "dilation", cond, interval, grid, rel_tol, make_invariant
    )


# ---------------------------------------------------------------------------
# drift measurement


@dataclass(frozen=True)
class DriftReport:
    """How far from constant an invariant is along one trajectory."""

    ts: np.ndarray
    values: np.ndarray
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

    Samples the dense output uniformly; the relative figure is normalized
    by max(1, |I0|, max |I_i|), so identically-zero invariants report their
    absolute drift.
    """
    if inv.validity_interval is not None:
        lo, hi = inv.validity_interval
        slack = 1e-9 * (abs(hi - lo) + 1.0)
        t_lo, t_hi = sorted((traj.t0, traj.t_end))
        if t_lo < lo - slack or t_hi > hi + slack:
            raise ValueError(
                f"trajectory [{t_lo}, {t_hi}] leaves the invariant's validity "
                f"interval [{lo}, {hi}]"
            )
    ts = np.linspace(traj.t0, traj.t_end, samples)
    values = np.empty(samples)
    for i, t in enumerate(ts):
        x, v = traj(float(t))
        try:
            values[i] = inv(float(t), float(x), float(v))
        except (ArithmeticError, ValueError) as exc:
            raise InvariantDomainError(
                f"invariant evaluation failed at sample {i} (t={float(t):.6g}): {exc}"
            ) from exc
    reference = float(values[0])
    max_drift = float(np.max(np.abs(values - reference)))
    relative = max_drift / max(1.0, abs(reference), float(np.max(np.abs(values))))
    return DriftReport(
        ts=ts,
        values=values,
        reference=reference,
        max_drift=max_drift,
        relative_drift=relative,
        provenance=inv.provenance,
    )
