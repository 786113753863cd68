"""Closed-form solution families and the verified solution catalog.

Three kinds of exact material live here:

* a catalog of drag/power-law problems, each shipped with a particular
  solution whose first and second derivatives are exact, re-verified
  against the equation at construction time on the rows of its problem's
  ``sampler``;
* one-parameter families built to order: profiles satisfying the
  slope-compatibility condition  dx^2 = x^(n+1)  together with the
  equations they solve (``slope_compatible_family``, ``construct_equation``,
  ``powerlaw_solution``).  Every slope-compatible entry, shipped or built
  to order, solves  x'' = a(t) x' - x^n  with a PowerFn profile and comes
  from one builder, ``_drag_entry``;
* the two-point mixing rule on the zero level of the frozen-flow first
  integral: ``superpose`` maps one bounded solution of the n = 5 problem
  to another, ``bounded_family`` gives the resulting family in closed
  form, and ``mixing_constant`` recovers the family parameter from a pair
  of frozen-system states.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import VerificationFailure
from .exprlang import real_power
from .problems import EmdenProblem
from .timefn import ExactnessError, PowerFn, TimeFn, frac_power, linspace

__all__ = [
    "SuperpositionDomainError",
    "ResidualReport",
    "verify_solution",
    "CatalogEntry",
    "slope_compatible_family",
    "construct_equation",
    "powerlaw_solution",
    "superpose",
    "BoundedFamilyMember",
    "bounded_family",
    "frozen_level",
    "mixing_constant",
    "catalog",
    "catalog_entry",
]


class SuperpositionDomainError(ValueError, VerificationFailure):
    """A state lies outside the region where the mixing rule is real."""


# ---------------------------------------------------------------------------
# residual verification


class ResidualReport:
    """Sampled residual of a claimed solution of x'' = a x' + b x^n."""

    __slots__ = ("max_residual", "mean_residual", "threshold", "samples", "interval")

    def __init__(self, max_residual: float, mean_residual: float, threshold: float,
                 samples: int, interval: Tuple[float, float]):
        self.max_residual, self.mean_residual = max_residual, mean_residual
        self.threshold, self.samples, self.interval = threshold, samples, interval

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"residual on [{self.interval[0]:g}, {self.interval[1]:g}] "
            f"({self.samples} samples): max {self.max_residual:.3e}, "
            f"mean {self.mean_residual:.3e}, threshold {self.threshold:.1e} "
            f"-> {verdict}"
        )


def verify_solution(
    prob: EmdenProblem,
    x: TimeFn,
    dx: TimeFn,
    ddx: TimeFn,
    interval: Tuple[float, float],
    threshold: float = 1e-9,
    samples: int = 100,
) -> ResidualReport:
    """Check x(t) against the equation by direct substitution.

    The caller supplies the claimed profile together with its first and
    second derivatives; the report holds the largest and mean absolute
    residual  x'' - a x' - b x^n  over an even grid.
    """
    return _residual_pass(prob, x, dx, ddx, interval, threshold, samples)[0]


def _residual_pass(prob, x, dx, ddx, interval, threshold, samples) -> tuple:
    """verify_solution's report, and the rows of the sampler pass it read."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    worst = 0.0
    total = 0.0
    rows = prob.sampler(x, dx, ddx)(linspace(lo, hi, samples), [])
    for _, d, _, _, dd, a, bx in rows:
        r = abs(dd - a * d - bx)
        total += r
        if r > worst:
            worst = r
    return ResidualReport(worst, total / samples, threshold, samples, (lo, hi)), rows


# ---------------------------------------------------------------------------
# catalog entries


class CatalogEntry:
    """A drag/power-law problem bundled with one exact particular solution.

    ``xp``/``dxp``/``ddxp`` are the profile and its exact derivatives;
    ``window`` is a representative interval inside the profile's domain of
    validity, used for residual checks and drift runs.  ``slope_compatible``
    records whether  dxp^2 = xp^(n+1)  holds identically, which is what the
    particular-solution reduction machinery requires.
    """

    __slots__ = ("id", "problem", "xp", "dxp", "ddxp", "window", "parameters",
                 "slope_compatible", "equation_text", "solution_text", "description",
                 "_residual", "_slope_gap")

    def __init__(self, id: str, problem: EmdenProblem, xp: TimeFn, dxp: TimeFn,
                 ddxp: TimeFn, window: Tuple[float, float],
                 parameters: Optional[Dict[str, float]] = None,
                 slope_compatible: bool = False, equation_text: str = "",
                 solution_text: str = "", description: str = ""):
        self.id, self.problem, self.window = id, problem, window
        self.xp, self.dxp, self.ddxp = xp, dxp, ddxp
        self.parameters = {} if parameters is None else parameters
        self.slope_compatible = slope_compatible
        self.equation_text, self.solution_text = equation_text, solution_text
        self.description = description
        # one sampler pass gives both checks, which the entry keeps
        self._residual, rows = _residual_pass(problem, xp, dxp, ddxp, window, 1e-10, 100)
        self._slope_gap = max(0.0, *(abs(d2 - w) / max(abs(d2), abs(w), 1e-300)
                                     for _, _, d2, w, _, _, _ in rows))

    def residual_report(self) -> ResidualReport:
        """The residual at 100 samples of the window, against threshold 1e-10."""
        return self._residual

    def slope_gap(self) -> float:
        """Largest relative gap between dxp^2 and xp^(n+1) at 100 samples of the window."""
        return self._slope_gap

    def describe(self) -> str:
        params = ", ".join(f"{k} = {v:g}" for k, v in self.parameters.items()) or "(none)"
        return "\n".join(
            [
                f"id: {self.id}",
                f"equation: {self.equation_text}",
                f"solution: x(t) = {self.solution_text}",
                f"window: [{self.window[0]:g}, {self.window[1]:g}]",
                f"parameters: {params}",
                f"slope-compatible: {'yes' if self.slope_compatible else 'no'}",
                f"note: {self.description}",
            ]
        )


def _checked(entry: CatalogEntry) -> CatalogEntry:
    # every entry re-verifies itself before it is handed out
    rep = entry.residual_report()
    if not rep.passed:
        raise ValueError(f"catalog entry {entry.id!r} failed its residual check: {rep.render()}")
    if entry.slope_compatible:
        gap = entry.slope_gap()
        if gap > 1e-12:
            raise ValueError(
                f"catalog entry {entry.id!r} claims slope compatibility "
                f"but dxp^2 and xp^(n+1) differ by {gap:.3e} (relative)"
            )
    return entry


def _drag_entry(id: str, a: PowerFn, n, singular: float, xp: PowerFn,
                window: Tuple[float, float], parameters: Optional[Dict[str, float]],
                drag: str, solution: str, description: str) -> CatalogEntry:
    """The checked entry for  x'' = a x' - x^n  on the slope-compatible
    profile xp, with xp's exact derivatives; ``drag`` is the text of a x'."""
    prob = EmdenProblem(a, -1.0, n, singular_points=(singular,))
    return _checked(CatalogEntry(
        id, prob, xp, xp.deriv(), xp.deriv().deriv(), window, parameters, True,
        f"x'' = {drag} - x^{n:g}", solution, description))


# ---------------------------------------------------------------------------
# built-to-order families


def slope_compatible_family(n: float, shift=0) -> PowerFn:
    """Profile (shift + (1-n)t/2)^(-2/(n-1)), slope-compatible by design.

    The returned profile satisfies  dx^2 = x^(n+1)  identically, which makes
    it a valid seed for the particular-solution reduction whenever it also
    solves the equation at hand.  It is real on the half-line where the
    affine base stays positive; the mirror profile for the opposite
    half-line is obtained by negating both ``shift`` and the slope (the
    t > 0 mirror of the n = 5, shift = 0 member is (2t)^(-1/2)).

    n = 1 has no power-law member and n = -1 degenerates to a straight
    line; both are rejected.
    """
    fn = Fraction(n)
    if fn == 1:
        raise ValueError("n = 1 is the linear case; no profile of this form exists")
    if fn == -1:
        raise ValueError("n = -1 degenerates to a straight line; excluded")
    return PowerFn(1, shift, (1 - fn) / 2, Fraction(-2) / (fn - 1))


def _affine_window(root: float, slope: float) -> Tuple[float, float]:
    # representative interval on the valid side of the base's zero
    if slope > 0:
        return (root + 0.4, root + 4.0)
    return (root - 4.0, root - 0.4)


def construct_equation(n: float, shift=1.0) -> Tuple[EmdenProblem, CatalogEntry]:
    """Drag equation admitting the slope-compatible profile, plus the entry.

    Designs  x'' = a(t) x' - x^n  with  a(t) = (3+n)/(2 shift + (1-n) t)
    so that ``slope_compatible_family(n, shift)`` solves it exactly; for
    n = 5 this reads a(t) = 4/(shift - 2t).  The entry re-verifies residual
    and slope compatibility on a window inside the valid half-line.
    """
    xp = slope_compatible_family(n, shift)  # refuses n = 1
    fn = Fraction(n)
    root = float(2 * shift / (n - 1.0))
    entry = _drag_entry(
        f"constructed_n{n:g}", PowerFn(fn + 3, 2 * shift, 1 - fn, -1), n, root, xp,
        _affine_window(root, float(1 - fn)), {"n": float(n), "shift": float(shift)},
        f"({n + 3:g})/({float(2 * shift):g} + ({1 - n:g}) t) x'", xp.to_source(),
        "drag equation built around its slope-compatible profile")
    return entry.problem, entry


def powerlaw_solution(n: float, shift=1.0, window: Optional[Tuple[float, float]] = None) -> CatalogEntry:
    """Pure power-law profile for  x'' = -x'/(shift + m t) - x^n.

    The drag slope m = (n-1)/(n+3) and the amplitude (the positive real
    root of  amp^(n-1) = 4/(n+3)^2) are forced by the equation; the decay
    exponent is 2/(n-1).  n = 1 and n = -3 have no member of this shape.
    """
    fn = Fraction(n)
    if fn == 1:
        raise ValueError("n = 1 is the linear case; no profile of this form exists")
    if fn == -3:
        raise ValueError("n = -3 leaves the drag slope undefined; excluded")
    nu = Fraction(2) / (fn - 1)
    m = (fn - 1) / (fn + 3)
    target = Fraction(4) / (fn + 3) ** 2
    try:
        amp = frac_power(target, Fraction(1) / (fn - 1))
    except ExactnessError:
        amp = real_power(float(target), 1.0 / (float(fn) - 1.0))
    xp = PowerFn(amp, shift, m, -nu)
    root = -float(shift) / float(m)
    return _drag_entry(
        f"powerlaw_n{n:g}", PowerFn(-1, shift, m, -1), n, root, xp,
        _affine_window(root, float(m)) if window is None else window,
        {"n": float(n), "shift": float(shift)},
        f"-x'/({float(shift):g} + ({float(m):g}) t)", xp.to_source(),
        "pure power-law decay with the drag slope forced by the exponent")


# ---------------------------------------------------------------------------
# the mixing rule on the zero level of the frozen first integral


def frozen_level(x: float, v: float) -> float:
    """Level value x^6/6 + v^2/2 + x v of the frozen-flow first integral."""
    return x**6 / 6.0 + v * v / 2.0 + x * v


def superpose(x1: float, t: float, mix: float) -> float:
    """Map one bounded solution value of the n = 5 drag problem to another.

    Given x1(t) from a solution on the zero level of the frozen first
    integral, returns the value x0(t) of the companion solution labelled by
    the nonnegative mixing constant: mix = 1 reproduces x1 and mix = 0
    gives the trivial solution.  Real only where  4 t^2 x1^4 <= 3; a mixing
    constant so large that the ratio overflows is refused as well.
    """
    if mix < 0:
        raise ValueError(f"mixing constant must be nonnegative, got {mix}")
    if mix == 0.0:
        return 0.0
    x1sq = x1 * x1
    q = 4.0 * t * t * x1sq * x1sq
    s_sq = 1.0 - q / 3.0
    if s_sq < 0.0:
        raise SuperpositionDomainError(
            f"state (t = {t:g}, x1 = {x1:g}) lies outside the mixing domain "
            f"4 t^2 x1^4 <= 3"
        )
    if mix == 1.0:
        # the expression collapses to x1 identically; return it exactly
        return float(x1)
    s = math.sqrt(s_sq)
    num = 6.0 * mix * x1sq * ((1.0 - s) + mix * mix * (1.0 + s))
    try:
        den = 12.0 * mix * mix + (1.0 - mix * mix) ** 2 * q
    except OverflowError:  # float ** raises where the square passes the largest float
        den = math.inf
    if not (math.isfinite(num) and math.isfinite(den)):
        raise SuperpositionDomainError(
            f"the mixing rule overflows at t = {t:g} (x1 = {x1:g}, mixing constant {mix:g})"
        )
    return math.sqrt(num / den)


class BoundedFamilyMember:
    """One member of the bounded family for  x'' = -2 x'/t - x^5.

    Values follow the single closed expression

        x0(t)^2 = (3/2) mix (3 + t^2 - |t^2 - 3| + mix^2 (3 + t^2 + |t^2 - 3|))
                  / ((3 mix^2 + t^2)(3 + mix^2 t^2))

    which is continuous everywhere and reduces, on either side of the seam
    at |t| = sqrt(3), to a rescaling of the mix = 1 member.  The slope
    jumps by the factor mix^2 across the seam, so ``slope`` and
    ``curvature`` are one-sided there (the outer branch is used at the
    seam itself).
    """

    __slots__ = ("mix",)

    def __init__(self, mix: float):
        self.mix = mix

    def __call__(self, t: float) -> float:
        k = self.mix
        tt = t * t
        gap = abs(tt - 3.0)
        num = k * ((3.0 + tt - gap) + k * k * (3.0 + tt + gap))
        den = (3.0 * k * k + tt) * (3.0 + k * k * tt)
        return math.sqrt(1.5 * num / den)

    # each branch is an exact rescaled copy of the mix = 1 profile, so the
    # derivatives below are exact away from the seam
    def slope(self, t: float) -> float:
        k = self.mix
        if abs(t) < self.seam:
            return -math.sqrt(3.0 * k) * k * k * t * (3.0 + k * k * t * t) ** -1.5
        return -math.sqrt(3.0 * k) * t * (3.0 * k * k + t * t) ** -1.5

    def curvature(self, t: float) -> float:
        k = self.mix
        if abs(t) < self.seam:
            u = 3.0 + k * k * t * t
            return math.sqrt(3.0 * k) * k * k * (2.0 * k * k * t * t - 3.0) * u**-2.5
        u = 3.0 * k * k + t * t
        return math.sqrt(3.0 * k) * (2.0 * t * t - 3.0 * k * k) * u**-2.5

    @property
    def seam(self) -> float:
        return math.sqrt(3.0)


def bounded_family(mix: float) -> BoundedFamilyMember:
    """Closed-form family member labelled by the nonnegative mixing constant.

    mix = 1 is the globally smooth profile sqrt(3)(3 + t^2)^(-1/2); other
    members glue two of its rescalings at t = sqrt(3), continuously in
    value.  Feeding the mix = 1 member through ``superpose`` reproduces
    these members pointwise.
    """
    if mix < 0:
        raise ValueError(f"mixing constant must be nonnegative, got {mix}")
    return BoundedFamilyMember(float(mix))


def mixing_constant(
    x0: float, v0: float, x1: float, v1: float, level_tol: float = 1e-9
) -> float:
    """Recover the mixing constant pairing two frozen-system states.

    Both states must sit on the zero level of the frozen first integral
    (within ``level_tol``) with x^4 <= 3 and x > 0; the result is constant
    along paired trajectories of the frozen flow whose velocities lie on
    the same root branch of the level condition.
    """
    for tag, x, v in (("first", x0, v0), ("second", x1, v1)):
        lvl = frozen_level(x, v)
        if abs(lvl) > level_tol:
            raise ValueError(
                f"{tag} state is not on the zero energy level: |level| = {abs(lvl):.3e} "
                f"exceeds {level_tol:.1e}"
            )
        if x <= 0.0:
            raise ValueError(f"{tag} state needs strictly positive x, got {x!r}")
        if x**4 > 3.0:
            raise SuperpositionDomainError(
                f"{tag} state lies beyond the fold x^4 <= 3 (x = {x!r})"
            )
    s0 = math.sqrt(max(0.0, 1.0 - x0**4 / 3.0))
    s1 = math.sqrt(max(0.0, 1.0 - x1**4 / 3.0))
    return (x0 * x0) / (x1 * x1) * (1.0 + s1) / (1.0 + s0)


# ---------------------------------------------------------------------------
# the shipped catalog


def lane_emden_entry() -> CatalogEntry:
    """n = 5 drag problem with its slope-compatible decaying profile."""
    return _drag_entry(
        "lane_emden_n5", PowerFn(-2, 0, 1, -1), 5, 0.0, PowerFn(1, 0, 2, Fraction(-1, 2)),
        (0.5, 5.0), None, "-2/t x'", "(2 t)^(-1/2)", "inverse-square-root decay under 2/t drag")


def inverse_square_entry(shift=1.0) -> CatalogEntry:
    s = float(shift)
    return _drag_entry(
        "inverse_square_n2", PowerFn(-5, shift, 1, -1), 2, -s, PowerFn(4, shift, 1, -2),
        (0.5, 5.0), {"shift": s}, f"-5/(t + {s:g}) x'", f"4 (t + {s:g})^(-2)",
        "inverse-square decay for the quadratic nonlinearity")


def quartic_root_entry(shift=1.0) -> CatalogEntry:
    s = float(shift)
    return _drag_entry(
        "quartic_root_n9", PowerFn(Fraction(-3, 2), shift, 1, -1), 9, -s,
        PowerFn(2**-0.5, shift, 1, Fraction(-1, 4)), (0.5, 5.0), {"shift": s},
        f"-3/(2 (t + {s:g})) x'", f"2^(-1/2) (t + {s:g})^(-1/4)",
        "slow quartic-root decay for the n = 9 nonlinearity")


def cube_root_entry(shift=1.0) -> CatalogEntry:
    s = float(shift)
    return _drag_entry(
        "cube_root_n7", PowerFn(Fraction(-5, 3), shift, 1, -1), 7, -s,
        PowerFn(3.0 ** (-1.0 / 3.0), shift, 1, Fraction(-1, 3)), (0.5, 5.0), {"shift": s},
        f"-5/(3 (t + {s:g})) x'", f"3^(-1/3) (t + {s:g})^(-1/3)",
        "cube-root decay for the n = 7 nonlinearity")


def bounded_profile_entry() -> CatalogEntry:
    member = bounded_family(1.0)
    prob = EmdenProblem(PowerFn(-2, 0, 1, -1), -1.0, 5, singular_points=(0.0,))
    return _checked(
        CatalogEntry(
            id="lane_emden_n5_bounded",
            problem=prob,
            xp=member,
            dxp=member.slope,
            ddxp=member.curvature,
            window=(0.5, 5.0),
            slope_compatible=False,
            equation_text="x'' = -2/t x' - x^5",
            solution_text="sqrt(3) (3 + t^2)^(-1/2)",
            description="globally bounded profile for the same drag problem",
        )
    )


@functools.cache
def catalog() -> Tuple[CatalogEntry, ...]:
    """The shipped entries, built and re-verified on first use."""
    return (
        lane_emden_entry(),
        inverse_square_entry(),
        quartic_root_entry(),
        cube_root_entry(),
        powerlaw_solution(5, 1.0, window=(0.5, 5.0)),
        bounded_profile_entry(),
    )


def catalog_entry(entry_id: str) -> CatalogEntry:
    for entry in catalog():
        if entry.id == entry_id:
            return entry
    known = ", ".join(e.id for e in catalog())
    raise KeyError(f"no catalog entry {entry_id!r}; known ids: {known}")
