"""Independent references that every benchmark operation is checked against.

Nothing here imports emdenlab.  Each reference is a closed form written out
by hand from the equations, or a property the method must have (a conserved
quantity stays constant, a backward leg returns to its start).  No check
compares against a saved copy of the program's own output, so nothing here
needs regenerating when the program changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# bounds on what counts as a correct answer; each is the program's own
# default verdict threshold or looser than its integration tolerance
DRIFT_TOL = 1e-6          # CLI --threshold default for invariant drift
RESIDUAL_TOL = 1e-6       # CLI --threshold default for the canonical residual
RETURN_TOL = 1e-6         # backward leg back at its start, relative
ON_SOLUTION_TOL = 1e-7    # integration started on a closed-form solution
CLOSED_FORM_TOL = 1e-8    # gamma, beta, tau, F and invariant values


class CheckFailed(AssertionError):
    """A program output disagrees with its independent reference."""


def close(got: float, want: float, tol: float, what: str) -> None:
    """got within tol of want, relative to max(1, |want|)."""
    if not (abs(got - want) <= tol * max(1.0, abs(want))):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def all_close(values: Iterable[float], want: float, tol: float, what: str) -> None:
    for i, got in enumerate(values):
        close(float(got), want, tol, f"{what} [{i}]")


# ---------------------------------------------------------------------------
# slope-compatible catalog profiles, written out by hand


@dataclass(frozen=True)
class Profile:
    """x'' = a(t) x' - x^n with the decaying solution xp, dxp^2 = xp^(n+1)."""

    id: str
    n: int
    drag_text: str          # a(t) as problem-file text
    solution_text: str      # xp(t) as expression text
    singular_point: float
    xp: Callable[[float], float]
    dxp: Callable[[float], float]

    def invariant(self, t: float, x: float, v: float) -> float:
        """x^(n+1)/((n+1) xp^(n+1)) + v^2/(2 dxp^2) - x v/(xp dxp)."""
        p, dp, np1 = self.xp(t), self.dxp(t), self.n + 1
        return x ** np1 / (np1 * p ** np1) + v * v / (2.0 * dp * dp) - x * v / (p * dp)


PROFILES: Tuple[Profile, ...] = (
    Profile("lane_emden_n5", 5, "-2/t", "(2*t)^(-1/2)", 0.0,
            lambda t: (2.0 * t) ** -0.5, lambda t: -((2.0 * t) ** -1.5)),
    Profile("inverse_square_n2", 2, "-5/(t+1)", "4*(t+1)^(-2)", -1.0,
            lambda t: 4.0 * (t + 1.0) ** -2, lambda t: -8.0 * (t + 1.0) ** -3),
    Profile("quartic_root_n9", 9, "-3/(2*(t+1))", "2^(-1/2)*(t+1)^(-1/4)", -1.0,
            lambda t: 2.0 ** -0.5 * (t + 1.0) ** -0.25,
            lambda t: -0.25 * 2.0 ** -0.5 * (t + 1.0) ** -1.25),
    Profile("cube_root_n7", 7, "-5/(3*(t+1))", "3^(-1/3)*(t+1)^(-1/3)", -1.0,
            lambda t: 3.0 ** (-1.0 / 3.0) * (t + 1.0) ** (-1.0 / 3.0),
            lambda t: -(3.0 ** (-1.0 / 3.0)) / 3.0 * (t + 1.0) ** (-4.0 / 3.0)),
    Profile("powerlaw_n5", 5, "-1/(1+t/2)", "(1/2)*(1+t/2)^(-1/2)", -2.0,
            lambda t: 0.5 * (1.0 + 0.5 * t) ** -0.5,
            lambda t: -0.125 * (1.0 + 0.5 * t) ** -1.5),
)

CATALOG_IDS = frozenset(
    [p.id for p in PROFILES] + ["lane_emden_n5_bounded"]
)


def lane_emden_invariant(t: float, x: float, v: float) -> float:
    """The classical invariant of x'' = -2x'/t - x^5, from xp = (2t)^(-1/2)."""
    return (4.0 / 3.0) * t ** 3 * x ** 6 + 4.0 * t ** 3 * v * v + 4.0 * t * t * x * v


# ---------------------------------------------------------------------------
# Kummer-Liouville for p = c/t, q = 0, r constant


def _inverse_power_integral(c: float, t0: float, t: float) -> float:
    """Integral of s^(-c) from t0 to t."""
    if abs(c - 1.0) < 1e-15:
        return math.log(t / t0)
    return (t ** (1.0 - c) - t0 ** (1.0 - c)) / (1.0 - c)


@dataclass(frozen=True)
class KummerLiouvilleClosedForm:
    """gamma'' = -(c/t) gamma' from (g0, dg0) at t0, and what follows from it.

    gamma' = dg0 (t0/t)^c, beta = (t0/t)^c / gamma, tau' = beta/gamma =
    gamma'/(dg0 gamma^2), so tau = (gamma - g0)/(dg0 g0 gamma), and the
    canonical coefficient is r gamma^(n+3) (t/t0)^(2c).
    """

    c: float
    t0: float
    g0: float
    dg0: float
    r: float
    n: float

    def gamma(self, t: float) -> float:
        return self.g0 + self.dg0 * self.t0 ** self.c * _inverse_power_integral(self.c, self.t0, t)

    def beta(self, t: float) -> float:
        return (self.t0 / t) ** self.c / self.gamma(t)

    def tau(self, t: float) -> float:
        g = self.gamma(t)
        return (g - self.g0) / (self.dg0 * self.g0 * g)

    def coefficient(self, t: float) -> float:
        return self.r * self.gamma(t) ** (self.n + 3.0) * (t / self.t0) ** (2.0 * self.c)


def check_kummer_liouville(kl, residual: float, ref: KummerLiouvilleClosedForm,
                           t_end: float) -> None:
    require(not kl.truncated, "reduction truncated on a window where gamma stays positive")
    close(kl.t_end, t_end, 1e-15, "reduction window end")
    for t in (ref.t0, 0.5 * (ref.t0 + t_end), t_end):
        close(kl.gamma(t), ref.gamma(t), CLOSED_FORM_TOL, f"gamma({t:g})")
        close(kl.beta(t), ref.beta(t), CLOSED_FORM_TOL, f"beta({t:g})")
        close(kl.tau(t), ref.tau(t), CLOSED_FORM_TOL, f"tau({t:g})")
        close(kl.coefficient(t), ref.coefficient(t), CLOSED_FORM_TOL, f"F({t:g})")
    require(0.0 <= residual < RESIDUAL_TOL, f"canonical residual {residual!r} not below {RESIDUAL_TOL}")


# ---------------------------------------------------------------------------
# conditioned invariants for a = -k/t, b = s t^(-2k)


@dataclass(frozen=True)
class DragPowerLaw:
    """a = -k/t, b = s t^(-2k); the anchor t0 starts every antiderivative.

    A = -k log(t/t0), so exp(-2A) = (t/t0)^(2k) and b exp(-2A) = s t0^(-2k)
    is constant: the rescaled-energy condition holds for every n, and the
    dilation condition holds at n = -3, where it degenerates to the same.
    """

    k: float
    s: float
    n: float
    t0: float

    def b(self, t: float) -> float:
        return self.s * t ** (-2.0 * self.k)

    @property
    def condition_constant(self) -> float:
        return self.s * self.t0 ** (-2.0 * self.k)

    def _potential(self, x: float) -> float:
        return x ** (self.n + 1.0) / (self.n + 1.0)

    def rescaled_energy(self, t: float, x: float, v: float) -> float:
        return (t / self.t0) ** (2.0 * self.k) * (0.5 * v * v - self.b(t) * self._potential(x))

    def dilation(self, t: float, x: float, v: float) -> float:
        e_minus_a = (t / self.t0) ** self.k
        g = self.t0 ** self.k * _inverse_power_integral(self.k, self.t0, t)
        energy = 0.5 * v * v - self.b(t) * self._potential(x)
        return energy * e_minus_a * e_minus_a * g - 0.5 * x * v * e_minus_a


# states at which an invariant's formula is compared with its closed form
PROBE_STATES = ((0.9, -0.3), (1.4, 0.2))


def check_conditioned(cond, law: DragPowerLaw, closed: Callable, probe_ts: Sequence[float]) -> None:
    require(cond.passed, f"{cond.label} condition rejected (variation {cond.variation:.3e})")
    close(cond.constant, law.condition_constant, CLOSED_FORM_TOL, f"{cond.label} condition constant")
    for t in probe_ts:
        for x, v in PROBE_STATES:
            close(cond.invariant(t, x, v), closed(t, x, v), CLOSED_FORM_TOL,
                  f"{cond.label} invariant at ({t:g}, {x:g}, {v:g})")


def check_drift(report, start_value: float) -> None:
    """Every sampled invariant value sits within DRIFT_TOL of start_value."""
    require(report.relative_drift < DRIFT_TOL,
            f"program reports drift {report.relative_drift!r}")
    all_close(report.values, start_value, DRIFT_TOL, "invariant along trajectory")


# ---------------------------------------------------------------------------
# bounded family of the n = 5 problem


def bounded_member(mix: float, t: float) -> float:
    """x0(t) of the family member K = mix, from the closed expression."""
    tt = t * t
    gap = abs(tt - 3.0)
    num = 1.5 * mix * ((3.0 + tt - gap) + mix * mix * (3.0 + tt + gap))
    return math.sqrt(num / ((3.0 * mix * mix + tt) * (3.0 + mix * mix * tt)))


def superpose_seed(t: float) -> float:
    return (1.0 + t * t / 3.0) ** -0.5


# ---------------------------------------------------------------------------
# profile built to order by `construct`


def constructed_profile(n: float, shift: float) -> Tuple[Tuple[float, float], Callable, Callable]:
    """Window, xp and dxp of (shift + (1-n) t/2)^(-2/(n-1))."""
    root = 2.0 * shift / (n - 1.0)
    window = (root + 0.4, root + 4.0) if 1.0 - n > 0 else (root - 4.0, root - 0.4)
    e = -2.0 / (n - 1.0)

    def xp(t):
        return (shift + (1.0 - n) * t / 2.0) ** e

    def dxp(t):
        # e * (1-n)/2 = 1
        return (shift + (1.0 - n) * t / 2.0) ** (e - 1.0)

    return window, xp, dxp


# ---------------------------------------------------------------------------
# CLI output


def verdict(stdout: str) -> Tuple[str, str, str]:
    lines = stdout.rstrip("\n").splitlines()
    require(bool(lines), "no output")
    last = lines[-1]
    require(last.startswith("VERDICT: "), f"last line is not a verdict: {last!r}")
    status, _, metric = last[len("VERDICT: "):].partition(" ")
    key, _, value = metric.partition("=")
    return status, key, value


def require_pass(stdout: str, key: str) -> str:
    status, got_key, value = verdict(stdout)
    require((status, got_key) == ("PASS", key), f"verdict {status} {got_key}={value}, want PASS {key}")
    return value


def csv_rows(stdout: str, header: str) -> List[List[float]]:
    """Numeric rows of the CSV block that starts with header."""
    lines = stdout.splitlines()
    require(header in lines, f"no CSV header {header!r}")
    rows = []
    for line in lines[lines.index(header) + 1:]:
        if not line or line.startswith("#") or line.startswith("VERDICT"):
            break
        rows.append([float(v) for v in line.split(",")])
    require(bool(rows), "CSV has no rows")
    return rows


def labelled_value(stdout: str, label: str) -> float:
    for line in stdout.splitlines():
        body = line.strip()
        if body.startswith(label):
            return float(body[len(label):].split()[0])
    raise CheckFailed(f"no line starting with {label!r}")


def spec_values(text: str) -> Dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, eq, value = line.partition("=")
        if eq:
            out[key.strip()] = value.strip()
    return out
