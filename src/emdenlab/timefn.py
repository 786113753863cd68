"""Scalar functions of time: derivative helper and exact power-law forms.

A "time function" anywhere in this package is just a callable float -> float.
Parsed expressions (exprlang.compile_fn), plain lambdas, components read
from a trajectory's dense output and the PowerFn class below all qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

from .exprlang import EvalDomainError, real_power

TimeFn = Callable[[float], float]

__all__ = [
    "TimeFn",
    "constant",
    "as_timefn",
    "ZERO_FN",
    "nderiv",
    "PowerFn",
    "ExactnessError",
    "frac_power",
]


class ExactnessError(ArithmeticError):
    """An operation left the exact rational domain."""


def constant(c: float) -> TimeFn:
    v = float(c)
    return lambda t: v


ZERO_FN: TimeFn = constant(0.0)
"""Shared zero function; identity checks against it let callers keep
an exactly-zero coefficient slot exactly zero through transformations."""


def as_timefn(value: Union[float, int, Fraction, TimeFn]) -> TimeFn:
    """Coerce a number to a constant function; pass callables through.

    Zero coerces to the shared ZERO_FN singleton.
    """
    if callable(value):
        return value
    v = float(value)
    if v == 0.0:
        return ZERO_FN
    return constant(v)


def nderiv(f: TimeFn, scale: float = 1.0) -> TimeFn:
    """Numerical derivative of f by Richardson-extrapolated central differences.

    Fourth-order accurate; roughly 1e-10 relative accuracy on smooth inputs,
    which is enough for every consistency check in this package that falls
    back to it.  Supply an analytic derivative where one is available.
    """
    def d(t: float) -> float:
        h = 1.8e-3 * (abs(t) + scale)
        d1 = (f(t + h) - f(t - h)) / (2.0 * h)
        d2 = (f(t + 0.5 * h) - f(t - 0.5 * h)) / h
        return (4.0 * d2 - d1) / 3.0

    return d


def _nth_root(a: int, q: int) -> int | None:
    """Exact integer q-th root of a >= 0, or None."""
    if a < 0:
        return None
    if a in (0, 1):
        return a
    r = round(a ** (1.0 / q))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c ** q == a:
            return c
    return None


def frac_power(base: Fraction, exp: Fraction) -> Fraction:
    """base**exp when the result is rational, else ExactnessError."""
    if base == 0:
        if exp > 0:
            return Fraction(0)
        raise ExactnessError("0 under a nonpositive exponent")
    if exp == 0:
        return Fraction(1)
    if exp < 0:
        return 1 / frac_power(base, -exp)
    p, q = exp.numerator, exp.denominator
    if base < 0:
        if q % 2 == 0:
            raise ExactnessError(f"negative base {base} under even-root exponent {exp}")
        mag = frac_power(-base, exp)
        return -mag if p % 2 else mag
    num = _nth_root(base.numerator, q)
    den = _nth_root(base.denominator, q)
    if num is None or den is None:
        raise ExactnessError(f"{base}**{exp} is irrational")
    return Fraction(num, den) ** p


Scalarish = Union[int, float, Fraction]


def _coerce(v: Scalarish):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return float(v)


@dataclass(frozen=True)
class PowerFn:
    """The function t -> c * (k + m*t)**e with exact arithmetic where possible.

    Closed under differentiation, same-base products and rational powers, so
    solution families like (K + (1-n)t/2)**(-2/(n-1)) keep exact derivatives
    and exact algebraic identities.  Fields default to Fractions; a float in
    any slot simply drops that entry to floating point (is_exact turns False).
    The domain is where the affine base is positive, except that integer
    exponents extend it in the usual way.
    """

    c: Scalarish
    k: Scalarish
    m: Scalarish
    e: Scalarish
    # float copies of the fields, made once for __call__
    _floats: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c", _coerce(self.c))
        object.__setattr__(self, "k", _coerce(self.k))
        object.__setattr__(self, "m", _coerce(self.m))
        object.__setattr__(self, "e", _coerce(self.e))
        object.__setattr__(
            self, "_floats", (float(self.c), float(self.k), float(self.m), float(self.e)))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in (self.c, self.k, self.m, self.e))

    def __call__(self, t: float) -> float:
        c, k, m, e = self._floats
        if c == 0.0:
            return 0.0
        return c * real_power(k + m * t, e)

    def deriv(self) -> "PowerFn":
        if self.c == 0 or self.e == 0:
            return PowerFn(0, self.k, self.m, 0)
        return PowerFn(self.c * self.e * self.m, self.k, self.m, self.e - 1)

    def scaled(self, s: Scalarish) -> "PowerFn":
        return PowerFn(self.c * _coerce(s), self.k, self.m, self.e)

    def __mul__(self, other: "PowerFn") -> "PowerFn":
        if not isinstance(other, PowerFn):
            return NotImplemented
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError("can only multiply PowerFns over the same affine base")
        return PowerFn(self.c * other.c, self.k, self.m, self.e + other.e)

    def power(self, r: Scalarish) -> "PowerFn":
        """Raise to the exponent r, keeping exactness when the result is rational."""
        r = _coerce(r)
        if isinstance(self.c, Fraction) and isinstance(r, Fraction):
            try:
                c = frac_power(self.c, r)
            except ExactnessError:
                c = real_power(float(self.c), float(r))
        else:
            c = real_power(float(self.c), float(r))
        return PowerFn(c, self.k, self.m, self.e * r)

    def reciprocal(self) -> "PowerFn":
        return self.power(-1)

    def as_monomial(self):
        """Return (A, e) with self == A * t**e, for a zero-shift exact base.

        Needs k == 0 and m**e rational; raises ExactnessError otherwise.
        """
        if self.k != 0:
            raise ExactnessError("base has a shift, not a pure monomial in t")
        if not (isinstance(self.m, Fraction) and isinstance(self.e, Fraction)
                and isinstance(self.c, Fraction)):
            raise ExactnessError("inexact fields")
        return self.c * frac_power(self.m, self.e), self.e

    def root(self) -> float | None:
        """The t where the base vanishes (a singular or boundary point), if any."""
        if self.m == 0:
            return None
        return -float(self.k) / float(self.m)

    def to_source(self) -> str:
        """Render as parseable expression text (deterministic)."""
        def num(v):
            if isinstance(v, Fraction):
                if v.denominator == 1:
                    return str(v.numerator)
                return f"{v.numerator}/{v.denominator}"
            return f"{float(v):.17g}"

        base = f"({num(self.k)} + ({num(self.m)})*t)"
        if self.e == 0:
            return f"({num(self.c)})"
        body = base if self.e == 1 else f"{base}^({num(self.e)})"
        if self.c == 1:
            return body
        return f"({num(self.c)})*{body}"

    def __str__(self):
        return self.to_source()
