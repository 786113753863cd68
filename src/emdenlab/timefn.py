"""Scalar functions of time: constants and exact power-law forms.

A "time function" anywhere in this package is just a callable float -> float.
Parsed expressions (exprlang.compile_fn), plain lambdas, components read
from a trajectory's dense output and the PowerFn class below all qualify.
Where a derivative is needed it comes from the function's own ``deriv()``,
which compiled expressions, constants and PowerFn all provide exactly.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Union

from .exprlang import _generate, _namespace, _slot, real_power

TimeFn = Callable[[float], float]

__all__ = [
    "TimeFn",
    "constant",
    "as_timefn",
    "ZERO_FN",
    "PowerFn",
    "ExactnessError",
    "frac_power",
    "Inliner",
]


class ExactnessError(ArithmeticError):
    """An operation left the exact rational domain."""


def constant(c: float) -> TimeFn:
    v = float(c)
    fn = lambda t: v
    fn.deriv = lambda: ZERO_FN
    fn.value = v
    return fn


ZERO_FN: TimeFn = constant(0.0)
"""Shared zero function; identity checks against it let a frame's shear
and a problem's q be exactly absent, not merely zero."""


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


class PowerFn:
    """The function t -> c * (k + m*t)**e with exact arithmetic where possible.

    Closed under differentiation, same-base products and rational powers, so
    solution families like (K + (1-n)t/2)**(-2/(n-1)) keep exact derivatives
    and exact algebraic identities.  Fields default to Fractions; a float in
    any slot simply drops that entry to floating point (is_exact turns False).
    The domain is where the affine base is positive, except that integer
    exponents extend it in the usual way.  Two PowerFns are equal when their
    fields are.
    """

    __slots__ = ("c", "k", "m", "e", "_floats")

    def __init__(self, c: Scalarish, k: Scalarish, m: Scalarish, e: Scalarish):
        self.c, self.k, self.m, self.e = _coerce(c), _coerce(k), _coerce(m), _coerce(e)
        # float copies of the fields, made once for __call__
        self._floats = (float(self.c), float(self.k), float(self.m), float(self.e))

    def _fields(self) -> tuple:
        return (self.c, self.k, self.m, self.e)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"PowerFn(c={self.c!r}, k={self.k!r}, m={self.m!r}, e={self.e!r})"

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


class Inliner:
    """Straight-line source that evaluates time functions at t: the stage
    body of a system's right-hand side, which ``numerics`` compiles into the
    system's ``rhs`` and writes into its Dormand-Prince stages, or the body
    of a pass over a grid of samples, which ``define`` compiles.

    ``value(fn, name)`` appends the lines that compute fn(t) and returns the
    expression that holds the result.  The lines make the float operations
    and checks that calling fn makes, in the same order, so the values and
    the first EvalDomainError are the same:

    - a compiled expression emits its ``exprlang`` lines, unless expand is
      False: then it stays a call, since code built for one pass over a few
      hundred samples spends more on writing those lines than they save;
    - a PowerFn emits ``c * _pow(k + m*t, e)`` from its float fields, or
      ``0.0`` when c is zero, as its ``__call__`` does;
    - ``constant(c)`` is its value;
    - anything else, and anything ``functools.wraps`` made, stays a call.

    Numbers and functions reach the source through ``_vN`` slots of
    ``namespace``, so sources that differ only in numbers are the same text.
    """

    def __init__(self, expand: bool = True):
        self.lines: list = []
        self.namespace = _namespace()
        self.expand = expand
        self.calls = False  # a value comes from a call, so its type is unknown

    def slot(self, value) -> str:
        return _slot(self.namespace, value)

    def value(self, fn: TimeFn, name: str) -> str:
        if getattr(fn, "__wrapped__", None) is None:
            if type(fn) is PowerFn:
                if fn._floats[0] == 0.0:
                    return "0.0"
                c, k, m, e = map(self.slot, fn._floats)
                self.lines.append(f"{name} = {c} * _pow({k} + {m} * t, {e})")
                return name
            if isinstance(getattr(fn, "value", None), float):
                return self.slot(fn.value)
            tree = getattr(fn, "tree", None)
            if tree is not None and self.expand:
                lines, result = _generate(tree, fn.constants, self.namespace, name)
                self.lines += lines
                return result
        self.calls = True
        self.lines.append(f"{name} = {self.slot(fn)}(t)")
        return name

    def power(self, x: str, p: float, name: str) -> str:
        """real_power(x, p), as the line that leaves it in name."""
        self.lines.append(f"{name} = _pow({x}, {self.slot(p)})")
        return name

    def define(self, source: str, name: str):
        """The function name that source defines, run in this namespace;
        source is the caller's template with these lines written into it."""
        exec(_code(source), self.namespace)
        return self.namespace.pop(name)

    def body(self, slopes) -> tuple:
        """The stage body (lines, slopes, namespace).  With a call among the
        values, the slopes pass as one tuple through the ``_reals`` check
        that ``integrate`` applies to what a right-hand side returns, so a
        value of another type converts, or fails, as it does there."""
        if self.calls:
            names = [f"_k{c}" for c in range(len(slopes))]
            self.lines.append(f"[{', '.join(names)}] = "
                              f"_reals(({''.join(s + ', ' for s in slopes)}), {len(names)}, t)")
            slopes = names
        return tuple(self.lines), tuple(slopes), self.namespace


@functools.lru_cache(maxsize=64)
def _code(source: str):
    """source compiled, once per text: numbers sit in slots, so the text
    repeats for every call on functions of the same form."""
    return compile(source, "<inliner>", "exec")
