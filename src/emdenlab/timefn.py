"""Scalar functions of time: constants and exact power-law forms.

A "time function" anywhere in this package is just a callable float -> float.
Parsed expressions (exprlang.compile_fn), plain lambdas, components read
from a trajectory's dense output and the PowerFn class below all qualify.
Where a derivative is needed it comes from the function's own ``deriv()``,
which compiled expressions, constants and PowerFn all provide exactly.
``linspace`` gives the uniform grids of times that tables and checks use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Union

from .exprlang import _define, _generate, _namespace, _power, _slot, real_power

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
    "linspace",
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
    """Exact integer q-th root of a > 0, or None."""
    if q == 1:
        return a
    # integer Newton steps fall from this bound above the root to its floor
    r = 1 << -(-a.bit_length() // q)
    while True:
        s = ((q - 1) * r + a // r ** (q - 1)) // q
        if s >= r:
            return r if r ** q == a else None
        r = s


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
    """The function t -> c * (k + m*t)**e with exact fields where possible.

    Closed under differentiation, so solution families like
    (K + (1-n)t/2)**(-2/(n-1)) keep exact derivatives.  Fields default to
    Fractions; a float in any slot keeps that entry in floating point.  A
    pure power (k = 0) with rational c, m and e has the particular
    invariant's closed form, ``invariants.particular_invariant_expansion``;
    a shift or a float field is refused there.  The domain is where the
    affine base is positive, except that integer exponents extend it in the
    usual way.  Two PowerFns are equal when their fields are.
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


class Inliner:
    """Straight-line source that evaluates time functions at t: the stage
    body of a system's right-hand side, which ``rhs`` compiles and
    ``integrate`` writes into its Dormand-Prince stages, or the body of a
    pass over a grid of samples, which ``define`` compiles.

    ``value(fn, name)`` appends the lines that compute fn(t) and returns the
    expression that holds the result.  The lines make the float operations
    and checks that calling fn makes, in the same order, so the values and
    the first EvalDomainError are the same:

    - a compiled expression emits its ``exprlang`` lines, unless expand is
      False: then it stays a call, since code built for one pass over a few
      hundred samples spends more on writing those lines than they save;
    - a PowerFn emits its base ``k + m*t`` and then ``c`` times
      ``exprlang._power`` of it, from its float fields, or ``0.0`` when c
      is zero, as its ``__call__`` does;
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
                self.lines += [f"{name}0 = {k} + {m} * t",
                               f"{name} = {c} * {_power(self.namespace, name + '0', e)}"]
                return name
            if isinstance(getattr(fn, "value", None), float):
                return self.slot(fn.value)
            tree = getattr(fn, "tree", None)
            if tree is not None and self.expand:
                lines, result = _generate(tree, self.namespace, name)
                self.lines += lines
                return result
        self.calls = True
        self.lines.append(f"{name} = {self.slot(fn)}(t)")
        return name

    def power(self, x: str, p: float, name: str) -> str:
        """real_power(x, p), as the line that leaves it in name."""
        self.lines.append(f"{name} = {_power(self.namespace, x, self.slot(p))}")
        return name

    def define(self, source: str, name: str):
        """The function name that source defines, run in this namespace;
        source is the caller's template with these lines written into it."""
        return _define(source, name, self.namespace, "<inliner>")

    def rhs(self, slopes):
        """rhs(t, y): unpack y to x0 ..., run the lines, return the slopes.
        It carries its stage body (lines, slopes, namespace) as
        ``stage_body``, which ``integrate`` writes into each stage.  With a
        call among the values, the slopes pass through ``integrate``'s
        ``_reals`` check, so another type converts, or fails, as there."""
        from .numerics import _reals

        n = len(slopes)
        if self.calls:
            names = [f"_k{c}" for c in range(n)]
            self.lines.append(f"[{', '.join(names)}] = "
                              f"_reals(({''.join(s + ', ' for s in slopes)}), {n}, t)")
            slopes = names
        self.namespace["_reals"] = _reals
        body = "".join(f"    {line}\n" for line in self.lines)
        fn = _define(f"def rhs(t, y):\n    [{', '.join(f'x{c}' for c in range(n))}] = y\n"
                     f"{body}    return ({''.join(s + ', ' for s in slopes)})\n",
                     "rhs", self.namespace, "<rhs>")
        fn.stage_body = tuple(self.lines), tuple(slopes), self.namespace
        return fn


def linspace(a: float, b: float, count: int) -> list:
    """count >= 2 floats from a to b: a + i * step, the last one set to b.

    This is numpy.linspace's arithmetic, so the two agree bit for bit."""
    if count < 2:
        raise ValueError(f"linspace needs count >= 2, got {count}")
    a, b = float(a), float(b)
    step = (b - a) / (count - 1)
    return [a + i * step for i in range(count - 1)] + [b]
