"""The two equation forms the analyses run on.

``EmdenProblem`` is  x'' = a(t) x' + b(t) x^n  and ``GeneralizedProblem`` is
x'' = -p(t) x' - q(t) x + r(t) x^n, both first-order in z = (x, v).  They
live apart from the transforms in ``gauge`` so that reading a problem file
loads only what building a problem needs.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from .exprlang import Neg, compile_fn
from .numerics import _compiled_rhs
from .timefn import ZERO_FN, Inliner, PowerFn, TimeFn, as_timefn

__all__ = ["EmdenProblem", "GeneralizedProblem"]


class EmdenProblem:
    """x'' = a(t) x' + b(t) x^n, first-order in z = (x, v)."""

    def __init__(self, a: TimeFn, b: TimeFn, n: float,
                 singular_points: Tuple[float, ...] = ()):
        self.a, self.b, self.n = as_timefn(a), as_timefn(b), float(n)
        self.singular_points = tuple(float(s) for s in singular_points)
        if abs(self.n - 1.0) < 1e-12:
            raise ValueError("exponent n = 1 is the linear case; not handled here")

    @functools.cached_property
    def rhs(self):
        """z' at (t, z), generated from the stage body that
        ``numerics.integrate`` inlines; built on first use."""
        src = Inliner()
        a, b = src.value(self.a, "_a"), src.value(self.b, "_b")
        w = src.power("x0", self.n, "_w")
        return _compiled_rhs(src.body(("x1", f"{a} * x1 + {b} * {w}")))

    def as_generalized(self) -> "GeneralizedProblem":
        return GeneralizedProblem(
            p=_negated(self.a), q=None, r=self.b, n=self.n,
            singular_points=self.singular_points,
        )


class GeneralizedProblem:
    """x'' = -p(t) x' - q(t) x + r(t) x^n.  q=None means exactly zero."""

    def __init__(self, p: TimeFn, q: Optional[TimeFn], r: TimeFn, n: float,
                 singular_points: Tuple[float, ...] = ()):
        self.p = as_timefn(p)
        q = None if q is None else as_timefn(q)
        self.q = None if q is ZERO_FN else q
        self.r, self.n = as_timefn(r), float(n)
        self.singular_points = tuple(float(s) for s in singular_points)
        if abs(self.n - 1.0) < 1e-12:
            raise ValueError("exponent n = 1 is the linear case; not handled here")

    @functools.cached_property
    def rhs(self):
        """z' at (t, z), generated from the stage body that
        ``numerics.integrate`` inlines; built on first use."""
        src = Inliner()
        p, r = src.value(self.p, "_p"), src.value(self.r, "_r")
        acc = f"-{p} * x1 + {r} * {src.power('x0', self.n, '_w')}"
        if self.q is not None:
            acc += f" - {src.value(self.q, '_q')} * x0"
        return _compiled_rhs(src.body(("x1", acc)))

    def as_emden(self) -> EmdenProblem:
        if self.q is not None:
            raise ValueError("has a linear restoring term; not of the two-slot form")
        return EmdenProblem(
            a=_negated(self.p), b=self.r, n=self.n, singular_points=self.singular_points
        )


def _negated(fn: TimeFn) -> TimeFn:
    """t -> -fn(t), kept inlinable where fn is: a PowerFn scales by -1, and a
    compiled expression compiles Neg of its tree, which gives the same float."""
    if isinstance(fn, PowerFn):
        return fn.scaled(-1)
    if getattr(fn, "tree", None) is not None and getattr(fn, "__wrapped__", None) is None:
        return compile_fn(Neg(fn.tree), fn.constants)
    return lambda t, _fn=fn: -_fn(t)
