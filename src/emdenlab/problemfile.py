"""Plain key=value problem files for the command-line tools.

One key per line, ``#`` starts a comment, order is free:

    kind = emden            # or "generalized"
    n = 5
    a = -2/t                # emden takes a, b; generalized takes p, q, r
    b = -1
    singular_points = 0     # comma-separated, optional
    interval = 0.5, 5
    x0 = 1.3
    v0 = -0.2
    rel_tol = 1e-10         # optional integrator tolerances
    abs_tol = 1e-12

Coefficients are expression strings in the single variable t.  Files are
validated eagerly: expressions must parse and bind, every number must be
finite, tolerances must be positive (and rel_tol below 1), and the
integration interval must stay clear of every declared singular point.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, Union

from . import UnusableInput
from .exprlang import ExprError, compile_fn, free_names, parse
from .problems import EmdenProblem, GeneralizedProblem
from .timefn import TimeFn

__all__ = [
    "SpecError",
    "ProblemSpec",
    "compile_expression",
    "parse_spec",
    "load_spec",
    "render_spec",
]


class SpecError(ValueError, UnusableInput):
    """A problem file is malformed or self-inconsistent."""


def _expression_tree(src: str, what: str):
    """Parse an expression of t, rejecting unbound names; compiles nothing."""
    shown = repr(src if len(src) <= 60 else src[:60] + "...")  # errors echo only the start
    try:
        tree = parse(src)
    except ExprError as exc:
        raise SpecError(f"{what} {shown} does not parse: {exc}") from exc
    stray = free_names(tree) - {"t"}
    if stray:
        raise SpecError(
            f"{what} {shown} uses unbound identifier(s) {sorted(stray)}; only t is available"
        )
    return tree


def compile_expression(src: str, what: str = "expression") -> TimeFn:
    """Parse an expression of t into a callable, rejecting unbound names."""
    fn = compile_fn(_expression_tree(src, what))
    fn.expression_text = src  # type: ignore[attr-defined]
    return fn


_KIND_KEYS = {
    "emden": ("a", "b"),
    "generalized": ("p", "q", "r"),
}
_COMMON_KEYS = (
    "kind",
    "n",
    "singular_points",
    "interval",
    "x0",
    "v0",
    "rel_tol",
    "abs_tol",
)


def _parse_float(key: str, text: str, positive: bool = False) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise SpecError(f"{key} = {text!r} is not a number") from exc
    if not math.isfinite(value):
        raise SpecError(f"{key} = {text!r} is not finite")
    if positive and value <= 0.0:
        raise SpecError(f"{key} = {text!r} must be positive")
    return value


def _parse_float_list(key: str, text: str) -> Tuple[float, ...]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        return ()
    return tuple(_parse_float(key, part) for part in body.split(","))


class ProblemSpec:
    """A parsed problem file; ``build`` produces the runnable problem."""

    __slots__ = ("kind", "n", "expressions", "singular_points", "interval", "initial",
                 "rel_tol", "abs_tol")

    def __init__(self, kind: str, n: float, expressions: Dict[str, str],
                 singular_points: Tuple[float, ...], interval: Tuple[float, float],
                 initial: Tuple[float, float], rel_tol: float, abs_tol: float):
        self.kind, self.n, self.expressions = kind, n, expressions
        self.singular_points, self.interval, self.initial = singular_points, interval, initial
        self.rel_tol, self.abs_tol = rel_tol, abs_tol

    def coefficient(self, key: str) -> TimeFn:
        return compile_expression(self.expressions[key], f"coefficient {key}")

    def config(self):
        """The file's tolerances as an ``IntegratorConfig``."""
        from .numerics import IntegratorConfig

        return IntegratorConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def build(self) -> Union[EmdenProblem, GeneralizedProblem]:
        if self.kind == "emden":
            return EmdenProblem(
                a=self.coefficient("a"),
                b=self.coefficient("b"),
                n=self.n,
                singular_points=self.singular_points,
            )
        return GeneralizedProblem(
            p=self.coefficient("p"),
            q=self.coefficient("q") if "q" in self.expressions else None,
            r=self.coefficient("r"),
            n=self.n,
            singular_points=self.singular_points,
        )

    def build_emden(self) -> EmdenProblem:
        """The two-slot form, converting a generalized problem without q."""
        prob = self.build()
        if isinstance(prob, EmdenProblem):
            return prob
        try:
            return prob.as_emden()
        except ValueError as exc:
            raise SpecError(str(exc)) from exc


def parse_spec(text: str) -> ProblemSpec:
    entries: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise SpecError(f"line {lineno}: no value for {key!r}")
        if key in entries:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    kind = entries.pop("kind", None)
    if kind not in _KIND_KEYS:
        raise SpecError(f"kind must be one of {sorted(_KIND_KEYS)}, got {kind!r}")

    coeff_keys = _KIND_KEYS[kind]
    expressions: Dict[str, str] = {}
    for key in coeff_keys:
        if key in entries:
            expressions[key] = entries.pop(key)
            _expression_tree(expressions[key], f"coefficient {key}")
    required = [k for k in coeff_keys if k != "q"]
    missing = [k for k in required if k not in expressions]
    if missing:
        raise SpecError(f"kind = {kind} needs coefficient(s) {missing}")

    known = set(_COMMON_KEYS)
    stray = set(entries) - known
    if stray:
        raise SpecError(f"unknown key(s) {sorted(stray)} for kind = {kind}")

    for key in ("n", "interval", "x0", "v0"):
        if key not in entries:
            raise SpecError(f"missing required key {key!r}")

    n = _parse_float("n", entries["n"])
    interval = _parse_float_list("interval", entries["interval"])
    if len(interval) != 2:
        raise SpecError(f"interval needs exactly two endpoints, got {list(interval)}")
    t0, t1 = interval
    if not t0 < t1:
        raise SpecError(f"interval [{t0:g}, {t1:g}] must run forward")

    singular = _parse_float_list("singular_points", entries.get("singular_points", ""))
    for s in singular:
        if t0 <= s <= t1:
            raise SpecError(
                f"interval [{t0:g}, {t1:g}] must exclude the declared singular "
                f"point t = {s:g}"
            )

    initial = (_parse_float("x0", entries["x0"]), _parse_float("v0", entries["v0"]))
    rel_tol = _parse_float("rel_tol", entries.get("rel_tol", "1e-10"), positive=True)
    if rel_tol >= 1.0:
        raise SpecError(f"rel_tol = {entries['rel_tol']!r} must be below 1")
    abs_tol = _parse_float("abs_tol", entries.get("abs_tol", "1e-12"), positive=True)

    return ProblemSpec(
        kind=kind,
        n=n,
        expressions=expressions,
        singular_points=singular,
        interval=(t0, t1),
        initial=initial,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


def load_spec(path) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read problem file {path!r}: {exc}") from exc
    try:
        return parse_spec(text)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def render_spec(spec: ProblemSpec) -> str:
    """Problem file text that parses back to an equivalent spec."""
    lines = [f"kind = {spec.kind}", f"n = {spec.n:.17g}"]
    for key in _KIND_KEYS[spec.kind]:
        if key in spec.expressions:
            lines.append(f"{key} = {spec.expressions[key]}")
    if spec.singular_points:
        lines.append(
            "singular_points = " + ", ".join("%.17g" % s for s in spec.singular_points)
        )
    lines.append("interval = %.17g, %.17g" % spec.interval)
    lines.append("x0 = %.17g" % spec.initial[0])
    lines.append("v0 = %.17g" % spec.initial[1])
    lines.append("rel_tol = %.17g" % spec.rel_tol)
    lines.append("abs_tol = %.17g" % spec.abs_tol)
    return "\n".join(lines) + "\n"
