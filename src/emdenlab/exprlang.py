"""Closed-form scalar functions of time: parsing, compilation, printing.

The language covers numeric literals, the time variable ``t``, unary minus,
the binary operators ``+ - * / ^``, and the functions exp, log, sin, cos,
sqrt, abs and pow.  ``^`` binds tightest and is right-associative, so
``2^3^2`` is 512; unary minus binds more loosely than ``^`` but more tightly
than ``*`` and ``/``, so ``-2^2`` is -4 and ``-2/t`` is (-2)/t.  There is no
implicit multiplication: write ``2*t``, never ``2t``.

Domain violations (log of a nonpositive number, division by zero, a negative
base under a fractional exponent, ...) raise EvalDomainError instead of
producing NaN or a complex value.  ``compile_fn`` turns each expression into
one generated, straight-line Python function of t that makes the same float
operations and checks, in the same order, as a walk of the tree would.
A subtree without ``t`` is computed once, as the source is generated, unless
that fails.  ``derive`` differentiates a tree symbolically, and every compiled
function carries its exact derivative as ``fn.deriv()``.  This module also
owns ``real_power``, the powering rule used across the package.
"""

from __future__ import annotations

import functools
import math
import operator
import re

from . import VerificationFailure

__all__ = [
    "Expr", "Num", "Name", "Neg", "Bin", "Call",
    "ExprError", "ExprSyntaxError", "UnknownFunctionError",
    "UnboundIdentifierError", "EvalDomainError",
    "parse", "to_source", "free_names", "compile_fn", "derive", "real_power",
]


class ExprError(ValueError):
    """Base class for everything this module raises on purpose."""


class ExprSyntaxError(ExprError):
    """Source text could not be parsed; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnknownFunctionError(ExprSyntaxError):
    pass


class UnboundIdentifierError(ExprError):
    pass


class EvalDomainError(ExprError, VerificationFailure):
    pass


# ---------------------------------------------------------------------------
# syntax tree


class Expr:
    """A syntax tree node.  Nodes compare, hash and print by the fields
    named in their ``__slots__``, so equal trees are equal values."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Name(Expr):
    __slots__ = ("id",)

    def __init__(self, id: str):
        self.id = id


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class Bin(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op, self.left, self.right = op, left, right


class Call(Expr):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple):
        self.fn, self.args = fn, args


def real_power(x: float, p: float) -> float:
    """x**p over the reals.

    Negative bases are allowed only for integer exponents, 0**p needs p >= 0.
    Raises EvalDomainError outside that domain, on overflow, and for a base
    or an exponent that is not a real number, so no NaN and no complex value
    ever leaks out.  As IEEE pow does, x**0.0 and 1.0**p are 1.0 for a NaN x
    or p.  No silent PASS follows from that: a NaN state makes the
    integrator's error norm non-finite, so no step with it is accepted, and
    every exponent that a problem file or an expression supplies is finite.
    """
    # generated code calls this only outside _power_range, but hand-written
    # closures call it for every power, so the checks for NaN sit only in
    # branches that real arguments take when they fail
    if x == 0.0:
        if p > 0:
            return 0.0
        if p == 0:
            return 1.0
        raise _not_real(x, p, "exponent") if p != p else EvalDomainError("0 raised to a negative power")
    if x < 0.0:
        try:
            fractional = p != math.floor(p)
        except (OverflowError, ValueError):  # floor of an infinite or NaN p
            raise _not_real(x, p, "exponent") from None
        if fractional:
            raise EvalDomainError(f"negative base {x!r} under non-integer exponent {p!r}")
    try:
        r = math.pow(x, p)
    except (OverflowError, ValueError) as exc:
        raise EvalDomainError(f"pow({x!r}, {p!r}) left the real range") from exc
    if not math.isfinite(r):
        if not math.isfinite(x):
            raise _not_real(x, p, "base")
        if p != p:
            raise _not_real(x, p, "exponent")
        raise EvalDomainError(f"pow({x!r}, {p!r}) overflowed")
    return r


def _not_real(x: float, p: float, part: str) -> EvalDomainError:
    return EvalDomainError(f"pow({x!r}, {p!r}): the {part} is not a real number")


def _power_range(p: float) -> tuple:
    """(lo, hi): for lo < x < hi, x^p < 2^1001, so math.pow(x, p) is finite
    and real, and it is what real_power returns.  Empty for a NaN p."""
    if p != p:
        return 0.0, 0.0
    if p < 0.0:
        return 2.0 ** (1000.0 / p), math.inf
    e = 1000.0 / p if p > 0.0 else math.inf  # for e >= 1024, x^p <= max float^p < 2^1000
    return 0.0, (2.0 ** e if e < 1024.0 else math.inf)


def _power(namespace: dict, x: str, p: str) -> str:
    """The expression real_power(x, p) for a name x and a slot p of
    namespace: math.pow inside ``_power_range`` (lo, hi) of p, and in (-hi, -lo)
    too for an integer p; ``_pow`` outside, so zero, infinite and NaN bases,
    and negative ones under other exponents, keep real_power's errors."""
    p_value = float(namespace[p])
    lo, hi = _power_range(p_value)
    inside = f"{_slot(namespace, lo)} < {x} < {_slot(namespace, hi)}"
    if p_value.is_integer():
        inside += f" or {_slot(namespace, -hi)} < {x} < {_slot(namespace, -lo)}"
    return f"(_mpow({x}, {p}) if {inside} else _pow({x}, {p}))"


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise EvalDomainError(f"exp({x!r}) overflowed") from exc


def _log(x):
    if x <= 0.0:
        raise EvalDomainError(f"log of nonpositive value {x!r}")
    return math.log(x)


def _sqrt(x):
    if x < 0.0:
        raise EvalDomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


FUNCTIONS = {
    "exp": (1, _exp),
    "log": (1, _log),
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "sqrt": (1, _sqrt),
    "abs": (1, abs),
    "pow": (2, real_power),
}


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup == "num":
            out.append(("num", m.group(), pos))
        elif m.lastgroup == "name":
            out.append(("name", m.group(), pos))
        elif m.lastgroup == "op":
            out.append(("op", m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


# Each operator, sign, call and pair of parentheses is one level.  The parser
# recurses up to eight frames per level and the tree walkers up to two, so
# this keeps them well inside Python's default recursion limit of 1000.
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each rule returns (node, levels of nesting in it)."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.open = 0  # levels open at the cursor

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.next()

    def bound(self, depth, pos):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested more than {MAX_DEPTH} levels deep", pos)
        return depth

    def nested(self, rule, pos):
        """rule's (node, depth) one level down; refused before descending past the bound."""
        self.open = self.bound(self.open + 1, pos)
        node, depth = rule()
        self.open -= 1
        return node, self.bound(depth + 1, pos)

    # expr := term (('+' | '-') term)*
    def expr(self):
        node, depth = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                right, d = self.term()
                node, depth = Bin(text, node, right), self.bound(max(depth, d) + 1, pos)
            else:
                return node, depth

    # term := unary (('*' | '/') unary)*
    def term(self):
        node, depth = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                right, d = self.unary()
                node, depth = Bin(text, node, right), self.bound(max(depth, d) + 1, pos)
            else:
                return node, depth

    # unary := '-' unary | power
    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.next()
            arg, depth = self.nested(self.unary, pos)
            return Neg(arg), depth
        return self.power()

    # power := atom ('^' unary)?     right-associative, exponent may be signed
    def power(self):
        node, depth = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.next()
            right, d = self.nested(self.unary, pos)
            return Bin("^", node, right), self.bound(max(depth + 1, d), pos)
        return node, depth

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is not finite", pos)
            return Num(value), 0
        if kind == "name":
            k2, t2, _ = self.peek()
            if k2 == "op" and t2 == "(":
                return self.call(text, pos)
            return Name(text), 0
        if kind == "op" and text == "(":
            return self.nested(self.group, pos)
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def group(self):
        node, depth = self.expr()
        self.expect_op(")")
        return node, depth

    def call(self, fn, pos):
        if fn not in FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {fn!r}", pos)
        self.expect_op("(")
        args, depth = self.nested(self.arguments, pos)
        arity = FUNCTIONS[fn][0]
        if len(args) != arity:
            raise ExprSyntaxError(f"{fn} takes {arity} argument(s), got {len(args)}", pos)
        return Call(fn, args), depth

    def arguments(self):
        args = [self.expr()]
        while True:
            kind, text, p = self.peek()
            if kind == "op" and text == ",":
                self.next()
                args.append(self.expr())
            elif kind == "op" and text == ")":
                self.next()
                return tuple(a for a, _ in args), max(d for _, d in args)
            else:
                raise ExprSyntaxError("expected ',' or ')'", p)


def parse(src: str) -> Expr:
    """Parse source text to a tree.  Syntax errors carry the byte offset;
    nesting deeper than MAX_DEPTH levels is one."""
    p = _Parser(src)
    node, _ = p.expr()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", pos)
    return node


# ---------------------------------------------------------------------------
# compilation

def free_names(expr: Expr) -> set:
    if isinstance(expr, Name):
        return {expr.id}
    if isinstance(expr, Neg):
        return free_names(expr.arg)
    if isinstance(expr, Bin):
        return free_names(expr.left) | free_names(expr.right)
    if isinstance(expr, Call):
        out = set()
        for a in expr.args:
            out |= free_names(a)
        return out
    return set()


def compile_fn(src):
    """Compile source text (or a tree) to a fast callable of t.

    A name other than 't' is refused here, rather than on first call.  Every
    call returns a new function object, so callers may set attributes on it.
    Its ``deriv()`` compiles ``derive`` of the tree on first call and then
    returns that same function; ``fn.tree`` lets a generated caller emit the
    same lines inline (``timefn.Inliner``).
    """
    expr = parse(src) if isinstance(src, str) else src
    missing = free_names(expr) - {"t"}
    if missing:
        raise UnboundIdentifierError(f"unbound identifier(s): {', '.join(sorted(missing))}")
    namespace = _namespace()
    lines, result = _generate(expr, namespace)
    body = "".join(f"    {line}\n" for line in lines)
    fn = _define(f"def _fn(t):\n{body}    return {result}\n", "_fn", namespace, "<exprlang>")
    # function attributes, not methods, so functools.wraps carries them over;
    # the tree lets a generated caller inline the function
    fn.deriv = functools.cache(lambda: compile_fn(derive(expr)))
    fn.tree = expr
    return fn


_FINITE_WHAT = {"+": "sum", "-": "difference", "*": "product"}


def _namespace() -> dict:
    """The helpers that generated lines name, in a fresh namespace."""
    return {"_isfinite": math.isfinite, "_Err": EvalDomainError, "_pow": real_power,
            "_mpow": math.pow}


def _slot(namespace: dict, value) -> str:
    """A new ``_vN`` name bound to value in namespace."""
    name = f"_v{len(namespace)}"
    namespace[name] = value
    return name


@functools.lru_cache(maxsize=256)
def _code(source: str, filename: str):
    """source compiled under filename, once per text (``_define``)."""
    return compile(source, filename, "exec")


def _define(source: str, name: str, namespace: dict, filename: str):
    """The function name that source defines, run in namespace and taken out
    of it, so the two form no cycle; the one way generated code becomes a
    function.  Numbers sit in slots, so a text repeats and compiles once."""
    exec(_code(source, filename), namespace)
    return namespace.pop(name)


def _generate(expr, namespace, prefix="_r"):
    """Straight-line lines that compute expr (whose one name is t) at t, and
    the name of its value.

    The lines name only t, the helpers of ``_namespace()`` and identifiers
    made up here: temporaries ``prefix`` + N, and a ``_vN`` slot added to
    namespace for every number, folded subtree and function that they read.
    """
    gen = _Generator(namespace, prefix)
    return gen.lines, gen.name(gen.walk(expr))


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
         "^": real_power}


class _Generator:
    """One ``_generate`` run.  Its recursion goes through methods, not nested
    functions that name themselves, so no reference cycle keeps the lines and
    the names for the collector.  An operand is t, a temporary, or a ``Num``
    known now, which takes a slot of namespace only where a line reads it."""

    __slots__ = ("namespace", "prefix", "lines", "done")

    def __init__(self, namespace, prefix):
        self.namespace, self.prefix = namespace, prefix
        self.lines = []
        self.done = {}  # id(node) -> its name or Num; a shared subtree is computed once

    def name(self, operand) -> str:
        """The text that reads operand: its name, or a new slot for a Num."""
        return operand if isinstance(operand, str) else _slot(self.namespace, operand.value)

    def fold(self, node, op, *operands):
        """A Num of op of the operands, if they are all known and op gives a
        finite value; else None, and the caller writes the lines."""
        try:
            value = op(*(a.value for a in operands))
        except (AttributeError, ArithmeticError, ValueError):  # AttributeError: a name, not known
            return None
        if math.isfinite(value):
            known = self.done[id(node)] = Num(value)
            return known
        return None

    def emit(self, node, rhs, what=None):
        name = self.done[id(node)] = f"{self.prefix}{len(self.lines)}"
        self.lines.append(f"{name} = {rhs}")
        if what:
            self.lines.append(f"if not _isfinite({name}): raise _Err('{what} is not finite')")
        return name

    def walk(self, node):
        if id(node) in self.done:
            return self.done[id(node)]
        if isinstance(node, Num):
            return node
        if isinstance(node, Name):  # t, the one name compile_fn admits
            return "t"
        if isinstance(node, Neg):
            a = self.walk(node.arg)
            return self.fold(node, operator.neg, a) or self.emit(node, f"-{self.name(a)}")
        if isinstance(node, Bin):
            op = _FOLD[node.op]
            if node.op == "/":
                b = self.walk(node.right)
                if isinstance(b, str) or b.value == 0.0:
                    b = self.name(b)
                    self.lines.append(f"if {b} == 0.0: raise _Err('division by zero')")
                a = self.walk(node.left)
                return self.fold(node, op, a, b) or self.emit(
                    node, f"{self.name(a)} / {self.name(b)}", "quotient")
            a = self.walk(node.left)
            b = self.walk(node.right)
            if node.op == "^":  # inline where the exponent is a known number
                return self.fold(node, op, a, b) or self.emit(node, f"_pow({self.name(a)}, {b})"
                    if isinstance(b, str) else _power(self.namespace, self.name(a), self.name(b)))
            return self.fold(node, op, a, b) or self.emit(
                node, f"{self.name(a)} {node.op} {self.name(b)}", _FINITE_WHAT[node.op])
        if isinstance(node, Call):
            fn = FUNCTIONS[node.fn][1]
            args = [self.walk(a) for a in node.args]
            return self.fold(node, fn, *args) or self.emit(
                node, f"{_slot(self.namespace, fn)}({', '.join(map(self.name, args))})")
        raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# differentiation

_ZERO, _ONE = Num(0.0), Num(1.0)


def _is(node, value):
    return isinstance(node, Num) and node.value == value


def _add(a, b, op="+"):
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return b if op == "+" else Neg(b)
    return Bin(op, a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    return a if _is(b, 1.0) else Bin("*", a, b)


def _div(a, b):
    return _ZERO if _is(a, 0.0) else Bin("/", a, b)


def _power_rule(e, u, v, du, dv):
    """d/dt of e = u^v; a t-free exponent keeps negative bases in the domain."""
    if _is(dv, 0.0):
        return _mul(_mul(v, Bin("^", u, Bin("-", v, _ONE))), du)
    return _mul(e, _add(_mul(dv, Call("log", (u,))), _mul(v, _div(du, u))))


def derive(expr: Expr) -> Expr:
    """d/dt of expr as a tree, exact to rounding wherever expr is differentiable.

    Every form the parser builds differentiates.  The rules' output is left
    unsimplified, apart from dropping zero terms and zero and one factors;
    where the derivative does not exist (abs at 0, sqrt at 0, ...) the
    compiled derivative raises EvalDomainError.  A node object met twice
    (derived trees share subtrees) is differentiated once, so the
    derivative of a derivative stays proportional to its tree.
    """
    return _derive(expr, {})


def _derive(node: Expr, done: dict) -> Expr:
    """derive of node, memoized in done: id(node) -> (node, its derivative);
    holding node keeps its id unique."""
    hit = done.get(id(node))
    if hit is None:
        hit = done[id(node)] = (node, _rule(node, done))
    return hit[1]


def _rule(expr: Expr, done: dict) -> Expr:
    """d/dt of one node, differentiating its children with ``_derive``."""
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Name):
        return _ONE if expr.id == "t" else _ZERO
    if isinstance(expr, Neg):
        du = _derive(expr.arg, done)
        return du if _is(du, 0.0) else Neg(du)
    if isinstance(expr, Bin):
        u, v = expr.left, expr.right
        du, dv = _derive(u, done), _derive(v, done)
        if expr.op in "+-":
            return _add(du, dv, expr.op)
        if expr.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if expr.op == "/":
            return _div(_add(du, _mul(expr, dv), "-"), v)
        return _power_rule(expr, u, v, du, dv)
    if isinstance(expr, Call):
        u = expr.args[0]
        du = _derive(u, done)
        if expr.fn == "pow":
            return _power_rule(expr, u, expr.args[1], du, _derive(expr.args[1], done))
        outer = {"exp": expr, "log": Bin("/", _ONE, u), "sin": Call("cos", (u,)),
                 "cos": Neg(Call("sin", (u,))), "abs": Bin("/", u, expr),
                 "sqrt": Bin("/", _ONE, Bin("*", Num(2.0), expr))}[expr.fn]  # d fn(u)/du
        return _mul(outer, du)
    raise TypeError(f"not an Expr node: {expr!r}")


# ---------------------------------------------------------------------------
# printing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(expr):
    if isinstance(expr, (Num, Name, Call)):
        return _LEVEL_ATOM
    if isinstance(expr, Neg):
        return _LEVEL_UNARY
    if expr.op in "+-":
        return _LEVEL_ADD
    if expr.op in "*/":
        return _LEVEL_MUL
    return _LEVEL_POW


def to_source(expr: Expr) -> str:
    """Render with minimal parentheses; parse(to_source(e)) == e."""
    def wrap(child, minlevel):
        s = to_source(child)
        return f"({s})" if _level(child) < minlevel else s

    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, Neg):
        return "-" + wrap(expr.arg, _LEVEL_UNARY)
    if isinstance(expr, Call):
        return f"{expr.fn}({', '.join(to_source(a) for a in expr.args)})"
    if expr.op in "+-":
        return f"{wrap(expr.left, _LEVEL_ADD)} {expr.op} {wrap(expr.right, _LEVEL_ADD + 1)}"
    if expr.op in "*/":
        return f"{wrap(expr.left, _LEVEL_MUL)}{expr.op}{wrap(expr.right, _LEVEL_MUL + 1)}"
    # '^' is right-associative: any compound left operand needs parentheses,
    # the right operand may be another power or a signed exponent
    return f"{wrap(expr.left, _LEVEL_ATOM)}^{wrap(expr.right, _LEVEL_UNARY)}"
