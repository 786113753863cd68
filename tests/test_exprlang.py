import functools
import gc
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from emdenlab.exprlang import (
    Bin, Call, EvalDomainError, ExprSyntaxError, Name, Neg, Num,
    MAX_DEPTH, UnboundIdentifierError, UnknownFunctionError,
    compile_fn, derive, free_names, parse, real_power, to_source,
)
from emdenlab import exprlang, solutions
from emdenlab.gauge import ReductionError, reduce_via_particular_solution
from emdenlab.invariants import drift, invariant_from_particular_solution
from emdenlab.numerics import integrate
from emdenlab.problems import EmdenProblem
from emdenlab.timefn import PowerFn, linspace


def ev(src, t=None):
    return compile_fn(src)(t)


class TestParsing:
    def test_literal(self):
        assert parse("2.5") == Num(2.5)
        assert parse("1e-10") == Num(1e-10)
        assert parse(".5") == Num(0.5)

    def test_literal_that_overflows_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError, match="not finite") as ei:
            parse("-(0-t)^1e999")
        assert ei.value.offset == 7
        with pytest.raises(ExprSyntaxError) as ei:
            parse("-1e999")
        assert ei.value.offset == 1
        assert parse("1e308") == Num(1e308)

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2") == -4.0
        assert ev("(-2)^2") == 4.0

    def test_unary_minus_binds_tighter_than_division(self):
        assert ev("-2/t", t=1.0) == -2.0
        assert parse("-2/t") == Bin("/", Neg(Num(2.0)), Name("t"))

    def test_signed_exponent(self):
        assert ev("2^-3") == 0.125

    def test_left_associative_chains(self):
        assert parse("1 - 2 - 3") == Bin("-", Bin("-", Num(1.0), Num(2.0)), Num(3.0))
        assert ev("100/10/5") == 2.0

    def test_lane_emden_profile(self):
        assert ev("(1+t^2/3)^(-1/2)", t=0.0) == 1.0
        t = 2.0
        assert ev("(1+t^2/3)^(-1/2)", t=t) == pytest.approx((1 + t * t / 3) ** -0.5, rel=1e-15)

    def test_functions(self):
        assert ev("exp(0)") == 1.0
        assert ev("pow(2, 10)") == 1024.0
        assert ev("abs(-3)") == 3.0
        assert ev("sqrt(t)", t=9.0) == 3.0

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2t")

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("1 + $")
        assert ei.value.offset == 4
        with pytest.raises(ExprSyntaxError) as ei:
            parse("1 + (2 * ")
        assert ei.value.offset == 9

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("tan(t)")

    def test_arity_checked(self):
        with pytest.raises(ExprSyntaxError):
            parse("pow(2)")
        with pytest.raises(ExprSyntaxError):
            parse("exp(1, 2)")

    @pytest.mark.parametrize("src, offset", [
        ("-1" + "+t-t" * 750, 128),  # the chain's 64th operator
        ("(" * 400 + "-1" + ")" * 400, 64),  # the 65th parenthesis
        ("-" * 300 + "1", 64),
        ("2^" * 300 + "2", 129),
        ("exp(" * 200 + "t" + ")" * 200, 256),
        ("-(" + "t" + "+t" * 63 + ")", 0),
    ])
    def test_nesting_past_the_bound_is_a_syntax_error_at_its_offset(self, src, offset):
        with pytest.raises(ExprSyntaxError, match=f"nested more than {MAX_DEPTH} levels") as ei:
            parse(src)
        assert ei.value.offset == offset

    def test_moderate_nesting_compiles(self):
        for src in ["(" * 30 + "-1" + ")" * 30 + "+t-t" * 16,
                    "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
                    "t" + "+t" * (MAX_DEPTH - 1) + "-t"]:
            tree = parse(src)
            assert parse(to_source(tree)) == tree
            assert compile_fn(tree)(2.0) == _reference_eval(tree, 2.0)


class TestEvaluation:
    def test_constants_bound_at_eval(self):
        # a literal sits in a slot, so texts that differ only in numbers
        # share one compiled code and still give their own values
        assert ev("2*t", t=3.0) == 6.0
        before = exprlang._code.cache_info()
        assert ev("2.5*t", t=3.0) == 7.5
        after = exprlang._code.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1

    def test_unbound_identifier(self):
        with pytest.raises(UnboundIdentifierError):
            ev("K + 1")

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ev("-2/t", t=0.0)

    def test_division_evaluates_its_right_operand_first(self):
        # log(-1) would fail first if the left operand were evaluated first
        with pytest.raises(EvalDomainError, match="division by zero"):
            ev("log(0-1)/(t-t)", t=1.0)
        with pytest.raises(EvalDomainError, match="log of nonpositive"):
            ev("(t-t)/log(0-1)", t=1.0)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            ev("log(t)", t=-1.0)
        with pytest.raises(EvalDomainError):
            ev("log(0)")

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            ev("sqrt(-1)")

    def test_power_domain(self):
        with pytest.raises(EvalDomainError):
            ev("0^-1")
        with pytest.raises(EvalDomainError):
            ev("(-2)^(1/2)")
        assert ev("(-2)^3") == -8.0

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvalDomainError):
            ev("exp(1000)")
        with pytest.raises(EvalDomainError):
            ev("10^400")
        for src, what in [("1e300*1e300", "product"), ("1e308 + 1e308", "sum"),
                          ("0 - 1e308 - 1e308", "difference"), ("1e300/1e-300", "quotient")]:
            with pytest.raises(EvalDomainError, match=f"^{what} is not finite$"):
                ev(src)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("src, what", [
        ("t + 1", "sum"), ("1 + t", "sum"), ("t + t", "sum"), ("0 - t", "difference"),
        ("t - 1", "difference"), ("2*t", "product"), ("t*t", "product"),
        ("t/2", "quotient"), ("t/t", "quotient")])
    def test_a_non_finite_operand_is_an_error(self, src, what, t):
        # the guard is a - a != 0.0, which holds for inf and NaN alike
        with pytest.raises(EvalDomainError, match=f"^{what} is not finite$"):
            ev(src, t)

    def test_a_finite_quotient_of_an_infinite_t_is_a_value(self):
        assert ev("1/t", math.inf).hex() == "0x0.0p+0"
        assert ev("1/t", -math.inf).hex() == "-0x0.0p+0"
        with pytest.raises(EvalDomainError, match="^quotient is not finite$"):
            ev("1/t", math.nan)

    def test_compile_fn_matches_reference(self):
        f = compile_fn("exp(-2*t) * (1 + t^2/3)^(-1/2)")
        e = parse("exp(-2*t) * (1 + t^2/3)^(-1/2)")
        for t in [0.0, 0.3, 1.7, 9.0]:
            assert f(t) == _reference_eval(e, t)

    def test_compile_fn_binds_eagerly(self):
        with pytest.raises(UnboundIdentifierError):
            compile_fn("K*t")
        f = compile_fn("-1.5*t")
        assert f(2.0) == -3.0

    def test_names_like_generated_identifiers_are_unbound(self):
        # the generated code's own names are not visible to an expression
        for name in ["_E", "_f", "_fn", "_v0", "_r0", "_pow", "_mpow", "_Err"]:
            with pytest.raises(UnboundIdentifierError, match=name):
                compile_fn(f"{name}*t + 1")

    def test_each_compile_gives_its_own_function(self):
        f, g = compile_fn("2*t"), compile_fn("2*t")
        assert f is not g
        f.expression_text = "2*t"
        assert not hasattr(g, "expression_text")
        h = compile_fn("3*t")
        assert (f(1.0), h(1.0)) == (2.0, 3.0)

    def test_free_names(self):
        assert free_names(parse("K*t + exp(c*t)")) == {"K", "t", "c"}


class TestDerive:
    @pytest.mark.parametrize("src, want", [
        ("3", lambda t: 0.0),
        ("1.75*t", lambda t: 1.75),
        ("-t^2", lambda t: -2.0 * t),
        ("t - 1/t", lambda t: 1.0 + 1.0 / t ** 2),
        ("t/(1 + t)", lambda t: 1.0 / (1.0 + t) ** 2),
        ("(t - 3)^2", lambda t: 2.0 * (t - 3.0)),
        ("(2*t)^(-1/2)", lambda t: -((2.0 * t) ** -1.5)),
        ("pow(t, 3)", lambda t: 3.0 * t * t),
        ("t^t", lambda t: t ** t * (math.log(t) + 1.0)),
        ("pow(2, t)", lambda t: 2.0 ** t * math.log(2.0)),
        ("exp(2*t)", lambda t: 2.0 * math.exp(2.0 * t)),
        ("log(t)", lambda t: 1.0 / t),
        ("sin(t)", math.cos),
        ("cos(t)", lambda t: -math.sin(t)),
        ("sqrt(t)", lambda t: 0.5 / math.sqrt(t)),
        ("abs(t - 3)", lambda t: math.copysign(1.0, t - 3.0)),
    ])
    def test_each_form(self, src, want):
        df = compile_fn(derive(parse(src)))
        for t in (0.5, 1.3, 4.0):
            assert df(t) == pytest.approx(want(t), rel=1e-14, abs=1e-300)

    def test_constants_and_leading_terms_drop_out(self):
        assert derive(parse("K + 2")) == Num(0.0)
        assert to_source(derive(parse("3*t + K"))) == "3.0"
        assert to_source(derive(parse("1 - t"))) == "-1.0"

    def test_deriv_is_compiled_once_and_survives_wrapping(self):
        f = compile_fn("2*t^3")
        assert f.deriv() is f.deriv()
        assert f.deriv()(2.0) == 24.0
        assert f.deriv().deriv()(2.0) == 24.0
        wrapped = functools.wraps(f)(lambda t: f(t))
        assert wrapped.deriv() is f.deriv()

    def test_second_derivative_of_a_tower_stays_proportional_to_it(self):
        # derived trees share subtrees; differentiating each shared node
        # once keeps derive(derive(e)) near the tree's size (25,008 distinct
        # nodes when every meeting re-derived it)
        def distinct(node, seen):
            if id(node) not in seen:
                seen.add(id(node))
                for child in (getattr(node, "arg", None), getattr(node, "left", None),
                              getattr(node, "right", None), *getattr(node, "args", ())):
                    if child is not None:
                        distinct(child, seen)
            return len(seen)

        tower = parse("^".join(["t"] * 64))
        assert distinct(tower, set()) == 127
        assert distinct(derive(derive(tower)), set()) < 20 * 127

    def test_undefined_derivative_raises_on_evaluation(self):
        for src, t in (("sqrt(t)", 0.0), ("abs(t)", 0.0), ("t^t", -1.0)):
            with pytest.raises(EvalDomainError):
                compile_fn(src).deriv()(t)


class TestRealPower:
    def test_integer_exponents_allow_negative_base(self):
        assert real_power(-2.0, 2.0) == 4.0
        assert real_power(-2.0, 3.0) == -8.0

    def test_zero_rules(self):
        assert real_power(0.0, 5.0) == 0.0
        assert real_power(0.0, 0.0) == 1.0
        with pytest.raises(EvalDomainError):
            real_power(0.0, -1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_a_base_that_is_not_a_real_number_is_named(self, x):
        with pytest.raises(EvalDomainError, match=rf"^pow\({x!r}, 6\.0\): the base is not a real"):
            real_power(x, 6.0)

    @pytest.mark.parametrize("x, p", [(-2.0, math.nan), (2.0, math.nan), (0.0, math.nan),
                                      (-2.0, math.inf)])
    def test_an_exponent_that_is_not_a_real_number_is_named(self, x, p):
        with pytest.raises(EvalDomainError, match=rf"^pow\({x!r}, {p!r}\): the exponent is not a real"):
            real_power(x, p)

    def test_a_zero_power_of_nan_is_one_as_ieee_pow_gives(self):
        assert real_power(math.nan, 0.0) == 1.0


# ---------------------------------------------------------------------------
# inline powers and folded constants

# the perfbench trajectory-drift profiles, as problem files spell them
_PROFILE_TEXTS = ["(2*t)^(-1/2)", "4*(t+1)^(-2)", "2^(-1/2)*(t+1)^(-1/4)",
                  "3^(-1/3)*(t+1)^(-1/3)", "(1/2)*(1+t/2)^(-1/2)"]


def _guarded(p):
    """x -> the guarded line that generated code writes for x^p."""
    namespace = exprlang._namespace()
    line = exprlang._power(namespace, "x", exprlang._slot(namespace, p))
    return exprlang._define(f"def _g(x):\n    return {line}\n", "_g", namespace, "<test>")


class TestInlinePowers:
    @pytest.mark.parametrize("p", [2.0, 5.0, 0.5, -0.5, -1 / 3, -3.0, 0.0, 1e-300, 1e300,
                                   -1e300])
    def test_the_guarded_line_is_real_power_bit_for_bit(self, p):
        lo, hi = exprlang._power_range(p)
        points = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 1e-3, 0.5, 1.0, 1.5, 3.0,
                  1e3, lo + 1.0, hi / 2.0 if hi < math.inf else 2.0 * lo + 1.0]
        for edge in (lo, hi):
            points += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        guarded = _guarded(p)
        for x in points:
            try:
                want = real_power(x, p)
            except EvalDomainError as exc:
                with pytest.raises(EvalDomainError) as got:
                    guarded(x)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc)), x
            else:
                assert guarded(x).hex() == want.hex(), x

    @pytest.mark.parametrize("p", [float(k) for k in range(-3, 6)])
    def test_a_negative_base_under_an_integer_exponent_is_real_power_bit_for_bit(self, p):
        lo, hi = exprlang._power_range(p)
        points = [-0.0, -5e-324, -1e-300, -1e-200, -1e-100, -0.5, -1.0, -1.5, -3.0, -1e3,
                  -1e100, -1e200, -1e300, -sys.float_info.max, -math.inf]
        for edge in (-lo, -hi):
            points += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        guarded = _guarded(p)
        for x in points:
            try:
                want = real_power(x, p)
            except EvalDomainError as exc:
                with pytest.raises(EvalDomainError) as got:
                    guarded(x)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc)), x
            else:
                assert guarded(x).hex() == want.hex(), x

    def test_a_negative_base_under_an_integer_exponent_is_inline(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exprlang, "real_power", lambda x, p: calls.append(x) or 0.0)
        cube = _guarded(3.0)
        assert cube(-1.5) == -3.375 and cube(-1e-3) == math.pow(-1e-3, 3.0)
        assert calls == []
        assert _guarded(0.5)(-1.5) == 0.0 and calls == [-1.5]  # a fractional exponent calls it

    @pytest.mark.parametrize("src", _PROFILE_TEXTS + ["t + 1/0", "t*0^(-1)", "sin(1/2)*t^3",
                                                      "(t - 2*3)/(4 - 2^2)"])
    def test_a_folded_namespace_holds_only_the_slots_its_text_reads(self, src):
        tree = parse(src)
        for expr in (tree, derive(tree), derive(derive(tree))):
            namespace = exprlang._namespace()
            lines, result = exprlang._generate(expr, namespace)
            read = set(re.findall(r"_v\d+", "\n".join(lines + [result])))
            assert {name for name in namespace if name.startswith("_v")} == read

    def test_folding_keeps_no_intermediate_constant(self):
        namespace = exprlang._namespace()
        exprlang._generate(parse("2^(-1/2)*(t+1)^(-1/4)"), namespace)
        # 1, -1/4, the power's range and 2^(-1/2), not 2, 1, 2, 1/2, -1/2, 1, 4 and 1/4
        assert sorted(v for k, v in namespace.items() if k.startswith("_v")) == [
            -0.25, 0.0, 2 ** -0.5, 1.0, math.inf]

    def test_constant_factors_fold(self):
        src = "2^(-1/2)*(t+1)^(-1/4)"
        lines, _ = exprlang._generate(parse(src), exprlang._namespace())
        powers = [line for line in lines if "_pow(" in line]
        assert len(powers) == 1 and "_mpow(" in powers[0]  # (t+1)^(-1/4), guarded
        fn, tree = compile_fn(src), parse(src)
        for t in linspace(-0.9, 9.0, 50):
            assert fn(t).hex() == _reference_eval(tree, t).hex()

    @pytest.mark.parametrize("src, message", [("t + 1/0", "division by zero"),
                                              ("t*0^(-1)", "0 raised to a negative power")])
    def test_a_constant_that_fails_fails_when_called(self, src, message):
        fn = compile_fn(src)
        with pytest.raises(EvalDomainError, match=f"^{message}$"):
            fn(1.0)

    @pytest.mark.parametrize("src", _PROFILE_TEXTS)
    def test_profile_derivatives_agree_with_the_unfolded_walk(self, src):
        fn, tree = compile_fn(src), parse(src)
        for d, d_tree in ((fn.deriv(), derive(tree)), (fn.deriv().deriv(), derive(derive(tree)))):
            for t in linspace(0.5, 5.0, 50):
                assert d(t).hex() == _reference_eval(d_tree, t).hex()


def test_generated_code_calls_real_power_for_no_known_exponent(monkeypatch):
    # patched before anything is built, so every generated namespace binds
    # the counter as _pow: a generator that writes a bare _pow line for a
    # power whose exponent it knows shows up here, on runs whose bases are
    # positive and finite
    calls = []

    def counted(x, p):
        calls.append((x, p))
        return real_power(x, p)

    monkeypatch.setattr(exprlang, "real_power", counted)
    for entry in solutions.catalog.__wrapped__():
        if not entry.slope_compatible:
            continue
        (t0, t1), n = entry.window, entry.problem.n
        text = EmdenProblem(compile_fn(entry.problem.a.to_source()), -1.0, n)
        for prob, xp, dxp in ((entry.problem, entry.xp, entry.dxp),
                              (text, compile_fn(entry.xp.to_source()), None)):
            traj = integrate(prob.rhs, t0, (1.01 * entry.xp(t0), entry.dxp(t0)), t1)
            drift(invariant_from_particular_solution(prob, xp, (t0, t1), dxp=dxp), traj)
    assert calls == []


# ---------------------------------------------------------------------------
# property tests

def _reference_eval(expr, t):
    # independent direct recursion, deliberately written fresh
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        return t
    if isinstance(expr, Neg):
        return -_reference_eval(expr.arg, t)
    if isinstance(expr, Bin):
        a = _reference_eval(expr.left, t)
        b = _reference_eval(expr.right, t)
        return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: a / b, "^": lambda: math.pow(a, b)}[expr.op]()
    if isinstance(expr, Call):
        args = [_reference_eval(x, t) for x in expr.args]
        return {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
                "sqrt": math.sqrt, "abs": abs, "pow": math.pow}[expr.fn](*args)
    raise TypeError


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda v: Num(round(v, 3))),
    st.just(Name("t")),
    st.just(Num(1.75)),
)


def _branch(children):
    unary = children.map(Neg)
    calls = st.tuples(st.sampled_from(["exp", "log", "sin", "cos", "sqrt", "abs"]), children).map(
        lambda p: Call(p[0], (p[1],)))
    binop = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda p: Bin(p[0], p[1], p[2]))
    powc = st.tuples(children, children).map(lambda p: Call("pow", p))
    return st.one_of(unary, binop, calls, powc)


_exprs = st.recursive(_leaf, _branch, max_leaves=20)


@settings(max_examples=300, derandomize=True)
@given(_exprs)
def test_print_parse_round_trip(expr):
    assert parse(to_source(expr)) == expr


@settings(max_examples=300, derandomize=True)
@given(_exprs, st.floats(min_value=0.1, max_value=4.0, allow_nan=False))
def test_eval_matches_reference_recursion_exactly(expr, t):
    fn = compile_fn(expr)
    try:
        mine = fn(t)
    except EvalDomainError:
        return  # reference would raise or leave the reals here; nothing to compare
    # anything other than EvalDomainError propagates and fails the test
    # 0 ULP: the generated code performs the walk's float operations in order,
    # so even the sign of a zero agrees
    assert mine.hex() == _reference_eval(expr, t).hex()


_small_exprs = st.recursive(_leaf, _branch, max_leaves=8)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_small_exprs, st.floats(min_value=0.5, max_value=3.0))
def test_derive_agrees_with_central_differences(expr, t):
    d = derive(expr)
    assert parse(to_source(d)) == d
    f, df = compile_fn(expr), compile_fn(d)

    def stencil(h):  # fourth-order central difference
        return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)

    try:
        got, coarse, fine = df(t), stencil(1e-3), stencil(5e-4)
        scale = max(1.0, abs(f(t)), abs(fine))
    except (EvalDomainError, OverflowError):
        return  # a side leaves the reals near t; nothing to compare
    if abs(coarse - fine) > 1e-7 * scale:
        return  # a pole, kink or domain edge within the stencil
    assert abs(got - fine) <= 1e-6 * scale, (to_source(expr), to_source(d))


def test_round_trip_on_seeded_source_corpus():
    rng = random.Random(20260819)

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["t", "K", "2", "3.5", "0.25"])
        kind = rng.randrange(4)
        if kind == 0:
            return f"({gen(depth - 1)} {rng.choice('+-')} {gen(depth - 1)})"
        if kind == 1:
            return f"{gen(depth - 1)}{rng.choice('*/')}{rng.choice(['t', '2', 'K'])}"
        if kind == 2:
            return f"-{gen(depth - 1)}"
        return f"{rng.choice(['t', '2', 'K'])}^{rng.choice(['2', '3', '-1'])}"

    for _ in range(200):
        src = gen(4)
        tree = parse(src)
        assert parse(to_source(tree)) == tree


_DRAG = EmdenProblem(PowerFn(-2, 0, 1, -1), -1.0, 5)
_PROFILE = PowerFn(1, 0, 2, Fraction(-1, 2))
_TRAJ = integrate(_DRAG.rhs, 5.0, (0.3, -0.05), 0.5)


@pytest.mark.parametrize("make", [
    lambda: compile_fn("2*sin(t)^3 / (1 + t)"),
    lambda: compile_fn("2*sin(t)^3 / (1 + t)").deriv(),
    lambda: derive(parse("exp(-t) * log(2 + t^2) / (1 + t)")),
    lambda: EmdenProblem(compile_fn("-2/t"), compile_fn("-1 - t^2"), 5).rhs,
    lambda: reduce_via_particular_solution(_DRAG, compile_fn("(2*t)^(-1/2)"), (0.5, 5.0)),
    lambda: drift(invariant_from_particular_solution(_DRAG, _PROFILE, (0.5, 5.0)), _TRAJ),
    lambda: _TRAJ.states(linspace(5.0, 0.5, 50)),
], ids=["compile_fn", "deriv", "derive", "problem-rhs", "reduction", "invariant-drift",
        "states"])
def test_generation_leaves_nothing_for_the_collector(make):
    # what compiling and differentiating build is freed when the last
    # reference goes, not kept in a reference cycle until a collection
    make()  # the first call fills the code caches
    gc.collect()
    gc.disable()
    try:
        make()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reductions_and_invariants_compile_once_per_form():
    # numbers reach the generated samplers and evaluator through slots, so a
    # second call on functions of the same form compiles nothing
    def build(k):
        # k divides: derive drops a factor of one, so k*... would change the texts
        xp = compile_fn(f"(2*t)^(-1/2) / {k}")
        inv = invariant_from_particular_solution(_DRAG, xp, (0.5, 5.0), dxp=xp.deriv())
        return reduce_via_particular_solution(_DRAG, _PROFILE.scaled(k), (0.5, 5.0)), inv

    build(1)
    before = exprlang._code.cache_info()
    build(1)
    with pytest.raises(ReductionError):
        build(2)  # a scaled profile breaks slope compatibility, after the same code ran
    after = exprlang._code.cache_info()
    # build(1) reads six texts: the profile, its two derivatives, the
    # invariant's sampler and evaluator and the reduction's sampler; build(2)
    # stops after the first four
    assert after.misses == before.misses and after.hits == before.hits + 6 + 4
