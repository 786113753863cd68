"""The problems' right-hand sides inlined into the generated step.

An ``EmdenProblem`` or ``GeneralizedProblem`` ``rhs`` is generated from its
stage body, and ``integrate`` writes that body into each Dormand-Prince stage
when it is given the problem's own ``rhs``.  Any other callable, such as a
lambda around ``prob.rhs``, takes the call path.  The independent references
are ``_old_emden`` and ``_old_generalized``, the right-hand sides as they were
written by hand: the inline run, the call run and the reference run must give
the same mesh, states, dense rows, step counts and errors, bit for bit.
"""

import functools
import math

import pytest

from emdenlab import canonical, exprlang, numerics, problemfile
from emdenlab.canonical import canonical_residual, kummer_liouville
from emdenlab.exprlang import EvalDomainError, real_power
from emdenlab.invariants import drift, invariant_from_particular_solution, rescaled_energy_invariant
from emdenlab.numerics import IntegratorConfig, RhsError, StepEvaluationError, integrate
from emdenlab.problems import EmdenProblem, GeneralizedProblem
from emdenlab.solutions import _decaying_entry, catalog
from emdenlab.timefn import PowerFn, constant

from test_numerics import _hex
from test_readme_examples import SPECS

WITH_Q = """\
kind = generalized
n = 3
p = 1/t
q = 0.5 + sin(t)^2
r = -1
interval = 1, 6
x0 = 0.8
v0 = 0.1
"""

GENERALIZED_NO_Q = """\
kind = generalized
n = 5
p = 2/t
r = 1
interval = 1, 5
x0 = 0.3
v0 = 0
"""


def _spec_case(text):
    spec = problemfile.parse_spec(text)
    return spec.build(), spec.initial, spec.interval, spec.config()


def _cases():
    """(id, problem, z0, (t0, t1), config) for every problem form covered."""
    out = [(name, *_spec_case(text)) for name, text in SPECS.items()]
    out += [(f"generalized-{name}", *_spec_case(text))
            for name, text in (("with-q", WITH_Q), ("no-q", GENERALIZED_NO_Q))]
    le, _, le_interval, le_cfg = _spec_case(SPECS["lane-emden-n5.spec"])
    gen, gen_z0, gen_interval, gen_cfg = _spec_case(GENERALIZED_NO_Q)
    out.append(("negated-emden", le.as_generalized(), (1.3, -0.2), le_interval, le_cfg))
    out.append(("negated-generalized", gen.as_emden(), gen_z0, gen_interval, gen_cfg))
    for entry in catalog():
        z0 = (entry.xp(entry.window[0]) * 1.01, entry.dxp(entry.window[0]))
        out.append((entry.id, entry.problem, z0, entry.window, IntegratorConfig()))
    out.append(("zero-powerfn-and-lambda", EmdenProblem(
        PowerFn(0, 1, 1, -1), lambda t: -1.0 - 0.1 * t, 3), (1.0, 0.0), (0.5, 4.0),
        IntegratorConfig()))
    return out


CASES = _cases()


def _old_emden(prob):
    """EmdenProblem.rhs as it was written by hand before it was generated."""
    return lambda t, z: (z[1], prob.a(t) * z[1] + prob.b(t) * real_power(z[0], prob.n))


def _old_generalized(prob):
    """GeneralizedProblem.rhs as it was written by hand before it was generated."""
    def rhs(t, z):
        x, v = z
        acc = -prob.p(t) * v + prob.r(t) * real_power(x, prob.n)
        if prob.q is not None:
            acc -= prob.q(t) * x
        return (v, acc)

    return rhs


def _old_rhs(prob):
    return _old_emden(prob) if isinstance(prob, EmdenProblem) else _old_generalized(prob)


def _both(prob, z0, t0, t1, cfg):
    inline = integrate(prob.rhs, t0, z0, t1, cfg)
    called = integrate(lambda t, z: prob.rhs(t, z), t0, z0, t1, cfg)
    return inline, called


def _all_three(prob, z0, t0, t1, cfg):
    """The inline, the call and the reference run, checked to be the same."""
    inline, called = _both(prob, z0, t0, t1, cfg)
    reference = integrate(_old_rhs(prob), t0, z0, t1, cfg)
    _assert_same(inline, called)
    _assert_same(inline, reference)
    return inline


def _assert_same(inline, called):
    assert _hex(inline.ts) == _hex(called.ts)
    assert _hex(inline.ys) == _hex(called.ys)
    assert _hex(inline._seg_q) == _hex(called._seg_q)
    assert (inline.accepted, inline.rejected) == (called.accepted, called.rejected)


class TestInlinedRhs:
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_takes_the_inline_path(self, case):
        _, prob, *_ = case
        assert numerics._problem_body(prob.rhs, 2) is not None
        assert numerics._problem_body(prob.rhs, 3) is None
        assert numerics._problem_body(lambda t, z: prob.rhs(t, z), 2) is None

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_forward_and_backward_runs_match_the_call_path(self, case):
        _, prob, z0, (t0, t1), cfg = case
        inline = _all_three(prob, z0, t0, t1, cfg)
        _all_three(prob, inline.ys[-1], t1, t0, cfg)

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_rejected_steps_match_the_call_path(self, case):
        _, prob, z0, (t0, t1), cfg = case
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, first_step=0.8 * (t1 - t0))
        inline = _all_three(prob, z0, t0, t1, cfg)
        assert inline.rejected > 0

    def test_states_stay_plain_floats_when_a_coefficient_is_a_call(self):
        np = pytest.importorskip("numpy")
        prob = EmdenProblem(lambda t: np.float64(-2.0) / t, -1.0, 5)
        inline = _all_three(prob, (1.3, -0.2), 0.5, 5.0, IntegratorConfig())
        assert {type(v) for y in inline.ys for v in y} == {float}


class TestNegation:
    def test_a_compiled_coefficient_negates_to_a_compiled_expression(self):
        prob, *_ = _spec_case(SPECS["lane-emden-n5.spec"])
        neg = prob.as_generalized().p
        assert neg.tree is not None
        for t in (0.5, 1.0, 2.7, -3.25):
            assert (-prob.a(t)).hex() == neg(t).hex()
        assert neg.deriv()(2.0) == -prob.a.deriv()(2.0)

    def test_powerfn_and_wrapped_coefficients_keep_their_negation(self):
        prob = EmdenProblem(PowerFn(-2, 0, 1, -1), -1.0, 5)
        assert prob.as_generalized().p == PowerFn(2, 0, 1, -1)
        fn = problemfile.compile_expression("2/t")
        wrapped = functools.wraps(fn)(lambda t: fn(t))
        neg = GeneralizedProblem(wrapped, None, 1.0, 5).as_emden().a
        assert not hasattr(neg, "tree")
        assert neg(2.0) == -1.0


# problem file, first step, and the EvalDomainError both paths must raise;
# a first step of 5 from t = 0 puts the first stage at t = 0.2 * 5 = 1
ERRORS = {
    "sqrt-past-its-domain": ("kind = emden\nn = 3\na = sqrt(2-t)\nb = -1\n"
                             "interval = 0.5, 3\nx0 = 1\nv0 = 0\n", None, "sqrt of negative"),
    "pole-hit-in-a-stage": ("kind = emden\nn = 3\na = 1/(t-1)\nb = -1\n"
                            "interval = 0, 10\nx0 = 1\nv0 = 0\n", 5.0, "division by zero"),
    "negative-base": ("kind = emden\nn = 1.5\na = 0\nb = -1\n"
                      "interval = 0, 10\nx0 = 1\nv0 = -1\n", None, "negative base"),
}


@pytest.mark.parametrize("name", list(ERRORS))
def test_errors_match_the_call_path(name):
    text, first_step, cause = ERRORS[name]
    spec = problemfile.parse_spec(text)
    prob, (t0, t1) = spec.build(), spec.interval
    cfg = IntegratorConfig(first_step=first_step)
    raised = []
    for rhs in (prob.rhs, lambda t, z: prob.rhs(t, z), _old_rhs(prob)):
        with pytest.raises(StepEvaluationError) as err:
            integrate(rhs, t0, spec.initial, t1, cfg)
        raised.append(err.value)
    inline = raised[0]
    for other in raised[1:]:
        assert str(inline) == str(other)
        assert inline.t_reached.hex() == other.t_reached.hex()
        assert type(inline.__cause__) is type(other.__cause__) is EvalDomainError
        assert str(inline.__cause__) == str(other.__cause__)
    assert cause in str(inline)


def test_a_failing_coefficient_fails_first_on_both_paths():
    # a returns text from t = 0.3 and b leaves its domain there; both paths
    # run the same lines, so the same one fails first: b, whose lines come
    # before the product with a
    prob = EmdenProblem(lambda t: 1.5 if t < 0.3 else "x",
                        problemfile.compile_expression("sqrt(0.3-t)"), 3)
    raised = []
    for rhs in (prob.rhs, lambda t, z: prob.rhs(t, z)):
        with pytest.raises(StepEvaluationError) as err:
            integrate(rhs, 0.0, (1.0, 0.1), 1.0)
        raised.append(err.value)
    inline, called = raised
    assert str(inline) == str(called)
    assert inline.t_reached.hex() == called.t_reached.hex()
    assert type(inline.__cause__) is type(called.__cause__)
    assert str(inline.__cause__) == str(called.__cause__)


@pytest.mark.parametrize("bad", ["1.5", None])
def test_a_coefficient_that_returns_no_number_fails_naming_t(bad):
    # a(t) * v raises a TypeError; at the start and inside a step, the inline
    # and the call path turn it into the same IntegrationError
    at_start = EmdenProblem(lambda t: bad, -1.0, 3)
    mid_run = EmdenProblem(lambda t: 1.5 if t < 0.3 else bad, -1.0, 3)
    assert numerics._problem_body(mid_run.rhs, 2) is not None
    for rhs in (at_start.rhs, lambda t, z: at_start.rhs(t, z)):
        with pytest.raises(RhsError, match="failed at t=0.0: "):
            integrate(rhs, 0.0, (1.0, 0.1), 1.0)
    raised = []
    for rhs in (mid_run.rhs, lambda t, z: mid_run.rhs(t, z)):
        with pytest.raises(StepEvaluationError) as err:
            integrate(rhs, 0.0, (1.0, 0.1), 1.0)
        raised.append(err.value)
    inline, called = raised
    assert str(inline) == str(called)
    assert 0.0 < inline.t_reached == called.t_reached < 1.0
    assert f"from t={inline.t_reached}" in str(inline)
    assert type(inline.__cause__) is type(called.__cause__) is TypeError


def test_a_type_error_inside_a_called_coefficient_fails_as_on_the_call_path():
    # the inlined body calls a; the TypeError is raised in a's own frame,
    # below the generated loop, as on the call path it is below rhs
    def a(t):
        return 1.5 if t < 0.3 else None + t

    prob = EmdenProblem(a, -1.0, 3)
    raised = []
    for rhs in (prob.rhs, lambda t, z: prob.rhs(t, z)):
        with pytest.raises(StepEvaluationError) as err:
            integrate(rhs, 0.0, (1.0, 0.1), 1.0)
        raised.append(err.value)
    inline, called = raised
    assert str(inline) == str(called)
    assert 0.0 < inline.t_reached == called.t_reached < 0.3
    assert type(inline.__cause__) is type(called.__cause__) is TypeError


def test_a_wrapped_rhs_is_called_for_every_stage():
    prob, z0, (t0, t1), cfg = _spec_case(SPECS["lane-emden-n5.spec"])
    calls = []

    @functools.wraps(prob.rhs)
    def counted(t, z):
        calls.append(t)
        return prob.rhs(t, z)

    assert numerics._problem_body(counted, 2) is None
    traj = integrate(counted, t0, z0, t1, cfg)
    assert len(calls) == 6 * (traj.accepted + traj.rejected) + 2
    _assert_same(integrate(prob.rhs, t0, z0, t1, cfg), traj)


def _misses():
    """Misses of the one code cache and of the loop-source cache."""
    return exprlang._code.cache_info().misses, numerics._kernel.cache_info().misses


def test_kernels_are_built_on_first_use_and_shared_by_shape():
    a_one, a_two = problemfile.compile_expression("-2/t"), problemfile.compile_expression("-3/t")
    misses = _misses()
    one = EmdenProblem(a_one, constant(-1.0), 5)
    two = EmdenProblem(a_two, constant(-0.5), 7)
    assert "rhs" not in vars(one) and "rhs" not in vars(two)
    assert _misses() == misses
    integrate(one.rhs, 0.5, (1.0, 0.0), 2.0)
    misses = _misses()
    integrate(two.rhs, 0.5, (1.0, 0.0), 2.0)
    assert _misses() == misses
    assert one.rhs.stage_body[:2] == two.rhs.stage_body[:2]
    assert one.rhs.stage_body[2] != two.rhs.stage_body[2]
    assert one.rhs.__code__ is two.rhs.__code__
    assert (numerics._kernel(2, one.rhs.stage_body[:2])
            is numerics._kernel(2, two.rhs.stage_body[:2]))
    # one compiled loop per (n, body text): a second Kummer-Liouville
    # operation with other numbers compiles none, its tau-run's included
    taus, counts = [], []
    for c, r in ((2, 1.0), (3, 0.5)):
        prob = GeneralizedProblem(PowerFn(c, 0, 1, -1), None, r, 5)
        kl = kummer_liouville(prob, 1.0, 2.0, gamma_init=(1.0, -0.5))
        canonical_residual(kl, prob, (0.3, 0.0), grid_points=9)
        taus.append(canonical._tau_rhs(kl).stage_body)
        counts.append(_misses())
    assert counts[1] == counts[0]
    assert taus[0][:2] == taus[1][:2] and taus[0][2] != taus[1][2]
    assert numerics._kernel(3, taus[0][:2]) is numerics._kernel(3, taus[1][:2])
    assert numerics._kernel(3, taus[0][:2]) is not numerics._kernel(2, one.rhs.stage_body[:2])


def _kummer_liouville_residual(c, r):
    prob = GeneralizedProblem(PowerFn(c, 0, 1, -1), None, r, 5)
    kl = kummer_liouville(prob, 1.0, 2.0, gamma_init=(1.0, -0.5))
    return canonical_residual(kl, prob, (0.3, 0.0), grid_points=9)


def _rescaled_energy_drift(b):
    prob = EmdenProblem(0.0, b, 3)
    cond = rescaled_energy_invariant(prob, 0.5, (0.5, 2.0))
    assert cond.passed
    return drift(cond.invariant, integrate(prob.rhs, 0.5, (1.3, -0.2), 2.0), samples=50)


def _text_profile_invariant(shift):
    entry = _decaying_entry("text", 5, shift, "drag", "solution", "note")
    xp = problemfile.compile_expression(entry.xp.to_source())
    return invariant_from_particular_solution(entry.problem, xp, entry.window)


@pytest.mark.parametrize("build, first, second", [
    (_kummer_liouville_residual, (2, 1.0), (3, 0.5)),
    (_rescaled_energy_drift, (-1.0,), (-0.5,)),
    (_text_profile_invariant, (1,), (3,)),
    (lambda k: integrate(lambda t, y: (y[1], -k * y[0]), 0.0, (1.0, 0.0), 1.0).states([0.5]),
     (1.0,), (4.0,)),
], ids=["kummer-liouville", "rescaled-energy", "text-profile-invariant", "lambda"])
def test_a_second_build_with_other_numbers_compiles_nothing(build, first, second):
    # numbers reach every generated text through slots, so the second build
    # finds each of its texts and loops in the caches the first one filled
    build(*first)
    misses = _misses()
    build(*second)
    assert _misses() == misses


def test_the_inline_path_outlasts_the_code_caches():
    # bodies of distinct text push the first out of the bounded caches of
    # code and loop source; its rhs is still recognised by what it carries
    def drag(i):
        term = "t"  # sin and negation nested in the order of i's eight bits
        for bit in f"{i:08b}":
            term = f"sin({term})" if bit == "1" else f"-({term})"
        return EmdenProblem(problemfile.compile_expression(f"-2/t + 0*{term}"), -1.0, 5)

    first = drag(0)
    cfg = IntegratorConfig(rel_tol=1e-8)
    before = integrate(first.rhs, 0.5, (1.0, 0.0), 2.0, cfg)
    code, loops = _misses()
    for i in range(1, 100):
        integrate(drag(i).rhs, 0.5, (1.0, 0.0), 0.6, cfg)
    # each drag compiles its coefficient, its rhs and its loop
    assert _misses() == (code + 3 * 99, loops + 99)
    assert 3 * 99 > exprlang._code.cache_info().maxsize
    assert 99 > numerics._kernel.cache_info().maxsize
    assert numerics._problem_body(first.rhs, 2) is not None
    after = integrate(first.rhs, 0.5, (1.0, 0.0), 2.0, cfg)
    _assert_same(after, before)
    _assert_same(after, integrate(_old_emden(first), 0.5, (1.0, 0.0), 2.0, cfg))


def test_a_subclass_that_overrides_rhs_is_called():
    class Damped(EmdenProblem):
        def rhs(self, t, z):
            x, v = z
            return (v, -v - math.sin(x))

    prob = Damped(0.0, -1.0, 3)
    assert numerics._problem_body(prob.rhs, 2) is None
    inline, called = _both(prob, (1.0, 0.0), 0.0, 3.0, IntegratorConfig())
    _assert_same(inline, called)
