"""The time-integral systems inlined into the generated step.

``kummer_liouville`` integrates the scale equation (gamma, gamma') and then
(gamma, gamma', P, tau); ``canonical_residual`` integrates the canonical
tau-run (t, x', dx'/dtau); ``verify_pushforward`` integrates the image of the
problem under a frame change (x', v'); ``rescaled_energy_invariant``
integrates A = int a and ``dilation_invariant`` (A, G = int exp(A)).  Each
hands ``integrate`` an ``rhs`` generated from the stage body that is written
into the stages.  The same ``rhs`` behind a lambda takes the call path; the
independent references are ``_old_scale``, ``_old_clock``, ``_old_tau``,
``_old_pushed`` and ``_old_integrals``, the closures these systems replaced.
All three runs must give the same mesh, states, dense rows, step counts and
errors, bit for bit.
"""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from emdenlab import canonical, gauge, invariants, numerics, problemfile
from emdenlab.canonical import _scale_rhs, canonical_residual, kummer_liouville
from emdenlab.exprlang import real_power
from emdenlab.gauge import _pushed_rhs, reduce_via_particular_solution, verify_pushforward
from emdenlab.invariants import _integrals_rhs, dilation_invariant, rescaled_energy_invariant
from emdenlab.numerics import _CHECK_CONFIG as _INTEGRAL_CONFIG
from emdenlab.numerics import IntegrationError, IntegratorConfig, StepEvaluationError, integrate
from emdenlab.problems import EmdenProblem, GeneralizedProblem
from emdenlab.solutions import catalog_entry
from emdenlab.timefn import PowerFn

from test_gauge import decaying_frame, drag_problem_n5, flattening_case, identity_frame, shear_frame
from test_problems import WITH_Q, _assert_same
from test_readme_examples import SPECS

KL_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _spec(name_or_text):
    spec = problemfile.parse_spec(SPECS.get(name_or_text, name_or_text))
    return spec.build(), spec.interval


def _old_scale(p, q):
    """The scale equation as kummer_liouville spelled it before."""
    if q is None:
        return lambda t, y: (y[1], -p(t) * y[1])
    return lambda t, y: (y[1], -q(t) * y[0] - p(t) * y[1])


def _old_clock(p, q):
    lin = _old_scale(p, q)

    def rhs(t, y):
        dg, ddg = lin(t, y)
        return (dg, ddg, p(t), math.exp(-y[2]) / (y[0] * y[0]))

    return rhs


def _old_tau(kl):
    """canonical_residual's tau-run as it was written before it was generated."""
    t0, t_end = kl.t0, kl.t_end

    def rhs(tau, y):
        t = min(max(y[0], t0), t_end)  # the t state overshoots by round-off
        return (kl.gamma(t) / kl.beta(t), y[2], kl.coefficient(t) * real_power(y[1], kl.n))

    return rhs


def _tau_case(kl, z0):
    """(system, t0, y0, t1) of the tau-run that canonical_residual makes from
    z0.  A truncated window's run stops at tau(t) for t in mid-window: near
    its end tau' = exp(-P)/gamma^2 grows without bound, so a backward run
    from there would not get back."""
    x0, v0 = z0
    g0 = kl.gamma(kl.t0)
    y0 = (kl.t0, x0 / g0, v0 * g0 - x0 * kl.dgamma(kl.t0))
    t1 = 0.5 * (kl.t0 + kl.t_end) if kl.truncated else kl.t_end
    return SimpleNamespace(rhs=canonical._tau_rhs(kl)), 0.0, y0, kl.tau(t1)


def _old_pushed(prob, g):
    """The image of x'' = a x' + b x^n under g, as push_coefficients and
    PushedSystem.rhs wrote it before it was generated, with the source's
    slots (drift_x, gain, drift_v, feedback, nonlin) = (0, 1, a, 0, b) put in."""
    a, b, n = prob.a, prob.b, prob.n
    al, be, ga, dal, dbe, dga = g.alpha, g.beta, g.gamma, g.dalpha, g.dbeta, g.dgamma
    gain = lambda t: be(t) / ga(t)
    nonlin = lambda t: b(t) * real_power(ga(t), n) / be(t)
    feedback = None
    if al is None:
        drift_x = lambda t: -dga(t) / ga(t)
        drift_v = lambda t: a(t) - dbe(t) / be(t)
    else:
        drift_x = lambda t: al(t) / ga(t) - dga(t) / ga(t)
        drift_v = lambda t: a(t) - dbe(t) / be(t) - al(t) / ga(t)

        def feedback(t):
            shear = al(t)
            return (a(t) * shear - dal(t) - shear * drift_x(t)) / be(t)

    def rhs(t, y):
        x, v = y
        dx = gain(t) * v + drift_x(t) * x
        dv = drift_v(t) * v + nonlin(t) * real_power(x, n)
        if feedback is not None:
            dv += feedback(t) * x
        return (dx, dv)

    return rhs


def _pushed_cases():
    """(name, problem, frame, z0, interval) of the frames whose image the
    parity tests integrate: none, pure scalings and two shears."""
    flat, flat_frame = flattening_case()
    return [
        ("identity", drag_problem_n5(), identity_frame(), (0.9, -0.3), (0.5, 5.0)),
        ("decaying", drag_problem_n5(), decaying_frame(), (0.9, -0.3), (0.5, 5.0)),
        ("flattening", flat, flat_frame, (0.3, 0.0), (0.5, 2.0)),
        ("sin-shear", drag_problem_n5(), shear_frame(), (0.9, -0.3), (0.5, 4.0)),
    ]


def _old_integrals(a, with_g):
    if with_g:
        return lambda t, y: (a(t), math.exp(y[0]))
    return lambda t, y: (a(t),)


def _windows():
    """(name, problem, gamma_init, truncated) of the Kummer-Liouville windows
    on [1, 5]; the README's damped.spec --gamma-init 1,-1 has gamma = 1/t."""
    damped, _ = _spec("damped.spec")
    with_q, _ = _spec(WITH_Q)
    return [
        ("damped", damped, (1.0, -0.5), False),
        ("damped-readme", damped, (1.0, -1.0), False),
        ("damped-truncated", damped, (1.0, -2.0), True),
        ("with-q", with_q, (1.0, 0.2), True),
        ("powerfn", GeneralizedProblem(PowerFn(2, 0, 1, -1), None, 1.0, 5), (1.0, 0.3), False),
    ]


def _cases():
    """(id, system, the closure it replaced, t0, y0, t1, config)."""
    out = []
    # the clock runs to where kummer_liouville ends it, before any zero of gamma
    for name, prob, start, truncated in _windows():
        p, q = prob.p, prob.q
        kl = kummer_liouville(prob, 1.0, 5.0, gamma_init=start)
        assert kl.truncated == truncated
        out.append((f"scale-{name}", SimpleNamespace(rhs=_scale_rhs(p, q, clock=False)),
                    _old_scale(p, q), 1.0, start, 5.0, KL_CONFIG))
        out.append((f"clock-{name}", SimpleNamespace(rhs=_scale_rhs(p, q, clock=True)),
                    _old_clock(p, q), 1.0, start + (0.0, 0.0), kl.t_end, KL_CONFIG))
        tau, s0, y0, s1 = _tau_case(kl, (0.3, 0.0))
        out.append((f"tau-{name}", tau, _old_tau(kl), s0, y0, s1, KL_CONFIG))
    for name, prob, g, z0, (p0, p1) in _pushed_cases():
        out.append((f"pushed-{name}", SimpleNamespace(rhs=_pushed_rhs(prob, g)), _old_pushed(prob, g),
                    p0, g.inverse(p0, *z0), p1, IntegratorConfig()))
    drag, (d0, d1) = _spec("lane-emden-n5.spec")
    for name, a in (("spec", drag.a), ("powerfn", PowerFn(-2, 0, 1, -1)),
                    ("lambda", lambda t: -2.0 / t)):
        out.append((f"A-{name}", SimpleNamespace(rhs=_integrals_rhs(a, with_g=False)),
                    _old_integrals(a, False), d0, (0.0,), d1, _INTEGRAL_CONFIG))
        out.append((f"AG-{name}", SimpleNamespace(rhs=_integrals_rhs(a, with_g=True)),
                    _old_integrals(a, True), d0, (0.0, 0.0), d1, _INTEGRAL_CONFIG))
    return out


CASES = _cases()
IDS = [c[0] for c in CASES]


def _runs(system, old, t0, y0, t1, cfg):
    return [integrate(rhs, t0, y0, t1, cfg)
            for rhs in (system.rhs, lambda t, y: system.rhs(t, y), old)]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_takes_the_inline_path(case):
    _, system, _, _, y0, _, _ = case
    assert numerics._problem_body(system.rhs, len(y0)) is not None
    assert numerics._problem_body(system.rhs, len(y0) + 1) is None


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_forward_and_backward_runs_match_the_call_path(case):
    _, system, old, t0, y0, t1, cfg = case
    inline, called, before = _runs(system, old, t0, y0, t1, cfg)
    _assert_same(inline, called)
    _assert_same(inline, before)
    back = _runs(system, old, t1, inline.ys[-1], t0, cfg)
    _assert_same(back[0], back[1])
    _assert_same(back[0], back[2])


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_rejected_steps_match_the_call_path(case):
    _, system, old, t0, y0, t1, _ = case
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, first_step=0.8 * (t1 - t0))
    inline, called, before = _runs(system, old, t0, y0, t1, cfg)
    _assert_same(inline, called)
    _assert_same(inline, before)
    assert inline.rejected > 0


def test_a_call_result_slope_is_converted_as_the_call_path_converts_it():
    # A' = a(t) is a bare name in the stage; what the call returns still
    # passes the same check as a returned component
    np = pytest.importorskip("numpy")
    a = lambda t: np.float64(-2.0) / t
    system = SimpleNamespace(rhs=_integrals_rhs(a, with_g=True))
    inline, called, _ = _runs(system, _old_integrals(a, True), 0.5, (0.0, 0.0), 5.0,
                              _INTEGRAL_CONFIG)
    _assert_same(inline, called)
    assert {type(v) for y in inline.ys for v in y} == {float}
    text = SimpleNamespace(rhs=_integrals_rhs(lambda t: "1.5" if t > 1.0 else 1.5, with_g=False))
    raised = []
    for rhs in (text.rhs, lambda t, y: text.rhs(t, y)):
        with pytest.raises(IntegrationError, match="not a sequence of real numbers") as err:
            integrate(rhs, 0.5, (0.0,), 5.0, _INTEGRAL_CONFIG)
        raised.append(err.value)
    assert str(raised[0]) == str(raised[1])
    assert raised[0].t_reached.hex() == raised[1].t_reached.hex()


def _error_parity(system, old, t0, y0, t1, cfg):
    raised = []
    for rhs in (system.rhs, lambda t, y: system.rhs(t, y), old):
        with pytest.raises(StepEvaluationError) as err:
            integrate(rhs, t0, y0, t1, cfg)
        raised.append(err.value)
    for other in raised[1:]:
        assert str(raised[0]) == str(other)
        assert raised[0].t_reached.hex() == other.t_reached.hex()
        assert type(raised[0].__cause__) is type(other.__cause__)
        assert str(raised[0].__cause__) == str(other.__cause__)
    return raised[0]


def test_exp_overflow_in_G_matches_the_call_path():
    a = problemfile.compile_expression("1000")
    err = _error_parity(SimpleNamespace(rhs=_integrals_rhs(a, with_g=True)),
                        _old_integrals(a, True), 0.0, (0.0, 0.0), 1.0, _INTEGRAL_CONFIG)
    assert type(err.__cause__) is OverflowError
    assert 0.0 < err.t_reached < 1.0


def test_a_frame_function_leaving_its_domain_stops_the_image_as_the_call_path_does():
    # alpha = sqrt(3 - t) is not real past t = 3, inside [0.5, 4]
    prob = drag_problem_n5()
    g = shear_frame()
    g = gauge.GaugeTransform(alpha=problemfile.compile_expression("sqrt(3 - t)"), beta=g.beta,
                             gamma=g.gamma)
    z0 = g.inverse(0.5, 0.9, -0.3)
    err = _error_parity(SimpleNamespace(rhs=_pushed_rhs(prob, g)), _old_pushed(prob, g),
                        0.5, z0, 4.0, IntegratorConfig())
    assert "sqrt" in str(err.__cause__)
    assert 0.5 < err.t_reached < 3.0


def test_scale_reaching_zero_in_the_clock_slope_matches_the_call_path():
    # gamma'' = 0 from (1, -1): a first step of 5 puts the first stage at
    # gamma = 1 + 5 * (0.2 * -1) = 0, where tau' divides by gamma^2
    p = problemfile.compile_expression("0")
    err = _error_parity(SimpleNamespace(rhs=_scale_rhs(p, None, clock=True)), _old_clock(p, None),
                        0.0, (1.0, -1.0, 0.0, 0.0), 10.0, IntegratorConfig(first_step=5.0))
    assert type(err.__cause__) is ZeroDivisionError
    assert err.t_reached == 0.0


def test_the_constructors_hand_integrate_an_inlined_rhs(monkeypatch):
    seen = []

    def recording(module):
        real = module.integrate

        def integrate_and_record(rhs, t0, y0, *args):
            seen.append((rhs, len(y0)))
            return real(rhs, t0, y0, *args)

        monkeypatch.setattr(module, "integrate", integrate_and_record)

    recording(canonical)
    recording(invariants)
    recording(numerics)  # verify_pushforward imports integrate where it runs
    damped, (t0, t1) = _spec("damped.spec")
    kl = kummer_liouville(damped, t0, t1, gamma_init=(1.0, -1.0))
    canonical_residual(kl, damped, (0.3, 0.0))
    drag = EmdenProblem(PowerFn(-2, 0, 1, -1), PowerFn(1, 0, 1, -4), 5)
    rescaled_energy_invariant(drag, 0.5, (0.5, 5.0))
    dilation_invariant(drag, 0.5, (0.6, 5.0))
    entry = catalog_entry("lane_emden_n5")
    red = reduce_via_particular_solution(entry.problem, entry.xp, (0.5, 5.0), dxp=entry.dxp)
    verify_pushforward(entry.problem, red.gauge, (1.3, -0.2), (0.5, 5.0))
    # the scale and clock runs; the problem and the tau-run; A; (A, G); the
    # problem and its image under the reduction's frame
    assert [n for _, n in seen] == [2, 4, 2, 3, 1, 2, 2, 2]
    for rhs, n in seen:
        assert numerics._problem_body(rhs, n) is not None


def test_the_tau_run_calls_the_functions_of_the_reduction():
    damped, (t0, t1) = _spec("damped.spec")
    kl = kummer_liouville(damped, t0, t1, gamma_init=(1.0, -1.0))
    for field in ("gamma", "beta", "coefficient"):
        fn, calls = getattr(kl, field), []
        same = dataclasses.replace(kl, **{field: lambda t, fn=fn: calls.append(t) or fn(t)})
        assert numerics._problem_body(canonical._tau_rhs(same), 3) is not None
        # the same values through the replaced function, so the same residual
        assert (canonical_residual(same, damped, (0.3, 0.0)).hex()
                == canonical_residual(kl, damped, (0.3, 0.0)).hex())
        assert calls


@pytest.mark.parametrize("window", _windows(), ids=[w[0] for w in _windows()])
def test_the_whole_tau_run_matches_the_call_path(window):
    # the tau-run to the end of the window, as canonical_residual makes it
    _, prob, start, _ = window
    kl = kummer_liouville(prob, 1.0, 5.0, gamma_init=start)
    system, s0, y0, _ = _tau_case(kl, (0.3, 0.0))
    inline, called, before = _runs(system, _old_tau(kl), s0, y0, kl.tau(kl.t_end), KL_CONFIG)
    _assert_same(inline, called)
    _assert_same(inline, before)


def test_a_coefficient_leaving_its_domain_stops_the_tau_run_as_the_call_path_does():
    # r = sqrt(3 - t) is not real past t = 3, inside the window
    prob = GeneralizedProblem(PowerFn(2, 0, 1, -1), None,
                              problemfile.compile_expression("sqrt(3 - t)"), 5)
    kl = kummer_liouville(prob, 1.0, 5.0, gamma_init=(1.0, -1.0))
    system, s0, y0, s1 = _tau_case(kl, (0.3, 0.0))
    err = _error_parity(system, _old_tau(kl), s0, y0, s1, KL_CONFIG)
    assert "sqrt" in str(err.__cause__)
    assert 0.0 < err.t_reached < s1


def test_a_coefficient_that_returns_no_real_is_refused_at_tau_as_on_the_call_path():
    # r is called at the clamped t, but what the slopes come to is checked,
    # and named, at the stage's tau, as the call path checks what rhs returns
    prob = GeneralizedProblem(PowerFn(2, 0, 1, -1), None, lambda t: 1.0 if t < 1.2 else 1j, 5)
    kl = kummer_liouville(prob, 1.0, 2.0, gamma_init=(1.0, -1.0))
    system, s0, y0, s1 = _tau_case(kl, (0.3, 0.0))
    raised = []
    for rhs in (system.rhs, lambda t, y: system.rhs(t, y), _old_tau(kl)):
        with pytest.raises(IntegrationError, match="not a sequence of real numbers") as err:
            integrate(rhs, s0, y0, s1, KL_CONFIG)
        raised.append(err.value)
    for other in raised[1:]:
        assert str(raised[0]) == str(other)
        assert raised[0].t_reached.hex() == other.t_reached.hex()
    assert 0.0 < raised[0].t_reached < s1


def test_the_reduction_reads_its_clock_run_once_per_t(monkeypatch):
    # the five functions at one t read the (gamma, gamma', P, tau) run once;
    # another t reads it again, and so does every read at 0.0 or -0.0
    prob = GeneralizedProblem(0.5, None, 1.0, 5)
    kl, other = (kummer_liouville(prob, 0.0, 1.0, gamma_init=(1.0, -0.5)) for _ in range(2))
    fields = ("gamma", "dgamma", "beta", "tau", "coefficient")
    reads, call = [], numerics.Trajectory.__call__
    monkeypatch.setattr(numerics.Trajectory, "__call__",
                        lambda self, t: reads.append(t) or call(self, t))
    ts = (0.3, 0.3, 0.7, -0.0, 0.0, 1.0)
    got = [[getattr(kl, field)(t) for field in fields] for t in ts]
    assert [t.hex() for t in reads] == [t.hex() for t in (0.3, 0.7, *[-0.0] * 5, *[0.0] * 5, 1.0)]
    # the same values as reads made afresh, each after a read at another t
    for t, values in zip(ts, got):
        for field, value in zip(fields, values):
            other.gamma(0.5)
            assert getattr(other, field)(t).hex() == value.hex()
