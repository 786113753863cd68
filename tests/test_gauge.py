"""Frame changes: pushforwards, particular-solution reduction, canonical form."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from emdenlab.canonical import KummerLiouvilleReduction, canonical_residual, kummer_liouville
from emdenlab.gauge import (
    EmdenProblem,
    GaugeError,
    GaugeTransform,
    GeneralizedProblem,
    ReductionError,
    _pushed_rhs,
    reduce_via_particular_solution,
    verify_pushforward,
)
from emdenlab.exprlang import EvalDomainError, real_power
from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.problemfile import compile_expression
from emdenlab.solutions import catalog_entry
from emdenlab.timefn import ZERO_FN, PowerFn, as_timefn, constant, linspace


def decaying_scale():
    # (2t)^(-1/2): the slow decaying profile of the n=5 drag problem
    return PowerFn(1, 0, 2, Fraction(-1, 2))


def drag_problem_n5():
    return EmdenProblem(a=PowerFn(-2, 0, 1, -1), b=-1.0, n=5)


def identity_frame():
    return GaugeTransform(
        alpha=None, beta=constant(1.0), gamma=constant(1.0), dbeta=ZERO_FN, dgamma=ZERO_FN
    )


def decaying_frame():
    gamma = decaying_scale()
    # slope is negative; flip it so the velocity scale stays positive
    return GaugeTransform(alpha=None, beta=gamma.deriv().scaled(-1), gamma=gamma)


def shear_frame():
    return GaugeTransform(
        alpha=compile_expression("sin(t)"),
        beta=PowerFn(1, 2, 1, 1),
        gamma=PowerFn(2, 1, 1, 1),
    )


def flattening_case():
    """p = 2/t with both scales 1/t and the shear equal to the scale's slope:
    every linear slot of the image cancels and only the nonlinearity
    survives, with coefficient t^(1-n)."""
    gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
    scale = PowerFn(1, 0, 1, -1)
    return gp.as_emden(), GaugeTransform(alpha=scale.deriv(), beta=scale, gamma=scale)


class TestProblems:
    def test_linear_exponent_rejected(self):
        with pytest.raises(ValueError, match="linear"):
            EmdenProblem(a=0.0, b=1.0, n=1.0)
        with pytest.raises(ValueError, match="linear"):
            GeneralizedProblem(p=0.0, q=None, r=1.0, n=1.0 + 1e-13)

    def test_rhs_values(self):
        prob = drag_problem_n5()
        dx, dv = prob.rhs(1.0, (1.0, 2.0))
        assert dx == 2.0
        assert dv == pytest.approx(-5.0)  # -2*2 - 1

    def test_generalized_rhs_includes_restoring_term(self):
        gp = GeneralizedProblem(p=1.0, q=2.0, r=1.0, n=3)
        dx, dv = gp.rhs(0.0, (2.0, 1.0))
        assert dx == 1.0
        assert dv == pytest.approx(-1.0 - 4.0 + 8.0)

    def test_conversions_round_trip(self):
        prob = drag_problem_n5()
        gp = prob.as_generalized()
        assert gp.p(2.0) == pytest.approx(1.0)
        back = gp.as_emden()
        for t in (0.5, 1.0, 3.0):
            assert back.a(t) == pytest.approx(prob.a(t))
            assert back.b(t) == pytest.approx(prob.b(t))

    def test_restoring_term_blocks_two_slot_view(self):
        gp = GeneralizedProblem(p=0.0, q=1.0, r=1.0, n=3)
        with pytest.raises(ValueError, match="restoring"):
            gp.as_emden()


class TestGaugeTransform:
    def test_forward_inverse_round_trip(self):
        g = shear_frame()
        for t, xp, vp in [(0.7, 1.3, -0.8), (2.0, 0.4, 2.2), (5.5, -0.6, 0.1)]:
            x, v = g.forward(t, xp, vp)
            rx, rv = g.inverse(t, x, v)
            assert rx == pytest.approx(xp, abs=1e-12)
            assert rv == pytest.approx(vp, abs=1e-12)

    def test_missing_derivatives_come_from_deriv(self):
        g = shear_frame()
        for t in (0.7, 2.0):
            assert g.dalpha(t) == math.cos(t)
            assert g.dbeta(t) == 1.0
            assert g.dgamma(t) == 2.0

    @pytest.mark.parametrize("slot", ["alpha", "beta", "gamma"])
    def test_function_without_deriv_needs_its_derivative(self, slot):
        fns = {"alpha": PowerFn(1, 0, 1, 1), "beta": constant(1.0), "gamma": constant(1.0)}
        fns[slot] = lambda t: 1.0 + t * t
        with pytest.raises(TypeError, match=f"^{slot} has no deriv"):
            GaugeTransform(**fns)
        GaugeTransform(**fns, **{"d" + slot: lambda t: 2.0 * t})

    def test_zero_shear_coerces_to_absent(self):
        g = GaugeTransform(alpha=0.0, beta=constant(1.0), gamma=constant(1.0))
        assert g.alpha is None

    def test_positivity_enforced(self):
        g = GaugeTransform(alpha=None, beta=PowerFn(1, 1, -1, 1), gamma=constant(1.0))
        g.validate_on((0.0, 0.9))
        with pytest.raises(GaugeError, match="beta"):
            g.validate_on((0.0, 2.0))
        with pytest.raises(GaugeError, match="beta"):
            g.forward(1.5, 1.0, 1.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            identity_frame().validate_on((1.0, 1.0))

    @pytest.mark.parametrize("slot", ["beta", "gamma"])
    def test_a_nan_scale_is_refused_at_its_time(self, slot):
        scales = {"beta": constant(1.0), "gamma": constant(1.0)}
        scales[slot] = lambda t: math.nan if 2 < t < 3 else 1.0
        g = GaugeTransform(alpha=None, **scales, dbeta=ZERO_FN, dgamma=ZERO_FN)
        with pytest.raises(GaugeError, match=rf"^{slot}\(2\.0\d*\) = nan; must be positive"):
            g.validate_on((1.0, 4.0))
        with pytest.raises(GaugeError, match=rf"^{slot}\(2\.5\) = nan"):
            g.inverse(2.5, 1.0, 1.0)
        with pytest.raises(GaugeError, match=rf"^{slot}\(2\.0\d*\) = nan"):
            verify_pushforward(drag_problem_n5(), g, (0.9, -0.3), (1.0, 4.0))


class TestPushSystem:
    # the pushed rhs at v' = 1 gives (gain, drift_v), and at x' = 1 gives
    # (drift_x, nonlin + feedback)

    def test_identity_frame_returns_problem_coefficients(self):
        prob = drag_problem_n5()
        rhs = _pushed_rhs(prob, identity_frame())
        for t in (0.5, 2.0, 7.0):
            gain, drift_v = rhs(t, (0.0, 1.0))
            drift_x, nonlin = rhs(t, (1.0, 0.0))
            assert drift_x == 0.0
            assert gain == 1.0
            assert drift_v == prob.a(t)
            # the feedback stays exactly zero, not merely small
            assert nonlin == prob.b(t)

    def test_pure_scaling_frame_formulas(self):
        prob = drag_problem_n5()
        beta = PowerFn(1, 2, 1, 1)       # 2 + t
        gamma = PowerFn(1, 1, 1, 2)      # (1 + t)^2
        g = GaugeTransform(alpha=None, beta=beta, gamma=gamma)
        rhs = _pushed_rhs(prob, g)
        dbeta, dgamma = beta.deriv(), gamma.deriv()
        for t in (0.4, 1.0, 2.7):
            gain, drift_v = rhs(t, (0.0, 1.0))
            drift_x, nonlin = rhs(t, (1.0, 0.0))
            # the feedback stays exactly zero: x' = 1 gives nonlin alone
            assert nonlin == prob.b(t) * real_power(gamma(t), prob.n) / beta(t)
            assert gain == pytest.approx(beta(t) / gamma(t), rel=1e-14)
            assert drift_x == pytest.approx(-dgamma(t) / gamma(t), rel=1e-14)
            assert drift_v == pytest.approx(
                prob.a(t) - dbeta(t) / beta(t), rel=1e-14
            )
            assert nonlin == pytest.approx(
                prob.b(t) * gamma(t) ** 5 / beta(t), rel=1e-14
            )

    def test_inverse_time_scales_flatten_the_drift(self):
        prob, g = flattening_case()
        rhs = _pushed_rhs(prob, g)
        for t in np.linspace(0.4, 3.0, 7):
            t = float(t)
            gain, drift_v = rhs(t, (0.0, 1.0))
            drift_x = rhs(t, (1.0, 0.0))[0]
            # at x' = 2^-20 the feedback term (times x') outweighs the
            # nonlinearity (times x'^5) by 2^80, and at x' = 2^20 the other
            # way round; scaling by powers of two is exact
            feedback = rhs(t, (2.0 ** -20, 0.0))[1] * 2.0 ** 20
            nonlin = rhs(t, (2.0 ** 20, 0.0))[1] * 2.0 ** -100
            assert abs(drift_x) <= 1e-13
            assert abs(drift_v) <= 1e-13
            assert abs(feedback) <= 1e-12
            assert gain == 1.0
            assert nonlin * t ** 4 == pytest.approx(1.0, rel=1e-12)


class TestVerifyPushforward:
    def test_identity_frame_has_no_gap(self):
        rep = verify_pushforward(
            drag_problem_n5(), identity_frame(), (0.9, -0.3), (0.5, 5.0)
        )
        assert rep.passed
        assert rep.discrepancy < 1e-13

    def test_decaying_frame_passes(self):
        rep = verify_pushforward(
            drag_problem_n5(), decaying_frame(), (0.9, -0.3), (0.5, 5.0)
        )
        assert rep.passed
        assert rep.discrepancy < rep.tolerance
        assert "PASS" in rep.render()

    def test_shear_frames_pass_and_a_wrong_shear_slope_fails(self):
        rep = verify_pushforward(drag_problem_n5(), shear_frame(), (0.9, -0.3), (0.5, 4.0))
        assert rep.passed
        assert rep.discrepancy < 1e-9
        g = shear_frame()
        wrong = GaugeTransform(alpha=g.alpha, beta=g.beta, gamma=g.gamma, dalpha=lambda t: 0.0)
        rep = verify_pushforward(drag_problem_n5(), wrong, (0.9, -0.3), (0.5, 4.0))
        assert not rep.passed
        assert rep.discrepancy > 1e-3
        # from (0.9, -0.3) this problem blows up near t = 2.8
        prob, g = flattening_case()
        assert verify_pushforward(prob, g, (0.3, 0.0), (0.5, 2.0)).passed

    def test_negative_velocity_scale_rejected(self):
        gamma = decaying_scale()
        wrong = GaugeTransform(alpha=None, beta=gamma.deriv(), gamma=gamma)
        with pytest.raises(GaugeError, match="beta"):
            verify_pushforward(drag_problem_n5(), wrong, (0.9, -0.3), (0.5, 5.0))


def _reference_reduction(prob, xp, interval, dxp=None, ddxp=None, samples=200, tol=1e-12):
    """The reduction's sampling, one pass per t, and its four check loops as
    they were before the generated sampler; the rate agreement, or the
    ReductionError."""
    xp = as_timefn(xp)
    dxp = xp.deriv() if dxp is None else as_timefn(dxp)
    ddxp = dxp.deriv() if ddxp is None else as_timefn(ddxp)
    ts = linspace(float(interval[0]), float(interval[1]), samples)
    a, b, n = prob.a, prob.b, prob.n

    def sup_rel_gap(pairs):
        worst, where = 0.0, ts[0]
        for t, (got, want) in zip(ts, pairs):
            gap = abs(got - want) / max(1.0, abs(got), abs(want))
            if gap > worst:
                worst, where = gap, t
        return worst, where

    xs, ds, slope_pairs, rate_terms, residual_pairs = [], [], [], [], []
    try:
        for t in ts:
            d, x = dxp(t), xp(t)
            slope_pair = (d ** 2, real_power(x, n + 1.0))
            dd, av = ddxp(t), a(t)
            bx = b(t) * real_power(x, n)
            xs.append(x)
            ds.append(d)
            slope_pairs.append(slope_pair)
            rate_terms.append((d, dd, av, bx))
            residual_pairs.append((dd, av * d + bx))
    except (EvalDomainError, ArithmeticError) as exc:
        raise ReductionError(f"evaluation failed at t={t:.6g}: {exc}") from exc
    cond_gap, cond_t = sup_rel_gap(slope_pairs)
    res_gap, res_t = sup_rel_gap(residual_pairs)
    failures = []
    if cond_gap > tol:
        failures.append("slope compatibility (dxp^2 = xp^(n+1)) fails "
                        f"near t={cond_t:.6g} with relative gap {cond_gap:.3e}")
    if res_gap > tol:
        failures.append("the claimed solution does not satisfy the problem "
                        f"near t={res_t:.6g} (residual gap {res_gap:.3e})")
    if failures:
        raise ReductionError("; ".join(failures))
    for t, x, d in zip(ts, xs, ds):
        if x <= 0.0:
            raise ReductionError(f"particular solution is not positive at t={t:.6g}")
        if d >= 0.0:
            raise ReductionError(
                f"slope of the particular solution is {d:.6g} at t={t:.6g}; "
                "a negative slope is required so the frame scale stays positive")
    worst = frame_gap = 0.0
    frame_t = ts[0]
    for t, x, (d, dd, av, bx) in zip(ts, xs, rate_terms):
        f1, f2 = bx / d, -av + dd / d
        scale = max(1.0, abs(f1))
        worst = max(worst, abs(f1 - f2) / scale)
        gap = abs(f1 + d / x) / scale
        if gap > frame_gap:
            frame_gap, frame_t = gap, t
    if frame_gap > tol:
        raise ReductionError(
            f"the rate b xp^n/dxp differs from the frame's rate -dxp/xp near "
            f"t={frame_t:.6g} (relative gap {frame_gap:.3e}); the collapse needs b = -1")
    if worst > tol:
        raise ReductionError(f"the two rate derivations disagree (sup relative gap {worst:.3e})")
    return worst


def _sample_time(i):
    return linspace(0.5, 5.0, 200)[i]


# name -> () -> (problem, xp, dxp, ddxp, interval); between them and the
# tolerances of the test they reach every check, alone and together
_REDUCTION_CASES = {
    "drag-n5": lambda: (drag_problem_n5(), decaying_scale(), None, None, (0.5, 5.0)),
    "text": lambda: (EmdenProblem(a=compile_expression("-2/t"), b=compile_expression("-1"), n=5),
                     compile_expression("(2*t)^(-1/2)"), None, None, (0.5, 5.0)),
    "scaled-profile": lambda: (EmdenProblem(a=PowerFn(-3, 0, 1, -1), b=-0.25, n=3),
                               PowerFn(2, 0, 1, -1), None, None, (0.5, 4.0)),
    "mismatched-n": lambda: (EmdenProblem(a=PowerFn(-2, 0, 1, -1), b=-1.0, n=3),
                             decaying_scale(), None, None, (0.5, 4.0)),
    "b=-2": lambda: (EmdenProblem(a=PowerFn(Fraction(-5, 2), 0, 1, -1), b=-2.0, n=5),
                     decaying_scale(), None, None, (0.5, 5.0)),
    "growing": lambda: (EmdenProblem(a=PowerFn(4, 10, -2, -1), b=-1.0, n=5),
                        PowerFn(1, 10, -2, Fraction(-1, 2)), None, None, (0.5, 2.0)),
    "bent-ddxp": lambda: (drag_problem_n5(), decaying_scale(), decaying_scale().deriv(),
                          lambda t: decaying_scale().deriv().deriv()(t) * (1 + 1e-7 * t),
                          (0.5, 5.0)),
    "crossing": lambda: (drag_problem_n5(), lambda t: 3.0 - t, lambda t: -1.0,
                         lambda t: 0.0, (0.5, 5.0)),
    "zero-slope": lambda: (drag_problem_n5(), lambda t: 1.0,
                           lambda t: 0.0 if t == _sample_time(120) else -1e-3,
                           lambda t: 0.0, (0.5, 5.0)),
    "late-positive-slope": lambda: (drag_problem_n5(), decaying_scale(),
                                    lambda t: 1e-3 if t > 4.0 else decaying_scale().deriv()(t),
                                    decaying_scale().deriv().deriv(), (0.5, 5.0)),
    "failing-ddxp": lambda: (drag_problem_n5(), decaying_scale(), None,
                             lambda t: 1.0 / (t - _sample_time(77)), (0.5, 5.0)),
    "t^(-1/2) at 0": lambda: (drag_problem_n5(), compile_expression("t^(-1/2)"), None, None,
                              (0.0, 5.0)),
    "ddxp-fails-before-xp": lambda: (
        drag_problem_n5(), lambda t: decaying_scale()(t) + 0.0 / (t - _sample_time(120)),
        decaying_scale().deriv(), lambda t: 1.0 / (t - _sample_time(30)), (0.5, 5.0)),
}


class TestReduceViaParticularSolution:
    def test_drag_problem_collapses_to_inverse_time_rate(self):
        prob = drag_problem_n5()
        red = reduce_via_particular_solution(prob, decaying_scale(), (0.5, 5.0))
        assert "  coefficients  c11=1 c12=1 c21=-1 c22=-1 cx=0\n" in red.render()
        assert red.n == 5.0
        assert red.rate_consistency <= 1e-12
        for t in np.linspace(0.5, 5.0, 20):
            t = float(t)
            assert red.rate(t) == pytest.approx(1.0 / (2.0 * t), rel=1e-10)
        assert red.gauge.alpha is None
        assert red.gauge.beta(2.0) == pytest.approx(0.125)
        assert "rate agreement" in red.render()

    def test_inverse_square_profile_reduces(self):
        prob = EmdenProblem(a=PowerFn(-5, 1, 1, -1), b=-1.0, n=2)
        red = reduce_via_particular_solution(prob, PowerFn(4, 1, 1, -2), (0.5, 4.0))
        for t in (0.5, 1.0, 3.0):
            assert red.rate(t) == pytest.approx(2.0 / (t + 1.0), rel=1e-10)

    def test_round_trip_reproduces_original_trajectory(self):
        prob = drag_problem_n5()
        red = reduce_via_particular_solution(prob, decaying_scale(), (0.5, 5.0))
        cfg = IntegratorConfig()
        z0 = (0.9, -0.4)
        orig = integrate(prob.rhs, 0.5, z0, 5.0, cfg)
        z0p = red.gauge.inverse(0.5, *z0)
        # the frozen field with the coefficients render prints, times the rate
        c = {k: float(v) for k, v in re.findall(r"(c\w+)=(\S+)", red.render())}

        def single_rate(t, z):
            x, v = z
            f = red.rate(t)
            return (f * (c["c11"] * x + c["c12"] * v),
                    f * (c["c21"] * v + c["cx"] * x + c["c22"] * real_power(x, red.n)))

        reduced = integrate(single_rate, 0.5, z0p, 5.0, cfg)
        gap, scale = 0.0, 1.0
        for t in np.linspace(0.5, 5.0, 40):
            t = float(t)
            want = orig(t)
            got = red.gauge.forward(t, *reduced(t))
            gap = max(gap, abs(got[0] - want[0]), abs(got[1] - want[1]))
            scale = max(scale, abs(want[0]), abs(want[1]))
        assert gap <= 100.0 * cfg.rel_tol * scale

    def test_scaled_profile_breaks_slope_compatibility(self):
        # 2/t solves this cubic problem, but its slope no longer matches
        # the profile's (n+1)th power, so the collapse must refuse
        prob = EmdenProblem(a=PowerFn(-3, 0, 1, -1), b=-0.25, n=3)
        with pytest.raises(ReductionError, match="slope compatibility"):
            reduce_via_particular_solution(prob, PowerFn(2, 0, 1, -1), (0.5, 4.0))

    def test_mismatched_exponent_reports_compatibility(self):
        prob = EmdenProblem(a=PowerFn(-2, 0, 1, -1), b=-1.0, n=3)
        with pytest.raises(ReductionError, match="slope compatibility"):
            reduce_via_particular_solution(prob, decaying_scale(), (0.5, 4.0))

    def test_rate_off_the_frame_rate_is_refused(self):
        # (2t)^(-1/2) solves this problem and is slope-compatible, but with
        # b = -2 the rate b xp^n/dxp is twice the frame's -dxp/xp, so the
        # single-rate system would map back to the wrong trajectory
        prob = EmdenProblem(a=PowerFn(Fraction(-5, 2), 0, 1, -1), b=-2.0, n=5)
        with pytest.raises(ReductionError, match=r"frame's rate .* near t=\S+"):
            reduce_via_particular_solution(prob, decaying_scale(), (0.5, 5.0))

    def test_growing_profile_rejected(self):
        # exact solution of its problem, compatibility holds, but the slope
        # is positive so the frame's velocity scale would go negative
        prob = EmdenProblem(a=PowerFn(4, 10, -2, -1), b=-1.0, n=5)
        xp = PowerFn(1, 10, -2, Fraction(-1, 2))
        with pytest.raises(ReductionError, match="negative slope"):
            reduce_via_particular_solution(prob, xp, (0.5, 2.0))


    def test_text_profile_is_evaluated_once_per_sample(self):
        # a profile from text differentiates exactly; each of xp, dxp and
        # ddxp is called once per sample, and only inside the interval
        calls = {"xp": [], "dxp": [], "ddxp": []}

        def counted(name, fn, deriv=None):
            def f(t):
                calls[name].append(t)
                return fn(t)
            f.deriv = deriv
            return f

        profile = compile_expression("(2*t)^(-1/2)")
        ddxp = counted("ddxp", profile.deriv().deriv())
        dxp = counted("dxp", profile.deriv(), lambda: ddxp)
        xp = counted("xp", profile, lambda: dxp)

        prob = EmdenProblem(a=compile_expression("-2/t"), b=compile_expression("-1"), n=5)
        red = reduce_via_particular_solution(prob, xp, (0.5, 5.0))
        for ts in calls.values():
            assert len(ts) == 200
            assert min(ts) == 0.5 and max(ts) == 5.0
        # the bits the README's reduce command reports
        assert red.rate_consistency.hex() == "0x1.8000000000000p-51"

    def test_profile_without_deriv_needs_its_derivatives(self):
        prob = drag_problem_n5()
        xp = lambda t: (2.0 * t) ** -0.5
        with pytest.raises(TypeError, match="^xp has no deriv"):
            reduce_via_particular_solution(prob, xp, (0.5, 5.0))
        with pytest.raises(TypeError, match="^dxp has no deriv"):
            reduce_via_particular_solution(prob, xp, (0.5, 5.0), dxp=lambda t: -((2.0 * t) ** -1.5))

    @pytest.mark.parametrize("xp, interval, where", [
        ("t^(-1/2)", (0.0, 5.0), "t=0: 0 raised to a negative power"),  # EvalDomainError
        ("1e200*t", (0.5, 5.0), "t=0.5: "),  # OverflowError squaring the slope
    ])
    def test_failing_evaluation_names_its_sample(self, xp, interval, where):
        with pytest.raises(ReductionError, match=re.escape(f"evaluation failed at {where}")):
            reduce_via_particular_solution(drag_problem_n5(), compile_expression(xp), interval)

    @pytest.mark.parametrize("case", sorted(_REDUCTION_CASES))
    @pytest.mark.parametrize("tol", [1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1e-3, 1.0, 1e300])
    def test_checks_match_the_loop_reference(self, case, tol):
        # the generated sampler and the one check pass report what the four
        # loops they replaced report: the same message, t and priority, or
        # the same rate agreement, bit for bit
        prob, xp, dxp, ddxp, interval = _REDUCTION_CASES[case]()

        def outcome(reduce):
            try:
                return reduce(prob, xp, interval, dxp=dxp, ddxp=ddxp, tol=tol)
            except ReductionError as exc:
                return str(exc)

        want = outcome(_reference_reduction)
        got = outcome(reduce_via_particular_solution)
        assert (got if isinstance(got, str) else got.rate_consistency.hex()) == (
            want if isinstance(want, str) else want.hex())

    def test_the_earliest_failing_sample_is_named(self):
        # ddxp fails at sample 30 and xp at sample 120; one pass per t meets
        # ddxp's failure first, where a pass of xp over every t met xp's
        prob, xp, dxp, ddxp, interval = _REDUCTION_CASES["ddxp-fails-before-xp"]()
        where = f"evaluation failed at t={_sample_time(30):.6g}: float division by zero"
        with pytest.raises(ReductionError, match=re.escape(where)):
            reduce_via_particular_solution(prob, xp, interval, dxp=dxp, ddxp=ddxp)

    def test_a_non_finite_sample_is_refused_at_its_time(self):
        entry = catalog_entry("lane_emden_n5")
        dd = entry.ddxp
        with pytest.raises(ReductionError, match=r"not finite at t=2\.0\d*: .*ddxp=nan"):
            reduce_via_particular_solution(
                entry.problem, entry.xp, (0.5, 5.0), dxp=entry.dxp,
                ddxp=lambda t: math.nan if 2 < t < 3 else dd(t))
        with pytest.raises(ReductionError, match=r"not finite at t=0\.5: .*dxp=inf"):
            reduce_via_particular_solution(entry.problem, entry.xp, (0.5, 5.0),
                                           dxp=lambda t: math.inf, ddxp=dd)

    def test_an_overflowing_check_is_refused(self):
        # every sample is finite, but a x' + b x^n overflows
        entry = catalog_entry("lane_emden_n5")
        with pytest.raises(ReductionError, match=r"not finite at t=0\.5: .*a=1e\+308"):
            reduce_via_particular_solution(
                EmdenProblem(a=1e308, b=-1.0, n=5), entry.xp, (0.5, 5.0),
                dxp=lambda t: -10.0, ddxp=entry.ddxp)

    def test_a_zero_slope_is_a_slope_sign_failure(self):
        ts = linspace(0.5, 5.0, 200)
        with pytest.raises(ReductionError, match=f"slope .* is 0 at t={ts[100]:.6g}; a negative"):
            reduce_via_particular_solution(
                drag_problem_n5(), lambda t: 1.0, (0.5, 5.0),
                dxp=lambda t: 0.0 if t == ts[100] else -1.0, ddxp=lambda t: 0.0, tol=1e300)

    def test_a_nan_base_is_named_in_the_evaluation_failure(self):
        with pytest.raises(ReductionError, match=r"t=0\.5: pow\(nan, 6\.0\): the base is not a real"):
            reduce_via_particular_solution(drag_problem_n5(), lambda t: math.nan, (0.5, 5.0),
                                           dxp=lambda t: -1.0, ddxp=lambda t: 0.0)


class TestKummerLiouville:
    def test_no_damping_is_identity(self):
        gp = GeneralizedProblem(p=0.0, q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 0.0, 2.0)
        assert not kl.truncated
        for t in (0.3, 1.0, 1.9):
            assert kl.gamma(t) == pytest.approx(1.0, abs=1e-12)
            assert kl.beta(t) == pytest.approx(1.0, abs=1e-11)
            assert kl.tau(t) == pytest.approx(t, abs=1e-11)
            assert kl.coefficient(t) == pytest.approx(1.0, rel=1e-10)

    def test_inverse_time_damping_gives_power_clock(self):
        gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(1.0, -1.0))
        assert not kl.truncated
        for t in np.linspace(1.0, 5.0, 9):
            t = float(t)
            assert abs(kl.gamma(t) * t - 1.0) <= 1e-9
            assert abs(kl.beta(t) * t - 1.0) <= 1e-9
            assert abs(kl.tau(t) - (t - 1.0)) <= 1e-9
            assert abs(kl.coefficient(t) * t ** 4 - 1.0) <= 1e-9

    def test_constant_damping_closed_form(self):
        c = 0.5
        gp = GeneralizedProblem(p=c, q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 0.0, 3.0)
        for t in (0.5, 1.5, 2.8):
            assert kl.gamma(t) == pytest.approx(1.0, abs=1e-12)
            assert kl.beta(t) == pytest.approx(math.exp(-c * t), rel=1e-10)
            assert kl.tau(t) == pytest.approx((1.0 - math.exp(-c * t)) / c, rel=1e-10)
            assert kl.coefficient(t) == pytest.approx(math.exp(2 * c * t), rel=1e-9)

    def test_oscillatory_scale_truncates(self):
        gp = GeneralizedProblem(p=0.0, q=1.0, r=1.0, n=3)
        kl = kummer_liouville(gp, 0.0, 3.0)
        assert kl.truncated
        assert 0.0 < math.pi / 2 - kl.t_end < 0.01
        assert kl.gamma(kl.t_end) > 0.0
        assert "truncated" in kl.render()

    def test_bad_initial_scale_rejected(self):
        gp = GeneralizedProblem(p=0.0, q=None, r=1.0, n=5)
        with pytest.raises(GaugeError, match="positive"):
            kummer_liouville(gp, 0.0, 2.0, gamma_init=(0.0, 1.0))
        with pytest.raises(ValueError, match="forward"):
            kummer_liouville(gp, 2.0, 2.0)

    def test_canonical_equation_holds_after_transform(self):
        gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(1.0, -1.0))
        assert canonical_residual(kl, gp, (0.3, 0.0), grid_points=41) < 1e-6

    @pytest.mark.parametrize("defect", ["coefficient exponent n+2", "clock rate 1/beta"])
    def test_wrong_reduction_fails_the_check(self, defect):
        # gamma = 1/t here, so one power of gamma changes F and the clock;
        # with gamma identically 1 such a defect could not show
        gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(1.0, -1.0))
        fields = dict(gamma=kl.gamma, dgamma=kl.dgamma, beta=kl.beta, tau=kl.tau,
                      coefficient=kl.coefficient, t0=kl.t0, t_end=kl.t_end,
                      truncated=kl.truncated, n=kl.n)
        if defect == "coefficient exponent n+2":
            fields["coefficient"] = lambda t: kl.coefficient(t) / kl.gamma(t)
        else:
            fields["beta"] = lambda t: kl.beta(t) * kl.gamma(t)
        wrong = KummerLiouvilleReduction(**fields)
        assert canonical_residual(wrong, gp, (0.3, 0.0), grid_points=41) > 1e-6

    @pytest.mark.parametrize("scale", [1.0, 1e20, 1e38])
    def test_a_wrong_clock_fails_at_every_scale(self, scale):
        # a large gamma makes x/gamma tiny; the residual stays relative, so
        # beta off by 1e-3 reads the same at every scale (it read 1e-24 at
        # gamma = 1e20 when values below 1 were compared absolutely)
        gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(scale, -scale))
        fields = dict(gamma=kl.gamma, dgamma=kl.dgamma, beta=lambda t: kl.beta(t) * 1.001,
                      tau=kl.tau, coefficient=kl.coefficient, t0=kl.t0, t_end=kl.t_end,
                      truncated=kl.truncated, n=kl.n)
        wrong = KummerLiouvilleReduction(**fields)
        assert canonical_residual(wrong, gp, (0.3, 0.0), grid_points=41) == pytest.approx(
            7.3e-5, rel=0.01)
        assert canonical_residual(kl, gp, (0.3, 0.0), grid_points=41) < 1e-10

    def test_an_identically_zero_run_has_residual_zero(self):
        gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
        kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(1.0, -1.0))
        assert canonical_residual(kl, gp, (0.0, 0.0), grid_points=41) == 0.0


def test_gauge_forwards_the_canonical_form_it_no_longer_holds():
    # perfbench/ still reads these three names from emdenlab.gauge
    from emdenlab import canonical, gauge

    assert canonical.__all__ == ["KummerLiouvilleReduction", "kummer_liouville",
                                 "canonical_residual"]
    for name in canonical.__all__:
        assert getattr(gauge, name) is getattr(canonical, name)
    with pytest.raises(AttributeError, match="no attribute '_tau_rhs'"):
        gauge._tau_rhs
