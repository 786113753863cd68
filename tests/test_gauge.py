"""Frame changes: pushforwards, particular-solution reduction, canonical form."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from emdenlab.gauge import (
    EmdenProblem,
    GaugeError,
    GaugeTransform,
    GeneralizedProblem,
    KummerLiouvilleReduction,
    ReductionError,
    canonical_residual,
    kummer_liouville,
    push_system,
    reduce_via_particular_solution,
    verify_pushforward,
)
from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.problemfile import compile_expression
from emdenlab.timefn import ZERO_FN, PowerFn, constant


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
    def shear_frame(self):
        return GaugeTransform(
            alpha=compile_expression("sin(t)"),
            beta=PowerFn(1, 2, 1, 1),
            gamma=PowerFn(2, 1, 1, 1),
        )

    def test_forward_inverse_round_trip(self):
        g = self.shear_frame()
        for t, xp, vp in [(0.7, 1.3, -0.8), (2.0, 0.4, 2.2), (5.5, -0.6, 0.1)]:
            x, v = g.forward(t, xp, vp)
            rx, rv = g.inverse(t, x, v)
            assert rx == pytest.approx(xp, abs=1e-12)
            assert rv == pytest.approx(vp, abs=1e-12)

    def test_missing_derivatives_come_from_deriv(self):
        g = self.shear_frame()
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


class TestPushSystem:
    def test_identity_frame_returns_problem_coefficients(self):
        prob = drag_problem_n5()
        ps = push_system(prob, identity_frame())
        assert ps.feedback is ZERO_FN  # stays exactly zero, not merely small
        for t in (0.5, 2.0, 7.0):
            assert ps.drift_x(t) == 0.0
            assert ps.gain(t) == 1.0
            assert ps.drift_v(t) == prob.a(t)
            assert ps.nonlin(t) == prob.b(t)

    def test_pure_scaling_frame_formulas(self):
        prob = drag_problem_n5()
        beta = PowerFn(1, 2, 1, 1)       # 2 + t
        gamma = PowerFn(1, 1, 1, 2)      # (1 + t)^2
        g = GaugeTransform(alpha=None, beta=beta, gamma=gamma)
        ps = push_system(prob, g)
        assert ps.feedback is ZERO_FN
        dbeta, dgamma = beta.deriv(), gamma.deriv()
        for t in (0.4, 1.0, 2.7):
            assert ps.gain(t) == pytest.approx(beta(t) / gamma(t), rel=1e-14)
            assert ps.drift_x(t) == pytest.approx(-dgamma(t) / gamma(t), rel=1e-14)
            assert ps.drift_v(t) == pytest.approx(
                prob.a(t) - dbeta(t) / beta(t), rel=1e-14
            )
            assert ps.nonlin(t) == pytest.approx(
                prob.b(t) * gamma(t) ** 5 / beta(t), rel=1e-14
            )

    def test_inverse_time_scales_flatten_the_drift(self):
        # p = 2/t with both scales 1/t and shear equal to the scale's slope:
        # every linear slot cancels and only the nonlinearity survives,
        # with coefficient t^(1-n).
        gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
        prob = gp.as_emden()
        scale = PowerFn(1, 0, 1, -1)
        g = GaugeTransform(alpha=scale.deriv(), beta=scale, gamma=scale)
        ps = push_system(prob, g)
        for t in np.linspace(0.4, 3.0, 7):
            t = float(t)
            assert abs(ps.drift_x(t)) <= 1e-13
            assert abs(ps.drift_v(t)) <= 1e-13
            assert abs(ps.feedback(t)) <= 1e-12
            assert ps.gain(t) == 1.0
            assert ps.nonlin(t) * t ** 4 == pytest.approx(1.0, rel=1e-12)


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

    def test_negative_velocity_scale_rejected(self):
        gamma = decaying_scale()
        wrong = GaugeTransform(alpha=None, beta=gamma.deriv(), gamma=gamma)
        with pytest.raises(GaugeError, match="beta"):
            verify_pushforward(drag_problem_n5(), wrong, (0.9, -0.3), (0.5, 5.0))


class TestReduceViaParticularSolution:
    def test_drag_problem_collapses_to_inverse_time_rate(self):
        prob = drag_problem_n5()
        red = reduce_via_particular_solution(prob, decaying_scale(), (0.5, 5.0))
        s = red.system
        assert (s.c11, s.c12, s.c21, s.c22, s.cx) == (1.0, 1.0, -1.0, -1.0, 0.0)
        assert s.n == 5.0
        assert red.rate_consistency <= 1e-12
        for t in np.linspace(0.5, 5.0, 20):
            t = float(t)
            assert s.f(t) == pytest.approx(1.0 / (2.0 * t), rel=1e-10)
        assert red.gauge.alpha is None
        assert red.gauge.beta(2.0) == pytest.approx(0.125)
        assert "rate agreement" in red.render()

    def test_inverse_square_profile_reduces(self):
        prob = EmdenProblem(a=PowerFn(-5, 1, 1, -1), b=-1.0, n=2)
        red = reduce_via_particular_solution(prob, PowerFn(4, 1, 1, -2), (0.5, 4.0))
        for t in (0.5, 1.0, 3.0):
            assert red.system.f(t) == pytest.approx(2.0 / (t + 1.0), rel=1e-10)

    def test_round_trip_reproduces_original_trajectory(self):
        prob = drag_problem_n5()
        red = reduce_via_particular_solution(prob, decaying_scale(), (0.5, 5.0))
        cfg = IntegratorConfig()
        z0 = (0.9, -0.4)
        orig = integrate(prob.rhs, 0.5, z0, 5.0, cfg)
        z0p = red.gauge.inverse(0.5, *z0)
        reduced = integrate(red.system.rhs, 0.5, z0p, 5.0, cfg)
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
