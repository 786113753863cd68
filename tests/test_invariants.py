"""Constants of motion: exact forms, condition gating, drift along trajectories."""

import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from emdenlab import invariants, numerics
from emdenlab.gauge import EmdenProblem
from emdenlab.invariants import (
    ConditionedInvariant,
    DriftReport,
    Invariant,
    InvariantDomainError,
    dilation_invariant,
    drift,
    invariant_from_particular_solution,
    particular_invariant_expansion,
    rescaled_energy_invariant,
)
from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.problemfile import compile_expression, parse_spec
from emdenlab.timefn import ExactnessError, PowerFn, constant, linspace


def drag_problem_n5():
    return EmdenProblem(a=PowerFn(-2, 0, 1, -1), b=-1.0, n=5)


def decaying_scale():
    return PowerFn(1, 0, 2, Fraction(-1, 2))


def bounded_profile(t):
    # the regular solution of the n=5 drag problem and its slope
    x = (1.0 + t * t / 3.0) ** -0.5
    return x, -(t / 3.0) * x ** 3


class TestParticularSolutionInvariant:
    def test_exact_cubic_expansion(self):
        # for the (2t)^(-1/2) profile at n=5 every coefficient is an exact
        # rational times an integer power of t
        expansion = particular_invariant_expansion(decaying_scale(), 5)
        assert expansion == {
            (6, 0): (Fraction(4, 3), 3),
            (0, 2): (Fraction(4), 3),
            (1, 1): (Fraction(4), 2),
        }

    def test_expansion_with_a_large_coefficient_is_exact(self):
        # c = 3^20 passes 2**53 inside the expansion's powers
        expansion = particular_invariant_expansion(PowerFn(3**20, 0, 1, Fraction(-1, 2)), 5)
        assert expansion == {
            (6, 0): (Fraction(1, 6 * 3**120), 3),
            (0, 2): (Fraction(2, 3**40), 3),
            (1, 1): (Fraction(2, 3**40), 2),
        }

    def test_evaluator_matches_expansion(self):
        inv = invariant_from_particular_solution(
            drag_problem_n5(), decaying_scale(), (0.5, 5.0)
        )
        for t, x, v in [(1.3, 0.8, -0.2), (0.7, 1.1, 0.5), (4.0, 0.3, -0.1)]:
            direct = (4.0 / 3.0) * t ** 3 * x ** 6 + 4.0 * t ** 3 * v * v + 4.0 * t * t * x * v
            assert inv(t, x, v) == pytest.approx(direct, rel=1e-12)

    def test_vanishes_along_the_bounded_solution(self):
        inv = invariant_from_particular_solution(
            drag_problem_n5(), decaying_scale(), (0.2, 3.0)
        )
        for t in np.linspace(0.2, 3.0, 12):
            x, v = bounded_profile(float(t))
            assert abs(inv(float(t), x, v)) <= 1e-12

    def test_constant_along_generic_trajectories(self):
        prob = drag_problem_n5()
        inv = invariant_from_particular_solution(prob, decaying_scale(), (0.5, 5.0))
        traj = integrate(prob.rhs, 0.5, (0.9, -0.3), 5.0, IntegratorConfig())
        report = drift(inv, traj)
        assert report.relative_drift < 1e-7
        assert report.provenance == "particular-solution"

    def test_rejects_profile_failing_reduction_checks(self):
        with pytest.raises(ValueError, match="slope compatibility"):
            invariant_from_particular_solution(
                EmdenProblem(a=PowerFn(-2, 0, 1, -1), b=-1.0, n=3),
                decaying_scale(),
                (0.5, 4.0),
            )

    def test_expansion_requires_power_profile(self):
        with pytest.raises(TypeError, match="PowerFn"):
            particular_invariant_expansion(lambda t: t, 5)

    @pytest.mark.parametrize("c, m, e, n", [
        (1, 2, Fraction(-1, 2), 5),                              # lane_emden_n5
        (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), 5),    # (2t)^(-1/2) as (1/2)(t/2)^(-1/2)
        (Fraction(3, 2), -8, Fraction(1, 3), 2),                 # odd root of a negative m t
        (-2, 27, Fraction(-2, 3), 3),                            # negative coefficient
        (4, Fraction(1, 4), 2, Fraction(1, 2)),                  # half-integer n
    ])
    def test_expansion_sums_to_the_invariant_in_floats(self, c, m, e, n):
        xp = PowerFn(c, 0, m, e)
        expansion = particular_invariant_expansion(xp, n)
        np1 = float(n) + 1.0

        def real_pow(base, p):
            # the real value of base^p for a rational p with an odd denominator
            mag = abs(base) ** float(p)
            return -mag if base < 0 and p.numerator % 2 else mag

        for t, x, v in [(0.3, 0.8, -0.2), (1.7, 1.1, 0.5), (4.0, 0.3, -1.4)]:
            p = float(c) * real_pow(float(m) * t, e)
            dp = float(c * e * m) * real_pow(float(m) * t, e - 1)
            terms = (x ** np1 / (np1 * real_pow(p, Fraction(n) + 1)),
                     v * v / (2.0 * dp * dp), -x * v / (p * dp))
            got = sum(float(coeff) * t ** float(tpow) * x ** float(xdeg) * v ** vdeg
                      for (xdeg, vdeg), (coeff, tpow) in expansion.items())
            assert abs(got - sum(terms)) <= 1e-13 * sum(map(abs, terms)), (t, x, v)

    @pytest.mark.parametrize("xp, n, match", [
        (PowerFn(1, 1, 2, Fraction(-1, 2)), 5, "shift"),
        (PowerFn(1.0, 0, 2, Fraction(-1, 2)), 5, "inexact fields"),
        (PowerFn(1, 0, 2, Fraction(-1, 2)), -1, "n = -1"),
        (PowerFn(0, 0, 2, Fraction(-1, 2)), 5, "nonpositive exponent"),    # zero profile
        (PowerFn(3, 0, 2, 0), 5, "nonpositive exponent"),                  # zero slope
        (PowerFn(-2, 0, 1, -2), Fraction(1, 2), "even-root"),              # (-2)^(-3/2)
        (PowerFn(2, 0, 1, -2), Fraction(1, 2), "irrational"),              # 2^(-3/2)
    ])
    def test_expansion_refusals(self, xp, n, match):
        # a zero profile or slope and an even root of a negative number are
        # ExactnessErrors, not EvalDomainErrors from a float fallback
        with pytest.raises(ExactnessError, match=match):
            particular_invariant_expansion(xp, n)


class TestRescaledEnergy:
    def test_autonomous_case_is_plain_energy(self):
        prob = EmdenProblem(a=0.0, b=-1.0, n=5)
        rep = rescaled_energy_invariant(prob, 0.0, (0.0, 3.0))
        assert rep.passed
        assert rep.constant == pytest.approx(-1.0, abs=1e-12)
        inv = rep.invariant
        for x, v in [(0.9, 0.1), (0.4, -0.7)]:
            assert inv(1.7, x, v) == pytest.approx(v * v / 2.0 + x ** 6 / 6.0, rel=1e-11)
        traj = integrate(prob.rhs, 0.0, (0.9, 0.0), 3.0, IntegratorConfig())
        assert drift(inv, traj).relative_drift < 1e-8

    def test_exponential_balance_passes(self):
        K, c = 0.7, 0.3
        prob = EmdenProblem(a=c, b=compile_expression("0.7*exp(0.6*t)"), n=3)
        rep = rescaled_energy_invariant(prob, 0.0, (0.0, 1.5))
        assert rep.passed
        assert rep.constant == pytest.approx(K, rel=1e-9)
        traj = integrate(prob.rhs, 0.0, (0.3, 0.0), 1.5, IntegratorConfig())
        assert drift(rep.invariant, traj).relative_drift < 1e-7

    def test_drag_coefficients_fail_the_condition(self):
        rep = rescaled_energy_invariant(drag_problem_n5(), 0.5, (0.5, 3.0))
        assert not rep.passed
        assert rep.invariant is None
        # b' = 0 against 2ab = 4/t is a whole gap at every sample
        assert rep.variation == 1.0
        assert rep.condition_values == [1.0] * 200
        assert "FAIL" in rep.render()

    def test_condition_reads_the_gap_of_b_prime_against_2ab(self):
        # a = -1/t, b = 1 + t: b' = 1 and 2ab = -2(1 + t)/t, whose size is
        # above 1, so the gap is 1 + t/(2(1 + t))
        prob = EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=compile_expression("1 + t"), n=3)
        rep = rescaled_energy_invariant(prob, 0.5, (0.5, 5.0))
        assert rep.constant == 1.5 and not rep.passed
        for t, gap in zip(rep.ts, rep.condition_values):
            assert gap == pytest.approx(1.0 + t / (2.0 * (1.0 + t)), rel=1e-14)
        assert rep.variation == max(rep.condition_values)

    @pytest.mark.parametrize("prob", [
        EmdenProblem(a=0.0, b=-1.0, n=3),
        EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=PowerFn(-1.07, 0, 1, -2), n=3),
        parse_spec("kind = emden\nn = 3\na = -1.0/t\nb = -0.93*t^(-2.0)\n"
                   "interval = 0.5, 5\nx0 = 1.3\nv0 = -0.2\n").build_emden(),
    ], ids=["plain", "powerfn", "text"])
    def test_the_floor_does_not_bind_on_the_readme_and_benchmark_problems(self, prob):
        # b' = 0 = 2ab, or |b'| = |2ab| = 2|b|/t above |b|/4.5 on [0.5, 5]: each
        # gap is the one taken without the floor, bit for bit
        rep = rescaled_energy_invariant(prob, 0.5, (0.5, 5.0))
        assert rep.passed
        db = prob.b.deriv()
        for t, gap in zip(rep.ts, rep.condition_values):
            slope, balance = db(t), 2.0 * prob.a(t) * prob.b(t)
            scale = max(abs(slope), abs(balance))
            assert scale == 0.0 or scale > abs(prob.b(t)) / 4.5
            assert gap == (abs(slope - balance) / scale if scale else 0.0)

    def test_b_without_an_exact_derivative_is_refused(self):
        prob = EmdenProblem(a=0.0, b=lambda t: -1.0, n=3)
        with pytest.raises(TypeError, match="b = .* has no exact deriv"):
            rescaled_energy_invariant(prob, 0.5, (0.5, 5.0))

    @pytest.mark.parametrize("prob, anchor, window", [
        (parse_spec("kind = emden\nn = 3\na = -1.0/t\nb = -1.07*t^(-2.0)\n"
                    "interval = 0.5, 5\nx0 = 1.3\nv0 = -0.2\n").build_emden(), 0.5, (0.5, 5.0)),
        (parse_spec("kind = emden\nn = -1\na = -1.0/t\nb = -0.93*t^(-2.0)\n"
                    "interval = 0.5, 5\nx0 = 1.3\nv0 = -0.2\n").build_emden(), 0.5, (0.5, 5.0)),
        (EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=PowerFn(-1.07, 0, 1, -2), n=3), 0.5, (0.5, 5.0)),
        (EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=PowerFn(-0.93, 0, 1, -2), n=-1), 0.5, (0.5, 5.0)),
        (EmdenProblem(a=0.3, b=compile_expression("0.7*exp(0.6*t)"), n=3), 0.0, (0.0, 1.5)),
    ], ids=["text-n3", "text-n-1", "powerfn-n3", "powerfn-n-1", "exponential"])
    def test_closed_form_matches_the_integrated_form(self, prob, anchor, window):
        # the form the closed one replaced: A = int a from the anchor,
        # integrated tightly, and I = exp(-2A) (v^2/2 - b x^(n+1)/(n+1))
        rep = rescaled_energy_invariant(prob, anchor, window)
        assert rep.passed
        A = integrate(lambda t, y: (prob.a(t),), anchor, (0.0,), window[1],
                      IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
        pot = math.log if prob.n == -1 else lambda x: x ** (prob.n + 1) / (prob.n + 1)
        for t in linspace(window[0], window[1], 7):
            for x, v in ((0.9, -0.3), (1.4, 0.2)):
                want = math.exp(-2.0 * A(t)[0]) * (v * v / 2.0 - prob.b(t) * pot(x))
                assert rep.invariant(t, x, v) == pytest.approx(want, rel=1e-9), (t, x, v)


class TestIntegralsFromTheAnchor:
    """a = -1/t from anchor t0: A = -ln(t/t0) and G = t0 ln(t/t0)."""

    T0 = 0.5

    def test_dilation_condition_reads_A_and_G(self):
        # at n = -1 the condition is b exp(-2A) 2G
        prob = EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=1.0, n=-1)
        rep = dilation_invariant(prob, self.T0, (0.6, 5.0))
        for t, value in zip(rep.ts, rep.condition_values):
            A = -math.log(t / self.T0)
            G = self.T0 * math.log(t / self.T0)
            assert value == pytest.approx(math.exp(-2.0 * A) * 2.0 * G, rel=1e-10)

    def test_dilation_invariant_matches_its_closed_form(self):
        # n = -3, b = t^-2: b exp(-2A) = t0^-2 is constant
        prob = EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=PowerFn(1, 0, 1, -2), n=-3)
        rep = dilation_invariant(prob, self.T0, (0.6, 5.0))
        assert rep.passed
        for t in (0.6, 2.0, 5.0):
            A = -math.log(t / self.T0)
            G = self.T0 * math.log(t / self.T0)
            for x, v in ((0.9, -0.3), (1.4, 0.2)):
                energy = v * v / 2.0 + x ** -2.0 / (2.0 * t * t)
                want = energy * math.exp(-2.0 * A) * G - 0.5 * x * v * math.exp(-A)
                assert rep.invariant(t, x, v) == pytest.approx(want, rel=1e-10)


class TestDilationInvariant:
    def test_balanced_power_coefficient_passes(self):
        K = -0.5
        prob = EmdenProblem(a=0.0, b=PowerFn(K, 0, 2, -4), n=5)
        rep = dilation_invariant(prob, 0.0, (0.5, 3.0))
        assert rep.passed
        assert rep.constant == pytest.approx(K, rel=1e-9)
        traj = integrate(prob.rhs, 0.5, (1.0, -0.2), 3.0, IntegratorConfig())
        assert drift(rep.invariant, traj).relative_drift < 1e-6

    def test_degenerate_exponent_collapses_condition(self):
        K = 0.8
        prob = EmdenProblem(a=0.0, b=K, n=-3)
        rep = dilation_invariant(prob, 0.0, (0.5, 3.0))
        assert rep.passed
        assert rep.constant == pytest.approx(K, abs=1e-12)
        inv = rep.invariant
        t, x, v = 2.0, 1.1, 0.4
        energy = v * v / 2.0 + (K / 2.0) * x ** -2.0
        assert inv(t, x, v) == pytest.approx(energy * t - x * v / 2.0, rel=1e-10)
        traj = integrate(prob.rhs, 0.5, (1.0, 0.1), 3.0, IntegratorConfig())
        assert drift(inv, traj).relative_drift < 1e-6

    def test_drag_coefficients_sampled_honestly(self):
        # with the drag problem the condition value is -(2t-1)^4 from a
        # 0.5 anchor: decisively non-constant
        rep = dilation_invariant(drag_problem_n5(), 0.5, (1.0, 3.0))
        assert not rep.passed
        assert rep.condition_values[0] == pytest.approx(-1.0, rel=1e-6)
        assert rep.condition_values[-1] == pytest.approx(-625.0, rel=1e-6)

    def test_interval_must_start_after_anchor(self):
        prob = EmdenProblem(a=0.0, b=-1.0, n=5)
        with pytest.raises(ValueError, match="strictly after"):
            dilation_invariant(prob, 0.5, (0.5, 3.0))


class TestConditionWindows:
    """Each constructor refuses a window it cannot sample, naming it."""

    PROB = EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=1.0, n=3)

    @pytest.mark.parametrize("start", [0.5, 0.999])
    def test_rescaled_energy_window_must_not_start_before_the_anchor(self, start):
        with pytest.raises(ValueError, match=rf"interval \({start}, 5.0\) must not start "
                                             "before the anchor 1.0"):
            rescaled_energy_invariant(self.PROB, 1.0, (start, 5.0))

    def test_dilation_window_names_itself_and_the_anchor(self):
        with pytest.raises(ValueError, match=r"interval \(0.5, 3.0\) must start strictly "
                                             "after the anchor 0.5"):
            dilation_invariant(self.PROB, 0.5, (0.5, 3.0))

    @pytest.mark.parametrize("construct", [rescaled_energy_invariant, dilation_invariant])
    @pytest.mark.parametrize("interval", [(2.0, 0.8), (2.0, 2.0), (2.0, math.nan)])
    def test_window_must_end_after_it_starts(self, construct, interval):
        with pytest.raises(ValueError, match=rf"interval \(2.0, {interval[1]}\) must end "
                                             "after it starts"):
            construct(self.PROB, 0.5, interval)


class TestConditionScale:
    """b -> lambda b maps the condition to lambda times itself, so its
    verdict may not depend on lambda (s7b at n = -3, where its condition is
    b exp(-2A); s7a's gap between b' and 2ab is relative to their size)."""

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("construct, n", [(rescaled_energy_invariant, 3),
                                              (dilation_invariant, -3)])
    def test_verdict_does_not_depend_on_the_scale_of_b(self, construct, n, scale):
        # b exp(-2A) is -scale (1 + t), which varies by 0.6 of its mean on
        # the window, and b' = -scale is a whole gap from 2ab = 0; with
        # b = -scale exp(0.6 t), b exp(-2A) is -scale up to the integration
        # of A, and b' = 2ab up to rounding
        varying = construct(EmdenProblem(a=0.0, b=compile_expression(f"-{scale!r}*(1+t)"), n=n),
                            0.0, (0.5, 5.0))
        assert not varying.passed and varying.invariant is None
        want = 1.0 if construct is rescaled_energy_invariant else 0.6
        assert varying.variation == pytest.approx(want, rel=1e-12)
        constant = construct(EmdenProblem(a=0.3, b=compile_expression(f"-{scale!r}*exp(0.6*t)"),
                                          n=n), 0.0, (0.5, 5.0))
        assert constant.passed and constant.variation <= 1e-8

    def test_zero_mean(self):
        # an identically zero condition does not vary; one that varies
        # around a zero mean has no finite relative variation (s7b at
        # n = -3, a = 0, where the condition is b itself)
        zero = dilation_invariant(EmdenProblem(a=0.0, b=0.0, n=-3), 0.0, (0.5, 5.0))
        assert zero.passed and zero.variation == 0.0
        step = EmdenProblem(a=0.0, b=lambda t: 1.0 if t < 2.75 else -1.0, n=-3)
        rep = dilation_invariant(step, 0.0, (0.5, 5.0))
        assert rep.constant == 0.0 and rep.variation == math.inf and not rep.passed
        assert "variation    inf" in rep.render()


def _compensated_sum(values, start=0):
    """sum() of floats as Python 3.12 computes it: Neumaier's compensated
    summation, which rounds the last digit differently from 3.11's."""
    total, carry = float(start), 0.0
    for v in values:
        s = total + v
        carry += (total - s) + v if abs(total) >= abs(v) else (v - s) + total
        total = s
    return total + carry


class TestSumOrder:
    """Every float sum is added left to right from 0.0, which is what
    Python 3.11's sum() does, so the printed bytes are the same on 3.12+."""

    # `invariant --method s7b` prints variation 1.437e-11 with the
    # condition's mean added left to right, and 1.436e-11 through a
    # compensated sum (sum() on 3.12+)
    SPEC = ("kind = emden\nn = -3\na = -1.0/t\nb = 1.71540406668595*t^(-2.0)\n"
            "singular_points = 0\ninterval = 0.5, 5.0\nx0 = 1.3\nv0 = -0.2\n")

    @classmethod
    def outputs(cls):
        # the window that `invariant --method s7b` opens on this file
        cond = dilation_invariant(parse_spec(cls.SPEC).build_emden(), 0.5, (0.59, 5.0))
        # six components, so the error norm and _rms have sums worth compensating
        traj = integrate(lambda t, y: [math.cos(t + i) * y[(i + 1) % 6] - 0.3 * y[i] ** 3
                                       for i in range(6)], 0.0, [0.5 + 0.1 * i for i in range(6)], 5.0)
        return (cond.render(), cond.constant.hex(), cond.variation.hex(),
                [t.hex() for t in traj.ts], [[v.hex() for v in y] for y in traj.ys])

    def test_a_compensated_sum_changes_no_output(self, monkeypatch):
        want = self.outputs()
        assert "variation    1.437e-11" in want[0]
        for module in (numerics, invariants):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
        assert self.outputs() == want


class TestDrift:
    def trajectory(self):
        prob = drag_problem_n5()
        return prob, integrate(prob.rhs, 0.5, (0.9, -0.3), 5.0, IntegratorConfig())

    def test_constant_map_has_zero_drift(self):
        _, traj = self.trajectory()
        report = drift(Invariant(lambda t, x, v: 3.7, "generic"), traj)
        assert report.max_drift == 0.0
        assert report.relative_drift == 0.0

    def test_non_invariant_flagged(self):
        _, traj = self.trajectory()
        report = drift(Invariant(lambda t, x, v: x, "generic"), traj)
        assert report.relative_drift > 0.01
        assert "drift" in report.render()

    def test_domain_error_reports_sample(self):
        _, traj = self.trajectory()
        bad = Invariant(lambda t, x, v: 1.0 / (t - 2.0), "generic")
        with pytest.raises(InvariantDomainError, match="sample"):
            drift(bad, traj, samples=7)  # grid hits t = 2.0 exactly

    def test_validity_interval_enforced(self):
        _, traj = self.trajectory()
        inv = Invariant(lambda t, x, v: x, "generic", validity_interval=(0.5, 2.0))
        with pytest.raises(ValueError, match="validity"):
            drift(inv, traj)

    @pytest.mark.parametrize("construct, prob, anchor, window, z0", [
        (dilation_invariant, EmdenProblem(a=0.0, b=PowerFn(-0.5, 0, 2, -4), n=5),
         0.0, (0.5, 3.0), (1.0, -0.2)),
    ], ids=["dilation"])
    def test_grid_form_reports_as_point_reads_do(self, construct, prob, anchor, window, z0):
        inv = construct(prob, anchor, window).invariant
        point = dataclasses.replace(inv, evaluator=lambda t, x, v: inv.evaluator(t, x, v))
        assert hasattr(inv.evaluator, "grid") and not hasattr(point.evaluator, "grid")
        t0, t1 = window
        forward = integrate(prob.rhs, t0, z0, t1, IntegratorConfig())
        backward = integrate(prob.rhs, t1, forward(t1), t0, IntegratorConfig())
        for traj in (forward, backward):
            got, want = drift(inv, traj), drift(point, traj)
            assert got == want
            assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
        # past the end of the integrals' run, within the invariant's slack:
        # the last sample fails, and is named, on both paths
        past = integrate(prob.rhs, t0, z0, t1 + 1e-9, IntegratorConfig())
        errors = []
        for one in (inv, point):
            with pytest.raises(InvariantDomainError, match="at sample 199 ") as err:
                drift(one, past)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_csv_rows_and_summary(self):
        _, traj = self.trajectory()
        report = drift(Invariant(lambda t, x, v: x, "generic"), traj, samples=5)
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,I"
        assert len(lines) == 7
        assert lines[-1].startswith("# relative drift")
        assert float(lines[1].split(",")[0]) == 0.5


class TestUniversalDriftProperty:
    """Every constructor whose precondition passed yields relative drift
    below 1e3 times the integrator tolerance on singularity-free windows."""

    REL = 1e-10
    BAR = 1e3 * REL

    def check(self, inv, rhs, t0, z0, t1):
        traj = integrate(rhs, t0, z0, t1, IntegratorConfig(rel_tol=self.REL))
        assert drift(inv, traj).relative_drift < self.BAR

    def test_particular_solution_construction(self):
        prob = drag_problem_n5()
        inv = invariant_from_particular_solution(prob, decaying_scale(), (0.5, 5.0))
        self.check(inv, prob.rhs, 0.5, (1.1, 0.2), 5.0)

    def test_rescaled_energy_construction(self):
        prob = EmdenProblem(a=0.3, b=compile_expression("0.7*exp(0.6*t)"), n=3)
        rep = rescaled_energy_invariant(prob, 0.0, (0.0, 1.5))
        assert rep.passed
        self.check(rep.invariant, prob.rhs, 0.0, (0.3, 0.0), 1.5)

    def test_dilation_construction(self):
        prob = EmdenProblem(a=0.0, b=PowerFn(-0.5, 0, 2, -4), n=5)
        rep = dilation_invariant(prob, 0.0, (0.5, 3.0))
        assert rep.passed
        self.check(rep.invariant, prob.rhs, 0.5, (1.0, -0.2), 3.0)
