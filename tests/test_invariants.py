"""Constants of motion: exact forms, condition gating, drift along trajectories."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

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
from emdenlab.timefn import PowerFn, constant


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
        prob = EmdenProblem(a=c, b=lambda t: K * math.exp(2 * c * t), n=3)
        rep = rescaled_energy_invariant(prob, 0.0, (0.0, 1.5))
        assert rep.passed
        assert rep.constant == pytest.approx(K, rel=1e-9)
        traj = integrate(prob.rhs, 0.0, (0.3, 0.0), 1.5, IntegratorConfig())
        assert drift(rep.invariant, traj).relative_drift < 1e-7

    def test_drag_coefficients_fail_the_condition(self):
        rep = rescaled_energy_invariant(drag_problem_n5(), 0.5, (0.5, 3.0))
        assert not rep.passed
        assert rep.invariant is None
        assert rep.variation > 1.0
        # condition value is -(t/anchor)^4; frozen at the left endpoint
        assert rep.condition_values[0] == pytest.approx(-1.0, rel=1e-9)
        assert "FAIL" in rep.render()


class TestIntegralsFromTheAnchor:
    """a = -1/t from anchor t0: A = -ln(t/t0) and G = t0 ln(t/t0)."""

    T0 = 0.5

    def test_rescaled_energy_condition_reads_exp_of_minus_two_A(self):
        prob = EmdenProblem(a=PowerFn(-1, 0, 1, -1), b=1.0, n=3)
        rep = rescaled_energy_invariant(prob, self.T0, (self.T0, 5.0))
        for t, value in zip(rep.ts, rep.condition_values):
            A = -math.log(t / self.T0)
            assert value == pytest.approx(math.exp(-2.0 * A), rel=1e-10)

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
        prob = EmdenProblem(a=0.3, b=lambda t: 0.7 * math.exp(0.6 * t), n=3)
        rep = rescaled_energy_invariant(prob, 0.0, (0.0, 1.5))
        assert rep.passed
        self.check(rep.invariant, prob.rhs, 0.0, (0.3, 0.0), 1.5)

    def test_dilation_construction(self):
        prob = EmdenProblem(a=0.0, b=PowerFn(-0.5, 0, 2, -4), n=5)
        rep = dilation_invariant(prob, 0.0, (0.5, 3.0))
        assert rep.passed
        self.check(rep.invariant, prob.rhs, 0.5, (1.0, -0.2), 3.0)
