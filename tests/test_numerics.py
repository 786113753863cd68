"""Integrator, quadrature and antiderivative checks.

The tableau identities at the top are exact-rational assertions: stage
abscissae, quadrature conditions through order five, and the endpoint /
derivative conditions of the dense interpolant.  The behavioral tests then
confirm fifth-order convergence and the documented error contracts.
"""

import bisect
import gc
import io
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from emdenlab import numerics
from emdenlab.exprlang import EvalDomainError, real_power
from emdenlab.numerics import (
    AntiderivativeFn, IntegrationError, IntegratorConfig, QuadratureError,
    RhsError, StepEvaluationError, StepSizeUnderflowError, integrate,
    invert_monotone, quad, write_csv,
)


class TestTableauIdentities:
    def test_stage_abscissae_match_row_sums(self):
        for i, row in enumerate(numerics._A):
            assert sum(row, Fraction(0)) == numerics._C[i]

    def test_quadrature_conditions_of_both_weight_rows(self):
        B, C, E = numerics._B, numerics._C, numerics._E
        Bstar = [b - e for b, e in zip(B, E)]
        for k in range(5):
            assert sum(b * c ** k for b, c in zip(B, C)) == Fraction(1, k + 1)
        for k in range(4):
            assert sum(b * c ** k for b, c in zip(Bstar, C)) == Fraction(1, k + 1)

    def test_last_stage_reuses_the_accepted_weights(self):
        assert numerics._A[6] == numerics._B[:6]

    def test_interpolant_matches_endpoints_and_slopes(self):
        P, B = numerics._P, numerics._B
        for s, row in enumerate(P):
            assert sum(row, Fraction(0)) == B[s]
            slope_at_1 = sum((j + 1) * p for j, p in enumerate(row))
            assert slope_at_1 == (1 if s == 6 else 0)
            assert row[0] == (1 if s == 0 else 0)


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def _oscillator_exact(t):
    return np.array([math.cos(t), -math.sin(t)])


class TestIntegrate:
    def test_polynomial_rhs_is_integrated_exactly_in_one_step(self):
        traj = integrate(lambda t, y: np.array([t ** 4]), 0.0, [0.0], 1.0,
                         IntegratorConfig(rel_tol=1e-2, abs_tol=1e-2,
                                          first_step=1.0))
        assert len(traj.t) == 2
        assert abs(traj.y[-1][0] - 0.2) <= 5e-16

    def test_fifth_order_convergence_at_fixed_steps(self):
        def err_at(h):
            cfg = IntegratorConfig(rel_tol=0.5, abs_tol=10.0,
                                   first_step=h, max_step=h)
            traj = integrate(_oscillator, 0.0, [1.0, 0.0], math.pi, cfg)
            return float(np.max(np.abs(traj.y[-1] - _oscillator_exact(math.pi))))

        h = math.pi / 100
        ratio = err_at(h) / err_at(h / 2)
        assert 20 < ratio < 45

    def test_oscillator_error_decreases_with_tolerance(self):
        errs = []
        for rt in (1e-6, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)
            traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10 * math.pi, cfg)
            errs.append(float(np.max(np.abs(
                traj.y[-1] - _oscillator_exact(10 * math.pi)))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-7

    def test_counts_are_reported(self):
        traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10.0)
        assert traj.accepted == len(traj.t) - 1
        assert traj.rejected >= 0

    def test_backward_integration(self):
        traj = integrate(lambda t, y: np.array([-y[0]]), 1.0, [math.exp(-1.0)], 0.0)
        assert traj.t[-1] == 0.0
        assert abs(traj.y[-1][0] - 1.0) < 1e-9

    def test_decaying_profile_against_closed_form(self):
        # x(t) = (1 + t^2/3)^(-1/2) solves x'' = -(2/t) x' - x^5
        def rhs(t, y):
            return np.array([y[1], -2.0 / t * y[1] - y[0] ** 5])

        def exact(t):
            s = 1.0 + t * t / 3.0
            return np.array([s ** -0.5, -(t / 3.0) * s ** -1.5])

        t0 = 0.1
        traj = integrate(rhs, t0, exact(t0), 10.0,
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
        for t in np.linspace(t0, 10.0, 50):
            assert np.max(np.abs(traj(t) - exact(t))) < 1e-8

    def test_singular_start_raises_rhs_error(self):
        def rhs(t, y):
            return np.array([y[1], -2.0 / t * y[1] - y[0] ** 5])
        with pytest.raises(RhsError):
            integrate(rhs, 0.0, [1.0, 0.0], 1.0)

    def test_blow_up_reports_the_reached_time(self):
        with pytest.raises(StepSizeUnderflowError) as err:
            integrate(lambda t, y: np.array([1.0 + y[0] ** 2]), 0.0, [0.0], 3.0)
        assert abs(err.value.t_reached - math.pi / 2) < 1e-2

    def test_step_budget_is_enforced(self):
        with pytest.raises(IntegrationError, match="exceeded"):
            integrate(_oscillator, 0.0, [1.0, 0.0], 1000.0,
                      IntegratorConfig(max_steps=10))

    def test_zero_length_interval(self):
        traj = integrate(_oscillator, 2.0, [1.0, 0.5], 2.0)
        assert np.array_equal(traj(2.0), [1.0, 0.5])

    def test_failure_inside_a_step_reports_the_reached_time(self):
        # x'' = -x^1.5 from (1, -1): x crosses zero, where x^1.5 is undefined
        def rhs(t, y):
            return np.array([y[1], -real_power(y[0], 1.5)])

        with pytest.raises(StepEvaluationError, match="from t=") as err:
            integrate(rhs, 0.0, [1.0, -1.0], 10.0)
        assert isinstance(err.value, IntegrationError)
        assert 0.0 < err.value.t_reached < 10.0
        assert f"t={err.value.t_reached}" in str(err.value)
        assert isinstance(err.value.__cause__, EvalDomainError)

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", -1.0), ("rel_tol", 0.0), ("abs_tol", 0.0),
        ("abs_tol", -1e-12), ("rel_tol", math.nan), ("abs_tol", math.inf),
        ("rel_tol", 1.0), ("rel_tol", 2.0),
    ])
    def test_config_rejects_unusable_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("t0, t_end", [
        (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0),
    ])
    def test_non_finite_limits_rejected(self, t0, t_end):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(_oscillator, t0, [1.0, 0.0], t_end)


class TestDenseOutput:
    def test_nodes_are_reproduced(self):
        traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10.0)
        for i in range(len(traj.t)):
            assert np.max(np.abs(traj(traj.t[i]) - traj.y[i])) < 1e-13

    def test_interpolant_tracks_the_exact_solution(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10.0, cfg)
        for t in np.linspace(0.0, 10.0, 197):
            assert np.max(np.abs(traj(t) - _oscillator_exact(t))) < 1e-7

    def test_midpoint_reintegration_agrees_within_ten_tolerances(self):
        rel = 1e-8
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
        traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10.0, cfg)
        for i in range(min(20, len(traj._seg_t))):
            t_lo, h = traj._seg_t[i], traj._seg_h[i]
            mid = t_lo + 0.5 * h
            again = integrate(_oscillator, t_lo, traj._seg_y[i], mid, cfg)
            gap = np.max(np.abs(traj(mid) - again.y[-1]))
            assert gap <= 10 * rel * (1.0 + np.max(np.abs(again.y[-1])))

    def test_slope_is_continuous_across_nodes(self):
        traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10.0)
        d = 1e-6
        for t in traj.t[1:-1][:10]:
            fd = (np.asarray(traj(t + d)) - np.asarray(traj(t - d))) / (2 * d)
            assert np.max(np.abs(fd - _oscillator(t, traj(t)))) < 1e-5

    def test_outside_the_interval_is_refused(self):
        traj = integrate(_oscillator, 0.0, [1.0, 0.0], 10.0)
        with pytest.raises(ValueError, match="outside"):
            traj(10.5)

    def test_backward_lookup_picks_the_same_segment_as_a_linear_search(self):
        traj = integrate(_oscillator, 10.0, [1.0, 0.0], 0.0)
        keys = [-s for s in traj._seg_t]
        mids = [t0 + 0.5 * h for t0, h in zip(traj._seg_t, traj._seg_h)]
        for t in list(traj.t) + mids:
            t = float(t)
            i = min(max(bisect.bisect_right(keys, -t) - 1, 0), len(keys) - 1)
            th = (t - traj._seg_t[i]) / traj._seg_h[i]
            powers = (th, th * th, th ** 3, th ** 4)
            want = tuple(y + sum(q * p for q, p in zip(coeffs, powers))
                         for y, *coeffs in zip(traj._seg_y[i], *traj._seg_q[i]))
            assert traj(t) == want

    @pytest.mark.parametrize("t0, t_end", [(0.0, 10.0), (10.0, 0.0)])
    def test_states_are_tuples_of_floats(self, t0, t_end):
        traj = integrate(_oscillator, t0, [1.0, 0.0], t_end)
        for t in [t0, 0.5 * (t0 + t_end), t_end, np.float64(3.3)]:
            state = traj(t)
            assert type(state) is tuple
            assert [type(c) for c in state] == [float, float]


class TestMesh:
    @pytest.mark.parametrize("t0, t_end", [(0.0, 10.0), (10.0, 0.0)])
    def test_mesh_is_lists_of_plain_floats(self, t0, t_end):
        traj = integrate(_oscillator, t0, [1.0, 0.0], t_end)
        assert type(traj.ts) is list and type(traj.ys) is list
        assert len(traj.ts) == len(traj.ys) == traj.accepted + 1
        assert (traj.ts[0], traj.ts[-1]) == (t0, t_end)
        assert all(type(t) is float for t in traj.ts)
        for y in traj.ys:
            assert type(y) is tuple
            assert [type(c) for c in y] == [float, float]

    @pytest.mark.parametrize("t0, t_end", [(0.0, 10.0), (10.0, 0.0)])
    def test_arrays_are_built_once_from_the_lists(self, t0, t_end):
        traj = integrate(_oscillator, t0, [1.0, 0.0], t_end)
        assert isinstance(traj.t, np.ndarray) and isinstance(traj.y, np.ndarray)
        assert traj.t.tolist() == traj.ts
        assert traj.y.shape == (len(traj.ys), 2)
        assert traj.y.tolist() == [list(y) for y in traj.ys]
        assert traj.t is traj.t
        assert traj.y is traj.y


class TestLinspace:
    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            a = rng.uniform(-1, 1) * 10.0 ** rng.integers(-8, 9)
            if rng.random() < 0.5:
                b = a + rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 9)
            else:
                b = rng.uniform(-1, 1) * 10.0 ** rng.integers(-8, 9)
            count = int(rng.integers(2, 400))
            got = numerics.linspace(a, b, count)
            want = np.linspace(a, b, count)
            assert [x.hex() for x in got] == [float(x).hex() for x in want]

    def test_returns_plain_floats_with_both_ends(self):
        ts = numerics.linspace(1, 2, 3)
        assert ts == [1.0, 1.5, 2.0]
        assert all(type(t) is float for t in ts)

    @pytest.mark.parametrize("count", [1, 0, -2])
    def test_needs_two_points(self, count):
        with pytest.raises(ValueError, match="count >= 2"):
            numerics.linspace(0.0, 1.0, count)


class TestQuad:
    def test_exponential(self):
        assert abs(quad(math.exp, 0.0, 1.0) - (math.e - 1.0)) < 1e-12

    def test_reciprocal(self):
        assert abs(quad(lambda t: 1.0 / t, 1.0, 2.0) - math.log(2.0)) < 1e-12

    def test_ratio_of_identical_profiles_measures_the_interval(self):
        decay = lambda t: 1.0 / t
        assert abs(quad(lambda t: decay(t) / decay(t), 1.0, 5.0) - 4.0) < 1e-12

    def test_single_panel_polynomial_exactness(self):
        got = quad(lambda t: t ** 13, 0.0, 1.0)
        assert abs(got - 1.0 / 14.0) < 1e-15

    def test_sine_arch(self):
        assert abs(quad(math.sin, 0.0, math.pi) - 2.0) < 1e-13

    def test_orientation_and_degenerate_interval(self):
        assert quad(math.exp, 1.0, 1.0) == 0.0
        assert abs(quad(math.exp, 1.0, 0.0) + (math.e - 1.0)) < 1e-12

    def test_refined_value_is_unchanged(self):
        # 105 evaluations over several panels; the value of the numpy-built rule
        got = quad(lambda t: math.exp(-t * t) * math.cos(3 * t), 0.0, 4.0)
        assert type(got) is float
        assert got.hex() == "0x1.7e98fc92057e0p-4"

    def test_unresolvable_singularity_raises(self):
        with pytest.raises(QuadratureError):
            quad(lambda t: abs(t) ** -0.5, 0.0, 1.0, tol=1e-13)

    def test_interior_pole_raises_instead_of_tiling_forever(self):
        with pytest.raises(QuadratureError):
            quad(lambda t: 1.0 / (t - 0.5232), 0.0, 1.0)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="not finite"):
            quad(lambda t: float("nan"), 0.0, 1.0)

    def test_leaves_no_reference_cycle_holding_the_integrand(self):
        integrand = lambda t: 1.0 / t
        alive = weakref.ref(integrand)
        gc.disable()
        try:
            quad(integrand, 1.0, 2.0)
            del integrand
            assert alive() is None
        finally:
            gc.enable()


class TestAntiderivative:
    def test_zero_at_the_anchor_exactly(self):
        F = AntiderivativeFn(lambda t: 1.0 / t, 1.0)
        assert F(1.0) == 0.0

    def test_matches_log_in_both_directions(self):
        F = AntiderivativeFn(lambda t: 1.0 / t, 1.0, tol=1e-12)
        assert abs(F(math.e) - 1.0) < 1e-11
        assert abs(F(0.5) - math.log(0.5)) < 1e-11

    def test_repeat_lookups_are_cached_and_identical(self):
        F = AntiderivativeFn(math.exp, 0.0)
        a = F(2.0)
        assert F(2.0) == a
        assert len(F._ts) == 2

    def test_long_chains_stay_within_tolerance(self):
        tol = 1e-12
        F = AntiderivativeFn(lambda t: 1.0 / t, 1.0, tol=tol)
        for t in np.linspace(1.0, 9.0, 201):
            F(float(t))
        assert abs(F(9.0) - math.log(9.0)) <= tol
        assert abs(F(5.004) - math.log(5.004)) <= tol


class TestInvertMonotone:
    def test_recovers_the_exponential(self):
        t = invert_monotone(math.log, 1.0, 0.5, 10.0)
        assert abs(t - math.e) < 1e-9

    def test_decreasing_functions_work(self):
        t = invert_monotone(lambda t: -t ** 3, -8.0, 0.0, 5.0)
        assert abs(t - 2.0) < 1e-9

    def test_unbracketed_target_is_refused(self):
        with pytest.raises(ValueError, match="not bracketed"):
            invert_monotone(math.log, 99.0, 0.5, 10.0)


class TestCsv:
    def test_exact_bytes(self):
        buf = io.StringIO()
        write_csv(buf, ("t", "x", "v"), [(0.1, 1.0, -0.5)])
        assert buf.getvalue() == "t,x,v\n0.10000000000000001,1,-0.5\n"

    def test_seventeen_significant_digits_round_trip(self):
        buf = io.StringIO()
        rows = [(1 / 3, math.pi, math.e)]
        write_csv(buf, ("t", "x", "v"), rows)
        got = [float(s) for s in buf.getvalue().splitlines()[1].split(",")]
        assert got == [1 / 3, math.pi, math.e]

    def test_writes_to_a_path(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(p, ("t", "x"), [(0.0, 2.0)])
        assert p.read_text() == "t,x\n0,2\n"
