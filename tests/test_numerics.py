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
import os
import re
import subprocess
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from emdenlab import numerics
from emdenlab.exprlang import EvalDomainError, compile_fn, real_power
from emdenlab.numerics import (
    AntiderivativeFn, IntegrationError, IntegratorConfig, QuadratureError,
    RhsError, StepEvaluationError, StepSizeUnderflowError, integrate,
    invert_monotone, quad, write_csv,
)
from emdenlab.problems import EmdenProblem
from emdenlab.timefn import PowerFn, linspace


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
        ("max_step", 0.0), ("max_step", -1.0), ("max_step", math.nan),
        ("first_step", 0.0), ("first_step", -0.1), ("first_step", math.nan),
        ("first_step", math.inf), ("max_steps", 0), ("max_steps", -3), ("max_steps", 10.0),
        ("max_steps", True),
    ])
    def test_config_rejects_unusable_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{field: value})

    def test_config_accepts_the_step_field_limits(self):
        cfg = IntegratorConfig(max_step=math.inf, first_step=None, max_steps=1)
        assert (cfg.max_step, cfg.first_step, cfg.max_steps) == (math.inf, None, 1)
        IntegratorConfig(max_step=1e-300, first_step=5e-324)

    @pytest.mark.parametrize("bad_call", [1, 2, 4, 9])
    def test_rhs_with_the_wrong_number_of_components_is_refused(self, bad_call):
        # call 1 gives the initial slope, 2 the initial-step probe, 3-8 the first step's stages
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [y[1], -y[0]] + ([0.0] if len(calls) == bad_call else [])

        with pytest.raises(IntegrationError, match="returned 3 components, expected 2") as err:
            integrate(rhs, 0.0, [1.0, 0.0], 10.0)
        assert len(calls) == bad_call
        assert f"at t={calls[-1]}" in str(err.value)
        # mid-run the step's start is reached: t = 0 for the probe and the
        # first step, and for call 9 the first step's end, where stage 7 was
        step_start = None if bad_call == 1 else calls[7] if bad_call == 9 else 0.0
        assert err.value.t_reached == step_start

    @pytest.mark.parametrize("bad", [None, 1j, "x", [1.0], "1.5", b"1.5", bytearray(b"1.5")])
    def test_rhs_with_a_non_real_component_is_refused(self, bad):
        with pytest.raises(IntegrationError, match="not a sequence of real numbers") as err:
            integrate(lambda t, y: (1.0,) if t < 1 else (bad,), 0.0, (0.0,), 2.0)
        t = float(re.search(r"at t=(\S+),", str(err.value)).group(1))
        assert err.value.t_reached < 1.0 <= t <= 2.0

    @pytest.mark.parametrize("rhs", [lambda t: (1.0,), lambda t, y, z: (1.0,)])
    def test_rhs_that_does_not_take_t_and_y_gives_the_type_error(self, rhs):
        with pytest.raises(TypeError, match="positional argument") as err:
            integrate(rhs, 0.0, (0.0,), 1.0)
        assert not isinstance(err.value, IntegrationError)

    def test_a_type_error_of_the_integrator_itself_is_not_blamed_on_rhs(self, monkeypatch):
        def broken(v):
            raise TypeError("in the step-size norm")

        monkeypatch.setattr(numerics, "_rms", broken)
        with pytest.raises(TypeError, match="in the step-size norm"):
            integrate(lambda t, y: (1.0,), 0.0, (0.0,), 1.0)

    def test_the_step_norm_scales_squares_that_overflow(self):
        # the first-step estimate squares scaled slopes; a slope of 1e200
        # gave an infinite norm there, so a first step of 0
        assert numerics._rms([3e200, 4e200]) == pytest.approx(5e200 / math.sqrt(2), rel=1e-15)
        assert numerics._rms([3.0, 4.0]) == math.sqrt(12.5)
        assert numerics._rms([math.inf, 1.0]) == math.inf
        assert math.isnan(numerics._rms([math.nan, 1.0]))

    def test_a_decimal_step_limit_runs_as_its_float(self):
        # the config keeps floats, so the generated loop's step control does
        # not fail on a Decimal (and blame it on rhs) but runs as with 0.1
        runs = [integrate(_oscillator, 0.0, [1.0, 0.0], 3.0,
                          IntegratorConfig(1e-4, 1e-6, max_step=step, first_step=first))
                for step, first in ((Decimal("0.1"), Decimal("0.01")), (0.1, 0.01))]
        assert [t.hex() for t in runs[0].ts] == [t.hex() for t in runs[1].ts]
        assert 0.1 in [b - a for a, b in zip(runs[1].ts, runs[1].ts[1:])]  # max_step binds
        assert runs[0].ys == runs[1].ys

    @pytest.mark.parametrize("text", ["12", b"12", bytearray(b"12")])
    def test_rhs_that_returns_text_is_refused(self, text):
        # float() would parse "1" and "2", and bytes iterate as ints
        with pytest.raises(IntegrationError, match="at t=0.0, not a sequence of real numbers"):
            integrate(lambda t, y: text, 0.0, (0.0, 0.0), 1.0)

    @pytest.mark.parametrize("t0, t_end", [
        (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0),
    ])
    def test_non_finite_limits_rejected(self, t0, t_end):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(_oscillator, t0, [1.0, 0.0], t_end)


def _combine(y, h, K, row):
    """y + h * sum_j a_j K_j for each component, summed in j order."""
    out = []
    for c, yc in enumerate(y):
        s = 0.0
        for j, a in row:
            s += a * K[j][c]
        out.append(yc + h * s)
    return tuple(out)


def _loop_integrate(rhs, t0, y0, t_end, cfg):
    """The step as loops over components and tableau entries, under
    integrate's controller; returns the mesh, the dense rows and the counts."""
    def f(t, y):
        return tuple(map(float, rhs(t, y)))

    t, y = float(t0), tuple(map(float, y0))
    k0 = f(t, y)
    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    if cfg.first_step is None:
        h = numerics._initial_step(f, t, y, k0, direction, cfg.rel_tol, cfg.abs_tol, span)
    else:
        h = min(cfg.first_step, span)
    h = min(h, cfg.max_step)
    K, zero = [k0] * 7, (0.0,) * len(y)
    ts, ys, qs, accepted, rejected = [t], [y], [], 0, 0
    while (t_end - t) * direction > 0:
        clipped = h >= abs(t_end - t)
        h_use = abs(t_end - t) if clipped else h
        hd = h_use * direction
        for i in range(1, 7):
            yi = _combine(y, hd, K, numerics._AF[i])
            K[i] = f(t + numerics._CF[i] * hd, yi)
            if not all(map(math.isfinite, K[i])):
                err = math.inf
                break
        else:
            e = _combine(zero, hd, K, numerics._EF)
            err = numerics._rms([ec / (cfg.abs_tol + cfg.rel_tol * max(abs(a), abs(b)))
                                 for ec, a, b in zip(e, y, yi)])
        if not math.isfinite(err):
            rejected += 1
            h = h_use * numerics._MIN_FACTOR
            continue
        if err <= 1.0:
            t_new = t_end if clipped else t + hd
            qs.append(tuple(_combine(zero, hd, K, row) for row in numerics._PF))
            ts.append(t_new)
            ys.append(yi)
            accepted += 1
            t, y, K[0] = t_new, yi, K[6]
            factor = numerics._MAX_FACTOR if err == 0 else min(
                numerics._MAX_FACTOR, numerics._SAFETY * err ** numerics._ORDER_EXP)
        else:
            rejected += 1
            factor = max(numerics._MIN_FACTOR, numerics._SAFETY * err ** numerics._ORDER_EXP)
        h = min(h_use * factor, cfg.max_step)
    return ts, ys, qs, accepted, rejected


def _hex(v):
    return v.hex() if isinstance(v, float) else [_hex(x) for x in v]


def _rows(q):
    """A step's flat dense tuple regrouped as its theta, ..., theta^4 rows."""
    assert type(q) is tuple and len(q) % 4 == 0
    n = len(q) // 4
    return tuple(q[r * n:(r + 1) * n] for r in range(4))


def _coupled(n):
    def rhs(t, y):
        return [math.cos(t + i) * y[(i + 1) % n] - 0.3 * math.sin(y[i]) ** 3 for i in range(n)]
    return rhs


class TestKernel:
    """The generated step against the loop it replaced, compared bit for bit."""

    @staticmethod
    def assert_same_run(rhs, t0, y0, t_end, cfg):
        traj = integrate(rhs, t0, y0, t_end, cfg)
        ts, ys, qs, accepted, rejected = _loop_integrate(rhs, t0, y0, t_end, cfg)
        assert _hex(traj.ts) == _hex(ts)
        assert _hex(traj.ys) == _hex(ys)
        assert _hex([_rows(q) for q in traj._seg_q]) == _hex(qs)
        assert (traj.accepted, traj.rejected) == (accepted, rejected)
        return traj

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("t0, t_end", [(0.0, 5.0), (5.0, -1.0)])
    def test_matches_the_loop_reference(self, n, t0, t_end):
        y0 = [0.5 + 0.1 * i for i in range(n)]
        self.assert_same_run(_coupled(n), t0, y0, t_end, IntegratorConfig())

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("t0, t_end", [(0.0, 5.0), (5.0, -1.0)])
    def test_matches_the_loop_reference_through_rejected_steps(self, n, t0, t_end):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, first_step=3.0)
        y0 = [0.5 + 0.1 * i for i in range(n)]
        traj = self.assert_same_run(_coupled(n), t0, y0, t_end, cfg)
        assert traj.rejected > 0

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("t0, t_end", [(0.0, 4.0), (4.0, 0.0)])
    def test_matches_the_loop_reference_through_non_finite_stages(self, n, t0, t_end):
        # decay in the direction of integration, with no slope for the last
        # component below zero: a long first step overshoots zero in a stage
        rate = -1.0 if t_end > t0 else 1.0
        nans = []

        def rhs(t, y):
            last = rate * y[-1] if y[-1] >= 0.0 else math.nan
            nans.append(math.isnan(last))
            return [rate * v for v in y[:-1]] + [last]

        traj = self.assert_same_run(rhs, t0, [1.0] * n, t_end, IntegratorConfig(first_step=3.0))
        assert any(nans) and traj.rejected > 0

    @pytest.mark.parametrize("t0, t_end", [(0.0, 3.0), (3.0, 0.0)])
    def test_matches_the_loop_reference_on_signed_zeros(self, t0, t_end):
        # sums start from 0.0, so a zero component keeps the loop's sign of zero
        rhs = lambda t, y: [-0.0, 0.0, -y[3], y[2]]
        traj = self.assert_same_run(rhs, t0, [-0.0, -0.0, 1.0, 0.0], t_end, IntegratorConfig())
        zero = (0.0 if t_end > t0 else -0.0).hex()  # -0.0 + hd * 0.0 with hd < 0 stays -0.0
        assert _hex(traj.ys[-1][:2]) == [zero, zero]

    def test_one_kernel_per_dimension_and_none_at_import(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import emdenlab.cli\n"
            "from emdenlab import numerics\n"
            "before = [f.cache_info().currsize for f in (numerics._kernel, numerics._reader)]\n"
            "for n in (2, 2, 3, 2):\n"
            "    numerics.integrate(lambda t, y: [-v for v in y], 0.0, [1.0] * n, 1.0)(0.5)\n"
            "print(*before, numerics._kernel.cache_info().currsize,\n"
            "      numerics._reader.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 0 2 2\n"


def _list_read(traj, t):
    """Trajectory.__call__ as it was before the generated reader, with the
    list comprehension over zipped rows; the reference for the reader."""
    seg_t, seg_y = traj.ts[:-1], traj.ys[:-1]
    seg_h = [b - a for a, b in zip(traj.ts, traj.ts[1:])]
    if not seg_t:
        if t == traj.t0:
            return traj.ys[0]
        raise ValueError("trajectory has no extent")
    t = float(t)
    t0, t_end = seg_t[0], traj.ts[-1]
    lo, hi = (t0, t_end) if t_end >= t0 else (t_end, t0)
    slack = 1e-10 * (hi - lo)
    if not (lo - slack <= t <= hi + slack):
        raise ValueError(f"t={t} outside the integrated interval [{lo}, {hi}]")
    if t_end >= t0:
        i = bisect.bisect_right(seg_t, t) - 1
    else:
        i = bisect.bisect_right(seg_t, -t, key=lambda s: -s) - 1
    i = min(max(i, 0), len(seg_t) - 1)
    th = (t - seg_t[i]) / seg_h[i]
    th2, th3, th4 = th * th, th ** 3, th ** 4
    return tuple([y + (a * th + b * th2 + c * th3 + d * th4)
                  for y, a, b, c, d in zip(seg_y[i], *_rows(traj._seg_q[i]))])


class TestCallFreeSteps:
    """The generated step checks finiteness without calls: math.isfinite
    runs a fixed number of times per integrate call, however many steps."""

    @staticmethod
    def rhs(kind):
        if kind == "call":
            return lambda t, y: (y[1], -y[0] / t - y[0] ** 3 / (t * t))
        if kind == "powerfn":
            return EmdenProblem(PowerFn(-1, 0, 1, -1), PowerFn(-1, 0, 1, -2), 3).rhs
        return EmdenProblem(compile_fn("-1/t"), compile_fn("-1/(t*t)"), 3).rhs

    @pytest.mark.parametrize("kind", ["powerfn", "text", "call"])
    def test_isfinite_calls_do_not_grow_with_the_steps(self, monkeypatch, kind):
        calls, isfinite = [], math.isfinite
        monkeypatch.setattr(math, "isfinite", lambda v: calls.append(v) or isfinite(v))
        rhs = self.rhs(kind)  # its namespace, if generated, sees the counter
        assert (numerics._problem_body(rhs, 2) is None) == (kind == "call")
        counts = []
        for steps in (50, 500):
            del calls[:]
            traj = integrate(rhs, 1.0, [1.0, 0.0], 2.0, IntegratorConfig(max_step=1.0 / steps))
            assert traj.accepted >= steps
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestDenseReader:
    """The generated per-size reader against the list reader, bit for bit."""

    @staticmethod
    def assert_same_reads(traj, inside, outside):
        for t in inside:
            assert _hex(traj(t)) == _hex(_list_read(traj, t))
        for t in outside:
            with pytest.raises(ValueError) as got:
                traj(t)
            with pytest.raises(ValueError) as want:
                _list_read(traj, t)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("t0, t_end", [(0.0, 5.0), (5.0, -1.0)])
    def test_matches_the_list_reader(self, n, t0, t_end):
        traj = integrate(_coupled(n), t0, [0.5 + 0.1 * i for i in range(n)], t_end)
        lo, hi = sorted((t0, t_end))
        slack = 1e-10 * (hi - lo)
        inside = traj.ts + [s + f * (e - s) for s, e in zip(traj.ts, traj.ts[1:])
                            for f in (0.25, 0.5, 0.9)]
        inside += [lo - slack, hi + slack, 0.0, -0.0, np.float64(1.3)]
        self.assert_same_reads(traj, inside, [lo - 3 * slack, hi + 3 * slack])

    @pytest.mark.parametrize("t0, t_end", [(0.0, 3.0), (3.0, 0.0)])
    def test_matches_the_list_reader_on_signed_zeros(self, t0, t_end):
        rhs = lambda t, y: [-0.0, 0.0, -y[3], y[2]]
        traj = integrate(rhs, t0, [-0.0, -0.0, 1.0, 0.0], t_end)
        self.assert_same_reads(traj, traj.ts + [0.0, -0.0, 1.5], [])

    def test_matches_the_list_reader_without_extent(self):
        traj = integrate(_coupled(3), 1.0, [0.5, 0.6, 0.7], 1.0)
        self.assert_same_reads(traj, [1.0], [1.5, 0.5])


class TestStates:
    """The grid sweep against one call per time, bit for bit."""

    @staticmethod
    def assert_same_states(traj, times):
        assert [_hex(s) for s in traj.states(times)] == [_hex(traj(t)) for t in times]

    @staticmethod
    def assert_same_error(traj, times):
        with pytest.raises(ValueError) as want:
            [traj(t) for t in times]
        with pytest.raises(ValueError) as got:
            traj.states(times)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("t0, t_end", [(0.0, 5.0), (5.0, -1.0)])
    def test_matches_calls_on_ordered_grids(self, n, t0, t_end, monkeypatch):
        traj = integrate(_coupled(n), t0, [0.5 + 0.1 * i for i in range(n)], t_end)
        lo, hi = sorted((t0, t_end))
        slack = 1e-10 * (hi - lo)
        uniform = linspace(t0, t_end, 333)
        start, end = (lo - slack, hi + slack) if t_end > t0 else (hi + slack, lo - slack)
        # the mesh times themselves, repeats, points between them and both slack ends
        dense = sorted(traj.ts + traj.ts[3:7] + uniform + [lo - slack, hi + slack],
                       reverse=t_end < t0)
        grids = [uniform, dense, [start, end], [end], traj.ts[5:9],
                 sorted([np.float64(1.3), 2], reverse=t_end < t0)]
        want = [[_hex(traj(t)) for t in grid] for grid in grids]
        calls = []
        monkeypatch.setattr(numerics.Trajectory, "__call__", lambda traj, t: calls.append(t))
        assert [[_hex(s) for s in traj.states(grid)] for grid in grids] == want
        assert traj.states(iter(uniform)) == traj.states(uniform)
        assert traj.states([]) == [] and calls == []  # one sweep each, no call

    @pytest.mark.parametrize("t0, t_end", [(0.0, 5.0), (5.0, -1.0)])
    def test_an_unordered_grid_is_read_point_by_point(self, t0, t_end):
        traj = integrate(_coupled(2), t0, [0.5, 0.6], t_end)
        grid = linspace(t0, t_end, 50)
        for times in (grid[::-1], grid[10:] + grid[:10], grid[::7] + grid[::3]):
            self.assert_same_states(traj, times)

    @pytest.mark.parametrize("t0, t_end", [(0.0, 5.0), (5.0, -1.0)])
    def test_a_time_outside_the_run_raises_as_a_call_does(self, t0, t_end):
        traj = integrate(_coupled(3), t0, [0.5, 0.6, 0.7], t_end)
        lo, hi = sorted((t0, t_end))
        outside = [lo - 3e-10 * (hi - lo), hi + 3e-10 * (hi - lo), math.nan]
        grid = linspace(t0, t_end, 20)
        for t in outside:
            for times in ([t], grid + [t], [t] + grid, grid[:5] + [t] + grid[5:]):
                self.assert_same_error(traj, times)

    def test_a_one_point_trajectory(self):
        traj = integrate(_coupled(2), 1.0, [0.5, 0.6], 1.0)
        self.assert_same_states(traj, [1.0, 1, 1.0])
        self.assert_same_error(traj, [1.0, 1.5])

    def test_sample_is_the_array_of_states(self):
        traj = integrate(_coupled(2), 0.0, [0.5, 0.6], 5.0)
        grid = linspace(0.0, 5.0, 40)
        assert np.array_equal(traj.sample(grid), np.array([traj(t) for t in grid]))


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
        for i in range(min(20, len(traj.ts) - 1)):
            t_lo, h = traj.ts[i], traj.ts[i + 1] - traj.ts[i]
            mid = t_lo + 0.5 * h
            again = integrate(_oscillator, t_lo, traj.ys[i], mid, cfg)
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
        keys = [-s for s in traj.ts[:-1]]
        mids = [t0 + 0.5 * (t1 - t0) for t0, t1 in zip(traj.ts, traj.ts[1:])]
        for t in list(traj.t) + mids:
            t = float(t)
            i = min(max(bisect.bisect_right(keys, -t) - 1, 0), len(keys) - 1)
            th = (t - traj.ts[i]) / (traj.ts[i + 1] - traj.ts[i])
            powers = (th, th * th, th ** 3, th ** 4)
            want = tuple(y + sum(q * p for q, p in zip(coeffs, powers))
                         for y, *coeffs in zip(traj.ys[i], *_rows(traj._seg_q[i])))
            assert traj(t) == want

    @pytest.mark.parametrize("t0, t_end", [
        (0.0, 10.0), (10.0, 0.0), pytest.param(0.0, np.float64(10.0), id="numpy-end")])
    def test_states_are_tuples_of_floats(self, t0, t_end):
        traj = integrate(_oscillator, t0, [1.0, 0.0], t_end)
        for t in [t0, 0.5 * (t0 + t_end), t_end, np.float64(3.3)]:
            state = traj(t)
            assert type(state) is tuple
            assert [type(c) for c in state] == [float, float]


class TestMesh:
    # an int or numpy end still gives a mesh of floats
    @pytest.mark.parametrize("t0, t_end", [
        (0.0, 10.0), (10.0, 0.0), pytest.param(0, 10, id="int-ends"),
        pytest.param(np.float64(10.0), np.float64(0.0), id="numpy-ends")])
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
            got = linspace(a, b, count)
            want = np.linspace(a, b, count)
            assert [x.hex() for x in got] == [float(x).hex() for x in want]

    def test_returns_plain_floats_with_both_ends(self):
        ts = linspace(1, 2, 3)
        assert ts == [1.0, 1.5, 2.0]
        assert all(type(t) is float for t in ts)

    @pytest.mark.parametrize("count", [1, 0, -2])
    def test_needs_two_points(self, count):
        with pytest.raises(ValueError, match="count >= 2"):
            linspace(0.0, 1.0, count)


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

    @pytest.mark.parametrize("footer", ["", "# a summary line\n"])
    def test_a_path_and_a_stream_get_the_same_bytes(self, tmp_path, footer):
        rows = [(0.5, -1e-300, math.pi), (1.0, 2.0, 3.0)]
        buf = io.StringIO()
        write_csv(buf, ("t", "x", "v"), rows, footer)
        for path in (tmp_path / "a.csv", str(tmp_path / "b.csv")):
            write_csv(path, ("t", "x", "v"), rows, footer)
            assert Path(path).read_bytes() == buf.getvalue().encode("ascii")
        assert buf.getvalue().endswith(",3\n" + footer)
