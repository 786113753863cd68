"""Command-line behaviour: verdict lines, exit codes, CSV determinism."""

import contextlib
import gc
import hashlib
import io
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdenlab import cli, gauge, invariants, numerics
from emdenlab.cli import InputError, main
from emdenlab.exprlang import EvalDomainError, ExprSyntaxError
from emdenlab.gauge import GaugeError, ReductionError
from emdenlab.invariants import InvariantDomainError
from emdenlab.numerics import IntegrationError
from emdenlab.problemfile import SpecError, parse_spec
from emdenlab.solutions import SuperpositionDomainError
from emdenlab.timefn import ExactnessError

DRAG_N5 = """\
kind = emden
n = 5
a = -2/t
b = -1
singular_points = 0
interval = 0.5, 5
x0 = 1.3
v0 = -0.2
"""

# a = 0 keeps b exp(-2A) = b constant, so the rescaled energy applies
PLAIN_CUBIC = """\
kind = emden
n = 3
a = 0
b = -1
interval = 0.5, 5
x0 = 1.3
v0 = -0.2
"""

# at n = -3 the dilation condition collapses to b exp(-2A) constant
INVERSE_CUBE = """\
kind = emden
n = -3
a = 0
b = 2
interval = 0.5, 5
x0 = 1.3
v0 = -0.2
"""

KL_GENERALIZED = """\
kind = generalized
n = 5
p = 2/t
r = 1
singular_points = 0
interval = 1, 5
x0 = 0.3
v0 = 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verdict(out):
    last = out.rstrip("\n").splitlines()[-1]
    assert last.startswith("VERDICT: "), last
    status, metric = last[len("VERDICT: "):].split(" ", 1)
    key, _, value = metric.partition("=")
    return status, key, value


def spec_file(tmp_path, text, name="problem.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def with_spec_files(tmp_path, argv):
    """argv with each problem-file text replaced by the path of a file holding it."""
    return [spec_file(tmp_path, a) if a in (KL_GENERALIZED, DRAG_N5) else a for a in argv]


class TestSchemeCheck:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "scheme-check")
        assert code == 0
        assert verdict(out) == ("PASS", "failures", "0")

    def test_reports_all_brackets(self, capsys):
        _, out, _ = run(capsys, "scheme-check")
        assert "v*d/dv" in out and "x^n*d/dv" in out


class TestIntegrate:
    def test_csv_and_verdict(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "integrate", spec_file(tmp_path, DRAG_N5), "--samples", "11"
        )
        assert code == 0
        lines = out.rstrip("\n").splitlines()
        assert lines[0] == "t,x,v"
        assert len(lines) == 1 + 11 + 1  # header, rows, verdict
        status, key, _ = verdict(out)
        assert (status, key) == ("PASS", "steps")
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == 1.3

    def test_identical_inputs_identical_bytes(self, capsys, tmp_path):
        spec = spec_file(tmp_path, DRAG_N5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "integrate", spec, "--output", str(a))[0] == 0
        assert run(capsys, "integrate", spec, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_is_input_error(self, capsys, tmp_path):
        bad = spec_file(tmp_path, DRAG_N5.replace("singular_points = 0", "singular_points = 2"))
        code, out, err = run(capsys, "integrate", bad)
        assert code == 2
        assert "must exclude the declared singular point" in err
        assert "VERDICT" not in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "integrate", "/nonexistent/never.spec")
        assert code == 2
        assert "cannot read problem file" in err

    @pytest.mark.parametrize("old, new, key", [
        ("v0 = -0.2", "v0 = -0.2\nrel_tol = -1", "rel_tol"),
        ("v0 = -0.2", "v0 = -0.2\nrel_tol = 0\nabs_tol = 0", "rel_tol"),
        ("v0 = -0.2", "v0 = -0.2\nabs_tol = 0", "abs_tol"),
        ("v0 = -0.2", "v0 = -0.2\nrel_tol = 2", "rel_tol"),
        ("x0 = 1.3", "x0 = inf", "x0"),
        ("n = 5", "n = nan", "n"),
    ])
    def test_unusable_numbers_are_input_errors(self, capsys, tmp_path, old, new, key):
        code, out, err = run(capsys, "integrate", spec_file(tmp_path, DRAG_N5.replace(old, new)))
        assert code == 2
        assert f": {key} = " in err
        assert "VERDICT" not in out

    @pytest.mark.parametrize("argv, what", [
        (["integrate", DRAG_N5.replace("b = -1", "b = -1e999")], "coefficient b"),
        (["integrate", DRAG_N5.replace("b = -1", "b = -(0-t)^1e999")], "coefficient b"),
        (["reduce", DRAG_N5, "--solution", "1e999*t"], "--solution"),
        (["superpose", "--x1", "2e400", "--K", "2", "0.1,5"], "--x1"),
    ])
    def test_non_finite_literals_are_input_errors(self, capsys, tmp_path, argv, what):
        argv = [spec_file(tmp_path, a) if a.startswith("kind =") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert what in err
        assert "is not finite" in err
        assert "VERDICT" not in out

    @pytest.mark.parametrize("argv, what", [
        (["integrate", DRAG_N5.replace("b = -1", "b = -1" + "+t-t" * 1500)], "coefficient b"),
        (["integrate", DRAG_N5.replace("b = -1", "b = " + "(" * 400 + "-1" + ")" * 400)],
         "coefficient b"),
        (["reduce", DRAG_N5, "--solution", "(" * 400 + "t" + ")" * 400], "--solution"),
        (["superpose", "--x1", "t" + "+t-t" * 1500, "--K", "2", "0.1,5"], "--x1"),
    ])
    def test_deeply_nested_expressions_are_input_errors(self, capsys, tmp_path, argv, what):
        argv = [spec_file(tmp_path, a) if a.startswith("kind =") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert what in err
        assert "nested more than 64 levels deep" in err
        assert "(at offset " in err
        # the echoed source is cut short, not copied whole
        assert len(err.encode()) < 300 + len(str(tmp_path))
        assert "Traceback" not in err
        assert "VERDICT" not in out

    def test_moderately_nested_coefficient_runs(self, capsys, tmp_path):
        b = "(" * 30 + "-1" + ")" * 30 + "+t-t" * 15
        code, out, _ = run(capsys, "integrate", spec_file(tmp_path, DRAG_N5.replace("b = -1", f"b = {b}")))
        assert code == 0
        assert verdict(out)[0] == "PASS"

    def test_failure_mid_run_names_its_time(self, capsys, tmp_path):
        # x crosses zero near t = 0.8, where x^1.5 has no real value
        text = (
            "kind = emden\nn = 1.5\na = 0\nb = -1\n"
            "interval = 0, 10\nx0 = 1\nv0 = -1\n"
        )
        code, out, err = run(capsys, "integrate", spec_file(tmp_path, text))
        assert code == 1
        assert verdict(out)[:2] == ("FAIL", "error")
        assert verdict(out)[2] == "StepEvaluationError"
        assert "in the step from t=0.8" in err

    def test_interval_too_long_to_resolve_says_so(self, capsys, tmp_path):
        # x'' = -x^5 stays bounded; no step can be 5e-15 of a 1e300-long interval
        text = (
            "kind = emden\nn = 5\na = 0\nb = -1\n"
            "interval = 0.5, 1e300\nx0 = 1\nv0 = -1\n"
        )
        code, out, err = run(capsys, "integrate", spec_file(tmp_path, text))
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "StepSizeUnderflowError")
        assert "at t=0.5" in err
        assert "too long to resolve in double precision" in err
        assert "blows up" not in err

    def test_a_table_off_its_witness_fails_and_names_t(self, capsys, tmp_path):
        # x = cos t: at these tolerances the phase error builds up to
        # x(1000) = 0.2844 against cos 1000 = 0.5624
        text = ("kind = generalized\np = 0\nq = 1\nr = 0\nn = 3\ninterval = 0, 2000\n"
                "x0 = 1\nv0 = 0\nrel_tol = 1e-3\nabs_tol = 1e-6\n")
        code, out, _ = run(capsys, "integrate", spec_file(tmp_path, text))
        assert code == 1
        lines = out.rstrip("\n").splitlines()
        assert lines[0] == "t,x,v" and len(lines) == 1 + 201 + 2  # the table is still written
        assert lines[-2].startswith("global error 3.48e+05 tolerance units at t = 1420 ")
        status, key, value = verdict(out)
        assert (status, key) == ("FAIL", "global_error")
        assert float(value) > 100

    @pytest.mark.parametrize("tolerances, steps", [
        ("rel_tol = 1e-16\nabs_tol = 1e-18\n", "1775"),
        ("abs_tol = 1e-322\n", "116"),  # a thousandth of it is no float
    ])
    def test_tolerances_below_the_witness_floor_pass(self, capsys, tmp_path, tolerances, steps):
        code, out, _ = run(capsys, "integrate", spec_file(tmp_path, DRAG_N5 + tolerances))
        assert code == 0
        assert verdict(out) == ("PASS", "steps", steps)


class TestInvariant:
    def test_particular_from_catalog(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "invariant",
            spec_file(tmp_path, DRAG_N5),
            "--method",
            "particular:lane_emden_n5",
        )
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "drift")
        assert float(value) < 1e-7
        assert "t,I" in out  # drift table goes to stdout

    def test_generic_matches_catalog_route(self, capsys, tmp_path):
        spec = spec_file(tmp_path, DRAG_N5)
        _, out_cat, _ = run(capsys, "invariant", spec, "--method", "particular:lane_emden_n5")
        code, out_gen, _ = run(
            capsys, "invariant", spec, "--method", "generic", "--solution", "(2*t)^(-1/2)"
        )
        assert code == 0
        assert float(verdict(out_gen)[2]) < 1e-6
        # the text profile differentiates exactly, so the two routes agree
        # on the reference value to rounding
        ref_cat = float(out_cat.split("I0 = ")[1].split()[0].rstrip(","))
        ref_gen = float(out_gen.split("I0 = ")[1].split()[0].rstrip(","))
        assert ref_gen == pytest.approx(ref_cat, rel=1e-14)

    @pytest.mark.parametrize("method, solution", [
        ("generic", ["--solution", "(2*t)^(-1/2)*(1+1e-9*t)"]),
        ("particular:lane_emden_n5_bounded", []),
    ])
    def test_profile_that_fails_the_reduction_is_refused(self, capsys, tmp_path, method, solution):
        # (2t)^(-1/2) off by one part in a billion is not a solution; the
        # bounded profile solves the problem but is not slope-compatible
        code, out, err = run(
            capsys, "invariant", spec_file(tmp_path, DRAG_N5), "--method", method, *solution
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "ReductionError")
        assert "slope compatibility" in err

    def test_generic_needs_solution(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "invariant", spec_file(tmp_path, DRAG_N5), "--method", "generic"
        )
        assert code == 2
        assert "--solution" in err

    def test_unknown_catalog_id(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "invariant", spec_file(tmp_path, DRAG_N5), "--method", "particular:zzz"
        )
        assert code == 2
        assert "known ids" in err

    def test_unknown_method(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "invariant", spec_file(tmp_path, DRAG_N5), "--method", "bogus"
        )
        assert code == 2
        assert "unknown method" in err

    def test_rescaled_energy_when_condition_holds(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "invariant", spec_file(tmp_path, PLAIN_CUBIC), "--method", "s7a"
        )
        assert code == 0
        assert "verdict: PASS" in out  # the condition report itself
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "drift")
        assert float(value) < 1e-8

    def test_rescaled_energy_alias(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "invariant",
            spec_file(tmp_path, PLAIN_CUBIC),
            "--method",
            "rescaled-energy",
        )
        assert code == 0 and verdict(out)[0] == "PASS"

    def test_rescaled_energy_condition_failure(self, capsys, tmp_path):
        # b exp(-2A) is far from constant for the drag problem
        code, out, _ = run(
            capsys, "invariant", spec_file(tmp_path, DRAG_N5), "--method", "s7a"
        )
        assert code == 1
        status, key, _ = verdict(out)
        assert (status, key) == ("FAIL", "condition_variation")

    def test_rescaled_energy_condition_failure_with_a_small_b(self, capsys, tmp_path):
        # b' = -1e-12 against 2ab = 0: the gap is relative to the larger of
        # the two, not to 1, so it is 1 however small b is
        spec = PLAIN_CUBIC.replace("b = -1", "b = -1e-12*(1+t)")
        code, out, _ = run(capsys, "invariant", spec_file(tmp_path, spec), "--method", "s7a")
        assert code == 1
        assert "variation    1.000e+00" in out
        assert verdict(out) == ("FAIL", "condition_variation", "1")

    def s7a(self, capsys, tmp_path, spec):
        return run(capsys, "invariant", spec_file(tmp_path, spec), "--method", "s7a")

    def test_rescaled_energy_refuses_a_zero_b(self, capsys, tmp_path):
        # b' = 2ab holds at b = 0, but I = K (v^2/(2b) - ...) is undefined
        code, out, err = self.s7a(capsys, tmp_path, PLAIN_CUBIC.replace("b = -1", "b = 0"))
        assert code == 1
        assert "b = 0.0, gap 0.0 of b' = 2ab at t=0.5; both must be finite" in err
        assert verdict(out) == ("FAIL", "error", "InvariantDomainError")

    def test_rescaled_energy_refuses_a_b_that_changes_sign(self, capsys, tmp_path):
        # b = 1 up to t = 2.75 and -1 after it: the gap is 0 at every sample,
        # and the sign guard names the first sample past the change
        spec = PLAIN_CUBIC.replace("b = -1", "b = -abs(t-2.75)/(t-2.75)")
        code, out, err = self.s7a(capsys, tmp_path, spec)
        assert code == 1
        assert "b = -1.0, gap 0.0 of b' = 2ab at t=2.76131; both must be finite, b of " \
               "the sign of b(anchor) = 1.0" in err
        assert verdict(out) == ("FAIL", "error", "InvariantDomainError")

    def test_rescaled_energy_jump_of_b_is_caught_by_the_drift(self, capsys, tmp_path):
        # b jumps from -1 to -2 at t = 2.75 and keeps its sign: b' = 2ab holds
        # wherever b is differentiable, so the condition passes and the
        # drift along the trajectory fails
        spec = PLAIN_CUBIC.replace("b = -1", "b = -1.5 - 0.5*abs(t-2.75)/(t-2.75)")
        code, out, _ = self.s7a(capsys, tmp_path, spec)
        assert code == 1
        assert "variation    0.000e+00" in out and "verdict: PASS" in out
        assert verdict(out) == ("FAIL", "drift", "0.208223")

    def test_rescaled_energy_with_an_undeclared_singular_drag_fails(self, capsys, tmp_path):
        # a = 1/(t-2), b = (t-2)^2 meets b' = 2ab, but the window holds the
        # pole of a and the file declares no singular point
        spec = PLAIN_CUBIC.replace("a = 0", "a = 1/(t-2)").replace("b = -1", "b = (t-2)^2")
        code, out, err = self.s7a(capsys, tmp_path, spec)
        assert code == 1
        assert "step size underflow" in err
        assert verdict(out)[:2] == ("FAIL", "error")

    def test_dilation_when_condition_holds(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "invariant", spec_file(tmp_path, INVERSE_CUBE), "--method", "s7b"
        )
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "drift")
        assert float(value) < 1e-6

    def test_dilation_alias(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "invariant", spec_file(tmp_path, INVERSE_CUBE), "--method", "dilation"
        )
        assert code == 0 and verdict(out)[0] == "PASS"

    @pytest.mark.parametrize("spec, method", [
        (DRAG_N5, "particular:lane_emden_n5"),
        (INVERSE_CUBE, "s7b"),
    ])
    def test_output_file_holds_the_table_printed_without_it(self, capsys, tmp_path, spec,
                                                            method):
        # stdout without --output is the reports, the table with its summary
        # line, then the verdict; --output moves exactly the table to the file
        path, target = spec_file(tmp_path, spec), tmp_path / "drift.csv"
        code, printed, _ = run(capsys, "invariant", path, "--method", method)
        assert code == 0
        code, rest, _ = run(capsys, "invariant", path, "--method", method,
                            "--output", str(target))
        assert code == 0
        table = target.read_text(encoding="ascii")
        assert table.startswith("t,I\n") and table.splitlines()[-1].startswith("# relative drift")
        reports, last = rest.rstrip("\n").rsplit("\n", 1)
        assert printed == reports + "\n" + table + last + "\n"


class TestKummerLiouville:
    def test_well_conditioned_gauge(self, capsys, tmp_path):
        # the 1/t scale keeps the clock uniform, so a coarse grid suffices
        code, out, _ = run(
            capsys,
            "kummer-liouville",
            spec_file(tmp_path, KL_GENERALIZED),
            "--gamma-init", "1,-1",
            "--grid", "21",
        )
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "residual")
        assert float(value) < 1e-6

    def test_default_gauge_constant_damping(self, capsys, tmp_path):
        text = (
            "kind = generalized\nn = 5\np = 0.5\nr = 1\n"
            "interval = 0, 3\nx0 = 0.3\nv0 = 0\n"
        )
        code, out, _ = run(capsys, "kummer-liouville", spec_file(tmp_path, text))
        assert code == 0
        assert verdict(out)[0] == "PASS"

    def test_emden_file_converts(self, capsys, tmp_path):
        drag = DRAG_N5.replace("interval = 0.5, 5", "interval = 1, 5")
        drag = drag.replace("x0 = 1.3", "x0 = 0.3").replace("v0 = -0.2", "v0 = 0")
        code, out, _ = run(
            capsys,
            "kummer-liouville",
            spec_file(tmp_path, drag),
            "--gamma-init", "1,-1",
            "--grid", "21",
        )
        assert code == 0
        assert verdict(out)[0] == "PASS"

    def test_truncated_scale_reaches_a_verdict(self, capsys, tmp_path):
        # gamma = cos t reaches zero at pi/2, where the clock diverges
        text = (
            "kind = generalized\nn = 3\np = 0\nq = 1\nr = 1\n"
            "interval = 0, 3\nx0 = 0.5\nv0 = 0\n"
        )
        code, out, _ = run(capsys, "kummer-liouville", spec_file(tmp_path, text))
        assert code in (0, 1)
        assert "truncated" in out
        assert verdict(out)[1] == "residual"

    def test_scale_reaching_zero_at_the_window_start_is_refused(self, capsys, tmp_path):
        # gamma = 1 - 1e9 (t - 1000) reaches zero 1e-9 after t0, closer than
        # the truncation margin; the window would run backward
        text = KL_GENERALIZED.replace("interval = 1, 5", "interval = 1000, 1001")
        code, out, err = run(
            capsys, "kummer-liouville", spec_file(tmp_path, text), "--gamma-init", "1,-1e9"
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "GaugeError")
        assert "reaches zero at t=1000.000000001" in err
        assert "valid on" not in out

    def test_a_coefficient_out_of_range_at_the_start_names_t(self, capsys, tmp_path):
        # gamma(t0)^(n+3) = 1e2400 leaves the real range when the reduction
        # prints its coefficient, outside any run
        code, out, err = run(
            capsys, "kummer-liouville", spec_file(tmp_path, DRAG_N5), "--gamma-init", "1e300,0"
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "GaugeError")
        assert "failed at t=0.5: pow(1e+300, 8.0) left the real range" in err
        assert "valid on" not in out

    def test_a_large_scale_leaves_the_residual_relative(self, capsys, tmp_path):
        # gamma = 1e38 makes x/gamma about 1e-38; the residual still compares
        # it relatively, so it reads as at gamma = 1, not 1e-49
        residuals = []
        for gamma_init in ("1,0", "1e38,0"):
            code, out, _ = run(capsys, "kummer-liouville", spec_file(tmp_path, DRAG_N5),
                               "--gamma-init", gamma_init)
            assert code == 0
            residuals.append(float(verdict(out)[2]))
        assert residuals[0] / 10 < residuals[1] < residuals[0] * 10

    def test_a_steep_clock_is_not_blamed_on_the_interval(self, capsys, tmp_path):
        # gamma = 1e-100 makes the clock slope 1e200 at t0: its squares
        # overflow in the first-step estimate, and no interval would help
        code, out, err = run(capsys, "kummer-liouville", spec_file(tmp_path, DRAG_N5),
                             "--gamma-init", "1e-100,0")
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "StepSizeUnderflowError")
        assert "at t=0.5" in err
        assert "interval length" not in err and "too long" not in err

    @pytest.mark.parametrize("grid", ["21", "81", "161"])
    def test_default_gauge_passes_at_every_grid(self, capsys, tmp_path, grid):
        # the default gauge compresses the clock (dt/dtau reaches 100 at
        # t = 5); the check must not depend on how the comparison is sampled
        code, out, _ = run(
            capsys, "kummer-liouville", spec_file(tmp_path, DRAG_N5), "--grid", grid
        )
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "residual")
        assert float(value) < 1e-9


class TestReduce:
    def test_known_solution(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "reduce",
            spec_file(tmp_path, DRAG_N5),
            "--solution",
            "(2*t)^(-1/2)",
        )
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "rate_agreement")
        assert float(value) <= 1e-15

    def test_wrong_solution_is_verification_failure(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "reduce",
            spec_file(tmp_path, DRAG_N5),
            "--solution",
            "(3*t)^(-1/2)",
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "ReductionError")
        assert "slope compatibility" in err

    def test_solution_off_by_one_part_in_a_billion_is_refused(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "reduce",
            spec_file(tmp_path, DRAG_N5),
            "--solution",
            "(2*t)^(-1/2)*(1+1e-9*t)",
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "ReductionError")
        assert "slope compatibility" in err

    def test_rate_off_the_frame_rate_is_verification_failure(self, capsys, tmp_path):
        spec = DRAG_N5.replace("a = -2/t", "a = -5/(2*t)").replace("b = -1", "b = -2")
        code, out, err = run(
            capsys, "reduce", spec_file(tmp_path, spec), "--solution", "(2*t)^(-1/2)"
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "ReductionError")
        assert "frame's rate" in err and "t=" in err

    def test_failing_evaluation_names_its_sample(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "reduce", spec_file(tmp_path, DRAG_N5), "--solution", "sqrt(t-1)"
        )
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "ReductionError")
        assert "t=0.5" in err


class TestSuperpose:
    def test_unit_constant_reproduces_seed(self, capsys):
        code, out, _ = run(
            capsys, "superpose", "--x1", "(1+t^2/3)^(-1/2)", "--K", "1", "0.1,3"
        )
        assert code == 0
        assert verdict(out) == ("PASS", "samples", "101")
        lines = out.rstrip("\n").splitlines()
        assert lines[0] == "t,x1,x0"
        for line in lines[1:-1]:
            _, x1, x0 = line.split(",")
            assert x0 == x1  # byte-identical columns at K = 1

    def test_zero_constant_annihilates(self, capsys):
        code, out, _ = run(capsys, "superpose", "--x1", "(1+t^2/3)^(-1/2)", "--K", "0")
        assert code == 0
        for line in out.rstrip("\n").splitlines()[1:-1]:
            assert line.split(",")[2] == "0"

    def test_negative_constant_rejected(self, capsys):
        code, _, err = run(capsys, "superpose", "--x1", "1", "--K", "-2")
        assert code == 2
        assert "nonnegative" in err

    def test_domain_violation(self, capsys):
        code, out, _ = run(capsys, "superpose", "--x1", "1.2", "--K", "2", "0,5")
        assert code == 1
        assert verdict(out) == ("FAIL", "error", "SuperpositionDomainError")

    def test_an_overflowing_constant_fails_and_names_t(self, capsys):
        # mix^2 overflows above about 1.3e154, where the rule read inf/inf as
        # nan, and (1 - mix^2)^2 above about 1.2e77, where float ** raised
        for constant in ("1e160", "1e100"):
            code, out, err = run(capsys, "superpose", "--x1", "(1+t^2/3)^(-1/2)",
                                 "--K", constant, "0.1,5", "--samples", "3")
            assert code == 1
            assert verdict(out) == ("FAIL", "error", "SuperpositionDomainError")
            assert "nan" not in out
            assert "t = 0.1" in err

    def test_backward_interval_rejected(self, capsys):
        code, _, err = run(capsys, "superpose", "--x1", "1", "--K", "1", "3,1")
        assert code == 2
        assert "must run forward" in err


class TestConstruct:
    def test_emits_runnable_problem_file(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "5", "--K", "1")
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key) == ("PASS", "residual")
        assert float(value) < 1e-10
        # everything before the first blank line is a problem file
        head = out.split("\n\n", 1)[0]
        spec = parse_spec(head)
        assert spec.kind == "emden" and spec.n == 5.0
        prob = spec.build()
        t0 = spec.interval[0]
        assert prob.a(t0) == pytest.approx(4.0 / (1.0 - 2.0 * t0), rel=1e-12)

    @pytest.mark.parametrize("argv, digest", [
        (("--n", "2", "--K", "0.5"),
         "5e2846a43e786619e05935940c894020c3dd5c0f40ad18c835ded7f98bb15f02"),
        (("--n", "-3", "--K", "2"),
         "8043f65b502cb0b0aab7df59b8ff16d7a9eb296e3c44fbbccb1ba67d8e2be6ac"),
    ])
    def test_output_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_linear_exponent_rejected(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "1")
        assert code == 2
        assert "no slope-compatible profile" in err


    @pytest.mark.parametrize("argv, message", [
        (("--n", "3", "--K", "1e300"), "--n 3.0 --K 1e+300: empty interval"),
        (("--n", "1.0000000000001", "--K", "1"),
         "--n 1.0000000000001 --K 1.0: exponent n = 1 is the linear case"),
        (("--n", "1e300", "--K", "1"), "--n 1e+300 --K 1.0: catalog entry 'constructed_n1e+300' "
                                       "failed its residual check"),
    ])
    def test_a_refused_design_names_its_flags(self, capsys, argv, message):
        code, out, err = run(capsys, "construct", *argv)
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert "VERDICT" not in out


class TestCatalog:
    def test_lists_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        status, key, value = verdict(out)
        assert (status, key, value) == ("PASS", "entries", "6")
        assert "lane_emden_n5" in out
        assert "powerlaw_n5" in out


class TestUsage:
    def test_missing_required_flag_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", spec_file(tmp_path, DRAG_N5)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, name", [
        (["kummer-liouville", KL_GENERALIZED, "--gamma-init", "1,-1", "--grid", "4"],
         "--grid"),
        (["kummer-liouville", KL_GENERALIZED, "--gamma-init", "1,-1", "--grid", "1"],
         "--grid"),
        (["invariant", DRAG_N5, "--method", "particular:lane_emden_n5", "--samples", "1"],
         "samples"),
        (["invariant", DRAG_N5, "--method", "particular:lane_emden_n5", "--samples", "0"],
         "samples"),
        (["integrate", DRAG_N5, "--samples", "0"], "--samples"),
        (["integrate", DRAG_N5, "--samples", "-3"], "--samples"),
        (["superpose", "--x1", "1", "--K", "1", "--samples", "0"], "--samples"),
        (["invariant", DRAG_N5, "--method", "particular:lane_emden_n5", "--threshold", "0"],
         "--threshold"),
        (["invariant", DRAG_N5, "--method", "s7a", "--threshold", "-1"], "--threshold"),
        (["kummer-liouville", KL_GENERALIZED, "--threshold", "0"], "--threshold"),
        (["kummer-liouville", KL_GENERALIZED, "--threshold", "-1e-6"], "--threshold"),
        (["integrate", DRAG_N5, "--samples", "1"], "--samples"),
        (["superpose", "--x1", "1", "--K", "1", "--samples", "1"], "--samples"),
        (["invariant", DRAG_N5, "--method", "particular:lane_emden_n5", "--samples", "1"],
         "--samples"),
        (["kummer-liouville", KL_GENERALIZED, "--gamma-init", "0,1"], "--gamma-init"),
        (["kummer-liouville", KL_GENERALIZED, "--gamma-init=-0.5,1"], "--gamma-init"),
    ])
    def test_verdict_that_checks_nothing_is_refused(self, capsys, tmp_path, argv, name):
        # refused while parsing the arguments, before any work or output
        argv = with_spec_files(tmp_path, argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert name in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["superpose", "--x1", "(2*t)^(-1/2)", "--K", "nan", "1,2", "--samples", "3"],
        ["superpose", "--x1", "1", "--K", "1", "1,inf"],
        ["kummer-liouville", KL_GENERALIZED, "--gamma-init", "nan,0"],
        ["kummer-liouville", KL_GENERALIZED, "--gamma-init", "1,inf"],
        ["kummer-liouville", KL_GENERALIZED, "--threshold", "inf"],
        ["invariant", DRAG_N5, "--method", "particular:lane_emden_n5", "--threshold", "nan"],
        ["construct", "--n", "inf"],
        ["construct", "--n", "5", "--K", "inf"],
    ])
    def test_non_finite_numbers_exit_2(self, capsys, tmp_path, argv):
        argv = with_spec_files(tmp_path, argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "is not finite" in captured.err
        assert "VERDICT" not in captured.out

    @pytest.mark.parametrize("error, code", [
        (SpecError("bad file"), 2),
        (InputError("bad flag"), 2),
        (ExprSyntaxError("bad expression", 0), 2),
        (ReductionError("no reduction"), 1),
        (GaugeError("no gauge"), 1),
        (InvariantDomainError("undefined"), 1),
        (SuperpositionDomainError("not real"), 1),
        (IntegrationError("stopped"), 1),
        (EvalDomainError("log of zero"), 1),
        (ExactnessError("inexact"), 1),
        (ArithmeticError("overflow"), 1),
        (ValueError("bad value"), 2),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_each_error_class_keeps_its_exit_code(self, capsys, monkeypatch, error, code):
        def raises(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_catalog", raises)
        assert main(["catalog"]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        failed = f"VERDICT: FAIL error={type(error).__name__}\n"
        assert captured.out == (failed if code == 1 else "")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "emdenlab", "scheme-check"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.rstrip().splitlines()[-1] == "VERDICT: PASS failures=0"


# emdenlab.__main__.run switches the collector off in the process that calls
# it, so these tests call it only in child interpreters
def run_entry(*argv, script=None):
    """(exit code, stdout, stderr) of a child that runs the command through
    ``emdenlab.__main__``: ``python -m emdenlab argv``, or ``script`` with
    sys.argv set to argv."""
    command = ["-m", "emdenlab"] if script is None else ["-c", script]
    proc = subprocess.run([sys.executable, *command, *argv], capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestProcessEntry:
    def test_the_collector_is_off_and_frozen_at_exit(self):
        script = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('probe', gc.isenabled(), gc.get_freeze_count() > 0,"
            " file=sys.stderr))\n"
            "from emdenlab.__main__ import run\n"
            "sys.exit(run())\n"
        )
        code, out, err = run_entry("catalog", script=script)
        assert code == 0
        assert verdict(out) == ("PASS", "entries", "6")
        assert err == "probe False True\n"

    def test_help_exits_0(self):
        code, out, err = run_entry("--help")
        assert code == 0
        assert out.startswith("usage: emdenlab [-h]") and err == ""

    def test_unusable_input_exits_2_with_its_message(self):
        code, out, err = run_entry("construct", "--n", "nan")
        assert code == 2
        assert out == ""
        assert err == ("usage: emdenlab construct [-h] --n N [--K K]\n"
                       "emdenlab construct: error: argument --n: --n = 'nan' is not finite\n")

    def test_main_in_process_leaves_the_collector_alone(self, capsys):
        before = (gc.isenabled(), gc.get_freeze_count())
        assert main(["catalog"]) == 0
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == before


# ---------------------------------------------------------------------------
# fuzzing: problem files and argument lists for every subcommand

EXPRESSIONS = ["-2/t", "-1", "0", "t", "2/t", "1/(t-1)", "log(t)", "sqrt(t-2)",
               "(2*t)^(-1/2)", "(1+t^2/3)^(-1/2)", "exp(t^2)", "t^t", "K*t", "1/0",
               "(", "1e999", "abs(t-1)", "-t^5"]
NUMBERS = ["0", "1", "-1", "0.5", "2.5", "5", "-3", "1e-10", "1e300", "nan", "1e999", "abc"]
COUNTS = ["2", "3", "17", "50", "0", "1", "x"]
PAIRS = ["0.1,5", "1,0", "1,-1", "0.5,0.5", "[0.5, 2]", "0,1", "5,0.1", "1", "a,b",
         "nan,0", "1,1e308"]
# replacement values for each key of a problem file
SPEC_VALUES = {
    "kind": ["emden", "generalized", "other"],
    "n": ["5", "3", "-3", "2.5", "0.5", "1", "-1", "nan"],
    "a": EXPRESSIONS, "b": EXPRESSIONS, "p": EXPRESSIONS, "q": EXPRESSIONS,
    "r": EXPRESSIONS,
    "singular_points": ["0", "", "1, 2", "3", "x"],
    "interval": ["0.5, 5", "1, 5", "1, 1.5", "5, 0.5", "0, 1e6", "1, 1", "0.5", "a, b",
                 "0.5, inf", "-1, 1"],
    "x0": NUMBERS, "v0": NUMBERS,
    "rel_tol": ["1e-10", "1e-6", "0", "1", "nan"],
    "abs_tol": ["1e-12", "1e-8", "0", "-1"],
    "unknown": ["3"],
}
VALID_SPECS = [dict(line.split(" = ", 1) for line in text.splitlines())
               for text in (DRAG_N5, PLAIN_CUBIC, INVERSE_CUBE, KL_GENERALIZED)]
SPEC = "<problem file>"  # stands for the path of the generated problem file
# each subcommand's arguments in order: "spec" is the problem file, and a
# (flag, values, required) triple an option, or a positional when flag is ""
ARGUMENTS = {
    "scheme-check": [],
    "integrate": ["spec", ("--samples", COUNTS, False)],
    "invariant": ["spec", ("--method", ["particular:lane_emden_n5", "particular:nope",
                                         "generic", "s7a", "s7b", "rescaled-energy",
                                         "dilation", "bogus"], True),
                  ("--solution", EXPRESSIONS, False), ("--samples", COUNTS, False),
                  ("--threshold", ["1e-6", "1e-3", "1", "0", "nan"], False)],
    "kummer-liouville": ["spec", ("--gamma-init", PAIRS, False),
                         ("--threshold", ["1e-6", "1e-3", "0", "nan"], False),
                         ("--grid", ["5", "9", "4", "x"], False)],
    "reduce": ["spec", ("--solution", EXPRESSIONS, True)],
    "superpose": [("--x1", EXPRESSIONS, True), ("--K", NUMBERS, True), ("", PAIRS, False),
                  ("--samples", COUNTS, False)],
    "construct": [("--n", NUMBERS + ["3", "7", "9"], True), ("--K", NUMBERS, False)],
    "catalog": [],
}


@st.composite
def problem_files(draw):
    """One of the valid problem files, with up to two keys replaced or dropped."""
    entries = dict(draw(st.sampled_from(VALID_SPECS)))
    for key in draw(st.lists(st.sampled_from(sorted(SPEC_VALUES)), max_size=2)):
        value = draw(st.one_of(st.sampled_from(SPEC_VALUES[key]), st.none()))
        if value is None:
            entries.pop(key, None)
        else:
            entries[key] = value
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


@st.composite
def command_lines(draw):
    """An argument list for one subcommand; SPEC marks the problem file."""
    command = draw(st.sampled_from(sorted(ARGUMENTS)))
    argv = [command]
    for argument in ARGUMENTS[command]:
        if argument == "spec":
            argv.append(SPEC)
            continue
        flag, values, required = argument
        value = draw(st.sampled_from(values) if required
                     else st.one_of(st.none(), st.sampled_from(values)))
        if value is not None:
            argv += [flag, value] if flag else [value]
    return argv


@contextlib.contextmanager
def step_budget(steps):
    """Cap every integration at steps, so no case runs for long."""
    original = numerics.integrate

    def capped(rhs, t0, y0, t_end, config=None):
        cfg = config or numerics.IntegratorConfig()
        config = numerics.IntegratorConfig(cfg.rel_tol, cfg.abs_tol, cfg.max_step,
                                           cfg.first_step, max_steps=steps)
        return original(rhs, t0, y0, t_end, config)

    callers = (numerics, gauge, invariants)  # every module holding integrate
    for module in callers:
        module.integrate = capped
    try:
        yield
    finally:
        for module in callers:
            module.integrate = original


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command_lines(), problem_files())
def test_every_command_line_ends_in_an_exit_code_and_a_verdict(argv, spec_text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/problem.spec"
        with open(path, "w") as fh:
            fh.write(spec_text)
        argv = [path if a == SPEC else a for a in argv]
        with step_budget(2000), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
    # any other exception escapes main and fails the test with its traceback
    assert code in (0, 1, 2), (code, argv)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        lines = out.getvalue().rstrip("\n").splitlines()
        assert lines and lines[-1].startswith("VERDICT: "), (argv, out.getvalue()[-300:])
