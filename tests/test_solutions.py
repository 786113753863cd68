"""Closed-form families, the shipped catalog, and the mixing rule."""

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emdenlab import exprlang, solutions, timefn
from emdenlab.cli import main
from emdenlab.exprlang import EvalDomainError, real_power
from emdenlab.gauge import EmdenProblem
from emdenlab.invariants import (
    drift,
    invariant_from_particular_solution,
    particular_invariant_expansion,
)
from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.solutions import (
    SuperpositionDomainError,
    bounded_family,
    catalog,
    catalog_entry,
    construct_equation,
    frozen_level,
    mixing_constant,
    slope_compatible_family,
    superpose,
    verify_solution,
)
from emdenlab.timefn import PowerFn, linspace

SEAM = math.sqrt(3.0)


def lane_emden_problem():
    return EmdenProblem(PowerFn(-2, 0, 1, -1), -1.0, 5, singular_points=(0.0,))


def minus_branch(x):
    """Velocity pairing x on the zero level, decaying root."""
    return x * (-1.0 - math.sqrt(1.0 - x**4 / 3.0))


class TestVerifySolution:
    def test_decaying_profile_is_exact(self):
        xp = PowerFn(1, 0, 2, Fraction(-1, 2))
        rep = verify_solution(
            lane_emden_problem(), xp, xp.deriv(), xp.deriv().deriv(), (0.5, 10.0)
        )
        assert rep.passed
        assert rep.max_residual < 1e-12
        assert rep.mean_residual <= rep.max_residual

    def test_zero_profile_has_zero_residual(self):
        zero = lambda t: 0.0
        rep = verify_solution(lane_emden_problem(), zero, zero, zero, (0.5, 10.0))
        assert rep.max_residual == 0.0

    def test_bounded_profile(self):
        member = bounded_family(1.0)
        rep = verify_solution(
            lane_emden_problem(), member, member.slope, member.curvature, (0.5, 10.0)
        )
        assert rep.max_residual < 1e-12

    def test_near_miss_is_rejected(self):
        xp = PowerFn(1, 0, 2, Fraction(-1, 2))
        off = xp.scaled(1.01)
        rep = verify_solution(
            lane_emden_problem(), off, off.deriv(), off.deriv().deriv(), (0.5, 10.0)
        )
        assert not rep.passed
        assert rep.max_residual > 1e-3
        assert "FAIL" in rep.render()
        # same data squeaks by under a deliberately loose threshold
        loose = verify_solution(
            lane_emden_problem(),
            off,
            off.deriv(),
            off.deriv().deriv(),
            (0.5, 10.0),
            threshold=1.0,
        )
        assert loose.passed

    def test_empty_interval(self):
        xp = PowerFn(1, 0, 2, Fraction(-1, 2))
        with pytest.raises(ValueError, match="interval"):
            verify_solution(lane_emden_problem(), xp, xp.deriv(), xp, (2.0, 2.0))


def _loop_residual(prob, x, dx, ddx, interval, samples):
    """verify_solution's (max, mean) as the loop that called each function,
    and real_power, once per sample."""
    worst = total = 0.0
    for t in linspace(interval[0], interval[1], samples):
        r = abs(ddx(t) - prob.a(t) * dx(t) - prob.b(t) * real_power(x(t), prob.n))
        total += r
        if r > worst:
            worst = r
    return worst, total / samples


def _loop_slope_gap(entry):
    """slope_gap as the loop that called each function once per sample."""
    worst = 0.0
    for t in linspace(entry.window[0], entry.window[1], 100):
        lhs = entry.dxp(t) ** 2
        rhs = real_power(entry.xp(t), entry.problem.n + 1.0)
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        if gap > worst:
            worst = gap
    return worst


def _sampled_entries():
    """The catalog, drag equations built to order over several (n, K), and
    rows of the decaying branch over several (n, shift)."""
    return (list(catalog())
            + [construct_equation(n, k)[1] for n in (2, 3, 5, 7, 9, 0.5, -3)
               for k in (1.0, 2.5, -1.0)]
            + [solutions._decaying_entry(f"decaying_n{n}", n, s, "drag", "solution", "note")
               for n in (2, 5, 7, 9) for s in (1, Fraction(5, 2))])


class TestSharedSampler:
    def test_residual_and_slope_gap_match_the_loops_bit_for_bit(self):
        for entry in _sampled_entries():
            rep = entry.residual_report()
            want = _loop_residual(entry.problem, entry.xp, entry.dxp, entry.ddxp,
                                  entry.window, 100)
            assert (rep.max_residual.hex(), rep.mean_residual.hex()) == tuple(
                v.hex() for v in want), entry.id
            assert entry.slope_gap().hex() == _loop_slope_gap(entry).hex(), entry.id
            rep = verify_solution(entry.problem, entry.xp, entry.dxp, entry.ddxp,
                                  (entry.window[0], entry.window[1] + 0.3), samples=37)
            want = _loop_residual(entry.problem, entry.xp, entry.dxp, entry.ddxp,
                                  (entry.window[0], entry.window[1] + 0.3), 37)
            assert (rep.max_residual.hex(), rep.mean_residual.hex()) == tuple(
                v.hex() for v in want), entry.id

    def test_a_failing_residual_matches_the_loop_bit_for_bit(self):
        # construct_equation(1.5) fails its own check; the residual it reports
        # is the loop's
        xp = slope_compatible_family(1.5, 1.0)
        prob = EmdenProblem(PowerFn(Fraction(9, 2), 2, Fraction(-1, 2), -1), -1.0, 1.5)
        rep = verify_solution(prob, xp, xp.deriv(), xp.deriv().deriv(), (0.0, 3.6))
        want = _loop_residual(prob, xp, xp.deriv(), xp.deriv().deriv(), (0.0, 3.6), 100)
        assert (rep.max_residual.hex(), rep.mean_residual.hex()) == tuple(v.hex() for v in want)

    def test_no_sample_calls_real_power(self, monkeypatch):
        # the sampler writes each power inline; the loops called real_power
        # at every sample
        calls = []

        def counted(x, p):
            calls.append((x, p))
            return real_power(x, p)

        for module in (exprlang, timefn):
            monkeypatch.setattr(module, "real_power", counted)
        for entry in catalog.__wrapped__():  # built and checked afresh
            entry.residual_report()
            entry.slope_gap()
        assert calls == []

    def test_each_entry_is_sampled_once(self, monkeypatch, capsys):
        # an entry's check reads its residual and its slope gap from one
        # pass, and construct prints the report of that pass
        passes = []
        sampler = EmdenProblem.sampler

        def counted(prob, *fns):
            sample = sampler(prob, *fns)

            def run(ts, rows):
                passes.append(len(sample(ts, rows)))
                return rows
            return run

        monkeypatch.setattr(EmdenProblem, "sampler", counted)
        for entry in catalog.__wrapped__():
            entry.residual_report()
            entry.slope_gap()
        assert passes == [100] * 6
        passes.clear()
        assert main(["construct", "--n", "5", "--K", "1"]) == 0
        assert passes == [100]
        assert capsys.readouterr().out.splitlines()[-1].startswith("VERDICT: PASS residual=")


class TestCatalog:
    def test_shipped_ids(self):
        assert [e.id for e in catalog()] == [
            "lane_emden_n5",
            "inverse_square_n2",
            "quartic_root_n9",
            "cube_root_n7",
            "powerlaw_n5",
            "lane_emden_n5_bounded",
        ]

    def test_every_entry_verifies(self):
        for entry in catalog():
            rep = entry.residual_report()
            assert rep.passed, entry.id
            if entry.slope_compatible:
                assert entry.slope_gap() < 1e-12, entry.id

    def test_bounded_entry_tag_is_honest(self):
        entry = catalog_entry("lane_emden_n5_bounded")
        assert not entry.slope_compatible
        # and the condition genuinely fails for it
        assert entry.slope_gap() > 1e-2

    def test_lookup(self):
        entry = catalog_entry("lane_emden_n5")
        assert entry.problem.n == 5.0
        assert entry.xp(2.0) == pytest.approx(0.5, rel=1e-15)
        assert entry.dxp(2.0) == pytest.approx(-0.125, rel=1e-15)
        with pytest.raises(KeyError, match="lane_emden_n5"):
            catalog_entry("nope")

    @pytest.mark.parametrize("n, shift", [
        (2, Fraction(1, 2)), (9, 3), (7, Fraction(1, 2)), (5, 2), (3, 1)])
    def test_decaying_entry_spot_checks(self, n, shift):
        entry = solutions._decaying_entry("spot", n, shift, "drag", "solution", "note")
        assert entry.residual_report().passed
        assert entry.slope_gap() <= 1e-12
        s, e = float(shift), -2.0 / (n - 1)
        for t in (0.5, 1.7, 4.0):
            u = (n - 1) / 2 * (t + s)
            assert entry.xp(t) == pytest.approx(u**e, rel=1e-14)
            assert entry.dxp(t) == pytest.approx(-(u ** (e - 1)), rel=1e-14)
            assert entry.problem.a(t) == pytest.approx(-(n + 3) / ((n - 1) * (t + s)),
                                                       rel=1e-14)

    def test_power_law_entries_are_exact(self):
        for entry in catalog():
            fns = (entry.problem.a, entry.xp, entry.dxp, entry.ddxp)
            if all(type(fn) is PowerFn for fn in fns):
                fields = [field for fn in fns for field in fn._fields()]
                assert all(type(field) is Fraction for field in fields), entry.id

    def test_drags_are_pinned(self):
        # a(t) at five times, bit for bit as the catalog's first drags gave it
        want = {
            "lane_emden_n5": ["-0x1.0000000000000p+2", "-0x1.999999999999ap+0",
                              "-0x1.0000000000000p+0", "-0x1.14c1bacf914c1p-1",
                              "-0x1.999999999999ap-2"],
            "inverse_square_n2": ["-0x1.aaaaaaaaaaaaap+1", "-0x1.1c71c71c71c72p+1",
                                  "-0x1.aaaaaaaaaaaaap+0", "-0x1.10572620ae4c4p+0",
                                  "-0x1.aaaaaaaaaaaaap-1"],
            "quartic_root_n9": ["-0x1.0000000000000p+0", "-0x1.5555555555555p-1",
                                "-0x1.0000000000000p-1", "-0x1.46cefa8d9df52p-2",
                                "-0x1.0000000000000p-2"],
            "cube_root_n7": ["-0x1.1c71c71c71c72p+0", "-0x1.7b425ed097b42p-1",
                             "-0x1.1c71c71c71c72p-1", "-0x1.6b1edd80e865bp-2",
                             "-0x1.1c71c71c71c72p-2"],
            "powerlaw_n5": ["-0x1.999999999999ap-1", "-0x1.3b13b13b13b14p-1",
                            "-0x1.0000000000000p-1", "-0x1.674c59d31674cp-2",
                            "-0x1.2492492492492p-2"],
            "lane_emden_n5_bounded": ["-0x1.0000000000000p+2", "-0x1.999999999999ap+0",
                                      "-0x1.0000000000000p+0", "-0x1.14c1bacf914c1p-1",
                                      "-0x1.999999999999ap-2"],
        }
        got = {e.id: [e.problem.a(t).hex() for t in (0.5, 1.25, 2.0, 3.7, 5.0)]
               for e in catalog()}
        assert got == want

    def test_describe_manifest(self):
        text = catalog_entry("inverse_square_n2").describe()
        assert "id: inverse_square_n2" in text
        assert "x''" in text
        assert "slope-compatible: yes" in text
        assert "shift = 1" in text

    def test_drift_along_generic_trajectories(self):
        # every slope-compatible entry yields a constant of motion that
        # stays flat along an unrelated solution of its own problem
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        for entry in catalog():
            if not entry.slope_compatible:
                continue
            t0, t1 = entry.window
            traj = integrate(entry.problem.rhs, t0, (1.3, -0.2), t1, cfg)
            inv = invariant_from_particular_solution(
                entry.problem, entry.xp, entry.window, dxp=entry.dxp
            )
            rep = drift(inv, traj)
            assert rep.relative_drift < 1e-6, entry.id


def _shape(fn):
    """repr of a PowerFn; the qualified name of anything else, whose repr
    holds an address."""
    return repr(fn) if type(fn) is PowerFn else getattr(fn, "__qualname__", type(fn).__qualname__)


def _pin(entry):
    prob = entry.problem
    return {
        "id": entry.id, "a": repr(prob.a), "xp": _shape(entry.xp),
        "dxp": _shape(entry.dxp), "ddxp": _shape(entry.ddxp), "n": prob.n,
        # hex, so a -0.0 shows
        "singular_points": [s.hex() for s in prob.singular_points],
        "window": entry.window, "parameters": entry.parameters, "describe": entry.describe(),
    }


# what each catalog builder hands out: the shipped catalog, then members of
# the decaying branch at other shifts and two constructed equations
PINNED_ENTRIES = [
    {
        "id": "lane_emden_n5",
        "a": "PowerFn(c=Fraction(-2, 1), k=Fraction(0, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp": "PowerFn(c=Fraction(1, 1), k=Fraction(0, 1), m=Fraction(2, 1), e=Fraction(-1, 2))",
        "dxp": "PowerFn(c=Fraction(-1, 1), k=Fraction(0, 1), m=Fraction(2, 1), e=Fraction(-3, 2))",
        "ddxp": "PowerFn(c=Fraction(3, 1), k=Fraction(0, 1), m=Fraction(2, 1), e=Fraction(-5, 2))",
        "n": 5.0,
        "singular_points": ["0x0.0p+0"],
        "window": (0.5, 5.0),
        "parameters": {},
        "describe": (
            "id: lane_emden_n5\n"
            "equation: x'' = -2/t x' - x^5\n"
            "solution: x(t) = (2 t)^(-1/2)\n"
            "window: [0.5, 5]\n"
            "parameters: (none)\n"
            "slope-compatible: yes\n"
            "note: inverse-square-root decay under 2/t drag"),
    },
    {
        "id": "inverse_square_n2",
        "a":
            "PowerFn(c=Fraction(-5, 1), k=Fraction(1, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(1, 2), m=Fraction(1, 2), e=Fraction(-2, 1))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(1, 2), m=Fraction(1, 2), e=Fraction(-3, 1))",
        "ddxp":
            "PowerFn(c=Fraction(3, 2), k=Fraction(1, 2), m=Fraction(1, 2), e=Fraction(-4, 1))",
        "n": 2.0,
        "singular_points": ["-0x1.0000000000000p+0"],
        "window": (0.5, 5.0),
        "parameters": {"shift": 1.0},
        "describe": (
            "id: inverse_square_n2\n"
            "equation: x'' = -5/(t + 1) x' - x^2\n"
            "solution: x(t) = 4 (t + 1)^(-2)\n"
            "window: [0.5, 5]\n"
            "parameters: shift = 1\n"
            "slope-compatible: yes\n"
            "note: inverse-square decay for the quadratic nonlinearity"),
    },
    {
        "id": "quartic_root_n9",
        "a":
            "PowerFn(c=Fraction(-3, 2), k=Fraction(1, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(4, 1), m=Fraction(4, 1), e=Fraction(-1, 4))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(4, 1), m=Fraction(4, 1), e=Fraction(-5, 4))",
        "ddxp":
            "PowerFn(c=Fraction(5, 1), k=Fraction(4, 1), m=Fraction(4, 1), e=Fraction(-9, 4))",
        "n": 9.0,
        "singular_points": ["-0x1.0000000000000p+0"],
        "window": (0.5, 5.0),
        "parameters": {"shift": 1.0},
        "describe": (
            "id: quartic_root_n9\n"
            "equation: x'' = -3/(2 (t + 1)) x' - x^9\n"
            "solution: x(t) = 2^(-1/2) (t + 1)^(-1/4)\n"
            "window: [0.5, 5]\n"
            "parameters: shift = 1\n"
            "slope-compatible: yes\n"
            "note: slow quartic-root decay for the n = 9 nonlinearity"),
    },
    {
        "id": "cube_root_n7",
        "a":
            "PowerFn(c=Fraction(-5, 3), k=Fraction(1, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(3, 1), m=Fraction(3, 1), e=Fraction(-1, 3))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(3, 1), m=Fraction(3, 1), e=Fraction(-4, 3))",
        "ddxp":
            "PowerFn(c=Fraction(4, 1), k=Fraction(3, 1), m=Fraction(3, 1), e=Fraction(-7, 3))",
        "n": 7.0,
        "singular_points": ["-0x1.0000000000000p+0"],
        "window": (0.5, 5.0),
        "parameters": {"shift": 1.0},
        "describe": (
            "id: cube_root_n7\n"
            "equation: x'' = -5/(3 (t + 1)) x' - x^7\n"
            "solution: x(t) = 3^(-1/3) (t + 1)^(-1/3)\n"
            "window: [0.5, 5]\n"
            "parameters: shift = 1\n"
            "slope-compatible: yes\n"
            "note: cube-root decay for the n = 7 nonlinearity"),
    },
    {
        "id": "powerlaw_n5",
        "a":
            "PowerFn(c=Fraction(-2, 1), k=Fraction(2, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(4, 1), m=Fraction(2, 1), e=Fraction(-1, 2))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(4, 1), m=Fraction(2, 1), e=Fraction(-3, 2))",
        "ddxp":
            "PowerFn(c=Fraction(3, 1), k=Fraction(4, 1), m=Fraction(2, 1), e=Fraction(-5, 2))",
        "n": 5.0,
        "singular_points": ["-0x1.0000000000000p+1"],
        "window": (0.5, 5.0),
        "parameters": {"n": 5.0, "shift": 1.0},
        "describe": (
            "id: powerlaw_n5\n"
            "equation: x'' = -x'/(1 + (0.5) t) - x^5\n"
            "solution: x(t) = (1/2)*(1 + (1/2)*t)^(-1/2)\n"
            "window: [0.5, 5]\n"
            "parameters: n = 5, shift = 1\n"
            "slope-compatible: yes\n"
            "note: pure power-law decay with the drag slope forced by the exponent"),
    },
    {
        "id": "lane_emden_n5_bounded",
        "a": "PowerFn(c=Fraction(-2, 1), k=Fraction(0, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp": "BoundedFamilyMember",
        "dxp": "BoundedFamilyMember.slope",
        "ddxp": "BoundedFamilyMember.curvature",
        "n": 5.0,
        "singular_points": ["0x0.0p+0"],
        "window": (0.5, 5.0),
        "parameters": {},
        "describe": (
            "id: lane_emden_n5_bounded\n"
            "equation: x'' = -2/t x' - x^5\n"
            "solution: x(t) = sqrt(3) (3 + t^2)^(-1/2)\n"
            "window: [0.5, 5]\n"
            "parameters: (none)\n"
            "slope-compatible: no\n"
            "note: globally bounded profile for the same drag problem"),
    },
    {
        "id": "inverse_square_n2",
        "a":
            "PowerFn(c=Fraction(-5, 1), k=Fraction(1, 2), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(1, 4), m=Fraction(1, 2), e=Fraction(-2, 1))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(1, 4), m=Fraction(1, 2), e=Fraction(-3, 1))",
        "ddxp":
            "PowerFn(c=Fraction(3, 2), k=Fraction(1, 4), m=Fraction(1, 2), e=Fraction(-4, 1))",
        "n": 2.0,
        "singular_points": ["-0x1.0000000000000p-1"],
        "window": (0.5, 5.0),
        "parameters": {"shift": 0.5},
        "describe": (
            "id: inverse_square_n2\n"
            "equation: x'' = -5/(t + 0.5) x' - x^2\n"
            "solution: x(t) = 4 (t + 0.5)^(-2)\n"
            "window: [0.5, 5]\n"
            "parameters: shift = 0.5\n"
            "slope-compatible: yes\n"
            "note: inverse-square decay for the quadratic nonlinearity"),
    },
    {
        "id": "quartic_root_n9",
        "a":
            "PowerFn(c=Fraction(-3, 2), k=Fraction(3, 1), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(12, 1), m=Fraction(4, 1), e=Fraction(-1, 4))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(12, 1), m=Fraction(4, 1), e=Fraction(-5, 4))",
        "ddxp":
            "PowerFn(c=Fraction(5, 1), k=Fraction(12, 1), m=Fraction(4, 1), e=Fraction(-9, 4))",
        "n": 9.0,
        "singular_points": ["-0x1.8000000000000p+1"],
        "window": (0.5, 5.0),
        "parameters": {"shift": 3.0},
        "describe": (
            "id: quartic_root_n9\n"
            "equation: x'' = -3/(2 (t + 3)) x' - x^9\n"
            "solution: x(t) = 2^(-1/2) (t + 3)^(-1/4)\n"
            "window: [0.5, 5]\n"
            "parameters: shift = 3\n"
            "slope-compatible: yes\n"
            "note: slow quartic-root decay for the n = 9 nonlinearity"),
    },
    {
        "id": "cube_root_n7",
        "a":
            "PowerFn(c=Fraction(-5, 3), k=Fraction(1, 2), m=Fraction(1, 1), e=Fraction(-1, 1))",
        "xp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(3, 2), m=Fraction(3, 1), e=Fraction(-1, 3))",
        "dxp":
            "PowerFn(c=Fraction(-1, 1), k=Fraction(3, 2), m=Fraction(3, 1), e=Fraction(-4, 3))",
        "ddxp":
            "PowerFn(c=Fraction(4, 1), k=Fraction(3, 2), m=Fraction(3, 1), e=Fraction(-7, 3))",
        "n": 7.0,
        "singular_points": ["-0x1.0000000000000p-1"],
        "window": (0.5, 5.0),
        "parameters": {"shift": 0.5},
        "describe": (
            "id: cube_root_n7\n"
            "equation: x'' = -5/(3 (t + 0.5)) x' - x^7\n"
            "solution: x(t) = 3^(-1/3) (t + 0.5)^(-1/3)\n"
            "window: [0.5, 5]\n"
            "parameters: shift = 0.5\n"
            "slope-compatible: yes\n"
            "note: cube-root decay for the n = 7 nonlinearity"),
    },
    {
        "id": "constructed_n2",
        "a": "PowerFn(c=Fraction(5, 1), k=Fraction(-1, 1), m=Fraction(-1, 1), e=Fraction(-1, 1))",
        "xp": "PowerFn(c=Fraction(1, 1), k=Fraction(-1, 2), m=Fraction(-1, 2), e=Fraction(-2, 1))",
        "dxp":
            "PowerFn(c=Fraction(1, 1), k=Fraction(-1, 2), m=Fraction(-1, 2), e=Fraction(-3, 1))",
        "ddxp":
            "PowerFn(c=Fraction(3, 2), k=Fraction(-1, 2), m=Fraction(-1, 2), e=Fraction(-4, 1))",
        "n": 2.0,
        "singular_points": ["-0x1.0000000000000p+0"],
        "window": (-5.0, -1.4),
        "parameters": {"n": 2.0, "shift": -0.5},
        "describe": (
            "id: constructed_n2\n"
            "equation: x'' = (5)/(-1 + (-1) t) x' - x^2\n"
            "solution: x(t) = (-1/2 + (-1/2)*t)^(-2)\n"
            "window: [-5, -1.4]\n"
            "parameters: n = 2, shift = -0.5\n"
            "slope-compatible: yes\n"
            "note: drag equation built around its slope-compatible profile"),
    },
    {
        "id": "constructed_n9",
        "a": "PowerFn(c=Fraction(12, 1), k=Fraction(2, 1), m=Fraction(-8, 1), e=Fraction(-1, 1))",
        "xp": "PowerFn(c=Fraction(1, 1), k=Fraction(1, 1), m=Fraction(-4, 1), e=Fraction(-1, 4))",
        "dxp": "PowerFn(c=Fraction(1, 1), k=Fraction(1, 1), m=Fraction(-4, 1), e=Fraction(-5, 4))",
        "ddxp":
            "PowerFn(c=Fraction(5, 1), k=Fraction(1, 1), m=Fraction(-4, 1), e=Fraction(-9, 4))",
        "n": 9.0,
        "singular_points": ["0x1.0000000000000p-2"],
        "window": (-3.75, -0.15000000000000002),
        "parameters": {"n": 9.0, "shift": 1.0},
        "describe": (
            "id: constructed_n9\n"
            "equation: x'' = (12)/(2 + (-8) t) x' - x^9\n"
            "solution: x(t) = (1 + (-4)*t)^(-1/4)\n"
            "window: [-3.75, -0.15]\n"
            "parameters: n = 9, shift = 1\n"
            "slope-compatible: yes\n"
            "note: drag equation built around its slope-compatible profile"),
    },
]


def test_builder_output_is_pinned():
    entries = list(catalog()) + [
        solutions._decaying_entry(
            "inverse_square_n2", 2, Fraction(1, 2), "-5/(t + 0.5) x'", "4 (t + 0.5)^(-2)",
            "inverse-square decay for the quadratic nonlinearity"),
        solutions._decaying_entry(
            "quartic_root_n9", 9, 3, "-3/(2 (t + 3)) x'", "2^(-1/2) (t + 3)^(-1/4)",
            "slow quartic-root decay for the n = 9 nonlinearity"),
        solutions._decaying_entry(
            "cube_root_n7", 7, Fraction(1, 2), "-5/(3 (t + 0.5)) x'",
            "3^(-1/3) (t + 0.5)^(-1/3)", "cube-root decay for the n = 7 nonlinearity"),
        construct_equation(2, Fraction(-1, 2))[1],
        construct_equation(9, 1)[1],
    ]
    assert [_pin(entry) for entry in entries] == PINNED_ENTRIES


class TestSlopeCompatibleFamily:
    def test_n5_lives_on_the_negative_halfline(self):
        fam = slope_compatible_family(5, 0)
        assert fam(-2.0) == 0.5
        with pytest.raises(EvalDomainError):
            fam(1.0)

    def test_n5_mirror_is_the_decaying_profile(self):
        fam = slope_compatible_family(5, 0)
        mirror = PowerFn(1, 0, 2, Fraction(-1, 2))
        for t in (0.5, 1.0, 2.0, 5.0):
            assert fam(-t) == mirror(t)

    def test_n3_member(self):
        fam = slope_compatible_family(3, 1)
        assert (fam.c, fam.k, fam.m, fam.e) == (1, 1, -1, -1)
        for t in (-1.0, 0.0, 0.5, 0.9):
            assert fam(t) == pytest.approx(1.0 / (1.0 - t), rel=1e-15)

    def test_n2_matches_positive_shift_form(self):
        fam = slope_compatible_family(2, Fraction(-1, 2))
        assert fam(1.0) == pytest.approx(1.0, rel=1e-15)
        for t in (0.0, 0.7, 2.5):
            assert fam(t) == pytest.approx(4.0 / (t + 1.0) ** 2, rel=1e-14)

    def test_degenerate_exponents_rejected(self):
        with pytest.raises(ValueError, match="n = 1"):
            slope_compatible_family(1, 0)
        with pytest.raises(ValueError, match="straight line"):
            slope_compatible_family(-1, 0)

    @given(
        n=st.sampled_from([-5.0, -2.5, -0.5, 0.5, 2.0, 2.5, 3.0, 5.0, 9.0]),
        shift=st.sampled_from([0, 1, Fraction(5, 2)]),
        frac=st.floats(0.05, 0.95),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_slope_condition_holds_identically(self, n, shift, frac):
        fam = slope_compatible_family(n, shift)
        dfam = fam.deriv()
        m = float(fam.m)
        root = -float(shift) / m
        # a point on the valid side of the base's zero
        t = root + (frac * 3.9 + 0.1) * (1.0 if m > 0 else -1.0)
        lhs = dfam(t) ** 2
        rhs_val = fam(t) ** (n + 1.0)
        assert lhs == pytest.approx(rhs_val, rel=1e-12)


class TestConstructEquation:
    def test_residual_and_slope_over_design_grid(self):
        for n in (2, 5, 7, 9):
            for shift in (0.5, 1, 3):
                prob, entry = construct_equation(n, shift)
                rep = entry.residual_report()
                assert rep.passed and rep.max_residual < 1e-10, (n, shift)
                assert entry.slope_gap() < 1e-12, (n, shift)
                assert prob is entry.problem

    def test_n5_drag_shape(self):
        prob, _ = construct_equation(5, 1)
        for t in (-1.0, -0.3, 0.2, 0.45):
            assert prob.a(t) == pytest.approx(4.0 / (1.0 - 2.0 * t), rel=1e-14)

    def test_n2_reduces_to_the_catalog_problem(self):
        prob, entry = construct_equation(2, Fraction(-1, 2))
        reference = catalog_entry("inverse_square_n2")
        for t in (0.0, 0.8, 2.0):
            assert prob.a(t) == pytest.approx(reference.problem.a(t), rel=1e-14)
            assert entry.xp(t) == pytest.approx(reference.xp(t), rel=1e-14)

    def test_singular_point_declared(self):
        prob, _ = construct_equation(5, 1)
        assert prob.singular_points == (0.5,)
        prob2, _ = construct_equation(2, 3)
        assert prob2.singular_points == (6.0,)

    def test_an_exact_n_builds_the_entry_of_its_float(self):
        # slope_compatible_family takes an exact n, so construct_equation does
        exact = construct_equation(Fraction(1, 2), 2)[1]
        rounded = construct_equation(0.5, 2)[1]
        texts = ("id", "equation_text", "solution_text")
        assert [getattr(exact, f) for f in texts] == [getattr(rounded, f) for f in texts]
        assert exact.id == "constructed_n0.5"
        assert exact.equation_text == "x'' = (3.5)/(4 + (0.5) t) x' - x^0.5"
        assert exact.residual_report().passed and exact.slope_gap() <= 1e-12


class TestPowerLawFamily:
    # the catalog's rows of the decaying branch: id -> shift
    SHIFTS = {"lane_emden_n5": 0, "inverse_square_n2": 1, "quartic_root_n9": 1,
              "cube_root_n7": 1, "powerlaw_n5": 2}

    def test_catalog_profiles_mirror_the_family(self):
        # every power-law profile of the catalog is the mirror t -> -t of
        # slope_compatible_family(n, K), K = (n-1)/2 shift, field for field,
        # with its exact derivatives
        rows = [e for e in catalog() if type(e.xp) is PowerFn]
        assert [e.id for e in rows] == list(self.SHIFTS)
        for entry in rows:
            n = int(entry.problem.n)
            fam = slope_compatible_family(n, Fraction(n - 1, 2) * self.SHIFTS[entry.id])
            assert entry.xp == PowerFn(fam.c, fam.k, -fam.m, fam.e), entry.id
            assert entry.dxp == entry.xp.deriv(), entry.id
            assert entry.ddxp == entry.xp.deriv().deriv(), entry.id
            assert entry.residual_report().max_residual < 1e-13, entry.id

    @pytest.mark.parametrize("n, K", [
        (2, 1), (5, Fraction(1, 2)), (9, -1), (7, 3), (0.5, 2), (-3, 1)])
    def test_constructed_profile_is_the_family_member(self, n, K):
        entry = construct_equation(n, K)[1]
        assert entry.xp == slope_compatible_family(n, K)
        assert entry.dxp == entry.xp.deriv()
        assert entry.ddxp == entry.xp.deriv().deriv()

    def test_powerlaw_n5_is_its_first_parametrisation(self):
        # (1/2)(1 + t/2)^(-1/2) is the shift-2 row (4 + 2t)^(-1/2), under the
        # same drag -1/(1 + t/2) = -2/(t + 2)
        entry = catalog_entry("powerlaw_n5")
        for t in (0.5, 1.0, 3.0, 5.0):
            assert entry.xp(t) == pytest.approx(0.5 * (1.0 + 0.5 * t) ** -0.5, rel=1e-15)
            assert entry.problem.a(t) == pytest.approx(-1.0 / (1.0 + 0.5 * t), rel=1e-15)

    def test_invariant_time_powers(self):
        # the constant of motion built on a pure power-law profile carries
        # the forced time powers 2(n+1)/(n-1) and (n+3)/(n-1)
        for n in (3, 5):
            entry = solutions._decaying_entry(f"pure_n{n}", n, 0, "drag", "solution", "note")
            expansion = particular_invariant_expansion(entry.xp, n)
            pot_pow = Fraction(2 * (n + 1), n - 1)
            cross_pow = Fraction(n + 3, n - 1)
            assert expansion[(n + 1, 0)][1] == pot_pow
            assert expansion[(0, 2)][1] == pot_pow
            assert expansion[(1, 1)][1] == cross_pow


class TestSuperpose:
    def test_unit_mixing_is_the_identity(self):
        for t in (0.0, 0.5, 1.3, 2.0):
            x1 = (1.0 + t * t / 3.0) ** -0.5
            assert superpose(x1, t, 1.0) == pytest.approx(x1, rel=1e-15)

    def test_zero_mixing_annihilates(self):
        assert superpose(0.9, 1.2, 0.0) == 0.0
        assert superpose(0.0, 0.0, 0.0) == 0.0

    def test_domain_guard(self):
        with pytest.raises(SuperpositionDomainError, match="mixing domain"):
            superpose(1.2, 5.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            superpose(0.5, 1.0, -0.1)

    @given(x1=st.floats(0.01, 1.3), t=st.floats(0.0, 6.0))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_unit_mixing_identity_property(self, x1, t):
        assume(4.0 * t * t * x1**4 <= 3.0)
        assert superpose(x1, t, 1.0) == pytest.approx(x1, rel=1e-14)


class TestBoundedFamily:
    def test_unit_member_is_the_smooth_profile(self):
        member = bounded_family(1.0)
        for t in np.linspace(0.0, 10.0, 41):
            assert member(t) == pytest.approx((1.0 + t * t / 3.0) ** -0.5, rel=1e-14)

    def test_closed_form_matches_branch_rescalings(self):
        for mix in (0.5, 2.0):
            member = bounded_family(mix)
            for t in np.linspace(0.0, 6.0, 61):
                if abs(t) < SEAM:
                    branch = math.sqrt(3.0 * mix) * (3.0 + mix * mix * t * t) ** -0.5
                else:
                    branch = math.sqrt(3.0 * mix) * (3.0 * mix * mix + t * t) ** -0.5
                assert member(t) == pytest.approx(branch, rel=5e-15)

    def test_values_at_the_origin(self):
        for mix in (0.25, 1.0, 4.0):
            member = bounded_family(mix)
            assert member(0.0) == pytest.approx(math.sqrt(mix), rel=1e-15)
            assert member.slope(0.0) == 0.0

    def test_seam_continuity_and_slope_jump(self):
        member = bounded_family(2.0)
        eps = 1e-12
        assert abs(member(SEAM - eps) - member(SEAM + eps)) < 1e-10
        # value agrees from both sides but the slope jumps by mix^2
        ratio = member.slope(SEAM * (1.0 - 1e-12)) / member.slope(SEAM)
        assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_solves_the_equation_on_both_branches(self):
        member = bounded_family(2.0)
        prob = lane_emden_problem()
        inner = verify_solution(
            prob, member, member.slope, member.curvature, (0.1, SEAM - 0.05), threshold=1e-8
        )
        outer = verify_solution(
            prob, member, member.slope, member.curvature, (SEAM + 0.05, 50.0), threshold=1e-8
        )
        assert inner.passed and outer.passed

    def test_decay(self):
        member = bounded_family(2.0)
        assert member(50.0) < 0.15 * member(1.0)

    def test_negative_mixing_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bounded_family(-1.0)

    def test_family_sits_on_the_zero_invariant_level(self):
        # the time-dependent constant of motion of the n = 5 drag problem
        # vanishes identically along every family member
        inv = invariant_from_particular_solution(
            lane_emden_problem(), PowerFn(1, 0, 2, Fraction(-1, 2)), (0.1, 60.0)
        )
        for mix in (0.5, 2.0):
            member = bounded_family(mix)
            for t in np.linspace(0.2, 10.0, 80):
                if abs(t - SEAM) < 1e-2:
                    continue
                assert abs(inv(t, member(t), member.slope(t))) < 1e-9

    def test_superpose_reproduces_the_family(self):
        base = bounded_family(1.0)
        for mix in (0.25, 0.5, 2.0, 4.0):
            member = bounded_family(mix)
            for t in np.linspace(0.05, 5.0, 100):
                if abs(t - SEAM) < 1e-2:
                    continue
                assert superpose(base(t), t, mix) == pytest.approx(member(t), abs=1e-12)


class TestMixingConstant:
    def test_diagonal_is_unity(self):
        x = 0.8
        v = minus_branch(x)
        assert mixing_constant(x, v, x, v) == 1.0

    def test_branch_states_sit_on_the_level(self):
        for x in (0.2, 0.7, 1.1):
            assert abs(frozen_level(x, minus_branch(x))) < 1e-15

    def test_guards(self):
        x, v = 0.8, minus_branch(0.8)
        with pytest.raises(ValueError, match="zero energy level"):
            mixing_constant(0.8, 0.1, x, v)
        with pytest.raises(ValueError, match="positive"):
            mixing_constant(-0.8, -minus_branch(0.8), x, v)
        # beyond the fold the square roots go imaginary
        with pytest.raises(SuperpositionDomainError, match="fold"):
            mixing_constant(1.32, -1.32, x, v, level_tol=1.0)

    def test_constant_along_paired_trajectories(self):
        def rhs(t, z):
            x, v = z
            return (x + v, -v - x**5)

        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        tr0 = integrate(rhs, 0.0, (0.9, minus_branch(0.9)), 2.0, cfg)
        tr1 = integrate(rhs, 0.0, (0.7, minus_branch(0.7)), 2.0, cfg)
        values = []
        for tau in np.linspace(0.0, 2.0, 51):
            x0, v0 = tr0(tau)
            x1, v1 = tr1(tau)
            values.append(mixing_constant(x0, v0, x1, v1))
        expected = (0.9**2 / 0.7**2) * (
            (1.0 + math.sqrt(1.0 - 0.7**4 / 3.0))
            / (1.0 + math.sqrt(1.0 - 0.9**4 / 3.0))
        )
        assert values[0] == pytest.approx(expected, rel=1e-14)
        spread = max(values) - min(values)
        assert spread < 1e-7 * abs(values[0])

    def test_tangent_to_the_coupled_flow(self):
        # finite-difference directional derivative along the doubled frozen
        # field vanishes at random level-set points
        rng = random.Random(4237)
        h = 1e-5
        for _ in range(500):
            x0 = 0.2 + rng.random()
            x1 = 0.2 + rng.random()
            z = np.array([x0, minus_branch(x0), x1, minus_branch(x1)])
            field = np.array(
                [
                    z[0] + z[1],
                    -z[1] - z[0] ** 5,
                    z[2] + z[3],
                    -z[3] - z[2] ** 5,
                ]
            )
            zp = z + h * field
            zm = z - h * field
            kp = mixing_constant(*zp, level_tol=1e-8)
            km = mixing_constant(*zm, level_tol=1e-8)
            k0 = mixing_constant(*z)
            assert abs(kp - km) / (2.0 * h) < 1e-6 * (1.0 + abs(k0))
