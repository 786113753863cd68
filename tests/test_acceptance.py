"""Full-surface checks: every capability verified end to end at its
shipped tolerance, one verdict line per check (run with -s to see them
as they pass)."""

import math
import time
from fractions import Fraction

import numpy as np

from emdenlab.canonical import canonical_residual, kummer_liouville
from emdenlab.gauge import (
    EmdenProblem,
    GeneralizedProblem,
    reduce_via_particular_solution,
    verify_pushforward,
)
from emdenlab.invariants import (
    dilation_invariant,
    drift,
    invariant_from_particular_solution,
    particular_invariant_expansion,
    rescaled_energy_invariant,
)
from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.solutions import (
    bounded_family,
    catalog,
    catalog_entry,
    construct_equation,
    mixing_constant,
    superpose,
    verify_solution,
)
from emdenlab.timefn import PowerFn
from emdenlab.vfields import emden_v_basis, emden_w_basis, verify_scheme


def report(label: str, passed: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{label}: {detail}"


def test_bracket_tables_close_exactly():
    start = time.perf_counter()
    rep = verify_scheme(emden_w_basis(), emden_v_basis())
    elapsed = time.perf_counter() - start
    relations = len(rep.w_in_v) + len(rep.ww) + len(rep.wv)
    ok = rep.ok and not rep.failures and relations >= 9 and elapsed < 1.0
    report(
        "bracket tables",
        ok,
        f"{relations} relations closed in exact rational arithmetic, "
        f"symbolic exponent, {elapsed:.3f}s",
    )


def test_known_profile_expands_to_the_classical_invariant():
    start = time.perf_counter()
    got = particular_invariant_expansion(PowerFn(1, 0, 2, Fraction(-1, 2)), 5)
    elapsed = time.perf_counter() - start
    want = {
        (6, 0): (Fraction(4, 3), Fraction(3)),
        (0, 2): (Fraction(4), Fraction(3)),
        (1, 1): (Fraction(4), Fraction(2)),
    }
    ok = got == want and elapsed < 1.0
    report(
        "closed-form invariant expansion",
        ok,
        f"(4/3) t^3 x^6 + 4 t^3 v^2 + 4 t^2 x v reproduced exactly, {elapsed:.3f}s",
    )


def test_catalog_invariants_hold_along_trajectories():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    window = (0.5, 5.0)
    entries = [e for e in catalog() if e.slope_compatible]
    assert len(entries) == 5
    start = time.perf_counter()
    worst = 0.0
    for entry in entries:
        prob = entry.problem
        traj = integrate(prob.rhs, window[0], (1.3, -0.2), window[1], cfg)
        inv = invariant_from_particular_solution(prob, entry.xp, window, dxp=entry.dxp)
        worst = max(worst, drift(inv, traj, samples=200).relative_drift)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report(
        "catalog drift suite",
        ok,
        f"five equations from (1.3, -0.2) over [0.5, 5]; worst relative "
        f"drift {worst:.3e}, {elapsed:.2f}s",
    )


def test_bounded_solution_sits_on_the_zero_level():
    entry = catalog_entry("lane_emden_n5")
    inv = invariant_from_particular_solution(
        entry.problem, entry.xp, (0.05, 10.5), dxp=entry.dxp
    )
    member = bounded_family(1.0)
    worst = max(
        abs(inv(float(t), member(float(t)), member.slope(float(t))))
        for t in np.linspace(0.1, 10.0, 100)
    )
    ok = worst < 1e-8
    report(
        "zero level of the bounded solution",
        ok,
        f"max |I| = {worst:.3e} at 100 sample times in [0.1, 10]",
    )


def test_superposition_family_members_solve_the_equation():
    prob = catalog_entry("lane_emden_n5").problem
    seam = math.sqrt(3.0)
    mixes = (0.25, 0.5, 2.0, 4.0)
    start = time.perf_counter()

    worst_residual = 0.0
    for mix in mixes:
        member = bounded_family(mix)
        for window in ((0.1, seam - 1e-6), (seam + 1e-6, 50.0)):
            rep = verify_solution(
                prob, member, member.slope, member.curvature,
                window, threshold=1e-8, samples=200,
            )
            worst_residual = max(worst_residual, rep.max_residual)

    seed = bounded_family(1.0)
    ts = [float(t) for t in np.linspace(0.1, 50.0, 400) if abs(float(t) - seam) > 1e-6]
    seed_gap = max(abs(seed(t) - (1.0 + t * t / 3.0) ** -0.5) for t in ts)
    family_gap = 0.0
    for mix in mixes:
        member = bounded_family(mix)
        family_gap = max(
            family_gap, max(abs(superpose(seed(t), t, mix) - member(t)) for t in ts)
        )
    tail = max(bounded_family(mix)(1e3) for mix in mixes)
    elapsed = time.perf_counter() - start

    ok = (
        worst_residual < 1e-8
        and seed_gap <= 1e-12
        and family_gap <= 1e-12
        and tail < 1e-2
        and elapsed < 10.0
    )
    report(
        "superposition family",
        ok,
        f"residual {worst_residual:.3e}, seed gap {seed_gap:.3e}, family gap "
        f"{family_gap:.3e}, tail {tail:.3e}, {elapsed:.2f}s",
    )


def test_canonical_form_of_inverse_time_damping():
    gp = GeneralizedProblem(p=PowerFn(2, 0, 1, -1), q=None, r=1.0, n=5)
    kl = kummer_liouville(gp, 1.0, 5.0, gamma_init=(1.0, -1.0))
    ts = [float(t) for t in np.linspace(1.0, 5.0, 41)]
    scale_gap = max(abs(kl.gamma(t) * t - 1.0) for t in ts)
    frame_gap = max(abs(kl.beta(t) - kl.gamma(t)) for t in ts)
    coeff_gap = max(abs(kl.coefficient(t) * t ** 4 - 1.0) for t in ts)
    residual = canonical_residual(kl, gp, (0.3, 0.0), grid_points=41)
    ok = (
        scale_gap < 1e-9
        and frame_gap < 1e-9
        and coeff_gap < 1e-9
        and residual < 1e-6
    )
    report(
        "canonical reduction",
        ok,
        f"scale ~ 1/t to {scale_gap:.3e}, beta = gamma to {frame_gap:.3e}, "
        f"coefficient ~ t^(1-n) to {coeff_gap:.3e}, stencil residual {residual:.3e}",
    )


def test_conditioned_invariants_and_their_boundaries():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)

    plain = EmdenProblem(a=0.0, b=-1.0, n=3)
    cond_energy = rescaled_energy_invariant(plain, 0.5, (0.5, 5.0))
    traj = integrate(plain.rhs, 0.5, (1.3, -0.2), 5.0, cfg)
    energy_drift = (
        drift(cond_energy.invariant, traj, samples=200).relative_drift
        if cond_energy.passed
        else math.inf
    )

    inverse_cube = EmdenProblem(a=0.0, b=2.0, n=-3)
    cond_dilation = dilation_invariant(inverse_cube, 0.5, (0.59, 5.0))
    warm = integrate(inverse_cube.rhs, 0.5, (1.3, -0.2), 0.59, cfg)
    z0 = tuple(float(c) for c in warm(0.59))
    traj2 = integrate(inverse_cube.rhs, 0.59, z0, 5.0, cfg)
    dilation_drift = (
        drift(cond_dilation.invariant, traj2, samples=200).relative_drift
        if cond_dilation.passed
        else math.inf
    )

    drag = catalog_entry("lane_emden_n5").problem
    cond_refused = rescaled_energy_invariant(drag, 0.5, (0.5, 5.0))

    ok = (
        cond_energy.passed
        and energy_drift < 1e-6
        and cond_dilation.passed
        and dilation_drift < 1e-6
        and not cond_refused.passed
    )
    report(
        "conditioned invariants",
        ok,
        f"rescaled-energy drift {energy_drift:.3e}, dilation drift "
        f"{dilation_drift:.3e}, drag problem correctly refused",
    )


def test_reduction_gauge_pushes_trajectories_onto_each_other():
    entry = catalog_entry("lane_emden_n5")
    red = reduce_via_particular_solution(
        entry.problem, entry.xp, (0.5, 5.0), dxp=entry.dxp
    )
    rep = verify_pushforward(entry.problem, red.gauge, (1.3, -0.2), (0.5, 5.0))
    ok = rep.passed and rep.discrepancy < 1e-6
    report(
        "pushforward agreement",
        ok,
        f"sup-norm discrepancy {rep.discrepancy:.3e} over [0.5, 5]",
    )


def test_mixing_constant_holds_along_paired_trajectories():
    def frozen_rhs(tau, z):
        x, v = z
        return (x + v, -v - x ** 5)

    def minus_branch(x):
        return x * (-1.0 - math.sqrt(max(0.0, 1.0 - x ** 4 / 3.0)))

    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    first = integrate(frozen_rhs, 0.0, (0.9, minus_branch(0.9)), 2.0, cfg)
    second = integrate(frozen_rhs, 0.0, (0.7, minus_branch(0.7)), 2.0, cfg)
    values = []
    for tau in np.linspace(0.0, 2.0, 51):
        xa, va = first(float(tau))
        xb, vb = second(float(tau))
        values.append(mixing_constant(xa, va, xb, vb))
    spread = (max(values) - min(values)) / abs(values[0])

    try:
        mixing_constant(1.0, 0.5, 0.7, minus_branch(0.7))
        rejected = False
    except ValueError:
        rejected = True

    ok = spread < 1e-7 and rejected
    report(
        "pairwise mixing constant",
        ok,
        f"relative spread {spread:.3e} over 51 samples, off-level state rejected",
    )


def test_designed_equations_carry_their_profiles():
    worst_residual = 0.0
    worst_slope = 0.0
    for n in (2.0, 5.0, 7.0, 9.0):
        prob, entry = construct_equation(n, 1.0)
        assert prob is entry.problem
        worst_residual = max(worst_residual, entry.residual_report().max_residual)
        worst_slope = max(worst_slope, entry.slope_gap())
    ok = worst_residual < 1e-10 and worst_slope < 1e-12
    report(
        "designed equations",
        ok,
        f"n in {{2, 5, 7, 9}}: residual {worst_residual:.3e}, slope "
        f"compatibility {worst_slope:.3e}",
    )
