"""Operations of each workload, built from seeded inputs through emdenlab's
public API.

An operation is the program work a user waits for (``run``) plus the check
of its result against an independent reference (``check``).  Building the
operations is the benchmark's set-up: problem files are parsed and problems
built here, reference values are computed only inside the checks.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import checks as ck
import inputs
from inputs import Case

from emdenlab import cli, problemfile
from emdenlab.gauge import EmdenProblem, GeneralizedProblem, canonical_residual, kummer_liouville
from emdenlab.invariants import (
    dilation_invariant,
    drift,
    invariant_from_particular_solution,
    rescaled_energy_invariant,
)
from emdenlab.numerics import IntegratorConfig, integrate
from emdenlab.solutions import catalog_entry
from emdenlab.timefn import PowerFn

PROFILES = {p.id: p for p in ck.PROFILES}
DRIFT_SAMPLES = 200


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _linspace(lo: float, hi: float, count: int) -> List[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count - 1)] + [hi]


# ---------------------------------------------------------------------------
# trajectory-drift


def _drift_problem(case: Case):
    """(problem, xp, dxp, config, start) from problem-file text or catalog PowerFns.

    The text half passes xp as expression text, as `invariant --method
    generic` does, so its derivatives are numerical (dxp None).
    """
    prof = PROFILES[case.profile]
    p = case.params
    x0 = prof.xp(p["t0"]) * (1.0 + p["rel_x"])
    v0 = prof.dxp(p["t0"]) * (1.0 + p["rel_v"])
    if case.source == "spec":
        spec = problemfile.parse_spec(
            f"kind = emden\nn = {prof.n}\na = {prof.drag_text}\nb = -1\n"
            f"singular_points = {prof.singular_point!r}\n"
            f"interval = {p['t0']!r}, {p['t1']!r}\nx0 = {x0!r}\nv0 = {v0!r}\n"
        )
        xp = problemfile.compile_expression(prof.solution_text, "--solution")
        return spec.build_emden(), xp, None, spec.config(), spec.initial
    entry = catalog_entry(case.profile)
    return entry.problem, entry.xp, entry.dxp, IntegratorConfig(1e-10, 1e-12), (x0, v0)


def _drift_op(case: Case) -> Op:
    prof = PROFILES[case.profile]
    prob, xp, dxp, cfg, z0 = _drift_problem(case)
    t0, t1 = case.params["t0"], case.params["t1"]
    start_value = prof.invariant(t0, *z0)

    if case.kind == "forward":
        def run():
            traj = integrate(prob.rhs, t0, z0, t1, cfg)
            inv = invariant_from_particular_solution(prob, xp, (t0, t1), dxp=dxp)
            return drift(inv, traj, samples=DRIFT_SAMPLES)

        def check(report):
            ck.check_drift(report, start_value)

    elif case.kind == "backward":
        def run():
            out = integrate(prob.rhs, t0, z0, t1, cfg)
            back = integrate(prob.rhs, t1, tuple(out(t1)), t0, cfg)
            inv = invariant_from_particular_solution(prob, xp, (t0, t1), dxp=dxp)
            return back, drift(inv, back, samples=DRIFT_SAMPLES)

        def check(result):
            back, report = result
            ck.close(float(back.t[-1]), t0, 0.0, "backward leg end time")
            ck.close(float(back.y[-1][0]), z0[0], ck.RETURN_TOL, "backward leg x")
            ck.close(float(back.y[-1][1]), z0[1], ck.RETURN_TOL, "backward leg v")
            ck.check_drift(report, start_value)

    else:  # on-solution
        ts = _linspace(t0, t1, DRIFT_SAMPLES)

        def run():
            return integrate(prob.rhs, t0, z0, t1, cfg).sample(ts)

        def check(states):
            for t, (x, v) in zip(ts, states):
                ck.close(float(x), prof.xp(t), ck.ON_SOLUTION_TOL, f"x({t:g}) on {prof.solution_text}")
                ck.close(float(v), prof.dxp(t), ck.ON_SOLUTION_TOL, f"v({t:g}) on {prof.solution_text}")

    return Op(f"{case.kind}/{case.source}", run, check)


# ---------------------------------------------------------------------------
# time-integrals


def _kl_op(case: Case) -> Op:
    p = case.params
    t0, t1 = p["t0"], p["t1"]
    if case.source == "spec":
        spec = problemfile.parse_spec(
            f"kind = generalized\nn = 5\np = {p['c']!r}/t\nr = 1\nsingular_points = 0\n"
            f"interval = {t0!r}, {t1!r}\nx0 = {p['x0']!r}\nv0 = {p['v0']!r}\n"
        )
        prob, z0 = spec.build(), spec.initial
    else:
        prob = GeneralizedProblem(p=PowerFn(p["c"], 0, 1, -1), q=None, r=1.0, n=5,
                                  singular_points=(0.0,))
        z0 = (p["x0"], p["v0"])
    gamma_init = (p["g0"], p["dg0"])
    grid = int(p["grid"])
    ref = ck.KummerLiouvilleClosedForm(p["c"], t0, p["g0"], p["dg0"], 1.0, 5.0)

    def run():
        kl = kummer_liouville(prob, t0, t1, gamma_init=gamma_init)
        return kl, canonical_residual(kl, prob, z0, grid_points=grid)

    def check(result):
        ck.check_kummer_liouville(result[0], result[1], ref, t1)

    return Op(f"{case.kind}/{case.source}", run, check)


def _conditioned_op(case: Case) -> Op:
    p = case.params
    t0, t1 = p["t0"], p["t1"]
    law = ck.DragPowerLaw(p["k"], p["s"], p["n"], t0)
    if case.source == "spec":
        spec = problemfile.parse_spec(inputs.drag_spec(p, (t0, t1)))
        prob, cfg, z0 = spec.build_emden(), spec.config(), spec.initial
    else:
        prob = EmdenProblem(PowerFn(-p["k"], 0, 1, -1), PowerFn(p["s"], 0, 1, -2.0 * p["k"]),
                            p["n"], singular_points=(0.0,))
        cfg, z0 = IntegratorConfig(1e-10, 1e-12), (p["x0"], p["v0"])
    mid = 0.5 * (t0 + t1)

    if case.kind == "rescaled-energy":
        def run():
            cond = rescaled_energy_invariant(prob, t0, (t0, t1))
            traj = integrate(prob.rhs, t0, z0, t1, cfg)
            return cond, drift(cond.invariant, traj, samples=DRIFT_SAMPLES)

        def check(result):
            cond, report = result
            ck.check_conditioned(cond, law, law.rescaled_energy, (t0, mid, t1))
            ck.check_drift(report, law.rescaled_energy(t0, *z0))

    else:  # dilation, opened a little inside the window as the CLI does
        start = t0 + (t1 - t0) / 50.0

        def run():
            cond = dilation_invariant(prob, t0, (start, t1))
            lead = integrate(prob.rhs, t0, z0, start, cfg)
            traj = integrate(prob.rhs, start, tuple(lead(start)), t1, cfg)
            return cond, traj, drift(cond.invariant, traj, samples=DRIFT_SAMPLES)

        def check(result):
            cond, traj, report = result
            ck.check_conditioned(cond, law, law.dilation, (start, mid, t1))
            x, v = (float(c) for c in traj.y[0])
            ck.check_drift(report, law.dilation(start, x, v))

    return Op(f"{case.kind}/{case.source}", run, check)


# ---------------------------------------------------------------------------
# readme-cli


def _cli_argv(case: Case, workdir: Path) -> List[str]:
    """Command-line arguments; problem files are written under workdir."""
    p = case.params

    def spec_file(text: str) -> str:
        path = workdir / f"{case.kind}.spec"
        path.write_text(text)
        return str(path)

    if case.kind == "scheme-check":
        return ["scheme-check"]
    if case.kind == "integrate":
        return ["integrate", spec_file(inputs.lane_emden_spec(p["x0"], p["v0"]))]
    if case.kind == "invariant-particular":
        return ["invariant", spec_file(inputs.lane_emden_spec(p["x0"], p["v0"])),
                "--method", "particular:lane_emden_n5"]
    if case.kind == "invariant-generic":
        return ["invariant", spec_file(inputs.lane_emden_spec(p["x0"], p["v0"])),
                "--method", "generic", "--solution", "(2*t)^(-1/2)"]
    if case.kind in ("invariant-s7a", "invariant-s7b"):
        return ["invariant", spec_file(inputs.drag_spec(p, (0.5, 5.0))),
                "--method", case.kind.rsplit("-", 1)[1]]
    if case.kind == "reduce":
        return ["reduce", spec_file(inputs.lane_emden_spec(p["x0"], p["v0"])),
                "--solution", "(2*t)^(-1/2)"]
    if case.kind == "superpose":
        return ["superpose", "--x1", "(1+t^2/3)^(-1/2)", "--K", repr(p["K"]),
                f"{p['t0']!r},{p['t1']!r}"]
    if case.kind == "construct":
        return ["construct", "--n", repr(p["n"]), "--K", repr(p["K"])]
    return ["catalog"]


def _check_cli(case: Case):
    """Check of (exit code, stdout) for one subcommand."""
    p = case.params

    def drift_rows_from(out: str, want: float) -> None:
        values = [row[1] for row in ck.csv_rows(out, "t,I")]
        ck.require(len(values) == DRIFT_SAMPLES, f"{len(values)} drift rows")
        ck.all_close(values, want, ck.DRIFT_TOL, "invariant along trajectory")
        ck.require(float(ck.require_pass(out, "drift")) < ck.DRIFT_TOL, "drift verdict")

    def check(result):
        code, out = result
        ck.require(code == 0, f"exit code {code}")
        if case.kind == "scheme-check":
            ck.require(ck.require_pass(out, "failures") == "0", "scheme failures")
            for line in ("[v*d/dv, x*d/dv] = -x*d/dv",
                         "[x*d/dv, v*d/dx] = -v*d/dv + x*d/dx",
                         "[x*d/dx, x^n*d/dv] = n*x^n*d/dv"):
                ck.require(line in out, f"bracket {line!r} missing")
        elif case.kind == "integrate":
            rows = ck.csv_rows(out, "t,x,v")
            ck.require(len(rows) == 201, f"{len(rows)} CSV rows")
            ck.require(rows[0] == [0.5, p["x0"], p["v0"]], f"first row {rows[0]}")
            ts = _linspace(0.5, 5.0, 201)
            for (t, x, v), want_t in zip(rows, ts):
                ck.close(t, want_t, 1e-15, "CSV time column")
            start = ck.lane_emden_invariant(*rows[0])
            ck.all_close((ck.lane_emden_invariant(*row) for row in rows), start, ck.DRIFT_TOL,
                         "classical invariant along the CSV")
            ck.require(int(ck.require_pass(out, "steps")) > 0, "no steps")
        elif case.kind in ("invariant-particular", "invariant-generic"):
            drift_rows_from(out, ck.lane_emden_invariant(0.5, p["x0"], p["v0"]))
        elif case.kind in ("invariant-s7a", "invariant-s7b"):
            law = ck.DragPowerLaw(p["k"], p["s"], p["n"], 0.5)
            ck.close(ck.labelled_value(out, "mean value"), law.condition_constant,
                     ck.CLOSED_FORM_TOL, "condition constant")
            if case.kind == "invariant-s7a":
                drift_rows_from(out, law.rescaled_energy(0.5, p["x0"], p["v0"]))
            else:
                rows = ck.csv_rows(out, "t,I")
                ck.close(rows[0][0], 0.5 + 4.5 / 50.0, 1e-15, "dilation window start")
                drift_rows_from(out, rows[0][1])
        elif case.kind == "reduce":
            ck.require("c11=1 c12=1 c21=-1 c22=-1 cx=0" in out, "reduced coefficients")
            ck.require(float(ck.require_pass(out, "rate_agreement")) < 1e-8, "rate agreement")
        elif case.kind == "superpose":
            rows = ck.csv_rows(out, "t,x1,x0")
            ck.require(len(rows) == 101, f"{len(rows)} CSV rows")
            for t, x1, x0 in rows:
                ck.close(x1, ck.superpose_seed(t), 1e-12, f"x1({t:g})")
                ck.close(x0, ck.bounded_member(p["K"], t), 1e-9, f"x0({t:g})")
            ck.require_pass(out, "samples")
        elif case.kind == "construct":
            values = ck.spec_values(out)
            window, xp, dxp = ck.constructed_profile(p["n"], p["K"])
            ck.close(float(values["n"]), p["n"], 0.0, "n")
            interval = [float(v) for v in values["interval"].split(",")]
            ck.close(interval[0], window[0], 1e-12, "window start")
            ck.close(interval[1], window[1], 1e-12, "window end")
            ck.close(float(values["x0"]), xp(window[0]), 1e-12, "x0 on the profile")
            ck.close(float(values["v0"]), dxp(window[0]), 1e-12, "v0 on the profile")
            ck.require(float(ck.require_pass(out, "residual")) < 1e-10, "profile residual")
        else:  # catalog
            ids = {line[4:] for line in out.splitlines() if line.startswith("id: ")}
            ck.require(ids == ck.CATALOG_IDS, f"catalog ids {sorted(ids)}")
            ck.require(ck.require_pass(out, "entries") == str(len(ck.CATALOG_IDS)), "entry count")

    return check


def _cli_op(case: Case, workdir: Path, src: Path, in_process: bool) -> Op:
    argv = _cli_argv(case, workdir)
    if in_process:
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
    else:
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, "-m", "emdenlab"] + argv

        def run():
            proc = subprocess.run(cmd, env=env, cwd=workdir, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            return proc.returncode, proc.stdout
    return Op(case.kind, run, _check_cli(case))


# ---------------------------------------------------------------------------


def build(workload: str, cases: List[Case], workdir: Path, src: Path,
          in_process_cli: bool = False) -> List[Op]:
    """One round of operations for the workload."""
    if workload == "readme-cli":
        return [_cli_op(c, workdir, src, in_process_cli) for c in cases]
    if workload == "trajectory-drift":
        return [_drift_op(c) for c in cases]
    return [_kl_op(c) if c.kind == "kummer-liouville" else _conditioned_op(c) for c in cases]
