"""Command-line interface: problem files in, CSV and verdicts out.

Every analysis subcommand finishes with a machine-readable line

    VERDICT: PASS|FAIL <metric>=<value>

as the last line of stdout, and the exit code distinguishes verification
failures (1) from unusable input (2).  CSV goes to stdout unless --output
names a file; formatting is fixed, so identical inputs give identical
bytes.  Each subcommand imports the modules it runs when it runs, so a
command loads only what it uses.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from typing import Optional, Sequence, Tuple

from . import UnusableInput, VerificationFailure

__all__ = ["main"]


def _lazy(name: str) -> None:
    """Register module name to run on its first attribute read; keep one already run."""
    # a second module object would give its classes a second identity
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[spec.parent], name.rpartition(".")[2], module)


# perfbench/tracing.py reads sys.modules["emdenlab.vfields"] in runs without
# scheme-check; only scheme-check runs it
_lazy("emdenlab.vfields")


class InputError(UnusableInput):
    """Unusable command-line input (exit code 2)."""


def _finish(passed: bool, metric: str, value) -> int:
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"VERDICT: {'PASS' if passed else 'FAIL'} {metric}={value}")
    return 0 if passed else 1


def _number(flag: str, positive: bool = False):
    """argparse type for a finite float, checked as problem files are."""
    def parse(text: str) -> float:
        from .problemfile import SpecError, _parse_float

        try:
            return _parse_float(flag, text, positive)
        except SpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _count(flag: str, minimum: int):
    """argparse type for an integer of at least minimum."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{flag} = {text!r} must be at least {minimum}")
        return value

    return count


def _pair(flag: str, positive_first: bool = False):
    """argparse type for two comma-separated finite floats."""
    number = _number(flag)
    first = _number(flag, positive_first)

    def parse(text: str) -> Tuple[float, float]:
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"expected two comma-separated numbers, got {text!r}"
            )
        return (first(parts[0]), number(parts[1]))

    return parse


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scheme_check(args) -> int:
    from .vfields import emden_v_basis, emden_w_basis, verify_scheme

    w_labels = ("v*d/dv", "x*d/dv", "x*d/dx")
    v_labels = ("x*d/dv", "x^n*d/dv", "v*d/dx", "v*d/dv", "x*d/dx")
    report = verify_scheme(emden_w_basis(), emden_v_basis(), w_labels, v_labels)
    print(report.render())
    return _finish(report.ok, "failures", len(report.failures))


def _cmd_integrate(args) -> int:
    from .numerics import integrate, write_csv
    from .problemfile import load_spec
    from .timefn import linspace

    spec = load_spec(args.spec)
    prob = spec.build()
    t0, t1 = spec.interval
    traj = integrate(prob.rhs, t0, spec.initial, t1, spec.config())
    grid = linspace(t0, t1, args.samples)
    rows = [(t, x, v) for t, (x, v) in zip(grid, traj.states(grid))]
    write_csv(args.output or sys.stdout, ("t", "x", "v"), rows)
    return _finish(True, "steps", traj.accepted)


def _cmd_invariant(args) -> int:
    from .invariants import (
        dilation_invariant,
        drift,
        invariant_from_particular_solution,
        rescaled_energy_invariant,
    )
    from .numerics import integrate
    from .problemfile import compile_expression, load_spec

    spec = load_spec(args.spec)
    prob = spec.build_emden()
    t0, t1 = spec.interval
    method = args.method

    if method.startswith("particular:"):
        from .solutions import catalog_entry

        entry_id = method.split(":", 1)[1]
        try:
            entry = catalog_entry(entry_id)
        except KeyError as exc:
            raise InputError(exc.args[0])
        inv = invariant_from_particular_solution(
            prob, entry.xp, spec.interval, dxp=entry.dxp, ddxp=entry.ddxp
        )
    elif method == "generic":
        if not args.solution:
            raise InputError("--method generic needs --solution <expr>")
        xp = compile_expression(args.solution, "--solution")
        inv = invariant_from_particular_solution(prob, xp, spec.interval)
    else:
        if method in ("s7a", "rescaled-energy"):
            cond = rescaled_energy_invariant(prob, t0, spec.interval)
        elif method in ("s7b", "dilation"):
            # this construction anchors its clock at the window start, so the
            # invariant only opens a little inside the window
            lead = (t1 - t0) / 50.0
            cond = dilation_invariant(prob, t0, (t0 + lead, t1))
        else:
            raise InputError(
                f"unknown method {method!r}; use particular:<id>, generic, "
                "s7a (rescaled-energy), or s7b (dilation)"
            )
        print(cond.render())
        if not cond.passed:
            return _finish(False, "condition_variation", cond.variation)
        inv = cond.invariant

    cfg = spec.config()
    if inv.validity_interval is not None and inv.validity_interval[0] > t0:
        start = inv.validity_interval[0]
        warmup = integrate(prob.rhs, t0, spec.initial, start, cfg)
        traj = integrate(prob.rhs, start, warmup(start), t1, cfg)
    else:
        traj = integrate(prob.rhs, t0, spec.initial, t1, cfg)

    report = drift(inv, traj, samples=args.samples)
    print(report.render())
    report.write_csv(args.output or sys.stdout)
    return _finish(report.relative_drift < args.threshold, "drift", report.relative_drift)


def _cmd_kummer_liouville(args) -> int:
    from .canonical import canonical_residual, kummer_liouville
    from .problemfile import load_spec
    from .problems import EmdenProblem

    spec = load_spec(args.spec)
    prob = spec.build()
    gen = prob.as_generalized() if isinstance(prob, EmdenProblem) else prob
    t0, t1 = spec.interval
    kl = kummer_liouville(gen, t0, t1, gamma_init=args.gamma_init)
    print(kl.render())
    # verification integrates at the checker's own tight tolerances; the
    # file's tolerances only govern plain trajectory output
    residual = canonical_residual(kl, gen, spec.initial, grid_points=args.grid)
    return _finish(residual < args.threshold, "residual", residual)


def _cmd_reduce(args) -> int:
    from .gauge import reduce_via_particular_solution
    from .problemfile import compile_expression, load_spec

    spec = load_spec(args.spec)
    prob = spec.build_emden()
    xp = compile_expression(args.solution, "--solution")
    red = reduce_via_particular_solution(prob, xp, spec.interval)
    print(red.render())
    return _finish(True, "rate_agreement", red.rate_consistency)


def _cmd_superpose(args) -> int:
    from .numerics import write_csv
    from .problemfile import compile_expression
    from .solutions import superpose
    from .timefn import linspace

    if args.K < 0:
        raise InputError(f"--K must be nonnegative, got {args.K}")
    x1 = compile_expression(args.x1, "--x1")
    t0, t1 = args.interval
    if not t0 < t1:
        raise InputError(f"interval [{t0:g}, {t1:g}] must run forward")
    rows = []
    for t in linspace(t0, t1, args.samples):
        value = x1(t)
        rows.append((t, value, superpose(value, t, args.K)))
    write_csv(args.output or sys.stdout, ("t", "x1", "x0"), rows)
    return _finish(True, "samples", args.samples)


def _cmd_construct(args) -> int:
    from .problemfile import ProblemSpec, render_spec
    from .solutions import construct_equation

    if args.n in (1.0, -1.0):
        raise InputError(f"no slope-compatible profile exists for n = {args.n:g}")
    prob, entry = construct_equation(args.n, args.K)
    spec = ProblemSpec(
        kind="emden",
        n=prob.n,
        expressions={"a": prob.a.to_source(), "b": "-1"},
        singular_points=prob.singular_points,
        interval=entry.window,
        initial=(entry.xp(entry.window[0]), entry.dxp(entry.window[0])),
        rel_tol=1e-10,
        abs_tol=1e-12,
    )
    sys.stdout.write(render_spec(spec))
    print()
    print(entry.describe())
    report = entry.residual_report()
    return _finish(report.passed, "residual", report.max_residual)


def _cmd_catalog(args) -> int:
    from .solutions import catalog

    entries = catalog()
    print("\n\n".join(e.describe() for e in entries))
    return _finish(True, "entries", len(entries))


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdenlab",
        description="Analyses of Emden-Fowler drag equations from plain problem files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    samples = _count("--samples", 2)  # a span is sampled at both ends at least

    p = sub.add_parser("scheme-check", help="verify the bracket tables of the built-in scheme")
    p.set_defaults(func=_cmd_scheme_check)

    p = sub.add_parser("integrate", help="integrate a problem file to CSV")
    p.add_argument("spec", help="problem file")
    p.add_argument("--samples", type=samples, default=201, help="CSV rows (default 201)")
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("invariant", help="build a constant of motion and measure its drift")
    p.add_argument("spec", help="problem file")
    p.add_argument(
        "--method",
        required=True,
        help="particular:<catalog id>, generic (with --solution), s7a, or s7b",
    )
    p.add_argument("--solution", help="particular solution expression for --method generic")
    p.add_argument("--samples", type=samples, default=200, help="drift samples (default 200)")
    p.add_argument("--threshold", type=_number("--threshold", positive=True), default=1e-6,
                   help="drift verdict bound")
    p.add_argument("--output", help="drift CSV file (default stdout)")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("kummer-liouville", help="canonical form via scale and clock change")
    p.add_argument("spec", help="problem file")
    p.add_argument(
        "--gamma-init",
        type=_pair("--gamma-init", positive_first=True),
        default=(1.0, 0.0),
        metavar="G0,DG0",
        help="initial scale (positive) and slope (default 1,0)",
    )
    p.add_argument("--threshold", type=_number("--threshold", positive=True), default=1e-6,
                   help="canonical residual bound")
    p.add_argument("--grid", type=_count("--grid", 5), default=81,
                   help="comparison times (default 81)")
    p.set_defaults(func=_cmd_kummer_liouville)

    p = sub.add_parser("reduce", help="reduce via a particular solution with decaying slope")
    p.add_argument("spec", help="problem file")
    p.add_argument("--solution", required=True, help="particular solution expression")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("superpose", help="companion solutions on the zero invariant level")
    p.add_argument("--x1", required=True, help="seed solution expression")
    p.add_argument("--K", type=_number("--K"), required=True,
                   help="nonnegative mixing constant")
    p.add_argument(
        "interval",
        nargs="?",
        type=_pair("interval"),
        default=(0.0, 2.0),
        help="evaluation window as 't0,t1' (default 0,2)",
    )
    p.add_argument("--samples", type=samples, default=101, help="CSV rows (default 101)")
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("construct", help="design a drag equation around its exact profile")
    p.add_argument("--n", type=_number("--n"), required=True, help="nonlinearity exponent")
    p.add_argument("--K", type=_number("--K"), default=1.0, help="profile shift (default 1)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("catalog", help="list the built-in verified solutions")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnusableInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationFailure, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"VERDICT: FAIL error={type(exc).__name__}")
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
