"""Per-layer tracing from outside the program.

``Tracer.install`` replaces emdenlab's public functions, and the methods
named in LAYERS, with wrappers that record one span per call: name, start,
end and the enclosing span.  Each wrapper also adds its duration to the
enclosing span's child time, so a layer's self time is its duration minus
the time its child spans cover.  Spans are kept in memory (the first
SPAN_CAP of them) and written once the run ends; per-name call counts, total
and self times cover every call.

Nothing under src/ changes: wrappers are swapped into every loaded module
namespace that holds the original object, and into the classes that own
the traced methods.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

SPAN_CAP = 50_000

# (span name, module, attribute path); a dotted path names a method
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "emdenlab.cli", "main"),
    ("problemfile.parse", "emdenlab.problemfile", "parse_spec"),
    ("problemfile.build", "emdenlab.problemfile", "ProblemSpec.build"),
    ("timefn.powerfn", "emdenlab.timefn", "PowerFn.__call__"),
    ("numerics.quad", "emdenlab.numerics", "quad"),
    ("numerics.antiderivative", "emdenlab.numerics", "AntiderivativeFn.__call__"),
    ("numerics.invert", "emdenlab.numerics", "invert_monotone"),
    ("gauge.kl_build", "emdenlab.gauge", "kummer_liouville"),
    ("gauge.residual", "emdenlab.gauge", "canonical_residual"),
    ("gauge.reduce", "emdenlab.gauge", "reduce_via_particular_solution"),
    ("invariants.drift", "emdenlab.invariants", "drift"),
    ("invariants.conditioned", "emdenlab.invariants", "rescaled_energy_invariant"),
    ("invariants.conditioned", "emdenlab.invariants", "dilation_invariant"),
    ("solutions.verify", "emdenlab.solutions", "verify_solution"),
    ("vfields.verify_scheme", "emdenlab.vfields", "verify_scheme"),
)


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.stack: List[list] = []          # frames: [child time, span id]
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, total, self]
        self.steps = [0, 0]                  # accepted, rejected
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.span_count = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self.stack
        span_id = self.span_count
        self.span_count += 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if span_id < SPAN_CAP:
                self.spans.append((span_id, parent, name, start - self.origin, end - self.origin))

    def wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- installing ------------------------------------------------------

    def _swap_everywhere(self, original, replacement, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _swap_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, extra_modules=()) -> None:
        """Wrap every layer function in emdenlab and in extra_modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "emdenlab" or n.startswith("emdenlab.")] + list(extra_modules)
        tracer = self

        for name, module_name, path in LAYERS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._swap_method(cls, attr, self.wrapper(name, cls.__dict__[attr]))
            else:
                original = getattr(owner, path)
                self._swap_everywhere(original, self.wrapper(name, original), modules)

        numerics = sys.modules["emdenlab.numerics"]
        problemfile = sys.modules["emdenlab.problemfile"]

        # integrate: count the rhs calls it makes and the steps it takes
        integrate = numerics.integrate

        @functools.wraps(integrate)
        def traced_integrate(rhs, *args, **kwargs):
            traj = tracer.call("numerics.integrate", integrate,
                               (tracer.wrapper("numerics.rhs", rhs),) + args, kwargs)
            tracer.steps[0] += traj.accepted
            tracer.steps[1] += traj.rejected
            return traj

        self._swap_everywhere(integrate, traced_integrate, modules)

        # dense output, split by the direction of the trajectory
        dense = numerics.Trajectory.__call__

        def traced_dense(traj, t):
            name = "numerics.dense_fwd" if traj.t[-1] >= traj.t[0] else "numerics.dense_bwd"
            return tracer.call(name, dense, (traj, t), {})

        self._swap_method(numerics.Trajectory, "__call__", traced_dense)

        # coefficients compiled from expression text
        compile_expression = problemfile.compile_expression

        @functools.wraps(compile_expression)
        def traced_compile(*args, **kwargs):
            fn = compile_expression(*args, **kwargs)
            coef = tracer.wrapper("exprlang.coef", fn)
            coef.expression_text = fn.expression_text
            return coef

        self._swap_everywhere(compile_expression, traced_compile, modules)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, List[float]]:
        snap = {name: list(stat) for name, stat in self.stats.items()}
        snap["numerics.steps"] = list(self.steps)
        return snap

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
            if self.span_count > SPAN_CAP:
                fh.write(f"# {self.span_count - SPAN_CAP} later spans counted but not kept\n")


def layer_metrics(before: Dict[str, List[float]], after: Dict[str, List[float]],
                  ops: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures over the ops operations between two snapshots.

    Counts and times ending in _s are per operation, times ending in _us are
    per call; a layer the workload never calls reads 0.  problemfile.parse_us
    covers every problem file parsed since install, set-up included, since
    the in-process workloads parse only while they set up.
    """
    def delta(name: str) -> Tuple[float, float, float]:
        b = before.get(name, [0, 0.0, 0.0])
        a = after.get(name, [0, 0.0, 0.0])
        return a[0] - b[0], a[1] - b[1], a[2] - b[2]

    def per_call_us(name: str) -> float:
        calls, _, self_time = delta(name)
        return 1e6 * self_time / calls if calls else 0.0

    out: Dict[str, Tuple[float, str]] = {}

    def count(metric: str, name: str) -> None:
        out[metric] = (delta(name)[0] / ops, "count")

    def self_s(metric: str, name: str) -> None:
        out[metric] = (delta(name)[2] / ops, "s")

    self_s("cli.main_s", "cli.main")
    parses = after.get("problemfile.parse", [0, 0.0, 0.0])
    builds = after.get("problemfile.build", [0, 0.0, 0.0])
    out["problemfile.parse_us"] = (
        1e6 * (parses[1] + builds[1]) / parses[0] if parses[0] else 0.0, "us")
    count("exprlang.coef_evals", "exprlang.coef")
    out["exprlang.coef_eval_us"] = (per_call_us("exprlang.coef"), "us")
    count("timefn.powerfn_calls", "timefn.powerfn")
    out["timefn.powerfn_us"] = (per_call_us("timefn.powerfn"), "us")
    count("numerics.rhs_evals", "numerics.rhs")
    out["numerics.rhs_us"] = (per_call_us("numerics.rhs"), "us")
    accepted = after["numerics.steps"][0] - before["numerics.steps"][0]
    rejected = after["numerics.steps"][1] - before["numerics.steps"][1]
    out["numerics.steps_accepted"] = (accepted / ops, "count")
    out["numerics.steps_rejected"] = (rejected / ops, "count")
    attempted = accepted + rejected
    out["numerics.accept_ratio"] = (accepted / attempted if attempted else 0.0, "ratio")
    integrate_self = delta("numerics.integrate")[2]
    out["numerics.integrate_s"] = (integrate_self / ops, "s")
    out["numerics.step_us"] = (1e6 * integrate_self / attempted if attempted else 0.0, "us")
    for direction in ("fwd", "bwd"):
        count(f"numerics.dense_{direction}_calls", f"numerics.dense_{direction}")
        out[f"numerics.dense_{direction}_us"] = (per_call_us(f"numerics.dense_{direction}"), "us")
    for short in ("quad", "antiderivative", "invert"):
        count(f"numerics.{short}_calls", f"numerics.{short}")
        self_s(f"numerics.{short}_s", f"numerics.{short}")
    self_s("gauge.kl_build_s", "gauge.kl_build")
    self_s("gauge.residual_s", "gauge.residual")
    self_s("gauge.reduce_s", "gauge.reduce")
    self_s("invariants.drift_s", "invariants.drift")
    self_s("invariants.conditioned_s", "invariants.conditioned")
    self_s("solutions.verify_s", "solutions.verify")
    self_s("vfields.verify_scheme_s", "vfields.verify_scheme")
    return out
