"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload trajectory-drift --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's operations until --seconds have passed;
each operation starts only after the previous one finished and its result
was checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 they are the per-layer ones: the run first measures a third of its
time untraced, then installs the tracer, rebuilds the inputs and measures
the rest traced.  Result records and span files go to perfbench/out/.

End-to-end times are given at a reference host speed.  On a shared machine
the host's speed drifts by tens of percent over minutes, CPU time included,
so the run times a fixed pure-Python probe loop after every operation and
scales its times by PROBE_REFERENCE_S / (median probe time of the run).
The record keeps the unscaled values next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
PROBE_LOOPS = 10_000
# about the median probe time in the runs behind README.md's figures
PROBE_REFERENCE_S = 0.87e-3


class HostSpeed:
    """Probe times of one run; their median gives the run's speed scale."""

    def __init__(self):
        self.probes = []

    def probe(self) -> None:
        start = perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += i * 0.5
        self.probes.append(perf_counter() - start)

    def scale(self) -> float:
        """Factor that takes this run's seconds to reference-speed seconds."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def source_lines(package: Path) -> int:
    """Non-blank lines of Python under package that are not only a comment."""
    total = 0
    for path in sorted(package.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            body = line.strip()
            if body and not body.startswith("#"):
                total += 1
    return total


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def timed_child(argv) -> float:
    start = perf_counter()
    subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=60)
    return perf_counter() - start


def setup_seconds(workload: str, seed: int, speed: HostSpeed) -> float:
    """Median set-up time over fresh interpreters, unscaled.

    readme-cli: wall time of a fresh interpreter importing emdenlab.cli.
    Otherwise: time, inside a fresh interpreter, to import the package and
    build the workload's operations.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        if workload == "readme-cli":
            samples.append(timed_child([sys.executable, "-c", "import emdenlab.cli"]))
        else:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--probe-setup"],
                env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, check=True,
                text=True, timeout=120).stdout
            samples.append(float(out.split()[-1]))
        speed.probe()
    return statistics.median(samples)


def import_times() -> tuple:
    """(numpy, emdenlab) cumulative import seconds from -X importtime."""
    numpy_s, emdenlab_s = [], []
    for _ in range(3):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import emdenlab.cli"],
                             env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, check=True, timeout=60).stderr
        top, numpy = 0, 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
            if name == "numpy":
                numpy = cumulative
            if indent == 1 and name.split(".")[0] == "emdenlab":
                top += cumulative
        numpy_s.append(numpy / 1e6)
        emdenlab_s.append((top - numpy) / 1e6)
    return statistics.median(numpy_s), statistics.median(emdenlab_s)


class Loop:
    """Closed loop over whole rounds; records op times and failures.

    Peak memory is read once the first round ends: the program keeps each
    quadrature's garbage until a full collection, so resident memory keeps
    climbing round after round and a later reading would measure the run's
    length.
    """

    def __init__(self, speed: HostSpeed, children: bool = False):
        self.speed = speed
        self.children = children
        self.first_round_rss_mb = None
        self.times = []
        self.samples = []          # (round, kind, seconds) for the result record
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def run(self, ops, seconds: float) -> None:
        start = perf_counter()
        round_index = 0
        while True:
            round_index += 1
            for op in ops:
                self.attempted += 1
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.failed += 1
                    print(f"failed {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                elapsed = perf_counter() - t0
                self.speed.probe()
                self.times.append(elapsed)
                self.samples.append((round_index, op.kind, elapsed))
                try:
                    op.check(result)
                except checks.CheckFailed as exc:
                    self.wrong.append(f"{op.kind}: {exc}")
                    print(f"wrong {op.kind}: {exc}", file=sys.stderr)
            if self.first_round_rss_mb is None:
                self.first_round_rss_mb = peak_rss_mb(self.children)
            if perf_counter() - start >= seconds:
                return

    def ops_per_s(self) -> float:
        """Unscaled operations per second of operation time."""
        return len(self.times) / sum(self.times)


def build_ops(workload: str, seed: int, workdir: Path, in_process_cli: bool):
    import workloads
    return workloads.build(workload, inputs.generate(workload, seed), workdir, SRC, in_process_cli)


def warm(workload: str, ops) -> None:
    """Let lazy imports and caches settle; not timed, not checked."""
    if workload == "time-integrals":
        ops = [op for op in ops if op.kind.startswith("rescaled-energy")]
    elif workload == "readme-cli":
        ops = ops[-1:]
    for op in ops:
        op.run()


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    speed = HostSpeed()
    setup = setup_seconds(workload, seed, speed)
    ops = build_ops(workload, seed, workdir, in_process_cli=False)
    warm(workload, ops)
    loop = Loop(speed, children=workload == "readme-cli")
    loop.run(ops, seconds)
    unscaled = {
        "setup_s": setup,
        "op_p50_s": statistics.median(loop.times),
        "ops_per_s": loop.ops_per_s(),
    }
    scale = speed.scale()
    metrics = {
        "setup_s": (setup * scale, "s"),
        "op_p50_s": (unscaled["op_p50_s"] * scale, "s"),
        "ops_per_s": (unscaled["ops_per_s"] / scale, "1/s"),
        "peak_rss_mb": (loop.first_round_rss_mb, "MB"),
        "src_lines": (float(source_lines(SRC / "emdenlab")), "lines"),
    }
    extra = {"unscaled": unscaled, "probe_median_s": statistics.median(speed.probes),
             "peak_rss_mb_whole_run": peak_rss_mb(loop.children)}
    return loop, metrics, extra, None


def traced(workload: str, seed: int, seconds: float, workdir: Path):
    import tracing
    import workloads

    interpreter = statistics.median(
        timed_child([sys.executable, "-c", "pass"]) for _ in range(STARTUP_SAMPLES))
    numpy_s, emdenlab_s = import_times()

    speed = HostSpeed()
    plain = build_ops(workload, seed, workdir, in_process_cli=True)
    warm(workload, plain)
    untraced = Loop(speed)
    untraced.run(plain, seconds / 3.0)

    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    ops = build_ops(workload, seed, workdir, in_process_cli=True)
    before = tracer.snapshot()
    loop = Loop(speed)
    loop.run(ops, seconds - seconds / 3.0)
    after = tracer.snapshot()
    tracer.uninstall()

    metrics = {
        "startup.interpreter_s": (interpreter, "s"),
        "startup.import_numpy_s": (numpy_s, "s"),
        "startup.import_emdenlab_s": (emdenlab_s, "s"),
    }
    metrics.update(tracing.layer_metrics(before, after, len(loop.times)))
    metrics["trace.overhead_ratio"] = (untraced.ops_per_s() / loop.ops_per_s(), "ratio")

    merged = Loop(speed)
    merged.attempted = untraced.attempted + loop.attempted
    merged.failed = untraced.failed + loop.failed
    merged.wrong = untraced.wrong + loop.wrong
    merged.samples = untraced.samples + loop.samples
    return merged, metrics, {}, tracer


def probe_setup(workload: str, seed: int) -> None:
    """Print the seconds this fresh interpreter needs to import and build."""
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        build_ops(workload, seed, Path(tmp), in_process_cli=False)
        print(perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "emdenlab" / "__init__.py").is_file():
        print(f"error: no emdenlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    # one CPU for this process and its children, so that the speed probe
    # runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        measure = traced if args.trace else end_to_end
        loop, metrics, extra, tracer = measure(args.workload, args.seed, args.seconds, Path(tmp))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{tag}.csv")
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  wrong=loop.wrong, samples=loop.samples, **extra)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
