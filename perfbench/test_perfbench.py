"""Tests of the benchmark itself: inputs, checks, determinism, exit codes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks as ck  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 97)


def one_round(workload, seed, tmp_path):
    ops = workloads.build(workload, inputs.generate(workload, seed), tmp_path, run.SRC,
                          in_process_cli=True)
    return [(op, op.run()) for op in ops]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One checked round of every workload on seed 1."""
    out = {}
    for workload in inputs.WORKLOADS:
        out[workload] = one_round(workload, 1, tmp_path_factory.mktemp(workload))
        for op, result in out[workload]:
            op.check(result)
    return out


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.generate(workload, 5) == inputs.generate(workload, 5)
    assert inputs.generate(workload, 5) != inputs.generate(workload, 6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_operation_passes_on_seed(workload, seed, tmp_path):
    for op, result in one_round(workload, seed, tmp_path):
        op.check(result)


def test_subprocess_cli_matches_checks(tmp_path):
    ops = workloads.build("readme-cli", inputs.generate("readme-cli", 3), tmp_path, run.SRC)
    for op in ops:
        op.check(op.run())


def test_stratified_draws_cover_every_slice():
    import random
    draws = inputs.stratified(random.Random(0), 0.0, 1.0, 10)
    assert sorted(int(d * 10) for d in draws) == list(range(10))


# ---------------------------------------------------------------------------
# each check rejects a perturbed output


def rejects(op, result):
    with pytest.raises(ck.CheckFailed):
        op.check(result)


def scaled_report(report, index, factor):
    values = report.values.copy()
    values[index] *= factor
    return dataclasses.replace(report, values=values)


def test_drift_checks_reject_perturbations(outputs):
    for op, result in outputs["trajectory-drift"]:
        if op.kind.startswith("forward"):
            rejects(op, scaled_report(result, 100, 1 + 1e-4))
            rejects(op, dataclasses.replace(result, relative_drift=2e-6))
        elif op.kind.startswith("backward"):
            back, report = result
            moved = copy.copy(back)
            moved.y = back.y.copy()
            moved.y[-1, 0] *= 1 + 1e-5
            rejects(op, (moved, report))
            rejects(op, (back, scaled_report(report, 0, 1 + 1e-4)))
        else:
            states = result.copy()
            states[50, 1] *= 1 + 1e-5
            rejects(op, states)


def test_time_integral_checks_reject_perturbations(outputs):
    for op, result in outputs["time-integrals"]:
        if op.kind.startswith("kummer-liouville"):
            kl, residual = result
            rejects(op, (kl, 2e-6))
            for field in ("gamma", "beta", "tau", "coefficient"):
                fn = getattr(kl, field)
                bent = dataclasses.replace(kl, **{field: lambda t, fn=fn: fn(t) * (1 + 1e-6)})
                rejects(op, (bent, residual))
            rejects(op, (dataclasses.replace(kl, truncated=True), residual))
        else:
            cond, *rest = result
            rejects(op, (dataclasses.replace(cond, constant=cond.constant * (1 + 1e-6)), *rest))
            rejects(op, (dataclasses.replace(cond, passed=False), *rest))
            inv = cond.invariant
            bent = dataclasses.replace(
                inv, evaluator=lambda t, x, v: inv(t, x, v) + 1e-6 * (t - 0.5))
            rejects(op, (dataclasses.replace(cond, invariant=bent), *rest))
            rejects(op, (cond, *rest[:-1], scaled_report(rest[-1], 150, 1 + 1e-4)))


def perturb_numbers(text, row_header):
    """Scale the last number of the middle CSV row by 1.001."""
    lines = text.splitlines()
    start = lines.index(row_header) + 1
    end = start
    while end < len(lines) and (lines[end][:1].isdigit() or lines[end][:1] == "-"):
        end += 1
    mid = (start + end) // 2
    cells = lines[mid].split(",")
    cells[-1] = repr(float(cells[-1]) * 1.001)
    lines[mid] = ",".join(cells)
    return "\n".join(lines) + "\n"


EDITS = {
    "scheme-check": lambda out: out.replace("= n*x^n*d/dv", "= x^n*d/dv"),
    "integrate": lambda out: perturb_numbers(out, "t,x,v"),
    "invariant-particular": lambda out: perturb_numbers(out, "t,I"),
    "invariant-generic": lambda out: perturb_numbers(out, "t,I"),
    "invariant-s7a": lambda out: perturb_numbers(out, "t,I"),
    "invariant-s7b": lambda out: perturb_numbers(out, "t,I"),
    "reduce": lambda out: out.replace("c12=1", "c12=2"),
    "superpose": lambda out: perturb_numbers(out, "t,x1,x0"),
    "construct": lambda out: out.replace("\nx0 = ", "\nx0 = 1"),
    "catalog": lambda out: out.replace("id: cube_root_n7", "id: cube_root"),
}


def test_cli_checks_reject_perturbations(outputs):
    for op, (code, out) in outputs["readme-cli"]:
        rejects(op, (1, out))
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        rejects(op, (code, out.replace(last, last.replace("PASS", "FAIL"))))
        edited = EDITS[op.kind](out)
        assert edited != out, op.kind
        rejects(op, (code, edited))


# ---------------------------------------------------------------------------
# the command


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["trajectory-drift", "time-integrals"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        runs.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["numerics.rhs_evals"] > 0


def test_untraced_result_line():
    proc = bench("--workload", "trajectory-drift", "--seed", "2", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % len(inputs.generate("trajectory-drift", 2)) == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "trajectory-drift", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_source_lines_skip_blanks_and_comments(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n    # indented note\ny = 2  # trailing\n")
    assert run.source_lines(tmp_path) == 2
