"""Every demo script runs to completion and prints what it printed when pinned.

Demos are users of the public API; `scheme_tour.py` in particular prints
`decompose` results that no CLI pin covers, so each demo's stdout is pinned
by its sha256.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "canonical_form.py": "996b9e7874081b26836f29289f66e65b1573080194bd1376c009b6e179dfa00e",
    "design_your_own.py": "c73a48b3123857558eb254a57fe3ac7d991dc3cf36a49f2c5f3ada288675dc82",
    "invariant_drift.py": "0ea3148a21e27f4e0db7743a90c48a60ec27f930d6e1377583eebe575a3b854f",
    "scheme_tour.py": "f164cf37605eca4ef6b9142d6eb73acc44704719fa15a0e2a6ee9ef0b1c2fcfb",
    "superposition.py": "54d2859247c91dd090852b05d6e4e6f88b3bb329f96c124f698b17b636afc0f4",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [p.name for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_does_not_import_numpy(script):
    # numerics.linspace gives numpy.linspace's floats, bit for bit
    tree = ast.parse(script.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.partition(".")[0] == "numpy"] == []


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    out, err = proc.stdout.decode(), proc.stderr.decode()
    assert proc.returncode == 0, err
    assert "Traceback" not in out + err
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name], out
