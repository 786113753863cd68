"""Every ``emdenlab`` command in the README runs and passes.

The README's problem file is taken from the README itself; the ``plain``,
``cube`` and ``damped`` files it names are the test suite's specs of the
same names.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from emdenlab.cli import main

from test_cli import INVERSE_CUBE, KL_GENERALIZED, PLAIN_CUBIC

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(?:sh)?\n(.*?)```", README, flags=re.S)
README_SPEC = next(b for b in BLOCKS if b.startswith("# lane-emden-n5.spec"))
COMMANDS = [
    shlex.join(shlex.split(line, comments=True))
    for block in BLOCKS
    for line in block.splitlines()
    if line.startswith("emdenlab ")
]
SPECS = {
    "lane-emden-n5.spec": README_SPEC,
    "plain.spec": PLAIN_CUBIC,
    "cube.spec": INVERSE_CUBE,
    "damped.spec": KL_GENERALIZED,
}


def test_readme_lists_every_subcommand():
    named = {shlex.split(c)[1] for c in COMMANDS}
    assert named == {
        "scheme-check", "integrate", "invariant", "kummer-liouville", "reduce",
        "superpose", "construct", "catalog",
    }


def readme_argv(command, tmp_path):
    """The command's arguments, its files written to or placed in tmp_path."""
    argv = []
    for word in shlex.split(command)[1:]:
        if word in SPECS:
            path = tmp_path / word
            path.write_text(SPECS[word])
            word = str(path)
        elif word.endswith(".csv"):
            word = str(tmp_path / word)
        argv.append(word)
    return argv


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_passes(command, capsys, tmp_path):
    code = main(readme_argv(command, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1].startswith("VERDICT: PASS")


def test_integrate_csv_bytes_are_pinned(capsys, tmp_path):
    # the integrator sums in a fixed order in plain floats, so these bytes
    # do not depend on the host's BLAS build
    path = tmp_path / "lane-emden-n5.spec"
    path.write_text(README_SPEC)
    assert main(["integrate", str(path)]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[1:-1]
    assert len(rows) == 201
    assert rows[0] == "0.5,1.3,-0.20000000000000001"
    assert rows[99] == "2.7275,0.38096961264310764,-0.17382481336371861"
    assert rows[-1] == "5,0.16128273063971535,-0.053319544383505633"
    assert out.endswith("VERDICT: PASS steps=115\n")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "8812e6418650508fa9b822f9d00d2a31680c37c5e32150a6109fdbca01f7a945")


def test_readme_commands_never_import_numpy(tmp_path):
    # numpy costs more start-up than the rest of the package; only .t, .y
    # and sample() of a Trajectory build arrays, and no subcommand reads them
    runs = [readme_argv(command, tmp_path) for command in COMMANDS]
    script = (
        "import contextlib, io, json, sys\n"
        "from emdenlab import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
