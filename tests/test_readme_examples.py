"""Every ``emdenlab`` command in the README runs, passes, and prints the
pinned bytes.

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


# sha256 of each README command's stdout, and of the file it writes with
# --output; float results are pinned bit for bit, so a change that claims
# identical output must keep these
PINNED = {
    "emdenlab scheme-check": (
        "437384e339e91a47f964d7da7782577d6c7fcc38fa5c03f123a5bae9ff8611cd", None),
    "emdenlab integrate lane-emden-n5.spec --output traj.csv": (
        "640684eb41869a3c75f96a36a8018c412affdb183d7b727127134d31f7eb434d",
        "14d4578ef2a60a93f6236bbab96f8b5a4ea15c27aa6460fee570b9e20fa9cc44"),
    "emdenlab invariant lane-emden-n5.spec --method particular:lane_emden_n5": (
        "a9b7024666e36b471481f0ca584edc5f64dc0a20116a4b9db458d43975246c97", None),
    # the same bytes as the catalog route: the text profile differentiates exactly
    "emdenlab invariant lane-emden-n5.spec --method generic --solution '(2*t)^(-1/2)'": (
        "a9b7024666e36b471481f0ca584edc5f64dc0a20116a4b9db458d43975246c97", None),
    # the condition's range line is that of the gaps between b' and 2ab
    "emdenlab invariant plain.spec --method s7a": (
        "5ce69546ea6d93ce336975b90ed52a95efe87977028e6d0e49be1a568c14b7ae", None),
    "emdenlab invariant cube.spec --method s7b": (
        "84adef2c7e3b728d1128c39e344060948c638015b84d2ea06b815f16e07abbb8", None),
    "emdenlab kummer-liouville lane-emden-n5.spec": (
        "8b00de0ce6b6516ba561bdc8cf8b84660c8a74d82f0dc2f6f402dcfe6820e3f6", None),
    "emdenlab kummer-liouville damped.spec --gamma-init 1,-1": (
        "cb6f3407012bb3af3623ade8bf23336c5ab6f1d137788ef3d870bfadb76d2a3e", None),
    "emdenlab reduce lane-emden-n5.spec --solution '(2*t)^(-1/2)'": (
        "09a007c14600730d2ad502e3281ae1a45122e4000b04f68724908787476ce766", None),
    "emdenlab superpose --x1 '(1+t^2/3)^(-1/2)' --K 2 0.1,5": (
        "e17159a8a66d203ba0e011e1c8eb11bc9a4777b38be73540ebcc51b3ef753c74", None),
    "emdenlab construct --n 5 --K 1": (
        "54266cd150002c1c1113243f7a75ce713548d428a893ef77098afacd1525ceb3", None),
    "emdenlab catalog": (
        "85ed7f911d2797499be663e67963ac979bbdf001003090b08adc8e5da0ac89c9", None),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_every_readme_command_is_pinned():
    assert sorted(PINNED) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_output_is_pinned(command, capsys, tmp_path):
    assert main(readme_argv(command, tmp_path)) == 0
    out = capsys.readouterr().out
    written = [tmp_path / w for w in shlex.split(command) if w.endswith(".csv")]
    csv = sha256(written[0].read_bytes()) if written else None
    assert (sha256(out.encode("ascii")), csv) == PINNED[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_prints_its_pin_as_a_process(command, tmp_path):
    # the path a user takes: `python -m emdenlab` runs emdenlab.__main__.run,
    # which turns the collector off and freezes it before shutdown
    proc = subprocess.run(
        [sys.executable, "-m", "emdenlab", *readme_argv(command, tmp_path)],
        capture_output=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    written = [tmp_path / w for w in shlex.split(command) if w.endswith(".csv")]
    csv = sha256(written[0].read_bytes()) if written else None
    assert (sha256(proc.stdout), csv) == PINNED[command]


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
    assert sha256(out.encode("ascii")) == (
        "8812e6418650508fa9b822f9d00d2a31680c37c5e32150a6109fdbca01f7a945")


# a dataclass generates its methods with exec in every process that imports
# it, and `dataclasses` itself loads inspect, ast and dis, so the package's
# classes are plain.  These four stay dataclasses while
# perfbench/test_perfbench.py copies them with dataclasses.replace.
REPLACED_BY_THE_BENCHMARK = {
    "emdenlab.canonical.KummerLiouvilleReduction", "emdenlab.invariants.ConditionedInvariant",
    "emdenlab.invariants.DriftReport", "emdenlab.invariants.Invariant",
}


def loaded_after(argvs):
    """(modules, dataclasses) of a fresh interpreter that imports the CLI and
    runs it on each argv: every module it ran, and the names of the emdenlab
    classes declared with @dataclass.  A module registered to run on first
    use and not used yet is not a ModuleType; it is left out, unread, since
    reading it would run it."""
    script = (
        "import contextlib, io, json, sys, types\n"
        "from emdenlab import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            assert cli.main(argv) == 0, argv\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0, argv\n"
        "ran = {name: module for name, module in list(sys.modules.items())\n"
        "       if type(module) is types.ModuleType}\n"
        "records = [f'{name}.{key}' for name, module in ran.items()\n"
        "           if name.startswith('emdenlab') for key, value in vars(module).items()\n"
        "           if isinstance(value, type) and value.__module__ == name\n"
        "           and '__dataclass_fields__' in vars(value)]\n"
        "print(json.dumps([sorted(ran), records]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    modules, records = json.loads(proc.stdout)
    return set(modules), set(records)


def test_readme_commands_never_import_numpy(tmp_path):
    # numpy costs more start-up than the rest of the package; only .t, .y
    # and sample() of a Trajectory build arrays, and no subcommand reads them
    modules, _ = loaded_after([readme_argv(command, tmp_path) for command in COMMANDS])
    assert "numpy" not in modules


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_generates_no_class_code(command, tmp_path):
    modules, records = loaded_after([readme_argv(command, tmp_path)])
    assert records <= REPLACED_BY_THE_BENCHMARK
    if not records:
        assert not modules & {"dataclasses", "inspect"}


# start-up is most of a command's run, so each subcommand runs only the
# modules it uses; `emdenlab.cli` registers the scheme algebra to run on
# first use, and only scheme-check uses it
CLI_ONLY = {"emdenlab", "emdenlab.cli"}


@pytest.mark.parametrize("argv", [None, ["--help"]], ids=["import", "help"])
def test_the_cli_alone_runs_only_itself(argv):
    modules, _ = loaded_after([] if argv is None else [argv])
    assert {m for m in modules if m.startswith("emdenlab")} == CLI_ONLY
    assert "fractions" not in modules


@pytest.mark.parametrize("command", COMMANDS)
def test_only_scheme_check_runs_the_scheme_algebra(command, tmp_path):
    loaded, _ = loaded_after([readme_argv(command, tmp_path)])
    assert ("emdenlab.vfields" in loaded) == (command == "emdenlab scheme-check")


@pytest.mark.parametrize("command, never", [
    ("emdenlab integrate lane-emden-n5.spec --output traj.csv",
     {"emdenlab.gauge", "emdenlab.invariants", "emdenlab.solutions"}),
    ("emdenlab scheme-check",
     {"emdenlab.exprlang", "emdenlab.numerics", "emdenlab.problemfile", "emdenlab.timefn"}),
    # the conditioned invariants need no frames: s7a integrates nothing, s7b (A, G)
    ("emdenlab invariant plain.spec --method s7a", {"emdenlab.gauge", "emdenlab.solutions"}),
    ("emdenlab invariant cube.spec --method s7b", {"emdenlab.gauge", "emdenlab.solutions"}),
    # nothing integrates in these three, so the integrator is never compiled
    ("emdenlab reduce lane-emden-n5.spec --solution '(2*t)^(-1/2)'",
     {"emdenlab.numerics", "emdenlab.canonical", "dataclasses"}),
    ("emdenlab catalog", {"emdenlab.numerics"}),
    ("emdenlab construct --n 5 --K 1", {"emdenlab.numerics"}),
])
def test_command_never_loads_what_it_does_not_run(command, never, tmp_path):
    loaded, _ = loaded_after([readme_argv(command, tmp_path)])
    assert loaded >= CLI_ONLY
    assert not loaded & never


def test_a_scheme_algebra_imported_before_the_cli_is_the_one_it_runs():
    # registering the module for first use must not replace one already run:
    # two module objects would give two sets of class identities
    script = (
        "import contextlib, io, sys\n"
        "import emdenlab.vfields as first\n"
        "from emdenlab import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['scheme-check'])\n"
        "import emdenlab.vfields as after\n"
        "assert sys.modules['emdenlab.vfields'] is first is after\n"
        "sys.stdout.write(out.getvalue())\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert (sha256(proc.stdout.encode("ascii")), None) == PINNED["emdenlab scheme-check"]
