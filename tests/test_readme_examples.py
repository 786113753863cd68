"""Every ``emdenlab`` command in the README runs and passes.

The README's problem file is taken from the README itself; the ``plain``,
``cube`` and ``damped`` files it names are the test suite's specs of the
same names.
"""

import re
import shlex
from pathlib import Path

import pytest

from emdenlab.cli import main

from test_cli import INVERSE_CUBE, KL_GENERALIZED, PLAIN_CUBIC

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
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


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_passes(command, capsys, tmp_path):
    argv = []
    for word in shlex.split(command)[1:]:
        if word in SPECS:
            path = tmp_path / word
            path.write_text(SPECS[word])
            word = str(path)
        elif word.endswith(".csv"):
            word = str(tmp_path / word)
        argv.append(word)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1].startswith("VERDICT: PASS")
