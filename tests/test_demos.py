"""The demos run to completion and report what they claim."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nahilb
from nahilb import cli

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first fenced block under the README heading, without the
    fence's language tag."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n")[1]
    return section.split("```")[1].split("\n", 1)[1]


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nahilb.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo.name == "two_methods.py":
        assert done.stdout.count("equal: True") == 4
        assert "equal: False" not in done.stdout


@pytest.mark.parametrize("line", [
    line for line in readme_block("Command line").splitlines()
    if line.startswith("nahilb ")])
def test_readme_command_line(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0
    json.loads(capsys.readouterr().out)


def test_readme_quick_start(capsys):
    # the block's assert ties the two methods together
    exec(readme_block("Quick start"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "6"
