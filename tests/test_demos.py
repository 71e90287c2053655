"""The demos run to completion and report what they claim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nahilb

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
