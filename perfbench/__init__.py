"""Benchmark of the nahilb engine: seeded job workloads, end-to-end timings
and a per-module layer trace.  Run it with ``python3 perfbench/run.py``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Make ``import nahilb`` load the package under ``src/`` of this
    checkout, and refuse to run against any other copy."""
    if not (SRC / "nahilb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nahilb sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nahilb

    if Path(nahilb.__file__).resolve().parent != SRC / "nahilb":
        raise SystemExit(f"perfbench: nahilb was imported from "
                         f"{nahilb.__file__}, not from {SRC}")
