"""Each demo prints exactly its recorded output.

The demos print exact values (digits of lifted roots, symbols, square
classes), so a change in any arithmetic kernel shows here as a byte
difference.  To record a new output after an intended change, run
``PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert DEMOS
    assert {d.stem for d in DEMOS} == {g.stem for g in (ROOT / "tests" / "golden" / "demos").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_byte_identical(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
