"""Each demo runs as a script and prints exactly its recorded output.

The golden files under ``tests/data/demos/`` hold the demos' standard output.
After an intended change to a demo or to what it prints, rewrite its file with
``PYTHONPATH=src python demos/<name>.py > tests/data/demos/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "demos"


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / (demo.stem + ".txt")).read_bytes()
