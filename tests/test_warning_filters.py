"""The pytest settings hold under -W error, the way tier-1 and CI run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILING = ROOT / "tests" / "data" / "failing_example.py"


def test_a_failing_hypothesis_example_is_one_failure_under_w_error(tmp_path):
    # run from a scratch directory, so Hypothesis keeps its example database there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider"]
    done = subprocess.run(
        argv + [str(FAILING)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in done.stdout, output
