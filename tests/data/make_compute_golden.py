"""Write ``compute_golden.json``: sha256 digests of compute built-ins.

The file maps each command line ``compute --n N --coeff C --format F
--orientation O EXPR`` to the sha256 of its standard output, for

* the correspondences ``theta i`` and ``alpha i``: n = 3..7, every valid i
  (1..d), ``--coeff z|z2``, ``--format text|json`` and, at even n,
  ``--orientation plus|minus``;
* the classes ``z i j`` and ``w i j`` on the two top grassmannians, which
  print Schubert windows on split and connected spaces: n = 4, 6, 8,
  i = d - 1 and d, ``--coeff z``, both formats and both orientations; j runs
  over n - i - d..n - i for Z (the l_b range) and 0..n - i for W.

Each command runs in a fresh interpreter.  ``--coeff z2`` prints the
integer class reduced once by ``mod2()``; the digests were recorded when each
builtin still built its mod-2 class in Z/2 step by step, and reduction is a
ring map, so both routes print alike.

    PYTHONPATH=src python tests/data/make_compute_golden.py [OUT]

The output is deterministic; ``tests/test_compute_golden.py`` reruns every
command in-process and compares digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent
NS = range(3, 8)
FLAG_NS = (4, 6, 8)


def _orientations(n: int) -> list[str]:
    return ["plus", "minus"] if n % 2 == 0 else ["plus"]


def _argv(n: int, coeff: str, fmt: str, orientation: str, expr: str) -> list[str]:
    return [
        "compute", "--n", str(n), "--coeff", coeff,
        "--format", fmt, "--orientation", orientation, expr,
    ]


def flag_expressions(n: int) -> list[str]:
    """``z i j`` and ``w i j`` for i = d - 1, d and every j named above."""
    d = n // 2
    out = []
    for i in (d - 1, d):
        out += ["z %d %d" % (i, j) for j in range(n - i - d, n - i + 1)]
        out += ["w %d %d" % (i, j) for j in range(0, n - i + 1)]
    return out


def commands() -> list[list[str]]:
    out = []
    for n in NS:
        for orientation in _orientations(n):
            for i in range(1, n // 2 + 1):
                for name in ("theta", "alpha"):
                    for coeff in ("z", "z2"):
                        for fmt in ("text", "json"):
                            out.append(_argv(n, coeff, fmt, orientation, "%s %d" % (name, i)))
    for n in FLAG_NS:
        for orientation in _orientations(n):
            for expr in flag_expressions(n):
                for fmt in ("text", "json"):
                    out.append(_argv(n, "z", fmt, orientation, expr))
    return out


def key(argv: list[str]) -> str:
    return " ".join(argv)


def main(out_path: pathlib.Path) -> None:
    table = {}
    for argv in commands():
        done = subprocess.run(
            [sys.executable, "-m", "quadchow.cli", *argv],
            env=dict(os.environ),
            capture_output=True,
            check=True,
            timeout=600,
        )
        table[key(argv)] = hashlib.sha256(done.stdout).hexdigest()
    out_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "compute_golden.json")
