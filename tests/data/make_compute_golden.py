"""Write ``compute_golden.json``: sha256 digests of the correspondence built-ins.

For n = 3..7, every valid i (1..d), ``--coeff z|z2``, ``--format text|json``
and, at even n, ``--orientation plus|minus``, the file maps the command line
``compute --n N --coeff C --format F --orientation O "theta|alpha i"`` to the
sha256 of its standard output.  Each command runs in a fresh interpreter.

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


def commands() -> list[list[str]]:
    out = []
    for n in NS:
        orientations = ["plus", "minus"] if n % 2 == 0 else ["plus"]
        for orientation in orientations:
            for i in range(1, n // 2 + 1):
                for name in ("theta", "alpha"):
                    for coeff in ("z", "z2"):
                        for fmt in ("text", "json"):
                            out.append([
                                "compute", "--n", str(n), "--coeff", coeff,
                                "--format", fmt, "--orientation", orientation,
                                "%s %d" % (name, i),
                            ])
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
