"""Record the compute-session reference table: the SHA-256 of the standard
output of every request in the fixed universe.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/record_reference.py

The table is keyed by ``n|coeff|format|expression``.  Every request in the
universe must exit 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from workloads import REFERENCE, digest, universe


def main() -> int:
    from quadchow import cli

    table = {}
    for req in universe():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(req.argv())
        out = buf.getvalue()
        if rc != 0:
            print("unusable reference request %s (exit %d)" % (req.key, rc), file=sys.stderr)
            return 1
        table[req.key] = digest(out)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("%d reference responses written to %s" % (len(table), REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
