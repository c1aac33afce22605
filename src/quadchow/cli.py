"""Command-line front end: compute cycle expressions, run verification suites,
and operate the invariant-square tool.

Exit codes encode the failure class so CI can tell them apart: 0 success,
1 at least one identity check failed, 2 usage/parse/schema error, 3 range
error.  ``verify`` runs every supported n; its --deep flag turns on
per-case progress reporting on stderr (text format).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from quadchow import bridge, edi, quadpow, suites
from quadchow.quadpow import QuadCycle, format_cycle, parse_cycle, quad_context
from quadchow.schubert import FlagCycle, build_geometry
from quadchow.weyl import RangeError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

ORIENTATIONS = {"plus": 1, "minus": -1}

# the named constructors of `compute`, each with the number of integer indices it takes
BUILTINS = {"delta": 1, "rho": 1, "rost": 0, "z": 2, "w": 2, "theta": 1, "alpha": 1}


def _classify_value_error(exc: ValueError) -> int:
    return EXIT_RANGE if isinstance(exc, RangeError) else EXIT_USAGE


# -- compute -----------------------------------------------------------------------


def _signature(name: str) -> str:
    """How a builtin is written: its name, then one letter per index."""
    return " ".join([name, *"ij"[: BUILTINS[name]]])


def _builtin_cycle(name: str, args: list[str], n: int, p: int):
    """The class the builtin ``name`` gives for the indices ``args``."""
    if len(args) != BUILTINS[name]:
        raise ValueError("wrong number of indices (expected: %s)" % _signature(name))
    try:
        idx = [int(a) for a in args]
    except ValueError:
        raise ValueError("indices must be integers") from None
    ctx = quad_context(n)
    if name == "delta":
        return quadpow.delta_i(ctx, idx[0], p)
    if name == "rho":
        return quadpow.rho_i(ctx, idx[0], p)
    if name == "rost":
        return quadpow.rost(ctx, p).cycle
    model = build_geometry(n)
    if name == "theta":
        return bridge.theta(model, idx[0], p)
    if name == "alpha":
        return bridge.alpha(model, idx[0], p).cycle
    out = (model.class_Z if name == "z" else model.class_W)(idx[0], idx[1], p)
    if out.I == frozenset([0]):
        return bridge.flag_cycle_to_quad(model, out)
    return out


def _sheets_json(x, terms) -> dict:
    """The JSON form of a class on F(I) or on F(I) x X^m: the (sheet, term)
    pairs of ``terms`` listed per sheet, sorted by window and then monomial."""
    sheets: list[list] = [[] for _ in range(x.model.sheets(x.I))]
    for k, term in terms:
        sheets[k].append(term)
    return {
        "sheets": [
            sorted(part, key=lambda t: (t["window"], t.get("monomial", [])))
            for part in sheets
        ],
        "mod": 2 if x.p == 2 else 0,
    }


def _format_flag(x: FlagCycle, fmt: str, orientation: int):
    if fmt == "json":
        elements = x.model.group.elements
        return _sheets_json(
            x,
            ((k, {"coeff": c, "window": list(elements[w])})
             for (k, w), c in x.model.printed(x.coeffs, orientation).items()),
        )
    return x.render(orientation)


def _format_mixed(x, fmt: str, orientation: int):
    names = quadpow._symbol_names(mono for _, _, mono in x.coeffs)
    elements = x.model.group.elements
    coeffs = x.model.printed(x.coeffs, orientation)
    if fmt == "json":
        return _sheets_json(
            x,
            ((k, {"coeff": c, "window": list(elements[w]),
                  "monomial": [names[s] for s in mono]})
             for (k, w, mono), c in coeffs.items()),
        )
    lines = [
        "sheet%d: %d S%s (x) %s" % (k, c, window, " x ".join([names[s] for s in mono]))
        for (k, window, mono), c in sorted(
            ((k, elements[w], mono), c) for (k, w, mono), c in coeffs.items()
        )
    ]
    return "\n".join(lines) if lines else "0"


def _format_quad(x: QuadCycle, fmt: str):
    if fmt == "json":
        names = quadpow._symbol_names(x.coeffs)
        return {
            "terms": sorted(
                [
                    {"coeff": c, "monomial": [names[s] for s in mono]}
                    for mono, c in x.coeffs.items()
                ],
                key=lambda t: t["monomial"],
            ),
            "mod": 2 if x.p == 2 else 0,
        }
    return format_cycle(x)


def cmd_compute(args) -> int:
    orientation = ORIENTATIONS[args.orientation]
    p = 2 if args.coeff == "z2" else 0
    tokens = args.expr.split()
    head = tokens[0].lower() if tokens else ""
    try:
        if head in BUILTINS:
            out = _builtin_cycle(head, tokens[1:], args.n, p)
        else:
            out = parse_cycle(quad_context(args.n), args.expr.strip())
            if p == 2:
                out = out.mod2()
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify_value_error(exc)
    if isinstance(out, QuadCycle):
        rendered = _format_quad(out, args.format)
    elif isinstance(out, FlagCycle):
        rendered = _format_flag(out, args.format, orientation)
    else:
        rendered = _format_mixed(out, args.format, orientation)
    if args.format == "json":
        print(json.dumps(rendered, sort_keys=True))
    else:
        print(rendered)
    return EXIT_OK


# -- verify -------------------------------------------------------------------------


def _print_progress(case) -> None:
    print(
        "  .. %s %s %s" % (case.status.upper(), case.id, case.params),
        file=sys.stderr,
        flush=True,
    )


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = suites.suite_names()
    elif args.suite in suites.SUITES:
        names = [args.suite]
    else:
        print("error: unknown suite %r (try: %s, all)" % (
            args.suite, ", ".join(suites.suite_names())), file=sys.stderr)
        return EXIT_USAGE
    orientation = ORIENTATIONS[args.orientation]
    progress = _print_progress if args.deep and args.format == "text" else None
    try:
        outcomes = [
            (name, suites.run_suite(name, args.n, orientation, args.seed, progress=progress))
            for name in names
        ]
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify_value_error(exc)
    all_ok = True
    reports = []
    for name, results in outcomes:
        ok = all(c.ok for c in results)
        all_ok = all_ok and ok
        if args.format == "json":
            reports.append(
                {
                    "suite": name,
                    "n": args.n,
                    # not dataclasses.asdict, which deep-copies every params dict
                    "cases": [
                        {"id": c.id, "params": c.params, "status": c.status,
                         "lhs": c.lhs, "rhs": c.rhs}
                        for c in results
                    ],
                }
            )
        else:
            for c in results:
                print("%s %s %s %s" % (c.status.upper(), name, c.id, json.dumps(c.params)))
            print(
                "suite %s: %d/%d cases passed"
                % (name, sum(c.ok for c in results), len(results))
            )
    if args.format == "json":
        payload = reports[0] if len(reports) == 1 else reports
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if all_ok else EXIT_FAIL


# -- edi ---------------------------------------------------------------------------


def cmd_edi(args) -> int:
    if args.input and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    else:
        raw = sys.stdin.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        print("error: invalid JSON: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        out = edi.run_edi_json(data)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify_value_error(exc)
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        print(out["ascii"])
        if out["inconsistencies"]:
            print("inconsistent nodes: %s" % out["inconsistencies"])
    return EXIT_OK


# -- wiring -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadchow",
        description="Exact Chow-ring calculus for split quadrics and their flag varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def quadric_options(p):
        p.add_argument("--n", type=int, required=True, help="quadric dimension")
        p.add_argument("--orientation", choices=ORIENTATIONS, default="plus")
        p.add_argument("--format", choices=["text", "json"], default="text")

    pc = sub.add_parser("compute", help="evaluate a cycle expression or builtin")
    quadric_options(pc)
    pc.add_argument("--coeff", choices=["z", "z2"], default="z")
    pc.add_argument("expr", help="cycle grammar or builtin (%s)" % ", ".join(
        map(_signature, BUILTINS)))
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run a verification suite")
    quadric_options(pv)
    pv.add_argument("--deep", action="store_true",
                    help="print each case's status on stderr as it runs (text format)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("suite", help="suite name or 'all' (%s)" % ", ".join(suites.suite_names()))
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("edi", help="propagate and render an invariant square")
    pe.add_argument("--input", default="-", help="JSON file (default: stdin)")
    pe.add_argument("--format", choices=["text", "json"], default="json")
    pe.set_defaults(func=cmd_edi)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs about ten parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
