"""Command-line front end: compute cycle expressions, run verification suites,
and operate the invariant-square tool.

Exit codes encode the failure class so CI can tell them apart: 0 success,
1 at least one identity check failed, 2 usage/parse/schema error, 3 range
error.  Heavy flag-variety suites (n >= 7) sit behind --deep, which also
turns on per-case progress reporting on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from quadchow import bridge, edi, quadpow, suites
from quadchow.quadpow import QuadCycle, format_cycle, parse_cycle, quad_context
from quadchow.schubert import UnionCycle, build_geometry
from quadchow.weyl import RangeError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

DEEP_THRESHOLD = 7


@dataclass
class RunConfig:
    n: int
    coeff: str = "z"
    orientation: int = 1
    fmt: str = "text"
    deep: bool = False
    seed: int = 0

    @property
    def p(self) -> int:
        return 2 if self.coeff == "z2" else 0


class UsageError(Exception):
    pass


def _classify_value_error(exc: ValueError) -> int:
    return EXIT_RANGE if isinstance(exc, RangeError) else EXIT_USAGE


# -- compute -----------------------------------------------------------------------


def _builtin_cycle(expr: str, cfg: RunConfig):
    """Named constructors: delta i, rho i, rost, Z i j, W i j, theta i, alpha i."""
    tokens = expr.split()
    name = tokens[0].lower()
    args = tokens[1:]
    if name in ("delta", "rho", "theta", "alpha") and len(args) != 1:
        raise UsageError("%s takes one index" % name)
    if name in ("z", "w") and len(args) != 2:
        raise UsageError("%s takes two indices" % name.upper())
    if name == "rost" and args:
        raise UsageError("rost takes no arguments")
    try:
        idx = [int(a) for a in args]
    except ValueError:
        raise UsageError("indices must be integers") from None
    ctx = quad_context(cfg.n, cfg.orientation)
    if name == "delta":
        return quadpow.delta_i(ctx, idx[0], cfg.p)
    if name == "rho":
        return quadpow.rho_i(ctx, idx[0], cfg.p)
    if name == "rost":
        return quadpow.rost(ctx, cfg.p).cycle
    geometry = build_geometry(cfg.n, cfg.orientation)
    if name == "z":
        out = geometry.class_Z(idx[0], idx[1], cfg.p)
    elif name == "w":
        out = geometry.class_W(idx[0], idx[1], cfg.p)
    elif name == "theta":
        return bridge.theta(geometry, idx[0], cfg.p)
    elif name == "alpha":
        return bridge.alpha(geometry, idx[0], cfg.p).cycle
    else:
        raise UsageError("unknown builtin %r" % name)
    if out.I == frozenset([0]):
        return bridge.flag_cycle_to_quad(geometry, out)
    return out


BUILTIN_HEADS = {"delta", "rho", "rost", "z", "w", "theta", "alpha"}


def _format_union(x: UnionCycle, fmt: str):
    if fmt == "json":
        return {
            "sheets": [
                sorted(
                    [{"coeff": c, "window": list(w.window)} for w, c in part.coeffs.items()],
                    key=lambda t: t["window"],
                )
                for part in x.parts
            ],
            "mod": 2 if x.parts[0].p == 2 else 0,
        }
    return repr(x)


def _format_mixed(x, fmt: str):
    if fmt == "json":
        return {
            "sheets": [
                sorted(
                    [
                        {
                            "coeff": c,
                            "window": list(w.window),
                            "monomial": [quadpow._format_symbol(s) for s in mono],
                        }
                        for (w, mono), c in part.items()
                    ],
                    key=lambda t: (t["window"], t["monomial"]),
                )
                for part in x.parts
            ],
            "mod": 2 if x.p == 2 else 0,
        }
    lines = []
    for k, part in enumerate(x.parts):
        for (w, mono), c in sorted(
            part.items(), key=lambda t: (t[0][0].window, t[0][1])
        ):
            body = " x ".join(quadpow._format_symbol(s) for s in mono)
            lines.append("sheet%d: %d S%s (x) %s" % (k, c, w.window, body))
    return "\n".join(lines) if lines else "0"


def _format_quad(x: QuadCycle, fmt: str):
    if fmt == "json":
        return {
            "terms": sorted(
                [
                    {
                        "coeff": c,
                        "monomial": [quadpow._format_symbol(s) for s in mono],
                    }
                    for mono, c in x.coeffs.items()
                ],
                key=lambda t: t["monomial"],
            ),
            "mod": 2 if x.p == 2 else 0,
        }
    return format_cycle(x)


def cmd_compute(args) -> int:
    cfg = _config(args)
    expr = args.expr.strip()
    try:
        head = expr.split()[0].lower() if expr.split() else ""
        if head in BUILTIN_HEADS:
            out = _builtin_cycle(expr, cfg)
        else:
            ctx = quad_context(cfg.n, cfg.orientation)
            out = parse_cycle(ctx, expr)
            if cfg.p == 2:
                out = out.mod2()
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify_value_error(exc)
    if isinstance(out, QuadCycle):
        rendered = _format_quad(out, cfg.fmt)
    elif isinstance(out, UnionCycle):
        rendered = _format_union(out, cfg.fmt)
    else:
        rendered = _format_mixed(out, cfg.fmt)
    if cfg.fmt == "json":
        print(json.dumps(rendered, sort_keys=True))
    else:
        print(rendered)
    return EXIT_OK


# -- verify -------------------------------------------------------------------------


def _run_one_suite(name: str, cfg: RunConfig):
    progress = None
    if cfg.deep and cfg.fmt == "text":

        def progress(case):
            print(
                "  .. %s %s %s" % (case.status.upper(), case.id, case.params),
                file=sys.stderr,
                flush=True,
            )

    return suites.run_suite(name, cfg.n, cfg.orientation, cfg.seed, progress=progress)


def cmd_verify(args) -> int:
    cfg = _config(args)
    names = suites.suite_names() if args.suite == "all" else [args.suite]
    for name in names:
        if name not in suites.SUITES:
            print("error: unknown suite %r (try: %s, all)" % (
                name, ", ".join(suites.suite_names())), file=sys.stderr)
            return EXIT_USAGE
    heavy = [s for s in names if s not in suites.QUADPOW_ONLY]
    if cfg.n >= DEEP_THRESHOLD and heavy and not cfg.deep:
        print(
            "error: n >= %d runs of flag-variety suites need --deep" % DEEP_THRESHOLD,
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        outcomes = [(name, _run_one_suite(name, cfg)) for name in names]
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify_value_error(exc)
    all_ok = True
    reports = []
    for name, results in outcomes:
        ok = all(c.ok for c in results)
        all_ok = all_ok and ok
        if cfg.fmt == "json":
            reports.append(
                {
                    "suite": name,
                    "n": cfg.n,
                    "cases": [
                        {
                            "id": c.id,
                            "params": c.params,
                            "status": c.status,
                            "lhs": c.lhs,
                            "rhs": c.rhs,
                        }
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
    if cfg.fmt == "json":
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


def _config(args) -> RunConfig:
    return RunConfig(
        n=args.n,
        coeff=args.coeff,
        orientation=1 if args.orientation == "plus" else -1,
        fmt=args.format,
        deep=args.deep,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadchow",
        description="Exact Chow-ring calculus for split quadrics and their flag varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="quadric dimension")
        p.add_argument("--coeff", choices=["z", "z2"], default="z")
        p.add_argument("--orientation", choices=["plus", "minus"], default="plus")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--deep", action="store_true", help="allow n >= 7 suites")
        p.add_argument("--seed", type=int, default=0)

    pc = sub.add_parser("compute", help="evaluate a cycle expression or builtin")
    common(pc)
    pc.add_argument("expr", help="cycle grammar or builtin (delta i, rho i, rost, Z i j, W i j, theta i, alpha i)")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run a verification suite")
    common(pv)
    pv.add_argument("suite", help="suite name or 'all' (%s)" % ", ".join(suites.suite_names()))
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("edi", help="propagate and render an invariant square")
    pe.add_argument("--input", default="-", help="JSON file (default: stdin)")
    pe.add_argument("--format", choices=["text", "json"], default="json")
    pe.set_defaults(func=cmd_edi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
