"""The quadchow functions the traced run wraps, and how the wrappers go in.

Each entry names a layer metric prefix ``<layer>.<fn>`` and the function or
method behind it.  A module-level function is patched under every name that
binds it in a loaded ``quadchow`` module, because modules import each other's
functions by value (``schubert`` calls its own binding of
``divided_difference``).  A method is patched on its class.  Nothing here
touches the program's caches.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from tracer import MARK

# (metric prefix, module, attribute): attribute "Class.method" names a method
TARGETS = [
    ("weyl.make_group", "weyl", "make_group"),
    ("weyl.min_coset_reps", "weyl", "WeylGroup.min_coset_reps"),
    ("weyl.parabolic_decompose", "weyl", "WeylGroup.parabolic_decompose"),
    ("weyl.parabolic_longest", "weyl", "WeylGroup.parabolic_longest"),
    ("weyl.reduced_word", "weyl", "WeylGroup.reduced_word"),
    ("polyring.divided_difference", "polyring", "divided_difference"),
    ("polyring.divided_difference_word", "polyring", "divided_difference_word"),
    ("polyring.act", "polyring", "act"),
    ("polyring.Polynomial.mul", "polyring", "Polynomial.__mul__"),
    ("schubert.build_geometry", "schubert", "build_geometry"),
    ("schubert.validate_conventions", "schubert", "FlagModel.validate_conventions"),
    ("schubert.schubert_rep", "schubert", "FlagModel.schubert_rep"),
    ("schubert.expand", "schubert", "FlagModel.expand"),
    ("schubert.basis_product", "schubert", "FlagModel.basis_product"),
    ("schubert.deg_product", "schubert", "FlagModel.deg_product"),
    ("schubert.pushforward", "schubert", "FlagModel.pushforward"),
    ("schubert.FlagCycle.mul", "schubert", "FlagCycle.__mul__"),
    ("quadpow.sym", "quadpow", "sym"),
    ("quadpow.QuadCycle.add", "quadpow", "QuadCycle.__add__"),
    ("quadpow.QuadCycle.mul", "quadpow", "QuadCycle.__mul__"),
    ("quadpow.compose", "quadpow", "compose"),
    ("quadpow.action", "quadpow", "action"),
    ("quadpow.is_nonessential", "quadpow", "is_nonessential"),
    ("quadpow.parse_cycle", "quadpow", "parse_cycle"),
    ("quadpow.format_cycle", "quadpow", "format_cycle"),
    ("bridge.MixedCycle.mul", "bridge", "MixedCycle.__mul__"),
    ("bridge.incidence_class", "bridge", "incidence_class"),
    ("bridge.push_to_quad", "bridge", "MixedCycle.push_to_quad"),
    ("bridge.action_on_quad", "bridge", "MixedCycle.action_on_quad"),
    ("bridge.theta", "bridge", "theta"),
    ("bridge.degree_congruence", "bridge", "degree_congruence"),
    ("edi.run_edi_json", "edi", "run_edi_json"),
    ("cli.main", "cli", "main"),
]

SUITE_NAMES = [
    "cor315", "cross-model", "degrees-gd", "lemma21", "lemma24", "lemma25",
    "lemma26", "lemma32", "lemma42", "prop31", "prop316", "prop51",
]

# (parent, child): a parent span with a direct child of this name is a miss
MISSES = [
    ("schubert.basis_product", "schubert.expand"),
    ("schubert.schubert_rep", "polyring.divided_difference"),
]

# metrics also reported for the timed phase alone, as "run.<metric>": the
# polynomial work and cache misses that a warm phase should not have
RUN_ONLY = [
    "polyring.divided_difference.calls",
    "polyring.Polynomial.mul.calls",
    "schubert.expand.calls",
    "schubert.schubert_rep.misses",
    "schubert.basis_product.misses",
]

# functions whose cost sits in their wrapped children (sym is a loop of
# QuadCycle additions): also report the inclusive time, as "<prefix>.total_s"
TOTALS = ["quadpow.sym"]

# the word passed to divided_difference_word; its summed length is ".letters"
LETTERS = "polyring.divided_difference_word.letters"


def _word_length(args, kwargs) -> int:
    word = args[1] if len(args) > 1 else kwargs["word"]
    return len(word)


def _quadchow_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "quadchow" or name.startswith("quadchow."))
    ]


def _suite_runner(tracer, run_suite):
    """run_suite in a span named after the suite; its result size is ".cases"."""

    def wrapper(name, *args, **kwargs):
        with tracer.span("suites." + name):
            results = run_suite(name, *args, **kwargs)
        tracer.tally("suites.%s.cases" % name, len(results))
        return results

    wrapper.__wrapped__ = run_suite
    setattr(wrapper, MARK, "suites")
    return wrapper


@contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore."""
    import quadchow.cli  # noqa: F401  (loads every layer module)

    modules = _quadchow_modules()
    undo = []

    def patch_function(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    try:
        for prefix, modname, attr in TARGETS:
            mod = sys.modules["quadchow." + modname]
            counter = (LETTERS, _word_length) if LETTERS.startswith(prefix + ".") else None
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(prefix, original, counter))
            else:
                original = getattr(mod, attr)
                patch_function(original, tracer.wrap(prefix, original, counter))
        suites = sys.modules["quadchow.suites"]
        patch_function(suites.run_suite, _suite_runner(tracer, suites.run_suite))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of loaded quadchow attributes that are still bench wrappers."""
    found = []
    for mod in _quadchow_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append("%s.%s" % (mod.__name__, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append("%s.%s.%s" % (mod.__name__, attr, meth))
    return found


def layer_metrics(tracer, lo: int = 0, hi: int | None = None) -> dict:
    """Every per-layer metric for the spans in [lo, hi), zero where absent."""
    summary = tracer.summary(lo, hi, MISSES)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for prefix, _, _ in TARGETS:
        entry = summary.get(prefix, empty)
        out[prefix + ".calls"] = entry["calls"]
        out[prefix + ".self_s"] = entry["self_s"]
    for prefix in TOTALS:
        out[prefix + ".total_s"] = summary.get(prefix, empty)["total_s"]
    for parent, _ in MISSES:
        out[parent + ".misses"] = summary.get(parent, {}).get("misses", 0)
    calls = out["schubert.basis_product.calls"]
    hits = calls - out["schubert.basis_product.misses"]
    out["schubert.basis_product.hit_ratio"] = hits / calls if calls else 0.0
    out[LETTERS] = tracer.tallies.get(LETTERS, 0)
    for name in SUITE_NAMES:
        out["suites.%s.s" % name] = summary.get("suites." + name, empty)["total_s"]
        out["suites.%s.cases" % name] = tracer.tallies.get("suites.%s.cases" % name, 0)
    return out
