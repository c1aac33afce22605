"""Tests of the benchmark's span recorder and layer wrappers.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import MARK, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock)
    with t.span("a"):  # 0 .. 10
        clock.tick(1)
        with t.span("b"):  # 1 .. 4
            clock.tick(1)
            with t.span("c"):  # 2 .. 3.5
                clock.tick(1.5)
            clock.tick(0.5)
        clock.tick(2)
        with t.span("b"):  # 6 .. 7
            clock.tick(1)
        clock.tick(3)
    s = t.summary()
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 1.0}
    assert s["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0 - 1.5}
    assert s["c"] == {"calls": 1, "total_s": 1.5, "self_s": 1.5}


def test_recursive_spans_count_each_level_once():
    clock = FakeClock()
    t = Tracer(clock)

    def rec(depth):
        clock.tick(1)
        if depth:
            rec(depth - 1)

    rec = t.wrap("rec", rec)
    rec(2)  # three nested spans of 3, 2 and 1 ticks
    assert t.summary()["rec"] == {"calls": 3, "total_s": 6.0, "self_s": 3.0}


def test_miss_is_a_span_with_a_direct_child_of_the_named_kind():
    clock = FakeClock()
    t = Tracer(clock)
    with t.span("schubert.basis_product"):  # miss: computes an expansion
        with t.span("schubert.expand"):
            clock.tick(1)
    with t.span("schubert.basis_product"):  # hit
        clock.tick(0.1)
    with t.span("schubert.basis_product"):  # hit: expand is a grandchild
        with t.span("other"):
            with t.span("schubert.expand"):
                clock.tick(1)
    with t.span("schubert.basis_product"):  # one miss, however many children
        for _ in range(3):
            with t.span("schubert.expand"):
                clock.tick(1)
    s = t.summary(misses=layers.MISSES)
    assert s["schubert.basis_product"]["calls"] == 4
    assert s["schubert.basis_product"]["misses"] == 2


def test_summary_of_a_subtree_range():
    clock = FakeClock()
    t = Tracer(clock)
    with t.span("x"):
        clock.tick(1)
    lo = len(t)
    with t.span("phase"):
        with t.span("x"):
            clock.tick(2)
    hi = len(t)
    with t.span("x"):
        clock.tick(4)
    s = t.summary(lo, hi)
    assert s["x"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert s["phase"]["self_s"] == 0.0


def test_wrapper_closes_its_span_on_error_and_counts():
    clock = FakeClock()
    t = Tracer(clock)

    def boom(word):
        clock.tick(1)
        raise ValueError(word)

    wrapped = t.wrap("boom", boom, counter=("letters", lambda a, k: len(a[0])))
    assert getattr(wrapped, MARK) == "boom"
    for _ in range(2):
        with pytest.raises(ValueError):
            wrapped("abc")
    with t.span("after"):
        pass
    s = t.summary()
    assert s["boom"]["calls"] == 2 and s["boom"]["self_s"] == 2.0
    assert t.parent[len(t) - 1] == -1  # the stack unwound
    assert t.tallies["letters"] == 6


def _originals():
    import quadchow.cli  # noqa: F401

    out = {}
    for _, modname, attr in layers.TARGETS:
        mod = sys.modules["quadchow." + modname]
        if "." in attr:
            cls, meth = attr.split(".")
            out[(modname, attr)] = vars(getattr(mod, cls))[meth]
        else:
            out[(modname, attr)] = getattr(mod, attr)
    return out


def test_install_wraps_every_binding_and_restores_them():
    before = _originals()
    t = Tracer()
    with layers.installed(t):
        during = _originals()
        assert all(hasattr(fn, MARK) for fn in during.values())
        from quadchow import schubert, polyring

        # the by-value import inside schubert is wrapped too
        assert hasattr(schubert.divided_difference, MARK)
        assert hasattr(polyring.divided_difference, MARK)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert sys.modules["quadchow.cli"].main(["compute", "--n", "3", "rho 1"]) == 0
    assert _originals() == before
    assert layers.leftover_wrappers() == []
    metrics = layers.layer_metrics(t)
    assert metrics["cli.main.calls"] == 1
    assert metrics["quadpow.sym.calls"] >= 1
    assert buf.getvalue().strip() == "1 x l0 + l0 x 1"


def test_every_layer_metric_is_reported():
    metrics = layers.layer_metrics(Tracer())
    for prefix, _, _ in layers.TARGETS:
        assert metrics[prefix + ".calls"] == 0
        assert metrics[prefix + ".self_s"] == 0.0
    for name in layers.SUITE_NAMES:
        assert metrics["suites.%s.cases" % name] == 0
    assert metrics[layers.LETTERS] == 0
    assert metrics["schubert.basis_product.hit_ratio"] == 0.0


@pytest.fixture
def tiny_verify(monkeypatch):
    """A verify workload small enough for a test, and a probe in every CLI call
    that records which bench wrappers are installed at that moment."""
    from quadchow import suites

    cases = len(suites.run_suite("lemma24", 3))
    monkeypatch.setitem(workloads.VERIFY, "tiny", {"n": 3, "suites": ["lemma24"], "cases": cases})
    seen = []
    call_cli = child.call_cli

    def probe(*args, **kwargs):
        seen.append(layers.leftover_wrappers())
        return call_cli(*args, **kwargs)

    monkeypatch.setattr(child, "call_cli", probe)
    return seen


def test_untraced_run_installs_no_wrapper(tiny_verify):
    result = child.run("tiny", 1)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "layers" not in result
    assert tiny_verify == [[]]


def test_traced_run_reports_layers_and_unwraps(tiny_verify):
    result = child.run("tiny", 1, Tracer())
    assert result["failed"] == 0
    assert tiny_verify and tiny_verify[0]  # the probe does see wrappers
    assert layers.leftover_wrappers() == []
    assert result["layers"]["suites.lemma24.cases"] == result["attempted"]
    assert result["layers"]["cli.main.calls"] == 1
