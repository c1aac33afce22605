"""The verification suites: range checks before any case, and the orientation
as a printing choice over one model per quadric."""

import io
from contextlib import redirect_stdout

import pytest

from quadchow import cli, suites
from quadchow.suites import run_suite, suite_names
from quadchow.weyl import RangeError


def test_lemma42_checks_its_factor_bound_before_any_case():
    # rho_i for i < d symmetrizes at most d factors, so n = 18 (d = 9) is
    # the first n past the bound
    seen = []
    with pytest.raises(RangeError, match="symmetrization over 9 factors"):
        run_suite("lemma42", 18, progress=seen.append)
    assert seen == []


@pytest.mark.parametrize("name", suite_names())
def test_run_suite_rejects_an_orientation_outside_plus_and_minus(name):
    seen = []
    for bad in (0, 2, None):
        with pytest.raises(ValueError, match="orientation must be 1 or -1"):
            run_suite(name, 4, bad, progress=seen.append)
    assert seen == []


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("name", suite_names())
def test_orientation_changes_no_computation(name, n):
    # the two orientations run the same cases to the same verdicts; only the
    # printed windows of flag cycles may differ
    plus, minus = run_suite(name, n, 1), run_suite(name, n, -1)
    assert [(c.id, c.params, c.status) for c in plus] == [
        (c.id, c.params, c.status) for c in minus
    ]
    assert all(c.ok for c in plus)
    for a, b in zip(plus, minus):
        assert isinstance(a.lhs, str) and isinstance(b.rhs, str)
        if "S(" not in a.lhs + a.rhs:
            assert (a.lhs, a.rhs) == (b.lhs, b.rhs), (a.id, a.params)


def test_plus_and_minus_verify_use_one_model(cold_engine, monkeypatch):
    models = []

    def spy(n):
        models.append(cold_engine(n))
        return models[-1]

    monkeypatch.setattr(suites, "build_geometry", spy)
    reports = []
    for name in ("plus", "minus"):
        out = io.StringIO()
        with redirect_stdout(out):
            argv = ["verify", "all", "--n", "6", "--orientation", name, "--format", "json"]
            assert cli.main(argv) == 0
        reports.append(out.getvalue())
    assert models and all(m is models[0] for m in models)
    assert reports[0] != reports[1]
