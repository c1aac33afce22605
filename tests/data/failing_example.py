"""A Hypothesis test that always fails, for `test_warning_filters.py` to run
in a subprocess.  Its name has no test_ prefix, so the default run does not
collect it."""

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
