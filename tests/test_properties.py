"""Property tests: laws that must hold for every input, searched by hypothesis.

Derandomized with a bounded example count, so each run tries the same cases.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackb2.jack import jack_p_two_var
from jackb2.partitions import Partition
from jackb2.product import verify_product

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

two_row = st.tuples(st.integers(0, 8), st.integers(0, 4)).filter(
    lambda p: p[0] + p[1] <= 8 and p[1] <= p[0]).map(Partition)
ratio_k = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))
coord = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)
point = st.tuples(coord, coord)


@SETTINGS
@given(lam=two_row, k=ratio_k, x=point, y=point)
def test_product_identity_holds(lam, k, x, y):
    report = verify_product(lam, k, x, y, npoints=lam.weight + 4, tol=1e-10)
    assert report.passed, report.to_json()


@SETTINGS
@given(lam=two_row, k=ratio_k,
       x=st.tuples(st.fractions(0, 3, max_denominator=64), st.fractions(0, 3, max_denominator=64)))
def test_exact_and_float_closed_forms_agree(lam, k, x):
    exact = jack_p_two_var(lam, k, *x)
    inexact = jack_p_two_var(lam, float(k), float(x[0]), float(x[1]))
    assert isinstance(exact, Fraction) and isinstance(inexact, float)
    assert inexact == pytest.approx(float(exact), rel=1e-13, abs=0)
