"""Property tests: laws that must hold for every input, searched by hypothesis.

Derandomized with a bounded example count, so each run tries the same cases.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackb2.bessel import Multiplicity, bessel_b2_series
from jackb2.jack import jack_p_two_var
from jackb2.partitions import Partition
from jackb2.product import eigen_split, rotation_conjugate_eigs, verify_product

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

two_row = st.tuples(st.integers(0, 8), st.integers(0, 4)).filter(
    lambda p: p[0] + p[1] <= 8 and p[1] <= p[0]).map(Partition)
ratio_k = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))
coord = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)
point = st.tuples(coord, coord)
# The trace/determinant route of rotation_conjugate_eigs does not rescale, so
# its products must stay in the normal range.
normal = st.floats(min_value=2.0 ** -100, max_value=3.0)
normal_point = st.tuples(normal, normal)
signed = st.floats(min_value=-3.0, max_value=3.0)
signed_point = st.tuples(signed, signed)


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


@SETTINGS
@given(x=normal_point, y=normal_point, theta=st.floats(min_value=0.0, max_value=math.pi))
def test_eigen_split_is_the_rotation_conjugate_pair(x, y, theta):
    # At u = cos 2 theta the sum and product of the pair agree to rounding
    # on the scale of the entries; each eigenvalue only to about sqrt(eps)
    # of it, since the trace/determinant route loses half its digits near a
    # double eigenvalue.
    split = eigen_split(x, y, math.cos(2.0 * theta))
    big, small = rotation_conjugate_eigs(x, y, theta)
    scale = (x[0] + x[1]) * (y[0] + y[1])
    assert abs(split.x1_big + split.x2_small - (big + small)) <= 1e-15 * scale
    assert abs(split.x1_big * split.x2_small - big * small) <= 1e-15 * scale * scale
    assert abs(split.x1_big - big) <= 1e-7 * scale
    assert abs(split.x2_small - small) <= 1e-7 * scale


@SETTINGS
@given(kappa=st.tuples(ratio_k, ratio_k), x=signed_point, y=signed_point)
def test_series_is_symmetric_and_even_in_each_component(kappa, x, y):
    # The terms are products of P(x^2/2) P(y^2/2) with P symmetric, so every
    # swap and sign change gives the same doubles.
    kappa = Multiplicity(*kappa)
    value = bessel_b2_series(kappa, x, y)
    assert bessel_b2_series(kappa, y, x) == value
    assert bessel_b2_series(kappa, x[::-1], y) == value
    assert bessel_b2_series(kappa, (-x[0], x[1]), (y[0], -y[1])) == value
