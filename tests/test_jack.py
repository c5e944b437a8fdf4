"""Invariants of the Jack polynomial constructions (solver, closed form, lift)."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackb2.bessel import limit_transition
from jackb2.jack import (
    _row_grid,
    _rows,
    _two_var_coeffs,
    jack_p,
    jack_p_at_ones,
    jack_p_two_var,
    jack_recursion_lift,
)
from jackb2.partitions import (
    Partition,
    conjugate,
    eigenvalue_e,
    hook_product_h,
    partitions_of_weight,
    rising_factorial,
)
from jackb2.product import product_lhs, product_rhs, zonal_so2_average
from jackb2.sympoly import MonomialExpansion, apply_lb_operator, evaluate

from oracles import dominance_leq

K_GRID = (Fraction(1, 2), Fraction(7, 3))


def partitions_up_to(weight, max_parts):
    for d in range(weight + 1):
        yield from partitions_of_weight(d, max_parts)


class TestSolver:
    def test_known_expansion(self):
        poly = jack_p((2,), Fraction(1, 2), 2)
        assert poly.expansion.coeffs == {
            Partition((2,)): 1, Partition((1, 1)): Fraction(2, 3)}

    def test_monic_and_triangular(self):
        for lam in partitions_up_to(6, 3):
            poly = jack_p(lam, Fraction(1, 2), 3)
            assert poly.expansion.coeffs[Partition(lam)] == 1
            for mu in poly.expansion.coeffs:
                assert dominance_leq(mu, lam)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", K_GRID)
    def test_exact_eigenfunction(self, n, k):
        for lam in partitions_up_to(6, n):
            expansion = jack_p(lam, k, n).expansion
            image = apply_lb_operator(expansion, k)
            assert image == expansion.scaled(eigenvalue_e(lam, k, n))

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            jack_p((1, 1, 1), Fraction(1), 2)

    def test_float_parameter_lifted_exactly(self):
        # 0.5 is dyadic, so the float entry matches the rational solve.
        assert jack_p((3, 1), 0.5, 2).expansion == jack_p((3, 1), Fraction(1, 2), 2).expansion


def _operator_images(nu, kv, n):
    """Oracle: the off-diagonal image of m_nu under D_k, one term per (i, j, t)."""
    def factorial(v):
        return math.prod(math.factorial(r) for r in Counter(v).values())

    vec = tuple(nu) + (0,) * (n - len(nu))
    out = {}
    for i, j in itertools.combinations(range(n), 2):
        a, b = vec[i], vec[j]
        for t in range(1, a - b):
            low = list(vec)
            low[i], low[j] = a - t, b + t
            mu = Partition(sorted(low, reverse=True))
            out[mu] = out.get(mu, 0) + kv * (a - b) * Fraction(factorial(low), factorial(vec))
    return out


def _gather_solve(lam, kv, n):
    """Oracle: the triangular solve as a gather over the operator's images.

    Each mu below lam sums action[nu][mu] * a_nu over every nu solved before
    it, then divides by the eigenvalue gap e(lam) - e(mu).
    """
    lam = Partition(lam)
    cands = [mu for mu in partitions_of_weight(lam.weight, n) if dominance_leq(mu, lam)]
    action = {nu: _operator_images(nu, kv, n) for nu in cands}
    e_lam = eigenvalue_e(lam, kv, n)
    coeffs = {lam: Fraction(1)}
    for mu in cands[1:]:
        feed = sum((action[nu].get(mu, 0) * a for nu, a in coeffs.items()),
                   start=Fraction(0))
        coeffs[mu] = feed / (e_lam - eigenvalue_e(mu, kv, n))
    return MonomialExpansion(n, coeffs)


def _seeded_solves(seed=20260, count=60):
    """(lam, n, k) with n = 1..6 and |lam| <= 9; k integer, p/q or a dyadic float."""
    rng = random.Random(seed)
    kinds = (lambda: Fraction(rng.randint(1, 6)),
             lambda: Fraction(rng.randint(1, 24), rng.randint(2, 8)),
             lambda: rng.randint(1, 64) / 16.0)
    out = []
    for i in range(count):
        n = 1 + i % 6
        lam = rng.choice(partitions_of_weight(rng.randint(n, 9), n))
        out.append((lam, n, kinds[i % 3]()))
    return out


class TestSolverAgainstGather:
    def test_same_coefficients_in_the_same_order(self):
        for lam, n, k in _seeded_solves():
            got = jack_p(lam, k, n).expansion.coeffs
            expect = _gather_solve(lam, Fraction(k), n).coeffs
            assert list(got.items()) == list(expect.items()), (lam, n, k)

    def test_the_sample_covers_every_n_and_kind_of_k(self):
        sample = _seeded_solves()
        assert {n for _, n, _ in sample} == set(range(1, 7))
        assert {type(k) for _, _, k in sample} == {Fraction, float}
        assert any(k.denominator > 1 for _, _, k in sample if isinstance(k, Fraction))
        assert max(lam.weight for lam, _, _ in sample) == 9
        assert max(len(lam) for lam, _, _ in sample) >= 5


def _value_at_ones(lam, k, n):
    """prod over cells (i, j) of (k (n - i + 1) + j - 1) / (arm + k (leg + 1))."""
    conj = conjugate(lam)
    out = Fraction(1)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            arm, leg = row - j, conj[j - 1] - i
            out *= (k * (n - i + 1) + j - 1) / (arm + k * (leg + 1))
    return out


@st.composite
def _solve_inputs(draw):
    n = draw(st.integers(1, 6))
    lam = draw(st.sampled_from(partitions_of_weight(draw(st.integers(0, 8)), n)))
    k = draw(st.builds(Fraction, st.integers(1, 24), st.integers(1, 8)))
    return lam, k, n


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_solve_inputs())
def test_jack_p_is_monic_triangular_with_the_known_value_at_ones(args):
    lam, k, n = args
    coeffs = jack_p(lam, k, n).expansion.coeffs
    assert coeffs[lam] == 1
    assert all(dominance_leq(mu, lam) for mu in coeffs)
    assert jack_p_at_ones(lam, k, n) == _value_at_ones(lam, k, n)


class TestTwoVariableClosedForm:
    @pytest.mark.parametrize("k", K_GRID)
    def test_matches_solver_exactly(self, k):
        points = ((Fraction(3, 2), Fraction(2, 3)), (Fraction(7, 5), Fraction(1, 3)))
        for lam in partitions_up_to(6, 2):
            poly = jack_p(lam, k, 2)
            for x in points:
                closed = jack_p_two_var(lam, k, x[0], x[1])
                assert isinstance(closed, Fraction)
                assert closed == poly.evaluate(x)

    def test_float_arguments_give_floats(self):
        val = jack_p_two_var((3, 1), Fraction(1, 2), 1.25, 0.5)
        assert isinstance(val, float)
        exact = jack_p_two_var((3, 1), Fraction(1, 2), Fraction(5, 4), Fraction(1, 2))
        assert val == pytest.approx(float(exact), rel=1e-14)

    def test_homogeneity(self):
        t = Fraction(3, 2)
        x = (Fraction(2), Fraction(1, 3))
        for lam in ((2,), (3, 1), (4, 2), (2, 2)):
            lhs = jack_p_two_var(lam, Fraction(1, 2), t * x[0], t * x[1])
            rhs = t ** sum(lam) * jack_p_two_var(lam, Fraction(1, 2), x[0], x[1])
            assert lhs == rhs

    def test_value_at_ones(self):
        # P_(m,0) at (1,1) is (2k)_m / (k)_m; exact via rising factorials.
        for k in K_GRID:
            for m in range(13):
                ones = jack_p_two_var((m,), k, 1, 1)
                expect = rising_factorial(2 * k, m) / rising_factorial(k, m)
                assert ones == expect
                assert jack_p_at_ones((m,), k, 2) == expect

    def test_rectangle_factor(self):
        # P_(l+m, l) carries the factor (x1 x2)^l against P_(m,0).
        k = Fraction(1, 2)
        x = (Fraction(5, 2), Fraction(1, 7))
        for m in range(4):
            for ell in range(1, 4):
                full = jack_p_two_var((ell + m, ell), k, x[0], x[1])
                reduced = jack_p_two_var((m,), k, x[0], x[1])
                assert full == (x[0] * x[1]) ** ell * reduced


@lru_cache(maxsize=None)
def _per_row_coeffs(m, kv, exact):
    """Oracle: P_lam(1,1) and the normalized closed-form row m, built alone.  Exact: the
    closed forms (2k)_m / (k)_m and C(m, 2r) (1/2)_r / (k+1/2)_r from fresh rising factorials.
    Float: the table's ratio steps, replayed for this row alone."""
    if exact:
        half = Fraction(1, 2)
        return (rising_factorial(2 * kv, m) / rising_factorial(kv, m),
                tuple(math.comb(m, 2 * r) * rising_factorial(half, r)
                      / rising_factorial(kv + half, r) for r in range(m // 2 + 1)))
    at_ones, row = 1.0, [1.0]
    for i in range(m):
        at_ones = at_ones + at_ones * (kv / (kv + i))
    for r in range(1, m // 2 + 1):
        num, den = (m - 2 * r + 2) * (m - 2 * r + 1), 2 * r * (2 * kv + (2 * r - 1))
        row.append(row[-1] * (num / den))
    return at_ones, tuple(row)


# k = p/q, dyadic, integer, 1/2 and large; each exact and as a float.
ROW_KS = (Fraction(7, 3), Fraction(3, 8), 3, Fraction(1, 2), 200)
ROW_TOP = 90
# Rows read one at a time: every m through the default series degree, then
# a spread up to ROW_TOP.
ROW_MS = (*range(31), 45, 60, 89, 90)


class TestClosedFormRowsAgainstPerRowBuild:
    @pytest.mark.parametrize("k", ROW_KS, ids=str)
    def test_exact_rows_are_equal(self, k):
        for m in ROW_MS:
            at_ones, rows = _rows(m, Fraction(k))
            assert {type(c) for c in (at_ones[m], *rows[m])} == {Fraction}
            assert (at_ones[m], rows[m]) == _per_row_coeffs(m, Fraction(k), True), m

    @pytest.mark.parametrize("k", ROW_KS, ids=str)
    def test_float_rows_are_bit_equal(self, k):
        for m in ROW_MS:
            at_ones, rows = _rows(m, float(k))
            assert {type(c) for c in (at_ones[m], *rows[m])} == {float}
            assert (at_ones[m], rows[m]) == _per_row_coeffs(m, float(k), False), m

    @pytest.mark.parametrize("k", ROW_KS, ids=str)
    def test_one_table_holds_every_row(self, k):
        # The series reads rows 0..D from one call; a table to top holds
        # the rows of every shorter one.
        for kv, exact in ((Fraction(k), True), (float(k), False)):
            at_ones, rows = table = _two_var_coeffs(ROW_TOP, kv)
            oracle = [_per_row_coeffs(m, kv, exact) for m in range(ROW_TOP + 1)]
            assert table == tuple(zip(*oracle))
            assert _two_var_coeffs(30, kv) == (at_ones[:31], rows[:31])
            assert _rows(30, kv) == (at_ones[:32], rows[:32])
            assert [part[:ROW_TOP + 1] for part in _rows(ROW_TOP, kv)] == [at_ones, rows]

    # Worst at this writing: 5.0e-15 for a row entry and 1.7e-15 for P(1,1).
    @pytest.mark.parametrize("k", (Fraction(1, 8), Fraction(3, 10), Fraction(1, 2), 1,
                                   Fraction(11, 4), 24), ids=str)
    def test_float_tables_are_within_2e_14_of_the_exact_ones(self, k):
        exact, floats = _two_var_coeffs(300, Fraction(k)), _two_var_coeffs(300, float(k))
        pairs = zip(itertools.chain(exact[0], *exact[1]), itertools.chain(floats[0], *floats[1]))
        for e, f in pairs:
            assert abs(Fraction(f) - e) <= Fraction(2e-14) * e, (e, f)

    def test_exact_and_float_tables_are_kept_apart(self):
        # Fraction(41, 16) == 2.5625 and the two hash alike; whichever comes
        # first, the second call must not be answered from its cache entry.
        for first, second in ((Fraction(41, 16), 2.5625), (2.6875, Fraction(43, 16))):
            for kv in (first, second):
                at_ones, rows = _two_var_coeffs(12, kv)
                assert {type(c) for c in itertools.chain(at_ones, *rows)} == {type(kv)}

    @pytest.mark.parametrize("k", (Fraction(1999, 10), 199.9), ids=str)
    def test_rows_read_one_at_a_time_share_a_table_per_block(self, k):
        # Rows 0..90, one jack_p_two_var call each, fall in three 32-row blocks.
        before = _two_var_coeffs.cache_info().misses
        for m in range(91):
            jack_p_two_var((m,), k, 1, 2)
        assert _two_var_coeffs.cache_info().misses - before <= 3

    def test_row_grids_of_two_k_share_their_index_arrays(self):
        # Only the coefficients depend on k; a cold series builds no index again.
        for lo, hi in ((0, 31), (32, 40), (7, 7)):
            grids = [_row_grid(kv, lo, hi) for kv in (0.75, 2.5, Fraction(3, 4))]
            for grid in grids[1:]:
                assert all(a is b for a, b in zip(grids[0][1:], grid[1:]))
            assert grids[0][0].dtype == float and grids[2][0].dtype == object
            assert grids[0][0].shape == grids[2][0].shape == grids[0][2].shape


class TestFloatPowerIsPythonPower:
    def test_float_power_has_the_bits_of_python_power(self):
        # The closed-form kernel and the eigenvalue split take their float
        # powers from np.float_power, which calls libm pow as Python's ** does;
        # np.power does not (it may vectorize pow), and neither does x * x.
        rng = np.random.default_rng(29)
        count = 120_000
        exps = np.concatenate([rng.integers(0, 65, count - 6), [100, 127, 257, 400, 500, 1023]])
        bases = 10.0 ** rng.uniform(-300.0, 150.0, count)
        bases *= np.where(rng.random(count) < 0.5, -1.0, 1.0)
        bases[:260] = np.repeat([0.0, -0.0], 130)
        with np.errstate(all="ignore"):
            powers = np.float_power(bases, exps.astype(float))
        wrong = []
        for b, e, f in zip(bases.tolist(), exps.tolist(), powers.tolist()):
            try:
                want = (b ** e).hex()
            except OverflowError:
                want = "inf" if f > 0 else "-inf"
            if f.hex() != want:
                wrong.append((b, e, f.hex(), want))
        assert not wrong, (
            f"np.float_power of numpy {np.__version__} differs from Python's ** on "
            f"{len(wrong)} of {count} draws, first {wrong[:3]}: the float kernels of jack "
            "and product (and every reported bit) depend on the two agreeing")


class TestCoeffRowClassification:
    def test_exact_only_for_int_bool_and_fraction(self):
        # The exact row needs k and both point components rational; a float,
        # a numpy scalar of any kind or any other value takes the float row.
        class Int(int):
            pass

        class Float(float):
            pass

        exact = (3, True, Fraction(1, 3), Int(2))
        inexact = (0.5, np.float64(0.5), np.int64(3), np.float32(0.5), Float(0.5), 1 + 0j)
        for v in exact:
            for args in ((v, v), (v, 1), (1, v)):
                value = jack_p_two_var((4,), Fraction(3, 2), *args)
                want = jack_p((4,), Fraction(3, 2), 2).evaluate([Fraction(a) for a in args])
                assert type(value) is Fraction and value == want
        for v in inexact:
            for args in ((v, 1), (1, v), (Fraction(1, 2), v)):
                # The float row of k = 3/2 at these very arguments, term by term
                # in their own arithmetic: the same type and bits.
                at_ones, rows = _two_var_coeffs(4, 1.5)
                s, t, total = (args[0] + args[1]) * 0.5, (args[0] - args[1]) * 0.5, 0
                for r, c in enumerate(rows[4]):
                    total += c * s ** (4 - 2 * r) * t ** (2 * r)
                want = at_ones[4] * ((args[0] * args[1]) ** 0 * total)
                value = jack_p_two_var((4,), Fraction(3, 2), *args)
                assert not isinstance(value, Fraction)
                assert (type(value), repr(value)) == (type(want), repr(want))
        for kv in (2, True, Fraction(5, 2)):
            assert type(jack_p_two_var((3,), kv, 1, 2)) is Fraction
        for kv in (2.0, np.float64(2), np.int64(2)):
            assert type(jack_p_two_var((3,), kv, 1, 2)) is float


class TestFloatRowsPastTheRange:
    """A float value past the float range is a usage error, never a value.  The normalized
    rows leave the range only where their binomials do (from m = 1030 as k -> 0, m = 1039 at
    k = 1) and P(1,1) only past 2^1023 (from m = 1025 at k = 1e10)."""

    @pytest.mark.parametrize("call, match", [
        (lambda: jack_p_two_var((1100,), 1.0, 0.5, 0.25), r"\(1100,\).*past the float range"),
        (lambda: limit_transition(1.0, 0.5, 1100), r"\(2200, 1100\).*past the float range"),
        (lambda: jack_p_two_var((1600,), 200.0, 0.5, 0.25), r"\(1600,\).*past the float range"),
        (lambda: product_lhs((1100,), 1, (0.5, 0.25), (0.5, 0.25)),
         "left side .* float range"),
        (lambda: product_rhs((1100,), 1, (Fraction(1, 2), Fraction(1, 4)),
                             (Fraction(1, 2), Fraction(1, 4)), 551), "right side .* float range"),
        # P(1,1) = 2^1100 is past the float range, the row is not.
        (lambda: jack_p_two_var((1100,), 1e10, 1.5, 0.5), r"\(1100,\).*past the float range"),
        # A power of the closed form is past the float range, the row is not.
        (lambda: jack_p_two_var((1000, 1000), 1.0, 1e3, 1e3),
         r"\(1000, 1000\).*past the float range"),
        (lambda: jack_p_two_var((400, 200), 1.0, 1e3, 1e3), r"\(400, 200\).*past the float range"),
        (lambda: zonal_so2_average((400, 200), (1e3, 1e3), (1e3, 1e3), 16),
         "rotation-group average .* float range"),
    ])
    def test_row_past_the_range_is_named(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_rows_below_the_first_bad_one_are_read(self):
        # Rows 1039..1055 of the k = 1.0 block are past the range; row 1020 is not.
        m, s, t = 1020, Fraction(1), Fraction(1, 2)
        assert not all(map(math.isfinite, _two_var_coeffs(1055, 1.0)[1][1039]))
        value = jack_p_two_var((m,), 1.0, 1.5, 0.5)
        # At k = 1: P(1,1) = m + 1 and (1/2)_r / (3/2)_r = 1 / (2r + 1).
        exact = (m + 1) * sum(Fraction(math.comb(m, 2 * r), 2 * r + 1) * s ** (m - 2 * r)
                              * t ** (2 * r) for r in range(m // 2 + 1))
        assert math.isfinite(value) and value == pytest.approx(float(exact), rel=1e-12)

    def test_exact_rows_have_no_float_range(self):
        # Row 1040 of k = 1.0 is past the float range; the exact row is not.
        # The product's left side is float at any point, so it raises there.
        value = jack_p_two_var((1040,), 1, Fraction(1, 2), Fraction(1, 4))
        assert type(value) is Fraction and 0 < value < 1
        point = (1, Fraction(1, 2))
        with pytest.raises(ValueError, match="left side .* float range"):
            product_lhs((1040,), 1, point, point)

    def test_rows_past_the_range_are_stored_not_raised(self):
        # The binomials of row 1039 are past the float range; P(1,1) = m + 1 is not.
        at_ones, rows = _two_var_coeffs(1119, 1.0)
        assert len(rows) == len(at_ones) == 1120 and all(map(math.isfinite, at_ones))
        assert all(map(math.isfinite, itertools.chain(*rows[:1039])))
        assert not any(all(map(math.isfinite, row)) for row in rows[1039:])

    def test_row_past_the_block_range_builds_one_table(self):
        _two_var_coeffs.cache_clear()
        with pytest.raises(ValueError, match=r"\(1100,\)"):
            jack_p_two_var((1100,), 1.0, 0.5, 0.25)
        assert _two_var_coeffs.cache_info().misses == 1

    @pytest.mark.parametrize("k", (1e-300, 1e-10, 0.3, 1.0, 7.0, 200.0, 1e5, 1e10))
    def test_a_float_row_past_the_range_stays_past_it(self, k):
        # Once a row or its P(1,1) is past the range every later one is too,
        # so below a finite row all are finite.
        at_ones, rows = _two_var_coeffs(1599, k)
        finite = [all(map(math.isfinite, (a, *row))) for a, row in zip(at_ones, rows)]
        assert finite == sorted(finite, reverse=True)
        assert not finite[-1]


class TestNormalization:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sum_equals_power_of_first_symmetric(self, n):
        # sum over |lam| = d of C_lam equals (x1 + ... + xn)^d exactly,
        # compared coefficient-by-coefficient in the monomial basis.
        k = Fraction(3, 2)
        for d in range(5):
            total = MonomialExpansion(n, {})
            for lam in partitions_of_weight(d, n):
                poly = jack_p(lam, k, n)
                coeff = Fraction(math.factorial(d)) / hook_product_h(lam, k)
                total = total.plus(poly.expansion.scaled(coeff))
            expect = {
                Partition(mu): Fraction(math.factorial(d))
                / math.prod(math.factorial(p) for p in mu)
                for mu in partitions_of_weight(d, n)}
            assert total.coeffs == expect


class TestRecursionLift:
    def test_two_variable_lift_is_the_polynomial(self):
        # n=2: lifting the one-variable monomial reproduces P_lam(x1, x2).
        for lam, k in (((1,), Fraction(1)), ((2,), Fraction(1, 2)), ((3,), Fraction(2))):
            x = (0.6, 1.9)
            got = jack_recursion_lift(lam, k, x)
            expect = float(jack_p_two_var(lam, k, *map(Fraction, map(str, x))))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_three_variable_lift_matches_solver(self):
        x = (0.4, 1.1, 2.3)
        for lam, k in (((2,), Fraction(1)), ((2, 1), Fraction(1, 2)), ((3, 2), Fraction(2))):
            got = jack_recursion_lift(lam, k, x)
            oracle = float(jack_p(lam, k, 3).evaluate(x))
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_empty_partition_lifts_to_one(self):
        assert jack_recursion_lift((), Fraction(1, 2), (0.5, 1.5)) == pytest.approx(1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jack_recursion_lift((1,), Fraction(1), (1.0, 2.0, 3.0, 4.0))  # n > 3
        with pytest.raises(ValueError):
            jack_recursion_lift((2, 1), Fraction(1), (1.0, 2.0))  # too many parts
        with pytest.raises(ValueError):
            jack_recursion_lift((1,), Fraction(1), (2.0, 1.0))  # not increasing
        with pytest.raises(ValueError):
            jack_recursion_lift((1,), Fraction(1), (-1.0, 1.0))  # not positive


def jack_c(lam, k, n, x):
    """Oracle: the C-normalized Jack polynomial (|lam|! / h_k(lam)) P_lam at x."""
    lam = Partition(lam)
    scale = Fraction(math.factorial(lam.weight)) / hook_product_h(lam, k)
    return scale * jack_p(lam, k, n).evaluate(tuple(x))


class TestCNormalizedValue:
    def test_point_value(self):
        # The C-normalized polynomials of weight d sum to (x1 + ... + xn)^d.
        k = Fraction(1, 2)
        x = (Fraction(1), Fraction(2), Fraction(3))
        assert sum(jack_c(lam, k, 3, x) for lam in partitions_of_weight(3, 3)) == 6 ** 3


class TestEvaluate:
    def test_float_point(self):
        poly = jack_p((3, 1), Fraction(1, 2), 3)
        x = (0.3, 1.7, 2.1)
        direct = evaluate(poly.expansion, x)
        assert poly.evaluate(x) == pytest.approx(direct, rel=1e-15)

    def test_json_shape(self):
        doc = jack_p((2,), Fraction(1, 2), 2).to_json()
        assert doc["lambda"] == [2]
        assert doc["k"] == "1/2"
        assert doc["nvars"] == 2
        assert {"partition": [1, 1], "coeff": "2/3"} in doc["terms"]
