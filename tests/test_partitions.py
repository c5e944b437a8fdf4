"""Order-theoretic and combinatorial invariants of the partition layer."""

from fractions import Fraction

import numpy as np
import pytest

from jackb2.bessel import limit_transition
from jackb2.jack import jack_p_two_var
from jackb2.partitions import (
    Partition,
    conjugate,
    eigenvalue_e,
    gen_pochhammer,
    hook_product_h,
    parse_partition,
    parse_scalar,
    partitions_of_weight,
    rising_factorial,
)

from oracles import dominance_leq

K_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3))


def all_partitions_up_to(weight, max_parts=None):
    for d in range(weight + 1):
        yield from partitions_of_weight(d, max_parts or max(d, 1))


class TestPartitionType:
    def test_trailing_zeros_trimmed(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition(()) == Partition((0, 0))

    def test_rejects_increasing_or_negative(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_rejects_non_integral_parts(self):
        # A part must equal its int: 2.5 is not truncated to 2.  Integral
        # floats, numpy integers and bools are parts.
        for parts in ((2.5, 1.2), (3, 1.5), (Fraction(5, 2),), (2.9,)):
            with pytest.raises(ValueError, match="must be nonnegative integers"):
                Partition(parts)
        with pytest.raises(ValueError, match="must be nonnegative integers"):
            jack_p_two_var((2.9,), 1, 0.5, 0.25)
        with pytest.raises(ValueError, match="ell must be a positive integer, got 2.5"):
            limit_transition(1.0, 0.5, 2.5)
        lam = Partition((3.0, np.int64(2), True))
        assert lam == (3, 2, 1) and all(type(p) is int for p in lam)
        assert limit_transition(1.0, 0.5, 3.0) == limit_transition(1.0, 0.5, 3)

    def test_weight_and_padded_part(self):
        lam = Partition((4, 2, 1))
        assert lam.weight == 7
        assert [lam.part(i) for i in range(5)] == [4, 2, 1, 0, 0]

    def test_parse_partition(self):
        assert parse_partition("3,1") == Partition((3, 1))
        assert parse_partition("") == Partition(())
        with pytest.raises(ValueError):
            parse_partition("1,3")

    def test_parse_scalar_exact(self):
        assert parse_scalar("7/3") == Fraction(7, 3)
        assert parse_scalar("0.5") == Fraction(1, 2)
        assert parse_scalar("2") == Fraction(2)


class TestEnumeration:
    def test_known_lists(self):
        assert list(partitions_of_weight(0, 1)) == [Partition(())]
        assert list(partitions_of_weight(3, 2)) == [Partition((3,)), Partition((2, 1))]
        assert list(partitions_of_weight(4, 2)) == [
            Partition((4,)), Partition((3, 1)), Partition((2, 2))]

    def test_decreasing_lex_is_a_dominance_extension(self):
        for d in range(11):
            seq = list(partitions_of_weight(d, max(d, 1)))
            index = {lam: i for i, lam in enumerate(seq)}
            for lam in seq:
                for mu in seq:
                    if dominance_leq(mu, lam) and mu != lam:
                        assert index[mu] > index[lam]


class TestDominance:
    def test_partial_order_up_to_weight_10(self):
        for d in range(11):
            level = list(partitions_of_weight(d, max(d, 1)))
            for lam in level:
                assert dominance_leq(lam, lam)
            for lam in level:
                for mu in level:
                    if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                        assert lam == mu
            for lam in level:
                for mu in level:
                    for nu in level:
                        if dominance_leq(lam, mu) and dominance_leq(mu, nu):
                            assert dominance_leq(lam, nu)

    def test_incomparable_example(self):
        assert not dominance_leq(Partition((3, 1, 1, 1)), Partition((2, 2, 2)))
        assert not dominance_leq(Partition((2, 2, 2)), Partition((3, 1, 1, 1)))

    def test_different_weights_incomparable(self):
        assert not dominance_leq(Partition((1,)), Partition((2,)))


class TestConjugate:
    def test_involution_up_to_weight_10(self):
        for lam in all_partitions_up_to(10):
            assert conjugate(conjugate(lam)) == lam

    def test_known_values(self):
        assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
        assert conjugate(Partition(())) == Partition(())

    def test_reverses_dominance(self):
        for d in range(9):
            level = list(partitions_of_weight(d, max(d, 1)))
            for lam in level:
                for mu in level:
                    assert dominance_leq(mu, lam) == dominance_leq(conjugate(lam), conjugate(mu))


class TestEigenvalue:
    def test_two_variable_values(self):
        k = Fraction(1, 2)
        # e_lam = sum over i of lam_i (lam_i + 2k(n-i) - 1) at n=2.
        assert eigenvalue_e(Partition((2,)), k, 2) == 2 + 4 * k
        assert eigenvalue_e(Partition((1, 1)), k, 2) == 2 * k

    def test_distinct_along_dominance(self):
        # Needed by the triangular solve: e_lam - e_mu never vanishes for
        # mu strictly below lam in dominance order.
        for n in range(2, 5):
            for d in range(11):
                level = [lam for lam in partitions_of_weight(d, max(d, 1)) if len(lam) <= n]
                for k in K_GRID:
                    for lam in level:
                        for mu in level:
                            if mu != lam and dominance_leq(mu, lam):
                                assert eigenvalue_e(lam, k, n) != eigenvalue_e(mu, k, n)

    def test_exact_rational_type(self):
        val = eigenvalue_e(Partition((3, 1)), Fraction(7, 3), 3)
        assert isinstance(val, Fraction)


class TestHookAndPochhammer:
    def test_rising_factorial(self):
        assert rising_factorial(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
        assert rising_factorial(Fraction(5), 0) == 1

    def test_hook_positive_for_positive_k(self):
        for lam in all_partitions_up_to(8, 2):
            for k in K_GRID:
                assert hook_product_h(lam, k) > 0

    def test_hook_two_row_closed_form(self):
        # For lam = (l + m, l) the hook product collapses to
        # (m + 1 + k)_l * m! * l!.
        import math
        for k in K_GRID:
            for m in range(5):
                for ell in range(4):
                    lam = Partition((ell + m, ell))
                    expect = rising_factorial(m + 1 + k, ell) * math.factorial(m) * math.factorial(ell)
                    assert hook_product_h(lam, k) == expect

    def test_gen_pochhammer_two_row_closed_form(self):
        # [mu]_lam = (mu + l)_m (mu)_l (mu - k)_l for lam = (l + m, l).
        mu_order = Fraction(5, 2)
        for k in K_GRID:
            for m in range(5):
                for ell in range(4):
                    lam = Partition((ell + m, ell))
                    expect = (rising_factorial(mu_order + ell, m)
                              * rising_factorial(mu_order, ell)
                              * rising_factorial(mu_order - k, ell))
                    assert gen_pochhammer(mu_order, lam, k, 2) == expect
