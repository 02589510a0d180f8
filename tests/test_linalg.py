"""Exact linear algebra: modular rank, rational kernels and solutions."""

import random
from fractions import Fraction

from oplab.linalg import (BLOCK_SLACK, RANK_PRIME, clear_denominators, kernel_is_trivial,
                          nullspace, rank_mod, solve)


def test_rank_mod_hand_checked():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank_mod(m, 7) == 2
    assert rank_mod(m, 2) == 1  # mod 2 the rows are [1,0,1], [0,0,0], [1,0,1]
    assert rank_mod([], 7) == 0


def test_unlucky_prime_falls_back_to_exact_kernel():
    m = [[RANK_PRIME, 1], [0, 1]]  # determinant RANK_PRIME: full rank over Q only
    assert rank_mod(m, RANK_PRIME) == 1
    assert not kernel_is_trivial(m)
    assert nullspace(m) == []


def test_kernel_certificate():
    assert kernel_is_trivial([[1, 0], [0, 1], [1, 1]])
    assert not kernel_is_trivial([[1, 2], [2, 4]])


def test_certificate_reads_past_a_deficient_block():
    # the first ncols + BLOCK_SLACK rows repeat one row, so only later rows
    # reach full column rank: trusting the block alone would answer False
    block = [[1, 2, 3]] * (3 + BLOCK_SLACK)
    assert rank_mod(block, RANK_PRIME) == 1
    assert kernel_is_trivial(block + [[0, 1, 0], [0, 0, 1]])
    assert not kernel_is_trivial(block + [[2, 4, 6], [0, 1, 1], [0, 2, 2]])
    assert not kernel_is_trivial(block)


def test_certificate_equals_full_modular_rank():
    rng = random.Random(1)
    for _ in range(200):
        cols = rng.randint(1, 5)
        m = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(cols)]
             for _ in range(rng.randint(1, cols + BLOCK_SLACK + 6))]
        if rng.random() < 0.5:  # repeat the leading row through part of the block
            m = [m[0]] * rng.randint(1, cols + BLOCK_SLACK + 2) + m
        assert kernel_is_trivial(m) == (rank_mod(m, RANK_PRIME) == cols)


def test_nullspace_of_rank_deficient_matrix():
    assert nullspace([[1, 2, 3], [2, 4, 6]]) == [[-2, 1, 0], [-3, 0, 1]]
    assert nullspace([[0, 2], [0, 1]]) == [[1, 0]]


def test_rank_over_prime_matches_rational_kernel():
    # entries below 10 in at most 5 columns keep every minor below RANK_PRIME
    # (Hadamard), so the modular and rational ranks must agree
    rng = random.Random(0)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(m)
        assert len(basis) == cols - rank_mod(m, RANK_PRIME)
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m)


def test_solve():
    assert solve([[1, 1], [1, -1]], [3, 1]) == [2, 1]
    assert solve([[1, 2]], [4]) == [4, 0]  # free variable set to zero
    assert solve([[2]], [1]) == [Fraction(1, 2)]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_clear_denominators_is_primitive_with_positive_lead():
    assert clear_denominators([Fraction(-1, 2), Fraction(1, 3), Fraction(0)]) == [3, -2, 0]
    assert clear_denominators([Fraction(0), Fraction(4, 6), Fraction(2)]) == [0, 1, 3]
    assert clear_denominators([Fraction(0), Fraction(0)]) == [0, 0]
