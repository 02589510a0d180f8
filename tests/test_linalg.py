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


class Pulls:
    """An iterator over the rows of a matrix that counts the rows pulled."""

    def __init__(self, rows):
        self.rows = iter(rows)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.pulled += 1
        return row


def _random_rows(rng, count, cols, top=9):
    return [[rng.randint(-top, top) for _ in range(cols)] for _ in range(count)]


def _deficient_rows(rng, count, cols):
    """``count`` rows in the span of at most cols - 1 random rows."""
    basis = _random_rows(rng, rng.randint(0, cols - 1), cols)
    rows = []
    for _ in range(count):
        weights = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(w * b[j] for w, b in zip(weights, basis)) for j in range(cols)])
    return rows


def test_generator_and_list_give_the_same_answer():
    rng = random.Random(2)
    answers = set()
    for _ in range(300):
        cols = rng.randint(1, 6)
        if rng.random() < 0.5:  # a rank-deficient block above the other rows
            m = (_deficient_rows(rng, cols + BLOCK_SLACK, cols)
                 + rng.choice([_random_rows, _deficient_rows])(rng, rng.randint(0, 8), cols))
        else:
            m = _random_rows(rng, rng.randint(1, cols + BLOCK_SLACK + 6), cols)
        expected = rank_mod(m, RANK_PRIME) == cols
        assert kernel_is_trivial(m) == expected
        assert kernel_is_trivial(row for row in m) == expected
        answers.add(expected)
    assert answers == {True, False}
    assert not kernel_is_trivial(iter([]))


def test_a_certified_block_pulls_exactly_its_rows():
    rng = random.Random(3)
    for cols in (1, 4, 9, 30):
        m = _random_rows(rng, cols + BLOCK_SLACK + 40, cols, top=99)
        assert rank_mod(m[:cols + BLOCK_SLACK], RANK_PRIME) == cols
        rows = Pulls(m)
        assert kernel_is_trivial(rows)
        assert rows.pulled == cols + BLOCK_SLACK


def test_a_deficient_block_pulls_every_row():
    rng = random.Random(4)
    for cols in (2, 5, 9):
        full = _random_rows(rng, cols + 3, cols, top=99)
        assert rank_mod(full, RANK_PRIME) == cols
        rows = Pulls(_deficient_rows(rng, cols + BLOCK_SLACK, cols) + full)
        assert kernel_is_trivial(rows)
        assert rows.pulled == 2 * cols + BLOCK_SLACK + 3
        rows = Pulls(_deficient_rows(rng, cols + BLOCK_SLACK + 5, cols))
        assert not kernel_is_trivial(rows)
        assert rows.pulled == cols + BLOCK_SLACK + 5


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
