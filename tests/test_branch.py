"""Single-branched words: periods, extensions, avoidance counting."""

import gc
import itertools
import random
import time

import pytest

from helpers import BINARY, FIG3, all_monomials
from oplab import (
    Alphabet,
    AvoidanceSystem,
    BranchWord,
    TreeMonomial,
    closed_set_counts,
    extend,
    from_branch_word,
    is_local_period,
    is_period,
    minimal_period,
    parse_monomial,
    to_branch_word,
)
from oplab.branch import (
    AperiodicError,
    BranchError,
    NotSingleBranchedError,
    contains_factor,
    enumerate_avoiding_words,
    example_at_most_one_index2,
    format_branch_word,
    parse_branch_word,
)

AB_UNARY = Alphabet.of(a=1, b=1)


@pytest.fixture
def periodic_word():
    # letters a a b a a b a a, all composition indices 1; minimal period 3
    return parse_branch_word("a:1 a:1 b:1 a:1 a:1 b:1 a:1 a", AB_UNARY)


def random_periodic_word(rng: random.Random, alphabet) -> BranchWord:
    block_len = rng.randint(1, 4)
    block = []
    for _ in range(block_len):
        g = rng.choice(alphabet.generators)
        block.append((g, rng.randint(1, g.arity)))
    n = rng.randint(block_len + 1, 4 * block_len)
    letters = tuple(block[(q - 1) % block_len] for q in range(1, n + 1))
    return BranchWord(letters)


class TestEncoding:
    def test_tree_round_trips(self):
        for t in all_monomials(FIG3, 5):
            if t.weight != t.height:
                with pytest.raises(NotSingleBranchedError):
                    to_branch_word(t)
                continue
            w = to_branch_word(t)
            assert len(w) == t.weight
            assert from_branch_word(w, FIG3) == t

    def test_figure_examples(self):
        t1 = parse_monomial("a(b(*,*))", FIG3)
        w = to_branch_word(t1)
        assert [(g.name, i) for g, i in w.letters] == [("a", 1), ("b", 1)]
        t4 = parse_monomial("b(c(*,*),b(*,*))", FIG3)
        with pytest.raises(NotSingleBranchedError):
            to_branch_word(t4)
        assert len(to_branch_word(TreeMonomial.trivial(FIG3))) == 0

    def test_round_trip_all_words_to_height_8(self):
        mixed = Alphabet.of(a=2, b=1)
        letters = [(g, i) for g in mixed.generators for i in range(1, g.arity + 1)]

        def words(height):
            if height == 0:
                yield ()
                return
            for prefix in words(height - 1):
                for letter in letters:
                    yield prefix + (letter,)

        total = 0
        for h in range(9):
            for raw in words(h):
                w = BranchWord(raw)
                t = from_branch_word(w, mixed)
                assert t.weight == t.height == h
                assert to_branch_word(t) == w
                total += 1
        assert total == sum(3 ** h for h in range(9))

    def test_dummy_last_index_normalized(self):
        a = BINARY["a"]
        assert BranchWord(((a, 1), (a, 2))) == BranchWord(((a, 1), (a, 1)))

    def test_index_range_validation(self):
        a = BINARY["a"]
        with pytest.raises(BranchError):
            BranchWord(((a, 3), (a, 1)))

    def test_literal_round_trip(self, periodic_word):
        assert parse_branch_word(format_branch_word(periodic_word), AB_UNARY) == periodic_word
        assert format_branch_word(BranchWord(())) == "1"


class TestPeriods:
    def test_worked_example(self, periodic_word):
        assert minimal_period(periodic_word) == 3
        assert is_local_period(periodic_word, 7)
        assert is_local_period(periodic_word, 6)
        assert not is_local_period(periodic_word, 2)
        assert is_period(periodic_word, 6)
        assert not is_period(periodic_word, 7)
        assert is_period(periodic_word, 3)

    def test_constant_word(self):
        w = parse_branch_word("a:1 a:1 a", AB_UNARY)
        assert minimal_period(w) == 1

    def test_aperiodic(self):
        w = parse_branch_word("a:1 b", AB_UNARY)
        assert minimal_period(w) is None
        with pytest.raises(AperiodicError):
            is_period(w, 1)
        with pytest.raises(AperiodicError):
            extend(w, 0, 3)

    def test_local_period_range(self, periodic_word):
        with pytest.raises(BranchError):
            is_local_period(periodic_word, 0)
        with pytest.raises(BranchError):
            is_local_period(periodic_word, len(periodic_word))

    def test_index_shift_matters(self):
        # same generators but a mismatched interior index breaks the period
        a = BINARY["a"]
        w = BranchWord(((a, 1), (a, 2), (a, 1), (a, 1)))
        assert not is_local_period(w, 1)
        assert minimal_period(w) == 2


    def test_predicates_match_positional_definitions_to_height_6(self):
        # every letter sequence over {a:2, b:1}: p = n-1, one-letter factors
        # and factors longer than the word included
        mixed = Alphabet.of(a=2, b=1)
        letters = [(g, i) for g in mixed.generators for i in range(1, g.arity + 1)]
        words = [BranchWord(raw) for h in range(7)
                 for raw in itertools.product(letters, repeat=h)]
        assert len(words) == 1093
        factors = [f for f in words if 1 <= len(f) <= 3]

        def gen(w, k):  # 1-based
            return w.letters[k - 1][0]

        def idx(w, k):
            return w.letters[k - 1][1]

        for w in words:
            n = len(w)
            periods = [p for p in range(1, n)
                       if all(gen(w, j) == gen(w, j + p) for j in range(1, n - p + 1))
                       and all(idx(w, j) == idx(w, j + p) for j in range(1, n - p))]
            assert [p for p in range(1, n) if is_local_period(w, p)] == periods
            assert minimal_period(w) == (periods[0] if periods else None)
            for f in factors:
                k = len(f)
                occurs = any(all(gen(w, s + r) == gen(f, r + 1) for r in range(k))
                             and all(idx(w, s + r) == idx(f, r + 1) for r in range(k - 1))
                             for s in range(1, n - k + 2))
                assert contains_factor(w, f) == occurs


class TestExtensions:
    def test_extension_shape(self, periodic_word):
        e = extend(periodic_word, 0, 9)
        assert len(e) == 10
        assert minimal_period(e) == minimal_period(periodic_word)
        assert contains_factor(e, periodic_word)

    def test_identity_extension(self, periodic_word):
        assert extend(periodic_word, -1, len(periodic_word)) == periodic_word

    def test_period_invariance(self, periodic_word):
        e = extend(periodic_word, 3, len(periodic_word) + 3)
        assert minimal_period(e) == 3

    def test_divides_characterization_fuzz(self):
        rng = random.Random(101)
        mixed = Alphabet.of(a=2, b=3)
        for _ in range(1000):
            w = random_periodic_word(rng, mixed)
            p = minimal_period(w)
            assert p is not None
            l = rng.randint(1, 3 * len(w))
            # is_period raises if the extension witness ever disagrees
            assert is_period(w, l) == (l % p == 0)

    def test_two_equal_submonomials_force_divisible_offset(self):
        # equal factors of height >= the minimal period sit at offsets
        # divisible by it
        rng = random.Random(55)
        for _ in range(300):
            w = random_periodic_word(rng, BINARY)
            p = minimal_period(w)
            n = len(w)
            if p is None or n < p + 2:
                continue
            r = rng.randint(p, n - 1)
            factors = {}
            for start in range(1, n - r + 2):
                f = w.factor(start, start + r - 1)
                factors.setdefault(f, []).append(start)
            for starts in factors.values():
                for i, j in zip(starts, starts[1:]):
                    assert (j - i) % p == 0


class TestAvoidance:
    def test_at_most_one_index2_counts(self):
        counts = closed_set_counts(example_at_most_one_index2(), 50)
        assert all(counts[n] == n for n in range(1, 51))

    def test_sharpness_of_cubic_bound_hypothesis(self):
        # counts[d] = d violates the "at most d-1" hypothesis at every d and
        # the counts are unbounded
        counts = closed_set_counts(example_at_most_one_index2(), 20)
        assert all(counts[d] > d - 1 for d in range(3, 21))
        assert counts[20] > counts[10]

    def test_at_most_one_index2_brute_cross_check(self):
        sys = example_at_most_one_index2()
        for h in range(7):
            assert closed_set_counts(sys, h)[h] == \
                sum(1 for _ in enumerate_avoiding_words(sys, h))

    def test_forbid_height_one(self):
        sys = AvoidanceSystem(BINARY, (parse_branch_word("a", BINARY),))
        counts = closed_set_counts(sys, 5)
        assert counts.values == (1, 0, 0, 0, 0, 0)

    def test_fibonacci_factor_system(self):
        sys = AvoidanceSystem(BINARY, (parse_branch_word("a:1 a:1 a", BINARY),))
        counts = closed_set_counts(sys, 10)
        assert counts.values[:6] == (1, 1, 2, 3, 5, 8)
        assert all(counts[n] == counts[n - 1] + counts[n - 2] for n in range(2, 11))

    def test_transfer_matrix_matches_brute_force(self):
        rng = random.Random(77)
        for alphabet in (Alphabet.of(a=2), Alphabet.of(a=2, b=1), Alphabet.of(a=3, b=1),
                         Alphabet.of(a=2, b=2, c=1)):
            letters = [(g, i) for g in alphabet.generators for i in range(1, g.arity + 1)]
            height = 6 if len(letters) <= 4 else 5  # at most 2048 words per height
            for _ in range(12):
                words = [BranchWord(tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
                         for _ in range(rng.randint(1, 3))]
                caps = {(g.name, i): rng.randint(0, 2) for g, i in letters if rng.random() < 0.4}
                sys = AvoidanceSystem(alphabet, tuple(words), caps)
                counts = closed_set_counts(sys, height)
                for h in range(height + 1):
                    assert counts[h] == sum(1 for _ in enumerate_avoiding_words(sys, h))

    @pytest.mark.parametrize("factors", [
        ("a:1 b", "a:2 a:1 b"),
        # a:1 b:1 ends a proper prefix of the second factor's patterns
        ("a:1 b", "a:2 a:1 b:1 a"),
        ("b:1 b", "a:1 b:1 b:1 a:2 a"),
    ])
    def test_factor_inside_another_factor(self, factors):
        mixed = Alphabet.of(a=2, b=1)
        sys = AvoidanceSystem(mixed, tuple(parse_branch_word(f, mixed) for f in factors))
        counts = closed_set_counts(sys, 8)
        for h in range(9):
            assert counts[h] == sum(1 for _ in enumerate_avoiding_words(sys, h))

    def test_height_12_factor_to_height_40_within_budget(self):
        # one height-12 factor to height 40 took about 116 s when the states
        # were windows of the last 11 letters (about 3**11 of them)
        mixed = Alphabet.of(a=2, b=1)
        factor = parse_branch_word("a:1 a:2 b:1 a:1 a:1 a:2 b:1 a:2 a:1 b:1 a:1 a", mixed)
        start = time.perf_counter()
        counts = closed_set_counts(AvoidanceSystem(mixed, (factor,)), 40)
        assert time.perf_counter() - start < 2.0
        free = closed_set_counts(AvoidanceSystem(mixed, ()), 13)
        assert counts[:12] == free[:12]
        # the factor itself, then 4 words with it at the start and 3 after one letter
        assert (counts[12], counts[13]) == (free[12] - 1, free[13] - 7)
        assert counts[40] == 8104233392143938639  # as the window states counted it

    def test_negative_height_is_an_error(self):
        with pytest.raises(BranchError, match="max_height must be nonnegative"):
            closed_set_counts(example_at_most_one_index2(), -1)

    def test_cubic_bound_property_small(self):
        rng = random.Random(404)
        found = 0
        trials = 0
        while found < 20 and trials < 400:
            trials += 1
            sys = _random_factor_system(rng)
            counts = closed_set_counts(sys, 40)
            good_d = [d for d in range(3, 11) if counts[d] <= d - 1]
            if not good_d:
                continue
            found += 1
            for d in good_d:
                bound = (d - 1) ** 3
                assert all(counts[h] <= bound for h in range(d, 41))
        assert found == 20

    def test_enumeration_leaves_no_cyclic_garbage(self):
        gc.disable()
        try:
            gc.collect()
            assert sum(1 for _ in enumerate_avoiding_words(example_at_most_one_index2(), 6)) == 6
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_factor_closure(self):
        # avoiding sets are closed under taking factors (submonomials)
        sys = AvoidanceSystem(BINARY, (parse_branch_word("a:1 a:1 a", BINARY),),
                              {("a", 2): 1})
        for h in range(2, 6):
            for w in enumerate_avoiding_words(sys, h):
                for start in range(1, h + 1):
                    for stop in range(start, h + 1):
                        f = w.factor(start, stop)
                        assert any(f == v for v in enumerate_avoiding_words(sys, len(f)))


def _random_factor_system(rng: random.Random) -> AvoidanceSystem:
    alphabet = rng.choice([BINARY, Alphabet.of(a=2, b=1), Alphabet.of(a=3)])
    words = []
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(1, 3)
        letters = []
        for _ in range(length):
            g = rng.choice(alphabet.generators)
            letters.append((g, rng.randint(1, g.arity)))
        words.append(BranchWord(tuple(letters)))
    return AvoidanceSystem(alphabet, tuple(words))
