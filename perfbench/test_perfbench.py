"""Tests of the benchmark's own references, checks and self-time arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import random

import pytest

import launcher
import reference as ref
import workloads


def test_closed_forms_small_values():
    assert ref.ex53_1_dims(6) == [0, 1, 1, 2, 4, 8, 16]
    assert ref.fibonacci_dims(8) == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert ref.ex53_3_dims(6) == [0, 1, 1, 2, 2, 2, 2]
    assert ref.fuss_catalan_dims(2, 7) == [0, 1, 1, 2, 5, 14, 42, 132]
    assert ref.fuss_catalan_dims(3, 9) == [0, 1, 0, 1, 0, 3, 0, 12, 0, 55]


def test_partition_numbers():
    assert ref.partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert ref.partition_numbers(100)[100] == 190569292


def test_floor_powers():
    assert [ref.floor_power(n, 3, 2) for n in (1, 2, 4, 10, 99)] == [1, 2, 8, 31, 985]
    dims = ref.floorpow_dims(3, 2, 50)
    assert all(sum(dims[:n + 1]) == ref.floor_power(n, 3, 2) for n in range(1, 51))
    # r = 5/2: q = 3/4, floor(16^(3/4)) = 8
    assert ref.staircase_dims(5, 2, 16)[:3] == [1, 2, 1 + 2 + 0]
    assert ref.staircase_dims(5, 2, 16)[16] == 1 + 16 + 7 * 8 // 2


def _brute_words(letters, forbidden, max_weight):
    counts = [0] * (max_weight + 1)
    for length in range(max_weight + 1):
        for word in itertools.product(letters, repeat=length):
            w = "".join(word)
            weight = sum(letters[x] for x in w)
            if weight <= max_weight and not any(f in w for f in forbidden):
                counts[weight] += 1
    return counts


def test_avoiding_word_counts_against_enumeration():
    assert ref.avoiding_word_counts({"a": 1, "b": 1}, [], 5) == [1, 2, 4, 8, 16, 32]
    assert ref.avoiding_word_counts({"a": 1, "b": 1}, ["ba"], 6) == [1, 2, 3, 4, 5, 6, 7]
    for letters, forbidden in (({"a": 1, "b": 2}, ["aab", "bba"]),
                               ({"a": 1, "b": 2}, ["bbaa", "bbb"]),
                               ({"A": 1, "B": 1, "C": 1}, ["BA", "CA", "CB", "BBBB"])):
        assert ref.avoiding_word_counts(letters, forbidden, 9) == \
            _brute_words(letters, forbidden, 9)


def test_operadized_dims_layout():
    names, forbidden = ["x1", "x2"], [("x2", "x1")]
    # sorted words x1^i x2^j: l + 1 of length l, placed at arity 2 + l
    assert ref.operadized_dims(names, forbidden, 6) == [0, 1, 1, 2, 3, 4, 5]


def test_polynomial_algebra_series_is_seed_independent():
    dims = {tuple(ref.algebra_dims(*ref.polynomial_algebra(random.Random(s), 3), 30))
            for s in range(8)}
    assert len(dims) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_inputs_have_the_reference_dims(seed):
    mono = pytest.importorskip("oplab.monomial")
    alg = pytest.importorskip("oplab.algebra")
    from oplab.constructions import operadize

    rng = random.Random(seed)
    for factors in (["aab", "bba"], ["bbaa", "bbb"], ["abab", "bba"]):
        p = mono.parse_presentation(ref.chain_presentation(rng, factors))
        expected = ref.chain_dims(factors, 11)
        assert list(mono.dim_by_arity(p, 11, engine="brute").values) == expected
        assert list(mono.dim_by_arity(p, 11, engine="dp").values) == expected
    names, forbidden = ref.polynomial_algebra(rng, 3)
    a = alg.parse_algebra(ref.algebra_text(names, forbidden))
    assert list(alg.hilbert_dims(a, 12).values) == ref.algebra_dims(names, forbidden, 12)
    p = operadize(a)
    assert list(mono.dim_by_arity(p, 15, engine="brute").values) == \
        ref.operadized_dims(names, forbidden, 15)


def test_rational_and_holonomic_generators():
    assert ref.rational_series([1], [1, -1, -1], 7) == [1, 1, 2, 3, 5, 8, 13, 21]
    assert ref.poly_gcd_degree([1, -1], [1, 0, -1]) == 1  # 1 - z divides 1 - z^2
    assert ref.poly_gcd_degree([1, 1], [1, -1]) == 0
    rng = random.Random(5)
    num, den, coeffs = ref.random_rational(rng, 30)
    assert den[0] == 1 and len(den) == 4 and len(num) == 3
    assert ref.poly_gcd_degree(num, den) == 0
    assert ref.annihilates([[1], [-1], [-1]], ref.fibonacci_dims(30), 2)
    assert not ref.annihilates([[1], [-1]], ref.fibonacci_dims(30), 1)
    c = ref.random_holonomic(rng, 40)
    assert len(c) == 41


def test_output_checks():
    table = "index,dim,partial_sum,log_n_partial_sum\n0,0,0,\n1,1,1,\n2,1,2,1.0\n"
    assert workloads.dims_equal([0, 1, 1])(table) is None
    assert "index 2" in workloads.dims_equal([0, 1, 2])(table)
    assert "partial sum" in workloads.dims_equal([0, 1, 1])(table.replace("2,1,2,", "2,1,3,"))
    out = ("recurrence for stdin: order=2 degree=0 p0=[1] p1=[-1] p2=[-1] "
           "window=2..20 (holdout verified)\n")
    assert workloads.recurrence_check(ref.fibonacci_dims(40), 2)(out) is None
    assert workloads.recurrence_check(ref.fibonacci_dims(40), 1)(out) is not None
    assert workloads.recurrence_check(ref.ex53_1_dims(40), 2)(out) is not None
    fit = "rational fit for stdin: numerator=[1] denominator=[1, -1, -1] (holdout verified)\n"
    assert workloads.rational_check([1], [1, -1, -1])(fit) is None
    assert workloads.rational_check([1], [1, -1, 1])(fit) is not None
    assert workloads.sweep_check(2, 4)("relations\n# dichotomy holds\n") is not None


def test_covered_merges_and_clips():
    assert launcher.covered(0.0, 10.0, []) == 0.0
    assert launcher.covered(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5.0)
    assert launcher.covered(0.0, 10.0, [(-5, 2), (9, 20)]) == pytest.approx(3.0)
    assert launcher.covered(0.0, 10.0, [(11, 12)]) == 0.0


def test_self_times_subtract_direct_children_only():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["monomial.gapcheck", 1.0, 6.0, 0],
        ["monomial.dp", 2.0, 5.0, 1],
        ["series.gk_estimate", 7.0, 8.0, 0],
    ]
    assert launcher.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    summary = launcher.summarize(spans, {"trees.divides.calls": 7})
    assert summary["cli.self_s"] == pytest.approx(4.0)
    assert summary["monomial.dp.calls"] == 1
    assert summary["monomial.dp.max_s"] == pytest.approx(3.0)
    assert summary["inproc_s"] == pytest.approx(10.0)
    assert summary["trees.divides.calls"] == 7
    # self times of a task add up to its in-process time
    assert sum(v for k, v in summary.items() if k.endswith(".self_s")) == pytest.approx(10.0)


def test_tracer_records_nested_spans_and_counts():
    tracer = launcher.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    def gen(n):
        yield from range(n)

    traced_inner = launcher._wrap(tracer, inner, "monomial.dp", launcher.SPAN)
    traced_outer = launcher._wrap(tracer, outer, "monomial.gapcheck", launcher.SPAN)
    counted = launcher._wrap(tracer, inner, "trees.divides", launcher.COUNT)
    stepped = launcher._wrap(tracer, gen, "monomial.enumerate_irr", launcher.GENERATOR)
    assert traced_outer(1) == 4
    assert counted(1) == 2 and counted(2) == 3
    assert list(stepped(3)) == [0, 1, 2]
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["monomial.gapcheck", "monomial.dp"]
    assert tracer.spans[1][3] == 0  # the dp span's parent is the gapcheck span
    assert names.count("monomial.enumerate_irr") == 4  # three items and the final stop
    assert tracer.counts["trees.divides.calls"] == 2
    assert tracer.counts["monomial.enumerate_irr.yielded"] == 3
    assert not tracer.stack
