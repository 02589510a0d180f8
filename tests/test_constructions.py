"""Algebra-to-operad constructions and their dimension identities."""

import random

import pytest

from oplab import (
    DimSeries,
    MonomialAlgebraPresentation,
    dim_by_arity,
    hilbert_dims,
    is_normal_form,
    min_envelope_dims,
    operadization_dims,
    operadize,
    parse_monomial,
    partition_dims,
    symmetric_envelope_dims,
)
from oplab.constructions import ConstructionError, NonConnectedError
from oplab.trees import Alphabet, TreeMonomial, compose


def fib_algebra():
    return MonomialAlgebraPresentation(("x1", "x2"), [("x1", "x1")], name="fib")


class TestOperadize:
    def test_fibonacci_presentation(self):
        p = operadize(fib_algebra())
        alphabet = p.alphabet
        assert [(g.name, g.arity) for g in alphabet.generators] == [("a", 2)]
        expected = {
            parse_monomial("a(a(*,*),a(*,*))", alphabet),
            parse_monomial("a(a(a(*,*),*),*)", alphabet),
        }
        assert set(p.relations) == expected

    def test_two_relation_presentation(self):
        a = MonomialAlgebraPresentation(("x1", "x2"), [("x2", "x1"), ("x2", "x2")])
        p = operadize(a)
        alphabet = p.alphabet
        expected = {
            parse_monomial("a(a(*,*),a(*,*))", alphabet),
            parse_monomial("a(*,a(a(*,*),*))", alphabet),
            parse_monomial("a(*,a(*,a(*,*)))", alphabet),
        }
        assert set(p.relations) == expected

    def test_free_two_variables(self):
        a = MonomialAlgebraPresentation(("x1", "x2"))
        p = operadize(a)
        assert len(p.relations) == 1
        dims = dim_by_arity(p, 12)
        assert all(dims[n] == 2 ** (n - 2) for n in range(2, 13))

    def test_needs_two_variables(self):
        with pytest.raises(ConstructionError):
            operadize(MonomialAlgebraPresentation(("x",)))

    def test_normal_forms_are_single_branched(self):
        from oplab import enumerate_irr
        p = operadize(fib_algebra())
        for t in enumerate_irr(p, 5):
            assert t.weight == t.height

    def test_dimension_formula_random_sweep(self):
        rng = random.Random(42)
        for _ in range(6):
            nvars = rng.randint(2, 3)
            variables = tuple(f"x{i}" for i in range(nvars))
            words = []
            for _ in range(rng.randint(0, 3)):
                words.append(tuple(rng.choices(variables, k=rng.randint(2, 3))))
            a = MonomialAlgebraPresentation(variables, words)
            p = operadize(a)
            engine = dim_by_arity(p, 15).values
            formula = operadization_dims(hilbert_dims(a, 15), nvars, 15).values
            assert engine == formula

    def test_relation_composites_stay_in_ideal(self):
        # composing any relation with the generator never creates a normal
        # form: the relation image generates an ideal
        p = operadize(fib_algebra())
        gen = TreeMonomial.node(p.alphabet, "a")
        for r in p.relations:
            for i in range(1, r.arity + 1):
                assert not is_normal_form(p, compose(r, i, gen))
            for j in range(1, gen.arity + 1):
                assert not is_normal_form(p, compose(gen, j, r))


class TestGkPreservation:
    def test_quadratic_growth_algebra(self):
        from oplab import gk_estimate
        # words x^i y^j survive: dims n+1, quadratic partial sums
        a = MonomialAlgebraPresentation(("x", "y"), [("y", "x")])
        algebra_est = gk_estimate(hilbert_dims(a, 4000))
        operad_est = gk_estimate(
            operadization_dims(hilbert_dims(a, 2000), 2, 2002))
        assert abs(algebra_est.slope - 2.0) < 0.1
        assert abs(operad_est.slope - algebra_est.slope) < 0.1

    def test_exponential_growth_flagged_on_both_sides(self):
        from oplab import gk_estimate
        a = MonomialAlgebraPresentation(("x", "y"))
        assert gk_estimate(hilbert_dims(a, 300)).exp_flag
        assert gk_estimate(
            operadization_dims(hilbert_dims(a, 300), 2, 302)).exp_flag


class TestEnvelopes:
    def test_min_envelope_shifts(self):
        dims = min_envelope_dims(partition_dims(8))
        assert dims.values == (0,) + partition_dims(8).values

    def test_min_envelope_unit(self):
        dims = min_envelope_dims(DimSeries((1, 0, 0), "degree"))
        assert dims.values == (0, 1, 0, 0)

    def test_symmetric_envelope_scales(self):
        dims = symmetric_envelope_dims(partition_dims(6))
        p = partition_dims(6).values
        assert dims.values == (0,) + tuple((n + 1) * p[n] for n in range(7))

    def test_symmetric_envelope_unit(self):
        dims = symmetric_envelope_dims(DimSeries((1, 0, 0), "degree"))
        assert dims.values == (0, 1, 0, 0)

    def test_non_connected_rejected(self):
        bad = DimSeries((0, 1, 1), "degree")
        with pytest.raises(NonConnectedError):
            min_envelope_dims(bad)
        with pytest.raises(NonConnectedError):
            symmetric_envelope_dims(bad)
        with pytest.raises(NonConnectedError):
            operadization_dims(bad, 2, 10)


class TestOperadizationFormula:
    def test_support_pattern_d2(self):
        dims = operadization_dims(hilbert_dims(fib_algebra(), 10), 2, 12)
        assert dims[1] == 1 and dims[2] == 1
        fib = hilbert_dims(fib_algebra(), 10)
        for l in range(1, 11):
            assert dims[l + 2] == fib[l]

    def test_support_pattern_d3(self):
        a = MonomialAlgebraPresentation(("x", "y", "z"))
        dims = operadization_dims(hilbert_dims(a, 5), 3, 13)
        assert dims[1] == 1 and dims[3] == 1
        assert dims[2] == 0 and dims[4] == 0
        for l in range(1, 6):
            assert dims[2 * l + 3] == 3 ** l
        # max_arity 0, 1, d - 1 and d: below the first chain of weight 2
        for max_arity, values in ((0, (0,)), (1, (0, 1)), (2, (0, 1, 0)), (3, (0, 1, 0, 1))):
            assert operadization_dims(hilbert_dims(a, 5), 3, max_arity).values == values
