"""Algebra-to-operad constructions at the presentation and dimension level.

Three passages from a connected graded algebra to an operad:

* min-envelope: arity-n component is the degree-(n-1) part, so the operad
  series is z times the algebra series;
* operadization: a single generator of arity d = #variables with the
  shuffle relations (a o_j a) o_i a (i < j) plus one chain relation per
  forbidden word; the operad is single-branched and its arity dims place
  dim A_l at arity (l+1)d - l;
* symmetric envelope: arity-n component is n copies of degree n-1, so the
  series is z (z H(z))'.

Operadization emits a genuine presentation so the enumeration engines can
verify the dimension formula independently; the other two are implemented
at the dimension level only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .algebra import MonomialAlgebraPresentation
from .dims import DimSeries

if TYPE_CHECKING:
    from .monomial import MonomialOperadPresentation


class ConstructionError(ValueError):
    """Base class for construction errors."""


class NonConnectedError(ConstructionError):
    """The input dimension series is not connected (values[0] != 1)."""


def _require_connected(a_dims: DimSeries) -> None:
    if len(a_dims) == 0 or a_dims[0] != 1:
        raise NonConnectedError("input dims must be connected (values[0] == 1)")


def min_envelope_dims(a_dims: DimSeries) -> DimSeries:
    """Shift the algebra series one slot up: dims[n] = a_dims[n-1], dims[0] = 0."""
    _require_connected(a_dims)
    values = (0,) + a_dims.values
    return DimSeries(values, "arity", exact=a_dims.exact)


def symmetric_envelope_dims(a_dims: DimSeries) -> DimSeries:
    """dims[n] = n * a_dims[n-1]; the series identity is z (z H(z))'."""
    _require_connected(a_dims)
    values = (0,) + tuple(n * v for n, v in enumerate(a_dims.values, start=1))
    return DimSeries(values, "arity", exact=a_dims.exact)


def operadize(a: MonomialAlgebraPresentation) -> MonomialOperadPresentation:
    """Encode a monomial algebra on d >= 2 variables as a single-generator
    single-branched monomial operad.

    Relations: every (a o_j a) o_i a with 1 <= i < j <= d (these force
    normal forms to be right-normal chains), plus the chain
    a o_{i1} a o_{i2} ... o_{ik} a for each forbidden word x_{i1}...x_{ik}.
    """
    # the envelopes work on dims alone and should not load the operad engine
    from .monomial import MonomialOperadPresentation
    from .trees import Alphabet, Generator, TreeMonomial, compose

    d = len(a.variables)
    if d < 2:
        raise ConstructionError("operadization needs at least two variables")
    alphabet = Alphabet((Generator("a", d),))
    gen = TreeMonomial.node(alphabet, "a")
    relations = []
    for j in range(2, d + 1):
        for i in range(1, j):
            relations.append(compose(compose(gen, j, gen), i, gen))
    var_slot = {v: k + 1 for k, v in enumerate(a.variables)}
    for word in a.forbidden:
        chain = gen
        for v in reversed(word):
            chain = compose(gen, var_slot[v], chain)
        relations.append(chain)
    label = f"operadization({a.name})" if a.name else "operadization"
    return MonomialOperadPresentation(alphabet, relations, name=label)


def operadization_dims(a_dims: DimSeries, d: int, max_arity: int) -> DimSeries:
    """The piecewise dimension formula for an operadized algebra.

    dims[1] = 1, dims[(l+1)d - l] = a_dims[l] for l >= 0, zero elsewhere.
    A weight-m chain over one arity-d generator has arity m(d-1) + 1,
    which is (l+1)d - l at m = l+1.
    """
    _require_connected(a_dims)
    if d < 2:
        raise ConstructionError("operadization needs d >= 2")
    values = [0] * (max_arity + 1)
    if max_arity >= 1:
        values[1] = 1
    for l in range(len(a_dims)):
        n = (l + 1) * d - l
        if n > max_arity:
            break
        values[n] = a_dims[l]
    return DimSeries(tuple(values), "arity", exact=a_dims.exact)
