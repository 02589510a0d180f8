"""Computer algebra for finitely presented nonsymmetric monomial operads.

Core pieces: tree monomials and grafting (:mod:`oplab.trees`), the sort key
of relations and normal forms (:mod:`oplab.order`), monomial-operad
presentations with two enumeration engines (:mod:`oplab.monomial`),
single-branched words and periodicity (:mod:`oplab.branch`), graded
monomial algebras (:mod:`oplab.algebra`), algebra-to-operad constructions
(:mod:`oplab.constructions`), and generating-series analysis
(:mod:`oplab.series`).  The ``oplab`` console script exposes all pipelines.
"""

from .algebra import (
    MonomialAlgebraPresentation,
    adjoin_polynomial_variables,
    example62_dims,
    example62_monomial_model,
    floor_power_dims,
    free_algebra_dims,
    hilbert_dims,
    partition_dims,
    polynomial_ring_dims,
    warfield_dims,
    warfield_monomial_model,
)
from .branch import (
    AvoidanceSystem,
    BranchWord,
    closed_set_counts,
    extend,
    from_branch_word,
    is_local_period,
    is_period,
    minimal_period,
    to_branch_word,
)
from .constructions import (
    OperadDimProfile,
    min_envelope_dims,
    operadization_dims,
    operadize,
    symmetric_envelope_dims,
)
from .dims import DimSeries
from .monomial import (
    MonomialOperadPresentation,
    dim_by_arity,
    dim_by_weight,
    enumerate_irr,
    gap_dichotomy_check,
    is_normal_form,
)
from .order import TreeOrder
from .series import (
    SeriesWindow,
    exponential_transform,
    fit_rational,
    gk_estimate,
    guess_holonomic,
    zero_run_report,
)
from .trees import (
    LEAF,
    Alphabet,
    Generator,
    PathSequence,
    TreeMonomial,
    compose,
    divides,
    format_monomial,
    from_path_sequence,
    parse_monomial,
    submonomials,
    to_path_sequence,
)

__version__ = "0.1.0"
