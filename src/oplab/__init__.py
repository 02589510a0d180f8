"""Computer algebra for finitely presented nonsymmetric monomial operads.

Core pieces: tree monomials and grafting (:mod:`oplab.trees`), the sort key
of relations and normal forms (:mod:`oplab.order`), monomial-operad
presentations with two enumeration engines (:mod:`oplab.monomial`; the
``brute`` oracle is :mod:`oplab.brute`), single-branched words and
periodicity (:mod:`oplab.branch`), graded monomial algebras
(:mod:`oplab.algebra`), algebra-to-operad constructions
(:mod:`oplab.constructions`), and generating-series analysis
(:mod:`oplab.series`).  The ``oplab`` console script exposes all pipelines.

``import oplab`` loads no submodule: each name below is imported from its
submodule the first time it is looked up (PEP 562), so a program pays only
for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "MonomialAlgebraPresentation",
        "adjoin_polynomial_variables",
        "example62_dims",
        "example62_monomial_model",
        "floor_power_dims",
        "free_algebra_dims",
        "hilbert_dims",
        "partition_dims",
        "polynomial_ring_dims",
        "warfield_dims",
        "warfield_monomial_model",
    ),
    "branch": (
        "AvoidanceSystem",
        "BranchWord",
        "closed_set_counts",
        "extend",
        "from_branch_word",
        "is_local_period",
        "is_period",
        "minimal_period",
        "to_branch_word",
    ),
    "constructions": (
        "min_envelope_dims",
        "operadization_dims",
        "operadize",
        "symmetric_envelope_dims",
    ),
    "dims": ("DimSeries",),
    "monomial": (
        "MonomialOperadPresentation",
        "dim_by_arity",
        "dim_by_weight",
        "enumerate_irr",
        "gap_dichotomy_check",
        "is_normal_form",
    ),
    "order": ("TreeOrder",),
    "series": (
        "exponential_transform",
        "fit_rational",
        "gk_estimate",
        "guess_holonomic",
        "zero_run_report",
    ),
    "trees": (
        "LEAF",
        "Alphabet",
        "Generator",
        "TreeMonomial",
        "compose",
        "divides",
        "format_monomial",
        "from_path_sequence",
        "parse_monomial",
        "submonomials",
        "to_path_sequence",
    ),
}
_SUBMODULES = ("algebra", "branch", "brute", "constructions", "dims", "linalg",
               "monomial", "order", "series", "trees")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
