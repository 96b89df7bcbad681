"""Exact engine for polarization modules of symmetric polynomials.

Core layers: polyring (packed-monomial exact polynomials in a matrix of
variables with derivative, polarization, and permutation actions), symfunc
(partitions, characters, symmetric-function expansions and transitions),
closure (graded spans and the module fixpoint), frobenius (isotypic
decompositions, bigraded series, closed-form predictions), exceptions
(degree 2 and 3 classification with its determinant apparatus).

The exceptions layer is imported on first use of it or of one of the names
it exports here, so programs that never classify do not load it.
"""

from .closure import GeneratorFamily, GradedSpan, lift, polarization_module
from .errors import ConsistencyError, NonHomogeneous, NotSymmetric, PolmodError, UsageError, ZeroPolynomial
from .frobenius import FrobeniusSeries, component_character, component_isotype, frobenius_series, hilbert_series, hilbert_series_h, oracle_series
from .polyring import Poly, PolyRing, ring
from .rationals import QQ
from .symfunc import SymSeries, expand_basis, h_to_schur, mn_character, schur_to_h, to_schur

__version__ = "0.1.0"

# the exceptions layer and the names it serves, imported on first use
_LAZY = frozenset(
    (
        "exceptions",
        "aux_poly",
        "build_matrix",
        "classify",
        "det_identity_check",
        "det_T",
        "exception_equation",
        "gcd_form_check",
        "h_gram_check",
        "is_n_exception",
        "rank_lower_bound_check",
    )
)

__all__ = [
    "ConsistencyError",
    "FrobeniusSeries",
    "GeneratorFamily",
    "GradedSpan",
    "NonHomogeneous",
    "NotSymmetric",
    "Poly",
    "PolmodError",
    "PolyRing",
    "QQ",
    "SymSeries",
    "UsageError",
    "ZeroPolynomial",
    "aux_poly",
    "build_matrix",
    "classify",
    "component_character",
    "component_isotype",
    "det_T",
    "det_identity_check",
    "exception_equation",
    "expand_basis",
    "frobenius_series",
    "gcd_form_check",
    "h_gram_check",
    "h_to_schur",
    "hilbert_series",
    "hilbert_series_h",
    "is_n_exception",
    "lift",
    "mn_character",
    "oracle_series",
    "polarization_module",
    "rank_lower_bound_check",
    "ring",
    "schur_to_h",
    "to_schur",
    "__version__",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # not "from . import exceptions", which would look the name up here again
    from importlib import import_module

    exceptions = import_module(".exceptions", __name__)
    value = exceptions if name == "exceptions" else getattr(exceptions, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _LAZY)
