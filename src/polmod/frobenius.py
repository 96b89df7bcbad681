"""Characters, isotypic decompositions, and bigraded character series.

The symmetric group acts on a polarization module by permuting columns of
the variable matrix; each multidegree component is stable. Traces are read
off a reduced echelon basis with single dictionary lookups: expanding a
vector in such a basis just evaluates it at the pivots, so the trace of a
permutation is the sum over basis rows of the row's coefficient at the
permuted pivot.

A FrobeniusSeries collects, per irreducible, the integer multiplicities
over multidegrees and expands them in Schur polynomials of the
degree-tracking variables by an integer inverse-Kostka solve
(symfunc.schur_coefficients). The multiplicities are symmetric in those
variables exactly when the module is stable under the row-mixing
operators, which the closure guarantees; the expansion checks it, and so
doubles as a structural sanity check.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from operator import mul

from .errors import ConsistencyError, NotSymmetric, UsageError
from .polyring import Permutation
from .rationals import QQ, as_int, rational_to_json, rational_to_string
from .symfunc import (
    SymSeries,
    cycle_types,
    is_partition,
    mn_character,
    partitions_of,
    schur_coefficients,
    schur_dimension,
    schur_to_h,
    syt_count,
)


@cache
def _class_inverses(r):
    """The compiled inverses of ring r's cycle-type representatives."""
    return {
        ct.representative: Permutation(r, ct.representative).inverse()
        for ct in cycle_types(r.n)
    }


def component_character(module, d, images):
    """Trace of the column permutation (image tuple) on component V_d.

    The row with pivot m contributes its coefficient at sigma^-1 m, so
    under the identity every row contributes 1 and the trace is the
    dimension.
    """
    comp = module.components.get(tuple(d))
    if comp is None or not comp.dimension:
        return 0
    r = module.ring
    images = tuple(images)
    if images == tuple(range(1, r.n + 1)):
        return comp.dimension
    inv = _class_inverses(r).get(images) or Permutation(r, images).inverse()
    total, den = comp.trace(lambda code: r.permute_code(code, inv))
    if total % den:
        raise ConsistencyError(
            "non-integral character value %s on component %s"
            % (rational_to_string(QQ(total, den)), (tuple(d),))
        )
    return total // den


@cache
def _weighted_characters(n):
    """((lam, (class size * chi^lam(class) for each cycle type)), ...) over
    the partitions lam of n, classes in cycle_types(n) order."""
    cts = cycle_types(n)
    return tuple(
        (lam, tuple(ct.size * mn_character(lam, ct.parts) for ct in cts))
        for lam in partitions_of(n)
    )


def component_isotype(module, d):
    """Multiplicities {irreducible label: count} of V_d, by character theory.

    Labels are partitions of n; each multiplicity is the dot product of the
    component's traces with a class-size-weighted character row, over n!.
    Non-integral or negative multiplicities mean the span is not actually
    stable (or the engine is broken) and raise.
    """
    n = module.n
    values = [
        component_character(module, d, ct.representative) for ct in cycle_types(n)
    ]
    order = factorial(n)
    out = {}
    for lam, row in _weighted_characters(n):
        s = sum(map(mul, row, values))
        if s % order != 0:
            raise ConsistencyError(
                "fractional multiplicity %s/%s for %s on component %s"
                % (s, order, lam, tuple(d))
            )
        m = s // order
        if m < 0:
            raise ConsistencyError(
                "negative multiplicity %d for %s on component %s"
                % (m, lam, tuple(d))
            )
        if m:
            out[lam] = m
    return out


# ---------------------------------------------------------------------------
# bigraded series


def _lambda_sort_key(lam):
    # decreasing lex within a fixed size puts the trivial label first
    return tuple(-p for p in lam)


class FrobeniusSeries:
    """Sum of coeff * s_mu(degree variables) * s_lambda(permutation side)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            for (mu, lam), q in coeffs.items():
                self.add_term(mu, lam, q)

    def add_term(self, mu, lam, q):
        key = (tuple(mu), tuple(lam))
        s = self.coeffs.get(key, QQ(0)) + QQ(q)
        if s:
            self.coeffs[key] = s
        else:
            self.coeffs.pop(key, None)

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusSeries)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def group_by_lambda(self):
        """[(lambda, SymSeries over mu)] with the trivial label first."""
        groups = {}
        for (mu, lam), q in self.coeffs.items():
            groups.setdefault(lam, SymSeries("schur")).add_term(mu, q)
        return sorted(groups.items(), key=lambda kv: _lambda_sort_key(kv[0]))

    def dimension(self, ell):
        total = 0
        for (mu, lam), q in self.coeffs.items():
            total += as_int(q) * syt_count(lam) * schur_dimension(mu, ell)
        return total

    def to_json_list(self):
        items = sorted(
            self.coeffs.items(),
            key=lambda kv: (_lambda_sort_key(kv[0][1]), sum(kv[0][0]), kv[0][0]),
        )
        return [
            {"mu": list(mu), "lambda": list(lam), "coeff": rational_to_json(q)}
            for (mu, lam), q in items
        ]

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for lam, series in self.group_by_lambda():
            wname = "s[%s]" % ",".join(map(str, lam))
            if len(series.coeffs) == 1:
                ((mu, q),) = series.coeffs.items()
                if q > 0:
                    head = "" if q == 1 else rational_to_string(q) + " "
                    qname = "" if not mu else "s[%s] " % ",".join(map(str, mu))
                    pieces.append("%s%s%s" % (head, qname, wname))
                    continue
            pieces.append("(%s) %s" % (series, wname))
        return " + ".join(pieces)

    def __repr__(self):
        return "<FrobeniusSeries n=%d: %s>" % (self.n, self)


def frobenius_series(module):
    """Bigraded character series of a computed module, fully exact.

    Per irreducible lambda, the multiplicities {d: m} over multidegrees go
    straight to symfunc.schur_coefficients; no polynomial is built. The
    result passes a consistency gate: multiplicities must come out as
    nonnegative integers, symmetric in the degree variables, and the series
    must account for the whole module dimension. Anything else means the
    span is not stable or the character arithmetic went wrong, and raises
    ConsistencyError instead of returning a result.
    """
    per_lambda = {}
    for d in module.sorted_degrees():
        for lam, m in component_isotype(module, d).items():
            per_lambda.setdefault(lam, {})[d] = m
    out = FrobeniusSeries(module.n)
    for lam, counts in per_lambda.items():
        try:
            schur = schur_coefficients(counts, module.ell)
        except NotSymmetric as exc:
            raise ConsistencyError(
                "multiplicities of %s over multidegrees are not symmetric: %s"
                % (lam, exc)
            ) from exc
        for mu, c in schur.items():
            out.add_term(mu, lam, c)
    _check_series(out, module)
    return out


def _check_series(fs, module):
    for (mu, lam), q in fs.coeffs.items():
        if QQ(q).denominator != 1:
            raise ConsistencyError(
                "non-integral multiplicity %s at (mu=%s, lambda=%s)" % (q, mu, lam)
            )
        if q < 0:
            raise ConsistencyError(
                "negative multiplicity %s at (mu=%s, lambda=%s)" % (q, mu, lam)
            )
    if fs.dimension(module.ell) != module.total_dimension():
        raise ConsistencyError(
            "series dimension %s does not match the module dimension %s"
            % (fs.dimension(module.ell), module.total_dimension())
        )


def hilbert_series(module):
    """Dimension series over multidegrees, expanded in Schur polynomials.

    The component dimensions are symmetric in the degree variables for a
    GL_ell-stable module; symfunc.schur_coefficients raises NotSymmetric
    when they are not.
    """
    return SymSeries("schur", schur_coefficients(module.dims(), module.ell))


def hilbert_series_h(module):
    return schur_to_h(hilbert_series(module))


# ---------------------------------------------------------------------------
# closed-form predictions


def _valid_lambda(lam):
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam if is_partition(lam) else None


def _add_interval(out, lo, hi, lam, ell):
    """Add sum_{j=lo}^{hi} s_j(q) * s_lam(w); j = 0 contributes 1."""
    lam = _valid_lambda(lam)
    if lam is None:
        return
    for j in range(lo, hi + 1):
        mu = () if j == 0 else (j,)
        if len(mu) <= ell:
            out.add_term(mu, lam, 1)


def oracle_series(kind, *, n, ell, d=None, a=None, b=None, c=None):
    """Closed-form bigraded series for the solved generator shapes.

    kinds: e1_power, p_d, e_d, family_A, family_B (need d);
    deg2 (needs a, b); deg3 (needs a, b, c).
    """
    if n < 1 or ell < 1:
        raise UsageError("need n >= 1 and ell >= 1")
    out = FrobeniusSeries(n)
    if kind in ("e1_power", "p_d", "e_d", "family_A", "family_B"):
        if d is None or d < 1:
            raise UsageError("kind %r needs a degree d >= 1" % kind)
    if kind == "e1_power":
        _add_interval(out, 0, d, (n,), ell)
    elif kind == "p_d":
        _add_interval(out, 0, d, (n,), ell)
        _add_interval(out, 1, d - 1, (n - 1, 1), ell)
    elif kind == "e_d":
        if d > n:
            raise UsageError(
                "elementary generator of degree %d vanishes for n = %d" % (d, n)
            )
        for i in range(0, d // 2 + 1):
            _add_interval(out, i, d - i, (n - i, i), ell)
    elif kind == "family_A":
        _add_interval(out, 0, d, (n,), ell)
        _add_interval(out, 1, d, (n - 1, 1), ell)
    elif kind == "family_B":
        if n < 2:
            raise UsageError("the difference family needs n >= 2")
        _add_interval(out, 0, d - 1, (n,), ell)
        _add_interval(out, 1, d, (n - 1, 1), ell)
    elif kind == "deg2":
        if a is None or b is None:
            raise UsageError("deg2 needs coefficients a, b")
        from .exceptions import classify

        tag = classify(2, (a, b), n)
        _add_interval(out, 0, 2, (n,), ell)
        if tag == "P2":
            _add_interval(out, 1, 1, (n - 1, 1), ell)
    elif kind == "deg3":
        if a is None or b is None or c is None:
            raise UsageError("deg3 needs coefficients a, b, c")
        from .exceptions import classify

        tag = classify(3, (a, b, c), n)
        _add_interval(out, 0, 3, (n,), ell)
        if tag != "P1_CUBED":
            _add_interval(out, 1, 2, (n - 1, 1), ell)
        if tag == "H3":
            _add_interval(out, 2, 2, (n,), ell)
    else:
        raise UsageError("unknown oracle kind %r" % kind)
    return out
