"""Graded spans and the polarization-module fixpoint construction.

A GradedSpan keeps, per multidegree, a reduced echelon basis of homogeneous
polynomials: pivots are the graded-lex-greatest monomials and no row
contains another row's pivot. Reduced echelon form is canonical for a
subspace under a fixed monomial order, so the final bases do not depend on
insertion order — determinism comes for free.

Rows are stored as primitive integer vectors, plain {packed monomial code:
int} dicts with content 1 and a positive pivot coefficient, sorted by
decreasing pivot. Such a row is the unique primitive integer multiple of the
rational echelon row with pivot coefficient 1, so rows still compare
directly. Every operator coefficient is an integer falling factorial, so the
closure eliminates fraction-free (w := (a/g) w - (c/g) row with
g = gcd(a, c)) and divides each stored row by its content, and rationals
appear only at the boundary: denominators are cleared when a Poly comes in
and basis rows go out divided by their pivot coefficient. Because every row's monomials are
bounded by its own pivot, a single descending pass over the rows fully
reduces a candidate.

The module builder closes the span of a stable generator family under all
first partial derivatives and all polarization operators by a worklist, with
the polarization order bounded per row by the source-row degree (higher
orders annihilate, so the operator set is finite and the bound is exact).
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .errors import UsageError
from .polyring import Poly, adjacent_transpositions, apply_operator, ring
from .rationals import QQ


class Component:
    """Reduced echelon basis of one graded component, as primitive int rows."""

    __slots__ = ("degree", "pivots", "leads", "rows")

    def __init__(self, degree):
        self.degree = tuple(degree)
        self.pivots = []  # descending packed codes
        self.leads = []  # parallel list of pivot coefficients (positive ints)
        self.rows = []  # parallel list of {code: int}, content 1

    @property
    def dimension(self):
        return len(self.rows)

    def coefficient(self, idx, code):
        """Coefficient of monomial code in row idx scaled to pivot 1 (QQ)."""
        v = self.rows[idx].get(code)
        return QQ(v, self.leads[idx]) if v else 0

    def reduce(self, w):
        """Fully reduce int dict w against the basis, in place; returns w.

        The result is a nonzero integer multiple of the rational reduction.
        """
        pivots = self.pivots
        for idx in range(len(pivots)):
            c = w.get(pivots[idx])
            if c:
                _eliminate(w, self.rows[idx], self.leads[idx], c)
        return w


def _eliminate(w, row, lead, c):
    """w := (lead/g) w - (c/g) row with g = gcd(lead, c), in place.

    c is w's coefficient at row's pivot and lead is row's, so the result has
    no term there; it is a nonzero multiple of the rational elimination.
    """
    g = gcd(lead, c)
    if g != lead:
        a = lead // g
        for code in w:
            w[code] *= a
    if g != 1:
        c //= g
    for code, q in row.items():
        s = w.get(code)
        if s is None:
            w[code] = -c * q
        else:
            s -= c * q
            if s:
                w[code] = s
            else:
                del w[code]


def _make_primitive(row, pivot):
    """Divide an int row by its content, signed so that the pivot coefficient
    is positive, in place; returns that coefficient."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for code in row:
            row[code] //= g
    return row[pivot]


def _integer_terms(terms):
    """The {code: int} multiple of rational terms with denominators cleared."""
    den = lcm(*(int(q.denominator) for q in terms.values()))
    return {
        code: int(q.numerator) * (den // int(q.denominator))
        for code, q in terms.items()
    }


class GradedSpan:
    """Direct sum of graded components with exact span arithmetic."""

    def __init__(self, ell, n, generators_text=None):
        self.ring = ring(ell, n)
        self.components = {}
        self.generators_text = list(generators_text or [])

    @property
    def ell(self):
        return self.ring.ell

    @property
    def n(self):
        return self.ring.n

    def component(self, d):
        d = tuple(d)
        comp = self.components.get(d)
        if comp is None:
            comp = Component(d)
            self.components[d] = comp
        return comp

    def insert(self, f):
        """Insert a homogeneous Poly; True if the span grew."""
        if isinstance(f, Poly):
            if f.is_zero():
                return False
            d = f.multidegree()  # raises NonHomogeneous on bad input
            return _insert_at(self.component(d), _integer_terms(f.terms)) is not None
        raise TypeError("insert expects a Poly")

    def member(self, f):
        """Exact span membership of a homogeneous Poly."""
        if f.is_zero():
            return True
        d = f.multidegree()
        comp = self.components.get(tuple(d))
        if comp is None:
            return False
        return not comp.reduce(_integer_terms(f.terms))

    def sorted_degrees(self):
        return sorted(
            (d for d, comp in self.components.items() if comp.dimension),
            key=lambda d: (sum(d), d),
        )

    def dims(self):
        """{multidegree: dimension}, empty components omitted."""
        return {d: self.components[d].dimension for d in self.sorted_degrees()}

    def total_dimension(self):
        return sum(comp.dimension for comp in self.components.values())

    def component_basis(self, d):
        """Reduced echelon basis of V_d as Poly values (copies)."""
        comp = self.components.get(tuple(d))
        if comp is None:
            return []
        return [
            Poly(self.ring, {code: QQ(v, lead) for code, v in row.items()})
            for lead, row in zip(comp.leads, comp.rows)
        ]

    def copy(self):
        dup = GradedSpan(self.ell, self.n, self.generators_text)
        for d, comp in self.components.items():
            c2 = dup.component(d)
            c2.pivots = list(comp.pivots)
            c2.leads = list(comp.leads)
            c2.rows = [dict(row) for row in comp.rows]
        return dup

    def __eq__(self, other):
        if not isinstance(other, GradedSpan):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        return self.dims() == other.dims() and all(
            self.components[d].rows == other.components[d].rows
            for d in self.dims()
        )

    def to_json_dict(self):
        comps = []
        for d in self.sorted_degrees():
            comp = self.components[d]
            comps.append(
                {
                    "degree": list(d),
                    "dimension": comp.dimension,
                    "basis": [str(f) for f in self.component_basis(d)],
                }
            )
        return {
            "n": self.n,
            "ell": self.ell,
            "generators": list(self.generators_text),
            "dimension": self.total_dimension(),
            "components": comps,
        }


# ---------------------------------------------------------------------------
# generator families


class GeneratorFamily:
    """A stable family of homogeneous generators.

    mode 'orbit': the family is the symmetric-group orbit of the given
    polynomials (closed here by breadth-first application of adjacent
    transpositions). mode 'verbatim': the polynomials are taken as given and
    their span is checked to be stable under the column action.
    """

    def __init__(self, polys, mode="orbit", text=None):
        polys = [f for f in polys if f is not None]
        if not polys:
            raise UsageError("empty generator family")
        self.ring = polys[0].ring
        for f in polys:
            if f.ring is not self.ring:
                raise UsageError("generators live in different rings")
            if not f.is_homogeneous():
                raise UsageError("generator %s is not homogeneous" % f)
        self.mode = mode
        self.text = list(text or [])
        nonzero = [f for f in polys if not f.is_zero()]
        if mode == "orbit":
            self.polys = _orbit_close(nonzero, self.ring.n)
        elif mode == "verbatim":
            self.polys = nonzero
            _check_span_stable(nonzero, self.ring.n)
        else:
            raise UsageError("unknown family mode %r" % mode)

    def is_zero(self):
        return not self.polys


def _orbit_close(polys, n):
    seen = []
    queue = list(polys)
    taus = adjacent_transpositions(n)
    keyset = set()
    while queue:
        f = queue.pop()
        key = frozenset(f.terms.items())
        if key in keyset:
            continue
        keyset.add(key)
        seen.append(f)
        for tau in taus:
            queue.append(f.permute(tau))
    return seen


def _check_span_stable(polys, n):
    if not polys:
        return
    span = GradedSpan(polys[0].ring.ell, n)
    for f in polys:
        span.insert(f)
    for tau in adjacent_transpositions(n):
        for f in polys:
            if not span.member(f.permute(tau)):
                raise UsageError(
                    "family is not stable under the column action "
                    "(offending transposition %s)" % (tau,)
                )


# ---------------------------------------------------------------------------
# closure operators


def _operators(r, degree, use_derive, use_polarize):
    """(target degree, moves, order) of every closure operator on V_degree.

    All first partials by (row i, column j), then the polarizations E[i,k]
    of order p up to the row-k degree, by (k, i, p). The Euler case
    (i == k, p == 1) is skipped: it scales each component and never
    enlarges the span.
    """
    ops = []
    if use_derive:
        for i in range(1, r.ell + 1):
            if degree[i - 1] == 0:
                continue
            dd = degree[: i - 1] + (degree[i - 1] - 1,) + degree[i:]
            for j in range(1, r.n + 1):
                ops.append((dd, r.derivative_moves(i, j), 1))
    if use_polarize:
        for k in range(1, r.ell + 1):
            for i in range(1, r.ell + 1):
                moves = r.polarization_moves(i, k)
                for p in range(1, degree[k - 1] + 1):
                    if i == k and p == 1:
                        continue
                    lowered = list(degree)
                    lowered[k - 1] -= p
                    lowered[i - 1] += 1
                    ops.append((tuple(lowered), moves, p))
    return ops


def _close(span, use_derive, use_polarize):
    """Worklist closure of a span under the selected operator families.

    Pending rows are processed in increasing (|d|, d); every successful
    insertion queues a snapshot of the reduced new row. Later insertions may
    rewrite stored rows (back-substitution), but each rewrite subtracts rows
    that are themselves queued, so the processed snapshots still span the
    final space and the closure argument goes through unchanged.
    """
    r = span.ring
    heap = []
    seq = 0
    for d in sorted(span.components, key=lambda d: (sum(d), d)):
        for row in span.components[d].rows:
            heapq.heappush(heap, (sum(d), d, seq, dict(row)))
            seq += 1

    ops = {}
    while heap:
        _, d, _, terms = heapq.heappop(heap)
        if d not in ops:
            ops[d] = _operators(r, d, use_derive, use_polarize)
        for dd, moves, p in ops[d]:
            out = apply_operator(terms, moves, p)
            if not out:
                continue
            comp = span.component(dd)
            pos = _insert_at(comp, out)
            if pos is not None:
                heapq.heappush(heap, (sum(dd), dd, seq, dict(comp.rows[pos])))
                seq += 1
    return span


def _insert_at(comp, w):
    """Component insert that reports the inserted row's position (or None).

    w is an int dict; it is reduced, made primitive with a positive pivot
    coefficient, and cleared from the pivot column of every earlier row.
    """
    w = comp.reduce(w)
    if not w:
        return None
    pivot = max(w)
    b = _make_primitive(w, pivot)
    for idx in range(len(comp.pivots)):
        if comp.pivots[idx] < pivot:
            break
        row = comp.rows[idx]
        c = row.get(pivot)
        if c:
            _eliminate(row, w, b, c)
            comp.leads[idx] = _make_primitive(row, comp.pivots[idx])
    lo, hi = 0, len(comp.pivots)
    while lo < hi:
        mid = (lo + hi) // 2
        if comp.pivots[mid] > pivot:
            lo = mid + 1
        else:
            hi = mid
    comp.pivots.insert(lo, pivot)
    comp.leads.insert(lo, b)
    comp.rows.insert(lo, w)
    return lo


def derivative_closure(span):
    """Smallest span containing the input, closed under all first partials."""
    return _close(span.copy(), use_derive=True, use_polarize=False)


def polarization_closure(span):
    """Smallest span containing the input, closed under all polarizations."""
    return _close(span.copy(), use_derive=False, use_polarize=True)


def polarization_module(family, ell=None, n=None):
    """The polarization module of a stable family: joint closure fixpoint."""
    if isinstance(family, GeneratorFamily):
        fam = family
    else:
        raise TypeError("expected a GeneratorFamily")
    r = fam.ring
    if ell is not None and ell != r.ell or n is not None and n != r.n:
        raise UsageError("family ring does not match requested (ell, n)")
    span = GradedSpan(r.ell, r.n, fam.text)
    for f in fam.polys:
        span.insert(f)
    return _close(span, use_derive=True, use_polarize=True)
