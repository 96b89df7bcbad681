"""Graded spans and the polarization-module fixpoint construction.

A GradedSpan keeps, per multidegree, a reduced echelon basis of homogeneous
polynomials: pivots are the graded-lex-greatest monomials and no row
contains another row's pivot. Reduced echelon form is canonical for a
subspace under a fixed monomial order, so the final bases do not depend on
insertion order — determinism comes for free.

Each component is a Component, the only code that knows how its rows are
stored: primitive integer vectors, plain {packed monomial code: int} dicts
with content 1 and a positive pivot coefficient, sorted by decreasing pivot.
Such a row is the unique primitive integer multiple of the rational echelon
row with pivot coefficient 1, so rows still compare directly. Every operator
coefficient is an integer falling factorial, so the closure eliminates
fraction-free (w := (a/g) w - (c/g) row with g = gcd(a, c)) and divides each
stored row by its content, and rationals appear only at the boundary:
denominators are cleared when a Poly comes in, and basis rows
(Component.basis_terms) and traces (Component.trace) go out divided by their
pivot coefficient. Because every row's monomials are bounded by its own
pivot, a single descending pass over the rows fully reduces a candidate.

During the closure the rows are kept in echelon form only: an inserted row
is not cleared from the earlier rows that hold its pivot. A candidate w is
still reduced fully against the stored rows, so it comes out as a nonzero
multiple of the unique vector of w + span that has no term at any pivot
(the difference of two such vectors lies in the span and has no term at a
pivot, but every nonzero vector of the span has its leading term at one).
Neither the span nor its pivots depend on whether the rows are reduced, so
every candidate, zero test and inserted primitive row is the same as with
reduced rows. Once the worklist is empty, each component is reduced once,
bottom-up (Component.back_substitute): every row is reduced against the
already reduced rows below it, then divided by its content. GradedSpan.insert
runs the same pass on the component it inserts into, so outside the closure
every component is in reduced echelon form.

The polarization module of generators F is the smallest space containing
their orbit under the column action that is closed under every first
partial d/dx[i,j] and every polarization
E[i,k]^(p) = sum_j x[i,j] d^p/dx[k,j]^p. The worklist applies only the
row-1 partial D_1 = d/dx[1,1], the adjacent polarizations E[i,i+1]^(1)
(raising: degree moves up to row i) and E[i+1,i]^(1) (lowering: degree
moves down to row i + 1), E[1,1]^(2), E[1,1]^(3) at ell = 1 only (orders
above the source-row degree annihilate), and the adjacent column
transpositions tau_j = (j j+1), 1 <= j < n. Its fixpoint W, started from F
itself, is closed under the rest, since a space closed under two operators
is closed under their commutator, and a space stable under a permutation
sigma and closed under an operator A is closed under sigma A sigma^-1:

- E[i,k]^(1) for |i - k| >= 2 is an iterated commutator of adjacent ones:
  [E[i,j]^(1), E[j,k]^(1)] = E[i,k]^(1) for i != k, so by induction on
  |i - k| (j = i + 1 or i - 1), W is closed under every E[i,k]^(1), i != k.
  For example E[1,3]^(1) = [E[1,2]^(1), E[2,3]^(1)].
- d/dx[k,1] = [D_1, E[1,k]^(1)] for k >= 2.
- E[1,1]^(3) at ell >= 2, by the identity after step 3 below.
- E[1,1]^(p) for p >= 4: per column, [x d^2, x d^p] = (2 - p) x d^(p+1)
  (d = d/dx[1,j]; columns commute), so summing over j,
  E[1,1]^(p+1) = [E[1,1]^(2), E[1,1]^(p)] / (2 - p) for p >= 3, and by
  induction on p from E[1,1]^(3), W is closed under every E[1,1]^(p).
- W is multigraded, so the diagonal torus of GL_ell acts on it by scalars;
  the exponentials of the locally nilpotent E[i,k]^(1), i != k, are the
  transvections, which with the torus generate GL_ell. So W is GL_ell-stable
  (a finite-dimensional gl_ell-module), in particular under the row swap
  sigma = (1 k), and E[k,k]^(p) = sigma E[1,1]^(p) sigma.
- E[i,k]^(p) = [E[i,k]^(1), E[k,k]^(p)] for i != k.
- The tau_j generate S_n, so W is S_n-stable, and
  d/dx[i,j] = sigma d/dx[i,1] sigma for the column swap sigma = (1 j).

No such argument covers E[1,1]^(3) at ell = 1, so it is applied there.

W is the polarization module M. The set of all partials and polarizations
is stable under conjugation by every column permutation sigma
(sigma d/dx[i,j] sigma^-1 = d/dx[i,sigma(j)], and sigma commutes with every
polarization), so sigma M is a space of the same kind containing the orbit,
and M, the smallest one, is S_n-stable. So M contains F and is closed under
every operator the worklist applies, and W, spanned by images of F under
those operators, lies in M. Conversely, W contains F and is S_n-stable
(step 4), so it contains the orbit of F, and it is closed under every
partial and polarization, so it contains M.

The worklist also skips some applications to single rows. Every queued
snapshot remembers the operator E that created it, if any, and its children
skip:

- every raising E[j,j+1]^(1) when E is lowering, E = E[i+1,i]^(1);
- D_1 when E = E[i,k]^(1) with i != 1, because
  [D_1, E[i,k]^(1)] = delta_{i1} d/dx[k,1];
- also every E[1,1]^(p) when E = E[i,k]^(1) with i != 1 and k != 1,
  because the two operators act on disjoint rows and commute;
- every tau_j when E is a polarization E[i,k]^(1) or E[1,1]^(p), which are
  column-symmetric and commute with every column permutation;
- every tau_j with j >= 2 when E = D_1, because those fix column 1 and
  commute with D_1;
- tau_j when E = tau_j, because tau_j^2 = 1;
- every tau_j with j >= i + 2 when E = tau_i, because the two commute
  (ordered skip);
- tau_j with j <= i - 2 when E = tau_i and tau_j was seen to fix the
  source row t, that is, its candidate from t equalled t (observed skip).
  The transpositions run last and by increasing j, so each such tau_j has
  run on t before tau_i makes a row from it.

A generator row t that tau_1 fixes is also tested against the n-cycle
c = (1 2 ... n); if c fixes t too, t skips tau_2 .. tau_{n-1}
(generator-row skip).

A transposition candidate equal to its source is dropped, as it is already
in W.

Proof that W is still closed under every applied operator. W is the span
of all snapshots. A snapshot s created from a snapshot t by an operator E
is s = a E t + (sum of rows stored in the same component before s was
inserted), and those rows lie in the span of snapshots created before s.
The base case of each induction below is the generator rows, which skip
nothing but the transpositions of the generator-row skip.

1. No lowering E[i+1,i]^(1) is ever skipped, so E W is in W for each.
2. Raising. Claim: A s is in W for every snapshot s and every raising
   A = E[j,j+1]^(1); induction over the order in which snapshots are
   created. A is applied to s unless s was created from t by a lowering
   E = E[i+1,i]^(1). The first-order polarizations satisfy the gl_ell
   relations, so [A, E] = delta_ij (E[i,i]^(1) - E[i+1,i+1]^(1)), which
   acts on t, of multidegree d, as the scalar delta_ij (d_i - d_{i+1}).
   Then A s = a E (A t) + a delta_ij (d_i - d_{i+1}) t + (sum of A applied
   to earlier snapshots). A t and the rest are in W by induction, E (A t)
   is in W by step 1, and t is in W.
3. By steps 1 and 2 and the commutators above, W is closed under every
   E[i,k]^(1), i != k. Claim: A s is in W for every snapshot s and every
   applied A = D_1 or E[1,1]^(p); again by induction over creation order.
   A is applied to s unless s was created from t by some E = E[i,k]^(1)
   with [A, E] = 0. Then A s = a E (A t) + (sum of A applied to earlier
   snapshots), which is in W: A t and the rest are in W by induction, and
   E W is in W.

At ell >= 2, E[1,1]^(3) is not applied, and W is still closed under it.
By steps 1 to 3, W is closed under E[1,1]^(2) and every E[i,k]^(1),
i != k, so it is GL_ell-stable and closed under E[2,2]^(2), the row-swap
conjugate of E[1,1]^(2), and under E[2,1]^(2) = [E[2,1]^(1), E[1,1]^(2)].
With C = [E[2,2]^(2), E[2,1]^(2)]:

    E[1,1]^(3) = (5/2) C - [E[2,1]^(1), [E[1,2]^(1), C/2]].

Per column, with d_i = d/dx[i,j]: [x2 d2^2, x2 d1^2] = 2 x2 d2 d1^2,
[x1 d2, x2 d2 d1^2] = x1 d2 d1^2 - 2 x2 d2^2 d1,
[x2 d1, x1 d2 d1^2] = x2 d2 d1^2 - x1 d1^3 and
[x2 d1, x2 d2^2 d1] = -2 x2 d2 d1^2.

4. By steps 1 to 3, the identity and the commutators above, W is closed
   under every derivative d/dx[i,1] and every polarization E[i,k]^(p).
   Claim: tau_j W is in W for every j; by induction on j, and for each j
   by an inner induction over creation order: tau_j s is in W for every
   snapshot s. A candidate tau_j s that equals s is in W. tau_j is applied
   to s unless one of these holds.

   a. s was created from t by an E that commutes with tau_j: a
      polarization, D_1 with j >= 2, or tau_i with i <= j - 2. Then
      tau_j s = a E (tau_j t) + (sum of tau_j applied to earlier
      snapshots), which is in W: tau_j t and the rest are in W by the inner
      induction, and E W is in W (for E = tau_i, i < j, by the induction on
      j).
   b. s was created from t by E = tau_j. Then
      tau_j s = a t + (sum of tau_j applied to earlier snapshots), and t is
      in W.
   c. s was created from t by E = tau_i with i >= j + 2, and tau_j t = t.
      Write s = a tau_i t + sum c_u u over earlier snapshots u. As tau_i
      and tau_j commute, tau_j s = a tau_i (tau_j t) + sum c_u tau_j u
      = s - sum c_u u + sum c_u tau_j u, which is in W by the inner
      induction alone.
   d. s is a generator row that tau_1 and c fix. The transposition (1 2)
      and the n-cycle generate S_n, so tau_j s = s.

   So W is closed under every tau_j, hence S_n-stable, and so closed under
   every d/dx[1,j] = sigma D_1 sigma with sigma = (1 j).

The conditions of the observed and the generator-row skips are needed.
Skipping tau_j, j <= i - 2, on every row made by tau_i closes
x[1,1]^2*x[1,2] at n = 4, ell = 3 to dimension 165 instead of 211; skipping
tau_2 .. tau_{n-1} on every generator row that tau_1 fixes, without the
n-cycle test, closes x[1,1]*x[1,2] at n = 4, ell = 2 to dimension 8 instead
of 27.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from math import gcd, lcm
from operator import neg

from .errors import NonHomogeneous, UsageError
from .polyring import EXP_BITS, Permutation, Poly, apply_operator, ring, terms_text
from .rationals import QQ


class Component:
    """Echelon basis of one graded component; the only code that knows how
    its rows are stored.

    Each row is a primitive integer vector, a {packed monomial code: int}
    dict with content 1 and a positive coefficient at its pivot, its
    greatest code; pivots holds the pivots in decreasing order and rows the
    rows, in the same order. The rows are in reduced echelon form (no row
    holds another row's pivot) except while the closure runs, when insert
    leaves the earlier rows as they are and back_substitute reduces them at
    the end.
    """

    __slots__ = ("degree", "pivots", "rows")

    def __init__(self, degree):
        self.degree = tuple(degree)
        self.pivots = []
        self.rows = []

    @property
    def dimension(self):
        return len(self.rows)

    def reduce(self, w):
        """Fully reduce int dict w against the basis, in place; returns w.

        The result is a nonzero integer multiple of the rational reduction.
        """
        for pivot, row in zip(self.pivots, self.rows):
            c = w.get(pivot)
            if c:
                _eliminate(w, row, pivot, c)
        return w

    def insert(self, w):
        """Reduce int dict w and store it as a primitive row; returns the
        stored row, or None when w reduces to zero.

        No stored row is edited, so the rows stay in echelon form but may
        hold the pivots of later rows.
        """
        w = self.reduce(w)
        if not w:
            return None
        pivot = max(w)
        _make_primitive(w, pivot)
        pos = bisect_left(self.pivots, -pivot, key=neg)
        self.pivots.insert(pos, pivot)
        self.rows.insert(pos, w)
        return w

    def back_substitute(self):
        """Bring the echelon rows to reduced echelon form, in place.

        Bottom-up, each row is reduced against the already reduced rows below
        it, whose pivots it may hold, then divided by its content once.
        """
        pivots, rows = self.pivots, self.rows
        for idx in range(len(rows) - 2, -1, -1):
            row = rows[idx]
            edited = False
            for k in range(idx + 1, len(rows)):
                c = row.get(pivots[k])
                if c:
                    _eliminate(row, rows[k], pivots[k], c)
                    edited = True
            if edited:
                _make_primitive(row, pivots[idx])

    def trace(self, move):
        """Sum over the rows of each row's coefficient at move(pivot), the
        row scaled to pivot coefficient 1, as (numerator, denominator)
        integers.

        The numerators are summed over the lcm of the pivot coefficients of
        the rows that contribute, so no rational is built.
        """
        total, den = 0, 1
        for pivot, row in zip(self.pivots, self.rows):
            v = row.get(move(pivot))
            if v:
                lead = row[pivot]
                if den % lead:
                    g = lcm(den, lead)
                    total *= g // den
                    den = g
                total += v * (den // lead)
        return total, den

    def basis_terms(self):
        """Per row, by decreasing pivot, an iterator of the row's terms
        scaled to pivot coefficient 1: (code, numerator, denominator)
        integer triples in decreasing code order, each fraction reduced.
        Terms are made as they are read; no row is copied into a list.
        """

        def scaled(row, lead):
            for code in sorted(row, reverse=True):
                v = row[code]
                g = gcd(v, lead)
                yield code, v // g, lead // g

        for pivot, row in zip(self.pivots, self.rows):
            yield scaled(row, row[pivot])


def _eliminate(w, row, pivot, c):
    """w := (lead/g) w - (c/g) row with lead = row[pivot] and
    g = gcd(lead, c), in place.

    c is w's coefficient at pivot, so the result has no term there; it is a
    nonzero multiple of the rational elimination.
    """
    lead = row[pivot]
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
    is positive, in place."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for code in row:
            row[code] //= g


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
        """Insert a homogeneous Poly of the span's ring; True if the span
        grew."""
        if not isinstance(f, Poly):
            raise TypeError("insert expects a Poly")
        f._check_same_ring(self)
        if f.is_zero():
            return False
        # raises NonHomogeneous on bad input
        return self._insert(f.multidegree(), f.terms)

    def _insert(self, d, terms):
        """insert() of the nonzero terms of a polynomial of multidegree d."""
        comp = self.component(d)
        if comp.insert(_integer_terms(terms)) is None:
            return False
        comp.back_substitute()
        return True

    def member(self, f):
        """Exact span membership of a homogeneous Poly of the span's ring."""
        f._check_same_ring(self)
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
            Poly(self.ring, {code: QQ(num, den) for code, num, den in terms})
            for terms in comp.basis_terms()
        ]

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
        """The span as a JSON-ready dict. Each basis row is the text of its
        Poly in component_basis, rendered straight from the same integer
        terms (Component.basis_terms); the row being homogeneous, decreasing
        code order is the graded-lex print order."""
        r = self.ring
        comps = []
        for d in self.sorted_degrees():
            comp = self.components[d]
            comps.append(
                {
                    "degree": list(d),
                    "dimension": comp.dimension,
                    "basis": [terms_text(r, terms) for terms in comp.basis_terms()],
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
    """A family of homogeneous generators; polys holds the given nonzero
    polynomials and degrees their multidegrees.

    mode 'orbit': the family stands for the symmetric-group orbit of the
    given polynomials, which the closure builds with its column
    transpositions. mode 'verbatim': the span of the polynomials is checked
    to be stable under the column action, so that outside input that is not
    is rejected.
    """

    def __init__(self, polys, mode="orbit", text=None):
        polys = [f for f in polys if f is not None]
        if not polys:
            raise UsageError("empty generator family")
        self.ring = polys[0].ring
        self.polys = []
        self.degrees = []
        for f in polys:
            if f.ring is not self.ring:
                raise UsageError("generators live in different rings")
            if f.is_zero():
                continue
            try:
                self.degrees.append(f.multidegree())
            except NonHomogeneous:
                raise UsageError("generator %s is not homogeneous" % f) from None
            self.polys.append(f)
        self.mode = mode
        self.text = list(text or [])
        if mode == "verbatim":
            _check_span_stable(self)
        elif mode != "orbit":
            raise UsageError("unknown family mode %r" % mode)

    def is_zero(self):
        return not self.polys


def _check_span_stable(family):
    r = family.ring
    span = GradedSpan(r.ell, r.n)
    for f, d in zip(family.polys, family.degrees):
        span._insert(d, f.terms)
    for tau in r.transpositions:
        for f in family.polys:
            if not span.member(f.permute(tau)):
                raise UsageError(
                    "family is not stable under the column action "
                    "(offending transposition %s)" % (tau.images,)
                )


# ---------------------------------------------------------------------------
# closure operators


# operator kinds a snapshot may skip, as bits of the mask in _operators; the
# column transposition (j j+1) has the bit _TRANSPOSITION << (j - 1).
# _GENERATOR is no operator's bit: it marks the generator rows in _close.
_ROW1_PARTIAL = 1
_ROW1_SELF_POLARIZATIONS = 2
_RAISING = 4
_GENERATOR = 8
_TRANSPOSITION = 16


def _operators(r, degree):
    """(target degree, operator, kind, skip) of each closure operator on
    V_degree.

    The row-1 partial D_1 = d/dx[1,1], the adjacent polarizations
    E[i,k]^(1), |i - k| = 1, by (k, i), the row-1 self-polarizations
    E[1,1]^(p), 2 <= p <= min(3, d_1) at ell = 1 and p = 2 otherwise, then
    the adjacent column transpositions tau_j = (j j+1) by increasing j.
    Derivatives and polarizations are the ring's compiled, cached Operator
    objects; tau_j is the mask quadruple (other columns, column j,
    column j + 1, below) that swaps the two columns of a code with two
    shifts, where below holds the bits of tau_1 .. tau_{j-2}, the earlier
    transpositions that commute with tau_j. The module docstring proves every
    other derivative and polarization redundant: E[i,k]^(1) is an iterated
    commutator of adjacent ones, d/dx[k,1] = [D_1, E[1,k]^(1)], E[1,1]^(3)
    at ell >= 2 is a combination of commutators of E[2,1]^(1), E[1,2]^(1),
    E[2,2]^(2) and E[2,1]^(2), E[1,1]^(p+1) = [E[1,1]^(2), E[1,1]^(p)] /
    (2 - p) for p >= 3, E[k,k]^(p) = sigma E[1,1]^(p) sigma for the row
    swap sigma = (1 k) (the fixpoint is GL_ell-stable),
    E[i,k]^(p) = [E[i,k]^(1), E[k,k]^(p)], and
    d/dx[i,j] = sigma d/dx[i,1] sigma for the column swap sigma = (1 j) (the
    fixpoint is S_n-stable). The Euler operators E[k,k]^(1) only scale a
    component.

    kind is the operator's bit (0 for the lowering E[k+1,k]^(1), which is
    never skipped); skip holds the bits of the operators that the rows it
    creates are not given. A lowering E[k+1,k]^(1) skips the raising
    E[j,j+1]^(1), whose commutator with it acts on each component as a
    scalar. Every E[i,k]^(1) skips the operators that commute with it:
    D_1 for i != 1, E[1,1]^(p) for i, k != 1, and every tau_j. E[1,1]^(p)
    skips every tau_j too, D_1 skips the tau_j with j >= 2, which fix
    column 1, and tau_j skips itself (tau_j^2 = 1) and every later
    tau_{j'} that commutes with it (j' >= j + 2). _close adds the skips that
    depend on the source row.
    """
    n = r.n
    taus = (_TRANSPOSITION << (n - 1)) - _TRANSPOSITION
    d1 = degree[0]
    ops = []
    if d1:
        lowered = (d1 - 1,) + degree[1:]
        skip = taus & ~_TRANSPOSITION
        ops.append((lowered, r.derivative(1, 1), _ROW1_PARTIAL, skip))
    for k in range(1, r.ell + 1):
        for i in (k - 1, k + 1):
            if 1 <= i <= r.ell and degree[k - 1]:
                lowered = list(degree)
                lowered[k - 1] -= 1
                lowered[i - 1] += 1
                kind = _RAISING if i < k else 0
                skip = taus if kind else taus | _RAISING
                if i != 1:
                    skip |= _ROW1_PARTIAL
                    if k != 1:
                        skip |= _ROW1_SELF_POLARIZATIONS
                ops.append((tuple(lowered), r.polarization(i, k), kind, skip))
    for p in range(2, min(3 if r.ell == 1 else 2, d1) + 1):
        lowered = (d1 - p + 1,) + degree[1:]
        ops.append((lowered, r.polarization(1, 1, p), _ROW1_SELF_POLARIZATIONS, taus))
    columns = r.column_masks
    every = sum(columns)
    for j in range(1, n):
        left, right = columns[j - 1], columns[j]
        bit = _TRANSPOSITION << (j - 1)
        below = taus & (bit >> 1) - 1
        later = taus & -(bit << 2)
        ops.append((degree, (every ^ left ^ right, left, right, below), bit, bit | later))
    return ops


def _close(span):
    """Worklist closure of a span under the operators of _operators.

    Pending rows are processed in increasing (|d|, d); every successful
    insertion queues the new row itself, with the skip mask of the operator
    that created it. No stored row is edited until the worklist is empty, so
    the queued rows are the stored rows, and they span the final space; the
    closure argument (module docstring) goes through unchanged. Then every
    component is brought to reduced form by Component.back_substitute.
    A transposition moves no coefficient, so its candidate is the source
    dict with its codes swapped in one comprehension, and it is dropped when
    it equals the source. Two skips depend on the source row t (module
    docstring, the observed and the generator-row skips): the bits of the
    tau_j whose candidate equalled t are collected in fixed, and a row made
    from t by tau_i also skips those among tau_1 .. tau_{i-2}; and when
    tau_1 fixes a generator row that the n-cycle (1 2 ... n) fixes too, the
    row skips every later tau_j. The n-cycle is compiled here into a
    Permutation, once per closure.
    """
    r = span.ring
    n = r.n
    taus = (_TRANSPOSITION << (n - 1)) - _TRANSPOSITION
    cycle = Permutation(r, tuple(range(2, n + 1)) + (1,))
    heap = []
    seq = 0
    for d in sorted(span.components, key=lambda d: (sum(d), d)):
        for row in span.components[d].rows:
            heapq.heappush(heap, (sum(d), d, seq, row, _GENERATOR))
            seq += 1

    ops = {}
    while heap:
        _, d, _, terms, skipped = heapq.heappop(heap)
        if d not in ops:
            ops[d] = _operators(r, d)
        fixed = 0
        for dd, op, kind, skip in ops[d]:
            if kind & skipped:
                continue
            if kind >= _TRANSPOSITION:
                keep, left, right, below = op
                out = {
                    c & keep | (c & left) >> EXP_BITS | (c & right) << EXP_BITS: v
                    for c, v in terms.items()
                }
                if out == terms:
                    fixed |= kind
                    if kind == _TRANSPOSITION and skipped == _GENERATOR and n > 2:
                        turned = {r.permute_code(c, cycle): v for c, v in terms.items()}
                        if turned == terms:
                            skipped |= taus
                    continue
                skip |= fixed & below
            else:
                out = apply_operator(terms, op)
                if not out:
                    continue
            row = span.component(dd).insert(out)
            if row is not None:
                heapq.heappush(heap, (sum(dd), dd, seq, row, skip))
                seq += 1
    for comp in span.components.values():
        comp.back_substitute()
    return span


def polarization_module(family):
    """The polarization module of a family, that of the column orbit of its
    generators: the joint closure fixpoint started from the generators."""
    if not isinstance(family, GeneratorFamily):
        raise TypeError("expected a GeneratorFamily")
    r = family.ring
    span = GradedSpan(r.ell, r.n, family.text)
    for f, d in zip(family.polys, family.degrees):
        span._insert(d, f.terms)
    return _close(span)
