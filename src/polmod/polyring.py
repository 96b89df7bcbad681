"""Sparse exact polynomials in an ell x n matrix of variables x[i,j].

Coefficients are exact rationals. A monomial is an exponent matrix; here it
is packed row-major into a single integer, 5 bits per cell, most significant
cell first, so that integer comparison of packed codes equals lexicographic
comparison of the flattened exponent tuples. Within one graded component all
monomials share a multidegree, hence graded-lex order degenerates to plain
lex there; across degrees, order by (total degree, code).

The packing caps any single computation at total degree 30. That is far
beyond everything in scope (degrees up to 6, ambient products up to 12);
constructors reject anything bigger rather than silently corrupting carries.

Operators: partial derivatives d^p/dx[i,j]^p and polarizations
E[i,k]^(p) = sum_j x[i,j] d^p/dx[k,j]^p, moving degree from variable row k
to row i; the diagonal column-permutation action of the symmetric group;
and the up/down composites between row 1 and the full matrix (with
factorial normalization). A derivative or polarization is compiled once per
ring into a cached Operator: the cells it lowers form one contiguous block
of the code (one cell, or row k), and a table, filled as block values are
met, holds each value's moves, one (code delta, falling factorial) pair per
cell holding at least p. apply_operator, the only kernel, does one table
lookup per term and then touches only the cells that move. A permutation is
compiled into a Permutation, one mask and shift per column displacement.

Rendering: terms_text formats terms given as (code, signed numerator,
denominator) integers, so Poly.__str__ and the basis renderer of the closure
(which passes its integer echelon rows straight through) share one
formatter. A monomial's text is the ring's monomial_text: the "*"-join of
its rows' texts, each looked up by the value of that row's block of the
code in a per-row table filled as block values are rendered.
"""

from __future__ import annotations

from math import factorial, perm

from .errors import NonHomogeneous, ZeroPolynomial
from .rationals import QQ

EXP_BITS = 5
EXP_BASE = 1 << EXP_BITS  # 32: exclusive upper bound for any single exponent
EXP_MASK = EXP_BASE - 1
MAX_TOTAL_DEGREE = EXP_BASE - 2  # keeps every cell strictly below the base

_ring_cache = {}


def ring(ell, n):
    """The polynomial ring in an ell x n variable matrix (cached)."""
    key = (ell, n)
    r = _ring_cache.get(key)
    if r is None:
        r = PolyRing(ell, n)
        _ring_cache[key] = r
    return r


class PolyRing:
    """Shape (ell rows, n columns) plus the monomial codec for that shape."""

    def __init__(self, ell, n):
        if ell < 1 or n < 1:
            raise ValueError("need ell >= 1 and n >= 1, got (%d, %d)" % (ell, n))
        self.ell = ell
        self.n = n
        self.ncells = ell * n
        # cell (i, j), 1-based, sits at row-major index (i-1)*n + (j-1);
        # index 0 is the most significant block of the packed code.
        self.shifts = [
            (self.ncells - 1 - idx) * EXP_BITS for idx in range(self.ncells)
        ]
        self.places = [1 << s for s in self.shifts]
        # column j's cells in every row, for moving whole columns at once
        self.column_masks = [
            sum(EXP_MASK << self.shifts[i * n + j] for i in range(ell))
            for j in range(n)
        ]
        # permute_code shifts every group left by this much, then back
        self.column_span = (n - 1) * EXP_BITS
        ident = tuple(range(1, n + 1))
        # the compiled adjacent transpositions (j j+1), j = 1..n-1
        self.transpositions = tuple(
            Permutation(self, ident[: j - 1] + (j + 1, j) + ident[j + 1 :])
            for j in range(1, n)
        )
        self._operators = {}  # ("d", i, j, p) or ("E", i, k, p) -> Operator
        self._row_mask = (1 << n * EXP_BITS) - 1
        # code_multidegree: the multiplier sum_j 2^(5j), j < n, and the shift
        # of each row's top cell x[i,1]
        self._row_sums = sum(1 << j * EXP_BITS for j in range(n))
        self._row_tops = tuple(self.shifts[i * n] for i in range(ell))
        # per variable row, top row first: (block shift, {block: text})
        self._row_texts = tuple(
            (self.shifts[i * n + n - 1], {}) for i in range(ell)
        )

    # -- codec ------------------------------------------------------------

    def cell(self, i, j):
        if not (1 <= i <= self.ell and 1 <= j <= self.n):
            raise IndexError(
                "variable x[%d,%d] outside %dx%d matrix" % (i, j, self.ell, self.n)
            )
        return (i - 1) * self.n + (j - 1)

    def pack(self, exps):
        """Pack a flat row-major exponent tuple into a code."""
        code = 0
        for idx, a in enumerate(exps):
            if a:
                if a >= EXP_BASE:
                    raise ValueError("exponent %d exceeds packed capacity" % a)
                code += a << self.shifts[idx]
        return code

    def unpack(self, code):
        """Inverse of pack: flat row-major exponent tuple."""
        return tuple((code >> s) & EXP_MASK for s in self.shifts)

    def exponent(self, code, i, j):
        return (code >> self.shifts[self.cell(i, j)]) & EXP_MASK

    def code_total_degree(self, code):
        t = 0
        while code:
            t += code & EXP_MASK
            code >>= EXP_BITS
        return t

    def code_multidegree(self, code):
        """Row sums (d_1, ..., d_ell) of a packed monomial.

        Times sum_j 2^(5j), j < n, each cell of the code holds the sum of
        itself and the n - 1 cells below it, so each row block's top cell
        holds the row sum. No such sum exceeds the total degree, and the cap
        of 30 keeps it below 32, so no cell carries into the next.
        """
        code *= self._row_sums
        return tuple((code >> s) & EXP_MASK for s in self._row_tops)

    def permute_code(self, code, sigma):
        """Relabel columns by a compiled Permutation: shift each displacement
        group of columns left by its own amount, then all back by
        column_span."""
        out = 0
        for mask, shift in sigma.groups:
            out |= (code & mask) << shift
        return out >> self.column_span

    def monomial_text(self, code):
        """The text of a packed monomial, such as "x[1,2]^3*x[2,1]"; the
        empty string for the constant monomial."""
        mask = self._row_mask
        parts = []
        for row, (shift, table) in enumerate(self._row_texts, start=1):
            block = (code >> shift) & mask
            if block:
                text = table.get(block)
                if text is None:
                    text = table[block] = self._row_text(row, block)
                parts.append(text)
        return "*".join(parts)

    def _row_text(self, i, block):
        factors = []
        for j in range(1, self.n + 1):
            a = (block >> (self.n - j) * EXP_BITS) & EXP_MASK
            if a == 1:
                factors.append("x[%d,%d]" % (i, j))
            elif a:
                factors.append("x[%d,%d]^%d" % (i, j, a))
        return "*".join(factors)

    # -- compiled operators, cached per ring (see apply_operator) ----------

    def derivative(self, i, j, p=1):
        """d^p/dx[i,j]^p, reading the single cell (i, j)."""
        if p < 1:
            raise ValueError("derivative order must be >= 1")
        c = self.cell(i, j)
        return self._operator(("d", i, j), p, self.shifts[c : c + 1], (0,))

    def polarization(self, i, k, p=1):
        """E[i,k]^(p) = sum_j x[i,j] d^p/dx[k,j]^p, reading row k."""
        if p < 1:
            raise ValueError("polarization order must be >= 1")
        if not (1 <= i <= self.ell and 1 <= k <= self.ell):
            raise IndexError("row index out of range")
        n = self.n
        src = self.shifts[(k - 1) * n : k * n]
        return self._operator(("E", i, k), p, src, self.places[(i - 1) * n : i * n])

    def _operator(self, key, p, shifts, units):
        p = min(p, EXP_BASE)  # every larger order annihilates alike
        key += (p,)
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = Operator(shifts, units, p)
        return op

    # -- constructors -----------------------------------------------------

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {0: QQ(1)})

    def const(self, q):
        q = QQ(q)
        return Poly(self, {0: q} if q else {})

    def var(self, i, j):
        return Poly(self, {self.places[self.cell(i, j)]: QQ(1)})

    def monomial(self, exps, coeff=1):
        """Polynomial with a single term.

        exps: mapping {(i, j): exponent} with 1-based indices, or a flat
        row-major tuple of length ell*n.
        """
        coeff = QQ(coeff)
        if not coeff:
            return self.zero()
        if isinstance(exps, dict):
            code = 0
            total = 0
            for (i, j), a in exps.items():
                if a < 0 or a >= EXP_BASE:
                    raise ValueError("bad exponent %r" % (a,))
                total += a
                code += a << self.shifts[self.cell(i, j)]
        else:
            if len(exps) != self.ncells:
                raise ValueError(
                    "expected %d exponents, got %d" % (self.ncells, len(exps))
                )
            total = sum(exps)
            code = self.pack(exps)
        if total > MAX_TOTAL_DEGREE:
            raise ValueError("total degree %d exceeds packed capacity" % total)
        return Poly(self, {code: coeff})

    def from_terms(self, termmap):
        """Build from {code: rational}, dropping zeros. Trusted callers only."""
        return Poly(self, {c: q for c, q in termmap.items() if q})


class Permutation:
    """The column permutation j -> images[j-1] of one ring, compiled into
    one (mask, left shift) group per displacement images[j-1] - j; a
    cycle-type representative has at most about four. Shifts are offset by
    the ring's column_span, so none is negative. Not cached."""

    __slots__ = ("ring", "images", "groups")

    def __init__(self, ring_, images):
        images = tuple(images)
        if sorted(images) != list(range(1, ring_.n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (ring_.n, images))
        masks = {}
        for j, image in enumerate(images, start=1):
            masks[image - j] = masks.get(image - j, 0) | ring_.column_masks[j - 1]
        self.ring = ring_
        self.images = images
        span = ring_.column_span
        self.groups = tuple((m, span - t * EXP_BITS) for t, m in masks.items())

    def inverse(self):
        images = [0] * len(self.images)
        for j, image in enumerate(self.images, start=1):
            images[image - 1] = j
        return Permutation(self.ring, images)


class Operator:
    """A derivative or polarization compiled against one ring.

    It reads one block of contiguous cells, (code >> shift) & mask. cells
    holds, per block cell in column order, its shift inside the block and
    the code delta of lowering it by p and multiplying in its unit (x[i,j]
    for E[i,k]^(p), 1 for a partial), which does not depend on the rest of
    the code. table maps each block value met so far to its moves, the
    (delta, falling factorial) pairs of the cells whose exponent is at
    least p; pairs are interned, at most n * 32 per operator.
    """

    __slots__ = ("shift", "mask", "order", "cells", "table", "_pairs")

    def __init__(self, shifts, units, order):
        self.shift = shifts[-1]
        self.mask = (1 << len(shifts) * EXP_BITS) - 1
        self.order = order
        self.cells = tuple(
            (s - self.shift, u - (order << s)) for s, u in zip(shifts, units)
        )
        self.table = {}
        self._pairs = {}

    def moves(self, block):
        p, pairs = self.order, self._pairs
        out = []
        for rel, delta in self.cells:
            a = (block >> rel) & EXP_MASK
            if a >= p:
                pair = (delta, perm(a, p))
                out.append(pairs.setdefault(pair, pair))
        out = self.table[block] = tuple(out)
        return out


def apply_operator(terms, op):
    """Apply a compiled Operator to a {code: coefficient} term dict.

    Per term: one block extraction and one table lookup, then a loop over
    that block's moves only, each adding its delta to the code and
    multiplying the coefficient by the falling factorial a(a-1)...(a-p+1)
    of the lowered exponent a. A fresh dict without zeros is returned.
    """
    shift, mask, table = op.shift, op.mask, op.table
    out = {}
    for code, q in terms.items():
        block = (code >> shift) & mask
        moves = table.get(block)
        if moves is None:
            moves = op.moves(block)
        for delta, f in moves:
            nc = code + delta
            v = q * f
            s = out.get(nc)
            if s is None:
                out[nc] = v
            else:
                s = s + v
                if s:
                    out[nc] = s
                else:
                    del out[nc]
    return out


class Poly:
    """Immutable-by-convention sparse polynomial over QQ.

    terms maps packed monomial codes to nonzero rational coefficients. Do not
    mutate a Poly's dict after it escapes; every operator here builds a fresh
    dict.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring_, terms):
        self.ring = ring_
        self.terms = terms

    # -- basics -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring is other.ring and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def _check_same_ring(self, other):
        if self.ring is not other.ring:
            raise ValueError(
                "mixed rings: %dx%d vs %dx%d"
                % (self.ring.ell, self.ring.n, other.ring.ell, other.ring.n)
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check_same_ring(other)
        out = dict(self.terms)
        for code, q in other.terms.items():
            s = out.get(code)
            if s is None:
                out[code] = q
            else:
                s = s + q
                if s:
                    out[code] = s
                else:
                    del out[code]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {c: -q for c, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.const(other) + (-self)

    def scale(self, q):
        q = QQ(q)
        if not q:
            return self.ring.zero()
        return Poly(self.ring, {c: q * v for c, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same_ring(other)
        if self.total_degree_max() + other.total_degree_max() > MAX_TOTAL_DEGREE:
            raise ValueError("product degree exceeds packed capacity")
        out = {}
        for ca, qa in self.terms.items():
            for cb, qb in other.terms.items():
                code = ca + cb  # cell-wise exponent sum; no carry by the guard
                q = qa * qb
                s = out.get(code)
                if s is None:
                    out[code] = q
                else:
                    s = s + q
                    if s:
                        out[code] = s
                    else:
                        del out[code]
        return Poly(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    # -- grading ----------------------------------------------------------

    def total_degree_max(self):
        """Max total degree over terms (0 for the zero polynomial)."""
        r = self.ring
        return max((r.code_total_degree(c) for c in self.terms), default=0)

    def multidegree(self):
        """The common multidegree; errors on zero or mixed-degree input."""
        r = self.ring
        it = iter(self.terms)
        try:
            first = next(it)
        except StopIteration:
            raise ZeroPolynomial("the zero polynomial has no multidegree")
        d = r.code_multidegree(first)
        for code in it:
            d2 = r.code_multidegree(code)
            if d2 != d:
                raise NonHomogeneous(d, d2)
        return d

    def is_homogeneous(self):
        try:
            self.multidegree()
        except NonHomogeneous:
            return False
        except ZeroPolynomial:
            return True
        return True

    # -- operators --------------------------------------------------------

    def derive(self, i, j, p=1):
        """d^p/dx[i,j]^p with exact falling-factorial coefficients."""
        r = self.ring
        return Poly(r, apply_operator(self.terms, r.derivative(i, j, p)))

    def polarize(self, i, k, p=1):
        """sum_j x[i,j] * d^p/dx[k,j]^p: degree moves from row k to row i."""
        r = self.ring
        return Poly(r, apply_operator(self.terms, r.polarization(i, k, p)))

    def permute(self, sigma):
        """Diagonal action: x[i,j] -> x[i, images[j-1]] in every row.

        sigma is a 1-based image sequence of 1..n, or a Permutation of this
        ring. This is a left action: permute(permute(f, s), t) equals
        permute(f, t*s) where (t*s)(j) = t(s(j)).
        """
        r = self.ring
        if not isinstance(sigma, Permutation):
            sigma = Permutation(r, sigma)
        elif sigma.ring is not r:
            raise ValueError("permutation compiled for another ring")
        pc = r.permute_code
        return Poly(r, {pc(code, sigma): q for code, q in self.terms.items()})

    def apply_row_matrix(self, m):
        """Substitute x[i,j] <- sum_k m[i][k] * x[k,j] (rows mixed by m).

        m is an ell x ell matrix of rationals, 0-based lists. Used for the
        general-linear stability checks.
        """
        r = self.ring
        rows = [
            [
                r.from_terms({r.places[r.cell(k + 1, j)]: QQ(m[i][k]) for k in range(r.ell)})
                for j in range(1, r.n + 1)
            ]
            for i in range(r.ell)
        ]
        out = r.zero()
        for code, q in self.terms.items():
            term = r.const(q)
            exps = r.unpack(code)
            for idx, a in enumerate(exps):
                if a:
                    i, j = divmod(idx, r.n)
                    term = term * rows[i][j] ** a
            out = out + term
        return out

    # -- row-1 composites -------------------------------------------------

    def polarization_up(self, d):
        """Spread a row-1 polynomial of total degree |d| across the rows.

        Applies the row-(2..ell) polarization powers in sequence and divides
        by |d|!/d_1!, the normalization that sends (x_{11}+...+x_{1n})^{|d|}
        to the corresponding product over rows.
        """
        r = self.ring
        d = tuple(d)
        if len(d) != r.ell:
            raise ValueError("multidegree length %d != ell %d" % (len(d), r.ell))
        total = sum(d)
        if self.is_zero():
            return self
        if self.multidegree() != (total,) + (0,) * (r.ell - 1):
            raise ValueError(
                "polarization_up input must live in row 1 with degree |d|=%d" % total
            )
        out = self
        for i in range(2, r.ell + 1):
            for _ in range(d[i - 1]):
                out = out.polarize(i, 1, 1)
        return out.scale(QQ(factorial(d[0]), factorial(total)))

    def restitution(self, d):
        """Collapse a multidegree-d polynomial back into row 1.

        Applies row-1 polarizations against rows 2..ell and divides by
        d_2! ... d_ell!.
        """
        r = self.ring
        d = tuple(d)
        if len(d) != r.ell:
            raise ValueError("multidegree length %d != ell %d" % (len(d), r.ell))
        if not self.is_zero() and self.multidegree() != d:
            raise ValueError(
                "restitution input has multidegree %s, expected %s"
                % (self.multidegree(), d)
            )
        out = self
        denom = 1
        for i in range(2, r.ell + 1):
            di = d[i - 1]
            denom *= factorial(di)
            for _ in range(di):
                out = out.polarize(1, i, 1)
        return out.scale(QQ(1, denom))

    # -- rendering --------------------------------------------------------

    def sorted_codes(self):
        """Term codes in decreasing graded-lex order."""
        r = self.ring
        return sorted(self.terms, key=lambda c: (r.code_total_degree(c), c), reverse=True)

    def __str__(self):
        terms = self.terms
        return terms_text(
            self.ring,
            ((c, terms[c].numerator, terms[c].denominator) for c in self.sorted_codes()),
        )

    def __repr__(self):
        return "<Poly %dx%d %s>" % (self.ring.ell, self.ring.n, self)


def terms_text(ring_, terms):
    """Text of a polynomial given as (code, signed numerator, positive
    denominator) integer triples in print order, each fraction reduced:
    "-3/2*x[1,1]^2 + x[1,2]", or "0" when there are no terms."""
    monomial_text = ring_.monomial_text
    pieces = []
    for code, num, den in terms:
        if num < 0:
            sign, num = " - ", -num
        else:
            sign = " + "
        mono = monomial_text(code)
        if den != 1:
            body = "%d/%d" % (num, den) if not mono else "%d/%d*%s" % (num, den, mono)
        elif not mono:
            body = str(num)
        elif num != 1:
            body = "%d*%s" % (num, mono)
        else:
            body = mono
        pieces.append(sign)
        pieces.append(body)
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)
