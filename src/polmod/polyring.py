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

Operators: partial derivatives d^p/dx[i,j]^p, polarizations
sum_j x[i,j] d^p/dx[k,j]^p moving degree from variable row k to row i, the
diagonal column-permutation action of the symmetric group, and the up/down
composites between row 1 and the full matrix (with factorial normalization).
"""

from __future__ import annotations

from math import factorial, perm

from .errors import NonHomogeneous, ZeroPolynomial
from .rationals import QQ, rational_to_string

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
        """Row sums (d_1, ..., d_ell) of a packed monomial."""
        row = [0] * self.ell
        for i in range(self.ell - 1, -1, -1):
            for _ in range(self.n):
                row[i] += code & EXP_MASK
                code >>= EXP_BITS
        return tuple(row)

    def permute_code(self, code, images):
        """Relabel columns: j -> images[j-1] in every row (diagonal action).

        Column j's cells, masked out together, move images[j-1] - j cells
        towards the less significant end.
        """
        out = 0
        for j, (mask, image) in enumerate(zip(self.column_masks, images), start=1):
            cells = code & mask
            if cells:
                if image > j:
                    out |= cells >> (image - j) * EXP_BITS
                else:
                    out |= cells << (j - image) * EXP_BITS
        return out

    # -- operator moves (see apply_operator) -------------------------------

    def derivative_moves(self, i, j):
        """The single move of d/dx[i,j]: lower cell (i, j), multiply by 1."""
        return ((self.shifts[self.cell(i, j)], 0),)

    def polarization_moves(self, i, k):
        """One move per column j: lower cell (k, j), multiply in x[i,j]."""
        n = self.n
        return tuple(
            (self.shifts[(k - 1) * n + j], self.places[(i - 1) * n + j])
            for j in range(n)
        )

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


# _FALLING[p][a] = a(a-1)...(a-p+1), which is 0 for a < p; no exponent
# reaches EXP_BASE, so that row is all zeros and serves every larger p
_FALLING = [[perm(a, p) for a in range(EXP_BASE)] for p in range(EXP_BASE + 1)]


def apply_operator(terms, moves, p):
    """sum over moves (shift, unit) of unit * d^p/dcell^p, on a term dict.

    shift locates the differentiated cell in the packed code and unit is
    the packed monomial multiplied in afterwards (0 for a bare derivative).
    Coefficients are the falling factorials a(a-1)...(a-p+1) of the
    exponent a; a fresh {code: coefficient} dict without zeros is returned.
    """
    falling = _FALLING[min(p, EXP_BASE)]
    out = {}
    for code, q in terms.items():
        for shift, unit in moves:
            f = falling[(code >> shift) & EXP_MASK]
            if f:
                nc = code - (p << shift) + unit
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

    def homogeneous_parts(self):
        """Split into {multidegree: homogeneous Poly}."""
        r = self.ring
        parts = {}
        for code, q in self.terms.items():
            parts.setdefault(r.code_multidegree(code), {})[code] = q
        return {d: Poly(r, t) for d, t in sorted(parts.items())}

    # -- operators --------------------------------------------------------

    def derive(self, i, j, p=1):
        """d^p/dx[i,j]^p with exact falling-factorial coefficients."""
        if p < 1:
            raise ValueError("derivative order must be >= 1")
        r = self.ring
        return Poly(r, apply_operator(self.terms, r.derivative_moves(i, j), p))

    def polarize(self, i, k, p=1):
        """sum_j x[i,j] * d^p/dx[k,j]^p: degree moves from row k to row i."""
        if p < 1:
            raise ValueError("polarization order must be >= 1")
        r = self.ring
        if not (1 <= i <= r.ell and 1 <= k <= r.ell):
            raise IndexError("row index out of range")
        return Poly(r, apply_operator(self.terms, r.polarization_moves(i, k), p))

    def permute(self, images):
        """Diagonal action: x[i,j] -> x[i, images[j-1]] in every row.

        images is a 1-based permutation of 1..n given as a sequence of
        images. This is a left action: permute(permute(f, s), t) equals
        permute(f, t*s) where (t*s)(j) = t(s(j)).
        """
        r = self.ring
        if sorted(images) != list(range(1, r.n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (r.n, images))
        out = {}
        pc = r.permute_code
        for code, q in self.terms.items():
            out[pc(code, images)] = q
        return Poly(r, out)

    def apply_row_matrix(self, m):
        """Substitute x[i,j] <- sum_k m[i][k] * x[k,j] (rows mixed by m).

        m is an ell x ell matrix of rationals, 0-based lists. Used for the
        general-linear stability checks.
        """
        r = self.ring
        rows = [
            [sum_poly(r, [(m[i][k], (k + 1, j)) for k in range(r.ell)]) for j in range(1, r.n + 1)]
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
        if not self.terms:
            return "0"
        r = self.ring
        pieces = []
        for code in self.sorted_codes():
            q = self.terms[code]
            factors = []
            exps = r.unpack(code)
            for idx, a in enumerate(exps):
                if a:
                    i, j = divmod(idx, r.n)
                    v = "x[%d,%d]" % (i + 1, j + 1)
                    factors.append(v if a == 1 else "%s^%d" % (v, a))
            mag = abs(q)
            body = "*".join(factors)
            if not factors:
                body = rational_to_string(mag)
            elif mag != 1:
                body = rational_to_string(mag) + "*" + body
            if not pieces:
                pieces.append(body if q > 0 else "-" + body)
            else:
                pieces.append((" + " if q > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "<Poly %dx%d %s>" % (self.ring.ell, self.ring.n, self)


def sum_poly(ring_, scaled_vars):
    """sum of coeff * x[i,j] for (coeff, (i, j)) pairs."""
    terms = {}
    for coeff, (i, j) in scaled_vars:
        q = QQ(coeff)
        if not q:
            continue
        code = ring_.places[ring_.cell(i, j)]
        s = terms.get(code)
        if s is None:
            terms[code] = q
        else:
            s = s + q
            if s:
                terms[code] = s
            else:
                del terms[code]
    return Poly(ring_, terms)


def adjacent_transpositions(n):
    """The images tuples of (j j+1) for j = 1..n-1."""
    out = []
    for j in range(1, n):
        im = list(range(1, n + 1))
        im[j - 1], im[j] = im[j], im[j - 1]
        out.append(tuple(im))
    return out


def inverse_permutation(images):
    out = [0] * len(images)
    for j, im in enumerate(images, start=1):
        out[im - 1] = j
    return tuple(out)
