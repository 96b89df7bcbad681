"""Degree-2/3 classification and the structured matrices behind it.

A symmetric cubic in one row of variables is determined by its monomial-type
coefficients (a, b, c): a on the cube terms, b on the square-times-distinct
terms, c on the products of three distinct variables. Whether the span of
first partials together with the order-2 self-polarization has dimension n
or n+1 is governed by determinant formulas for a family of patterned
matrices; those formulas and the resulting classification rules live here,
kept deliberately independent of the closure engine so the two can be
cross-checked.

All arithmetic is exact. Determinants use fraction-free (Bareiss)
elimination.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import UsageError
from .rationals import QQ


class StructuredMatrix:
    """Dense exact matrix with the construction recipe remembered."""

    __slots__ = ("kind", "n", "params", "rows")

    def __init__(self, kind, n, params, rows):
        self.kind = kind
        self.n = n
        self.params = tuple(params)
        self.rows = tuple(tuple(QQ(v) for v in row) for row in rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def gram(self):
        """M^t M as a new StructuredMatrix."""
        cols = self.ncols
        out = [
            [
                sum((row[i] * row[j] for row in self.rows), QQ(0))
                for j in range(cols)
            ]
            for i in range(cols)
        ]
        return StructuredMatrix(self.kind + "^tX", self.n, self.params, out)

    def det(self):
        return _bareiss_det(self.rows)

    def __eq__(self, other):
        return isinstance(other, StructuredMatrix) and self.rows == other.rows

    def __repr__(self):
        return "<StructuredMatrix %s n=%d %dx%d>" % (
            self.kind,
            self.n,
            self.nrows,
            self.ncols,
        )


def _bareiss_det(rows):
    """Fraction-free determinant; exact for rational entries."""
    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return QQ(1)
    if any(len(r) != size for r in m):
        raise UsageError("determinant of a non-square matrix")
    sign = 1
    prev = QQ(1)
    for k in range(size - 1):
        if not m[k][k]:
            for r in range(k + 1, size):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return QQ(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = QQ(0)
        prev = m[k][k]
    return m[size - 1][size - 1] if sign > 0 else -m[size - 1][size - 1]


# ---------------------------------------------------------------------------
# matrix constructors


def _pairs_lex(n):
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def build_matrix(kind, n, params):
    """Construct one of the patterned matrices T, H, F, E, D, G.

    params: T needs (x,y,z,w,t); H needs (x,y,z); F, E, D, G need (a,b,c).
    """
    kind = kind.upper()
    if kind == "T":
        if n < 2:
            raise UsageError("T matrices need n >= 2")
        x, y, z, w, t = (QQ(v) for v in params)
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                if i < n and j < n:
                    row.append(x if i == j else y)
                elif i == n and j < n:
                    row.append(z)
                elif i < n and j == n:
                    row.append(w)
                else:
                    row.append(t)
            rows.append(row)
        return StructuredMatrix("T", n, params, rows)
    if kind == "H":
        if n < 2:
            raise UsageError("H matrices need n >= 2")
        x, y, z = (QQ(v) for v in params)
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n):
                if i < n:
                    row.append(x if i == j else y)
                else:
                    row.append(z)
            rows.append(row)
        return StructuredMatrix("H", n, params, rows)
    if kind in ("F", "E", "D", "G"):
        floor = 2 if kind == "E" else 3
        if n < floor:
            raise UsageError("%s matrices need n >= %d" % (kind, floor))
        a, b, c = (QQ(v) for v in params)
        f_rows = []
        for i, j in _pairs_lex(n):
            row = [c] * n
            row[i - 1] = 2 * b
            row[j - 1] = 2 * b
            f_rows.append(row)
        if kind == "F":
            return StructuredMatrix("F", n, params, f_rows)
        e_rows = []
        for i in range(1, n + 1):
            row = [3 * a if i == j else b for j in range(1, n + 1)]
            row.append(6 * a)
            e_rows.append(row)
        for frow in f_rows:
            e_rows.append(list(frow) + [4 * b])
        if kind == "E":
            return StructuredMatrix("E", n, params, e_rows)
        if kind == "D":
            return StructuredMatrix("D", n, params, [r[:-1] for r in e_rows])
        return StructuredMatrix(
            "G", n, params, [r[: n - 1] + [r[n]] for r in e_rows]
        )
    raise UsageError("unknown matrix kind %r" % kind)


def det_T(x, y, z, w, t, n):
    """Closed form for det of the T pattern."""
    if n < 2:
        raise UsageError("T matrices need n >= 2")
    x, y, z, w, t = QQ(x), QQ(y), QQ(z), QQ(w), QQ(t)
    return (x - y) ** (n - 2) * (t * (x + (n - 2) * y) - (n - 1) * w * z)


# ---------------------------------------------------------------------------
# auxiliary polynomials


def aux_poly(kind, a, b, c, n):
    """Evaluate one of the classification polynomials P, Q, R, A."""
    a, b, c = QQ(a), QQ(b), QQ(c)
    kind = kind.upper()
    if kind == "P":
        return 12 * a * b + 6 * (n - 2) * a * c - 4 * (n - 1) * b * b
    if kind == "Q":
        return (
            9 * a * a
            - 6 * a * b
            + (4 * n - 7) * b * b
            - 4 * (n - 2) * b * c
            + (n - 2) * c * c
        )
    if kind == "R":
        return (
            9 * a * a
            + 6 * (n - 1) * a * b
            + (n - 1) * (n + 7) * b * b
            + 4 * (n - 1) * (n - 2) * b * c
            + (n - 2) * comb(n - 1, 2) * c * c
        )
    if kind == "A":
        return (
            81 * a ** 4
            - 54 * a ** 3 * b
            + (18 * n * n + 18 * n - 63) * a * a * b * b
            + 18 * (n - 2) * (n * n - 2 * n - 1) * a * a * b * c
            + QQ(9, 2) * n * (n - 2) * (n * n - 4 * n + 5) * a * a * c * c
            - 12 * (n - 1) * (n * n - 2 * n + 2) * a * b ** 3
            - 12 * (n - 1) ** 2 * comb(n - 1, 2) * a * b * b * c
            + 2 * (n - 1) * (n ** 3 - 3 * n * n + 7 * n - 8) * b ** 4
            - 8 * (n - 2) * (n - 1) * b ** 3 * c
            + 2 * (n - 2) * (n - 1) * b * b * c * c
        )
    raise UsageError("unknown auxiliary polynomial %r" % kind)


def det_identity_check(kind, a, b, c, n):
    """Gram determinant of E/D/G against its closed product formula.

    A degree count fixes the G normalization: the Gram matrix of the n-column
    G has determinant homogeneous of degree 2n in (a, b, c), so the quartic
    A carries Q^(n-2), with constant 4 (checked symbolically for n = 3, 4, 5
    and at random points for larger n).
    """
    kind = kind.upper()
    if n < 3:
        raise UsageError("determinant identities need n >= 3")
    q = aux_poly("Q", a, b, c, n)
    if kind == "E":
        expected = comb(n, 2) * aux_poly("P", a, b, c, n) ** 2 * q ** (n - 1)
    elif kind == "D":
        expected = aux_poly("R", a, b, c, n) * q ** (n - 1)
    elif kind == "G":
        expected = 4 * aux_poly("A", a, b, c, n) * q ** (n - 2)
    else:
        raise UsageError("determinant identity kinds are E, D, G")
    actual = build_matrix(kind, n, (a, b, c)).gram().det()
    return actual == expected


def h_gram_check(x, y, z, n):
    """Structural factorization of the H pattern's Gram matrix.

    H_n(x, y, z) has n rows and n-1 columns; its Gram matrix H^t H is again
    a patterned matrix: the T pattern of size n-1 with corner entries
    alpha = x^2 + (n-2)y^2 + z^2 and off entries beta = 2xy + (n-3)y^2 + z^2.
    Returns True when the substitution reproduces the Gram matrix entry for
    entry and both determinant routes (Bareiss on the Gram matrix, closed
    form for the T pattern) give (x-y)^(2(n-2)) ((x+(n-2)y)^2 + (n-1)z^2).
    """
    if n < 3:
        raise UsageError("the H Gram identity needs n >= 3")
    x, y, z = QQ(x), QQ(y), QQ(z)
    alpha = x * x + (n - 2) * y * y + z * z
    beta = 2 * x * y + (n - 3) * y * y + z * z
    gram = build_matrix("H", n, (x, y, z)).gram()
    pattern = build_matrix("T", n - 1, (alpha, beta, beta, beta, alpha))
    if gram.rows != pattern.rows:
        return False
    closed = (x - y) ** (2 * (n - 2)) * (
        (x + (n - 2) * y) ** 2 + (n - 1) * z * z
    )
    return (
        gram.det() == closed
        and det_T(alpha, beta, beta, beta, alpha, n - 1) == closed
    )


# ---------------------------------------------------------------------------
# the exception predicate and its reduced integer form


def _is_136(a, b, c):
    a, b, c = QQ(a), QQ(b), QQ(c)
    return b == 3 * a and c == 6 * a and bool(a)


def is_n_exception(a, b, c, n):
    """Whether the cubic with monomial-type coefficients (a,b,c) collapses.

    A collapsing point has the smaller of the two generic module shapes: the
    degree-(1,...) components shed one dimension. The defining equation is
    12ab + 6(n-2)ac = 4(n-1)b^2 away from the binomial-cube point, which is
    never counted. For n = 2 the equation degenerates to b = 0 or b = 3a.
    """
    if n < 2:
        raise UsageError("the exception predicate needs n >= 2")
    a, b, c = QQ(a), QQ(b), QQ(c)
    if not (a or b or c):
        raise UsageError("coefficients must not all vanish")
    if _is_136(a, b, c):
        return False
    if n == 2:
        return b == 0 or b == 3 * a
    return aux_poly("P", a, b, c, n) == 0


def exception_equation(n):
    """Reduced integer coefficients (n1, n2, n3, n4) of the collapse equation.

    The equation n1*a*(n2*b + n3*c) = n4*b^2 is the primitive integer form
    of 12ab + 6(n-2)ac = 4(n-1)b^2; the four numbers depend on n through
    gcds and a parity split.
    """
    if n < 3:
        raise UsageError("the reduced equation needs n >= 3")
    n1 = 3 // gcd(n + 2, 3)
    n2 = gcd(n + 1, n - 1)
    if n % 2 == 0:
        n3 = (n - 2) // 2
        n4 = (n - 1) // gcd(n - 1, 6)
    else:
        n3 = n - 2
        n4 = (2 * n - 2) // gcd(n - 1, 3)
    return (n1, n2, n3, n4)


def gcd_form_check(a, b, c, n):
    """Cross-check: the reduced equation agrees with the raw equation.

    Returns True when n1*a*(n2*b+n3*c) = n4*b^2 holds exactly at the same
    points as 12ab + 6(n-2)ac = 4(n-1)b^2. Comparing raw equations keeps
    the binomial-cube exclusion out of the picture: that point satisfies
    both equations but is excluded from the predicate separately.
    """
    if n < 3:
        raise UsageError("the reduced equation needs n >= 3")
    a, b, c = QQ(a), QQ(b), QQ(c)
    n1, n2, n3, n4 = exception_equation(n)
    reduced = n1 * a * (n2 * b + n3 * c) == n4 * b * b
    raw = aux_poly("P", a, b, c, n) == 0
    return reduced == raw


def rank_lower_bound_check(a, b, c, n):
    """Span of first-row partials plus the order-2 self-polarization.

    Builds f = a*m[3] + b*m[2,1] + c*m[1,1,1] in one row of n variables,
    spans {d/dx_1 f, ..., d/dx_n f, E(1,1,order 2) f}, and reports whether
    the rank is at least n. Away from the binomial-cube point it must be.
    """
    if n < 2:
        raise UsageError("rank check needs n >= 2")
    from .symfunc import expand_basis

    r_ell = 1
    f = (
        expand_basis("m", (3,), 1, n, r_ell).scale(QQ(a))
        + expand_basis("m", (2, 1), 1, n, r_ell).scale(QQ(b))
        + expand_basis("m", (1, 1, 1), 1, n, r_ell).scale(QQ(c))
    )
    if f.is_zero():
        raise UsageError("coefficients must not all vanish")
    return partials_span_dimension(f) >= n


def partials_span_dimension(f):
    """Dimension of span {d/dx[1,1] f, ..., d/dx[1,n] f, E[1,1]^(2) f}."""
    from .closure import GradedSpan

    r = f.ring
    span = GradedSpan(r.ell, r.n)
    for j in range(1, r.n + 1):
        span.insert(f.derive(1, j))
    span.insert(f.polarize(1, 1, 2))
    return span.total_dimension()


def classify(degree, coeffs, n):
    """Isomorphism-class tag of the module of a symmetric quadratic or cubic.

    Degree 2, coefficients (a, b) on m[2], m[1,1]: the square of a linear
    form gives the chain shape P1_SQUARED, anything else P2. Degree 3,
    coefficients (a, b, c): the cube point gives P1_CUBED, collapse points
    give P3, generic cubics give H3.
    """
    if n < 2:
        raise UsageError("classification needs n >= 2")
    coeffs = tuple(QQ(v) for v in coeffs)
    if not any(coeffs):
        raise UsageError("coefficients must not all vanish")
    if degree == 2:
        if len(coeffs) != 2:
            raise UsageError("degree 2 takes coefficients (a, b)")
        a, b = coeffs
        return "P1_SQUARED" if (b == 2 * a and bool(a)) else "P2"
    if degree == 3:
        if len(coeffs) != 3:
            raise UsageError("degree 3 takes coefficients (a, b, c)")
        a, b, c = coeffs
        if _is_136(a, b, c):
            return "P1_CUBED"
        if is_n_exception(a, b, c, n):
            return "P3"
        return "H3"
    raise UsageError("classification covers degrees 2 and 3 only")
