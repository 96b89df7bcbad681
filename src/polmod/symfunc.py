"""Partitions, symmetric-group characters, and symmetric-function bases.

Two different alphabets show up downstream and both are served here:

* concrete expansions of the classical bases (m, e, h, p, s) as Poly values
  in the n variables of one row of the variable matrix;
* formal series in a partition-indexed basis (SymSeries), used for the
  Schur-basis output of Hilbert/Frobenius series and the change of basis to
  complete homogeneous functions.

schur_coefficients is the one Schur expansion: it takes coefficients over
exponent tuples (per-multidegree dimensions or multiplicities, or the terms
of a one-row polynomial through to_schur), checks their symmetry, and
solves the unitriangular Kostka system with integer arithmetic when the
coefficients are integers.

Characters of the symmetric group are computed by the border-strip
recursion on beta-sets, memoized; class sizes and canonical representative
permutations per cycle type live in CycleType.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

from .errors import NotSymmetric, UsageError
from .polyring import Poly, ring
from .rationals import QQ, as_int, rational_to_string

# ---------------------------------------------------------------------------
# partitions


def is_partition(parts):
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts):
    parts = tuple(int(p) for p in parts)
    if not is_partition(parts):
        raise UsageError("not a partition (weakly decreasing, positive): %r" % (parts,))
    return parts


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n as decreasing tuples, in decreasing lex order."""
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam):
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > i) for i in range(lam[0])
    )


@lru_cache(maxsize=None)
def hook_lengths(lam):
    conj = conjugate(lam)
    return tuple(
        tuple(lam[i] - j + conj[j] - i - 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


@lru_cache(maxsize=None)
def syt_count(lam):
    """f^lambda: standard Young tableaux of shape lambda (hook formula)."""
    n = sum(lam)
    denom = 1
    for row in hook_lengths(lam):
        for h in row:
            denom *= h
    q, r = divmod(factorial(n), denom)
    assert r == 0
    return q


@lru_cache(maxsize=None)
def schur_dimension(mu, nvars):
    """Number of column-strict tableaux of shape mu, entries <= nvars.

    Hook-content formula; this is s_mu(1^nvars). Zero when mu has more than
    nvars rows.
    """
    if len(mu) > nvars:
        return 0
    value = QQ(1)
    hooks = hook_lengths(mu)
    for i in range(len(mu)):
        for j in range(mu[i]):
            value = value * QQ(nvars + j - i, hooks[i][j])
    return as_int(value)


# ---------------------------------------------------------------------------
# cycle types and characters


class CycleType(namedtuple("CycleType", "parts size representative")):
    """A conjugacy class of the symmetric group.

    representative is the image tuple of a canonical permutation.
    """

    __slots__ = ()

    @property
    def n(self):
        return sum(self.parts)


def _class_size(parts):
    n = sum(parts)
    denom = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for p, c in mult.items():
        denom *= (p ** c) * factorial(c)
    return factorial(n) // denom


def _representative(parts):
    """Consecutive cycle blocks: (1 2 .. k)(k+1 ..) ... as an image tuple."""
    images = []
    start = 1
    for p in parts:
        block = list(range(start + 1, start + p)) + [start]
        images.extend(block)
        start += p
    return tuple(images)


@lru_cache(maxsize=None)
def cycle_types(n):
    """All conjugacy classes of S_n; class sizes sum to n!."""
    out = tuple(
        CycleType(parts, _class_size(parts), _representative(parts))
        for parts in partitions_of(n)
    )
    assert sum(ct.size for ct in out) == factorial(n)
    return out


def _beta_set(lam):
    m = len(lam)
    return tuple(lam[i] + m - 1 - i for i in range(m))


@lru_cache(maxsize=None)
def _mn(beta, mu):
    """Character recursion on the beta-set encoding of the shape."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    bset = set(beta)
    for idx, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        # height of the removed strip: entries of beta strictly between
        # nb and b, each contributing one row crossing
        height = sum(1 for x in beta if nb < x < b)
        new_beta = tuple(sorted((set(beta) - {b}) | {nb}, reverse=True))
        term = _mn(new_beta, rest)
        total += term if height % 2 == 0 else -term
    return total


def mn_character(lam, mu):
    """Irreducible character chi^lambda at cycle type mu (|lam| = |mu|)."""
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch: |%s| != |%s|" % (lam, mu))
    # largest parts first keeps the memo table small
    mu_sorted = tuple(sorted(mu, reverse=True))
    return _mn(_beta_set(lam), mu_sorted)


@lru_cache(maxsize=None)
def character_table(n):
    """{(lam, mu.parts): chi^lam(mu)} for all lam, mu of n."""
    table = {}
    for lam in partitions_of(n):
        for ct in cycle_types(n):
            table[(lam, ct.parts)] = mn_character(lam, ct.parts)
    return table


# ---------------------------------------------------------------------------
# concrete basis expansions in one row of the variable matrix


def _row_monomial(r, row, exps_by_col, coeff=1):
    return r.monomial({(row, j): a for j, a in exps_by_col.items() if a}, coeff)


def _row_sum(r, row, exponent_maps, coeff=1):
    """coeff times the sum of the distinct monomials of row `row`, one per
    {column: exponent} map, built in one dict."""
    terms = {}
    for exps in exponent_maps:
        terms.update(_row_monomial(r, row, exps, coeff).terms)
    return Poly(r, terms)


def _orderings(parts):
    """The distinct orderings of a tuple of parts, each once: l!/prod m_i!
    of them for l parts with multiplicities m_i."""
    if not parts:
        yield ()
        return
    for p in dict.fromkeys(parts):
        i = parts.index(p)
        for rest in _orderings(parts[:i] + parts[i + 1 :]):
            yield (p,) + rest


def _monomial_exponents(lam, n):
    """The {column: exponent} map of each monomial of m_lam in n columns: a
    set of len(lam) columns times a distinct ordering of the parts on them."""
    orderings = list(_orderings(lam))
    for cols in combinations(range(1, n + 1), len(lam)):
        for a in orderings:
            yield dict(zip(cols, a))


def power_sum_poly(k, row, n, ell=None):
    r = ring(ell or row, n)
    if k == 0:
        return r.const(n)
    return _row_sum(r, row, ({j: k} for j in range(1, n + 1)))


def elementary_poly(k, row, n, ell=None):
    r = ring(ell or row, n)
    if k == 0:
        return r.one()
    cols = combinations(range(1, n + 1), k)
    return _row_sum(r, row, (dict.fromkeys(c, 1) for c in cols))


def homogeneous_poly(k, row, n, ell=None):
    r = ring(ell or row, n)
    if k == 0:
        return r.one()
    cols = combinations_with_replacement(range(1, n + 1), k)
    return _row_sum(r, row, ({j: c.count(j) for j in c} for c in cols))


def monomial_poly(lam, row, n, ell=None):
    lam = check_partition(lam)
    r = ring(ell or row, n)
    if len(lam) > n:
        # no monomial uses more distinct variables than there are columns
        return r.zero()
    return _row_sum(r, row, _monomial_exponents(lam, n))


def schur_row_poly(lam, row, n, ell=None):
    """s_lam = sum over mu of K(lam, mu) m_mu in row `row`, built in one dict:
    the m_mu of distinct mu share no monomial, and m_mu vanishes when mu has
    more than n parts."""
    lam = check_partition(lam)
    r = ring(ell or row, n)
    terms = {}
    for mu in partitions_of(sum(lam)):
        k = len(mu) <= n and kostka(lam, mu)
        if k:
            terms.update(_row_sum(r, row, _monomial_exponents(mu, n), k).terms)
    return Poly(r, terms)


def _product_over_parts(lam, factor, row, n, ell):
    out = ring(ell or row, n).one()
    for part in lam:
        out = out * factor(part, row, n, ell)
    return out


def expand_basis(basis, lam, row, n, ell=None):
    """The basis element indexed by partition lam, realized in x[row, 1..n].

    basis is one of 'm', 'e', 'h', 'p', 's' (or the long names monomial /
    elementary / homogeneous / powersum / schur). e, h, p with a partition
    index mean the product over parts.
    """
    tag = {"monomial": "m", "elementary": "e", "homogeneous": "h",
           "powersum": "p", "schur": "s"}.get(basis, basis)
    lam = check_partition(lam)
    if tag == "m":
        return monomial_poly(lam, row, n, ell)
    if tag == "e":
        return _product_over_parts(lam, elementary_poly, row, n, ell)
    if tag == "h":
        return _product_over_parts(lam, homogeneous_poly, row, n, ell)
    if tag == "p":
        return _product_over_parts(lam, power_sum_poly, row, n, ell)
    if tag == "s":
        return schur_row_poly(lam, row, n, ell)
    raise UsageError("unknown basis tag %r" % (basis,))


# ---------------------------------------------------------------------------
# diagonal (multirow) symmetric polynomials


def diag_power_sum(d, n):
    """sum_j prod_i x[i,j]^{d_i}: the diagonal power sum of multidegree d."""
    d = tuple(d)
    if sum(d) < 1:
        raise UsageError("diagonal power sum needs |d| >= 1")
    r = ring(len(d), n)
    out = {}
    for j in range(1, n + 1):
        code = 0
        for i, di in enumerate(d, start=1):
            if di:
                code += di << r.shifts[r.cell(i, j)]
        out[code] = out.get(code, QQ(0)) + 1
    return r.from_terms(out)


def multi_elementary(d, n):
    """Multidegree-d coefficient of prod_j (1 + sum_i t_i x[i,j]).

    Explicitly: choose a column set B of size |d| and color its columns with
    row labels, d_i columns of color i; each choice contributes the product
    of the selected variables.
    """
    d = tuple(d)
    ell = len(d)
    r = ring(ell, n)
    total = sum(d)
    if total > n:
        return r.zero()
    if total == 0:
        return r.one()
    colors = []
    for i, di in enumerate(d, start=1):
        colors.extend([i] * di)
    colorings = list(_orderings(tuple(colors)))
    out = {}
    for cols in combinations(range(1, n + 1), total):
        for coloring in colorings:
            code = 0
            for j, i in zip(cols, coloring):
                code += 1 << r.shifts[r.cell(i, j)]
            out[code] = out.get(code, QQ(0)) + 1
    return r.from_terms(out)


# ---------------------------------------------------------------------------
# formal series in a partition basis


class SymSeries:
    """Formal linear combination of partition-indexed basis elements."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs=None):
        self.basis = basis
        self.coeffs = {}
        if coeffs:
            for lam, q in coeffs.items():
                q = QQ(q)
                if q:
                    self.coeffs[tuple(lam)] = q

    def add_term(self, lam, q):
        lam = tuple(lam)
        s = self.coeffs.get(lam, QQ(0)) + QQ(q)
        if s:
            self.coeffs[lam] = s
        else:
            self.coeffs.pop(lam, None)

    def __eq__(self, other):
        return (
            isinstance(other, SymSeries)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.coeffs:
            return "0"
        tag = self.basis[0]
        pieces = []
        for lam, q in self.items_sorted():
            mag = abs(q)
            if not lam:
                body = rational_to_string(mag)
            else:
                name = "%s[%s]" % (tag, ",".join(map(str, lam)))
                body = name if mag == 1 else rational_to_string(mag) + " " + name
            if not pieces:
                pieces.append(body if q > 0 else "-" + body)
            else:
                pieces.append((" + " if q > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "<SymSeries %s: %s>" % (self.basis, self)


# -- Schur expansion of a symmetric polynomial ------------------------------


def schur_coefficients(counts, nvars):
    """Schur expansion {lam: coefficient} of sum c * x^a over {a: c}.

    The keys a are exponent tuples in nvars variables. The coefficient of
    x^nu, nu a partition, is sum over lam of c_lam * K[lam, nu], and the
    Kostka matrix is unitriangular in dominance order, which decreasing lex
    order refines; so each size is solved top-down over partitions_of.
    Integer counts give integer coefficients. Raises NotSymmetric unless
    every adjacent transposition of the variables fixes the coefficients.
    Terms come out by decreasing size, then decreasing lex order.
    """
    for a, c in counts.items():
        for i in range(nvars - 1):
            if a[i] != a[i + 1]:
                swapped = a[:i] + (a[i + 1], a[i]) + a[i + 2:]
                if counts.get(swapped, 0) != c:
                    raise NotSymmetric(
                        "polynomial is not symmetric in its %d variables" % nvars
                    )
    out = {}
    for size in sorted({sum(a) for a, c in counts.items() if c}, reverse=True):
        solved = []
        for nu in partitions_of(size):
            if len(nu) > nvars:
                continue
            c = counts.get(nu + (0,) * (nvars - len(nu)), 0)
            for lam, q in solved:
                c -= q * kostka(lam, nu)
            if c:
                solved.append((nu, c))
                out[nu] = c
    return out


def to_schur(f):
    """Exact Schur expansion of a symmetric polynomial in one row."""
    r = f.ring
    if r.ell != 1:
        raise NotSymmetric("to_schur expects a polynomial in a single row")
    counts = {r.unpack(code): c for code, c in f.terms.items()}
    return SymSeries("schur", schur_coefficients(counts, r.n))


# -- Jacobi-Trudi / Kostka transitions --------------------------------------


@lru_cache(maxsize=None)
def jacobi_trudi_h(lam):
    """Expansion of s_lam into products of h_k, as {partition: int}.

    Determinant of (h_{lam_i - i + j}) expanded over permutations; h_0
    contributes an empty factor, any negative index kills the term.
    """
    lam = tuple(lam)
    if not lam:
        return {(): 1}
    m = len(lam)
    out = {}
    for sigma in permutations(range(m)):
        inversions = sum(
            1 for a in range(m) for b in range(a + 1, m) if sigma[a] > sigma[b]
        )
        sign = -1 if inversions % 2 else 1
        factors = []
        dead = False
        for i in range(m):
            k = lam[i] - (i + 1) + (sigma[i] + 1)
            if k < 0:
                dead = True
                break
            if k > 0:
                factors.append(k)
        if dead:
            continue
        key = tuple(sorted(factors, reverse=True))
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def kostka(lam, mu):
    """Number of column-strict tableaux of shape lam and content mu."""
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        return 0
    if not lam:
        return 1
    if not mu:
        return 0
    k = mu[-1]
    rest = mu[:-1]
    total = 0
    for nu in _horizontal_strip_removals(lam, k):
        total += kostka(nu, rest)
    return total


def _horizontal_strip_removals(lam, k):
    """All partitions nu with lam/nu a horizontal strip of size k."""
    m = len(lam)
    results = []

    def rec(i, remaining, acc):
        if i == m:
            if remaining == 0:
                results.append(tuple(p for p in acc if p))
            return
        lo = max(lam[i + 1] if i + 1 < m else 0, lam[i] - remaining)
        # nu_i between lam_{i+1} and lam_i, and nu_{i-1} >= lam_i (interlacing)
        hi = lam[i]
        if acc and acc[-1] < lam[i]:
            hi = acc[-1]
        for nu_i in range(hi, lo - 1, -1):
            rec(i + 1, remaining - (lam[i] - nu_i), acc + [nu_i])

    rec(0, k, [])
    return results


def schur_to_h(series):
    """Change of basis schur -> complete homogeneous (exact, integral)."""
    if series.basis != "schur":
        raise ValueError("expected a schur-basis series")
    out = SymSeries("homogeneous")
    for lam, q in series.coeffs.items():
        for hpart, c in jacobi_trudi_h(lam).items():
            out.add_term(hpart, q * c)
    return out


def h_to_schur(series):
    """Change of basis complete homogeneous -> schur via Kostka numbers."""
    if series.basis != "homogeneous":
        raise ValueError("expected a homogeneous-basis series")
    out = SymSeries("schur")
    for mu, q in series.coeffs.items():
        n = sum(mu)
        for lam in partitions_of(n):
            k = kostka(lam, mu)
            if k:
                out.add_term(lam, q * k)
    return out
