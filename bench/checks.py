"""Correctness checks on the JSON documents that polmod emits.

Nothing here copies polmod's own output. The expected values are closed
forms evaluated in this file (dimension formulas, interval series, the
collapse equation) or properties every correct run has (integral
multiplicities, dimension sums, GL_ell symmetry of the graded dimensions,
reduced echelon bases). Each check raises CheckError with a message when a
document breaks it.
"""

import re
from fractions import Fraction
from math import comb, factorial, gcd


class CheckError(Exception):
    """A document failed a correctness check."""


def _require(ok, fmt, *args):
    # the message is formatted only on failure: checks run inside loops
    if not ok:
        raise CheckError(fmt % args)


# ---------------------------------------------------------------------------
# partitions and dimensions


def _hooks(lam):
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    return [[lam[i] - j + conj[j] - i - 1 for j in range(lam[i])] for i in range(len(lam))]


def syt_count(lam):
    """f^lambda by the hook length formula."""
    denom = 1
    for row in _hooks(lam):
        for h in row:
            denom *= h
    return factorial(sum(lam)) // denom


def schur_dim(mu, ell):
    """s_mu(1^ell) by the hook-content formula."""
    if len(mu) > ell:
        return 0
    value = Fraction(1)
    for i, row in enumerate(_hooks(mu)):
        for j, h in enumerate(row):
            value *= Fraction(ell + j - i, h)
    return int(value)


def h_dim(nu, ell):
    """h_nu(1^ell): the product of C(nu_i + ell - 1, ell - 1)."""
    out = 1
    for part in nu:
        out *= comb(part + ell - 1, ell - 1)
    return out


def to_rational(value):
    """A JSON rational (int or 'a/b' string) as a Fraction."""
    if isinstance(value, bool):
        raise CheckError("boolean %r where a rational was expected" % value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(r"-?\d+/\d+", value):
        return Fraction(value)
    raise CheckError("malformed rational %r" % (value,))


def _series(entries):
    out = {}
    for e in entries:
        key = (tuple(e["mu"]), tuple(e["lambda"]))
        _require(key not in out, "repeated series term %s", key)
        out[key] = e["coeff"]
    return out


# ---------------------------------------------------------------------------
# closed forms (interval sums of s_j(q) s_lambda(w))


def _interval(out, lo, hi, lam, ell):
    lam = tuple(p for p in lam if p)
    if any(a < b for a, b in zip(lam, lam[1:])):
        return
    for j in range(lo, hi + 1):
        mu = () if j == 0 else (j,)
        if len(mu) <= ell:
            out[(mu, lam)] = out.get((mu, lam), 0) + 1


def closed_form(kind, n, ell, d=None, abc=None):
    """(series, dimension) predicted for a solved generator shape.

    The dimension is a separate formula, not the sum over the series, so
    the two cross-check each other.
    """
    series = {}
    if kind == "e1_power":
        _interval(series, 0, d, (n,), ell)
        dim = comb(d + ell, ell)
    elif kind == "p_d":
        _interval(series, 0, d, (n,), ell)
        _interval(series, 1, d - 1, (n - 1, 1), ell)
        dim = comb(d + ell, ell) + (n - 1) * (comb(d - 1 + ell, ell) - 1)
    elif kind == "e_d":
        dim = 0
        for i in range(d // 2 + 1):
            _interval(series, i, d - i, (n - i, i), ell)
            if n - i >= i:
                dim += syt_count((n - i, i) if i else (n,)) * sum(
                    comb(j + ell - 1, ell - 1) for j in range(i, d - i + 1)
                )
    elif kind == "vandermonde":
        series = None
        dim = {1: factorial(n), 2: (n + 1) ** (n - 1), 3: 2 ** n * (n + 1) ** (n - 2)}[ell]
    elif kind == "deg3":
        tag = cubic_class(*abc, n)
        _interval(series, 0, 3, (n,), ell)
        dim = comb(3 + ell, ell)
        if tag != "P1_CUBED":
            _interval(series, 1, 2, (n - 1, 1), ell)
            dim += (n - 1) * (comb(2 + ell, ell) - 1)
        if tag == "H3":
            _interval(series, 2, 2, (n,), ell)
            dim += comb(ell + 1, 2)
    else:
        raise ValueError("no closed form named %r" % kind)
    return series, dim


def is_collapse(a, b, c, n):
    """The collapse equation 6a(2b + (n-2)c) = 4(n-1)b^2, cube point excluded."""
    if b == 3 * a and c == 6 * a and a:
        return False
    return 6 * a * (2 * b + (n - 2) * c) == 4 * (n - 1) * b * b


def cubic_class(a, b, c, n):
    if b == 3 * a and c == 6 * a and a:
        return "P1_CUBED"
    return "P3" if is_collapse(a, b, c, n) else "H3"


# ---------------------------------------------------------------------------
# the checks; each takes (document, expectations) and raises CheckError


def _entries(doc):
    """The bigraded series of a frobenius or classify document."""
    return doc["frobenius"] if "frobenius" in doc else doc["series"]


def check_multiplicities(doc, expect):
    """Every multiplicity is a nonnegative integer."""
    for e in _entries(doc):
        q = e["coeff"]
        _require(
            isinstance(q, int) and not isinstance(q, bool) and q >= 0,
            "multiplicity %r at mu=%s lambda=%s is not a nonnegative integer",
            q, e["mu"], e["lambda"],
        )


def check_series_dimension(doc, expect):
    """sum b[mu,lambda] f^lambda dim s_mu(ell) equals the dimension."""
    total = sum(
        to_rational(e["coeff"]) * syt_count(tuple(e["lambda"])) * schur_dim(tuple(e["mu"]), doc["ell"])
        for e in _entries(doc)
    )
    _require(total == doc["dimension"], "series accounts for %s, document says %s", total, doc["dimension"])


def check_hilbert(doc, expect):
    """Both Hilbert expansions sum to the dimension; the Schur one has
    nonnegative integer coefficients and is the series summed over lambda."""
    ell, dim = doc["ell"], doc["dimension"]
    s_total = sum(to_rational(e["coeff"]) * schur_dim(tuple(e["mu"]), ell) for e in doc["hilbert"])
    _require(s_total == dim, "Schur Hilbert series sums to %s, dimension %s", s_total, dim)
    h_total = sum(to_rational(e["coeff"]) * h_dim(e["mu"], ell) for e in doc["hilbert_h_basis"])
    _require(h_total == dim, "h-basis Hilbert series sums to %s, dimension %s", h_total, dim)
    stated = {tuple(e["mu"]): to_rational(e["coeff"]) for e in doc["hilbert"]}
    for mu, q in stated.items():
        _require(q.denominator == 1 and q >= 0, "Hilbert coefficient %s at %s", q, mu)
    if "frobenius" in doc:
        _require(_project(_series(doc["frobenius"])) == stated, "Hilbert series is not the series summed over lambda")


def _project(series):
    """sum over lambda of b[mu,lambda] f^lambda, per mu."""
    out = {}
    for (mu, lam), q in series.items():
        out[mu] = out.get(mu, 0) + to_rational(q) * syt_count(lam)
    return {mu: q for mu, q in out.items() if q}


def check_closed_form(doc, expect):
    """Dimension, and the series where the document has one, equal the
    closed form for the generator's shape (when it has a closed form)."""
    params = expect.get("closed_form")
    if "abc" in expect:
        params = {"kind": "deg3", "abc": expect["abc"]}
    if params is None:
        return
    series, dim = closed_form(n=doc["n"], ell=doc["ell"], **params)
    _require(doc["dimension"] == dim, "dimension %s, closed form %s", doc["dimension"], dim)
    if series is None or "components" in doc:
        return
    if "hilbert" in doc and "frobenius" not in doc:
        got = {tuple(e["mu"]): to_rational(e["coeff"]) for e in doc["hilbert"]}
        _require(got == _project(series), "Hilbert series differs from the %s closed form", params["kind"])
    else:
        got = {k: to_rational(v) for k, v in _series(_entries(doc)).items()}
        _require(got == series, "series differs from the %s closed form", params["kind"])


# ---------------------------------------------------------------------------
# basis documents

_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"x\[(\d+),(\d+)\](?:\^(\d+))?$")
_COEFF = re.compile(r"\d+(/\d+)?")


def parse_row(text, ell, n):
    """A rendered polynomial as {row-major exponent tuple: Fraction}."""
    pieces = _TERM_SPLIT.split(text.strip())
    signs = ["+"] + pieces[1::2]
    out = {}
    for sign, term in zip(signs, pieces[0::2]):
        if term.startswith("-"):
            sign, term = ("-" if sign == "+" else "+"), term[1:]
        coeff = Fraction(1)
        factors = term.split("*")
        if _COEFF.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
        exps = [0] * (ell * n)
        for f in factors:
            m = _FACTOR.match(f)
            _require(m is not None, "cannot read factor %r in %r", f, text)
            i, j, a = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
            _require(1 <= i <= ell and 1 <= j <= n, "variable x[%d,%d] out of range", i, j)
            exps[(i - 1) * n + (j - 1)] += a
        key = tuple(exps)
        _require(key not in out, "repeated monomial in %r", text)
        out[key] = -coeff if sign == "-" else coeff
    return out


def check_basis(doc, expect):
    """Row counts, homogeneity and reduced echelon form of every component.

    Within one multidegree, the order on monomials is lex on the row-major
    exponent vector (x[1,1] first), which is graded lex since the total
    degree is fixed. Reduced echelon form: each row's greatest monomial has
    coefficient 1, the pivots strictly decrease down the rows, and no row
    has a term at another row's pivot.
    """
    ell, n = doc["ell"], doc["n"]
    total = 0
    for comp in doc["components"]:
        degree = tuple(comp["degree"])
        rows = [parse_row(text, ell, n) for text in comp["basis"]]
        _require(
            len(rows) == comp["dimension"],
            "component %s lists %d rows for dimension %d", degree, len(rows), comp["dimension"],
        )
        pivots = []
        for row in rows:
            _require(row, "zero row in component %s", degree)
            for exps in row:
                sums = tuple(sum(exps[i * n:(i + 1) * n]) for i in range(ell))
                _require(sums == degree, "monomial of degree %s in component %s", sums, degree)
            pivot = max(row)
            _require(row[pivot] == 1, "pivot coefficient %s in component %s", row[pivot], degree)
            pivots.append(pivot)
        _require(
            all(a > b for a, b in zip(pivots, pivots[1:])),
            "pivots do not strictly decrease in component %s", degree,
        )
        for k, row in enumerate(rows):
            for m, pivot in enumerate(pivots):
                _require(m == k or pivot not in row, "row %d of %s is not reduced", k, degree)
        total += len(rows)
    _require(total == doc["dimension"], "components sum to %d, dimension %d", total, doc["dimension"])


def check_sorted_dims(doc, expect):
    """dims(d) = dims(sort(d)): the module is GL_ell-stable."""
    dims = {tuple(c["degree"]): c["dimension"] for c in doc["components"]}
    for d, dim in dims.items():
        s = tuple(sorted(d, reverse=True))
        _require(dims.get(s, 0) == dim, "dims%s = %d but dims%s = %d", d, dim, s, dims.get(s, 0))


# ---------------------------------------------------------------------------
# classify, exceptions and verify documents


def check_classify(doc, expect):
    """Class tag and collapse flag agree with the collapse equation."""
    n, abc = doc["n"], expect["abc"]
    got = tuple(to_rational(v) for v in doc["coeffs"])
    _require(got == tuple(abc), "coefficients read back as %s, generator has %s", got, abc)
    tag = cubic_class(*abc, n)
    _require(doc["class"] == tag, "class %s, collapse equation gives %s", doc["class"], tag)
    _require(doc["exception"] == is_collapse(*abc, n), "exception flag %s", doc["exception"])


_LHS = re.compile(r"(\d*)a\((\d*)b \+ (\d*)c\)$")
_RHS = re.compile(r"(\d*)b\^2$")


def check_exceptions(doc, expect):
    """The printed equation is the primitive form of the collapse equation,
    and every point's verdict is the equation evaluated here."""
    n, points = doc["n"], expect["points"]
    lhs, rhs = _LHS.match(doc["equation"]["lhs"]), _RHS.match(doc["equation"]["rhs"])
    _require(lhs and rhs, "cannot read equation %s", doc["equation"])
    n1, n2, n3 = (int(g or 1) for g in lhs.groups())
    n4 = int(rhs.group(1) or 1)
    ab, ac, bb = n1 * n2, n1 * n3, n4
    # 12ab + 6(n-2)ac = 4(n-1)b^2, up to a common factor
    _require(
        ab * 6 * (n - 2) == ac * 12 and ab * 4 * (n - 1) == bb * 12,
        "equation %s is not proportional to the collapse equation", doc["equation"],
    )
    _require(gcd(gcd(ab, ac), bb) == 1, "equation %s is not primitive", doc["equation"])
    _require(len(doc["points"]) == len(points), "%d points for %d asked", len(doc["points"]), len(points))
    for pt, abc in zip(doc["points"], points):
        got = tuple(to_rational(v) for v in pt["abc"])
        _require(got == tuple(abc), "point read back as %s, asked %s", got, abc)
        _require(pt["exception"] == is_collapse(*abc, n), "point %s: exception %s", abc, pt["exception"])
        _require(pt["class"] == cubic_class(*abc, n), "point %s: class %s", abc, pt["class"])


def check_verify(doc, expect):
    """Every check of the replayed table ran and matched the published value."""
    expected_checks = expect["checks"]
    _require(doc["checked"] == expected_checks, "%d checks ran, table has %d", doc["checked"], expected_checks)
    _require(len(doc["results"]) == expected_checks, "%d results listed", len(doc["results"]))
    bad = [r["id"] for r in doc["results"] if r["status"] != "ok"]
    _require(not bad and doc["failed"] == 0, "mismatches against the table: %s", bad)


# ---------------------------------------------------------------------------
# dispatch

CHECKS = {
    "frobenius": [check_multiplicities, check_series_dimension, check_hilbert, check_closed_form],
    "hilbert": [check_hilbert, check_closed_form],
    "basis": [check_basis, check_sorted_dims, check_closed_form],
    "classify": [check_multiplicities, check_series_dimension, check_classify, check_closed_form],
    "exceptions": [check_exceptions],
    "verify": [check_verify],
}


def check_document(mode, doc, expect):
    """Run every check that applies to one job's document.

    expect holds the closed-form kind and its parameters where one exists,
    the cubic's coefficients for classify, the points for exceptions, and
    the published check count for verify.
    """
    for check in CHECKS[mode]:
        check(doc, expect)
