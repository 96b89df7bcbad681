"""Parse command-line generator expressions into exact polynomials.

Grammar for a single polynomial argument:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := RATIONAL
            | TAG '[' INT (',' INT)* ']'
            | 'x' '[' INT ',' INT ']'

    RATIONAL := INT ('/' INT)?
    TAG      := 'm' | 'e' | 'h' | 'p' | 's'

A TAG atom is the named symmetric function of the first-row variables
(products over parts for e, h, p). An 'x' atom is one matrix variable
x[row, column]. A '^' exponent may not exceed the packed-exponent cap 30
(MAX_TOTAL_DEGREE), even on a rational, so 2^31 is refused. A '*' or '^'
whose factors' term counts multiply past symfunc.MAX_TERM_PRODUCTS (t^k for
a t-term base to the k) is refused before it is expanded, and so is each
step of an atom's product over parts. Whitespace is free.

Whole-argument family forms (no arithmetic around them):

    family:A:d    d-th powers of the first-row variables
    family:B:d    differences x[1,i]^d - x[1,j]^d for i < j
    family:C:d    all squarefree degree-d monomials in row 1 (needs d <= n)
    family:T:d    all degree-d monomials in row 1
    vandermonde   product of the pairwise differences of the row-1 variables
"""

import re
from itertools import combinations, combinations_with_replacement

from ..errors import UsageError
from ..polyring import MAX_TOTAL_DEGREE
from ..rationals import QQ
from ..symfunc import check_term_products, expand_basis

_TOKEN_RE = re.compile(r"(\d+|[A-Za-z]+|\[|\]|\^|\*|\+|-|,|/)")
_TAGS = ("m", "e", "h", "p", "s")


def _tokenize(text):
    toks = []
    pos = 0
    stripped = text.strip()
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(stripped, pos)
        if m is None:
            raise UsageError(
                "unexpected character %r in generator %r" % (stripped[pos], text)
            )
        toks.append(m.group(1))
        pos = m.end()
    if not toks:
        raise UsageError("empty generator expression")
    return toks


class _Parser:
    def __init__(self, text, r):
        self.text = text
        self.ring = r
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise UsageError("generator %r ends unexpectedly" % self.text)
        self.pos += 1
        return tok

    def expect(self, what):
        tok = self.take()
        if tok != what:
            raise UsageError(
                "expected %r but found %r in generator %r" % (what, tok, self.text)
            )
        return tok

    def parse(self):
        f = self.expr()
        if self.peek() is not None:
            raise UsageError(
                "trailing input %r in generator %r" % (self.peek(), self.text)
            )
        return f

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        f = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            g = self.term()
            f = f - g if op == "-" else f + g
        return f

    def term(self):
        f = self.factor()
        while self.peek() == "*":
            self.take()
            g = self.factor()
            self.check_product(len(f.terms) * len(g.terms))
            f = f * g
        return f

    def factor(self):
        f = self.atom()
        if self.peek() == "^":
            self.take()
            k = self.integer()
            if k > MAX_TOTAL_DEGREE:
                raise UsageError(
                    "exponent %d in generator %r is above the packed-exponent "
                    "cap %d" % (k, self.text, MAX_TOTAL_DEGREE)
                )
            self.check_product(len(f.terms) ** k)
            f = f ** k
        return f

    def check_product(self, count):
        check_term_products("a product in generator %r" % self.text, count)

    def integer(self):
        tok = self.take()
        if not tok.isdigit():
            raise UsageError(
                "expected an integer but found %r in generator %r" % (tok, self.text)
            )
        return int(tok)

    def int_list(self):
        self.expect("[")
        vals = [self.integer()]
        while self.peek() == ",":
            self.take()
            vals.append(self.integer())
        self.expect("]")
        return vals

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise UsageError("generator %r ends unexpectedly" % self.text)
        if tok.isdigit():
            self.take()
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.integer()
                if den == 0:
                    raise UsageError("zero denominator in generator %r" % self.text)
                return self.ring.const(QQ(num, den))
            return self.ring.const(QQ(num))
        if tok == "x":
            self.take()
            idx = self.int_list()
            if len(idx) != 2:
                raise UsageError(
                    "a variable needs exactly x[row, column] in %r" % self.text
                )
            i, j = idx
            r = self.ring
            if not (1 <= i <= r.ell and 1 <= j <= r.n):
                raise UsageError(
                    "variable x[%d,%d] is outside the %d x %d variable matrix"
                    % (i, j, r.ell, r.n)
                )
            return r.var(i, j)
        if tok in _TAGS:
            self.take()
            lam = self.int_list()
            return expand_basis(tok, lam, 1, self.ring.n, self.ring.ell)
        raise UsageError(
            "unexpected token %r in generator %r (expected a rational, a "
            "symmetric-function tag m/e/h/p/s, or a variable x[i,j])"
            % (tok, self.text)
        )


def parse_expression(text, r):
    """One generator expression -> Poly in the ring r."""
    try:
        return _Parser(text, r).parse()
    except ValueError as exc:  # polyring refuses degrees above the cap
        raise UsageError(
            "generator %r has a degree above the packed-exponent cap %d (%s)"
            % (text, MAX_TOTAL_DEGREE, exc)
        ) from None


_FAMILY_RE = re.compile(r"family:([ABCT]):(\d+)$")


def is_family(text):
    return text == "vandermonde" or bool(_FAMILY_RE.match(text))


def expand_family(text, r):
    """A family keyword -> explicit list of polynomials (a stable family)."""
    n = r.n
    if text == "vandermonde":
        degree = n * (n - 1) // 2
        if degree > MAX_TOTAL_DEGREE:
            raise UsageError(
                "vandermonde at n=%d has degree %d, above the packed-exponent "
                "cap %d" % (n, degree, MAX_TOTAL_DEGREE)
            )
        f = r.one()
        for i, j in combinations(range(1, n + 1), 2):
            f = f * (r.var(1, i) - r.var(1, j))
        return [f]
    m = _FAMILY_RE.match(text)
    if m is None:
        raise UsageError("unknown family %r" % text)
    kind, d = m.group(1), int(m.group(2))
    if d < 1:
        raise UsageError("family degree must be at least 1 in %r" % text)
    if d > MAX_TOTAL_DEGREE:
        raise UsageError(
            "family degree %d is above the packed-exponent cap %d"
            % (d, MAX_TOTAL_DEGREE)
        )
    if kind == "A":
        return [r.var(1, j) ** d for j in range(1, n + 1)]
    if kind == "B":
        if n < 2:
            raise UsageError("family:B needs n >= 2")
        return [
            r.var(1, i) ** d - r.var(1, j) ** d
            for i, j in combinations(range(1, n + 1), 2)
        ]
    if kind == "C":
        if d > n:
            raise UsageError(
                "family:C:%d needs n >= %d (squarefree monomials)" % (d, d)
            )
        out = []
        for cols in combinations(range(1, n + 1), d):
            out.append(r.monomial({(1, j): 1 for j in cols}))
        return out
    # kind == "T": every monomial of total degree d in the first row
    out = []
    for cols in combinations_with_replacement(range(1, n + 1), d):
        exps = {}
        for j in cols:
            exps[(1, j)] = exps.get((1, j), 0) + 1
        out.append(r.monomial(exps))
    return out


def parse_generator_args(args, r):
    """Expand command-line --gen values into a flat polynomial list."""
    polys = []
    for arg in args:
        if is_family(arg):
            polys.extend(expand_family(arg, r))
        else:
            polys.append(parse_expression(arg, r))
    return polys
