"""Shared helpers: deterministic random polynomials and permutations."""

import random

from polmod import QQ


def seeded(tag, salt=0):
    """A Random instance with a reproducible, test-specific seed."""
    return random.Random("polmod:%s:%d" % (tag, salt))


def random_homogeneous(rng, r, multidegree, terms=4):
    """Random homogeneous polynomial with the given multidegree.

    Each term distributes every row's degree over that row's columns
    independently; coefficients are small nonzero rationals. The result can
    collapse to fewer terms (or to zero if coefficients cancel) but is
    always homogeneous.
    """
    out = r.zero()
    for _ in range(terms):
        exps = {}
        for i, di in enumerate(multidegree, start=1):
            for _ in range(di):
                j = rng.randrange(1, r.n + 1)
                exps[(i, j)] = exps.get((i, j), 0) + 1
        num = rng.choice([v for v in range(-9, 10) if v])
        out = out + r.monomial(exps, QQ(num, rng.randrange(1, 5)))
    return out


def random_nonzero_homogeneous(rng, r, multidegree, terms=4):
    while True:
        f = random_homogeneous(rng, r, multidegree, terms)
        if not f.is_zero():
            return f


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def compose(t, s):
    """(t*s)(j) = t(s(j)) for 1-based image tuples."""
    return tuple(t[s[j - 1] - 1] for j in range(1, len(s) + 1))


def random_rational(rng, span=9):
    num = rng.randrange(-span, span + 1)
    return QQ(num, rng.randrange(1, 5))


def random_nonzero_rational(rng, span=9):
    num = rng.choice([v for v in range(-span, span + 1) if v])
    return QQ(num, rng.randrange(1, 5))


def render_cell_by_cell(f):
    """Reference text of a Poly: terms by decreasing (total degree, code),
    each built from its unpacked exponents and its rational coefficient."""
    r = f.ring
    pieces = []
    for code in sorted(f.terms, key=lambda c: (sum(r.unpack(c)), c), reverse=True):
        q = f.terms[code]
        factors = []
        for idx, a in enumerate(r.unpack(code)):
            if a:
                i, j = divmod(idx, r.n)
                v = "x[%d,%d]" % (i + 1, j + 1)
                factors.append(v if a == 1 else "%s^%d" % (v, a))
        mag = str(abs(q))
        if not factors:
            body = mag
        elif abs(q) != 1:
            body = mag + "*" + "*".join(factors)
        else:
            body = "*".join(factors)
        if not pieces:
            pieces.append(body if q > 0 else "-" + body)
        else:
            pieces.append((" + " if q > 0 else " - ") + body)
    return "".join(pieces) or "0"
