"""Exact rational scalars.

Polynomial coefficients, characters and series coefficients are rational
numbers of type QQ, the stdlib fractions.Fraction. The closure's echelon
rows and the Schur expansion of the series are the exceptions: they work
in integers (see closure.py and symfunc.schur_coefficients), and rationals
appear there only when polynomials go in or results come out. Fraction
arithmetic is under a tenth of a profiled pass on every benchmark
workload, which bounds what a faster rational type could buy.
"""

from __future__ import annotations

from fractions import Fraction

QQ = Fraction


def rational_from_string(text):
    """Parse 'a' or 'a/b' into an exact rational."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        den = int(den)
        if den == 0:
            raise ValueError("zero denominator in %r" % text)
        return QQ(int(num), den)
    return QQ(int(s))


def rational_to_string(q):
    """Canonical text form: integer when integral, 'a/b' otherwise."""
    q = QQ(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def rational_to_json(q):
    """JSON value for a rational: int when integral, string 'a/b' otherwise."""
    q = QQ(q)
    if q.denominator == 1:
        return int(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def as_int(q):
    """Convert an exactly-integral rational to int; raise if it is not."""
    q = QQ(q)
    if q.denominator != 1:
        raise ValueError("expected an integer, got %s" % q)
    return int(q.numerator)
