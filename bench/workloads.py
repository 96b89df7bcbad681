"""The benchmark's workloads: polmod command lines and what each must satisfy.

A job is one argument vector for polmod.cli.main plus the expectations the
checks need. Everything seeded comes from random.Random(seed), so a seed
fixes the inputs.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from checks import cubic_class, is_collapse

TABLE4_FIXTURE = Path("src", "polmod", "fixtures", "frobenius_deg4.json")


def _rational(rng, nonzero=True):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q or not nonzero:
            return q


def _text(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def cubic_expression(abc):
    """a*m[3] + b*m[2,1] + c*m[1,1,1] in polmod's generator syntax."""
    out = []
    for q, atom in zip(abc, ("m[3]", "m[2,1]", "m[1,1,1]")):
        if q:
            term = "%s*%s" % (_text(abs(q)), atom)
            if out:
                out.append(("- " if q < 0 else "+ ") + term)
            else:
                out.append(("-" if q < 0 else "") + term)
    return " ".join(out)


def generic_cubic(rng, n):
    """A cubic off the collapse curve and away from the cube point.

    Every seed then builds a module of the same shape and size, so seeds
    change the rational coefficients but not the amount of work.
    """
    while True:
        abc = tuple(_rational(rng) for _ in range(3))
        if cubic_class(*abc, n) == "H3":
            return abc


def collapse_cubic(rng, n):
    """A cubic on the collapse curve: c solved from seeded a and b."""
    while True:
        a, b = _rational(rng), _rational(rng)
        c = (4 * (n - 1) * b * b - 12 * a * b) / (6 * (n - 2) * a)
        if c and is_collapse(a, b, c, n):
            return (a, b, c)


def job(argv, **expect):
    return {"argv": list(argv) + ["--format", "json"], "mode": argv[0], "expect": expect}


def module_job(mode, gen, n, ell, **expect):
    # the --opt=value form keeps a leading minus sign from reading as a flag
    return job([mode, "--gen=" + gen, "--n", str(n), "--ell", str(ell)], **expect)


def ell3_closure(rng, root):
    cubic = generic_cubic(rng, 5)
    return [
        module_job("frobenius", "vandermonde", 4, 3, closed_form={"kind": "vandermonde"}),
        module_job("frobenius", "m[3,2]", 5, 3),
        module_job("frobenius", "e[1]^5", 5, 3, closed_form={"kind": "e1_power", "d": 5}),
        module_job("frobenius", "p[5]", 6, 3, closed_form={"kind": "p_d", "d": 5}),
        module_job("frobenius", "x[1,1]^2*x[2,2]", 5, 3),
        module_job(
            "frobenius", cubic_expression(cubic), 5, 3,
            closed_form={"kind": "deg3", "abc": cubic},
        ),
    ]


def table4_replay(rng, root):
    records = json.loads((root / TABLE4_FIXTURE).read_text())["records"]
    checks = sum(len(r["n_values"]) * len(r["ell_values"]) for r in records)
    return [job(["verify", "--set", "table:4"], checks=checks)]


def wide_n(rng, root):
    collapse = collapse_cubic(rng, 10)
    point = tuple(_rational(rng, nonzero=False) for _ in range(3))
    while not any(point):
        point = tuple(_rational(rng, nonzero=False) for _ in range(3))
    return [
        module_job("basis", "m[2,1,1]", 10, 1),
        module_job("basis", "s[2,2]", 9, 2),
        module_job("frobenius", "m[3,1]", 10, 2),
        module_job("frobenius", "e[4]", 10, 2, closed_form={"kind": "e_d", "d": 4}),
        module_job("frobenius", "p[3,1]", 10, 1),
        # m[1,1,1] is e[3]
        module_job("hilbert", "m[1,1,1]", 10, 2, closed_form={"kind": "e_d", "d": 3}),
        module_job("classify", cubic_expression(collapse), 10, 2, abc=collapse),
        job(
            ["exceptions", "--n", "10"]
            + ["--point=" + ",".join(map(_text, p)) for p in (collapse, point)],
            points=[collapse, point],
        ),
    ]


WORKLOADS = {
    "ell3-closure": ell3_closure,
    "table4-replay": table4_replay,
    "wide-n": wide_n,
}


def build(name, seed, root):
    """The job list of one workload for one seed."""
    return WORKLOADS[name](random.Random(seed), root)
