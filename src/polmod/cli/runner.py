"""Build modules for command-line jobs and serialize the results.

Every job function returns (doc, render): the JSON-ready dictionary and a
zero-argument function that builds the human-readable rendering of the same
result, so the text is only built when it is printed.

The classification layer (polmod.exceptions) is imported inside the
classify and exceptions jobs only, so module jobs do not load it.
"""

from ..closure import GeneratorFamily, polarization_module
from ..errors import UsageError
from ..frobenius import frobenius_series, hilbert_series, oracle_series
from ..polyring import ring
from ..rationals import QQ, rational_from_string, rational_to_json
from ..symfunc import expand_basis, schur_to_h
from .expressions import is_family, parse_expression, parse_generator_args


def _resolve_ring(gen_args, n, ell, full_mu):
    """Parse generators, growing ell to the top degree under --full-mu."""
    r = ring(ell, n)
    polys = parse_generator_args(gen_args, r)
    if full_mu:
        top = max((f.total_degree_max() for f in polys if not f.is_zero()), default=0)
        if top > ell:
            r = ring(top, n)
            polys = parse_generator_args(gen_args, r)
    return r, polys


def build_module(gen_args, n, ell, full_mu=False):
    if not gen_args:
        raise UsageError("at least one --gen is required")
    r, polys = _resolve_ring(gen_args, n, ell, full_mu)
    return polarization_module(GeneratorFamily(polys, mode="orbit"))


def sym_to_json(series):
    return [
        {"mu": list(mu), "coeff": rational_to_json(q)}
        for mu, q in series.items_sorted()
    ]


def _series_job(gen_args, n, ell, full_mu, with_frobenius):
    """Shared body of frobenius_job and hilbert_job."""
    module = build_module(gen_args, n, ell, full_mu)
    doc = {"n": module.n, "ell": module.ell, "generators": list(gen_args)}
    fs = None
    if with_frobenius:
        fs = frobenius_series(module)
        doc["frobenius"] = fs.to_json_list()
    hs = hilbert_series(module)
    hh = schur_to_h(hs)
    doc["hilbert"] = sym_to_json(hs)
    doc["hilbert_h_basis"] = sym_to_json(hh)
    doc["dimension"] = module.total_dimension()

    def render():
        lines = [
            "n = %d, ell = %d" % (doc["n"], doc["ell"]),
            "generators: %s" % "; ".join(doc["generators"]),
        ]
        if fs is not None:
            lines.append("frobenius: %s" % fs)
        lines += [
            "hilbert (schur): %s" % hs,
            "hilbert (homogeneous): %s" % hh,
            "dimension = %d" % doc["dimension"],
        ]
        return "\n".join(lines)

    return doc, render


def frobenius_job(gen_args, n, ell, full_mu=False):
    return _series_job(gen_args, n, ell, full_mu, with_frobenius=True)


def hilbert_job(gen_args, n, ell, full_mu=False):
    return _series_job(gen_args, n, ell, full_mu, with_frobenius=False)


def basis_job(gen_args, n, ell, full_mu=False):
    module = build_module(gen_args, n, ell, full_mu)
    doc = module.to_json_dict()
    doc["generators"] = list(gen_args)

    def render():
        lines = [
            "n = %d, ell = %d" % (doc["n"], doc["ell"]),
            "generators: %s" % "; ".join(doc["generators"]),
            "dimension = %d" % doc["dimension"],
        ]
        for comp in doc["components"]:
            lines.append(
                "degree %s: dimension %d" % (tuple(comp["degree"]), comp["dimension"])
            )
            for f in comp["basis"]:
                lines.append("  %s" % f)
        return "\n".join(lines)

    return doc, render


# ---------------------------------------------------------------------------
# degree-2/3 classification of a symmetric one-row input

_REFERENCE_N = 3


def extract_symmetric_coeffs(text):
    """Monomial-basis coefficients (a, b) or (a, b, c) of a generator.

    The expression is read in a reference ring with one row and three
    columns, which separates every monomial shape in degrees 2 and 3; the
    reconstruction check catches non-symmetric input exactly.
    """
    if is_family(text):
        raise UsageError("classify takes a single polynomial, not a family")
    r = ring(1, _REFERENCE_N)
    f = parse_expression(text, r)
    if f.is_zero():
        raise UsageError("classify needs a nonzero generator")
    if not f.is_homogeneous():
        raise UsageError("classify needs a homogeneous generator")
    degree = f.total_degree_max()
    if degree == 2:
        markers = [{(1, 1): 2}, {(1, 1): 1, (1, 2): 1}]
        shapes = [(2,), (1, 1)]
    elif degree == 3:
        markers = [
            {(1, 1): 3},
            {(1, 1): 2, (1, 2): 1},
            {(1, 1): 1, (1, 2): 1, (1, 3): 1},
        ]
        shapes = [(3,), (2, 1), (1, 1, 1)]
    else:
        raise UsageError(
            "classify supports degrees 2 and 3; generator %r has degree %d"
            % (text, degree)
        )
    def marker_code(exps):
        (code,) = r.monomial(exps).terms
        return code

    coeffs = tuple(f.terms.get(marker_code(mk), QQ(0)) for mk in markers)
    model = r.zero()
    for q, shape in zip(coeffs, shapes):
        if q:
            model = model + expand_basis("m", shape, 1, r.n, r.ell).scale(q)
    if model != f:
        raise UsageError(
            "generator %r is not a symmetric polynomial of the first row" % text
        )
    return degree, coeffs


def class_series(degree, coeffs, n, ell):
    if degree == 2:
        a, b = coeffs
        return oracle_series("deg2", n=n, ell=ell, a=a, b=b)
    a, b, c = coeffs
    return oracle_series("deg3", n=n, ell=ell, a=a, b=b, c=c)


def classify_job(gen_args, n, ell, full_mu=False):
    from ..exceptions import classify, is_n_exception

    if len(gen_args) != 1:
        raise UsageError("classify takes exactly one --gen")
    degree, coeffs = extract_symmetric_coeffs(gen_args[0])
    if full_mu:
        ell = max(ell, degree)
    tag = classify(degree, coeffs, n)
    series = class_series(degree, coeffs, n, ell)
    doc = {
        "n": n,
        "ell": ell,
        "generators": list(gen_args),
        "degree": degree,
        "coeffs": [rational_to_json(q) for q in coeffs],
        "class": tag,
        "series": series.to_json_list(),
        "dimension": series.dimension(ell),
    }
    if degree == 3:
        doc["exception"] = is_n_exception(*coeffs, n)

    def render():
        lines = [
            "n = %d, ell = %d" % (n, ell),
            "generator: %s" % gen_args[0],
            "class: %s" % tag,
            "series: %s" % series,
            "dimension = %d" % doc["dimension"],
        ]
        if "exception" in doc:
            lines.insert(3, "exception: %s" % doc["exception"])
        return "\n".join(lines)

    return doc, render


# ---------------------------------------------------------------------------
# exception equation and point classification

def equation_text(n):
    from ..exceptions import exception_equation

    n1, n2, n3, n4 = exception_equation(n)

    def scaled(k, name):
        return name if k == 1 else "%d%s" % (k, name)

    lhs = "%s(%s + %s)" % (scaled(n1, "a"), scaled(n2, "b"), scaled(n3, "c"))
    rhs = scaled(n4, "b^2")
    return lhs, rhs


def parse_point(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(parts):
        raise UsageError("a point is three comma-separated rationals, got %r" % text)
    try:
        return tuple(rational_from_string(p) for p in parts)
    except ValueError as exc:
        raise UsageError("bad point %r: %s" % (text, exc))


def exceptions_job(n, point_args):
    from ..exceptions import classify, is_n_exception

    if n < 3:
        raise UsageError(
            "the exceptions subcommand emits the table normal form, defined "
            "for n >= 3 (use classify for n = 2)"
        )
    lhs, rhs = equation_text(n)
    points = []
    for text in point_args:
        a, b, c = parse_point(text)
        if not (a or b or c):
            raise UsageError("the zero point cannot be classified")
        points.append(
            {
                "abc": [rational_to_json(q) for q in (a, b, c)],
                "exception": is_n_exception(a, b, c, n),
                "class": classify(3, (a, b, c), n),
            }
        )
    doc = {"n": n, "equation": {"lhs": lhs, "rhs": rhs}, "points": points}

    def render():
        lines = ["n = %d" % n, "equation: %s = %s" % (lhs, rhs)]
        for pt in points:
            lines.append(
                "[%s] exception=%s class=%s"
                % (":".join(str(v) for v in pt["abc"]), pt["exception"], pt["class"])
            )
        return "\n".join(lines)

    return doc, render
