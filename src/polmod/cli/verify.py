"""Check the bundled expected-value records against the engine.

Records live in JSON files under polmod/fixtures (overridable with the
POLMOD_FIXTURES environment variable, which names a directory with the
same file names). Records carry a tier: 'assert' records fail the run on
any mismatch, 'report' records only describe what the engine found.
"""

import json
import os
from importlib import resources

from ..closure import GeneratorFamily, polarization_module
from ..errors import UsageError
from ..exceptions import exception_equation, is_n_exception, partials_span_dimension
from ..frobenius import FrobeniusSeries, frobenius_series, hilbert_series
from ..polyring import ring
from ..rationals import QQ
from ..symfunc import SymSeries, schur_to_h
from .expressions import parse_generator_args

ENV_FIXTURES = "POLMOD_FIXTURES"

SELECTOR_FILES = {
    "table:4": ["frobenius_deg4.json"],
    "table:5": ["frobenius_deg5.json"],
    "homog": ["homog.json"],
    "examples:fast": ["examples_fast.json"],
    "exceptions": ["exceptions_table.json"],
    "hilbert:4": ["hilbert_deg4.json"],
    "hilbert:5": ["hilbert_deg5.json"],
    "experiments": ["experiments.json"],
}

_ALL_ORDER = [
    "examples:fast",
    "exceptions",
    "homog",
    "table:4",
    "table:5",
    "hilbert:4",
    "hilbert:5",
    "experiments",
]


def fixture_text(name):
    override = os.environ.get(ENV_FIXTURES)
    if override:
        path = os.path.join(override, name)
        if not os.path.exists(path):
            raise UsageError("fixture override %s has no file %s" % (override, name))
        with open(path) as fh:
            return fh.read()
    return resources.files("polmod.fixtures").joinpath(name).read_text()


def resolve_selectors(names):
    files = []
    for name in names:
        if name == "all":
            wanted = _ALL_ORDER
        elif name in SELECTOR_FILES:
            wanted = [name]
        else:
            raise UsageError(
                "unknown fixture selector %r (valid: %s, all)"
                % (name, ", ".join(sorted(SELECTOR_FILES)))
            )
        for sel in wanted:
            for fname in SELECTOR_FILES[sel]:
                if fname not in files:
                    files.append(fname)
    return files


def realize_expected(series, n, ell):
    """A fixture series (w_tail/q form) as a concrete FrobeniusSeries."""
    fs = FrobeniusSeries(n)
    for part in series:
        tail = tuple(part["w_tail"])
        head = n - sum(tail)
        if tail and head < tail[0]:
            continue
        if head < 1:
            continue
        lam = (head,) + tail
        for mu, q in part["q"]:
            if len(mu) <= ell:
                fs.add_term(tuple(mu), lam, q)
    return fs


def eval_coeff_poly(entry, n):
    num = sum(c * n ** i for i, c in enumerate(entry["c"]))
    den = entry.get("den", 1)
    q = QQ(num, den)
    if q.denominator != 1:
        raise UsageError("non-integral table coefficient %s at n=%d" % (entry, n))
    return int(q.numerator)


def expected_hilbert(coeffs, n, ell):
    out = {}
    for entry in coeffs:
        mu = tuple(entry["mu"])
        if len(mu) > ell:
            continue
        v = eval_coeff_poly(entry, n)
        if v:
            out[mu] = QQ(v)
    return out


class Session:
    """Keeps the Hilbert series of every module built, across records.

    Records reuse a module only to read its Hilbert series, so the series
    is kept and the module itself is left to the caller.
    """

    def __init__(self):
        self._hilbert = {}

    def module(self, generators, mode, n, ell):
        """Build a module and remember its Hilbert series."""
        r = ring(ell, n)
        polys = parse_generator_args(generators, r)
        family = GeneratorFamily(polys, mode=mode, text=generators)
        module = polarization_module(family)
        self._hilbert[(tuple(generators), mode, n, ell)] = hilbert_series(module)
        return module

    def hilbert(self, generators, mode, n, ell):
        """Schur-basis Hilbert series, building the module on a miss."""
        key = (tuple(generators), mode, n, ell)
        if key not in self._hilbert:
            self.module(generators, mode, n, ell)
        return self._hilbert[key]


def _result(rec, where, status, detail=None):
    out = {"id": rec["id"], "tier": rec["tier"], "status": status}
    if where:
        out["where"] = where
    if detail:
        out["detail"] = detail
    return out


def _status(rec, ok):
    if rec["tier"] == "report":
        return "report-ok" if ok else "report-mismatch"
    return "ok" if ok else "mismatch"


def _check_frobenius(rec, session):
    results = []
    mode = rec.get("mode", "orbit")
    for n in rec["n_values"]:
        for ell in rec["ell_values"]:
            got = frobenius_series(session.module(rec["generators"], mode, n, ell))
            want = realize_expected(rec["series"], n, ell)
            ok = got.coeffs == want.coeffs
            detail = None if ok else "engine: %s / expected: %s" % (got, want)
            results.append(
                _result(rec, "n=%d ell=%d" % (n, ell), _status(rec, ok), detail)
            )
    return results


def _hilbert_in_basis(hs, basis):
    return schur_to_h(hs) if basis == "h" else hs


def _check_hilbert(rec, session):
    results = []
    mode = rec.get("mode", "orbit")
    basis = rec["basis"]
    for n in rec["n_values"]:
        for ell in rec["ell_values"]:
            want = expected_hilbert(rec["coeffs"], n, ell)
            for gen in rec["generators"]:
                hs = session.hilbert([gen], mode, n, ell)
                got = _hilbert_in_basis(hs, basis).coeffs
                ok = got == want
                detail = None
                if not ok:
                    detail = "engine: %s / expected: %s" % (
                        SymSeries("schur" if basis == "s" else "homogeneous", got),
                        SymSeries("schur" if basis == "s" else "homogeneous", want),
                    )
                results.append(
                    _result(
                        rec,
                        "%s n=%d ell=%d" % (gen, n, ell),
                        _status(rec, ok),
                        detail,
                    )
                )
            for gen in rec.get("also_printed_generators", []):
                hs = session.hilbert([gen], mode, n, ell)
                got = _hilbert_in_basis(hs, basis).coeffs
                matches = got == want
                results.append(
                    _result(
                        rec,
                        "%s n=%d ell=%d" % (gen, n, ell),
                        "report-ok",
                        "printed in this row too; engine row %s this one"
                        % ("matches" if matches else "does not match"),
                    )
                )
    return results


def _check_equation(rec):
    got = exception_equation(rec["n"])
    want = tuple(rec["normal_form"])
    ok = got == want
    detail = None if ok else "engine: %s / expected: %s" % (got, want)
    return [_result(rec, "n=%d" % rec["n"], _status(rec, ok), detail)]


def _check_point(rec):
    results = []
    a, b, c = (QQ(str(v)) for v in rec["abc"])
    for n in rec["n_values"]:
        got = is_n_exception(a, b, c, n)
        ok = got == rec["expected"]
        detail = None if ok else "engine: %s / expected: %s" % (got, rec["expected"])
        results.append(_result(rec, "n=%d" % n, _status(rec, ok), detail))
    return results


def _check_span_dim(rec):
    results = []
    for n in rec["n_values"]:
        r = ring(1, n)
        polys = parse_generator_args(rec["generators"], r)
        if len(polys) != 1:
            raise UsageError("span_dim takes a single generator")
        dim = partials_span_dimension(polys[0])
        ok = dim == rec["expected_dim"]
        detail = "span dimension %d (expected %d)" % (dim, rec["expected_dim"])
        results.append(_result(rec, "n=%d" % n, _status(rec, ok), detail))
    return results


def _check_p2_shift(rec):
    results = []
    n = rec["n_values"][0]
    r = ring(1, n)
    polys = parse_generator_args(rec["generators"], r)
    g = polys[0]
    lhs = g.polarize(1, 1, 2)
    rhs = r.zero()
    for j in range(1, n + 1):
        rhs = rhs + g.derive(1, j)
    identity = lhs == rhs
    dim = partials_span_dimension(g)
    ok = identity and dim == rec["expected_dim"]
    detail = "identity %s, span dimension %d (expected %d)" % (
        "holds" if identity else "fails",
        dim,
        rec["expected_dim"],
    )
    results.append(_result(rec, "n=%d" % n, _status(rec, ok), detail))
    return results


def _check_h_positive(rec, session):
    results = []
    mode = rec.get("mode", "orbit")
    for gen in rec["generators"]:
        for n in rec["n_values"]:
            for ell in rec["ell_values"]:
                hh = schur_to_h(session.hilbert([gen], mode, n, ell))
                bad = {mu: q for mu, q in hh.coeffs.items() if q < 0}
                ok = not bad
                detail = None if ok else "negative terms: %s" % (bad,)
                results.append(
                    _result(
                        rec,
                        "%s n=%d ell=%d" % (gen, n, ell),
                        _status(rec, ok),
                        detail,
                    )
                )
    return results


def run_record(rec, session):
    kind = rec["kind"]
    if kind == "frobenius":
        return _check_frobenius(rec, session)
    if kind == "hilbert":
        return _check_hilbert(rec, session)
    if kind == "equation":
        return _check_equation(rec)
    if kind == "point":
        return _check_point(rec)
    if kind == "span_dim":
        return _check_span_dim(rec)
    if kind == "p2_shift":
        return _check_p2_shift(rec)
    if kind == "h_positive":
        return _check_h_positive(rec, session)
    raise UsageError("unknown fixture kind %r in %s" % (kind, rec["id"]))


def run_verify(selector_names):
    files = resolve_selectors(selector_names)
    session = Session()
    results = []
    for fname in files:
        doc = json.loads(fixture_text(fname))
        for rec in doc["records"]:
            results.extend(run_record(rec, session))
    passed = sum(1 for r in results if r["status"] == "ok")
    failed = sum(1 for r in results if r["status"] == "mismatch")
    reported = sum(1 for r in results if r["status"].startswith("report"))
    doc = {
        "selectors": list(selector_names),
        "checked": len(results),
        "passed": passed,
        "failed": failed,
        "reported": reported,
        "results": results,
    }

    def render():
        lines = []
        for r in results:
            where = (" (%s)" % r["where"]) if "where" in r else ""
            line = "%-15s %s%s" % (r["status"].upper(), r["id"], where)
            if r.get("detail") and r["status"] in ("mismatch", "report-mismatch"):
                line += "\n    %s" % r["detail"]
            lines.append(line)
        lines.append(
            "checked %d: %d passed, %d failed, %d reported"
            % (len(results), passed, failed, reported)
        )
        return "\n".join(lines)

    return doc, render
