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
from . import SELECTOR_FILES
from .expressions import parse_generator_args

ENV_FIXTURES = "POLMOD_FIXTURES"


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
            wanted = SELECTOR_FILES
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


def _pool_size(jobs):
    """Worker processes for `jobs` independent modules: one per CPU this
    process may run on, and no more than there are modules."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def summarise(key, frobenius):
    """(Hilbert series, Frobenius series) of the module of one key.

    Each entry is the series or the exception computing it raised; the
    Frobenius entry is None unless `frobenius`. A failure to build the
    module is both entries, as a record asking for either would meet it.
    """
    generators, mode, n, ell = key
    try:
        polys = parse_generator_args(list(generators), ring(ell, n))
        family = GeneratorFamily(polys, mode=mode, text=list(generators))
        module = polarization_module(family)
        hs = hilbert_series(module)
    except Exception as exc:
        return exc, exc
    if not frobenius:
        return hs, None
    try:
        return hs, frobenius_series(module)
    except Exception as exc:
        return hs, exc


def summarise_all(wanted):
    """{key: summarise(key, frobenius)} over wanted = {key: frobenius}.

    The modules share no state, so with two or more CPUs they are built in
    fork-started worker processes; every worker is joined before this
    returns. Otherwise they are built here, one by one.
    """
    workers = _pool_size(len(wanted))
    if workers >= 2:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                futures = {
                    key: pool.submit(summarise, key, frobenius)
                    for key, frobenius in wanted.items()
                }
                try:
                    return {key: future.result() for key, future in futures.items()}
                finally:  # if a wait fails, build no module not yet started
                    for future in futures.values():
                        future.cancel()
    return {key: summarise(key, frobenius) for key, frobenius in wanted.items()}


def _record_modules(rec):
    """(key, needs the Frobenius series) for each module a record reads."""
    kind = rec["kind"]
    mode = rec.get("mode", "orbit")
    if kind == "frobenius":
        for n in rec["n_values"]:
            for ell in rec["ell_values"]:
                yield (tuple(rec["generators"]), mode, n, ell), True
    elif kind in ("hilbert", "h_positive"):
        gens = list(rec["generators"])
        if kind == "hilbert":
            gens += rec.get("also_printed_generators", [])
        for n in rec["n_values"]:
            for ell in rec["ell_values"]:
                for gen in gens:
                    yield ((gen,), mode, n, ell), False


def module_requests(records):
    """{key: needs the Frobenius series} over the modules that records ask
    for, in record order.

    Collection stops at the first record it cannot read. The records are
    then checked in order, so that record still raises its own error where
    it stands, and a module asked for after it is summarised on request.
    """
    wanted = {}
    try:
        for rec in records:
            for key, frobenius in _record_modules(rec):
                wanted[key] = wanted.get(key, False) or frobenius
    except Exception:
        pass
    return wanted


class Session:
    """Module summaries of one verify run, keyed by (generators, mode, n,
    ell).

    prefetch() summarises the modules the records will ask for, in
    parallel where it can; a module not prefetched is summarised on its
    first request. A stored exception is raised at every request for it,
    so an error surfaces at the first record that needs the module.
    """

    def __init__(self):
        self._summaries = {}

    def prefetch(self, wanted):
        self._summaries.update(summarise_all(wanted))

    def _series(self, generators, mode, n, ell, frobenius):
        key = (tuple(generators), mode, n, ell)
        summary = self._summaries.get(key)
        if summary is None or (frobenius and summary[1] is None):
            summary = self._summaries[key] = summarise(key, frobenius)
        value = summary[1 if frobenius else 0]
        if isinstance(value, Exception):
            raise value
        return value

    def hilbert(self, generators, mode, n, ell):
        """Schur-basis Hilbert series of a module."""
        return self._series(generators, mode, n, ell, False)

    def frobenius(self, generators, mode, n, ell):
        """Bigraded Frobenius series of a module."""
        return self._series(generators, mode, n, ell, True)


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
            got = session.frobenius(rec["generators"], mode, n, ell)
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


def _read_records(files):
    """(records, error): the records of `files` in order, up to the first
    file that fails to load, and that failure (None if every file loaded)."""
    records = []
    for fname in files:
        try:
            records.extend(json.loads(fixture_text(fname))["records"])
        except Exception as exc:
            return records, exc
    return records, None


def run_verify(selector_names):
    """Check the records of the selected fixture files.

    The modules the records read are summarised first, in parallel where
    possible; the records are then checked in order against the
    summaries, so results and errors come out as from one sequential pass.
    """
    records, load_error = _read_records(resolve_selectors(selector_names))
    session = Session()
    session.prefetch(module_requests(records))
    results = []
    for rec in records:
        results.extend(run_record(rec, session))
    if load_error is not None:
        raise load_error
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
