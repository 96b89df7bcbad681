"""Show that every check in checks.py rejects corrupted output.

    python3 bench/selftest.py

Run from the root of a source checkout. Small polmod jobs produce real
documents; each must pass all of its checks unchanged. Then one corruption
at a time is applied to a copy, and every check named for it must raise
CheckError. Exits 1 if a corruption slips through or a clean document is
rejected.
"""

import copy
import json
import random
import sys

import checks
import run
from checks import (
    CheckError,
    check_basis,
    check_classify,
    check_closed_form,
    check_document,
    check_exceptions,
    check_hilbert,
    check_multiplicities,
    check_series_dimension,
    check_sorted_dims,
    check_verify,
)
from workloads import collapse_cubic, cubic_expression, job, module_job


def _jobs():
    cubic = collapse_cubic(random.Random(0), 5)
    fixture = json.loads((run.SRC / "polmod" / "fixtures" / "exceptions_table.json").read_text())
    verify_checks = sum(len(r.get("n_values", [None])) for r in fixture["records"])
    return {
        "frobenius": module_job("frobenius", "p[3]", 3, 2, closed_form={"kind": "p_d", "d": 3}),
        "hilbert": module_job("hilbert", "m[1,1,1]", 4, 2, closed_form={"kind": "e_d", "d": 3}),
        "basis": module_job("basis", "s[2,1]", 3, 2),
        "classify": module_job("classify", cubic_expression(cubic), 5, 2, abc=cubic),
        "exceptions": job(["exceptions", "--n", "5", "--point=" + ",".join(map(str, cubic)), "--point=1,1,1"],
                           points=[cubic, (1, 1, 1)]),
        "verify": job(["verify", "--set", "exceptions"], checks=verify_checks),
    }


def _first_term(text):
    return text.replace(" - ", " + ").split(" + ")[0]


def _bump(entries, delta=1):
    entries[-1]["coeff"] += delta


def _drop_nondominant_row(doc):
    comp = next(c for c in doc["components"] if list(c["degree"]) != sorted(c["degree"], reverse=True))
    comp["basis"].pop()
    comp["dimension"] -= 1
    doc["dimension"] -= 1


def _unreduce(doc):
    comp = next(c for c in doc["components"] if len(c["basis"]) >= 2)
    comp["basis"][1] += " + " + _first_term(comp["basis"][0])


def _rescale_pivot(doc):
    comp = doc["components"][-1]
    comp["basis"][0] = "2*" + comp["basis"][0].lstrip("-")


def _drop_row(doc):
    doc["components"][-1]["basis"].pop()


def _grow_component(doc):
    doc["components"][-1]["dimension"] += 1
    doc["dimension"] += 1


def _flip_point(doc):
    doc["points"][0]["exception"] = not doc["points"][0]["exception"]


def _mismatch(doc):
    doc["results"][0]["status"] = "mismatch"
    doc["failed"] += 1


def _drop_result(doc):
    doc["results"].pop()
    doc["checked"] -= 1


def _set(path, value):
    def apply(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return apply


# (what, document, corruption, checks that must reject it)
CASES = [
    ("changed multiplicity", "frobenius", lambda d: _bump(d["frobenius"]),
     [check_series_dimension, check_hilbert, check_closed_form]),
    ("negative multiplicity", "frobenius", _set(["frobenius", 0, "coeff"], -1), [check_multiplicities]),
    ("fractional multiplicity", "frobenius", _set(["frobenius", 0, "coeff"], "1/2"), [check_multiplicities]),
    ("dimension off by one", "frobenius", lambda d: d.update(dimension=d["dimension"] + 1),
     [check_series_dimension, check_hilbert, check_closed_form]),
    ("changed Schur Hilbert coefficient", "frobenius", lambda d: _bump(d["hilbert"]), [check_hilbert]),
    ("changed h-basis Hilbert coefficient", "frobenius", lambda d: _bump(d["hilbert_h_basis"]), [check_hilbert]),
    ("Hilbert dimension off by one", "hilbert", lambda d: d.update(dimension=d["dimension"] + 1),
     [check_hilbert, check_closed_form]),
    ("changed Hilbert coefficient", "hilbert", lambda d: _bump(d["hilbert"]), [check_closed_form]),
    ("dropped basis row", "basis", _drop_row, [check_basis]),
    ("component dimension off by one", "basis", _grow_component, [check_basis]),
    ("row not reduced", "basis", _unreduce, [check_basis]),
    ("pivot not normalised", "basis", _rescale_pivot, [check_basis]),
    ("dims(d) != dims(sort(d))", "basis", _drop_nondominant_row, [check_sorted_dims]),
    ("wrong class", "classify", _set(["class"], "H3"), [check_classify]),
    ("wrong collapse flag", "classify", _set(["exception"], False), [check_classify]),
    ("changed class series", "classify", lambda d: _bump(d["series"]), [check_closed_form]),
    ("wrong equation", "exceptions", _set(["equation", "rhs"], "4b^2"), [check_exceptions]),
    ("wrong point verdict", "exceptions", _flip_point, [check_exceptions]),
    ("wrong point class", "exceptions", _set(["points", 1, "class"], "P3"), [check_exceptions]),
    ("table mismatch", "verify", _mismatch, [check_verify]),
    ("dropped table check", "verify", _drop_result, [check_verify]),
]


def main():
    polmod = run.import_polmod()
    jobs = _jobs()
    docs = {}
    bad = 0
    for mode, spec in jobs.items():
        code, stdout, stderr, _ = run.run_job(polmod.cli.main.main, spec)
        if code != 0:
            raise SystemExit("selftest: %s job failed: %s" % (mode, stderr))
        docs[mode] = json.loads(stdout)
        try:
            check_document(mode, docs[mode], spec["expect"])
            print("ok    clean %s document passes" % mode)
        except CheckError as exc:
            bad += 1
            print("FAIL  clean %s document rejected: %s" % (mode, exc))
    covered = set()
    for what, mode, corrupt, wanted in CASES:
        doc = copy.deepcopy(docs[mode])
        corrupt(doc)
        for check in wanted:
            covered.add(check)
            try:
                check(doc, jobs[mode]["expect"])
            except CheckError as exc:
                print("ok    %s: %s rejects it (%s)" % (what, check.__name__, exc))
            else:
                bad += 1
                print("FAIL  %s: %s accepts it" % (what, check.__name__))
        try:
            check_document(mode, doc, jobs[mode]["expect"])
        except CheckError:
            pass
        else:
            bad += 1
            print("FAIL  %s: check_document accepts it" % what)
    for check in {c for mode_checks in checks.CHECKS.values() for c in mode_checks} - covered:
        bad += 1
        print("FAIL  %s is never shown to reject anything" % check.__name__)
    print("%d problems" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
