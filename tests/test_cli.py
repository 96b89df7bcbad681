"""Unit tests for expression parsing, jobs, and the command entry point."""

import gc
import json
import os
import pickle
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polmod import (
    FrobeniusSeries,
    NonHomogeneous,
    QQ,
    SymSeries,
    UsageError,
    expand_basis,
    frobenius_series,
    hilbert_series,
    ring,
)
from polmod.cli.expressions import (
    expand_family,
    is_family,
    parse_expression,
    parse_generator_args,
)
from polmod.cli.main import _json_text, main
from polmod.cli.runner import (
    build_module,
    classify_job,
    equation_text,
    exceptions_job,
    extract_symmetric_coeffs,
    frobenius_job,
    hilbert_job,
    basis_job,
    parse_point,
)
from polmod import errors, symfunc
from polmod.cli import runner, verify
from polmod.cli.verify import resolve_selectors, run_verify


# -- expressions -------------------------------------------------------------


def test_parse_simple_expressions():
    r = ring(2, 3)
    f = parse_expression("x[1,1]*x[2,2]", r)
    assert f == r.var(1, 1) * r.var(2, 2)
    g = parse_expression("2*x[1,1]^2 - 1/2*x[1,2]", r)
    assert g == (r.var(1, 1) ** 2).scale(2) - r.var(1, 2).scale(QQ(1, 2))
    # the grammar is sums of monomial terms; no parentheses
    h = parse_expression("x[1,1]^2 + 2*x[1,1]*x[1,2] + x[1,2]^2", r)
    assert h == (r.var(1, 1) + r.var(1, 2)) ** 2


def test_parse_basis_atoms():
    r = ring(1, 3)
    assert parse_expression("p[2]", r) == expand_basis("p", (2,), 1, 3, 1)
    assert parse_expression("m[2,1]", r) == expand_basis("m", (2, 1), 1, 3, 1)
    assert parse_expression("s[2,1]", r) == expand_basis("s", (2, 1), 1, 3, 1)
    assert parse_expression("e[1]^2", r) == expand_basis("e", (1,), 1, 3, 1) ** 2


def test_parse_errors():
    r = ring(1, 2)
    for bad in [
        "x[3,1]",  # row out of range
        "x[1,9]",  # column out of range
        "q[2]",  # unknown tag
        "p[2",  # unbalanced bracket
        "p[0]",  # not a partition
        "p[1,2]",  # not weakly decreasing
        "2**3",  # stray operator
        "",
    ]:
        with pytest.raises(UsageError):
            parse_expression(bad, r)


def test_family_expansion_counts():
    r = ring(2, 4)
    assert is_family("family:A:3")
    assert not is_family("p[3]")
    assert len(expand_family("family:A:3", r)) == 4
    assert len(expand_family("family:B:3", r)) == 6
    assert len(expand_family("family:C:2", r)) == 6
    # all monomials of degree 2 in 4 variables
    assert len(expand_family("family:T:2", r)) == 10
    vdm = expand_family("vandermonde", r)
    assert len(vdm) == 1
    assert vdm[0].multidegree() == (6, 0)


def test_family_validation():
    with pytest.raises(UsageError):
        expand_family("family:B:2", ring(1, 1))  # differences need n >= 2
    with pytest.raises(UsageError):
        expand_family("family:C:4", ring(1, 3))  # squarefree needs d <= n
    with pytest.raises(UsageError):
        expand_family("family:A:0", ring(1, 3))
    with pytest.raises(UsageError):
        expand_family("family:X:2", ring(1, 3))


def test_parse_generator_args_mixes_families_and_expressions():
    r = ring(1, 3)
    polys = parse_generator_args(["family:A:2", "p[2]"], r)
    assert len(polys) == 4


# -- jobs --------------------------------------------------------------------


def test_frobenius_job_document_shape():
    doc, render = frobenius_job(["p[2]"], 3, 2)
    text = render()
    assert doc["n"] == 3
    assert doc["ell"] == 2
    assert doc["generators"] == ["p[2]"]
    assert doc["dimension"] == 10
    assert {"mu", "lambda", "coeff"} == set(doc["frobenius"][0])
    assert {"mu", "coeff"} == set(doc["hilbert"][0])
    assert "s[2,1]" in text
    assert "dimension = 10" in text


def test_hilbert_job_matches_frobenius_job():
    fdoc, _ = frobenius_job(["e[2]"], 4, 2)
    hdoc, _ = hilbert_job(["e[2]"], 4, 2)
    assert hdoc["hilbert"] == fdoc["hilbert"]
    assert hdoc["hilbert_h_basis"] == fdoc["hilbert_h_basis"]
    assert hdoc["dimension"] == fdoc["dimension"]


def test_basis_job_lists_component_bases():
    doc, render = basis_job(["e[1]^2"], 2, 1)
    text = render()
    dims = {tuple(c["degree"]): c["dimension"] for c in doc["components"]}
    assert dims == {(0,): 1, (1,): 1, (2,): 1}
    assert doc["dimension"] == 3
    assert "degree (2,)" in text or "degree (2," in text


def test_full_mu_grows_the_ring_to_the_generator_degree():
    doc, _ = frobenius_job(["p[3]"], 3, 1, full_mu=True)
    assert doc["ell"] == 3
    base, _ = frobenius_job(["p[3]"], 3, 1)
    assert base["ell"] == 1
    assert doc["dimension"] > base["dimension"]
    # every graded piece of this module assembles into one-row Schur
    # polynomials in the set-tracking variables
    mus = {tuple(row["mu"]) for row in doc["frobenius"]}
    assert mus == {(), (1,), (2,), (3,)}


def test_classify_job_quadratic_and_cubic():
    doc, _ = classify_job(["e[1]^2"], 4, 2)
    assert doc["class"] == "P1_SQUARED"
    assert doc["degree"] == 2
    assert doc["coeffs"] == [1, 2]
    assert "exception" not in doc
    # p_3 is a collapse point for every n >= 3
    doc3, render3 = classify_job(["p[3]"], 4, 2)
    assert doc3["class"] == "P3"
    assert doc3["exception"] is True
    assert "class: P3" in render3()
    doc3b, _ = classify_job(["m[2,1]"], 4, 2)
    assert doc3b["class"] == "H3"
    assert doc3b["exception"] is False


def test_extract_symmetric_coeffs():
    assert extract_symmetric_coeffs("p[2]") == (2, (QQ(1), QQ(0)))
    assert extract_symmetric_coeffs("e[1]^2") == (2, (QQ(1), QQ(2)))
    assert extract_symmetric_coeffs("e[1]^3") == (3, (QQ(1), QQ(3), QQ(6)))
    assert extract_symmetric_coeffs("m[1,1,1]") == (3, (QQ(0), QQ(0), QQ(1)))
    with pytest.raises(UsageError):
        extract_symmetric_coeffs("x[1,1]^2")  # not symmetric
    with pytest.raises(UsageError):
        extract_symmetric_coeffs("p[4]")  # unsupported degree
    with pytest.raises(UsageError):
        extract_symmetric_coeffs("family:A:2")


def test_exceptions_job_points_and_equation():
    doc, _ = exceptions_job(3, ["1,3,6", "1,0,0"])
    assert doc["n"] == 3
    assert doc["equation"]["lhs"]
    verdicts = {tuple(p["abc"]): (p["exception"], p["class"]) for p in doc["points"]}
    assert verdicts[(1, 3, 6)] == (False, "P1_CUBED")
    assert verdicts[(1, 0, 0)] == (True, "P3")
    lhs, rhs = equation_text(3)
    assert lhs == "3a(2b + c)" and rhs == "4b^2"
    with pytest.raises(UsageError):
        exceptions_job(2, [])
    with pytest.raises(UsageError):
        parse_point("1,2")


def test_parse_point_accepts_rationals():
    assert parse_point("1/2,-3,0") == (QQ(1, 2), QQ(-3), QQ(0))


# -- verify ------------------------------------------------------------------


def test_resolve_selectors():
    assert resolve_selectors(["all"]) == [
        "examples_fast.json",
        "exceptions_table.json",
        "homog.json",
        "frobenius_deg4.json",
        "frobenius_deg5.json",
        "hilbert_deg4.json",
        "hilbert_deg5.json",
        "experiments.json",
    ]
    assert resolve_selectors(["homog"]) == ["homog.json"]
    with pytest.raises(UsageError):
        resolve_selectors(["nope"])


def _fixture_override(monkeypatch, tmp_path, name, records):
    (tmp_path / name).write_text(json.dumps({"records": records}))
    monkeypatch.setenv(verify.ENV_FIXTURES, str(tmp_path))


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose workers never finish."""

    def expire(signum, frame):
        raise TimeoutError("the worker pool did not finish in 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(verify, "_pool_size", lambda jobs: min(workers, jobs))


def _count_builds(monkeypatch):
    """The keys (generators, mode, n, ell) of the modules this process
    builds from now on, from generators or by lifting, in build order."""
    built = []
    made = {}  # id of each module built -> (module, key)
    texts = []
    parse, build, lift = verify.parse_generator_args, verify.polarization_module, verify.lift

    def record(module, key):
        made[id(module)] = module, key
        built.append(key)
        return module

    def parsing(args, r):
        texts.append(tuple(args))
        return parse(args, r)

    def building(family):
        module = build(family)
        return record(module, (texts[-1], family.mode, module.n, module.ell))

    def lifting(below):
        generators, mode, n, ell = made[id(below)][1]
        return record(lift(below), (generators, mode, n, ell + 1))

    monkeypatch.setattr(verify, "parse_generator_args", parsing)
    monkeypatch.setattr(verify, "polarization_module", building)
    monkeypatch.setattr(verify, "lift", lifting)
    return built


# fast_1 of examples_fast.json: x[1,1]*x[2,2]*x[3,3], n=3, ell=3
FAST_1 = json.loads(verify.fixture_text("examples_fast.json"))["records"][0]


def test_session_builds_a_module_once_per_key(monkeypatch, tmp_path):
    # frobenius, hilbert and h_positive records all read p[2] at n=3, ell=2
    shared = {"generators": ["p[2]"], "n_values": [3], "ell_values": [2]}
    records = [
        dict(shared, id="a", kind="frobenius", tier="report", series=[]),
        dict(shared, id="b", kind="hilbert", tier="report", basis="s", coeffs=[]),
        dict(shared, id="c", kind="h_positive", tier="assert"),
        dict(FAST_1, id="d"),
    ]
    _fixture_override(monkeypatch, tmp_path, "homog.json", records)
    _use_workers(monkeypatch, 1)
    built = _count_builds(monkeypatch)
    doc, _ = run_verify(["homog"])
    assert doc["checked"] == 4 and doc["passed"] == 2
    assert built == [(("p[2]",), "orbit", 3, 2), (tuple(FAST_1["generators"]), "orbit", 3, 3)]

    # a module no record asked for is built on its first request only,
    # and that build gives its Frobenius series too
    del built[:]
    session = verify.Session([])
    first = session.hilbert(["p[2]"], "orbit", 3, 2)
    second = session.hilbert(["p[2]"], "orbit", 3, 2)
    frob = session.frobenius(["p[2]"], "orbit", 3, 2)
    assert built == [(("p[2]",), "orbit", 3, 2)]
    module = build_module(["p[2]"], 3, 2)
    assert frob == frobenius_series(module)
    assert first == second == hilbert_series(module)


def test_a_group_seeds_each_module_with_the_one_below(monkeypatch):
    seeds = []
    build, lift = verify.polarization_module, verify.lift

    def building(family):
        seeds.append((family.ring.ell, None))
        return build(family)

    def lifting(below):
        seeds.append((below.ell + 1, below.ell))
        return lift(below)

    monkeypatch.setattr(verify, "polarization_module", building)
    monkeypatch.setattr(verify, "lift", lifting)
    # the generator has no module at ell = 1, and none at ell = 4 is asked for
    keys = [(("x[2,1]*x[1,2]",), "orbit", 3, ell) for ell in (5, 1, 3, 2, 3)]
    (group,) = verify.module_groups(keys)
    assert group == tuple(keys[i] for i in (1, 3, 2, 0))
    summaries = verify.summarise(group)
    assert seeds == [(2, None), (3, 2), (5, None)]
    assert list(summaries) == list(group)
    hs, frob = summaries[group[0]]
    assert isinstance(hs, UsageError) and frob is hs
    for key in group[1:3]:
        assert summaries[key] == verify.summarise((key,))[key]


def test_a_chain_parses_its_generators_once(monkeypatch):
    # the modules at ell = 2..4 are lifted from the one below, so only the
    # first of the chain reads the generators
    calls = []
    parse = verify.parse_generator_args

    def counting(args, r):
        calls.append((tuple(args), r.ell))
        return parse(args, r)

    monkeypatch.setattr(verify, "parse_generator_args", counting)
    group = tuple((("vandermonde",), "orbit", 4, ell) for ell in (1, 2, 3, 4))
    summaries = verify.summarise(group)
    assert calls == [(("vandermonde",), 1)]
    # n! at ell = 1 and (n + 1)^(n - 1) at ell = 2, the diagonal harmonics
    dims = [summaries[key][1].dimension(key[3]) for key in group]
    assert dims == [24, 125, 400, 996]


@pytest.mark.usefixtures("deadline")
def test_pooled_and_inline_verify_agree(monkeypatch, capsys):
    docs, outs = [], []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        built = _count_builds(monkeypatch)
        docs.append(run_verify(["table:4"])[0])
        # pooled modules are built in the workers, none in this process
        assert bool(built) == (workers == 1)
        assert main(["verify", "--set", "table:4", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
        assert_no_child_left()
    assert docs[0] == docs[1] and docs[0]["passed"] == 31
    assert outs[0] == outs[1]


@pytest.mark.usefixtures("deadline")
def test_verify_errors_arrive_in_record_order(monkeypatch, tmp_path, capsys):
    records = [
        FAST_1,
        dict(FAST_1, id="bad", generators=["x[1,1] + x[1,1]^2"]),
        dict(FAST_1, id="worse", generators=["p[2"]),
        dict(FAST_1, id="after", n_values=[2]),
    ]
    # table:5's file is missing from the override, and that error comes last
    _fixture_override(monkeypatch, tmp_path, "frobenius_deg4.json", records)
    seen = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        with pytest.raises(UsageError) as info:
            run_verify(["table:4", "table:5"])
        assert_no_child_left()
        assert main(["verify", "--set", "table:4", "--set", "table:5"]) == 1
        seen.append((type(info.value), str(info.value), capsys.readouterr()))
        assert_no_child_left()
    assert seen[0] == seen[1]
    assert seen[0][1] == "generator x[1,1]^2 + x[1,1] is not homogeneous"
    assert seen[0][2].out == ""


@pytest.mark.parametrize(
    "error, stderr",
    [
        (
            NonHomogeneous((1, 0), (0, 1)),
            "error: polynomial is not homogeneous: "
            "found multidegrees (1, 0) and (0, 1)\n",
        ),
        (
            MemoryError(),
            "error: out of memory (the module is too large for this machine)\n",
        ),
    ],
)
@pytest.mark.usefixtures("deadline")
def test_worker_errors_come_back_through_the_pool(monkeypatch, capsys, error, stderr):
    def fail(family):
        raise error

    monkeypatch.setattr(verify, "polarization_module", fail)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert main(["verify", "--set", "table:4"]) == 1
        assert capsys.readouterr() == ("", stderr)
        assert_no_child_left()


@pytest.mark.usefixtures("deadline")
def test_pool_returns_every_item_whole(monkeypatch):
    # 300 task records fill more than one atomic write, and each worker's
    # list is far larger than a pipe buffer
    def summarise(key):
        return key * 2000, key

    monkeypatch.setattr(verify, "summarise", summarise)
    _use_workers(monkeypatch, 2)
    keys = [str(i) for i in range(300)]
    assert verify._pool_summaries(keys) == {key: summarise(key) for key in keys}
    assert_no_child_left()


@pytest.mark.usefixtures("deadline")
def test_a_dead_workers_keys_are_summarised_inline(monkeypatch):
    _use_workers(monkeypatch, 1)
    inline = run_verify(["table:4"])[0]
    records, _ = verify._read_records(resolve_selectors(["table:4"]))
    # the first group of two modules, at ell = 2 and 3
    groups = verify.module_groups(verify.module_requests(records))
    victim = next(group for group in groups if len(group) == 2)
    parent = os.getpid()
    real = verify.summarise

    def die_on_victim(group):
        if group == victim and os.getpid() != parent:
            os._exit(3)
        return real(group)

    monkeypatch.setattr(verify, "summarise", die_on_victim)
    _use_workers(monkeypatch, 2)
    built = _count_builds(monkeypatch)
    assert run_verify(["table:4"])[0] == inline
    # the dead worker's modules, the victim's among them, were built here,
    # each once
    assert len(set(built)) == len(built)
    assert set(victim) <= set(built)
    assert_no_child_left()


@pytest.mark.usefixtures("deadline")
def test_an_error_in_the_parent_leaves_no_child(monkeypatch):
    real = verify._read_to_eof
    failed = []

    def fail_once(fd):
        if not failed:
            failed.append(fd)
            raise RuntimeError("interrupted while workers run")
        return real(fd)

    monkeypatch.setattr(verify, "_read_to_eof", fail_once)
    _use_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_verify(["table:4"])
    assert failed
    assert_no_child_left()


def test_run_verify_fast_set():
    doc, render = run_verify(["examples:fast"])
    assert doc["failed"] == 0
    assert doc["checked"] == doc["passed"] + doc["reported"]
    assert "OK" in render()


def test_p2_shift_checks_every_n(monkeypatch, tmp_path):
    records = json.loads(verify.fixture_text("experiments.json"))["records"]
    d3 = next(r for r in records if r["id"] == "experiments/p2_shift/d3")
    _fixture_override(
        monkeypatch, tmp_path, "experiments.json", [dict(d3, n_values=[4, 5])]
    )
    doc, _ = run_verify(["experiments"])
    assert [r["where"] for r in doc["results"]] == ["n=4", "n=5"]

    _fixture_override(
        monkeypatch, tmp_path, "experiments.json", [dict(d3, generators=["family:A:2"])]
    )
    with pytest.raises(UsageError, match="p2_shift takes a single generator"):
        run_verify(["experiments"])


@pytest.mark.parametrize(
    "record_id", ["experiments/deg4_collapse_point", "experiments/p2_shift/d3"]
)
def test_one_row_records_refuse_other_ell_values(
    monkeypatch, tmp_path, capsys, record_id
):
    records = json.loads(verify.fixture_text("experiments.json"))["records"]
    rec = next(r for r in records if r["id"] == record_id)
    _fixture_override(
        monkeypatch, tmp_path, "experiments.json", [dict(rec, ell_values=[2, 3])]
    )
    assert main(["verify", "--set", "experiments"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "usage error: record %s: a %s record is checked at ell=1 only, not at "
        "ell_values [2, 3]\n" % (record_id, rec["kind"])
    )


# -- entry point -------------------------------------------------------------


def test_main_frobenius_json(capsys):
    code = main(
        ["frobenius", "--gen", "p[2]", "--n", "3", "--ell", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 10


def test_main_json_output_renders_no_text(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("text rendering in JSON mode")

    monkeypatch.setattr(FrobeniusSeries, "__str__", refuse)
    monkeypatch.setattr(SymSeries, "__str__", refuse)
    for mode in ("frobenius", "hilbert", "classify"):
        argv = [mode, "--gen", "p[3]", "--n", "3", "--ell", "2", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3


def test_main_usage_errors(capsys):
    assert main(["frobenius", "--n", "3"]) == 1  # no generators
    assert main(["frobenius", "--gen", "p[2"]) == 1  # argparse error
    assert main(["frobenius", "--gen", "p[2]", "--n", "0"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    # degrees above the packed-exponent cap of 30
    for gen in ("x[1,1]^40", "m[40]", "p[31]", "3^1000000000"):
        assert main(["hilbert", "--gen=" + gen, "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "cap 30" in err


@pytest.mark.parametrize(
    "gen, refused",
    [
        # e_15 = m_(1^15): C(30, 15) terms
        ("e[15]", "m[%s] has 155117520" % ",".join(["1"] * 15)),
        # h_12 is the sum of every m_mu, mu |- 12; the first too large
        ("h[12]", "m[9,1,1,1] has 109620"),
    ],
)
def test_main_refuses_a_generator_too_large_to_expand(gen, refused, capsys):
    assert main(["hilbert", "--gen=" + gen, "--n", "30", "--ell", "1"]) == 1
    assert capsys.readouterr() == (
        "",
        "usage error: %s terms in 30 variables, more than the 100000 a "
        "generator may have\n" % refused,
    )


@pytest.mark.parametrize(
    "gen, count",
    [
        # e_1 has 30 terms; e_1^15 has C(44, 15) of them
        ("e[1]^15", 30**15),
        # 2 * e_1 is expanded; the product with e_3 would take C(30, 3) * 30
        ("2*e[1]*e[3]", 4060 * 30),
    ],
)
def test_main_refuses_a_product_too_large_to_expand(gen, count, capsys):
    assert main(["hilbert", "--gen=" + gen, "--n", "30", "--ell", "1"]) == 1
    assert capsys.readouterr() == (
        "",
        "usage error: a product in generator %r takes %d term products, more "
        "than the 100000 one product may take\n" % (gen, count),
    )


def test_a_product_at_the_term_product_cap_is_expanded(monkeypatch, capsys):
    monkeypatch.setattr(symfunc, "MAX_TERM_PRODUCTS", 3 * 3)
    argv = ["hilbert", "--n", "3", "--ell", "1", "--format", "json"]
    # e[1,1]: one step over parts of 3 * 3
    for gen in ("e[1]^2", "e[1]*e[1]", "e[1,1]"):
        assert main(argv + ["--gen=" + gen]) == 0
    capsys.readouterr()
    # e_1^2 has 6 terms in 3 variables
    assert main(argv + ["--gen=e[1]^2*e[1]"]) == 1
    assert "takes 18 term products, more than the 9" in capsys.readouterr().err
    assert main(argv + ["--gen=e[1,1,1]"]) == 1
    assert "e[1,1,1] in 3 variables takes 18 term products, more than the 9" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("tag", ["e", "h", "p"])
def test_main_refuses_an_atom_whose_product_over_parts_is_too_large(tag, capsys):
    # e_1^15 (h_1 = p_1 = e_1) as one atom: e_1^3 has C(32, 3) = 4960 terms
    # in 30 variables, and its product with e_1 would take 4960 * 30
    atom = "%s[%s]" % (tag, ",".join(["1"] * 15))
    assert main(["hilbert", "--gen=" + atom, "--n", "30", "--ell", "1"]) == 1
    assert capsys.readouterr() == (
        "",
        "usage error: %s in 30 variables takes 148800 term products, more "
        "than the 100000 one product may take\n" % atom,
    )


def test_main_threads_flag_is_a_usage_error(capsys):
    code = main(
        ["hilbert", "--gen", "e[2]", "--n", "3", "--threads", "4", "--format", "json"]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_main_reports_running_out_of_memory(monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(runner, "frobenius_job", exhaust)
    assert main(["frobenius", "--gen", "p[2]", "--n", "3"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: out of memory (the module is too large for this machine)\n",
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_json_text_is_indented_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["frobenius", "--gen=m[3,1]", "--n", "5", "--ell", "2"],
        ["exceptions", "--n", "5", "--point=4,-3,4"],
    ],
)
def test_a_json_job_leaves_no_reference_cycle(argv, capsys):
    # json.dumps(indent=2) left 33 objects in a cycle per job
    main(argv + ["--format", "json"])
    gc.collect()
    assert main(argv + ["--format", "json"]) == 0
    assert gc.collect() == 0
    capsys.readouterr()


def test_errors_survive_pickling():
    classes = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert len(classes) == 6
    for cls in classes:
        args = ((1, 0), (0, 1)) if cls is NonHomogeneous else ("a message",)
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
    back = pickle.loads(pickle.dumps(NonHomogeneous([1, 0], [0, 1])))
    assert (back.deg_a, back.deg_b) == ((1, 0), (0, 1))


def test_main_classify_text(capsys):
    code = main(["classify", "--gen", "e[1]^3", "--n", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "class: P1_CUBED" in out


def test_main_exceptions_json(capsys):
    code = main(
        ["exceptions", "--n", "4", "--point", "1,1,0", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"][0]["exception"] is True


def test_main_verify_selector(capsys):
    code = main(["verify", "--set", "exceptions", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["checked"] > 0


# -- golden documents ----------------------------------------------------------

# Recorded --format json output of fast jobs, compared byte for byte. A
# mismatch means an output changed; if the change is intended, regenerate
# the file with
#   polmod <argv> --format json > tests/golden/<name>.json
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_JOBS = {
    "basis-m21-n3-ell2": ["basis", "--gen=m[2,1]", "--n", "3", "--ell", "2"],
    "basis-x11sq-x22-n3-ell2": [
        "basis", "--gen=x[1,1]^2*x[2,2]", "--n", "3", "--ell", "2",
    ],
    # generators in rows 1..2 of 3, closed at ell = 2 and lifted once
    "basis-x11sq-x22-n3-ell3": [
        "basis", "--gen=x[1,1]^2*x[2,2]", "--n", "3", "--ell", "3",
    ],
    # two-digit column indices
    "basis-m21-n10-ell1": ["basis", "--gen=m[2,1]", "--n", "10", "--ell", "1"],
    # three row blocks
    "basis-x11sq-x32-n3-ell3": [
        "basis", "--gen=x[1,1]^2*x[3,2]", "--n", "3", "--ell", "3",
    ],
    # two-digit exponents and the constant term 1
    "basis-x11pow11-n1-ell2": ["basis", "--gen=x[1,1]^11", "--n", "1", "--ell", "2"],
    "basis-rational-cubic-n3-ell2": [
        "basis", "--gen=-5/2*m[3] - 1/2*m[2,1] + 3/4*m[1,1,1]",
        "--n", "3", "--ell", "2",
    ],
    "frobenius-vandermonde-n4-ell3": [
        "frobenius", "--gen=vandermonde", "--n", "4", "--ell", "3",
    ],
    # four row blocks: closed at ell = 1 and lifted three times
    "frobenius-vandermonde-n4-ell4": [
        "frobenius", "--gen=vandermonde", "--n", "4", "--ell", "4",
    ],
    "frobenius-x21sq-x32-n4-ell3": [
        "frobenius", "--gen=x[2,1]^2*x[3,2]", "--n", "4", "--ell", "3",
    ],
    "frobenius-x21sq-x32-n5-ell3": [
        "frobenius", "--gen=x[2,1]^2*x[3,2]", "--n", "5", "--ell", "3",
    ],
    # orbits whose closure makes transposition candidates that are not invariant
    "frobenius-x11sq-x12-n4-ell3": [
        "frobenius", "--gen=x[1,1]^2*x[1,2]", "--n", "4", "--ell", "3",
    ],
    "basis-x11cu-x12-x23-n4-ell2": [
        "basis", "--gen=x[1,1]^3*x[1,2]*x[2,3]", "--n", "4", "--ell", "2",
    ],
    # orbits that two unsound transposition skips would shrink: skipping
    # (j j+1) on every row made by (i i+1), i >= j + 2 (27 -> 21, 716 -> 405),
    # and every later transposition on each generator row that (1 2) fixes
    # (27 -> 8, 716 -> 173)
    "basis-x11-x12-n4-ell2": ["basis", "--gen=x[1,1]*x[1,2]", "--n", "4", "--ell", "2"],
    "frobenius-x11sq-x12sq-x13-n5-ell2": [
        "frobenius", "--gen=x[1,1]^2*x[1,2]^2*x[1,3]", "--n", "5", "--ell", "2",
    ],
    # ell=2 at n=5, where stored rows hold many pivots of later rows
    "basis-s22-n5-ell2": ["basis", "--gen=s[2,2]", "--n", "5", "--ell", "2"],
    "hilbert-m32-n5-ell2": ["hilbert", "--gen=m[3,2]", "--n", "5", "--ell", "2"],
    "classify-m3-m21-n4-ell2": [
        "classify", "--gen=m[3] + m[2,1]", "--n", "4", "--ell", "2",
    ],
    "exceptions-n5": ["exceptions", "--n", "5", "--point=4,-3,4", "--point=1,1,1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JOBS))
def test_main_json_matches_golden_document(name, capsys):
    assert main(GOLDEN_JOBS[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".json")).read_text()


# polmod verify --set all --format json > tests/golden/verify-all.json
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("deadline")
def test_verify_all_matches_golden_document(workers, monkeypatch, capsys):
    _use_workers(monkeypatch, workers)
    assert main(["verify", "--set", "all", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-all.json").read_text()
    assert_no_child_left()
