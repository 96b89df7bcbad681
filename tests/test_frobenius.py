"""Unit tests for isotypic decomposition and the bigraded series."""

import pytest

from polmod import (
    ConsistencyError,
    FrobeniusSeries,
    GradedSpan,
    QQ,
    UsageError,
    component_character,
    component_isotype,
    frobenius_series,
    hilbert_series,
    hilbert_series_h,
    oracle_series,
    ring,
)
from polmod.cli.runner import build_module
from polmod.symfunc import schur_dimension


def module_of(text, n, ell):
    return build_module([text], n, ell)


def test_component_isotype_of_the_full_linear_span():
    module = module_of("x[1,1]", 3, 1)
    assert component_isotype(module, (0,)) == {(3,): 1}
    assert component_isotype(module, (1,)) == {(3,): 1, (2, 1): 1}


def test_frobenius_series_of_a_symmetric_square():
    # (x1+...+xn)^2 generates the chain module: trivial isotype everywhere
    module = module_of("e[1]^2", 3, 2)
    fs = frobenius_series(module)
    assert fs == oracle_series("deg2", n=3, ell=2, a=1, b=2)
    lams = {lam for (_, lam) in fs.coeffs}
    assert lams == {(3,)}


def test_frobenius_series_of_the_power_sum_square():
    module = module_of("p[2]", 3, 2)
    fs = frobenius_series(module)
    assert fs == oracle_series("deg2", n=3, ell=2, a=1, b=0)
    assert fs.coeffs[((1,), (2, 1))] == 1


def test_oracle_chain_has_no_spurious_terms_at_n_1():
    fs = oracle_series("p_d", n=1, ell=2, d=3)
    assert {lam for (_, lam) in fs.coeffs} == {(1,)}
    assert sorted(mu for (mu, _) in fs.coeffs) == [(), (1,), (2,), (3,)]
    engine = frobenius_series(module_of("p[3]", 1, 2))
    assert engine == fs


def test_oracle_rejects_vanishing_elementary():
    with pytest.raises(UsageError):
        oracle_series("e_d", n=2, ell=1, d=3)
    with pytest.raises(UsageError):
        oracle_series("p_d", n=3, ell=1)
    with pytest.raises(UsageError):
        oracle_series("nonsense", n=3, ell=1, d=2)


def test_series_container_ordering_and_text():
    fs = FrobeniusSeries(3)
    fs.add_term((), (3,), 1)
    fs.add_term((1,), (3,), 1)
    fs.add_term((2,), (3,), 2)
    fs.add_term((1,), (2, 1), 1)
    assert str(fs) == "(1 + s[1] + 2 s[2]) s[3] + s[1] s[2,1]"
    rows = fs.to_json_list()
    assert rows[0] == {"mu": [], "lambda": [3], "coeff": 1}
    # trivial lambda block comes first, then the two-row shape
    lam_order = [tuple(row["lambda"]) for row in rows]
    assert lam_order == [(3,), (3,), (3,), (2, 1)]


def test_series_dimension_counts_both_factors():
    fs = FrobeniusSeries(4)
    fs.add_term((), (4,), 1)
    fs.add_term((1,), (3, 1), 1)
    # dim = 1 + ell * f^(3,1) with f^(3,1) = 3
    assert fs.dimension(1) == 1 + 3
    assert fs.dimension(2) == 1 + 2 * 3


def test_hilbert_series_in_both_bases():
    module = module_of("e[1]^2", 3, 2)
    hs = hilbert_series(module)
    assert hs.basis == "schur"
    assert hs.coeffs == {(): QQ(1), (1,): QQ(1), (2,): QQ(1)}
    hh = hilbert_series_h(module)
    assert hh.basis == "homogeneous"
    assert hh.coeffs == {(): QQ(1), (1,): QQ(1), (2,): QQ(1)}
    module2 = module_of("p[2]", 3, 2)
    hs2 = hilbert_series(module2)
    assert hs2.coeffs == {(): QQ(1), (1,): QQ(3), (2,): QQ(1)}


def test_consistency_gate_accepts_good_modules():
    module = module_of("m[2,1]", 3, 2)
    fs = frobenius_series(module)
    assert fs.dimension(2) == module.total_dimension()


def test_consistency_gate_rejects_unstable_spans():
    r = ring(2, 2)
    # not stable under swapping the columns: a fractional multiplicity
    span = GradedSpan(2, 2)
    span.insert(r.var(1, 1))
    with pytest.raises(ConsistencyError, match="fractional multiplicity"):
        frobenius_series(span)
    # a row whose coefficient at the swapped pivot is not an integer
    for half in ("1/2", "-1/2"):
        span = GradedSpan(2, 2)
        span.insert(r.var(1, 1) + r.var(1, 2).scale(QQ(half)))
        message = r"non-integral character value %s on component \(\(1, 0\),\)" % half
        with pytest.raises(ConsistencyError, match=message):
            frobenius_series(span)
    # column-stable but not row-stable: multiplicities are not symmetric in q
    span = GradedSpan(2, 2)
    span.insert(r.var(1, 1) + r.var(1, 2))
    message = (
        r"multiplicities of \(2,\) over multidegrees are not symmetric: "
        r"polynomial is not symmetric in its 2 variables"
    )
    with pytest.raises(ConsistencyError, match=message):
        frobenius_series(span)


def test_consistency_gate_reads_each_trace_at_the_inverse_image():
    # unstable spans at n = 3, where the 3-cycle differs from its inverse:
    # the row with pivot m contributes its coefficient at sigma^-1 m
    r = ring(1, 3)
    span = GradedSpan(1, 3)
    span.insert(r.var(1, 1) + 2 * r.var(1, 2) + 3 * r.var(1, 3))
    assert component_character(span, (1,), (2, 3, 1)) == 3
    assert component_character(span, (1,), (3, 1, 2)) == 2
    message = r"fractional multiplicity 13/6 for \(3,\) on component \(1,\)"
    with pytest.raises(ConsistencyError, match=message):
        frobenius_series(span)
    span = GradedSpan(1, 3)
    span.insert(r.var(1, 1) + r.var(1, 2).scale(QQ(1, 2)) + r.var(1, 3).scale(QQ(1, 3)))
    message = r"non-integral character value 1/3 on component \(\(1,\),\)"
    with pytest.raises(ConsistencyError, match=message):
        frobenius_series(span)


def test_identity_trace_is_the_component_dimension():
    # each row contributes its own pivot coefficient over itself, 1
    for text, n, ell in [("m[2,1]", 4, 2), ("vandermonde", 3, 2), ("x[2,1]^2*x[3,2]", 3, 3)]:
        module = module_of(text, n, ell)
        identity = tuple(range(1, n + 1))
        for d, comp in module.components.items():
            assert component_character(module, d, identity) == comp.dimension
            total, den = comp.trace(lambda code: code)
            assert total == den * comp.dimension
    # unstable spans too: the gate reads the identity as their dimension
    r = ring(1, 3)
    span = GradedSpan(1, 3)
    span.insert(r.var(1, 1) + r.var(1, 2).scale(QQ(1, 2)))
    span.insert(r.var(1, 3).scale(QQ(2, 7)))
    assert component_character(span, (1,), [1, 2, 3]) == 2
    assert component_character(span, (2,), (1, 2, 3)) == 0


def test_consistency_gate_checks_the_module_dimension():
    class Miscounted(GradedSpan):
        def total_dimension(self):
            return super().total_dimension() + 1

    span = Miscounted(1, 2)
    r = ring(1, 2)
    span.insert(r.var(1, 1) + r.var(1, 2))
    with pytest.raises(ConsistencyError, match="series dimension 1"):
        frobenius_series(span)


def test_full_dimension_accounting_against_hilbert():
    for text, n, ell in [("p[3]", 3, 2), ("e[2]", 4, 1), ("h[2]", 3, 3)]:
        module = module_of(text, n, ell)
        hs = hilbert_series(module)
        total = sum(q * schur_dimension(mu, ell) for mu, q in hs.coeffs.items())
        assert total == module.total_dimension()
