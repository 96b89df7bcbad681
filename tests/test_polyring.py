"""Unit tests for the packed-exponent polynomial layer."""

from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from polmod import QQ, ring
from polmod.polyring import MAX_TOTAL_DEGREE, Permutation, PolyRing, apply_operator
from polmod.symfunc import cycle_types

from conftest import (
    compose,
    random_homogeneous,
    random_nonzero_homogeneous,
    random_permutation,
    render_cell_by_cell,
    seeded,
)


def test_pack_unpack_roundtrip():
    r = ring(2, 3)
    rng = seeded("pack")
    for _ in range(50):
        exps = tuple(rng.randrange(0, 6) for _ in range(r.ncells))
        code = r.pack(exps)
        assert r.unpack(code) == exps
        assert r.code_total_degree(code) == sum(exps)
        for i in range(1, r.ell + 1):
            for j in range(1, r.n + 1):
                assert r.exponent(code, i, j) == exps[r.cell(i, j)]


@st.composite
def capped_codes(draw):
    """(ring, code) of a monomial of total degree up to the cap, given as
    the cells its units fall in."""
    r = ring(draw(st.integers(1, 4)), draw(st.integers(1, 10)))
    cells = draw(st.lists(st.integers(0, r.ncells - 1), max_size=MAX_TOTAL_DEGREE))
    exps = [0] * r.ncells
    for idx in cells:
        exps[idx] += 1
    return r, r.pack(exps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(capped_codes())
def test_code_multidegree_matches_unpacked_row_sums(ring_and_code):
    r, code = ring_and_code
    exps = r.unpack(code)
    want = tuple(sum(exps[i * r.n : (i + 1) * r.n]) for i in range(r.ell))
    assert r.code_multidegree(code) == want


def test_code_multidegree_at_the_cap():
    for ell, n in ((1, 1), (3, 5), (4, 10)):
        r = ring(ell, n)
        for idx in (0, r.ncells // 2, r.ncells - 1):
            exps = [0] * r.ncells
            exps[idx] = MAX_TOTAL_DEGREE
            want = [0] * ell
            want[idx // n] = MAX_TOTAL_DEGREE
            assert r.code_multidegree(r.pack(exps)) == tuple(want)


def test_monomial_dict_and_flat_agree():
    r = ring(2, 2)
    f = r.monomial({(1, 1): 2, (2, 2): 1}, QQ(3, 2))
    g = r.monomial((2, 0, 0, 1), QQ(3, 2))
    assert f == g
    assert f.multidegree() == (2, 1)
    assert f.is_homogeneous()
    assert not (f + r.var(1, 1) + r.const(5)).is_homogeneous()


def test_monomial_degree_capacity_guard():
    r = ring(1, 1)
    r.monomial({(1, 1): MAX_TOTAL_DEGREE})
    with pytest.raises(ValueError):
        r.monomial({(1, 1): MAX_TOTAL_DEGREE + 1})


def test_ring_arithmetic_laws():
    r = ring(2, 2)
    rng = seeded("arith")
    for k in range(10):
        f = random_homogeneous(rng, r, (2, 0))
        g = random_homogeneous(rng, r, (1, 1))
        h = random_homogeneous(rng, r, (0, 2))
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f - f == r.zero()
    f = r.var(1, 1) + r.var(1, 2)
    assert f ** 3 == f * f * f
    assert f ** 0 == r.one()


def test_scale_and_rational_coefficients():
    r = ring(1, 2)
    f = r.var(1, 1).scale(QQ(2, 3)) + r.var(1, 2).scale(QQ(-1, 3))
    assert f.scale(3) == 2 * r.var(1, 1) - r.var(1, 2)
    assert f.scale(0).is_zero()


def test_derive_falling_factorials():
    r = ring(1, 1)
    x = r.var(1, 1)
    f = x ** 5
    assert f.derive(1, 1, 2) == (x ** 3).scale(20)
    assert f.derive(1, 1, 5) == r.const(120)
    assert f.derive(1, 1, 6).is_zero()
    with pytest.raises(ValueError):
        f.derive(1, 1, 0)


def test_derive_product_rule():
    r = ring(2, 3)
    rng = seeded("leibniz")
    for _ in range(10):
        f = random_homogeneous(rng, r, (2, 1))
        g = random_homogeneous(rng, r, (1, 1))
        for (i, j) in [(1, 1), (1, 3), (2, 2)]:
            lhs = (f * g).derive(i, j)
            rhs = f.derive(i, j) * g + f * g.derive(i, j)
            assert lhs == rhs


def test_polarize_moves_degree_between_rows():
    r = ring(2, 2)
    x11 = r.var(1, 1)
    x21 = r.var(2, 1)
    assert (x11 ** 2).polarize(2, 1) == (x11 * x21).scale(2)
    assert (x11 ** 2).polarize(2, 1).multidegree() == (1, 1)
    # order-2 polarization uses the falling factorial 3*2 on the cube
    assert (x11 ** 3).polarize(2, 1, 2) == (x11 * x21).scale(6)
    with pytest.raises(IndexError):
        x11.polarize(3, 1)
    with pytest.raises(ValueError):
        x11.polarize(2, 1, 0)


def test_polarize_sums_over_columns():
    r = ring(2, 3)
    f = r.var(1, 1) * r.var(1, 2)
    out = f.polarize(2, 1)
    expected = r.var(2, 1) * r.var(1, 2) + r.var(1, 1) * r.var(2, 2)
    assert out == expected


def test_permute_is_left_action():
    r = ring(2, 4)
    rng = seeded("perm")
    for _ in range(10):
        f = random_homogeneous(rng, r, (2, 1))
        s = random_permutation(rng, 4)
        t = random_permutation(rng, 4)
        assert f.permute(s).permute(t) == f.permute(compose(t, s))


def _relabel_cell_by_cell(r, code, images):
    """Reference column relabelling: unpack every cell and repack it."""
    out = 0
    for idx, a in enumerate(r.unpack(code)):
        if a:
            i, j = divmod(idx, r.n)
            out += a << r.shifts[i * r.n + images[j] - 1]
    return out


@pytest.mark.parametrize("ell,n", [(1, 1), (3, 5), (3, 10)])
def test_permute_code_matches_cell_by_cell_relabelling(ell, n):
    r = ring(ell, n)
    rng = seeded("permute_code", ell * 100 + n)
    for _ in range(300):
        # every cell may hold any 5-bit exponent: up to 150-bit codes
        code = rng.getrandbits(r.ncells * 5)
        images = random_permutation(rng, n)
        sigma = Permutation(r, images)
        assert r.permute_code(code, sigma) == _relabel_cell_by_cell(r, code, images)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_compiled_permutations_match_cell_by_cell_relabelling(ell):
    for n in range(1, 11):
        r = ring(ell, n)
        rng = seeded("compiled_permutation", ell * 100 + n)
        reps = [ct.representative for ct in cycle_types(n)]
        assert tuple(range(1, n + 1)) in reps
        for images in reps:
            inverse = [0] * n
            for j, image in enumerate(images, start=1):
                inverse[image - 1] = j
            sigma = Permutation(r, images)
            sigma_inv = sigma.inverse()
            assert sigma_inv.images == tuple(inverse)
            for _ in range(10):
                code = rng.getrandbits(r.ncells * 5)
                assert r.permute_code(code, sigma) == _relabel_cell_by_cell(r, code, images)
                assert r.permute_code(code, sigma_inv) == _relabel_cell_by_cell(r, code, inverse)


def test_permute_respects_products_and_rejects_bad_input():
    r = ring(1, 3)
    f = r.var(1, 1) + 2 * r.var(1, 2)
    g = r.var(1, 3) ** 2
    s = (2, 3, 1)
    assert (f * g).permute(s) == f.permute(s) * g.permute(s)
    with pytest.raises(ValueError):
        f.permute((1, 1, 2))


def _apply_cell_by_cell(r, terms, p, moves):
    """Reference kernel on unpacked exponents. moves lists (lowered cell,
    raised cell or None) index pairs: each lowers its first cell's exponent
    a >= p by p with coefficient a(a-1)...(a-p+1), then raises the second
    by 1. Coefficients are summed and zeros dropped at the end."""
    out = {}
    for code, q in terms.items():
        exps = r.unpack(code)
        for low, high in moves:
            a = exps[low]
            if a < p:
                continue
            moved = list(exps)
            moved[low] -= p
            if high is not None:
                moved[high] += 1
            nc = r.pack(moved)
            out[nc] = out.get(nc, 0) + q * perm(a, p)
    return {c: v for c, v in out.items() if v}


def _random_terms(rng, r, count):
    """Seeded term dict; each term's total degree is at most the packing
    cap, piled onto a few cells so single exponents reach it too."""
    terms = {}
    for _ in range(count):
        exps = [0] * r.ncells
        cells = rng.sample(range(r.ncells), min(r.ncells, rng.randrange(1, 4)))
        for _ in range(rng.randrange(0, MAX_TOTAL_DEGREE + 1)):
            exps[rng.choice(cells)] += 1
        terms[r.pack(exps)] = rng.choice([-3, -2, -1, 1, 2, 3, QQ(1, 2), QQ(-5, 3)])
    return terms


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_compiled_operators_match_cell_by_cell_reference(ell):
    for n in range(1, 11):
        r = ring(ell, n)
        rng = seeded("compiled_operator", ell * 100 + n)
        terms = _random_terms(rng, r, 20)
        assert max(r.code_total_degree(c) for c in terms) <= MAX_TOTAL_DEGREE
        for p in range(1, 5):
            for i in range(1, ell + 1):
                for j in range(1, n + 1):
                    out = apply_operator(terms, r.derivative(i, j, p))
                    moves = [(r.cell(i, j), None)]
                    assert out == _apply_cell_by_cell(r, terms, p, moves)
                for k in range(1, ell + 1):
                    out = apply_operator(terms, r.polarization(i, k, p))
                    moves = [(r.cell(k, j), r.cell(i, j)) for j in range(1, n + 1)]
                    assert out == _apply_cell_by_cell(r, terms, p, moves)


def test_compiled_operators_drop_cancelling_terms_and_are_cached():
    r = ring(2, 3)
    x = r.var
    # E[1,2]^(1) sends x11 x22 - x12 x21 to x11 x12 - x12 x11 = 0
    f = x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)
    assert apply_operator(f.terms, r.polarization(1, 2)) == {}
    # the x11 x12 images of g's first two terms cancel; the rest survive
    g = x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1) + x(2, 1) * x(2, 2)
    assert g.polarize(1, 2) == x(1, 1) * x(2, 2) + x(2, 1) * x(1, 2)
    # exponents below p contribute nothing
    assert (x(1, 1) ** 2).derive(1, 1, 3).is_zero()
    assert (x(1, 1) ** 2 * x(1, 2) ** 3).polarize(2, 1, 3) == 6 * x(1, 1) ** 2 * x(2, 2)
    assert r.derivative(2, 3, 2) is r.derivative(2, 3, 2)
    assert r.polarization(2, 1, 3) is r.polarization(2, 1, 3)
    assert r.polarization(1, 1, 1) is not r.polarization(1, 1, 2)
    with pytest.raises(ValueError):
        r.derivative(1, 1, 0)
    with pytest.raises(IndexError):
        r.polarization(3, 1)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_rendering_matches_cell_by_cell_reference(ell):
    for n in range(1, 11):
        r = ring(ell, n)
        rng = seeded("render", ell * 100 + n)
        for count in (1, 3, 12):
            # mixed total degrees up to the packing cap: not homogeneous
            terms = {
                code: QQ(rng.choice([-1, 1]) * rng.randrange(1, 40), rng.choice([1, 1, 2, 3, 12]))
                for code in _random_terms(rng, r, count)
            }
            if rng.randrange(2):
                terms[0] = QQ(rng.choice([-7, -1, 1, 5]), rng.choice([1, 4]))
            f = r.from_terms(terms)
            assert str(f) == render_cell_by_cell(f)
            assert str(-f) == render_cell_by_cell(-f)


def test_rendering_edge_cases():
    r = ring(2, 10)
    x = r.var
    assert str(r.zero()) == "0"
    assert str(r.one()) == "1"
    assert str(r.const(-1)) == "-1"
    assert str(r.const(QQ(-3, 2)) + x(1, 1)) == "x[1,1] - 3/2"
    assert str(-(x(1, 10) ** 11) * x(2, 1)) == "-x[1,10]^11*x[2,1]"
    assert str(QQ(2, 4) * x(2, 10) - x(1, 1) * x(1, 2)) == "-x[1,1]*x[1,2] + 1/2*x[2,10]"


def test_monomial_texts_are_tabled_per_row_as_rendered():
    r = PolyRing(2, 3)  # uncached, so its tables start empty
    assert all(not table for _, table in r._row_texts)
    x = r.var
    f = x(1, 1) ** 2 * x(2, 3) + x(1, 1) ** 2 * x(2, 2) + 3 * x(1, 2)
    assert str(f) == "x[1,1]^2*x[2,2] + x[1,1]^2*x[2,3] + 3*x[1,2]"
    first, second = (table for _, table in r._row_texts)
    assert sorted(first.values()) == ["x[1,1]^2", "x[1,2]"]
    assert sorted(second.values()) == ["x[2,2]", "x[2,3]"]
    assert r.monomial_text(0) == ""


def test_apply_row_matrix_scaling_and_identity():
    r = ring(2, 2)
    rng = seeded("rowmat")
    f = random_nonzero_homogeneous(rng, r, (2, 1))
    ident = [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]
    assert f.apply_row_matrix(ident) == f
    # scaling row 1 by 2 and row 2 by 3 multiplies by 2^d1 3^d2
    diag = [[QQ(2), QQ(0)], [QQ(0), QQ(3)]]
    assert f.apply_row_matrix(diag) == f.scale(QQ(2 ** 2 * 3))


def test_apply_row_matrix_mixes_rows():
    r = ring(2, 1)
    x, y = r.var(1, 1), r.var(2, 1)
    m = [[QQ(1), QQ(1)], [QQ(0), QQ(1)]]
    assert x.apply_row_matrix(m) == x + y
    assert y.apply_row_matrix(m) == y


def test_polarization_roundtrip_on_row_one_input():
    r = ring(3, 3)
    rng = seeded("updown")
    for _ in range(6):
        f = random_nonzero_homogeneous(rng, r, (4, 0, 0))
        for d in [(4, 0, 0), (2, 2, 0), (2, 1, 1), (1, 0, 3)]:
            up = f.polarization_up(d)
            assert up.is_zero() or up.multidegree() == d
            assert up.restitution(d) == f
    with pytest.raises(ValueError):
        (r.var(2, 1)).polarization_up((1, 0, 0))


def test_zero_and_equality_semantics():
    r = ring(1, 2)
    assert r.zero().is_zero()
    assert not r.zero()
    f = r.var(1, 1) - r.var(1, 1)
    assert f == r.zero()
    assert hash(f) == hash(r.zero())
    other = ring(1, 3)
    with pytest.raises(Exception):
        f + other.var(1, 1)
