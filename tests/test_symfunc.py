"""Unit tests for partitions, characters, and symmetric-function expansions."""

import math
from itertools import permutations

import pytest

from polmod import GradedSpan, NotSymmetric, QQ, expand_basis, hilbert_series, ring
from polmod.symfunc import (
    CycleType,
    SymSeries,
    character_table,
    conjugate,
    cycle_types,
    diag_power_sum,
    elementary_poly,
    h_to_schur,
    homogeneous_poly,
    is_partition,
    jacobi_trudi_h,
    kostka,
    mn_character,
    multi_elementary,
    partitions_of,
    power_sum_poly,
    schur_coefficients,
    schur_dimension,
    schur_to_h,
    syt_count,
    to_schur,
)

from conftest import seeded


def test_partition_predicates():
    assert is_partition(())
    assert is_partition((3, 1, 1))
    assert not is_partition((1, 3))
    assert not is_partition((2, 0))


def test_partitions_of_counts():
    # the partition numbers p(0)..p(8)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for k, count in enumerate(expected):
        assert len(list(partitions_of(k))) == count
    assert sorted(partitions_of(5, max_part=2)) == sorted(
        [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    )


def test_conjugate_is_an_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    for lam in partitions_of(7):
        assert conjugate(conjugate(lam)) == lam


def test_syt_counts_by_hook_lengths():
    assert syt_count(()) == 1
    assert syt_count((4,)) == 1
    assert syt_count((1, 1, 1)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 1)) == 3
    for n in range(1, 7):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_schur_dimension_in_two_variables():
    # GL_2 polynomial irreducibles: one-row shapes have dimension k+1,
    # two-row shapes (a, b) have dimension a-b+1, deeper shapes vanish
    assert schur_dimension((4,), 2) == 5
    assert schur_dimension((2, 1), 2) == 2
    assert schur_dimension((2, 2), 2) == 1
    assert schur_dimension((3, 1), 2) == 3
    assert schur_dimension((1, 1, 1), 2) == 0
    assert schur_dimension((), 2) == 1


def test_character_values_for_small_groups():
    # standard character of S_3: 2, 0, -1 on classes (1^3), (2,1), (3)
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (3,)) == -1
    # sign character
    assert mn_character((1, 1, 1), (2, 1)) == -1
    assert mn_character((1, 1, 1, 1), (4,)) == -1
    # trivial character is constant
    for mu in [(1, 1, 1, 1), (2, 2), (4,)]:
        assert mn_character((4,), mu) == 1
    # dimensions match the tableau count
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == syt_count(lam)


def _cycle_lengths(images):
    """Cycle lengths, largest first, of a 1-based image tuple."""
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = images[j - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_table_row_orthogonality(n):
    table = character_table(n)
    classes = cycle_types(n)
    order = math.factorial(n)
    # the classes themselves: fields, hashing, immutability
    assert [ct.parts for ct in classes] == list(partitions_of(n))
    assert sum(ct.size for ct in classes) == order
    for ct in classes:
        assert ct.n == n
        assert sorted(ct.representative) == list(range(1, n + 1))
        assert _cycle_lengths(ct.representative) == ct.parts
        assert ct == CycleType(ct.parts, ct.size, ct.representative)
        assert hash(ct) == hash(CycleType(ct.parts, ct.size, ct.representative))
        for field in ("parts", "size", "representative", "other"):
            with pytest.raises(AttributeError):
                setattr(ct, field, None)
    assert len(set(classes)) == len(classes)
    lams = list(partitions_of(n))
    for lam in lams:
        for mu in lams:
            total = sum(
                ct.size * table[(lam, ct.parts)] * table[(mu, ct.parts)]
                for ct in classes
            )
            assert total == (order if lam == mu else 0)


def test_expand_basis_small_identities():
    r = ring(1, 3)
    h2 = expand_basis("h", (2,), 1, 3, 1)
    e2 = expand_basis("e", (2,), 1, 3, 1)
    p2 = expand_basis("p", (2,), 1, 3, 1)
    m2 = expand_basis("m", (2,), 1, 3, 1)
    m11 = expand_basis("m", (1, 1), 1, 3, 1)
    assert h2 == m2 + m11
    assert e2 == m11
    assert p2 == m2
    # Newton: 2 e_2 = p_1^2 - p_2
    p1 = expand_basis("p", (1,), 1, 3, 1)
    assert e2.scale(2) == p1 * p1 - p2
    # s_21 = m_21 + 2 m_111
    s21 = expand_basis("s", (2, 1), 1, 3, 1)
    m21 = expand_basis("m", (2, 1), 1, 3, 1)
    m111 = expand_basis("m", (1, 1, 1), 1, 3, 1)
    assert s21 == m21 + m111.scale(2)


def _monomial_by_full_permutations(lam, n):
    """m_lam as the sum over all distinct arrangements of lam padded to n."""
    r = ring(1, n)
    padded = tuple(lam) + (0,) * (n - len(lam))
    out = r.zero()
    for arrangement in set(permutations(padded)):
        out = out + r.monomial(arrangement)
    return out


def test_monomial_basis_matches_full_permutation_sum():
    for n in range(1, 7):
        for size in range(6):
            for lam in partitions_of(size):
                got = expand_basis("m", lam, 1, n)
                if len(lam) > n:
                    assert got.is_zero()
                else:
                    assert got == _monomial_by_full_permutations(lam, n), (lam, n)
    # all 11! (39.9M) padded arrangements collapse to C(11, 4) monomials
    m1111 = expand_basis("m", (1, 1, 1, 1), 1, 11)
    assert len(m1111) == math.comb(11, 4) == 330
    assert set(m1111.terms.values()) == {QQ(1)}
    assert all(max(m1111.ring.unpack(c)) == 1 for c in m1111.terms)
    # one ordering of the 12 equal parts, not 12! (479M) of them: the single
    # monomial x[1,1]*...*x[1,12]
    m1_12 = expand_basis("m", (1,) * 12, 1, 12)
    assert m1_12.terms == {m1_12.ring.pack((1,) * 12): QQ(1)}


def test_expand_basis_multipart_shapes_multiply():
    h21 = expand_basis("h", (2, 1), 1, 4, 1)
    h2 = expand_basis("h", (2,), 1, 4, 1)
    h1 = expand_basis("h", (1,), 1, 4, 1)
    assert h21 == h2 * h1
    p22 = expand_basis("p", (2, 2), 1, 4, 1)
    p2 = expand_basis("p", (2,), 1, 4, 1)
    assert p22 == p2 * p2


def test_schur_matches_jacobi_trudi_expansion():
    # the h-determinant uses no Kostka number; s_lam vanishes in n < len(lam)
    # variables, and so does the determinant
    for n in range(1, 6):
        for size in range(6):
            for lam in partitions_of(size):
                s = expand_basis("s", lam, 1, n, 1)
                combo = ring(1, n).zero()
                for mu, coeff in jacobi_trudi_h(lam).items():
                    combo = combo + expand_basis("h", mu, 1, n, 1).scale(coeff)
                assert s == combo, (lam, n)


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    assert kostka((3,), (3,)) == 1
    assert kostka((1, 1), (2,)) == 0


def test_to_schur_recognizes_schur_polynomials():
    for n, lam in [(3, (2, 1)), (4, (2, 2)), (4, (1, 1, 1))]:
        f = expand_basis("s", lam, 1, n, 1)
        assert to_schur(f).coeffs == {lam: QQ(1)}
    mixed = expand_basis("h", (2,), 1, 3, 1)
    assert to_schur(mixed).coeffs == {(2,): QQ(1)}
    e2 = expand_basis("e", (2,), 1, 3, 1)
    assert to_schur(e2).coeffs == {(1, 1): QQ(1)}


def _random_schur_combination(rng, nvars, integral):
    """{lam: coeff} over |lam| <= 5, len(lam) <= nvars, and its polynomial."""
    shapes = [
        lam for size in range(6) for lam in partitions_of(size) if len(lam) <= nvars
    ]
    coeffs = {}
    for lam in rng.sample(shapes, rng.randrange(1, 5)):
        num = rng.choice([v for v in range(-9, 10) if v])
        coeffs[lam] = QQ(num) if integral else QQ(num, rng.randrange(1, 5))
    f = ring(1, nvars).zero()
    for lam, q in coeffs.items():
        f = f + expand_basis("s", lam, 1, nvars, 1).scale(q)
    return coeffs, f


def test_to_schur_round_trips_schur_combinations():
    rng = seeded("to-schur")
    for case in range(60):
        nvars = rng.randrange(1, 5)
        coeffs, f = _random_schur_combination(rng, nvars, integral=case % 2 == 0)
        assert to_schur(f).coeffs == coeffs, (nvars, coeffs)


def test_schur_coefficients_of_integer_counts_are_integers():
    # h_2 in two variables: x1^2 + x1 x2 + x2^2 = s_2
    got = schur_coefficients({(2, 0): 1, (1, 1): 1, (0, 2): 1}, 2)
    assert got == {(2,): 1} and type(got[(2,)]) is int
    # e_1^2 = s_2 + s_11, plus a constant term
    got = schur_coefficients({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 3}, 2)
    assert got == {(2,): 1, (1, 1): 1, (): 3}
    assert all(type(c) is int for c in got.values())


def test_to_schur_rejects_a_changed_unsorted_coefficient():
    rng = seeded("to-schur-asym")
    checked = 0
    while checked < 30:
        nvars = rng.randrange(2, 5)
        _, f = _random_schur_combination(rng, nvars, integral=checked % 2 == 0)
        r = f.ring
        unsorted = [
            code for code in f.terms
            if list(r.unpack(code)) != sorted(r.unpack(code), reverse=True)
        ]
        if not unsorted:
            continue
        code = rng.choice(unsorted)
        broken = f + r.from_terms({code: QQ(1)})
        message = "polynomial is not symmetric in its %d variables" % nvars
        with pytest.raises(NotSymmetric, match=message):
            to_schur(broken)
        checked += 1


def test_hilbert_series_rejects_a_row_unstable_span():
    # stable under swapping columns, not under mixing rows: dims {(1, 0): 1}
    r = ring(2, 2)
    span = GradedSpan(2, 2)
    span.insert(r.var(1, 1) + r.var(1, 2))
    message = "polynomial is not symmetric in its 2 variables"
    with pytest.raises(NotSymmetric, match=message):
        hilbert_series(span)


def test_schur_h_transitions_are_inverse():
    rng = seeded("s-h")
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1)]
    for _ in range(20):
        coeffs = {}
        for lam in shapes:
            v = rng.randrange(-4, 5)
            if v:
                coeffs[lam] = QQ(v)
        series = SymSeries("schur", coeffs)
        back = h_to_schur(schur_to_h(series))
        assert back.coeffs == series.coeffs


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_e_h_p_have_one_unit_term_per_monomial(n):
    # e_k: the C(n, k) squarefree monomials of degree k in the row; h_k: all
    # C(n + k - 1, k) of them; p_k: the n k-th powers of one variable
    for row, ell in ((1, 1), (2, 3)):
        r = ring(ell, n)
        for k in range(1, 6):
            for poly, count, shape in (
                (elementary_poly(k, row, n, ell), math.comb(n, k), lambda c: max(c) == 1),
                (homogeneous_poly(k, row, n, ell), math.comb(n + k - 1, k), lambda c: True),
                (power_sum_poly(k, row, n, ell), n, lambda c: max(c) == k),
            ):
                assert poly.ring is r
                assert len(poly.terms) == count
                assert all(q == 1 for q in poly.terms.values())
                for code in poly.terms:
                    exps = r.unpack(code)
                    cells = exps[(row - 1) * n : row * n]
                    assert sum(cells) == sum(exps) == k
                    assert shape(cells)


def test_diag_power_sum_matches_direct_expansion():
    r = ring(2, 2)
    f = diag_power_sum((2, 1), 2)
    direct = (
        r.var(1, 1) ** 2 * r.var(2, 1) + r.var(1, 2) ** 2 * r.var(2, 2)
    )
    assert f == direct


def test_multi_elementary_matches_direct_expansion():
    r = ring(2, 2)
    f = multi_elementary((1, 1), 2)
    direct = r.var(1, 1) * r.var(2, 2) + r.var(1, 2) * r.var(2, 1)
    assert f == direct
    # single-row multidegrees reduce to ordinary elementaries
    e2 = multi_elementary((2, 0), 3)
    assert e2 == expand_basis("e", (2,), 1, 3, 2)
    # C(10, 5) ways to put the five row-1 variables among the columns; the
    # five row-2 ones fill the rest
    f = multi_elementary((5, 5), 10)
    assert f.multidegree() == (5, 5)
    assert len(f.terms) == math.comb(10, 5) == 252
    assert set(f.terms.values()) == {QQ(1)}
    for code in f.terms:
        exps = f.ring.unpack(code)
        assert [a + b for a, b in zip(exps[:10], exps[10:])] == [1] * 10


def test_sym_series_rendering():
    series = SymSeries("schur", {(): QQ(1), (2,): QQ(2), (1, 1): QQ(1)})
    text = str(series)
    assert "1" in text
    assert "2 s[2]" in text
    assert "s[1,1]" in text
    assert str(SymSeries("homogeneous", {})) == "0"
