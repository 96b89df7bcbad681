"""End-to-end acceptance suite.

Every closed-form result carried by the oracles is replayed against the
generic closure engine over its full advertised grid, the shipped fixture
tables are re-run through the verify machinery, and the operator algebra
is property-tested on randomized instances. All comparisons are exact
rational arithmetic; there are no tolerances anywhere.
"""

import time
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from polmod import (
    QQ,
    UsageError,
    build_matrix,
    classify,
    det_T,
    det_identity_check,
    exception_equation,
    frobenius_series,
    gcd_form_check,
    h_gram_check,
    is_n_exception,
    oracle_series,
    ring,
)
from polmod.cli.runner import build_module
from polmod.cli.verify import run_verify

from conftest import (
    random_nonzero_homogeneous,
    random_nonzero_rational,
    random_permutation,
    random_rational,
    seeded,
)


def _series_match(module, kind, **kw):
    """Exact coefficient-for-coefficient comparison engine vs oracle."""
    return frobenius_series(module).coeffs == oracle_series(kind, **kw).coeffs


def _quadratic_gen(a, b):
    terms = []
    if a:
        terms.append("%s*m[2]" % a)
    if b:
        if terms:
            terms.append(("+ %s" % b if b > 0 else "- %s" % -b) + "*m[1,1]")
        else:
            terms.append("%s*m[1,1]" % b)
    return " ".join(terms)


def _cubic_gen(a, b, c):
    terms = []
    for coeff, name in ((a, "m[3]"), (b, "m[2,1]"), (c, "m[1,1,1]")):
        if not coeff:
            continue
        if terms:
            terms.append(("+ %s" % coeff if coeff > 0 else "- %s" % -coeff) + "*" + name)
        else:
            terms.append("%s*%s" % (coeff, name))
    return " ".join(terms)


# ---------------------------------------------------------------------------
# closed-form series over the full grid


def test_power_and_elementary_series_match_oracle_over_full_grid():
    """e_1^d, p_d and e_d for d 1..5, n 2..6, ell 1..3, and for d 1..4,
    n 2..4 at ell = 4 (non-adjacent row pairs), all exact."""
    t0 = time.time()
    grid = list(product(range(1, 6), range(2, 7), (1, 2, 3)))
    grid += product(range(1, 5), range(2, 5), (4,))
    for d, n, ell in grid:
        jobs = (
            ("e1_power", "e[1]^%d" % d),
            ("p_d", "p[%d]" % d),
            ("e_d", "e[%d]" % d),
        )
        for kind, gen in jobs:
            module = build_module([gen], n, ell)
            if kind == "e_d" and d > n:
                # the elementary generator vanishes identically: the engine
                # returns the zero module and the oracle refuses the input
                assert module.total_dimension() == 0
                with pytest.raises(UsageError):
                    oracle_series(kind, n=n, ell=ell, d=d)
                continue
            assert _series_match(module, kind, n=n, ell=ell, d=d), (kind, d, n, ell)
    assert time.time() - t0 < 300


ORACLE_GENERATORS = {
    "e1_power": "e[1]^%d",
    "p_d": "p[%d]",
    "e_d": "e[%d]",
    "family_A": "family:A:%d",
    "family_B": "family:B:%d",
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(ORACLE_GENERATORS) + ["deg2", "deg3"]),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 4),
    st.lists(
        st.fractions(-9, 9, max_denominator=4).map(QQ).filter(bool),
        min_size=3,
        max_size=3,
    ),
)
def test_engine_matches_oracle_at_random_grid_points(kind, d, n, ell, abc):
    """Any closed form at a random (d, n, ell), ell up to 4 and n down to 1;
    deg2 and deg3 draw nonzero rational coefficients and need n >= 2."""
    a, b, c = abc
    if kind in ("deg2", "deg3"):
        assume(n >= 2)
    if kind == "deg2":
        module = build_module([_quadratic_gen(a, b)], n, ell)
        expected = oracle_series(kind, n=n, ell=ell, a=a, b=b)
    elif kind == "deg3":
        module = build_module([_cubic_gen(a, b, c)], n, ell)
        expected = oracle_series(kind, n=n, ell=ell, a=a, b=b, c=c)
    else:
        assume(not (kind == "e_d" and d > n) and not (kind == "family_B" and n < 2))
        module = build_module([ORACLE_GENERATORS[kind] % d], n, ell)
        expected = oracle_series(kind, n=n, ell=ell, d=d)
    assert frobenius_series(module).coeffs == expected.coeffs


def test_two_parameter_families_match_oracle():
    """Sum and difference families for d 2..4, n 2..5, ell 1..2."""
    for d, n, ell in product(range(2, 5), range(2, 6), (1, 2)):
        for kind, gen in (("family_A", "family:A:%d" % d), ("family_B", "family:B:%d" % d)):
            module = build_module([gen], n, ell)
            assert _series_match(module, kind, n=n, ell=ell, d=d), (kind, d, n, ell)


# ---------------------------------------------------------------------------
# quadratic and cubic classification


def test_quadratic_classification_series_and_dimensions():
    """25 rational coefficient points, engine vs the classified formula.

    A perfect square gives dimension C(ell+2, 2); every other quadratic
    gives 1 + n*ell + C(ell+1, 2).
    """
    rng = seeded("acceptance-quadratic")
    points = [(QQ(1), QQ(2)), (QQ(1), QQ(0)), (QQ(0), QQ(1))]
    while len(points) < 25:
        a = random_rational(rng, span=9)
        b = random_rational(rng, span=9)
        if (a, b) != (0, 0) and (a, b) not in points:
            points.append((a, b))
    for n, ell in product(range(2, 7), (1, 2)):
        for a, b in points:
            module = build_module([_quadratic_gen(a, b)], n, ell)
            assert _series_match(module, "deg2", n=n, ell=ell, a=a, b=b), (n, ell, a, b)
            cls = classify(2, (a, b), n)
            if cls == "P1_SQUARED":
                want = comb(ell + 2, 2)
            else:
                want = 1 + n * ell + comb(ell + 1, 2)
            assert module.total_dimension() == want, (n, ell, a, b, cls)


CUBIC_BASE_POINTS = [(1, 3, 6), (1, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 0)]
CUBIC_EXTRA_POINTS = {3: (2, -3, 12), 4: (1, 1, 0), 5: (4, -3, 4), 6: (5, -3, 3)}

# published verdicts: the cube point is excluded everywhere; m[3] and
# m[1,1,1] collapse for every n here, as does each per-n extra point;
# m[2,1] and the complete homogeneous h_3 never collapse on this grid
CUBIC_VERDICTS = {
    (1, 3, 6): "P1_CUBED",
    (1, 0, 0): "P3",
    (0, 0, 1): "P3",
    (1, 1, 1): "H3",
    (0, 1, 0): "H3",
    (2, -3, 12): "P3",
    (1, 1, 0): "P3",
    (4, -3, 4): "P3",
    (5, -3, 3): "P3",
}


def test_cubic_classification_verdicts_and_series():
    for n in range(2, 7):
        points = CUBIC_BASE_POINTS + ([CUBIC_EXTRA_POINTS[n]] if n in CUBIC_EXTRA_POINTS else [])
        for ell in (1, 2):
            for a, b, c in points:
                cls = classify(3, (a, b, c), n)
                assert cls == CUBIC_VERDICTS[(a, b, c)], (n, ell, (a, b, c))
                assert is_n_exception(a, b, c, n) == (cls == "P3")
                module = build_module([_cubic_gen(a, b, c)], n, ell)
                if n == 2 and (a, b, c) == (0, 0, 1):
                    # m[1,1,1] vanishes identically in two variables, so the
                    # engine yields the zero module while the coefficient
                    # point still classifies as a collapse
                    assert module.total_dimension() == 0
                    continue
                assert _series_match(
                    module, "deg3", n=n, ell=ell, a=QQ(a), b=QQ(b), c=QQ(c)
                ), (n, ell, (a, b, c))


# ---------------------------------------------------------------------------
# collapse equation in closed form


def test_collapse_equation_normal_forms_small_n():
    assert exception_equation(3) == (3, 2, 1, 4)
    assert exception_equation(4) == (1, 1, 1, 1)
    assert exception_equation(5) == (3, 2, 3, 8)
    assert exception_equation(6) == (3, 1, 2, 5)
    assert exception_equation(7) == (1, 2, 5, 4)


def test_collapse_equation_agrees_with_reduced_form_everywhere():
    rng = seeded("acceptance-gcd-form")
    for n in range(3, 43):
        for _ in range(50):
            a = random_rational(rng, span=20)
            b = random_rational(rng, span=20)
            c = random_rational(rng, span=20)
            assert gcd_form_check(a, b, c, n), (n, a, b, c)


def test_collapse_table_fixtures_pass():
    doc, _ = run_verify(["exceptions"])
    assert doc["failed"] == 0
    assert doc["checked"] >= 40
    assert doc["passed"] + doc["reported"] == doc["checked"]


# ---------------------------------------------------------------------------
# structured determinants


def test_patterned_determinant_matches_generic_elimination():
    rng = seeded("acceptance-det-T")
    for n in range(2, 9):
        for _ in range(20):
            params = tuple(random_rational(rng) for _ in range(5))
            m = build_matrix("T", n, params)
            assert m.det() == det_T(*params, n), (n, params)


def test_block_determinant_identities_hold():
    rng = seeded("acceptance-det-blocks")
    for kind in ("E", "D", "G"):
        for n in range(3, 9):
            for _ in range(20):
                a = random_rational(rng)
                b = random_rational(rng)
                c = random_rational(rng)
                assert det_identity_check(kind, a, b, c, n), (kind, n, a, b, c)


def test_gram_factorization_identity_holds():
    rng = seeded("acceptance-gram")
    for n in range(3, 9):
        for _ in range(20):
            x = random_rational(rng)
            y = random_rational(rng)
            z = random_rational(rng)
            assert h_gram_check(x, y, z, n), (n, x, y, z)


# ---------------------------------------------------------------------------
# fixture tables through the verify machinery


def test_worked_example_fixtures_pass():
    doc, _ = run_verify(["examples:fast"])
    assert doc["failed"] == 0
    assert doc["checked"] >= 5
    assert doc["passed"] == doc["checked"] - doc["reported"]


def test_degree_four_and_five_tables_pass():
    t0 = time.time()
    doc, _ = run_verify(["table:4", "table:5"])
    assert doc["failed"] == 0
    assert doc["checked"] >= 50
    assert time.time() - t0 < 1800


def test_degree_four_and_five_dimension_tables_pass():
    doc, _ = run_verify(["hilbert:4", "hilbert:5"])
    assert doc["failed"] == 0
    assert doc["checked"] >= 40


def test_homogeneous_chain_fixtures_pass():
    doc, _ = run_verify(["homog"])
    assert doc["failed"] == 0
    assert doc["checked"] >= 10


# ---------------------------------------------------------------------------
# operator identity properties, 50 randomized instances per group


def _random_mixed_poly(rng, r, max_row_degree=2):
    d = tuple(rng.randint(0, max_row_degree) for _ in range(r.ell))
    if not any(d):
        d = (1,) + d[1:]
    return random_nonzero_homogeneous(rng, r, d, terms=3)


def test_derivative_polarization_commutator():
    """d_{a,b} E_{i,k}^{(p)} - E_{i,k}^{(p)} d_{a,b} = [a == i] d_{k,b}^p."""
    rng = seeded("acceptance-commutator")
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.choice((2, 3))
        r = ring(ell, n)
        g = _random_mixed_poly(rng, r)
        alpha = rng.randint(1, ell)
        beta = rng.randint(1, n)
        i = rng.randint(1, ell)
        k = rng.randint(1, ell)
        p = rng.randint(1, 3)
        lhs = g.polarize(i, k, p).derive(alpha, beta, 1)
        rhs = g.derive(alpha, beta, 1).polarize(i, k, p)
        if alpha == i:
            rhs = rhs + g.derive(k, beta, p)
        assert lhs == rhs, (ell, n, alpha, beta, i, k, p)


def _random_poly_with_row_degree(rng, r, k, p):
    """A random homogeneous polynomial whose row k has degree at least p."""
    d = [rng.randint(0, 2) for _ in range(r.ell)]
    d[k - 1] = rng.randint(p, 4)
    return random_nonzero_homogeneous(rng, r, tuple(d), terms=3)


def test_off_diagonal_polarization_order_commutator():
    """E_{i,k}^{(1)} E_{k,k}^{(p)} - E_{k,k}^{(p)} E_{i,k}^{(1)} = E_{i,k}^{(p)}, i != k."""
    rng = seeded("acceptance-order-commutator")
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.choice((2, 3))
        r = ring(ell, n)
        i, k = rng.sample(range(1, ell + 1), 2)
        p = rng.randint(1, 4)
        g = _random_poly_with_row_degree(rng, r, k, p)
        lhs = g.polarize(k, k, p).polarize(i, k, 1) - g.polarize(i, k, 1).polarize(k, k, p)
        assert lhs == g.polarize(i, k, p), (ell, n, i, k, p)


def test_raising_lowering_commutator_is_a_degree_scalar():
    """[E_{j,j+1}^{(1)}, E_{i+1,i}^{(1)}] f = [i == j] (d_i - d_{i+1}) f."""
    rng = seeded("acceptance-cartan-commutator")
    for _ in range(50):
        ell = rng.randint(2, 4)
        n = rng.randint(1, 3)
        r = ring(ell, n)
        g = _random_mixed_poly(rng, r)
        d = g.multidegree()
        i = rng.randint(1, ell - 1)
        j = i if rng.random() < 0.5 else rng.randint(1, ell - 1)
        lhs = g.polarize(i + 1, i, 1).polarize(j, j + 1, 1)
        lhs = lhs - g.polarize(j, j + 1, 1).polarize(i + 1, i, 1)
        rhs = g.scale(d[i - 1] - d[i]) if i == j else r.zero()
        assert lhs == rhs, (ell, n, d, i, j)


def test_row_one_self_polarization_order_commutator():
    """[E_{1,1}^{(2)}, E_{1,1}^{(p)}] = (2 - p) E_{1,1}^{(p+1)} for p >= 3."""
    rng = seeded("acceptance-self-polarization-commutator")
    for _ in range(50):
        ell = rng.randint(1, 3)
        n = rng.randint(1, 3)
        r = ring(ell, n)
        p = rng.randint(3, 5)
        d = [rng.randint(0, 1) for _ in range(ell)]
        d[0] = rng.randint(p + 1, p + 2)
        g = random_nonzero_homogeneous(rng, r, tuple(d), terms=3)
        lhs = g.polarize(1, 1, p).polarize(1, 1, 2)
        lhs = lhs - g.polarize(1, 1, 2).polarize(1, 1, p)
        assert lhs == g.polarize(1, 1, p + 1).scale(2 - p), (ell, n, d, p)


def test_row_one_third_self_polarization_from_row_two():
    """E_{1,1}^{(3)} = (5/2) C - [E_{2,1}^{(1)}, [E_{1,2}^{(1)}, C/2]] with
    C = [E_{2,2}^{(2)}, E_{2,1}^{(2)}], so at ell >= 2 the closure need not
    apply E_{1,1}^{(3)}."""
    rng = seeded("acceptance-third-self-polarization")

    def bracket(a, b):
        # [A, B] g = A(B g) - B(A g), operators as functions of a Poly
        return lambda g: a(b(g)) - b(a(g))

    def pol(i, k, p):
        return lambda g: g.polarize(i, k, p)

    c = bracket(pol(2, 2, 2), pol(2, 1, 2))
    nested = bracket(pol(2, 1, 1), bracket(pol(1, 2, 1), c))
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.randint(1, 4)
        r = ring(ell, n)
        d = [rng.randint(0, 2) for _ in range(ell)]
        d[0] = rng.randint(3, 5)
        g = random_nonzero_homogeneous(rng, r, tuple(d), terms=3)
        rhs = c(g).scale(QQ(5, 2)) - nested(g).scale(QQ(1, 2))
        assert g.polarize(1, 1, 3) == rhs, (ell, n, d)


@pytest.mark.parametrize(
    "gens, n", [(["x[1,1]^5*x[1,2]"], 2), (["m[4,2]"], 4), (["e[1]^6"], 3)]
)
def test_high_row_degree_modules_are_closed_under_every_operator(gens, n):
    """Row degree >= 5 reaches the E[1,1]^(p), p >= 4, that the closure
    leaves out; the module must still be closed under them."""
    module = build_module(gens, n, 2)
    for d in module.sorted_degrees():
        for g in module.component_basis(d):
            for i in range(1, 3):
                for j in range(1, n + 1):
                    assert module.member(g.derive(i, j)), (d, i, j)
                for k in range(1, 3):
                    for p in range(1, d[k - 1] + 1):
                        assert module.member(g.polarize(i, k, p)), (d, i, k, p)


def test_row_swap_conjugates_row_one_self_polarization():
    """sigma E_{1,1}^{(p)} sigma = E_{k,k}^{(p)} for the row swap sigma = (1 k)."""
    rng = seeded("acceptance-row-swap")
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.choice((2, 3))
        r = ring(ell, n)
        k = rng.randint(2, ell)
        p = rng.randint(1, 4)
        g = _random_poly_with_row_degree(rng, r, k, p)
        rows = list(range(ell))
        rows[0], rows[k - 1] = rows[k - 1], rows[0]
        swap = [[QQ(int(b == rows[a])) for b in range(ell)] for a in range(ell)]
        lhs = g.apply_row_matrix(swap).polarize(1, 1, p).apply_row_matrix(swap)
        assert lhs == g.polarize(k, k, p), (ell, n, k, p)


def test_column_permutation_equivariance():
    """Permuting columns commutes with polarization and twists derivatives."""
    rng = seeded("acceptance-equivariance")
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.choice((2, 3, 4))
        r = ring(ell, n)
        g = _random_mixed_poly(rng, r)
        sigma = random_permutation(rng, n)
        i = rng.randint(1, ell)
        k = rng.randint(1, ell)
        p = rng.randint(1, 2)
        assert g.polarize(i, k, p).permute(sigma) == g.permute(sigma).polarize(i, k, p)
        j = rng.randint(1, n)
        lhs = g.derive(i, j, 1).permute(sigma)
        rhs = g.permute(sigma).derive(i, sigma[j - 1], 1)
        assert lhs == rhs, (ell, n, sigma, i, j)


def test_transpositions_fixing_column_one_commute_with_its_derivative():
    """[tau_j, d/dx[1,1]] = 0 for tau_j = (j j+1), j >= 2."""
    rng = seeded("acceptance-transposition-derivative")
    for _ in range(50):
        ell = rng.choice((1, 2, 3))
        n = rng.randint(3, 5)
        r = ring(ell, n)
        g = _random_poly_with_row_degree(rng, r, 1, 1)
        j = rng.randint(2, n - 1)
        tau = r.transpositions[j - 1]
        assert g.permute(tau).derive(1, 1) == g.derive(1, 1).permute(tau), (ell, n, j)


def test_transpositions_commute_with_polarizations():
    """[tau_j, E[i,k]^(p)] = 0 for every adjacent transposition tau_j."""
    rng = seeded("acceptance-transposition-polarization")
    for _ in range(50):
        ell = rng.choice((1, 2, 3))
        n = rng.randint(2, 5)
        r = ring(ell, n)
        i = rng.randint(1, ell)
        k = rng.randint(1, ell)
        p = rng.randint(1, 4)
        g = _random_poly_with_row_degree(rng, r, k, p)
        j = rng.randint(1, n - 1)
        tau = r.transpositions[j - 1]
        lhs = g.permute(tau).polarize(i, k, p)
        assert lhs == g.polarize(i, k, p).permute(tau), (ell, n, i, k, p, j)


def test_transposition_conjugates_the_column_one_derivative():
    """tau_j d/dx[1,1] tau_j = d/dx[1,tau_j(1)]: d/dx[1,2] for j = 1, else
    d/dx[1,1]."""
    rng = seeded("acceptance-transposition-conjugate")
    for _ in range(50):
        ell = rng.choice((1, 2, 3))
        n = rng.randint(2, 5)
        r = ring(ell, n)
        g = _random_poly_with_row_degree(rng, r, 1, 1)
        j = rng.randint(1, n - 1)
        tau = r.transpositions[j - 1]
        lhs = g.permute(tau).derive(1, 1).permute(tau)
        assert lhs == g.derive(1, tau.images[0]), (ell, n, j)


def test_row_shift_round_trip_scales_by_degree():
    """E_{1,i} E_{i,1} acts as multiplication by the degree on row 1."""
    rng = seeded("acceptance-row-shift")
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.choice((2, 3))
        r = ring(ell, n)
        d = rng.randint(1, 5)
        g = random_nonzero_homogeneous(rng, r, (d,) + (0,) * (ell - 1), terms=3)
        i = rng.randint(2, ell)
        shifted = g.polarize(i, 1, 1)
        assert shifted.is_homogeneous()
        assert shifted.polarize(1, i, 1) == g.scale(d), (ell, n, d, i)


def test_row_substitution_expands_into_spread_components():
    """Substituting a row combination equals the weighted spread sum.

    Replacing the row-1 variables by a rational combination of all rows
    expands as the sum over multidegrees of the spread images weighted by
    multinomial coefficients, and collapsing any single spread image
    restores the original polynomial.
    """
    rng = seeded("acceptance-substitution")
    for _ in range(50):
        ell = rng.choice((2, 3))
        n = rng.choice((2, 3))
        r = ring(ell, n)
        m = rng.randint(1, 3)
        f = random_nonzero_homogeneous(rng, r, (m,) + (0,) * (ell - 1), terms=3)
        t = tuple(random_nonzero_rational(rng, span=5) for _ in range(ell))
        mat = [list(t)] + [
            [QQ(1) if kk == ii else QQ(0) for kk in range(ell)] for ii in range(1, ell)
        ]
        lhs = f.apply_row_matrix(mat)
        rhs = r.zero()
        degs = [d for d in product(range(m + 1), repeat=ell) if sum(d) == m]
        for d in degs:
            coeff = QQ(factorial(m))
            for di in d:
                coeff /= factorial(di)
            tpow = QQ(1)
            for ti, di in zip(t, d):
                tpow *= ti ** di
            rhs = rhs + f.polarization_up(d).scale(coeff * tpow)
        assert lhs == rhs, (ell, n, m, t)
        d = degs[rng.randrange(len(degs))]
        assert f.polarization_up(d).restitution(d) == f, (ell, n, m, d)


# ---------------------------------------------------------------------------
# alternating generator spot checks


@pytest.mark.slow
def test_alternating_generator_dimensions():
    assert build_module(["vandermonde"], 3, 1).total_dimension() == 6
    assert build_module(["vandermonde"], 3, 2).total_dimension() == 16
    assert build_module(["vandermonde"], 4, 1).total_dimension() == 24
    assert build_module(["vandermonde"], 4, 2).total_dimension() == 125
    assert build_module(["vandermonde"], 4, 3).total_dimension() == 400
    # (n+1)^(n-1): dense rows and many back-substitutions
    assert build_module(["vandermonde"], 5, 2).total_dimension() == 1296


# ---------------------------------------------------------------------------
# report-only experiment tier


def test_experiment_fixtures_report_without_failing(capsys):
    doc, render = run_verify(["experiments"])
    assert doc["failed"] == 0
    assert doc["reported"] > 0
    assert all(r["status"].startswith("report") for r in doc["results"])
    print(render())
