"""Property tests of the closure's canonical echelon form.

Random small homogeneous families with rational coefficients, large coprime
denominators included, are checked against an independent Gauss-Jordan
elimination over fractions.Fraction and against the invariants the engine
relies on: canonical reduced echelon form (after every insert, and in every
component of a module), independence of insertion order and scaling,
closure under every derivative and polarization (the closure applies only
some of them), closure idempotence, GL_ell stability of the dimensions,
stability under the column transpositions of modules of non-symmetric
families, equivariance under row and column permutations, and the traces of
column permutations (integral on modules) against a Fraction reference.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd

from hypothesis import example, given, settings, strategies as st

from polmod import (
    GeneratorFamily,
    GradedSpan,
    QQ,
    polarization_module,
    ring,
)
from polmod.polyring import Permutation

from conftest import render_cell_by_cell

DENOMINATORS = [1, 2, 3, 4, 9, 7919, 9973, 10007]

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def rationals():
    return st.builds(
        QQ,
        st.integers(-10**6, 10**6).filter(bool),
        st.sampled_from(DENOMINATORS),
    )


@st.composite
def shapes(draw):
    """(ell, n, multidegree) with a small total degree.

    n = 1 gives polarizations a single move, like a derivative; ell = 4 has
    non-adjacent row pairs, whose polarizations the closure does not apply.
    """
    ell = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    degree = [draw(st.integers(0, 2)) for _ in range(ell)]
    # cap the total degree so that ell = 4 modules stay small
    while sum(degree) > 4:
        degree[degree.index(max(degree))] -= 1
    if not sum(degree):
        degree[0] = 1
    return ell, n, tuple(degree)


@st.composite
def monomial_exps(draw, n, degree):
    """{(i, j): exponent} of a monomial of the given multidegree."""
    exps = {}
    for i, di in enumerate(degree, start=1):
        for _ in range(di):
            j = draw(st.integers(1, n))
            exps[(i, j)] = exps.get((i, j), 0) + 1
    return exps


@st.composite
def families(draw, max_polys=5):
    """(ring, multidegree, nonzero homogeneous polys of that multidegree)."""
    ell, n, degree = draw(shapes())
    r = ring(ell, n)
    polys = []
    for _ in range(draw(st.integers(1, max_polys))):
        f = r.zero()
        for _ in range(draw(st.integers(1, 4))):
            f = f + r.monomial(draw(monomial_exps(n, degree)), draw(rationals()))
        if not f.is_zero():
            polys.append(f)
    if not polys:
        polys.append(r.monomial(draw(monomial_exps(n, degree)), draw(rationals())))
    return r, degree, polys


def as_fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def gauss_jordan(polys):
    """Reduced row echelon rows {code: Fraction}, pivots descending.

    Columns are monomial codes, greatest first; pivot coefficients are 1.
    """
    rows = [{c: as_fraction(q) for c, q in f.terms.items()} for f in polys]
    columns = sorted({c for row in rows for c in row}, reverse=True)
    basis = []
    for col in columns:
        pick = next((row for row in rows if row.get(col)), None)
        if pick is None:
            continue
        rows.remove(pick)
        lead = pick[col]
        pick = {c: v / lead for c, v in pick.items()}
        for other in rows + basis:
            factor = other.get(col)
            if factor:
                for c, v in pick.items():
                    s = other.get(c, 0) - factor * v
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
        basis.append(pick)
    return basis


def span_of(r, polys):
    span = GradedSpan(r.ell, r.n)
    for f in polys:
        span.insert(f)
    return span


@PROPERTY_SETTINGS
@given(families())
def test_component_basis_is_reduced_echelon(family):
    r, degree, polys = family
    basis = span_of(r, polys).component_basis(degree)
    pivots = [max(f.terms) for f in basis]
    assert pivots == sorted(set(pivots), reverse=True)
    for f, pivot in zip(basis, pivots):
        assert f.terms[pivot] == 1
        assert not any(p in f.terms for p in pivots if p != pivot)


@PROPERTY_SETTINGS
@given(families(max_polys=8))
def test_component_basis_matches_fraction_gauss_jordan(family):
    # after every insert, not only the last
    r, degree, polys = family
    span = GradedSpan(r.ell, r.n)
    for k, f in enumerate(polys, start=1):
        span.insert(f)
        got = [{c: as_fraction(q) for c, q in g.terms.items()} for g in span.component_basis(degree)]
        assert got == gauss_jordan(polys[:k])


def assert_canonical(comp):
    """comp's rows are primitive int vectors in reduced echelon form."""
    assert comp.pivots == sorted(set(comp.pivots), reverse=True)
    assert len(comp.rows) == len(comp.pivots)
    for pivot, row in zip(comp.pivots, comp.rows):
        assert all(type(v) is int for v in row.values())
        assert max(row) == pivot and row[pivot] > 0
        assert gcd(*row.values()) == 1
        assert not any(p in row for p in comp.pivots if p != pivot)


@PROPERTY_SETTINGS
@given(families())
def test_stored_rows_are_primitive_integer_vectors(family):
    r, degree, polys = family
    assert_canonical(span_of(r, polys).components[degree])


@PROPERTY_SETTINGS
@given(families(max_polys=2))
def test_module_components_are_canonical(family):
    # the closure keeps rows in echelon form and reduces them once at the end
    r, degree, polys = family
    module = polarization_module(GeneratorFamily(polys, mode="orbit"))
    for comp in module.components.values():
        assert_canonical(comp)


def moved_pivot_reference(span, d, images):
    """Sum over the component_basis(d) rows of the row's coefficient at
    sigma^-1 pivot, in Fractions, with sigma^-1 applied to the unpacked
    exponents: column images[j-1] of the pivot moves back to column j."""
    r = span.ring
    total = Fraction(0)
    for f in span.component_basis(d):
        exps = r.unpack(max(f.terms))
        moved = [0] * r.ncells
        for i in range(r.ell):
            for j, image in enumerate(images):
                moved[i * r.n + j] = exps[i * r.n + image - 1]
        total += as_fraction(f.terms.get(r.pack(moved), 0))
    return total


@PROPERTY_SETTINGS
@given(families(), st.sampled_from(("module", "span", "twisted")), st.data())
def test_component_trace_matches_a_fraction_reference(family, kind, data):
    # modules of the closure, whose traces are characters, and hand-built
    # spans, which need not be column-stable; a twisted span adds q sigma^-1 f
    # to each f, so that rows hold terms at moved pivots and traces can be
    # fractions
    r, degree, polys = family
    images = tuple(data.draw(st.permutations(range(1, r.n + 1))))
    inv = Permutation(r, images).inverse()
    if kind == "module":
        span = polarization_module(GeneratorFamily(polys, mode="orbit"))
    elif kind == "span":
        span = span_of(r, polys)
    else:
        span = span_of(r, [f + f.permute(inv).scale(data.draw(rationals())) for f in polys])
    for d, comp in span.components.items():
        total, den = comp.trace(lambda code: r.permute_code(code, inv))
        assert den > 0
        assert Fraction(total, den) == moved_pivot_reference(span, d, images)
        if kind == "module":
            assert total % den == 0


@PROPERTY_SETTINGS
@given(families(), st.randoms(use_true_random=False), st.lists(rationals(), min_size=5, max_size=5))
def test_span_equality_ignores_order_and_scaling(family, rnd, scales):
    r, degree, polys = family
    shuffled = list(polys)
    rnd.shuffle(shuffled)
    scaled = [f.scale(q) for f, q in zip(shuffled, scales)]
    assert span_of(r, polys) == span_of(r, shuffled) == span_of(r, scaled)


@PROPERTY_SETTINGS
@given(families(max_polys=2))
def test_closure_is_idempotent_and_row_stable(family):
    r, degree, polys = family
    module = polarization_module(GeneratorFamily(polys, mode="orbit"))
    basis = [f for d in module.sorted_degrees() for f in module.component_basis(d)]
    # closed under every operator of the definition, not only those applied
    for g in basis:
        d = g.multidegree()
        for i in range(1, r.ell + 1):
            for j in range(1, r.n + 1):
                assert module.member(g.derive(i, j))
            for k in range(1, r.ell + 1):
                for p in range(1, d[k - 1] + 1):
                    assert module.member(g.polarize(i, k, p))
    again = polarization_module(GeneratorFamily(basis, mode="verbatim"))
    assert again == module
    dims = module.dims()
    for d, dim in dims.items():
        assert dims.get(tuple(sorted(d, reverse=True))) == dim


def column_orbit(g):
    """The distinct images of g under every permutation of the columns."""
    columns = permutations(range(1, g.ring.n + 1))
    return list(dict.fromkeys(g.permute(sigma) for sigma in columns))


@st.composite
def non_symmetric_families(draw):
    """A stable family and the column orbit of its generator g:
    (family, orbit).

    g is a random monomial m; or m + tau_1 m, which the transposition
    tau_1 = (1 2) fixes but the n-cycle (1 2 ... n) need not, like
    x[1,1]*x[1,2]; or the sum of the column orbit of m, which every
    permutation fixes. The family is g in mode 'orbit', or the orbit of g
    given verbatim (its images scaled, or the differences of one image with
    the others)."""
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    degree = [draw(st.integers(0, 2)) for _ in range(ell)]
    degree[0] = draw(st.integers(1, 2))
    # cap the total degree so that orbits and modules stay small at n >= 5
    while n >= 5 and sum(degree) > 3:
        degree[degree.index(max(degree[1:]), 1)] -= 1
    r = ring(ell, n)
    m = r.monomial(draw(monomial_exps(n, degree)), draw(rationals()))
    symmetry = draw(st.sampled_from((None, "tau_1", "every")))
    if symmetry == "tau_1":
        g = m + m.permute(r.transpositions[0])
    elif symmetry == "every":
        g = sum(column_orbit(m), r.zero())
    else:
        g = m
    images = column_orbit(g)
    # mode 'orbit' twice as often: there the closure's transpositions, with
    # their skips, build the orbit
    kind = draw(st.sampled_from(("orbit", "orbit", "scaled", "differences")))
    if kind == "orbit":
        return GeneratorFamily([g], mode="orbit"), images
    if kind == "scaled":
        polys = [f.scale(draw(rationals())) for f in images]
    else:
        polys = [images[0] - f for f in images[1:]] or images
    return GeneratorFamily(polys, mode="verbatim"), images


def orbit_family(ell, n, exps):
    g = ring(ell, n).monomial(exps)
    return GeneratorFamily([g], mode="orbit"), column_orbit(g)


@PROPERTY_SETTINGS
@given(non_symmetric_families())
# a row made by tau_i may skip tau_j, j <= i - 2, only once tau_j has been
# seen to fix its source row: skipping it always closes this to dimension
# 165, not 211
@example(orbit_family(3, 4, {(1, 1): 2, (1, 2): 1}))
# tau_1 fixes x[1,1]*x[1,2] but the 4-cycle does not: skipping tau_2 and
# tau_3 on the generator row closes this to dimension 8, not 27
@example(orbit_family(2, 4, {(1, 1): 1, (1, 2): 1}))
def test_modules_of_non_symmetric_families_are_column_stable(family_and_orbit):
    # the closure applies d/dx[1,1] and only some of the adjacent
    # transpositions to each row
    family, orbit = family_and_orbit
    r = family.ring
    module = polarization_module(family)
    for d in module.sorted_degrees():
        for g in module.component_basis(d):
            for tau in r.transpositions:
                assert module.member(g.permute(tau)), (d, tau.images)
            for i in range(1, r.ell + 1):
                for j in range(1, r.n + 1):
                    assert module.member(g.derive(i, j)), (d, i, j)
    if family.mode == "orbit":
        # the closure builds the orbit of the given monomial itself
        assert module == polarization_module(GeneratorFamily(orbit, mode="verbatim"))


@PROPERTY_SETTINGS
@given(families(max_polys=2), st.data())
def test_module_is_equivariant_under_row_and_column_permutations(family, data):
    r, degree, polys = family
    module = polarization_module(GeneratorFamily(polys, mode="orbit"))
    basis = [f for d in module.sorted_degrees() for f in module.component_basis(d)]
    rows = data.draw(st.permutations(range(r.ell)))
    matrix = [[QQ(int(b == rows[a])) for b in range(r.ell)] for a in range(r.ell)]
    columns = tuple(data.draw(st.permutations(range(1, r.n + 1))))
    for act in (lambda f: f.apply_row_matrix(matrix), lambda f: f.permute(columns)):
        moved = polarization_module(GeneratorFamily([act(f) for f in polys], mode="orbit"))
        assert moved == span_of(r, [act(f) for f in basis])


@PROPERTY_SETTINGS
@given(families(max_polys=2))
def test_json_basis_text_is_the_text_of_the_component_basis(family):
    r, degree, polys = family
    module = polarization_module(GeneratorFamily(polys, mode="orbit"))
    doc = module.to_json_dict()
    assert [c["degree"] for c in doc["components"]] == [list(d) for d in module.sorted_degrees()]
    for c in doc["components"]:
        basis = module.component_basis(c["degree"])
        assert c["basis"] == [render_cell_by_cell(f) for f in basis]
