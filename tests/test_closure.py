"""Unit tests for graded spans, generator families, and closures."""

from itertools import permutations

import pytest

from polmod import (
    GeneratorFamily,
    GradedSpan,
    UsageError,
    closure,
    expand_basis,
    polarization_module,
    ring,
)
from polmod.cli.main import main

from conftest import random_nonzero_homogeneous, seeded


def test_span_insert_and_membership():
    r = ring(1, 3)
    span = GradedSpan(1, 3)
    x1, x2, x3 = (r.var(1, j) for j in (1, 2, 3))
    assert span.insert(x1 + x2)
    assert span.insert(x2 + x3)
    # a linear combination of the two is already present
    assert not span.insert(x1 - x3)
    assert span.member(x1 + 2 * x2 + x3)
    assert not span.member(x1)
    assert span.dims() == {(1,): 2}
    assert span.total_dimension() == 2


def test_span_inserting_zero_changes_nothing():
    span = GradedSpan(1, 2)
    r = ring(1, 2)
    assert not span.insert(r.zero())
    assert span.total_dimension() == 0


def test_span_component_basis_is_echelon():
    r = ring(1, 3)
    span = GradedSpan(1, 3)
    span.insert(r.var(1, 1) + r.var(1, 2))
    span.insert(r.var(1, 1) - r.var(1, 2))
    basis = span.component_basis((1,))
    leads = [max(f.terms) for f in basis]
    assert len(leads) == len(set(leads)) == 2


def test_span_equality_is_about_the_space_not_the_input():
    r = ring(1, 2)
    a = GradedSpan(1, 2)
    a.insert(r.var(1, 1))
    a.insert(r.var(1, 2))
    b = GradedSpan(1, 2)
    b.insert(r.var(1, 1) + r.var(1, 2))
    b.insert(r.var(1, 1) - r.var(1, 2))
    assert a == b
    b2 = GradedSpan(1, 2)
    b2.insert(r.var(1, 1))
    assert a != b2


def test_generator_family_orbit_closure():
    # the family keeps the one generator; the closure builds its orbit
    r = ring(1, 3)
    f = r.var(1, 1) ** 2 * r.var(1, 2)
    fam = GeneratorFamily([f], mode="orbit")
    assert fam.polys == [f]
    module = polarization_module(fam)
    assert module.dims()[(3,)] == 6
    for sigma in permutations((1, 2, 3)):
        assert module.member(f.permute(sigma)), sigma


def test_span_rejects_polynomials_of_another_ring():
    span = GradedSpan(1, 4)
    span.insert(ring(1, 4).var(1, 4))
    with pytest.raises(ValueError, match="mixed rings"):
        span.member(ring(1, 3).var(1, 3))
    other = GradedSpan(1, 3)
    with pytest.raises(ValueError, match="mixed rings"):
        other.insert(ring(2, 3).var(2, 1))
    assert other.total_dimension() == 0


def test_generator_family_verbatim_requires_stability():
    r = ring(1, 3)
    e2 = expand_basis("e", (2,), 1, 3, 1)
    GeneratorFamily([e2], mode="verbatim")
    with pytest.raises(UsageError):
        GeneratorFamily([r.var(1, 1)], mode="verbatim")
    with pytest.raises(UsageError):
        GeneratorFamily([], mode="orbit")
    with pytest.raises(UsageError):
        GeneratorFamily([r.var(1, 1) + r.const(1)], mode="orbit")


def test_generator_family_all_zero_polynomials():
    r = ring(1, 2)
    fam = GeneratorFamily([r.zero()], mode="orbit")
    assert fam.is_zero()
    module = polarization_module(fam)
    assert module.total_dimension() == 0


def test_module_of_single_variable_orbit():
    # the orbit of x[1,1] spans all of row 1; polarizations copy it to the
    # other rows and derivatives add the constants
    fam = GeneratorFamily([ring(2, 3).var(1, 1)], mode="orbit")
    module = polarization_module(fam)
    assert module.dims() == {(0, 0): 1, (1, 0): 3, (0, 1): 3}


def test_polarization_module_matches_manual_fixpoint():
    rng = seeded("fixpoint")
    r = ring(2, 3)
    f = random_nonzero_homogeneous(rng, r, (2, 1), terms=3)
    fam = GeneratorFamily([f], mode="orbit")
    module = polarization_module(fam)
    # closed under every operator that defines it
    for d in module.sorted_degrees():
        for g in module.component_basis(d):
            for i in range(1, 3):
                for j in range(1, 4):
                    assert module.member(g.derive(i, j))
            for i in range(1, 3):
                for k in range(1, 3):
                    for p in (1, 2, 3):
                        assert module.member(g.polarize(i, k, p))
    # and under the column action
    for d in module.sorted_degrees():
        for g in module.component_basis(d):
            assert module.member(g.permute((2, 1, 3)))
            assert module.member(g.permute((1, 3, 2)))


def test_module_json_dict_shape():
    fam = GeneratorFamily([ring(1, 2).var(1, 1)], mode="orbit", text=["x[1,1]"])
    module = polarization_module(fam)
    doc = module.to_json_dict()
    assert doc["n"] == 2
    assert doc["ell"] == 1
    assert doc["generators"] == ["x[1,1]"]
    assert doc["dimension"] == module.total_dimension()
    degrees = [tuple(c["degree"]) for c in doc["components"]]
    assert degrees == sorted(degrees)
    for comp in doc["components"]:
        assert len(comp["basis"]) == comp["dimension"]


def test_polarization_module_needs_a_generator_family():
    span = GradedSpan(1, 2)
    span.insert(ring(1, 2).var(1, 1))
    with pytest.raises(TypeError):
        polarization_module(span)


# Applications, insert attempts (generator inserts included) and insertions
# of whole CLI jobs. Update them only when the operator set or the skip
# rules change: how rows are stored or reduced must leave them as they are.
CANDIDATE_COUNTS = [
    (["frobenius", "--gen=vandermonde", "--n", "4", "--ell", "3"], (673, 678, 400)),
    (["frobenius", "--gen=x[2,1]^2*x[3,2]", "--n", "4", "--ell", "3"], (736, 687, 307)),
    (["basis", "--gen=s[2,2]", "--n", "5", "--ell", "2"], (131, 120, 91)),
    # every transposition skip fires: the ordered, the observed and the
    # n-cycle one on an invariant generator row
    (["frobenius", "--gen=m[3,1]", "--n", "7", "--ell", "2"], (149, 148, 102)),
]


@pytest.mark.parametrize("argv, counts", CANDIDATE_COUNTS)
def test_closure_candidate_sequence_is_pinned(argv, counts, monkeypatch, capsys):
    seen = [0, 0, 0]
    apply_operator, insert = closure.apply_operator, closure.Component.insert

    def counted_apply(terms, op):
        seen[0] += 1
        return apply_operator(terms, op)

    def counted_insert(comp, w):
        seen[1] += 1
        row = insert(comp, w)
        seen[2] += row is not None
        return row

    monkeypatch.setattr(closure, "apply_operator", counted_apply)
    monkeypatch.setattr(closure.Component, "insert", counted_insert)
    assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert tuple(seen) == counts
