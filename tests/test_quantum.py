import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import POS_INF, DomainError, FixtureError, QuantumClass, StructuralError
from novispec.fixtures import calibration, projective_plane, sphere, torus
from novispec.quantum import COHOMOLOGY, valuation_min


def test_unit_acts_as_identity():
    fix = sphere()
    one = fix.cls("one")
    for name in fix.basis.classes:
        x = fix.cls(name)
        assert nv.quantum_product(one, x, fix.product) == x


def test_grading_additive_on_random_pairs():
    rng = random.Random(5)
    fix = projective_plane()
    names = sorted(fix.basis.classes)
    for _ in range(30):
        a = fix.cls(rng.choice(names), (rng.randint(0, 2),))
        b = fix.cls(rng.choice(names), (rng.randint(0, 2),))
        p = nv.quantum_product(a, b, fix.product)
        if not p.is_zero():
            assert p.degree == a.degree + b.degree


def test_point_squared_on_the_sphere():
    fix = sphere()
    pt = fix.cls("pt")
    p = nv.quantum_product(pt, pt, fix.product)
    assert p == fix.cls("one", (1,))
    # upward valuation of the result is minus the line area
    ld = nv.leading_data(p)
    assert ld.valuation == -fix.gamma.omega((1,))
    assert p.degree == 4


def test_product_level_subadditive():
    # effective corrections only lower levels: the top support level of a
    # product never exceeds the sum of the factors' top levels; on the
    # homology side this reads as a superadditive downward valuation.
    rng = random.Random(6)
    fix = sphere()
    names = sorted(fix.basis.classes)
    for _ in range(40):
        a = fix.cls(rng.choice(names), (rng.randint(0, 2),))
        b = fix.cls(rng.choice(names), (rng.randint(0, 2),))
        p = nv.quantum_product(a, b, fix.product)
        if p.is_zero():
            continue
        assert (
            nv.leading_data(p).valuation
            <= nv.leading_data(a).valuation + nv.leading_data(b).valuation
        )
        down = lambda x: max(x.gamma.omega(l) for l in nv.flat(x).support_labels())
        assert down(p) >= down(a) + down(b)


def test_missing_structure_constant():
    fix = sphere()
    table = dict(fix.product.table)
    del table[("pt", "pt")]
    broken = nv.ProductFixture(fix.basis, fix.gamma, "one", table)
    with pytest.raises(FixtureError):
        nv.quantum_product(fix.cls("pt"), fix.cls("pt"), broken)


def test_pairing_label_mismatch_is_zero():
    fix = sphere()
    a = fix.cls("one", (1,))
    b = nv.flat(fix.cls("one", (2,)))
    assert nv.pairing(a, b) == 0


def test_sharp_flat_inverse_on_random_classes():
    rng = random.Random(7)
    fix = projective_plane()
    names = sorted(fix.basis.classes)
    for _ in range(30):
        a = fix.cls(rng.choice(names), (rng.randint(-2, 2),)).scale(
            F(rng.randint(1, 5), rng.randint(1, 3))
        )
        assert nv.sharp(nv.flat(a)) == a


def test_unit_pairs_with_fundamental_class():
    fix = sphere()
    assert nv.pairing(fix.cls("one"), nv.flat(fix.cls("one"))) == 1


def test_pairing_nondegenerate_on_span():
    # a basis checks its pairing on construction, so building one passes
    for fix in (sphere(), projective_plane(), torus()):
        names = sorted(fix.basis.classes)
        table = {(a, b): nv.pairing(fix.cls(a), nv.flat(fix.cls(b)))
                 for a in names for b in names}
        classes = [(a, fix.basis.degree(a)) for a in names]
        nv.ClassBasis(fix.basis.half_dim, classes, table)
    # explicit zero entries are no entries: a column's top row is its first nonzero
    antidiagonal = {("u", "u"): 0, ("u", "v"): 1, ("v", "u"): 1, ("v", "v"): 0}
    nv.ClassBasis(1, [("u", 0), ("v", 2)], antidiagonal)
    # a column of explicit zeros is empty, and heads no row
    ones = {(a, b): 1 for a in "uv" for b in "uv"}
    zero_v = {("u", "u"): 1, ("u", "v"): 0, ("v", "u"): 1, ("v", "v"): 0}
    for table in (ones, zero_v):
        with pytest.raises(FixtureError, match="degenerate"):
            nv.ClassBasis(1, [("u", 0), ("v", 2)], table)


def test_flat_is_degree_complementary():
    fix = projective_plane()
    dim = 2 * fix.basis.half_dim
    for name in fix.basis.classes:
        a = fix.cls(name, (1,))
        assert nv.flat(a).degree == dim - a.degree


def test_leading_data_of_unit():
    fix = sphere()
    ld = nv.leading_data(fix.cls("one"))
    assert ld.valuation == 0
    assert ld.gap == POS_INF
    assert not ld.readings_disagree


def test_leading_data_two_term_enumeration():
    fix = calibration()
    a = fix.shipped_classes[0]  # one + one.q^{-D}, omega(D) = 1
    ld = nv.leading_data(a)
    assert ld.valuation == 0  # levels {0, -1}, decreasing enumeration starts at 0
    assert ld.gap == 1
    assert ld.readings_disagree
    assert ld.valuation_min == -1
    assert valuation_min(a) == -1


def test_leading_term_unique_or_error():
    fix = calibration()
    g = fix.gamma
    with pytest.raises(StructuralError):
        # inhomogeneous: degree 0 vs 2
        QuantumClass(fix.basis, g, COHOMOLOGY, [(1, "one", (0,)), (1, "pt", (0,))])
    with pytest.raises(DomainError):
        nv.leading_data(QuantumClass(fix.basis, g, COHOMOLOGY, []))
    # a homogeneous class over a rank-two group can tie at the top level
    from novispec import ClassBasis, GammaGroup

    g2 = GammaGroup((F(1), F(3, 2)), (0, 1))
    basis = ClassBasis(2, [("u", 0), ("w", 4)])
    tied = QuantumClass(
        basis, g2, COHOMOLOGY, [(1, "u", (3, 0)), (1, "w", (6, -2))]
    )
    assert tied.degree == 0
    with pytest.raises(DomainError):
        nv.leading_data(tied)


def test_min_valuation_union_bound():
    rng = random.Random(8)
    fix = calibration()
    names = sorted(fix.basis.classes)
    for _ in range(50):
        name = rng.choice(names)
        a = fix.cls(name, (rng.randint(-2, 2),))
        b = fix.cls(name, (rng.randint(-2, 2),)).scale(rng.choice([1, -1, 2]))
        s = a + b
        if s.is_zero():
            continue
        assert valuation_min(s) >= min(valuation_min(a), valuation_min(b))


def test_homogeneity_enforced():
    fix = sphere()
    with pytest.raises(StructuralError):
        QuantumClass(
            fix.basis, fix.gamma, COHOMOLOGY, [(1, "one", (0,)), (1, "one", (1,))]
        )


def test_homogeneity_checked_after_summing():
    # the pt terms cancel, so the class is homogeneous: it is the class of one
    fix = sphere()
    a = QuantumClass(
        fix.basis, fix.gamma, COHOMOLOGY,
        [(1, "one", (0,)), (1, "pt", (0,)), (-1, "pt", (0,))],
    )
    assert a == fix.cls("one")
    assert a.degree == fix.cls("one").degree


def test_flat_realization_lands_in_complementary_degree():
    # a class of total degree d realizes as a chain of degree half_dim - d
    from novispec.fixtures import load_builtin

    for name in ("s2", "cp2", "torus", "tilted", "czero"):
        fix = load_builtin(name)
        C = fix.build(F(1, 16))
        n = fix.morse.dim // 2
        for a in fix.shipped_classes:
            rep = nv.realize_flat(nv.flat(a), C, fix.pd_chains)
            assert rep.degree == n - a.degree


def test_fixture_products_validate():
    for fix in (sphere(), projective_plane(), torus()):
        fix.product.validate()


def test_product_validate_rejects_a_broken_table():
    fix = projective_plane()
    P = fix.product
    with pytest.raises(FixtureError, match="unknown basis class 'nope'"):
        nv.ProductFixture(P.basis, P.gamma, "nope", P.table).validate()
    # hh*hh = 2 h q^L breaks associativity on (h, hh, hh) and its mirrors
    table = dict(P.table)
    table["hh", "hh"] = QuantumClass(P.basis, P.gamma, COHOMOLOGY, [(2, "h", (1,))])
    with pytest.raises(FixtureError, match=r"associativity fails on \(h, hh, hh\)"):
        nv.ProductFixture(P.basis, P.gamma, "one", table).validate()
