import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import GammaGroup, MorseData, StructuralError
from novispec.fixtures import projective_plane, sphere, tilted_sphere


def test_sphere_height_example():
    fix = sphere()
    C = fix.build(F(1, 10))
    assert sorted(C.orbits) == ["bot", "top"]
    assert C.base_action("top") == F(-1, 10)
    assert C.base_action("bot") == 0
    assert not C.boundary_entries
    assert C.validate().ok


def test_eps_scaling_is_linear():
    fix = projective_plane()
    C1 = fix.build(F(1, 8))
    C2 = fix.build(F(1, 4))
    for orbit in C1.orbits:
        assert C2.base_action(orbit) == 2 * C1.base_action(orbit)
        assert C2.base_degree(orbit) == C1.base_degree(orbit)


def test_square_zero_transports():
    fix = tilted_sphere()
    C = fix.build(F(1, 5))
    assert C.validate().ok
    for orbit in C.orbits:
        chain = C.chain({C.generator(orbit): 1}, None)
        assert C.boundary(C.boundary(chain)).is_zero()


def test_invalid_morse_data_rejected():
    with pytest.raises(StructuralError):
        MorseData(dim=3, points=[("p", 0, 0)])
    with pytest.raises(StructuralError):
        MorseData(dim=2, points=[("p", 0, 5)])
    with pytest.raises(StructuralError):
        MorseData(
            dim=2,
            points=[("a", 0, 2), ("b", 0, 1), ("c", 0, 0)],
            boundary={"a": {"b": 1}, "b": {"c": 1}},
        )
    with pytest.raises(StructuralError):
        MorseData(dim=2, points=[("a", 0, 0)], betti=[1, 0, 1])


def test_nonpositive_eps_rejected():
    fix = sphere()
    with pytest.raises(StructuralError):
        nv.build_small_complex(fix.morse, 0, fix.gamma)


def test_grading_convention():
    # degree of a base generator is n - morse_index(f)
    fix = projective_plane()
    C = fix.build(F(1, 8))
    n = fix.morse.dim // 2
    for pid, _, index in fix.morse.points:
        assert C.base_degree(pid) == n - index
        assert nv.morse_index_of(C, pid) == index


def test_index_of_matches_stored_degree():
    fix = sphere()
    C = fix.build(F(1, 7))
    for orbit in C.orbits:
        for m in range(-2, 3):
            cap = (m,)
            g = C.generator(orbit, cap)
            assert g.degree == C.base_degree(orbit) - 2 * C.gamma.c1(cap)


def test_index_shift_under_cap():
    # chern value 1 on the cap moves the degree by -2
    G = GammaGroup((F(1), F(3, 2)), (0, 1))
    m = MorseData(dim=2, points=[("p", 0, 0)])
    C = nv.build_small_complex(m, F(1, 3), G)
    base = C.generator("p")
    capped = C.generator("p", (0, 1))
    assert G.c1((0, 1)) == 1
    assert capped.degree == base.degree - 2


def test_boundary_transpose_orientation():
    fix = tilted_sphere()
    C = fix.build(F(1, 4))
    # f-boundary sends the saddle to m1 - m2, so in the built complex the
    # bottoms hit the saddle and the saddle is closed
    s_chain = C.chain({C.generator("s"): 1}, None)
    assert C.boundary(s_chain).is_zero()
    d_m1 = C.boundary(C.chain({C.generator("m1"): 1}, None))
    assert [g.orbit for g in d_m1.terms] == ["s"]


def test_cochain_differential_squares_to_zero():
    fix = tilted_sphere()
    rng = random.Random(2)
    pts = [p for p, _, _ in fix.morse.points]
    for _ in range(20):
        terms = [
            (F(rng.randint(-3, 3)), rng.choice(pts), (rng.randint(-1, 1),))
            for _ in range(3)
        ]
        once = nv.cochain_differential(fix.morse, terms)
        twice = nv.cochain_differential(fix.morse, once)
        assert twice == []
