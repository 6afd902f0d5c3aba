import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import (
    DOWN,
    NEG_INF,
    DomainError,
    GammaGroup,
    IndeterminateError,
    UP,
    NovikovScalar,
    StructuralError,
)
from novispec.fixtures import random_chain, random_instance, sphere

G1 = GammaGroup((F(1),), (2,))


def mono(c, l=(0,), g=G1):
    return NovikovScalar.monomial(g, DOWN, c, l)


def two_generator_complex():
    return nv.FilteredComplex(G1, [("hi", F(1), 0), ("lo", F(0), 0)], {})


def test_generator_cap_shifts_action_and_degree():
    C = two_generator_complex()
    g = C.generator("hi", (2,))
    assert g.action == F(1) - 2  # omega((2,)) = 2
    assert g.degree == 0 - 2 * 4  # c1((2,)) = 4, shift -2*c1


def test_generator_hash_agrees_with_equality():
    C = two_generator_complex()
    g = C.generator("hi", (2,))
    same = nv.Generator("hi", (2,), F(-1), -8)
    assert g == same and hash(g) == hash(same) == hash(("hi", (2,)))
    assert {g: 1}[same] == 1 and len({g, same}) == 1
    # equality still reads every field; the hash reads (orbit, cap) only
    for other in [nv.Generator("hi", (2,), F(0), -8), nv.Generator("hi", (2,), F(-1), 0),
                  C.generator("hi", (1,)), C.generator("lo", (2,))]:
        assert other != g
        assert len({g, other}) == 2
    gens = [C.generator(o, (k,)) for o in C.orbits for k in range(-3, 4)]
    assert len(set(gens)) == len(gens)


def test_chain_sums_terms_before_degree_check_and_floor():
    C = two_generator_complex()
    hi, lo, far = C.generator("hi"), C.generator("lo"), C.generator("lo", (1,))
    assert far.degree != hi.degree
    # a cancelled term carries no degree, as pairs or as a dict
    pairs = C.chain([(far, 1), (hi, 2), (far, -1), (hi, 1), (lo, 1)], None)
    assert pairs == C.chain({far: 0, hi: 3, lo: 1}, None)
    assert pairs.terms == {hi: 3, lo: 1} and pairs.degree == hi.degree
    # a surviving term is checked before the floor drops it
    with pytest.raises(StructuralError, match="mixed degrees"):
        C.chain([(hi, 1), (far, 1)], F(0))
    assert C.chain([(hi, 1), (lo, 1), (lo, 1)], F(0)).terms == {hi: 1}


def test_level_and_peak_zero_chain():
    C = two_generator_complex()
    assert nv.level_and_peak(C.chain({}, None)) == (NEG_INF, None)


def test_level_and_peak_max():
    C = two_generator_complex()
    a = C.chain({C.generator("hi"): 2, C.generator("lo"): 3}, None)
    lam, peak = nv.level_and_peak(a)
    assert lam == 1 and peak.orbit == "hi"


def test_peak_tie_is_reported():
    C = nv.FilteredComplex(G1, [("a", F(1), 0), ("b", F(1), 0)], {})
    a = C.chain({C.generator("a"): 1, C.generator("b"): 1}, None)
    with pytest.raises(DomainError):
        nv.level_and_peak(a)


def test_level_below_floor_indeterminate():
    C = two_generator_complex()
    a = nv.NovikovChain(C, {C.generator("hi"): 1}, floor=F(2))
    with pytest.raises(IndeterminateError):
        nv.level_and_peak(a)


def test_gamma_shift_identity_and_drop():
    C = two_generator_complex()
    a = C.chain({C.generator("hi"): 1, C.generator("lo"): -2}, None)
    assert a.shift((0,)) == a
    b = a.shift((2,))
    assert b.level() == a.level() - 2
    assert b.degree == a.degree - 2 * G1.c1((2,))


def test_shift_level_rule_on_random_chains():
    rng = random.Random(3)
    for seed in range(20):
        inst = random_instance(seed)
        C = inst.complex
        rep = inst.representative
        if rep.is_zero() or C.gamma.rank == 0:
            continue
        cap = tuple(rng.randint(-2, 2) for _ in range(C.gamma.rank))
        assert rep.shift(cap).level() == rep.level() - C.gamma.omega(cap)


def test_boundary_of_zero():
    C = two_generator_complex()
    assert C.boundary(C.chain({}, None)).is_zero()


def test_single_entry_boundary_level():
    C = nv.FilteredComplex(
        G1,
        [("x", F(2), 1), ("y", F(0), 4)],
        {"x": {"y": mono(3, (-1,))}},
    )
    # entry label (-1,): target degree 4 - 2*c1(-1) = 8? must be deg x - 1 = 0
    report = C.validate()
    assert not report.ok  # wrong degrees on purpose
    C2 = nv.FilteredComplex(
        G1,
        [("x", F(2), 1), ("y", F(1), 4)],
        {"x": {"y": mono(3, (1,))}},
    )
    assert C2.validate().ok
    out = C2.boundary(C2.chain({C2.generator("x"): 1}, None))
    assert out.level() == F(1) - 1  # action(y) - omega(label)


def test_boundary_squares_to_zero_and_commutes_with_shift():
    rng = random.Random(4)
    for seed in range(25):
        inst = random_instance(seed)
        C = inst.complex
        rep = inst.representative
        assert C.validate().ok
        assert C.boundary(C.boundary(rep)).is_zero()
        if C.gamma.rank:
            cap = tuple(rng.randint(-1, 2) for _ in range(C.gamma.rank))
            assert C.boundary(rep.shift(cap)) == C.boundary(rep).shift(cap)


def test_validate_catches_level_increase():
    C = nv.FilteredComplex(
        G1,
        [("x", F(0), 1), ("y", F(1), 0)],
        {"x": {"y": mono(1)}},
    )
    report = C.validate()
    assert "level-increase" in report.codes()
    assert report.violations[0].witness == ("x", "y", (0,))


def test_validate_catches_square_residual():
    C = nv.FilteredComplex(
        G1,
        [("x", F(2), 2), ("y", F(1), 1), ("z", F(0), 0)],
        {"x": {"y": mono(1)}, "y": {"z": mono(1)}},
    )
    report = C.validate()
    assert "square" in report.codes()


def test_validate_catches_degree_drift():
    C = nv.FilteredComplex(
        G1,
        [("x", F(1), 1), ("y", F(0), 1)],
        {"x": {"y": mono(1)}},
    )
    assert "degree" in C.validate().codes()


def test_validate_catches_equivariance_break():
    C = two_generator_complex()
    # cap (1,): action 1 - omega = 0, degree 0 - 2*c1 = -4
    report = C.validate(explicit_generators=[("hi", (1,), F(0), -4)])
    assert report.ok
    report = C.validate(explicit_generators=[("hi", (1,), F(0), 0)])
    assert "equivariance" in report.codes()


def test_validate_catches_tie_peak_representative():
    C = nv.FilteredComplex(G1, [("a", F(1), 0), ("b", F(1), 0)], {})
    rep = C.chain({C.generator("a"): 1, C.generator("b"): 1}, None)
    report = C.validate(representatives={"r": rep})
    assert "tie-peak" in report.codes()


def test_strict_mode_flags_zero_drop():
    C = nv.FilteredComplex(
        G1,
        [("x", F(1), 1), ("y", F(1), 0)],
        {"x": {"y": mono(1)}},
    )
    assert C.validate().ok
    assert "level-increase" in C.validate(strict_level=True).codes()


ORBITS = [("a", F(1), 1), ("b", F(0), 0)]

# the two owners of an orbit-pair matrix, each returning its validated copy
MATRIX_OWNERS = {
    "complex": lambda m: nv.FilteredComplex(G1, ORBITS, m).boundary_entries,
    "chain-map": lambda m: nv.ChainMap(
        nv.FilteredComplex(G1, ORBITS, {}), nv.FilteredComplex(G1, ORBITS, {}), m, 0
    ).matrix,
}


@pytest.mark.parametrize("owner", sorted(MATRIX_OWNERS))
@pytest.mark.parametrize("matrix", [
    {"x": {"b": mono(1)}},
    {"a": {"x": mono(1)}},
    {"a": {"b": NovikovScalar.monomial(G1, UP, 1, (0,))}},
    {"a": {"b": mono(1, g=GammaGroup((F(2),), (2,)))}},
], ids=["unknown-source", "unknown-target", "upward", "other-group"])
def test_orbit_matrix_rejects_bad_entries(owner, matrix):
    with pytest.raises(StructuralError):
        MATRIX_OWNERS[owner](matrix)


@pytest.mark.parametrize("owner", sorted(MATRIX_OWNERS))
def test_orbit_matrix_drops_zero_entries(owner):
    zero = NovikovScalar.zero(G1, DOWN)
    matrix = {"a": {"a": zero, "b": mono(2)}, "b": {"b": zero}}
    assert MATRIX_OWNERS[owner](matrix) == {"a": {"b": mono(2)}}


def test_relabeling_preserves_structure():
    fix = sphere()
    C = fix.build(F(1, 8))
    D = C.relabeled({"top": "T", "bot": "B"})
    assert D.validate().ok
    assert D.base_action("T") == C.base_action("top")
    rep = C.chain({C.generator("bot"): 1}, None)
    moved = C.transport(D, rep, {"top": "T", "bot": "B"})
    assert nv.level_and_peak(moved)[0] == nv.level_and_peak(rep)[0]


def test_boundary_never_raises_level_on_valid_complexes():
    rng = random.Random(10)
    from novispec.fixtures import random_chain

    for seed in range(15):
        inst = random_instance(seed)
        C = inst.complex
        for _ in range(5):
            deg = rng.randint(-2, 3)
            chain = random_chain(rng, C, deg)
            out = C.boundary(chain)
            if not chain.is_zero() and not out.is_zero():
                assert out.level() <= chain.level()


def test_ultrametric_level_of_sum():
    rng = random.Random(11)
    for seed in range(10):
        inst = random_instance(seed)
        C = inst.complex
        a = inst.representative
        if a.is_zero():
            continue
        b = a.shift(C.gamma.zero).scale(F(-3, 2))
        assert (a + b).level() <= max(a.level(), b.level())


def _assert_ordered(chain):
    """Terms in (-action, orbit, cap) order; level() is the top action."""
    keys = [(-g.action, g.orbit, g.cap) for g in chain.terms]
    assert keys == sorted(keys)
    assert chain.level() == max((g.action for g in chain.terms), default=NEG_INF)


def _random_chain_pairs():
    """(complex, a, b): two seeded random chains of one degree per degree."""
    rng = random.Random(17)
    for seed in range(12):
        C = random_instance(seed).complex
        for degree in sorted({d for _, d in C.orbits.values()}):
            yield C, random_chain(rng, C, degree), random_chain(rng, C, degree)


def test_terms_stay_in_level_order():
    # tied actions are ordered by orbit, then cap, whatever the input order
    C = nv.FilteredComplex(GammaGroup((F(1), F(3, 2)), (0, 1)),
                           [("b", F(0), 0), ("a", F(0), 0), ("c", F(-1), 0)], {})
    tied = [C.generator("c", (-1, 0)), C.generator("b"), C.generator("a", (3, 0)),
            C.generator("a"), C.generator("c", (2, 0))]
    chain = C.chain([(g, 1) for g in tied])
    assert [(g.orbit, g.cap) for g in chain.terms] == [
        ("a", (0, 0)), ("b", (0, 0)), ("c", (-1, 0)), ("a", (3, 0)), ("c", (2, 0))]
    _assert_ordered(chain)

    checked = 0
    for C, a, b in _random_chain_pairs():
        cap = tuple(range(1, C.gamma.rank + 1))
        floored = C.chain(a.terms, a.level() - 2 if not a.is_zero() else F(0))
        for chain in [a, b, a + b, a - b, -a, a.scale(F(-3, 2)), a.scale(0),
                      a.shift(cap), floored, floored + b, b - floored]:
            _assert_ordered(chain)
        assert a.scale(0).level() == NEG_INF
        checked += not a.is_zero()
    assert checked >= 20


def test_subtraction_is_addition_of_the_negative():
    checked = 0
    for C, a, b in _random_chain_pairs():
        if a.is_zero():
            continue
        for x, y in [(a, b), (b, a), (a, a), (C.chain(a.terms, a.level() - 1), b),
                     (a, C.chain(b.terms, F(-3)))]:
            diff = x - y
            assert diff == x + (-y)
            assert diff.floor == (x + (-y)).floor and diff.degree == (x + (-y)).degree
        assert (a - a).is_zero() and (a - a).degree is None
        checked += 1
    assert checked >= 20

    C = two_generator_complex()
    x = C.chain({C.generator("hi"): 1})
    y = C.chain({C.generator("lo", (1,)): 1})
    with pytest.raises(StructuralError, match="mixed degrees"):
        x - y
    other = two_generator_complex()
    with pytest.raises(StructuralError, match="different complexes"):
        x - other.chain({other.generator("hi"): 1})
