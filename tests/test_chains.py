import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

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
from novispec.chains import ValidationReport, equivariant_image, merge_floor
from novispec.fixtures import calibration, random_chain, random_instance, sphere

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
    # (-action key, orbit, cap, degree, denom): omega key 2 minus base key 1
    same = nv.Generator(1, "hi", (2,), -8, 1)
    assert g == same and hash(g) == hash(same) and g.action == same.action == F(-1)
    assert {g: 1}[same] == 1 and len({g, same}) == 1
    # equality and the hash read every field
    changed = {"neg_key": 0, "orbit": "lo", "cap": (1,), "degree": 0, "denom": 2}
    for other in [g._replace(**{field: value}) for field, value in changed.items()] + [
            nv.Generator(2, "hi", (2,), -8, 2),  # the same action over another denom
            C.generator("hi", (1,)), C.generator("lo", (2,))]:
        assert other != g
        assert len({g, other}) == 2
    gens = [C.generator(o, (k,)) for o in C.orbits for k in range(-3, 4)]
    assert len(set(gens)) == len(gens)


def test_generator_pickled_in_another_process_hashes_afresh():
    # str hashes differ between processes, so a generator unpickled from
    # a process with another hash seed must hash as one built here
    code = ("import pickle, sys; import novispec as nv; "
            "sys.stdout.buffer.write(pickle.dumps(nv.Generator(1, 'hi', (2,), -8, 1)))")
    env = dict(os.environ, PYTHONHASHSEED="27",
               PYTHONPATH=str(Path(nv.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True).stdout
    loaded = pickle.loads(out)
    fresh = two_generator_complex().generator("hi", (2,))
    assert type(loaded) is nv.Generator and loaded.action == F(-1)
    assert loaded == fresh and hash(loaded) == hash(fresh)
    assert {fresh: 1}[loaded] == 1 and len({fresh, loaded}) == 1


def test_chain_rejects_a_generator_of_another_denominator():
    # keys over two denominators do not sort by action
    C = two_generator_complex()
    D = nv.FilteredComplex(G1, [("hi", F(1, 2), 0), ("lo", F(0), 0)], {})
    assert (C.action_keys.denom, D.action_keys.denom) == (1, 2)
    foreign = D.generator("lo")
    assert foreign.action == C.generator("lo").action
    for terms in ({foreign: 1}, [(C.generator("hi"), 1), (foreign, 2)]):
        with pytest.raises(StructuralError, match="action denominator 2, not its complex's 1"):
            C.chain(terms)
    assert D.chain({foreign: 1}).level() == 0


def test_integer_floor_test_agrees_with_the_action():
    # floors on the 1/denom grid (each term's action, one step either side)
    # and off it; the constructor, sums and the boundary floor alike
    rng = random.Random(43)
    checked = 0
    for seed in range(40):
        C = random_instance(seed).complex
        denom = C.action_keys.denom
        for degree in sorted({d for _, d in C.orbits.values()}):
            a = random_chain(rng, C, degree)
            b = random_chain(rng, C, degree - 1)
            for floor in {g.action + s for g in [*a.terms, *b.terms]
                          for s in (0, F(1, denom), F(-1, denom), F(1, 3 * denom),
                                    F(-2, 7 * denom))}:
                assert list(C.chain(a.terms, floor).terms) == [
                    g for g in a.terms if g.action > floor]
                assert list((b + C.chain({}, floor)).terms) == [
                    g for g in b.terms if g.action > floor]
                assert list(C.boundary(C.chain(a.terms, floor)).terms) == [
                    g for g in C.boundary(C.chain(a.terms)).terms if g.action > floor]
                checked += 1
    assert checked > 500, checked


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
    # a term that keeps the action is no increase
    flat = nv.FilteredComplex(G1, [("x", F(1), 1), ("y", F(1), 0)], {"x": {"y": mono(1)}})
    assert flat.validate().ok


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


def test_invalid_report_repr_and_boundary():
    # dx = y + w with deg w = 2 misses the degree, and d(d(x)) = z: the
    # report names both codes, and the boundary, which trusts the degrees
    # of a valid complex only, refuses the image of x as two degrees
    C = nv.FilteredComplex(
        G1,
        [("x", F(2), 2), ("y", F(1), 1), ("w", F(1), 2), ("z", F(0), 0)],
        {"x": {"y": mono(1), "w": mono(1)}, "y": {"z": mono(1)}},
    )
    assert repr(C.validate()) == "<invalid: degree, square>"
    assert repr(ValidationReport()) == "<valid>"
    with pytest.raises(StructuralError, match="mixed degrees"):
        C.boundary(C.chain({C.generator("x"): 1}))
    dy = C.boundary(C.chain({C.generator("y"): 2}, F(-1)))
    assert dy == C.chain({C.generator("z"): 2}, F(-1)) and dy.degree == 0


def test_validate_catches_equivariance_break():
    C = two_generator_complex()
    # cap (1,): action 1 - omega = 0, degree 0 - 2*c1 = -4
    report = C.validate(explicit_generators=[("hi", (1,), F(0), -4)])
    assert report.ok
    report = C.validate(explicit_generators=[("hi", (1,), F(0), 0)])
    assert "equivariance" in report.codes()
    # a listed degree is compared, not truncated: -4.5 is not -4
    report = C.validate(explicit_generators=[("hi", (1,), F(0), -4.5)])
    assert "equivariance" in report.codes()


def test_validate_catches_tie_peak_representative():
    C = nv.FilteredComplex(G1, [("a", F(1), 0), ("b", F(1), 0)], {})
    rep = C.chain({C.generator("a"): 1, C.generator("b"): 1}, None)
    report = C.validate(representatives={"r": rep})
    assert "tie-peak" in report.codes()


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
    """Terms in generator order, which is the (-action, orbit, cap) order;
    level() is the top action."""
    assert list(chain.terms) == sorted(chain.terms)
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


@pytest.mark.parametrize("max_orbits", [6, 12])
def test_seeded_chains_are_in_generator_order(max_orbits):
    # tuple order of the generators is the Fraction reference order
    rng = random.Random(max_orbits)
    for seed in range(100):
        inst = random_instance(seed, max_orbits=max_orbits)
        C = inst.complex
        _assert_ordered(inst.representative)
        for degree in sorted({d for _, d in C.orbits.values()}):
            _assert_ordered(random_chain(rng, C, degree))


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


def _same_chain(got, ref):
    """Terms in order (dict equality ignores it), floor and degree."""
    assert list(got.terms.items()) == list(ref.terms.items())
    assert got.floor == ref.floor and got.degree == ref.degree
    assert got.complex is ref.complex


def test_chain_operations_equal_the_public_constructor():
    # +, -, negation, scaling, shifting and the boundary build their results
    # without the public constructor's checks; each must be the chain that
    # the public constructor gives on the same terms and floor
    rng = random.Random(26)
    complexes = [calibration().build(F(1, 8))]
    complexes += [random_instance(seed).complex for seed in range(20)]
    seen = Counter()
    for C in complexes:
        caps = [C.gamma.zero, tuple(range(1, C.gamma.rank + 1)),
                tuple(-x for x in range(1, C.gamma.rank + 1))]
        degrees = sorted({d for _, d in C.orbits.values()})
        for degree in degrees:
            for _ in range(4):
                a = random_chain(rng, C, degree)
                b = random_chain(rng, C, rng.choice(degrees))
                for floor in [None] + [g.action + s for g in list(a.terms)[:2]
                                       for s in (F(1, 97), F(-1, 97))]:
                    a_f = nv.NovikovChain(C, list(a.terms.items()), floor)
                    b_f = nv.NovikovChain(C, list(b.terms.items()), rng.choice([None, floor]))
                    floor_ab = merge_floor(a_f.floor, b_f.floor)
                    cases = [
                        (lambda: a_f + b_f, [*a_f.terms.items(), *b_f.terms.items()], floor_ab),
                        (lambda: a_f - b_f,
                         [*a_f.terms.items(), *((g, -c) for g, c in b_f.terms.items())], floor_ab),
                        (lambda: -a_f, [(g, -c) for g, c in a_f.terms.items()], a_f.floor),
                        (lambda: C.boundary(a_f),
                         list(equivariant_image(C.boundary_entries, a_f.terms, C).items()),
                         a_f.floor),
                    ]
                    for r in (F(0), F(-1), F(3, 7)):
                        cases.append((lambda r=r: a_f.scale(r),
                                      [(g, r * c) for g, c in a_f.terms.items()], a_f.floor))
                    for cap in caps:
                        moved = None if a_f.floor is None else a_f.floor - C.gamma.omega(cap)
                        cases.append((lambda cap=cap: a_f.shift(cap),
                                      [(C.generator(g.orbit, tuple(x + y for x, y in zip(g.cap, cap))), c)
                                       for g, c in a_f.terms.items()], moved))
                    for build, pairs, ref_floor in cases:
                        try:
                            ref = nv.NovikovChain(C, pairs, ref_floor)
                        except StructuralError as exc:
                            # only a sum of two degrees fails, with the same message
                            with pytest.raises(StructuralError) as got:
                                build()
                            assert str(got.value) == str(exc)
                            seen["mixed"] += 1
                            continue
                        _same_chain(build(), ref)
                        seen["floored" if ref_floor is not None else "exact"] += 1
                        seen["nonzero"] += not ref.is_zero()
                    # floors that drop a term of `a`
                    seen["cut"] += floor is not None and len(a_f.terms) < len(a.terms)
    assert seen["mixed"] >= 200 and seen["cut"] >= 200
    assert min(seen["floored"], seen["exact"], seen["nonzero"]) >= 1000
