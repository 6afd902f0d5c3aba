import itertools
import math
import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import FilteredComplex, GammaGroup, StructuralError
from novispec.gamma import fraction_gcd, vec_add, vec_neg


def test_identity_evaluates_to_zero():
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    assert g.evaluate((0, 0)) == (0, 0)


def test_linear_extension_example():
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    assert g.evaluate((2, -1)) == (F(1, 2), -1)


def test_degenerate_generator_rejected():
    with pytest.raises(StructuralError):
        GammaGroup((F(0),), (0,))


def test_proportional_rows_rejected():
    # omega and c1 proportional on rank two leaves a joint kernel vector
    with pytest.raises(StructuralError):
        GammaGroup((F(1), F(2)), (2, 4))


def test_rank_three_rational_always_rejected():
    with pytest.raises(StructuralError):
        GammaGroup((F(1), F(2), F(3)), (1, 0, 0))


def test_homomorphism_on_random_triples():
    rng = random.Random(0)
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    for _ in range(50):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        wa, ca = g.evaluate(a)
        wb, cb = g.evaluate(b)
        assert g.evaluate(vec_add(a, b)) == (wa + wb, ca + cb)
        assert g.evaluate(vec_neg(a)) == (-wa, -ca)


def test_dimension_mismatch():
    g = GammaGroup((F(1),), (2,))
    with pytest.raises(StructuralError):
        g.omega((1, 2))


@pytest.mark.parametrize("build", [
    lambda g: g.check_element((1.5,)),
    lambda g: g.check_element((F(3, 2),)),
    lambda g: g.omega((F(1, 2),)),
    lambda g: GammaGroup((F(1),), (2.7,)),
    lambda g: FilteredComplex(g, [("x", 0, 1.5)]),
], ids=["float-cap", "fraction-cap", "fraction-omega", "float-c1", "float-degree"])
def test_non_integers_rejected_not_truncated(build):
    with pytest.raises(StructuralError):
        build(GammaGroup((F(1),), (2,)))


@pytest.mark.parametrize("omega, c1", [
    ((), ()),
    ((F(5, 3),), (1,)),
    ((F(1), F(3, 2)), (0, 1)),
    ((F(2, 3), F(-5, 7)), (1, 1)),
])
def test_omega_in_integer_units_is_exact(omega, c1):
    g = GammaGroup(omega, c1)
    rng = random.Random(len(omega))
    caps = [g.zero] + [tuple(rng.randint(-10**6, 10**6) for _ in omega) for _ in range(200)]
    for a in caps:
        w = g.omega(a)
        assert type(w) is F
        assert w == sum((v * x for v, x in zip(g.omega_values, a)), F(0))
    # check_element still runs: a cap of the wrong length raises
    for bad in [(1,) * (len(omega) + 1), (1,) * (len(omega) - 1) if omega else (1, 2)]:
        with pytest.raises(StructuralError, match="coordinates"):
            g.omega(bad)


def test_period_generator():
    assert GammaGroup((F(1), F(3, 2)), (0, 1)).period_generator() == F(1, 2)
    assert GammaGroup((), ()).period_generator() == 0
    assert fraction_gcd([F(2, 3), F(1, 2)]) == F(1, 6)
    # the stored generator stays out of equality, hashing and repr
    g, h = GammaGroup((F(1), F(3, 2)), (0, 1)), GammaGroup((1, F(3, 2)), (0, 1))
    assert g == h and hash(g) == hash(h)
    assert repr(g) == "GammaGroup(omega_values=(Fraction(1, 1), Fraction(3, 2)), c1_values=(0, 1))"


def test_in_period_group():
    # the period group is the spectrum of one orbit at action 0
    def in_period_group(g, value):
        return nv.spectrality_check(value, FilteredComplex(g, [("o", 0, 0)]))

    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    assert in_period_group(g, F(5, 2))
    assert not in_period_group(g, F(1, 3))
    trivial = GammaGroup((), ())
    assert in_period_group(trivial, 0)
    assert not in_period_group(trivial, 1)


def _caps(g, c1, lo, hi):
    """The caps A with c1(A) = c1 and lo <= omega(A) < hi, omega ascending:
    the `ActionKeys.cap_run` in degree -2 c1 of a one-orbit complex at
    action 0 and degree 0, decoded by `run_keys`, after checking its count,
    its ids (with one orbit, the -action keys) and the -action key (there
    omega's key) of each cap."""
    keys = FilteredComplex(g, [("o", 0, 0)]).action_keys
    d, degree = keys.denom, -2 * c1
    # an integer omega key w has lo <= w / d < hi iff ceil(lo d) <= w < ceil(hi d)
    ids = keys.cap_run(0, degree, -math.ceil(hi * d), -math.ceil(lo * d))
    found = keys.run_keys([ids] if ids else [], degree)
    assert len(ids) == len(found) and all(o == "o" and k == degree for _, o, _, k in found)
    assert list(ids) == [k for k, _, _, _ in found]
    assert all(F(k, d) == g.omega(a) for k, _, a, _ in found)
    return [a for _, _, a, _ in found]


def _at(g, omega, c1):
    """The caps of exactly one (omega, c1): a window narrower than any period."""
    return _caps(g, c1, omega, omega + F(1, 10**6))


def test_caps_unique_element():
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    for target in [(F(1, 2), -1), (F(0), 0), (F(5), 2)]:
        found = _at(g, *target)
        assert len(found) == 1 and g.evaluate(found[0]) == target
    assert _at(g, F(1, 2), -1) == [(2, -1)]
    assert _at(g, F(1, 3), 0) == []  # off the period lattice

    r1 = GammaGroup((F(1),), (2,))
    assert _at(r1, F(3), 6) == [(3,)]
    assert _at(r1, F(3), 5) == []

    # rank 1 with omega = 0: c1 pins the cap, every other area misses
    z = GammaGroup((F(0),), (1,))
    assert _at(z, F(0), 4) == [(4,)]
    assert _at(z, F(1), 4) == []
    assert _caps(z, 4, -10, 10) == [(4,)]

    # rank 1 with c1 = 0: the caps of c1 = 0 are the whole line
    flat_c1 = GammaGroup((F(-3, 2),), (0,))
    assert _at(flat_c1, F(3), 0) == [(-2,)]
    assert _caps(flat_c1, 0, -3, 3) == [(2,), (1,), (0,), (-1,)]
    assert _caps(flat_c1, 1, -100, 100) == []


CAP_GROUPS = [
    ((), ()),
    ((1,), (2,)),
    ((F(-3, 2),), (0,)),
    ((0,), (3,)),
    ((1, F(3, 2)), (0, 1)),
    ((1, F(3, 2)), (2, -3)),
    ((F(-1, 2), F(1, 3)), (4, 6)),  # gcd 2: no cap has odd c1
]
CAP_WINDOWS = [(F(-5), F(5)), (F(-37, 3), F(11, 2)), (F(-1, 7), F(40, 3)), (F(2), F(2))]


@pytest.mark.parametrize("omega, c1", CAP_GROUPS)
def test_caps_match_brute_force(omega, c1):
    g = GammaGroup(omega, c1)
    box = list(itertools.product(range(-40, 41), repeat=g.rank))
    values = [(a, *g.evaluate(a)) for a in box]
    total = 0
    for c in range(-7, 8):
        for lo, hi in CAP_WINDOWS:
            found = _caps(g, c, lo, hi)
            total += len(found)
            expected = {a for a, w, k in values if k == c and lo <= w < hi}
            assert set(found) == expected and len(found) == len(expected), (c, lo, hi)
            # the box holds every cap of the window with room to spare
            assert all(max(map(abs, a), default=0) < 40 for a in found)
            areas = [g.omega(a) for a in found]
            assert areas == sorted(areas) and len(set(areas)) == len(areas)
    assert total > 0


def test_cap_run_counts_before_it_enumerates():
    # a run of 10**12 caps is counted as a range of ids, and a slice of it
    # decodes to its keys and caps alone
    keys = FilteredComplex(GammaGroup((F(1, 2),), (0,)), [("o", 0, 0)]).action_keys
    ids = keys.cap_run(0, 0, -10**12, 0)
    assert len(ids) == 10**12
    assert keys.run_keys([ids[:2]], 0) == [(0, "o", (0,), 0), (1, "o", (1,), 0)]
    assert keys.run_keys([ids[-1:]], 0) == [(10**12 - 1, "o", (10**12 - 1,), 0)]
    assert len(keys.cap_run(0, -2, -10**12, 0)) == 0  # no cap of c1 = 1
    assert len(keys.cap_run(0, 1, -10**12, 0)) == 0  # a degree of the other parity
    assert len(keys.cap_run(0, 0, 5, 5)) == 0  # an empty key range
    # on two orbits a run's first id names its orbit, here the second, and
    # decodes to the keys of `C.generator`, a slice of the run too
    C = FilteredComplex(GammaGroup((F(1, 2), F(1, 3)), (1, 2)), [("o", 0, 0), ("p", F(1, 3), 3)])
    keys = C.action_keys
    assert not keys.cap_run(0, 1, -40, 40)  # "o" holds only even degrees
    ids = keys.cap_run(1, 1, -40, 40)
    found = keys.run_keys([ids], 1)
    assert len(found) == len(ids) > 4 and {o for _, o, _, _ in found} == {"p"}
    assert found == [tuple(C.generator("p", cap))[:4] for _, _, cap, _ in found]
    assert keys.run_keys([ids[2:4]], 1) == found[2:4]
