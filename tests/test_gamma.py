import itertools
import random
from fractions import Fraction as F

import pytest

from novispec import GammaGroup, StructuralError
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


def test_period_generator():
    assert GammaGroup((F(1), F(3, 2)), (0, 1)).period_generator() == F(1, 2)
    assert GammaGroup((), ()).period_generator() == 0
    assert fraction_gcd([F(2, 3), F(1, 2)]) == F(1, 6)
    # the stored generator stays out of equality, hashing and repr
    g, h = GammaGroup((F(1), F(3, 2)), (0, 1)), GammaGroup((1, F(3, 2)), (0, 1))
    assert g == h and hash(g) == hash(h)
    assert repr(g) == "GammaGroup(omega_values=(Fraction(1, 1), Fraction(3, 2)), c1_values=(0, 1))"


def test_in_period_group():
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    assert g.in_period_group(F(5, 2))
    assert not g.in_period_group(F(1, 3))
    trivial = GammaGroup((), ())
    assert trivial.in_period_group(0)
    assert not trivial.in_period_group(1)


def _at(g, omega, c1):
    """The caps of exactly one (omega, c1): a window narrower than any period."""
    return g.caps(c1, omega, omega + F(1, 10**6))


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
    assert z.caps(4, -10, 10) == [(4,)]

    # rank 1 with c1 = 0: the caps of c1 = 0 are the whole line
    flat_c1 = GammaGroup((F(-3, 2),), (0,))
    assert _at(flat_c1, F(3), 0) == [(-2,)]
    assert flat_c1.caps(0, -3, 3) == [(2,), (1,), (0,), (-1,)]
    assert flat_c1.caps(1, -100, 100) == []


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
            found = g.caps(c, lo, hi)
            total += len(found)
            expected = {a for a, w, k in values if k == c and lo <= w < hi}
            assert set(found) == expected and len(found) == len(expected), (c, lo, hi)
            # the box holds every cap of the window with room to spare
            assert all(max(map(abs, a), default=0) < 40 for a in found)
            areas = [g.omega(a) for a in found]
            assert areas == sorted(areas) and len(set(areas)) == len(areas)
    assert total > 0

