import random
from collections import Counter
from fractions import Fraction as F

import pytest

from novispec import (
    DOWN,
    UP,
    NEG_INF,
    POS_INF,
    DomainError,
    GammaGroup,
    NovikovScalar,
    StructuralError,
)
from novispec.fixtures import random_scalar

G = GammaGroup((F(1), F(3, 2)), (0, 1))
R1 = GammaGroup((F(1),), (2,))


def mono(direction, coeff, label, group=G):
    return NovikovScalar.monomial(group, direction, coeff, label)


def test_monomial_product():
    a = mono(DOWN, 2, (1, 0))
    b = mono(DOWN, 3, (0, 1))
    assert a * b == mono(DOWN, 6, (1, 1))


def test_cancellation_gives_zero():
    a = mono(UP, 1, (2, -1))
    assert (a + a.scale(-1)).is_zero()


def test_direction_mismatch_rejected():
    with pytest.raises(StructuralError):
        mono(DOWN, 1, (0, 0)) + mono(UP, 1, (0, 0))


def test_group_mismatch_rejected():
    with pytest.raises(StructuralError):
        mono(DOWN, 1, (0, 0)) * NovikovScalar.monomial(R1, DOWN, 1, (0,))


def test_valuation_of_one_is_zero():
    for d in (DOWN, UP):
        assert NovikovScalar.one(G, d).valuation() == 0


def test_upward_single_term_valuation():
    # label with omega = 2: written exponent has omega(-A) = -2
    a = mono(UP, 5, (2, 0))
    assert a.valuation() == -2


def test_upward_two_term_valuation_is_min():
    a = mono(UP, 1, (1, 0)) + mono(UP, 1, (-1, 0))  # omega(-A) in {-1, +1}
    assert a.valuation() == -1


def test_downward_valuation_is_max():
    a = mono(DOWN, 1, (1, 0)) + mono(DOWN, 1, (-1, 0))
    assert a.valuation() == 1


def test_zero_scalar_valuations():
    assert NovikovScalar.zero(G, DOWN).valuation() == NEG_INF
    assert NovikovScalar.zero(G, UP).valuation() == POS_INF


def brute_valuation(terms, direction, group):
    if not terms:
        return NEG_INF if direction == DOWN else POS_INF
    if direction == DOWN:
        return max(group.omega(l) for l in terms)
    return min(-group.omega(l) for l in terms)


def brute_product(a, b):
    out = {}
    for la, ca in a.terms.items():
        for lb, cb in b.terms.items():
            l = tuple(x + y for x, y in zip(la, lb))
            out[l] = out.get(l, F(0)) + ca * cb
    return {l: c for l, c in out.items() if c != 0}


def test_valuation_multiplicative_against_bruteforce():
    rng = random.Random(7)
    for _ in range(300):
        group = rng.choice([G, R1])
        d = rng.choice([DOWN, UP])
        x = random_scalar(rng, group, d)
        y = random_scalar(rng, group, d)
        prod = x * y
        assert prod.terms == brute_product(x, y)
        assert brute_valuation(prod.terms, d, group) == (
            prod.valuation() if prod.terms else brute_valuation({}, d, group)
        )
        if not x.is_zero() and not y.is_zero():
            assert prod.valuation() == x.valuation() + y.valuation()


def test_ultrametric_with_equality_case():
    rng = random.Random(8)
    for _ in range(300):
        group = rng.choice([G, R1])
        d = rng.choice([DOWN, UP])
        x = random_scalar(rng, group, d)
        y = random_scalar(rng, group, d)
        if x.is_zero() or y.is_zero():
            continue
        vx, vy = x.valuation(), y.valuation()
        s = x + y
        vs = brute_valuation(s.terms, d, group)
        if d == DOWN:
            assert vs <= max(vx, vy)
            if vx != vy:
                assert vs == max(vx, vy)
        else:
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_add_commutative_associative_negate_involution():
    rng = random.Random(9)
    for _ in range(100):
        d = rng.choice([DOWN, UP])
        x = random_scalar(rng, G, d)
        y = random_scalar(rng, G, d)
        z = random_scalar(rng, G, d)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert -(-x) == x
        assert x * y == y * x


def test_leading_term():
    a = mono(DOWN, 2, (1, 0)) + mono(DOWN, 5, (-3, 0))
    assert a.leading() == ((1, 0), F(2))


def _reference(group, direction, pairs):
    """The public constructor on (label, coeff) pairs summed in the test."""
    summed = {}
    for label, coeff in pairs:
        summed[label] = summed.get(label, F(0)) + coeff
    return NovikovScalar(group, direction, list(summed.items()))


def _old_valuation(x):
    """The valuation in `Fraction`s, as defined before integer keys."""
    if not x.terms:
        return NEG_INF if x.direction == DOWN else POS_INF
    if x.direction == DOWN:
        return max(x.group.omega(l) for l in x.terms)
    return min(x.group.omega(tuple(-c for c in l)) for l in x.terms)


def _old_leading(x):
    v = _old_valuation(x)
    sign = 1 if x.direction == DOWN else -1
    hits = [l for l in x.terms if sign * x.group.omega(l) == v]
    if len(hits) != 1:
        raise DomainError(f"leading term is ambiguous among {hits}")
    return hits[0], x.terms[hits[0]]


def test_checked_ops_and_integer_valuations_match_the_public_constructor():
    rng = random.Random(26)
    outcomes = Counter()
    for group in (R1, G):
        for d in (DOWN, UP):
            pool = [NovikovScalar.zero(group, d)]
            pool += [random_scalar(rng, group, d) for _ in range(60)]
            for x in pool:
                assert x.terms == _reference(group, d, x.terms.items()).terms
                assert x.valuation() == _old_valuation(x)
                if x.is_zero():
                    with pytest.raises(DomainError, match="zero scalar"):
                        x.leading()
                    continue
                try:
                    expected = _old_leading(x)
                except DomainError as exc:
                    with pytest.raises(DomainError) as got:
                        x.leading()
                    assert str(got.value) == str(exc)
                    outcomes[group.rank, "tie"] += 1
                else:
                    assert x.leading() == expected
                    outcomes[group.rank, "leading"] += 1
            for x, y in zip(pool, pool[1:] + pool[:1]):
                negated = [(l, -c) for l, c in x.terms.items()]
                product = [(tuple(a + b for a, b in zip(la, lb)), ca * cb)
                           for la, ca in x.terms.items() for lb, cb in y.terms.items()]
                for got, pairs in ((x + y, [*x.terms.items(), *y.terms.items()]),
                                   (-x, negated), (x * y, product),
                                   (x + (-x), [*x.terms.items(), *negated])):
                    ref = _reference(group, d, pairs)
                    assert list(got.terms.items()) == list(ref.terms.items())
                    assert hash(got) == hash(ref) and got == ref
                    assert (got.group, got.direction) == (group, d)
    # rank 2 has tied omegas among distinct labels, rank 1 none
    assert outcomes[2, "tie"] > 0 and outcomes[2, "leading"] > 0
    assert outcomes[1, "leading"] > 0 and outcomes[1, "tie"] == 0
