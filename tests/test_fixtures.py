import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction as F

import novispec as nv
from novispec import DOWN, NEG_INF, UP, GammaGroup, jsonio
from novispec.cli import _validate_manifold
from novispec.fixtures import (
    BUILTIN_FIXTURES,
    _chain_candidates,
    load_builtin,
    random_chain,
    random_continuity_pair,
    random_instance,
    random_monodromy,
    random_scalar,
)


def test_builtins_pass_their_own_invariants():
    for name in sorted(BUILTIN_FIXTURES):
        fix = load_builtin(name)
        _validate_manifold(fix, F(1, 8))
        C = fix.build(min(F(1, 8), fix.max_eps))
        assert C.validate().ok


def test_random_instances_are_valid_and_deterministic():
    for seed in range(40):
        a = random_instance(seed)
        b = random_instance(seed)
        assert a.complex.validate().ok
        assert a.complex.orbits == b.complex.orbits
        assert a.representative.terms == b.representative.terms
        assert a.expected_rho == b.expected_rho
        assert len(a.complex.orbits) <= 6
        if not a.representative.is_zero():
            assert a.complex.boundary(a.representative).is_zero()
            if a.expected_rho != NEG_INF:
                assert a.representative.level() >= a.expected_rho


def test_continuity_pairs_are_consistent():
    for seed in range(10):
        pair = random_continuity_pair(seed)
        assert pair.source.validate().ok
        assert pair.target.validate().ok
        assert pair.forward.certify().ok
        assert pair.backward.certify().ok
        if not pair.rep_source.is_zero():
            assert pair.source.boundary(pair.rep_source).is_zero()


def test_monodromy_fixture_decks():
    decks = 0
    for seed in range(0, 12, 3):
        C, rep, shift, is_deck = random_monodromy(seed)
        if is_deck:
            decks += 1
            shifted, _, _ = nv.monodromy_shift(C, shift, None)
            assert shifted.orbits == C.orbits
    assert decks >= 1


def _seeded_draws():
    """JSON of seeded random instances, chains and scalars, in draw order."""
    out = []
    for max_orbits in (6, 12):
        for k in range(40):
            inst = random_instance(k, max_orbits=max_orbits)
            rho = inst.expected_rho
            out.append([
                jsonio.complex_to_json(inst.complex),
                jsonio.chain_to_json(inst.representative),
                "-inf" if rho == NEG_INF else jsonio.frac_str(rho),
            ])
    rng = random.Random(5)
    for k in range(20):
        C = random_instance(k).complex
        out.append([jsonio.chain_to_json(random_chain(rng, C, d)) for d in range(-2, 3)])
    groups = [GammaGroup((), ()), GammaGroup((F(1),), (2,)),
              GammaGroup((F(1), F(3, 2)), (0, 1))]
    for _ in range(60):
        g = rng.choice(groups)
        out.append(jsonio.scalar_to_json(random_scalar(rng, g, rng.choice([DOWN, UP]))))
    return out


def test_seeded_generators_pinned():
    # any change to a seeded draw, the random dressing included, moves the digest
    blob = json.dumps(_seeded_draws(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == "fa4dc5e6a08fb5820029b1c4ea9772388087c4bed7e42d5bc3652ae3f13f8990"


def _draws(seed, C, cold):
    rng = random.Random(seed)
    out = []
    for d in range(-2, 3):
        if cold:
            _chain_candidates.cache_clear()
        out.append(random_chain(rng, C, d))
    return out


def _first_candidates_ref(C):
    random_chain(random.Random(0), C, 0)
    return weakref.ref(C)


def test_chain_candidate_cache_is_transparent_and_bounded():
    for k in range(10):
        C = random_instance(k).complex
        assert _draws(k, C, cold=True) == _draws(k, C, cold=False)
        assert _chain_candidates(C, 0) is _chain_candidates(C, 0)

    # the cache is bounded: once more than `maxsize` other complexes have
    # drawn random chains, nothing keeps the first one alive
    ref = _first_candidates_ref(random_instance(50).complex)
    gc.collect()
    assert ref() is not None  # only the cache holds it
    size = _chain_candidates.cache_info().maxsize
    assert size is not None
    for k in range(size + 1):
        random_chain(random.Random(k), random_instance(100 + k).complex, 0)
    gc.collect()
    assert ref() is None
