import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import DOWN, NEG_INF, UP, GammaGroup, cli, fixtures, jsonio
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
from novispec.quantum import ProductFixture


def test_builtins_pass_their_own_invariants():
    for name in sorted(BUILTIN_FIXTURES):
        fix = load_builtin(name)
        _validate_manifold(fix, F(1, 8))
        C = fix.build(min(F(1, 8), fix.max_eps))
        assert C.validate().ok


def test_builtin_tables_validate_once_per_process(monkeypatch):
    # each build is a fresh fixture; the fixed product table of a builtin is
    # validated on its first build only, and again after a failed validation
    calls = Counter()
    validate = ProductFixture.validate

    def counting(self):
        calls[tuple(sorted(self.basis.classes))] += 1
        return validate(self)

    monkeypatch.setattr(ProductFixture, "validate", counting)
    monkeypatch.setattr(fixtures, "_VALIDATED_TABLES", set())
    first, again = load_builtin("s2"), load_builtin("s2")
    assert first is not again and first.product is not again.product
    for name in sorted(BUILTIN_FIXTURES):
        load_builtin(name)
        load_builtin(name)
    assert sum(calls.values()) == 3 and set(calls.values()) == {1}

    def failing(self):
        raise nv.FixtureError("broken table")

    monkeypatch.setattr(fixtures, "_VALIDATED_TABLES", set())
    monkeypatch.setattr(ProductFixture, "validate", failing)
    with pytest.raises(nv.FixtureError, match="broken table"):
        load_builtin("cp2")
    monkeypatch.setattr(ProductFixture, "validate", counting)
    calls.clear()
    load_builtin("cp2")
    load_builtin("cp2")
    assert sum(calls.values()) == 1


def test_manifold_check_realizes_each_class_once(monkeypatch):
    realized = []
    realize = cli.realize_flat
    monkeypatch.setattr(cli, "realize_flat",
                        lambda b, C, pd: realized.append(b) or realize(b, C, pd))
    for name in sorted(BUILTIN_FIXTURES):
        fix = load_builtin(name)
        realized.clear()
        _validate_manifold(fix, F(1, 8))
        assert len(realized) == len(fix.basis.classes), name

    # a broken manifold reports the first error that a realization per
    # check would: the checks keep their order
    def first_error(mutate):
        fix = load_builtin("tilted")
        mutate(fix)
        with pytest.raises(nv.NovispecError) as err:
            _validate_manifold(fix, F(1, 8))
        return f"{type(err.value).__name__}: {err.value}"

    def drop_pt_and_break_one(fix):
        del fix.pd_chains["pt"]
        fix.pd_chains["one"] = [(1, "m1")]

    assert first_error(lambda fix: fix.pd_chains.pop("pt")) == (
        "StructuralError: no chain representative for class 'pt'")
    assert first_error(drop_pt_and_break_one) == (
        "InputError: chain representative of 'one' is not a cycle")
    assert first_error(lambda fix: fix.pd_chains.update(pt=[(1, "s")])) == (
        "InputError: chain pairing (pt, pt) = 0 != table 1")
    assert first_error(lambda fix: fix.cochains.update(pt=[(2, "M")])) == (
        "InputError: chain pairing (pt, pt) = 2 != table 1")


def test_random_instances_are_valid_and_deterministic():
    for max_orbits, seeds in ((6, range(40)), (8, range(20)), (16, range(20))):
        for seed in seeds:
            a = random_instance(seed, max_orbits=max_orbits)
            b = random_instance(seed, max_orbits=max_orbits)
            assert a.complex.validate().ok
            assert a.complex.orbits == b.complex.orbits
            assert a.representative.terms == b.representative.terms
            assert a.expected_rho == b.expected_rho
            assert len(a.complex.orbits) <= max_orbits
            assert a.complex.boundary(a.representative).is_zero()
            if a.expected_rho != NEG_INF:
                assert a.representative.level() >= a.expected_rho
            # the ground truth is the engine's answer
            assert nv.spectral_invariant(a.complex, a.representative).rho == a.expected_rho


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


def _rho_json(rho):
    return "-inf" if rho == NEG_INF else jsonio.frac_str(rho)


def _seeded_draws():
    """JSON of seeded random instances, chains and scalars, in draw order."""
    out = []
    for max_orbits in (6, 12):
        for k in range(40):
            inst = random_instance(k, max_orbits=max_orbits)
            out.append([
                jsonio.complex_to_json(inst.complex),
                jsonio.chain_to_json(inst.representative),
                _rho_json(inst.expected_rho),
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


def _bench_shaped_draws():
    """JSON of the generator outputs the bench and the CLI build: instances
    at the bench's sizes and corpora, continuity pairs, monodromy shifts,
    and the caller's rng state after chain and scalar draws."""
    out = []
    for kwargs in ({"max_orbits": 16}, {"max_orbits": 8},
                   {"max_orbits": 6, "gamma_window": 3}):
        for k in [*range(60), *range(1_000_000, 1_000_020)]:
            inst = random_instance(k, **kwargs)
            out.append([jsonio.complex_to_json(inst.complex),
                        jsonio.chain_to_json(inst.representative),
                        _rho_json(inst.expected_rho), inst.degree])
    for k in range(20):
        p = random_continuity_pair(k, constant_shift=(k % 3 == 0))
        out.append([
            jsonio.complex_to_json(p.source), jsonio.complex_to_json(p.target),
            jsonio.chain_map_to_json("s", "t", p.forward),
            jsonio.chain_map_to_json("t", "s", p.backward),
            [[{q: str(v) for q, v in row.items()} for row in h.values]
             for h in (p.ham_source, p.ham_target)],
            jsonio.chain_to_json(p.rep_source), jsonio.chain_to_json(p.rep_target),
            str(p.rep_source.floor), p.constant_shift,
        ])
        C, rep, shift, is_deck = random_monodromy(k)
        out.append([jsonio.complex_to_json(C),
                    None if rep is None else jsonio.chain_to_json(rep),
                    jsonio.monodromy_to_json(shift), is_deck])
    rng = random.Random(11)
    for k in range(12):
        C = random_instance(k, max_orbits=16).complex
        out.append([jsonio.chain_to_json(random_chain(rng, C, d)) for d in range(-3, 4)])
        out.append(jsonio.scalar_to_json(random_scalar(rng, C.gamma, DOWN)))
    out.append(rng.getstate())
    return out


def test_bench_shaped_generators_pinned():
    # the draw sequence is the generators' contract: a changed, added or
    # reordered draw moves the digest, and so does any value built from it
    blob = json.dumps(_bench_shaped_draws(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == "3d574fac60e75362d1b1191aed9c527d618f28e3ebca8f17e287afa0c9ca223f"


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
