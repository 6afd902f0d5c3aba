"""Acceptance suite: one test per criterion, exact tolerances, one summary
line printed per criterion (run with -s to see them live)."""

import random
import time
from fractions import Fraction as F

import novispec as nv
from novispec import DOWN, UP, NEG_INF
from novispec.fixtures import (
    curated_functionals,
    load_builtin,
    random_chain,
    random_continuity_pair,
    random_instance,
    random_monodromy,
    random_scalar,
    transported_product,
)
from novispec.quantum import flat, leading_data, quantum_product
from novispec.scalars import NovikovScalar

EPS_SEQUENCE = [F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
SEED = 2026

collected_rhos = []  # (rho, complex) pairs feeding the spectrality criterion


def announce(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} ({name}): {status}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def test_acceptance_1_normalization():
    t0 = time.perf_counter()
    checked = 0
    for fixture_name in ("s2", "cp2"):
        fix = load_builtin(fixture_name)
        spread = fix.morse.max_value() - fix.morse.min_value()
        for a in fix.shipped_classes:
            gap = leading_data(a).gap
            prev = None
            for eps in EPS_SEQUENCE:
                if not (gap == nv.POS_INF or eps * spread < F(gap) / 2):
                    continue  # hypothesis requires the gap bound
                report = nv.check_valuation_bounds(
                    fix.morse, eps, a, fix.gamma, fix.pd_chains
                )
                assert report.hypothesis_ok
                # sandwich at zero tolerance
                mx = fix.morse.max_value()
                assert report.valuation - eps * mx <= report.rho
                assert report.rho <= report.valuation + eps * mx
                assert report.sandwich_ok and report.halfgap_ok
                # deviation shrinks monotonically and stays within eps*max f
                assert report.deviation <= eps * mx
                if prev is not None:
                    assert report.deviation <= prev
                prev = report.deviation
                collected_rhos.append((report.rho, fix.build(eps)))
                checked += 1
    took = time.perf_counter() - t0
    announce(1, "normalization", checked >= 24 and took < 5.0,
             f"{checked} sandwich checks in {took:.2f}s")


def test_acceptance_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    instances = 0
    probes = 0
    seed = 0
    while instances < 200:
        inst = random_instance(SEED * 100 + seed, max_orbits=6, gamma_window=3)
        seed += 1
        if inst.representative.is_zero():
            continue
        instances += 1
        result = nv.spectral_invariant(inst.complex, inst.representative)
        oracle = nv.oracle_rho(inst.complex, inst.representative)
        assert result.rho == oracle == inst.expected_rho, (
            inst.seed, result.rho, oracle, inst.expected_rho
        )
        if result.rho != NEG_INF:
            collected_rhos.append((result.rho, inst.complex))
        done = 0
        attempts = 0
        while done < 10 and attempts < 400:
            attempts += 1
            lam = F(rng.randint(-42, 42), 7) + F(1, 13)
            if nv.spectrality_check(lam, inst.complex):
                continue
            done += 1
            probes += 1
            member = nv.image_membership(inst.complex, inst.representative, lam)
            assert member == (result.rho < lam), (inst.seed, lam, result.rho)
        assert done == 10
    took = time.perf_counter() - t0
    announce(2, "oracle equivalence",
             instances == 200 and probes == 2000 and took < 60.0,
             f"200 instances, {probes} probes in {took:.2f}s")


def test_acceptance_3_spectrality():
    # all finite invariants computed so far, plus a fresh sweep
    values = list(collected_rhos)
    for name in ("s2", "cp2", "torus", "tilted", "czero"):
        fix = load_builtin(name)
        eps = min(F(1, 8), fix.max_eps)
        C = fix.build(eps)
        for a in fix.shipped_classes:
            rep = nv.realize_flat(flat(a), C, fix.pd_chains)
            r = nv.spectral_invariant(C, rep)
            if r.rho != NEG_INF:
                values.append((r.rho, C))
    assert values
    bad = [r for r, C in values if not nv.spectrality_check(r, C)]
    announce(3, "spectrality", not bad,
             f"{len(values)} computed values in the action spectrum")


def test_acceptance_4_continuity():
    checked = 0
    tight = 0
    k = 0
    while checked < 50:
        constant = k % 5 == 0
        pair = random_continuity_pair(SEED * 300 + k, constant_shift=constant)
        k += 1
        if pair.rep_source.is_zero():
            continue
        report = nv.verify_continuity(
            pair.source, pair.target, pair.forward, pair.backward,
            pair.ham_source, pair.ham_target, pair.rep_source, pair.rep_target,
        )
        assert report.ok
        assert report.lower <= report.difference <= report.upper
        if constant:
            assert report.tight_lower and report.tight_upper
            tight += 1
        checked += 1
    announce(4, "continuity", checked == 50 and tight >= 8,
             f"50 certified pairs, {tight} tight constant-shift families")


def test_acceptance_5_triangle():
    checks = 0
    for name in ("s2", "cp2"):
        fix = load_builtin(name)
        eps = min(F(1, 8), fix.max_eps)
        C1, C3, P, _ = transported_product(fix, eps)
        assert P.validate().ok
        assert P.max_slack() == 0
        names = sorted(fix.basis.classes)
        for i in names:
            for j in names:
                fa = nv.realize_flat(flat(fix.cls(i)), C1, fix.pd_chains)
                fb = nv.realize_flat(flat(fix.cls(j)), C1, fix.pd_chains)
                prod = nv.pants_product(fa, fb, P)
                ab = quantum_product(fix.cls(i), fix.cls(j), fix.product)
                assert prod == nv.realize_flat(flat(ab), C3, fix.pd_chains)
                r1 = nv.spectral_invariant(C1, fa).rho
                r2 = nv.spectral_invariant(C1, fb).rho
                r3 = nv.spectral_invariant(C3, prod).rho
                assert r3 != NEG_INF
                assert r3 <= r1 + r2
                checks += 1
                collected_rhos.append((r3, C3))
    announce(5, "triangle inequality", checks == 13,
             f"{checks} basis pairs on both product fixtures")


def test_acceptance_6_monodromy():
    decks = 0
    done = 0
    k = 0
    while done < 20:
        C, rep, shift, is_deck = random_monodromy(SEED * 400 + k)
        k += 1
        if rep is None:
            continue
        done += 1
        decks += int(is_deck)
        shifted, transport, report = nv.monodromy_shift(C, shift, rep)
        assert report["exact"], (k, report)
        inv = shift.inverse()
        _, _, back = nv.monodromy_shift(shifted, inv, transport(rep))
        assert back["exact"]
        assert back["i_omega"] == -report["i_omega"]
    announce(6, "monodromy shift", done == 20 and decks >= 2,
             f"20 shifts, {decks} pure deck transformations")


def test_acceptance_7_nonarchimedean():
    rng = random.Random(SEED + 7)
    gammas = [load_builtin(n).gamma for n in ("s2", "cp2", "czero")]
    gammas.append(nv.GammaGroup((F(1), F(3, 2)), (0, 1)))
    pairs = 0
    while pairs < 1000:
        gamma = rng.choice(gammas)
        d = rng.choice([DOWN, UP])
        x = random_scalar(rng, gamma, d)
        y = random_scalar(rng, gamma, d)
        if x.is_zero() or y.is_zero():
            continue
        pairs += 1
        vx, vy = x.valuation(), y.valuation()
        s = x + y
        if not s.is_zero():
            vs = s.valuation()
            if d == DOWN:
                assert vs <= max(vx, vy)
                if vx != vy:
                    assert vs == max(vx, vy)
            else:
                assert vs >= min(vx, vy)
                if vx != vy:
                    assert vs == min(vx, vy)
        assert (x * y).valuation() == vx + vy

    fix = load_builtin("czero")
    C = fix.build(F(1, 8))
    balls = 0
    while balls < 200:
        deg = rng.choice([-1, 1])
        alpha = random_chain(rng, C, deg)
        b1 = nv.BallSpec(alpha + random_chain(rng, C, deg), F(rng.randint(1, 5)))
        b2 = nv.BallSpec(alpha + random_chain(rng, C, deg), F(rng.randint(1, 5)))
        if not (nv.in_ball(alpha, b1) and nv.in_ball(alpha, b2)):
            continue
        balls += 1
        r3 = nv.ball_intersection_radius(b1, b2, alpha)
        for _ in range(4):
            beta = alpha + random_chain(rng, C, deg)
            if (beta - alpha).level() < r3:
                assert nv.in_ball(beta, b1) and nv.in_ball(beta, b2)

    tilted = load_builtin("tilted")
    Ct = tilted.build(F(1, 4))
    images = 0
    while images < 200:
        alpha = random_chain(rng, Ct, 1)
        R = F(rng.randint(1, 4), rng.choice([1, 2]))
        images += 1
        target = nv.BallSpec(Ct.boundary(alpha), R)
        for _ in range(4):
            beta = alpha + random_chain(rng, Ct, 1)
            if nv.in_ball(beta, nv.BallSpec(alpha, R)):
                assert nv.in_ball(Ct.boundary(beta), target)

    continuous, divergent = curated_functionals(C)
    assert len(continuous) == 10 and len(divergent) == 10
    for mu in continuous:
        cls = nv.classify_functional(mu)
        assert cls.continuous
        # certified witness: the vanishing rule holds at the threshold
        for g in mu.atoms:
            assert -C.gamma.omega(g.cap) > cls.threshold
        for ray in mu.rays:
            assert -C.gamma.omega(ray.base) > cls.threshold
            assert C.gamma.omega(ray.direction) <= 0
    for mu in divergent:
        cls = nv.classify_functional(mu)
        assert not cls.continuous
        assert all(mu.evaluate(ch) == 1 for ch in cls.counterexample)

    identity_checks = 0
    for name in ("s2", "cp2", "torus", "tilted", "czero"):
        fx = load_builtin(name)
        Cf = fx.build(min(F(1, 8), fx.max_eps))
        pts = [p for p, _, _ in fx.morse.points]
        span = fx.gamma.rank
        for a in fx.shipped_classes:
            mu = nv.embed_class(a, Cf, fx.cochains)
            assert nv.dual_boundary(mu).is_zero()
            identity_checks += 1
        for _ in range(10):
            terms = [
                (
                    F(rng.randint(-3, 3)),
                    rng.choice(pts),
                    tuple(rng.randint(-2, 2) for _ in range(span)),
                )
                for _ in range(3)
            ]
            lhs = nv.point_cochain_functional(
                Cf, nv.cochain_differential(fx.morse, terms)
            )
            rhs = nv.dual_boundary(nv.point_cochain_functional(Cf, terms))
            assert lhs.atoms == rhs.atoms
            identity_checks += 1
    announce(
        7, "non-Archimedean suite", True,
        f"1000 scalar pairs, 200 ball pairs, 200 image balls, 20 functionals, "
        f"{identity_checks} cochain identities",
    )


def test_acceptance_8_structural():
    rng = random.Random(SEED + 8)
    g1 = nv.GammaGroup((F(1),), (2,))
    mono = lambda c, l=(0,): NovikovScalar.monomial(g1, DOWN, c, l)
    caught = []

    a0 = F(rng.randint(0, 3))
    C = nv.FilteredComplex(
        g1,
        [("x", a0 + 2, 2), ("y", a0 + 1, 1), ("z", a0, 0)],
        {"x": {"y": mono(rng.randint(1, 3))}, "y": {"z": mono(rng.randint(1, 3))}},
    )
    rep = C.validate()
    caught.append("square" in rep.codes() and rep.violations[0].witness is not None)

    C = nv.FilteredComplex(
        g1,
        [("x", a0 + 1, 1), ("y", a0, 1)],
        {"x": {"y": mono(rng.randint(1, 3))}},
    )
    caught.append("degree" in C.validate().codes())

    C = nv.FilteredComplex(
        g1,
        [("x", a0, 1), ("y", a0 + F(1, 2), 0)],
        {"x": {"y": mono(1)}},
    )
    caught.append("level-increase" in C.validate().codes())

    C = nv.FilteredComplex(g1, [("x", a0, 1)], {})
    bad_rows = [("x", (1,), a0 - 1 + F(1, 3), 1)]
    caught.append("equivariance" in C.validate(explicit_generators=bad_rows).codes())

    C = nv.FilteredComplex(g1, [("a", a0, 0), ("b", a0, 0)], {})
    tie = C.chain({C.generator("a"): 1, C.generator("b"): 1}, None)
    caught.append("tie-peak" in C.validate(representatives={"r": tie}).codes())

    relabel_ok = 0
    k = 0
    trials = 0
    while trials < 20:
        inst = random_instance(SEED * 500 + k)
        k += 1
        if inst.representative.is_zero():
            continue
        trials += 1
        C = inst.complex
        names = sorted(C.orbits)
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping = dict(zip(names, [f"p{k}_{o}" for o in shuffled]))
        D = C.relabeled(mapping)
        moved = C.transport(D, inst.representative, mapping)
        if nv.spectral_invariant(D, moved).rho == nv.spectral_invariant(
            C, inst.representative
        ).rho:
            relabel_ok += 1

    projective_ok = True
    for name in ("s2", "czero"):
        fix = load_builtin(name)
        C = fix.build(F(1, 8))
        for a in fix.shipped_classes:
            rep = nv.realize_flat(flat(a), C, fix.pd_chains)
            base = nv.spectral_invariant(C, rep).rho
            for lam in (2, -1, F(3, 7), -5, F(1, 9)):
                scaled = nv.realize_flat(flat(a.scale(lam)), C, fix.pd_chains)
                projective_ok &= nv.spectral_invariant(C, scaled).rho == base

    ok = all(caught) and relabel_ok >= 20 and projective_ok
    announce(
        8, "structural invariants", ok,
        f"5 mutation classes caught, {relabel_ok} relabelings, projective exact",
    )
