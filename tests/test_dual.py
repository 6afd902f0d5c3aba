import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import (
    NEG_INF,
    BallSpec,
    DomainError,
    DualFunctional,
    Ray,
    StructuralError,
)
from novispec import linalg
from novispec.dual import _default_dual_window, is_cocycle
from novispec.engine import _degree_generators, build_window
from novispec.fixtures import (
    BUILTIN_FIXTURES,
    calibration,
    curated_functionals,
    random_chain,
    random_instance,
    sphere,
    tilted_sphere,
)


def cz_complex(eps=F(1, 8)):
    fix = calibration()
    return fix, fix.build(eps)


# -- balls ---------------------------------------------------------------------


def test_center_is_member_for_any_radius():
    _, C = cz_complex()
    alpha = C.chain({C.generator("top"): 1}, None)
    assert nv.in_ball(alpha, BallSpec(alpha, F(1, 1000)))


def test_membership_matches_level():
    rng = random.Random(1)
    _, C = cz_complex()
    for _ in range(80):
        alpha = random_chain(rng, C, 1)
        beta = random_chain(rng, C, 1)
        R = F(rng.randint(1, 5), rng.choice([1, 2]))
        assert nv.in_ball(beta, BallSpec(alpha, R)) == ((beta - alpha).level() < R)
    # floored chains, and betas near alpha whose top terms cancel: a term at
    # or below the higher floor does not count
    floors = [None, None, F(-3, 2), F(-1), F(0), F(1, 2), F(1)]
    seen = set()
    for _ in range(400):
        alpha = C.chain(random_chain(rng, C, 1).terms, rng.choice(floors))
        beta = rng.choice([random_chain(rng, C, 1), alpha + random_chain(rng, C, 1), alpha])
        beta = C.chain(beta.terms, rng.choice(floors))
        R = F(rng.randint(-2, 3), rng.choice([1, 2]))
        level = (beta - alpha).level()
        assert nv.in_ball(beta, BallSpec(alpha, R)) == (level < R)
        seen.add((level == NEG_INF, alpha.floor is None and beta.floor is None))
    assert len(seen) == 4
    # it raises as the subtraction does: another complex, or mixed degrees
    _, other = cz_complex()
    alpha = C.chain({C.generator("bot", (-2,)): 1}, F(1))  # action 2, degree 1
    low = C.chain({C.generator("top"): 1})  # action -1/8, degree -1
    # degrees are checked before the merged floor drops `low`'s term
    for beta in (low, C.chain(low.terms, F(-1)), other.chain({other.generator("bot"): 1})):
        with pytest.raises(StructuralError) as subtraction:
            beta - alpha
        with pytest.raises(StructuralError) as membership:
            nv.in_ball(beta, BallSpec(alpha, 1))
        assert str(membership.value) == str(subtraction.value)
        with pytest.raises(StructuralError) as subtraction:
            alpha - beta
        with pytest.raises(StructuralError) as radius:
            nv.ball_intersection_radius(BallSpec(beta, 1), BallSpec(beta, 1), alpha)
        assert str(radius.value) == str(subtraction.value)
    # the zero chain has no degree, so it never mixes
    for beta in (C.chain(), C.chain({}, F(3))):
        assert nv.in_ball(beta, BallSpec(low, 1)) == ((beta - low).level() < 1)


def test_intersection_radius_axiom():
    rng = random.Random(2)
    _, C = cz_complex()
    checked = 0
    for _ in range(60):
        alpha = random_chain(rng, C, -1)
        b1 = BallSpec(alpha + random_chain(rng, C, -1), F(rng.randint(1, 4)))
        b2 = BallSpec(alpha + random_chain(rng, C, -1), F(rng.randint(1, 4)))
        if not (nv.in_ball(alpha, b1) and nv.in_ball(alpha, b2)):
            continue
        checked += 1
        r3 = nv.ball_intersection_radius(b1, b2, alpha)
        assert r3 == min(b1.radius, b2.radius)
        for _ in range(6):
            beta = alpha + random_chain(rng, C, -1)
            if (beta - alpha).level() < r3:
                assert nv.in_ball(beta, b1) and nv.in_ball(beta, b2)
    assert checked > 10


def test_intersection_radius_requires_membership():
    _, C = cz_complex()
    alpha = C.chain({C.generator("top"): 1}, None)
    far = BallSpec(alpha + C.chain({C.generator("top", (-3,)): 1}, None), F(1, 2))
    with pytest.raises(DomainError):
        nv.ball_intersection_radius(far, far, alpha)


def test_boundary_maps_balls_into_balls():
    rng = random.Random(3)
    fix = tilted_sphere()
    C = fix.build(F(1, 4))
    for _ in range(60):
        alpha = random_chain(rng, C, 1)
        R = F(rng.randint(1, 4), rng.choice([1, 2]))
        target = BallSpec(C.boundary(alpha), R)
        for _ in range(5):
            beta = alpha + random_chain(rng, C, 1)
            if nv.in_ball(beta, BallSpec(alpha, R)):
                assert nv.in_ball(C.boundary(beta), target)


# -- functional classification ---------------------------------------------------


def test_single_support_functional_is_continuous():
    _, C = cz_complex()
    mu = DualFunctional(C, {C.generator("bot", (2,)): F(1)}, [])
    cls = nv.classify_functional(mu)
    assert cls.continuous
    # threshold witnesses the vanishing rule strictly below the support level
    assert cls.threshold < -C.gamma.omega((2,))


def test_divergent_ray_certificate():
    _, C = cz_complex()
    mu = DualFunctional(C, {}, [Ray("bot", (0,), (1,), F(3))])
    cls = nv.classify_functional(mu)
    assert not cls.continuous
    assert cls.diverging_ray is not None
    assert [mu.evaluate(ch) for ch in cls.counterexample] == [1, 1, 1, 1]


def test_curated_set_classifies_correctly():
    _, C = cz_complex()
    continuous, divergent = curated_functionals(C)
    assert len(continuous) == 10 and len(divergent) == 10
    for mu in continuous:
        cls = nv.classify_functional(mu)
        assert cls.continuous
        for g in mu.atoms:
            assert -C.gamma.omega(g.cap) > cls.threshold
        for ray in mu.rays:
            assert -C.gamma.omega(ray.base) > cls.threshold
    for mu in divergent:
        cls = nv.classify_functional(mu)
        assert not cls.continuous
        assert all(mu.evaluate(ch) == 1 for ch in cls.counterexample)


def test_classification_stable_under_finite_perturbation():
    _, C = cz_complex()
    continuous, divergent = curated_functionals(C)
    bump = {C.generator("top", (-2,)): F(7)}
    for mu in continuous[:4]:
        atoms = dict(mu.atoms)
        atoms.update(bump)
        assert nv.classify_functional(DualFunctional(C, atoms, mu.rays)).continuous
    for mu in divergent[:4]:
        atoms = dict(mu.atoms)
        atoms.update(bump)
        assert not nv.classify_functional(DualFunctional(C, atoms, mu.rays)).continuous


def test_value_is_evaluation_on_one_generator():
    # value(g), the atom at g plus every ray that hits g, is the evaluation
    # of the one-term chain g; atoms are laid over rays, and two rays overlap
    _, C = cz_complex()
    continuous, divergent = curated_functionals(C)
    o1, o2 = sorted(C.orbits)[0], sorted(C.orbits)[-1]
    atoms = {C.generator(o, (t,)): F(t + 4, 3) for o in (o1, o2) for t in (-3, -1, 0, 2)}
    overlapping = [Ray(o1, (0,), (-1,), F(1)), Ray(o1, (1,), (-2,), F(-5, 2)),
                   Ray(o2, (2,), (0,), F(3))]
    functionals = continuous + divergent + [DualFunctional(C, atoms, overlapping)]
    functionals += [DualFunctional(C, atoms, mu.rays) for mu in continuous + divergent if mu.rays]
    both = 0
    for mu in functionals:
        for o in (o1, o2):
            for t in range(-6, 7):
                g = C.generator(o, (t,))
                assert mu.value(g) == mu.evaluate(C.chain({g: 1})), (mu.rays, g)
                both += g in mu.atoms and any(ray.hits(g) is not None for ray in mu.rays)
    assert both > 20


def test_declared_threshold_validated():
    _, C = cz_complex()
    with pytest.raises(Exception):
        DualFunctional(C, {C.generator("bot"): F(1)}, [], threshold=F(5))


# -- dual boundary ----------------------------------------------------------------


def test_dual_boundary_of_zero():
    _, C = cz_complex()
    mu = DualFunctional(C, {}, [])
    assert nv.dual_boundary(mu).is_zero()


def test_dual_boundary_on_zero_boundary_complex():
    _, C = cz_complex()
    mu = DualFunctional(C, {C.generator("top"): F(2)}, [])
    assert nv.dual_boundary(mu).is_zero()


def test_dual_boundary_squares_to_zero():
    rng = random.Random(4)
    fix = tilted_sphere()
    C = fix.build(F(1, 4))
    pts = sorted(C.orbits)
    for _ in range(30):
        atoms = {
            C.generator(rng.choice(pts), (rng.randint(-2, 2),)): F(rng.randint(-3, 3))
            for _ in range(3)
        }
        mu = DualFunctional(C, atoms, [])
        twice = nv.dual_boundary(nv.dual_boundary(mu))
        assert twice.is_zero() or all(v == 0 for v in twice.atoms.values())


def test_dual_boundary_rejects_divergent():
    _, C = cz_complex()
    bad = DualFunctional(C, {}, [Ray("bot", (0,), (1,), F(1))])
    with pytest.raises(DomainError):
        nv.dual_boundary(bad)
    with pytest.raises(DomainError):
        nv.dual_spectral_invariant(C, bad, 0)


def test_threshold_never_drops_on_nonnegative_entries():
    # generated instances only use nonnegative-area caps in their boundaries
    rng = random.Random(5)
    checked = 0
    for seed in range(30):
        inst = random_instance(seed)
        C = inst.complex
        if not C.boundary_entries:
            continue
        orbits = sorted(C.orbits)
        atoms = {
            C.generator(rng.choice(orbits), C.gamma.zero): F(rng.randint(1, 3))
        }
        mu = DualFunctional(C, atoms, [])
        out = nv.dual_boundary(mu)
        if out.is_zero():
            continue
        checked += 1
        lo_in = min(-C.gamma.omega(g.cap) for g in mu.atoms)
        lo_out = min(-C.gamma.omega(g.cap) for g in out.atoms)
        assert lo_out >= lo_in
    assert checked > 3


def test_two_route_cochain_identity():
    fix = tilted_sphere()
    C = fix.build(F(1, 8))
    rng = random.Random(6)
    pts = [p for p, _, _ in fix.morse.points]
    for _ in range(40):
        terms = [
            (F(rng.randint(-3, 3)), rng.choice(pts), (rng.randint(-2, 2),))
            for _ in range(3)
        ]
        lhs = nv.point_cochain_functional(C, nv.cochain_differential(fix.morse, terms))
        rhs = nv.dual_boundary(nv.point_cochain_functional(C, terms))
        assert lhs.atoms == rhs.atoms


# -- embedding and the dual invariant ---------------------------------------------


def test_embedded_classes_are_continuous_cocycles():
    for fix in (sphere(), tilted_sphere(), calibration()):
        C = fix.build(F(1, 8))
        for a in fix.shipped_classes:
            mu = nv.embed_class(a, C, fix.cochains)
            assert nv.classify_functional(mu).continuous
            assert nv.dual_boundary(mu).is_zero()


def test_embedding_injective_on_fixture_span():
    fix = sphere()
    C = fix.build(F(1, 8))
    for name in fix.basis.classes:
        a = fix.cls(name)
        assert not nv.embed_class(a, C, fix.cochains).is_zero()


def test_dual_invariant_matches_primal_on_zero_boundary():
    # single-term classes: the functional detects exactly its own class, so
    # both scans stop at the same level; multi-term functionals may detect a
    # lower-level companion class first, so detection is only a lower bound
    for fix in (sphere(), calibration()):
        C = fix.build(F(1, 10))
        n = fix.morse.dim // 2
        for a in fix.shipped_classes:
            mu = nv.embed_class(a, C, fix.cochains)
            rd = nv.dual_spectral_invariant(C, mu, n - a.degree)
            rep = nv.realize_flat(nv.flat(a), C, fix.pd_chains)
            rp = nv.spectral_invariant(C, rep).rho
            if len(a.terms) == 1:
                assert rd == rp
            else:
                assert rd <= rp
                assert rd == min(g.action for g in mu.atoms)


def _dual_by_dense_solve(C, mu, degree):
    # mu detects a cycle supported at or below L iff mu, restricted to the
    # generators at or below L, is outside the row space of the boundary
    # restricted to them: the transposed system D_L^T y = mu_L is infeasible
    lo, hi = _default_dual_window(C)
    gens = build_window(C, degree, lo, hi).rows[::-1]  # action ascending
    below = {t: j for j, t in enumerate(build_window(C, degree - 1, lo, hi).rows)}
    rows, values = [], []
    for g in gens:
        img = C.boundary(C.chain({g: 1}, None)).terms
        rows.append({below[t]: c for t, c in img.items() if t in below})
        values.append(mu.evaluate(C.chain({g: 1}, None)))
    for n, g in enumerate(gens, 1):
        # the generators at or below g's level are the first n
        if n < len(gens) and gens[n].action == g.action:
            continue
        if linalg.first_inconsistent_row(rows[:n], values[:n]) is not None:
            return g.action
    return NEG_INF


def test_dual_invariant_matches_dense_solve_on_builtins():
    checked = 0
    for name in sorted(BUILTIN_FIXTURES):
        fix = BUILTIN_FIXTURES[name]()
        for eps in sorted({min(F(1, 8), fix.max_eps), min(F(1, 16), fix.max_eps)}):
            C = fix.build(eps)
            for a in fix.shipped_classes:
                mu = nv.embed_class(a, C, fix.cochains)
                degree = fix.morse.dim // 2 - a.degree
                expected = _dual_by_dense_solve(C, mu, degree)
                assert nv.dual_spectral_invariant(C, mu, degree) == expected, (name, eps)
                checked += expected != NEG_INF
    assert checked > 10
    # the curated continuous functionals, rays included, in both degrees of
    # the calibration complex: the dual reads a ray's value on every column
    _, C = cz_complex()
    continuous, _ = curated_functionals(C)
    cases = finite_rays = 0
    for mu in continuous:
        for degree in sorted({d for _, d in C.orbits.values()}):
            if not is_cocycle(mu, degree):
                continue
            expected = _dual_by_dense_solve(C, mu, degree)
            assert nv.dual_spectral_invariant(C, mu, degree) == expected, (mu.rays, degree)
            cases += 1
            finite_rays += bool(mu.rays) and expected != NEG_INF
    assert cases == 20 and finite_rays >= 6, (cases, finite_rays)
    # random atom cocycles on dressed random complexes, whose boundaries
    # are far from zero
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        C = random_instance(seed).complex
        for degree in sorted({d for _, d in C.orbits.values()}):
            gens = _degree_generators(C, degree, *_default_dual_window(C))
            if not gens:
                continue
            atoms = [(rng.choice(gens), F(rng.choice([1, -1, 2, -3]), rng.randint(1, 2)))
                     for _ in range(rng.randint(1, 3))]
            mu = DualFunctional(C, atoms, [])
            if not is_cocycle(mu, degree):
                continue
            expected = _dual_by_dense_solve(C, mu, degree)
            assert nv.dual_spectral_invariant(C, mu, degree) == expected, (seed, degree)
            checked += expected != NEG_INF
    assert checked > 30


def test_dual_invariant_reported_on_tilted():
    fix = tilted_sphere()
    C = fix.build(F(1, 8))
    a = fix.cls("one")
    mu = nv.embed_class(a, C, fix.cochains)
    rd = nv.dual_spectral_invariant(C, mu, 1)
    rep = nv.realize_flat(nv.flat(a), C, fix.pd_chains)
    rp = nv.spectral_invariant(C, rep).rho
    # comparison is reported, not asserted as a theorem; on this fixture
    # the two routes agree
    assert rd == rp


def test_vanishing_functional_detects_nothing():
    _, C = cz_complex()
    mu = DualFunctional(C, {}, [])
    assert nv.dual_spectral_invariant(C, mu, 1) == NEG_INF
    # a declared threshold above every generator level forces emptiness
    high = DualFunctional(C, {}, [], threshold=F(100))
    assert nv.dual_spectral_invariant(C, high, 1) == NEG_INF


def test_non_cocycle_rejected():
    fix = tilted_sphere()
    C = fix.build(F(1, 8))
    # the saddle dual is hit by the bottoms' boundaries, so it is not closed
    mu = DualFunctional(C, {C.generator("s"): F(1)}, [])
    assert not nv.dual_boundary(mu).is_zero()
    with pytest.raises(DomainError):
        nv.dual_spectral_invariant(C, mu, 0)


def test_intersection_radius_requires_both_balls():
    # a base point in exactly one of the two balls is refused either way round
    _, C = cz_complex()
    alpha = C.chain({C.generator("top"): 1}, None)
    near = BallSpec(alpha + C.chain({C.generator("top", (1,)): 1}, None), F(1, 2))
    far = BallSpec(alpha + C.chain({C.generator("top", (-3,)): 1}, None), F(1, 2))
    assert nv.in_ball(alpha, near) and not nv.in_ball(alpha, far)
    assert nv.ball_intersection_radius(near, near, alpha) == F(1, 2)
    for b1, b2 in ((near, far), (far, near)):
        with pytest.raises(DomainError, match="not in the intersection"):
            nv.ball_intersection_radius(b1, b2, alpha)
