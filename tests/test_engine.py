import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import (
    DOWN,
    NEG_INF,
    DomainError,
    GammaGroup,
    IndeterminateError,
    NovikovScalar,
    SpectralLevelError,
)
from novispec import linalg
from novispec.engine import (
    _chain_vector,
    _columns,
    _degree_generators,
    _window_pad,
    build_window,
    default_window_bounds,
)
from novispec.fixtures import BUILTIN_FIXTURES, calibration, random_instance, sphere

G1 = GammaGroup((F(1),), (2,))
G0 = GammaGroup((), ())


def mono(c, l, g):
    return NovikovScalar.monomial(g, DOWN, c, l)


def test_zero_boundary_single_generator():
    C = nv.FilteredComplex(G0, [("g", F(5, 7), 0)], {})
    rep = C.chain({C.generator("g"): 3}, None)
    r = nv.spectral_invariant(C, rep)
    assert r.rho == F(5, 7)
    assert r.witness == rep
    assert r.spectrality == "attained"
    assert r.attained_at.orbit == "g"


def test_hand_reduction_case():
    # dx = y - z; the class of z reduces to y and stops at level 0
    C = nv.FilteredComplex(
        G0,
        [("x", F(1), 1), ("y", F(0), 0), ("z", F(2), 0)],
        {"x": {"y": mono(1, (), G0), "z": mono(-1, (), G0)}},
    )
    rep = C.chain({C.generator("z"): 1}, None)
    r = nv.spectral_invariant(C, rep)
    assert r.rho == 0
    assert list(r.witness.terms) == [C.generator("y")]
    assert len(r.reduced_trace) == 1
    assert r.certificate["unsolvable"]
    # brute force over z + c*(y - z): level 2 unless c = 1, then 0
    levels = set()
    for num in range(-6, 7):
        c = F(num, 2)
        chain = C.chain({C.generator("z"): 1 - c, C.generator("y"): c}, None)
        levels.add(chain.level())
    assert min(levels) == 0
    assert nv.oracle_rho(C, rep) == 0


def test_non_cycle_rejected():
    C = nv.FilteredComplex(
        G0,
        [("x", F(1), 1), ("y", F(0), 0)],
        {"x": {"y": mono(1, (), G0)}},
    )
    with pytest.raises(DomainError):
        nv.spectral_invariant(C, C.chain({C.generator("x"): 1}, None))


def test_zero_class_conventions():
    C = nv.FilteredComplex(
        G0,
        [("x", F(1), 1), ("y", F(0), 0)],
        {"x": {"y": mono(1, (), G0)}},
    )
    r = nv.spectral_invariant(C, C.chain({}, None))
    assert r.rho == NEG_INF and r.spectrality == "zero-class"
    r2 = nv.spectral_invariant(C, C.chain({C.generator("y"): 2}, None))
    assert r2.rho == NEG_INF and r2.spectrality == "zero-class"
    assert not nv.spectrality_check(r2.rho, C)


def test_small_complex_normalization_window():
    fix = sphere()
    eps = F(1, 10)
    C = fix.build(eps)
    rep = nv.realize_flat(nv.flat(fix.cls("one")), C, fix.pd_chains)
    rho = nv.spectral_invariant(C, rep).rho
    mx = fix.morse.max_value()
    assert -eps * mx <= rho <= eps * mx


def test_infinite_descent_is_indeterminate():
    # dx = y - q^B y makes the class of y reducible below every level; any
    # window shows it vanishing only above the window floor, so the result
    # must be the indeterminate interval, never a certified zero class
    GZ = GammaGroup((F(1),), (0,))
    C = nv.FilteredComplex(
        GZ,
        [("x", F(1), 1), ("y", F(0), 0)],
        {"x": {"y": mono(1, (0,), GZ) + mono(-1, (3,), GZ)}},
    )
    assert C.validate().ok
    rep = C.chain({C.generator("y"): 1}, None)
    r = nv.spectral_invariant(C, rep, max_widenings=1)
    assert r.spectrality == "indeterminate"
    assert r.certificate["interval"][0] == NEG_INF
    assert r.certificate["floor"] is not None


def test_indeterminate_below_floor():
    # a boundary class with a finite floor cannot stabilize
    C = nv.FilteredComplex(
        G0,
        [("x", F(1), 1), ("y", F(0), 0)],
        {"x": {"y": mono(1, (), G0)}},
    )
    rep = C.chain({C.generator("y"): 1}, None)
    with pytest.raises(IndeterminateError):
        nv.spectral_invariant(C, rep, floor=F(1, 2))


def test_action_spectrum_trivial_group():
    C = nv.FilteredComplex(G0, [("a", F(1, 3), 0), ("b", F(-2), 1)], {})
    spec = nv.action_spectrum(C, (-3, 3))
    assert spec.points == [F(-2), F(1, 3)]
    assert spec.period == 0
    assert spec.rational


def test_action_spectrum_integer_lattice():
    C = nv.FilteredComplex(G1, [("a", F(0), 0)], {})
    spec = nv.action_spectrum(C, (F(-5, 2), F(5, 2)))
    assert spec.points == [F(-2), F(-1), F(0), F(1), F(2)]


def test_action_spectrum_half_integer_period():
    G = GammaGroup((F(1), F(3, 2)), (0, 1))
    C = nv.FilteredComplex(G, [("a", F(0), 0)], {})
    spec = nv.action_spectrum(C, (0, 1))
    assert spec.period == F(1, 2)
    assert spec.points == [F(0), F(1, 2), F(1)]
    assert spec.rational


def test_floating_mode_not_certified():
    C = nv.FilteredComplex(G1, [("a", F(0), 0)], {})
    spec = nv.action_spectrum(C, (0, 1), mode="floating")
    assert not spec.rational
    assert not nv.spectrality_check(F(0), C, mode="floating")


def test_spectrality_membership():
    C = nv.FilteredComplex(G1, [("a", F(1, 3), 0)], {})
    assert nv.spectrality_check(F(1, 3) - 4, C)
    assert not nv.spectrality_check(F(1, 2), C)


def test_spectrality_of_engine_results():
    for seed in range(30):
        inst = random_instance(seed)
        if inst.representative.is_zero():
            continue
        r = nv.spectral_invariant(inst.complex, inst.representative)
        if r.rho != NEG_INF:
            assert nv.spectrality_check(r.rho, inst.complex)


def test_uniform_shift_moves_spectra_and_rho():
    shift = F(1, 3)
    for seed in range(8):
        inst = random_instance(seed)
        C = inst.complex
        if inst.representative.is_zero():
            continue
        D = nv.FilteredComplex(
            C.gamma,
            [(o, a + shift, d) for o, (a, d) in sorted(C.orbits.items())],
            C.boundary_entries,
        )
        rep2 = D.chain(
            {D.generator(g.orbit, g.cap): c for g, c in inst.representative.terms.items()},
            None,
        )
        r1 = nv.spectral_invariant(C, inst.representative).rho
        r2 = nv.spectral_invariant(D, rep2).rho
        if r1 == NEG_INF:
            assert r2 == NEG_INF
        else:
            assert r2 == r1 + shift
            assert nv.spectrality_check(r2, D)
        s1 = nv.action_spectrum(C, (-2, 2)).points
        s2 = nv.action_spectrum(D, (-2 + shift, 2 + shift)).points
        assert s2 == [p + shift for p in s1]


def test_deck_shift_of_rho():
    fix = sphere()
    C = fix.build(F(1, 6))
    rep = nv.realize_flat(nv.flat(fix.cls("pt")), C, fix.pd_chains)
    base = nv.spectral_invariant(C, rep).rho
    shifted = nv.gamma_shift(rep, (2,))
    assert nv.spectral_invariant(C, shifted).rho == base - C.gamma.omega((2,))


def test_oracle_equivalence_and_ground_truth():
    for seed in range(60):
        inst = random_instance(seed)
        if inst.representative.is_zero():
            continue
        r = nv.spectral_invariant(inst.complex, inst.representative)
        o = nv.oracle_rho(inst.complex, inst.representative)
        assert r.rho == o == inst.expected_rho, (seed, r.rho, o, inst.expected_rho)
        if r.rho != NEG_INF:
            assert r.witness.level() == r.rho
            # the witness is homologous to the input
            assert nv.oracle_rho(
                inst.complex, inst.representative - r.witness
            ) == NEG_INF


def test_truncation_image_membership_both_directions():
    rng = random.Random(13)
    for seed in range(20):
        inst = random_instance(seed)
        if inst.representative.is_zero():
            continue
        r = nv.spectral_invariant(inst.complex, inst.representative).rho
        for _ in range(6):
            lam = F(rng.randint(-30, 30), 7) + F(1, 13)
            if nv.spectrality_check(lam, inst.complex):
                continue
            member = nv.image_membership(inst.complex, inst.representative, lam)
            assert member == (r < lam), (seed, lam, r, member)


def test_membership_rejects_spectral_level():
    C = nv.FilteredComplex(G0, [("g", F(1), 0)], {})
    rep = C.chain({C.generator("g"): 1}, None)
    with pytest.raises(SpectralLevelError):
        nv.image_membership(C, rep, F(1))


def test_projective_invariance_of_rho():
    fix = calibration()
    C = fix.build(F(1, 9))
    for a in fix.shipped_classes:
        rep = nv.realize_flat(nv.flat(a), C, fix.pd_chains)
        base = nv.spectral_invariant(C, rep).rho
        for lam in (2, -3, F(5, 4), F(-1, 6), 7):
            assert nv.spectral_invariant(C, rep.scale(lam)).rho == base


def test_valid_fixture_reduction_respects_monotone_formulation():
    # rho < lambda iff class visible strictly below lambda, off spectrum
    inst = random_instance(3)
    if not inst.representative.is_zero():
        r = nv.spectral_invariant(inst.complex, inst.representative).rho
        if r != NEG_INF:
            assert nv.image_membership(inst.complex, inst.representative, r + F(1, 13))
            assert not nv.image_membership(
                inst.complex, inst.representative, r - F(1, 13)
            )


@pytest.mark.parametrize("max_orbits, seeds", [(6, range(40)), (12, range(10))])
def test_prefix_reduction_matches_dense_solve(max_orbits, seeds):
    # at every action prefix of a window the filtered reduction must give
    # linalg.solve's solution (free variables zero) and the same
    # infeasibility, and its residual r = rhs - D x must vanish on the prefix
    rng = random.Random(max_orbits)
    feasible = infeasible = 0
    for seed in seeds:
        inst = random_instance(seed, max_orbits=max_orbits)
        C, rep = inst.complex, inst.representative
        if rep.is_zero():
            continue
        w = build_window(C, rep.degree, *default_window_bounds(C, rep))
        dense = [[col.get(g, F(0)) for col in w.matrix] for g in w.rows]
        sparse, _ = _chain_vector(w, rep)
        v = [sparse.get(i, F(0)) for i in range(len(w.rows))]
        # the representative, and a boundary (feasible at every level)
        mix = [F(rng.randint(-2, 2)) for _ in w.cols]
        image = [sum((a * m for a, m in zip(row, mix)), F(0)) for row in dense]
        reduction = linalg.Reduction(_columns(w))
        for rhs in ([-c for c in v], image):
            for level in sorted({g.action for g in w.rows}):
                k = sum(1 for g in w.rows if g.action >= level)
                x, r = reduction.solve(dict(enumerate(rhs)), k)
                expected = linalg.solve(dense[:k], rhs[:k])
                if expected is None:
                    assert x is None, (seed, level)
                    infeasible += 1
                    continue
                assert x is not None, (seed, level)
                dense_x = [x.get(j, F(0)) for j in range(len(w.cols))]
                assert dense_x == expected
                residual = [
                    b - sum((a * c for a, c in zip(row, dense_x)), F(0))
                    for row, b in zip(dense, rhs)
                ]
                assert [r.get(i, F(0)) for i in range(len(w.rows))] == residual
                assert all(i >= k for i in r), (seed, level)
                feasible += 1
    assert feasible > 20 and infeasible > 20


def test_degree_generators_pinned():
    # any change to which capped generators a degree window holds, their
    # actions or their order moves the digest
    complexes = [
        random_instance(k, max_orbits=6 if k % 3 else 12).complex for k in range(60)
    ]
    for make in BUILTIN_FIXTURES.values():
        fix = make()
        complexes.append(fix.build(min(F(1, 8), fix.max_eps)))
    windows = [(F(-5), F(5)), (F(-37, 3), F(11, 2)), (F(-1, 7), F(40, 3))]
    calls = [
        [[g.orbit, list(g.cap), str(g.action), g.degree]
         for g in _degree_generators(C, degree, lo, hi)]
        for C in complexes
        for degree in range(-6, 7)
        for lo, hi in windows
    ]
    assert sum(map(len, calls)) == 27964
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "f2625ed7c744c0146bc5fd0d22843a5bac14d7db6a11c9f417b2ff452f3da8fa"


def _oracle_system(C, rep):
    """The oracle's dense cancellation system, rebuilt independently:
    (rows, matrix, right-hand side, candidate levels)."""
    lo, hi = default_window_bounds(C, rep)
    images = [C.boundary(C.chain({g: 1}, None))
              for g in _degree_generators(C, rep.degree + 1, lo, hi)]
    rows = sorted(set(rep.terms).union(*(img.terms for img in images)),
                  key=lambda g: (-g.action, g.orbit, g.cap))
    mat = [[img.terms.get(g, F(0)) for img in images] for g in rows]
    rhs = [-rep.terms.get(g, F(0)) for g in rows]
    levels = sorted({g.action for g in rows if g.action > lo})
    return rows, mat, rhs, levels


@pytest.mark.parametrize("max_orbits", [6, 12])
def test_oracle_feasibility_is_monotone(max_orbits):
    # bisection in oracle_rho is valid only if feasibility is upward-closed
    # over the sorted levels; check it at every level, and check the
    # bisected answer against a plain linear scan
    checked = 0
    for k in range(40):
        inst = random_instance(k, max_orbits=max_orbits)
        C, rep = inst.complex, inst.representative
        if rep.is_zero():
            continue
        rows, mat, rhs, levels = _oracle_system(C, rep)

        def feasible(level):
            picked = [i for i, g in enumerate(rows) if g.action > level]
            return linalg.solve([mat[i] for i in picked],
                                [rhs[i] for i in picked]) is not None

        feasibility = [feasible(level) for level in levels]
        assert feasibility == sorted(feasibility), (k, feasibility)
        if linalg.solve(mat, rhs) is not None:
            scan = NEG_INF
        else:
            scan = next(level for level, ok in zip(levels, feasibility) if ok)
        assert nv.oracle_rho(C, rep) == scan == inst.expected_rho, k
        checked += 1
    assert checked >= 30


def _answers(inst, lams, cold):
    """Invariant, oracle and membership answers, each from a cold or warm cache."""
    C, rep = inst.complex, inst.representative

    def call(func, *args):
        if cold:
            build_window.cache_clear()
            _window_pad.cache_clear()
        return func(C, rep, *args)

    r = call(nv.spectral_invariant)
    invariant = (r.rho, r.witness, r.reduced_trace, r.certificate)
    return invariant, call(nv.oracle_rho), [call(nv.image_membership, lam) for lam in lams]


def _nonzero_instance(seed):
    while True:
        inst = random_instance(seed)
        if not inst.representative.is_zero():
            return inst
        seed += 1


def _first_window_ref(C, rep):
    build_window(C, rep.degree, *default_window_bounds(C, rep))
    return weakref.ref(C)


def test_window_cache_is_transparent_and_bounded():
    inst = _nonzero_instance(3)
    C, rep = inst.complex, inst.representative
    bounds = default_window_bounds(C, rep)
    w = build_window(C, rep.degree, *bounds)
    assert build_window(C, rep.degree, *bounds) is w
    assert w.reduction is w.reduction

    rng = random.Random(7)
    compared = 0
    for seed in range(25):
        inst = random_instance(seed)
        if inst.representative.is_zero():
            continue
        lams = [F(rng.randint(-30, 30), 7) + F(1, 13) for _ in range(6)]
        lams = [lam for lam in lams if not nv.spectrality_check(lam, inst.complex)]
        assert _answers(inst, lams, cold=True) == _answers(inst, lams, cold=False), seed
        compared += 1
    assert compared >= 15

    # the caches are bounded: once more than `maxsize` other complexes have
    # been queried, nothing keeps the first one alive
    first = _nonzero_instance(5)
    ref = _first_window_ref(first.complex, first.representative)
    del first
    sizes = [build_window.cache_info().maxsize, _window_pad.cache_info().maxsize]
    assert None not in sizes
    seed = 100
    for _ in range(max(sizes) + 1):
        inst = _nonzero_instance(seed)
        nv.spectral_invariant(inst.complex, inst.representative)
        seed = inst.seed + 1
    del inst
    gc.collect()
    assert ref() is None
