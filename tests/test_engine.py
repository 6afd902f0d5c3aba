import gc
import hashlib
import itertools
import json
import random
import time
import weakref
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
    InvalidComplexError,
    NovikovScalar,
    SpectralLevelError,
    WindowTooLargeError,
)
from novispec import engine, jsonio, linalg
from novispec.chains import equivariant_image
from novispec.engine import (
    _chain_vector,
    _complex_record,
    _degree_generators,
    _prefix,
    build_window,
    default_window_bounds,
)
from novispec.fixtures import BUILTIN_FIXTURES, calibration, random_instance, sphere

REPO = Path(__file__).resolve().parents[1]
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
        [("x", F(3), 1), ("y", F(0), 0), ("z", F(2), 0)],
        {"x": {"y": mono(1, (), G0), "z": mono(-1, (), G0)}},
    )
    assert C.validate().ok
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
    r = nv.spectral_invariant(C, rep)
    assert r.spectrality == "indeterminate"
    assert r.certificate["interval"][0] == NEG_INF
    assert r.certificate["floor"] is not None


def test_oracle_raises_below_its_window_floor():
    # y q^-50 + s is homologous to s, so rho = -1/2, but the default window
    # around level 50 stops above -1/2: the class cancels at the floor.  The
    # oracle must not answer its lowest candidate level, and the engine's
    # interval must contain the true value.
    GZ = GammaGroup((F(1),), (0,))
    C = nv.FilteredComplex(
        GZ,
        [("x", F(1), 1), ("y", F(0), 0), ("s", F(-1, 2), 0)],
        {"x": {"y": mono(1, (0,), GZ)}},
    )
    assert C.validate().ok
    rep = C.chain({C.generator("y", (-50,)): 1, C.generator("s"): 1}, None)
    assert rep.level() == 50
    with pytest.raises(IndeterminateError):
        nv.oracle_rho(C, rep)
    r = nv.spectral_invariant(C, rep)
    assert r.spectrality == "indeterminate"
    low, high = r.certificate["interval"]
    assert low < F(-1, 2) < high


def test_oracle_raises_when_its_first_inconsistent_row_sits_on_the_floor():
    # dx = y + z, so y is homologous to -z at level 0.  Floored at 0, the
    # rows above the floor (y alone) are solvable and the first inconsistent
    # row is z, exactly on the floor: the system is feasible at the floor,
    # so there is no answer.  Unfloored, that row is the answer.
    C = nv.FilteredComplex(
        G0,
        [("x", F(2), 1), ("y", F(1), 0), ("z", F(0), 0)],
        {"x": {"y": mono(1, (), G0), "z": mono(1, (), G0)}},
    )
    assert C.validate().ok
    y = C.generator("y")
    assert nv.oracle_rho(C, C.chain({y: 1})) == 0 == nv.spectral_invariant(C, C.chain({y: 1})).rho
    floored = C.chain({y: 1}, F(0))
    with pytest.raises(IndeterminateError):
        nv.oracle_rho(C, floored)
    assert nv.spectral_invariant(C, floored).certificate["interval"] == (NEG_INF, 0)


def test_indeterminate_below_floor():
    # a boundary class with a finite floor cannot stabilize
    C = nv.FilteredComplex(
        G0,
        [("x", F(1), 1), ("y", F(0), 0)],
        {"x": {"y": mono(1, (), G0)}},
    )
    rep = C.chain({C.generator("y"): 1}, F(1, 2))
    with pytest.raises(IndeterminateError):
        nv.spectral_invariant(C, rep)


def test_representative_below_its_floor_is_indeterminate():
    # the staircase's `free` cycle lies at action 1: under a floor of 1 it
    # has no terms left, which says nothing about its class
    raw = jsonio.load_json(REPO / "fixtures" / "staircase.json")
    C = jsonio.complex_from_json(raw)
    free = jsonio.chain_from_json(raw["representatives"]["free"], C)
    assert nv.spectral_invariant(C, free).rho == 1
    with pytest.raises(IndeterminateError, match="at or below the precision floor"):
        nv.spectral_invariant(C, C.chain(free.terms, F(1)))


def test_oracle_and_membership_read_the_precision_floor():
    # the staircase's `mixed` cycle b + 2d + f has rho 1; floored at 1 it is
    # b + 2d = d(a), a boundary only above the floor
    raw = jsonio.load_json(REPO / "fixtures" / "staircase.json")
    C = jsonio.complex_from_json(raw)
    mixed = jsonio.chain_from_json(raw["representatives"]["mixed"], C)
    above = F(3, 2) + F(1, 13)
    assert nv.oracle_rho(C, mixed) == 1
    assert nv.image_membership(C, mixed, F(1, 5)) is False
    assert nv.image_membership(C, mixed, above) is True
    floored = C.chain(mixed.terms, F(1))
    r = nv.spectral_invariant(C, floored)
    assert r.spectrality == "indeterminate" and r.certificate["interval"] == (NEG_INF, 1)
    with pytest.raises(IndeterminateError):
        nv.oracle_rho(C, floored)
    for lam in (F(1, 5), 1 - F(1, 13)):
        with pytest.raises(IndeterminateError, match="precision floor"):
            nv.image_membership(C, floored, lam)
    assert nv.image_membership(C, floored, above) is True
    # `free` (rho 1) floored at 1 has no terms left: no answer either
    free = jsonio.chain_from_json(raw["representatives"]["free"], C)
    with pytest.raises(IndeterminateError, match="at or below the precision floor"):
        nv.oracle_rho(C, C.chain(free.terms, F(1)))


def test_window_too_large_raises_before_building():
    # three orbits over omega = 1, c1 = 0 whose one boundary term, x -> y,
    # lowers the action by 10**9: the default window spans billions of caps,
    # counted in closed form, never enumerated
    GZ = GammaGroup((F(1),), (0,))
    C = nv.FilteredComplex(
        GZ,
        [("x", F(0), 1), ("y", F(0), 0), ("s", F(0), 0)],
        {"x": {"y": mono(1, (10**9,), GZ)}},
    )
    assert C.validate().ok
    rep = C.chain({C.generator("s"): 1})
    start = time.perf_counter()
    for query in (nv.spectral_invariant, nv.oracle_rho):
        with pytest.raises(WindowTooLargeError, match=r"^window-too-large: degree \d+ on \("):
            query(C, rep)
    with pytest.raises(WindowTooLargeError):
        nv.image_membership(C, rep, F(1, 3))
    assert time.perf_counter() - start < 1


def test_window_cap_counts_generators(monkeypatch):
    # a shipped fixture over a small cap.  The cap counts generators: the
    # staircase's degree-3 window has rows and no columns, so rows x columns
    # is 0 at any size
    raw = jsonio.load_json(REPO / "fixtures" / "staircase.json")
    C = jsonio.complex_from_json(raw)
    mixed = jsonio.chain_from_json(raw["representatives"]["mixed"], C)
    lo, hi = default_window_bounds(C, mixed)
    top = build_window(C, 3, lo, hi)
    assert len(top.rows) > 10 and not top.cols
    build_window.cache_clear()
    monkeypatch.setattr(engine, "MAX_WINDOW_GENERATORS", len(top.rows) - 1)
    with pytest.raises(WindowTooLargeError, match=f"degree 3 on .* holds {len(top.rows)} gen"):
        build_window(C, 3, lo, hi)
    with pytest.raises(WindowTooLargeError):  # its columns are the same generators
        nv.spectral_invariant(C, mixed)
    monkeypatch.setattr(engine, "MAX_WINDOW_GENERATORS", len(top.rows))
    assert build_window(C, 3, lo, hi).rows == top.rows


def test_action_spectrum_trivial_group():
    C = nv.FilteredComplex(G0, [("a", F(1, 3), 0), ("b", F(-2), 1)], {})
    assert nv.action_spectrum(C, (-3, 3)) == [F(-2), F(1, 3)]


def test_action_spectrum_integer_lattice():
    C = nv.FilteredComplex(G1, [("a", F(0), 0)], {})
    assert nv.action_spectrum(C, (F(-5, 2), F(5, 2))) == [F(-2), F(-1), F(0), F(1), F(2)]


def test_action_spectrum_half_integer_period():
    G = GammaGroup((F(1), F(3, 2)), (0, 1))
    C = nv.FilteredComplex(G, [("a", F(0), 0)], {})
    assert nv.action_spectrum(C, (0, 1)) == [F(0), F(1, 2), F(1)]


def test_spectrality_membership():
    C = nv.FilteredComplex(G1, [("a", F(1, 3), 0)], {})
    assert nv.spectrality_check(F(1, 3) - 4, C)
    assert not nv.spectrality_check(F(1, 2), C)


def test_spectrality_check_matches_period_group_scan():
    # the residue lookup must agree with its definition: some base - rho
    # lies in the period group; g == 0 groups compare with the bases
    rng = random.Random(11)
    complexes = [random_instance(k).complex for k in range(40)]
    complexes.append(nv.FilteredComplex(G0, [("a", F(1, 3), 0), ("b", F(-2), 1)], {}))
    complexes.append(nv.FilteredComplex(GammaGroup((F(0),), (1,)), [("a", F(5, 2), 0)], {}))
    complexes.append(nv.FilteredComplex(G1, [], {}))  # no orbits: an empty spectrum
    on = off = trivial = 0
    for C in complexes:
        g = C.gamma.period_generator()
        bases = [C.base_action(o) for o in sorted(C.orbits)]
        lams = [F(0)] + [F(rng.randint(-60, 60), rng.choice([1, 2, 3, 7])) for _ in range(15)]
        lams += [rng.choice(bases) - rng.randint(-5, 5) * g for _ in range(10 if bases else 0)]
        for lam in lams:
            scan = any(C.gamma.in_period_group(b - lam) for b in bases)
            assert nv.spectrality_check(lam, C) == scan, (C.gamma, bases, lam)
            on += scan
            off += not scan
            trivial += g == 0
    assert on > 300 and off > 100 and trivial > 50


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
        s1 = nv.action_spectrum(C, (-2, 2))
        s2 = nv.action_spectrum(D, (-2 + shift, 2 + shift))
        assert s2 == [p + shift for p in s1]


def test_deck_shift_of_rho():
    fix = sphere()
    C = fix.build(F(1, 6))
    rep = nv.realize_flat(nv.flat(fix.cls("pt")), C, fix.pd_chains)
    base = nv.spectral_invariant(C, rep).rho
    shifted = rep.shift((2,))
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
            # the witness is homologous to the input: the difference of its
            # terms is a boundary; carrying the witness's window floor, it is
            # one above that floor only, which the oracle reports
            diff = inst.representative - r.witness
            assert nv.oracle_rho(inst.complex, inst.complex.chain(diff.terms)) == NEG_INF
            if diff.floor is not None:
                with pytest.raises(IndeterminateError):
                    nv.oracle_rho(inst.complex, diff)


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
    # at every action prefix of a window the filtered reduction's residual r
    # must keep a row of the prefix exactly when linalg.solve finds the
    # prefix system infeasible; otherwise r vanishes on the prefix and
    # rhs - r is a boundary, spanned by the reduced columns heading the prefix
    rng = random.Random(max_orbits)
    feasible = infeasible = 0
    for seed in seeds:
        inst = random_instance(seed, max_orbits=max_orbits)
        C, rep = inst.complex, inst.representative
        if rep.is_zero():
            continue
        w = build_window(C, rep.degree, *default_window_bounds(C, rep))
        dense = [[col.get(g, F(0)) for col in w.matrix] for g in w.rows]
        rows = [{j: c for j, c in enumerate(row) if c} for row in dense]
        sparse, _ = _chain_vector(w, rep)
        v = [sparse.get(i, F(0)) for i in range(len(w.rows))]
        # the representative, and a boundary (feasible at every level)
        mix = [F(rng.randint(-2, 2)) for _ in w.cols]
        image = [sum((a * m for a, m in zip(row, mix)), F(0)) for row in dense]
        reduction = linalg.Reduction(w.columns)
        for rhs in ([-c for c in v], image):
            for level in sorted({g.action for g in w.rows}):
                k = sum(1 for g in w.rows if g.action >= level)
                r = reduction.reduce(dict(enumerate(rhs)), k)
                if linalg.solve(rows[:k], rhs[:k]) is None:
                    assert r and min(r) < k, (seed, level)
                    infeasible += 1
                    continue
                assert all(i >= k for i in r), (seed, level)
                cancelled = [b - r.get(i, 0) for i, b in enumerate(rhs)]
                assert linalg.solve(rows, cancelled) is not None, (seed, level)
                # the walk subtracts only reduced columns that head rows < k
                heads = [reduction.R[j] for p, j in reduction.pivots.items() if p < k]
                spanned = [{j: col[i] for j, col in enumerate(heads) if i in col}
                           for i in range(len(rhs))]
                assert linalg.solve(spanned, cancelled) is not None, (seed, level)
                feasible += 1
    assert feasible > 20 and infeasible > 20


def test_solve_matches_definition():
    # on small sparse systems with zero, duplicate and dependent rows and
    # inconsistent right-hand sides, linalg.solve's x solves A x = b, lives
    # on the columns independent of the columns to their left, and is None
    # exactly when b reduces to nonzero against the columns; and
    # first_inconsistent_row names the first row k that makes the leading
    # rows infeasible, None exactly when the whole system is feasible
    rng = random.Random(3)
    feasible = infeasible = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("zero", "duplicate", "dependent", "random")) if rows else "random"
            if kind == "zero":
                row = {}
            elif kind == "duplicate":
                row = dict(rng.choice(rows))
            elif kind == "dependent":
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = F(rng.randint(-2, 2)), F(rng.randint(1, 2), 3)
                row = {j: v for j in range(n) if (v := s * a.get(j, 0) + t * b.get(j, 0))}
            else:
                row = {j: F(rng.randint(-3, 3), rng.randint(1, 3))
                       for j in range(n) if rng.random() < 0.5}
            rows.append(row)
        if rng.random() < 0.5:
            y = [F(rng.randint(-2, 2)) for _ in range(n)]
            rhs = [sum((c * y[j] for j, c in row.items()), F(0)) for row in rows]
        else:
            rhs = [F(rng.randint(-2, 2)) for _ in rows]
        x = linalg.solve(rows, rhs)
        k = linalg.first_inconsistent_row(rows, rhs)
        assert (k is None) == (x is not None), (rows, rhs, k)
        if k is not None:
            assert linalg.solve(rows[:k], rhs[:k]) is not None, (rows, rhs, k)
            assert linalg.solve(rows[:k + 1], rhs[:k + 1]) is None, (rows, rhs, k)
        columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
        reduction = linalg.Reduction(columns)
        r = reduction.reduce(dict(enumerate(rhs)), len(rows))
        assert (x is None) == bool(r), (rows, rhs)
        if x is None:
            infeasible += 1
            continue
        assert all(sum((c * x.get(j, 0) for j, c in row.items()), F(0)) == b
                   for row, b in zip(rows, rhs)), (rows, rhs, x)
        assert all(v and reduction.R[j] for j, v in x.items()), (rows, rhs, x)
        feasible += 1
    assert feasible > 100 and infeasible > 100


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


# rank 0; rank 1 with one-point cap lines (c1 != 0, and omega = 0); rank 1
# with c1 = 0 and a negative omega step; rank 2 with steps (3, -2) and
# (-3, -2), both of negative omega before orientation
GENERATOR_GROUPS = [
    ((), ()),
    ((1,), (2,)),
    ((0,), (3,)),
    ((F(-3, 2),), (0,)),
    ((F(-1, 2), F(1, 3)), (4, 6)),
    ((1, F(3, 2)), (2, -3)),
]


@pytest.mark.parametrize("omega, c1", GENERATOR_GROUPS)
def test_degree_generators_match_brute_force(omega, c1):
    # every cap of a box through `C.generator`, filtered to (lo, hi] and
    # sorted; orbits `p` and `a` tie in action, listed out of name order
    G = GammaGroup(omega, c1)
    C = nv.FilteredComplex(G, [("p", F(1, 2), 0), ("q", F(0), 1), ("a", F(1, 2), 0),
                               ("r", F(-7, 3), 3), ("s", F(-1), 0)], {})
    box = 32
    by_degree = {}
    for o in C.orbits:
        for cap in itertools.product(range(-box, box + 1), repeat=G.rank):
            g = C.generator(o, cap)
            by_degree.setdefault(g.degree, []).append(g)

    def brute(degree, lo, hi):
        gens = [g for g in by_degree.get(degree, ()) if lo < g.action <= hi]
        assert all(max(map(abs, g.cap), default=0) < box for g in gens)
        return sorted(gens, key=lambda g: (-g.action, g.orbit, g.cap))

    windows = [(F(-5), F(5)), (F(-37, 3), F(11, 2)), (F(2), F(2)),
               (F(-9, 7) + F(1, 13), F(20, 7) + F(1, 13))]  # off the 1/denom grid
    on_bounds = 0
    for degree in range(-8, 9):
        wide = brute(degree, F(-6), F(6))
        if wide and wide[-1].action < wide[0].action:
            # bounds on generator actions: lo is exclusive, hi inclusive
            lo, hi = wide[-1].action, wide[0].action
            found = _degree_generators(C, degree, lo, hi)
            assert [g for g in wide if g.action == lo] and [g for g in found if g.action == hi]
            assert all(g.action != lo for g in found)
            on_bounds += 1
            windows_here = windows + [(lo, hi)]
        else:
            windows_here = windows
        for lo, hi in windows_here:
            found = _degree_generators(C, degree, lo, hi)
            assert found == brute(degree, lo, hi), (degree, lo, hi)
            # one shared Fraction per distinct action
            assert len({id(g.action) for g in found}) == len({g.action for g in found})
    assert on_bounds > 0


def _window_from_images(C, degree, lo, hi):
    """A window rebuilt term by term through `equivariant_image`:
    (rows, columns, matrix, truncated)."""
    cols = _degree_generators(C, degree + 1, lo, hi)
    matrix, truncated = [], False
    for col in cols:
        image = equivariant_image(C.boundary_entries, {col: 1}, C)
        column = {g: c for g, c in image.items() if g.action > lo}
        truncated = truncated or len(column) < len(image)
        matrix.append(column)
    rows = set(_degree_generators(C, degree, lo, hi)).union(*matrix)
    return sorted(rows, key=lambda g: (-g.action, g.orbit, g.cap)), cols, matrix, truncated


def test_window_columns_match_equivariant_images():
    # build_window shifts each column's boundary terms from a per-complex
    # table; it must give the same window as the images term by term.  The
    # reversed copies list their orbits out of order, so ties in action
    # must still break on (orbit, cap).
    complexes = [random_instance(k, max_orbits=6 if k % 3 else 12).complex
                 for k in range(30)]
    complexes += [nv.FilteredComplex(C.gamma, [(o, *C.orbits[o]) for o in sorted(C.orbits)[::-1]],
                                     C.boundary_entries) for C in complexes[:10]]
    for make in BUILTIN_FIXTURES.values():
        fix = make()
        complexes.append(fix.build(min(F(1, 8), fix.max_eps)))
    windows = [(F(-5), F(5)), (F(-37, 3), F(11, 2)), (F(-1, 7), F(40, 3)), (F(-4), F(2))]
    truncated = columns = 0
    for C in complexes:
        for degree in range(-3, 4):
            for lo, hi in windows:
                w = build_window(C, degree, lo, hi)
                rows, cols, matrix, cut = _window_from_images(C, degree, lo, hi)
                assert (w.rows, w.cols, w.matrix, w.truncated) == (rows, cols, matrix, cut)
                assert w.row_index == {(g.orbit, g.cap): i for i, g in enumerate(rows)}
                # no reduction level can reach the floor
                assert all(g.action > lo for g in w.rows)
                levels = {g.action for g in rows} | {lo, hi, lo - 1, hi + 1}
                for level in levels | {lam + F(1, 97) for lam in levels}:
                    assert _prefix(w, level) == sum(1 for g in rows if g.action >= level)
                truncated += cut
                columns += len(cols)
    assert truncated > 100 and columns > 1000


def _invalid_complexes():
    """(name, complex, cycle, first violation code): the structural cases of
    acceptance criterion 8, a boundary term of the wrong degree, and two
    action raises that would land above a window top."""
    flat = GammaGroup((F(1),), (0,))
    cases = [
        ("square", nv.FilteredComplex(G1, [("x", F(2), 2), ("y", F(1), 1), ("z", F(0), 0)],
                                      {"x": {"y": mono(1, (0,), G1)},
                                       "y": {"z": mono(1, (0,), G1)}}), "z", "square"),
        ("degree", nv.FilteredComplex(G1, [("x", F(1), 1), ("y", F(0), 1)],
                                      {"x": {"y": mono(1, (0,), G1)}}), "y", "degree"),
        ("level-increase", nv.FilteredComplex(G1, [("x", F(0), 1), ("y", F(1, 2), 0)],
                                              {"x": {"y": mono(1, (0,), G1)}}),
         "y", "level-increase"),
        # dx = y + z with deg z = 2: the oracle and the engine used to answer 0
        ("off-degree", nv.FilteredComplex(G0, [("x", F(2), 1), ("y", F(0), 0), ("z", F(1), 2)],
                                          {"x": {"y": mono(1, (), G0), "z": mono(1, (), G0)}}),
         "y", "degree"),
        # a -> b raises the action, a -> c misses the degree
        ("raise-and-degree", nv.FilteredComplex(
            G1, [("a", F(0), 1), ("b", F(3), 0), ("c", F(1, 2), 3)],
            {"a": {"b": mono(1, (0,), G1), "c": mono(2, (1,), G1)}}), "b", "level-increase"),
        ("raise-flat", nv.FilteredComplex(flat, [("a", F(0), 1), ("b", F(3), 0)],
                                          {"a": {"b": mono(1, (0,), flat)}}),
         "b", "level-increase"),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, C, cycle, code", _invalid_complexes())
def test_queries_refuse_an_invalid_complex(name, C, cycle, code):
    # every query reads the per-complex record, which refuses a complex that
    # validate() rejects and names its first violation
    assert C.validate().violations[0].code == code
    gen = C.generator(cycle)
    rep = C.chain({gen: 1})
    assert C.boundary(rep).is_zero()
    mu = nv.DualFunctional(C, [(gen, 1)], [])
    queries = {
        "spectral_invariant": lambda: nv.spectral_invariant(C, rep),
        "zero class": lambda: nv.spectral_invariant(C, C.chain()),
        "oracle_rho": lambda: nv.oracle_rho(C, rep),
        "image_membership": lambda: nv.image_membership(C, rep, gen.action + F(1, 97)),
        "spectrality_check": lambda: nv.spectrality_check(gen.action, C),
        "dual_spectral_invariant": lambda: nv.dual_spectral_invariant(C, mu, gen.degree),
        "build_window": lambda: build_window(C, gen.degree, F(-5), F(5)),
    }
    for query, call in queries.items():
        with pytest.raises(InvalidComplexError, match=rf"^invariant:{code}: ") as err:
            call()
        assert isinstance(err.value, nv.StructuralError), query


def _nudged(rng, C):
    """C with one entry nudged: a boundary label, a base degree or a base
    action."""
    orbits = {o: list(ad) for o, ad in C.orbits.items()}
    boundary = {src: dict(row) for src, row in C.boundary_entries.items()}
    kinds = ["degree", "action"] + ["label"] * 2 * bool(boundary and C.gamma.rank)
    kind = rng.choice(kinds)
    if kind == "label":
        src = rng.choice(sorted(boundary))
        dst = rng.choice(sorted(boundary[src]))
        terms = dict(boundary[src][dst].terms)
        label = rng.choice(sorted(terms))
        axis = rng.randrange(C.gamma.rank)
        moved = tuple(x + (rng.choice([-1, 1]) if i == axis else 0) for i, x in enumerate(label))
        coeff = terms.pop(label)
        terms[moved] = terms.get(moved, 0) + coeff
        boundary[src][dst] = NovikovScalar(C.gamma, DOWN, terms)
    else:
        entry = orbits[rng.choice(sorted(orbits))]
        if kind == "degree":
            entry[1] += rng.choice([-2, -1, 1, 2])
        else:
            entry[0] += rng.choice([-3, -1, 1, 3]) * F(1, rng.choice([2, 7]))
    return nv.FilteredComplex(C.gamma, [(o, *ad) for o, ad in orbits.items()], boundary)


def test_record_refuses_exactly_the_mutants_validate_rejects():
    # one-entry mutants of the shipped complexes and of random instances:
    # the record refuses a mutant exactly when validate() rejects it, naming
    # its first violation; on a mutant that stays valid, the engine and the
    # oracle agree on the carried-over representative and the base cycles
    rng = random.Random(19)
    sources = []
    for path in sorted((REPO / "fixtures").glob("*.json")):
        raw = jsonio.load_json(path)
        if "orbits" in raw:
            sources.append((jsonio.complex_from_json(raw), None))
    for seed in range(40):
        inst = random_instance(seed, max_orbits=6 if seed % 2 else 12)
        sources.append((inst.complex, inst.representative))
    refused, agreed, codes = 0, 0, set()
    for C, rep in sources:
        for _ in range(5):
            M = _nudged(rng, C)
            report = M.validate()
            try:
                _complex_record(M)
            except InvalidComplexError as err:
                assert not report.ok
                assert str(err).startswith(f"invariant:{report.violations[0].code}: ")
                refused += 1
                codes.add(report.violations[0].code)
                continue
            assert report.ok
            cycles = [M.chain({M.generator(o): 1}) for o in sorted(M.orbits)]
            if rep is not None and not rep.is_zero():
                moved = {M.generator(g.orbit, g.cap): c for g, c in rep.terms.items()}
                if len({g.degree for g in moved}) == 1:
                    cycles.append(M.chain(moved))
            for cycle in cycles:
                if not M.boundary(cycle).is_zero():
                    continue
                r = nv.spectral_invariant(M, cycle)
                try:
                    o = nv.oracle_rho(M, cycle)
                except IndeterminateError:
                    o = None
                if r.spectrality == "indeterminate":
                    # the engine's interval (-inf, floor); the oracle, which
                    # also reads the image terms below the floor, may settle
                    # it at -inf
                    assert o in (None, NEG_INF)
                else:
                    assert o == r.rho
                agreed += 1
    assert codes == {"degree", "level-increase", "square"}
    assert refused >= 60 and agreed >= 100, (refused, agreed)


def test_queries_build_no_generator_views():
    # the invariant and membership read the window's integer keys; the
    # generator views `rows`, `cols` and `matrix` are built only when read
    checked = 0
    for seed in range(20):
        inst = random_instance(seed)
        C, rep = inst.complex, inst.representative
        if rep.is_zero():
            continue
        build_window.cache_clear()
        result = nv.spectral_invariant(C, rep)
        if result.spectrality != "attained":
            continue
        lam = result.rho + F(1, 97)
        if nv.spectrality_check(lam, C):
            continue
        assert nv.image_membership(C, rep, lam)
        w = build_window(C, rep.degree, *default_window_bounds(C, rep))
        assert "reduction" in vars(w)
        assert not {"rows", "cols", "matrix"} & set(vars(w)), seed
        assert result.attained_at == w.rows[w.row_index[result.certificate["stratum"][0]]]
        checked += 1
    assert checked >= 10


def _oracle_system(C, rep):
    """The oracle's sparse cancellation system, rebuilt independently:
    (rows, matrix, right-hand side, candidate levels)."""
    lo, hi = default_window_bounds(C, rep)
    images = [C.boundary(C.chain({g: 1}, None))
              for g in _degree_generators(C, rep.degree + 1, lo, hi)]
    rows = sorted(set(rep.terms).union(*(img.terms for img in images)),
                  key=lambda g: (-g.action, g.orbit, g.cap))
    mat = [{j: img.terms[g] for j, img in enumerate(images) if g in img.terms} for g in rows]
    rhs = [-rep.terms.get(g, F(0)) for g in rows]
    levels = sorted({g.action for g in rows if g.action > lo})
    return rows, mat, rhs, levels


@pytest.mark.parametrize("max_orbits", [6, 12])
def test_oracle_feasibility_is_monotone(max_orbits):
    # oracle_rho's one elimination pass, which reads the answer off the first
    # inconsistent row, is valid only if feasibility is upward-closed over
    # the sorted levels; check it at every level, and check the oracle's
    # answer against a plain linear scan
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
            _complex_record.cache_clear()
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
    sizes = [build_window.cache_info().maxsize, _complex_record.cache_info().maxsize]
    assert None not in sizes
    seed = 100
    for _ in range(max(sizes) + 1):
        inst = _nonzero_instance(seed)
        nv.spectral_invariant(inst.complex, inst.representative)
        seed = inst.seed + 1
    del inst
    gc.collect()
    assert ref() is None
