import copy
import gc
import hashlib
import itertools
import json
import math
import random
import time
import weakref
from bisect import bisect_left, bisect_right
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
    InvalidComplexError,
    NovikovScalar,
    SpectralLevelError,
    StructuralError,
    WindowTooLargeError,
)
from novispec import chains, engine, jsonio, linalg
from novispec.chains import (
    Generator,
    compose_matrices,
    entry_shifts,
    equivariant_image,
    matrix_entries,
)
from novispec.engine import (
    _chain_vector,
    _degree_generators,
    _degree_keys,
    _prefix,
    _query,
    _valid_boundary_check,
    build_window,
    default_window_bounds,
)
from novispec.fixtures import BUILTIN_FIXTURES, calibration, random_chain, random_instance, sphere

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


def _spectrum_walk(C, lo, hi):
    """The spectrum points in [lo, hi], ascending, by walking the period
    lattice of every base action in `Fraction`s: the reference rule."""
    g = C.gamma.period_generator()
    points = set()
    for orbit in sorted(C.orbits):
        base = C.base_action(orbit)
        if g == 0:
            if lo <= base <= hi:
                points.add(base)
            continue
        for m in range(math.ceil((base - hi) / g), math.floor((base - lo) / g) + 1):
            points.add(base - m * g)
    return sorted(points)


def test_action_spectrum_matches_the_period_lattice_walk():
    # the key runs per residue give the points of the Fraction walk, with
    # window ends on the lattice (a base action, moved by whole periods)
    # and off it, a window of one point, and the trivial group
    rng = random.Random(31)
    complexes = [fix.build(min(F(1, 8), fix.max_eps))
                 for fix in (make() for make in BUILTIN_FIXTURES.values())]
    for path in sorted((REPO / "fixtures").glob("*.json")):
        raw = jsonio.load_json(path)
        if "orbits" in raw:
            complexes.append(jsonio.complex_from_json(raw))
    complexes += [random_instance(seed).complex for seed in range(30)]
    complexes.append(nv.FilteredComplex(G0, [("a", F(1, 3), 0), ("b", F(-2), 1)], {}))
    assert any(C.gamma.rank == 0 for C in complexes)
    on = points = 0
    for C in complexes:
        g = C.gamma.period_generator()
        bases = [C.base_action(o) for o in sorted(C.orbits)]
        ends = [b - k * g for b in bases for k in (-3, 0, 2)]
        ends += [F(rng.randint(-90, 90), rng.choice([1, 3, 7, 97])) for _ in range(6)]
        # one walk over the widest window; each window's points are a slice
        walk = _spectrum_walk(C, min(ends), max(ends))
        for lo in ends:
            for hi in ends:
                if hi < lo:
                    continue
                found = nv.action_spectrum(C, (lo, hi))
                expected = walk[bisect_left(walk, lo):bisect_right(walk, hi)]
                assert found == expected, (C.gamma, lo, hi)
                assert all(type(x) is F for x in found)
                on += lo in found and hi in found
                points += len(found)
        with pytest.raises(StructuralError, match="empty spectrum window"):
            nv.action_spectrum(C, (1, F(99, 100)))
    assert on > 100 and points > 1000, (on, points)


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
            scan = any(b == lam if g == 0 else ((b - lam) / g).denominator == 1 for b in bases)
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
    # must keep a row of the prefix exactly when the row elimination finds
    # the prefix system infeasible; otherwise r vanishes on the prefix and
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
        ids = _row_ids(w)  # the row ids, in the order of `w.rows`
        sparse, _ = _chain_vector(w, rep)
        v = [sparse.get(i, F(0)) for i in ids]
        # the representative, and a boundary (feasible at every level)
        mix = [F(rng.randint(-2, 2)) for _ in w.cols]
        image = [sum((a * m for a, m in zip(row, mix)), F(0)) for row in dense]
        reduction = linalg.Reduction(w.columns)
        actions = [g.action for g in w.rows]
        for rhs in ([-c for c in v], image):
            for level in sorted(set(actions)):
                k = sum(1 for a in actions if a >= level)
                bound = _prefix(w, level)  # the ids of those k rows lie below it
                assert w.count(bound) == k
                assert all((i < bound) == (j < k) for j, i in enumerate(ids))
                r = reduction.reduce(dict(zip(ids, rhs)), bound)
                if linalg.first_inconsistent_row(rows[:k], rhs[:k]) is not None:
                    assert r and min(r) < bound, (seed, level)
                    infeasible += 1
                    continue
                assert all(i >= bound for i in r), (seed, level)
                cancelled = [b - r.get(i, 0) for i, b in zip(ids, rhs)]
                assert linalg.first_inconsistent_row(rows, cancelled) is None, (seed, level)
                # the walk subtracts only reduced columns that head rows < k
                heads = [reduction.R[j] for p, j in reduction.pivots.items() if p < bound]
                spanned = [{j: col[i] for j, col in enumerate(heads) if i in col}
                           for i in ids]
                assert linalg.first_inconsistent_row(spanned, cancelled) is None, (seed, level)
                feasible += 1
    assert feasible > 20 and infeasible > 20


def test_solve_matches_definition():
    # on small sparse systems with zero, duplicate and dependent rows and
    # inconsistent right-hand sides, first_inconsistent_row names the first
    # row k that makes the leading rows infeasible, None exactly when the
    # whole system is feasible: a right-hand side A y is always feasible,
    # and the column reduction, a separate elimination, leaves a residual
    # on the rows of a prefix exactly when the prefix is infeasible
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
        consistent = rng.random() < 0.5
        if consistent:
            y = [F(rng.randint(-2, 2)) for _ in range(n)]
            rhs = [sum((c * y[j] for j, c in row.items()), F(0)) for row in rows]
        else:
            rhs = [F(rng.randint(-2, 2)) for _ in rows]
        columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
        reduction = linalg.Reduction(columns)

        def solvable(m):
            r = reduction.reduce(dict(enumerate(rhs[:m])), m)
            return all(i >= m for i in r)

        k = linalg.first_inconsistent_row(rows, rhs)
        assert (k is None) == solvable(len(rows)), (rows, rhs, k)
        if k is None:
            feasible += 1
            continue
        assert not consistent, (rows, rhs, k)
        assert solvable(k) and not solvable(k + 1), (rows, rhs, k)
        assert linalg.first_inconsistent_row(rows[:k], rhs[:k]) is None, (rows, rhs, k)
        assert linalg.first_inconsistent_row(rows[:k + 1], rhs[:k + 1]) == k, (rows, rhs, k)
        infeasible += 1
    assert feasible > 100 and infeasible > 100


def _reference_reduction(columns):
    """The column reduction as one plain loop: copy each column without its
    zero coefficients, walk it down the pivots before it, head its top row."""
    R, pivots = [], {}
    for j, col in enumerate(columns):
        r = {i: c for i, c in col.items() if c}
        while r and (p := min(r)) in pivots:
            pivot = R[pivots[p]]
            f = -r[p] / pivot[p]
            linalg.add_terms(r, ((i, f * c) for i, c in pivot.items()))
        if r:
            pivots[min(r)] = j
        R.append(r)
    return R, pivots


def test_reduction_matches_the_reference_walk(monkeypatch):
    # a column whose top row heads nothing yet is taken as it stands, shared
    # with the caller; R and the pivots must equal the plain walk's entry for
    # entry, and no column a caller passed in may change.  A window hands
    # the reduction its columns' top rows and a function that builds one:
    # there a column taken as it stands may stay unbuilt, None in R
    reduced = []  # (columns, a deep copy taken before the reduction, reduction)

    class Recorded(linalg.Reduction):
        def __init__(self, columns, tops=None):
            if tops is None:
                before = copy.deepcopy(columns)
            else:
                before = [columns(j) for j in range(len(tops))]
                assert tops == [min(col) if col else None for col in before]
            super().__init__(columns, tops)
            reduced.append((columns, before, self))

    monkeypatch.setattr(linalg, "Reduction", Recorded)
    # the window columns of seeded instances, read by an invariant and probes
    windows = 0
    for max_orbits in (6, 12):
        for seed in range(100):
            inst = random_instance(seed, max_orbits=max_orbits)
            C, rep = inst.complex, inst.representative
            if rep.is_zero():
                continue
            w = _query(C, rep).window()
            before = copy.deepcopy(w.columns)
            nv.spectral_invariant(C, rep)
            half = F(1, 2 * w.denom)  # off the 1/denom grid, so off the spectrum
            for i in _row_ids(w)[::7]:
                lam = F(-(i // w.width), w.denom) + half
                if rep.floor is None or lam > rep.floor:
                    nv.image_membership(C, rep, lam)
            assert _query(C, rep).window() is w
            assert w.columns == before, (max_orbits, seed)
            windows += 1
    assert windows > 150 and len(reduced) == windows
    # the dual's columns on the builtins: a column gains the functional's
    # row where the functional is nonzero, and many are empty
    for name in sorted(BUILTIN_FIXTURES):
        fix = BUILTIN_FIXTURES[name]()
        C = fix.build(min(F(1, 8), fix.max_eps))
        for a in fix.shipped_classes:
            mu = nv.embed_class(a, C, fix.cochains)
            nv.dual_spectral_invariant(C, mu, fix.morse.dim // 2 - a.degree)
    assert len(reduced) > windows + 10
    # random sparse systems with zero coefficients, empty and repeated columns
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(1, 7)
        columns = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("empty", "repeat", "copy", "random")) if columns else "random"
            if kind == "empty":
                columns.append({})
            elif kind == "repeat":
                columns.append(rng.choice(columns))  # the same dict twice
            elif kind == "copy":
                columns.append(dict(rng.choice(columns)))
            else:
                columns.append({i: F(rng.randint(-2, 2), rng.randint(1, 3))
                                for i in range(n) if rng.random() < 0.5})
        linalg.Reduction(columns)
    shared = walked = 0
    for columns, before, reduction in reduced:
        R, pivots = _reference_reduction(before)
        assert reduction.pivots == pivots
        if callable(columns):  # unbuilt: a column the walk leaves as it stands
            assert [ref if r is None else r for r, ref in zip(reduction.R, R)] == R
            assert all(ref == col for r, ref, col in zip(reduction.R, R, before) if r is None)
            shared += sum(r is None and bool(col) for r, col in zip(reduction.R, before))
            walked += sum(bool(r) and r != col for r, col in zip(reduction.R, before))
            continue
        assert columns == before
        assert reduction.R == R
        for r, col in zip(reduction.R, columns):
            if r is col:
                shared += 1
            elif r:
                walked += 1
    assert shared > 1000 and walked > 100, (shared, walked)


def test_window_reduction_reads_columns_on_demand():
    # a window's reduction reads each column's top row off its id and the
    # least offset of its orbit, and builds a column only when it walks or
    # subtracts it; its pivots, every column it stores and every residual of
    # the representative, at each level of the invariant's walk and at each
    # probe prefix, must equal those of the reduction of the columns built
    # from the boundary images term by term, on the query windows, on
    # windows narrowed to cut columns and on the builtins
    cases = []  # (complex, representative, lo, hi)
    for max_orbits in (6, 12):
        for seed in range(100):
            inst = random_instance(seed, max_orbits=max_orbits)
            C, rep = inst.complex, inst.representative
            if rep.is_zero():
                continue
            lo, hi = _query(C, rep).bounds
            cases += [(C, rep, lo, hi), (C, rep, max(lo, rep.level() - 1), hi)]
    for name in sorted(BUILTIN_FIXTURES):
        fix = BUILTIN_FIXTURES[name]()
        C = fix.build(min(F(1, 8), fix.max_eps))
        for a in fix.shipped_classes:
            rep = nv.realize_flat(nv.flat(a), C, fix.pd_chains)
            if not rep.is_zero():
                cases.append((C, rep, *_query(C, rep).bounds))
    truncated = built = unbuilt = walks = 0
    for C, rep, lo, hi in cases:
        w = build_window(C, rep.degree, lo, hi)
        rows, _, matrix, cut = _window_from_images(C, rep.degree, lo, hi)
        ranks = C.action_keys.rank
        ids = {g: g.neg_key * w.width + ranks[g.orbit] for g in rows}
        explicit = linalg.Reduction([{ids[g]: c for g, c in col.items()} for col in matrix])
        reduction = w.reduction
        v, _ = _chain_vector(w, rep)
        r = v
        while r:  # the invariant's walk: one level at a time
            k = (min(r) // w.width + 1) * w.width
            residual = reduction.reduce(r, k)
            assert residual == explicit.reduce(r, k), (rep, lo, k)
            walks += 1
            if residual and min(residual) < k:
                break
            r = residual
        for lam in _off_spectrum(C, rep):
            k = _prefix(w, lam)
            assert reduction.reduce(v, k) == explicit.reduce(v, k), (rep, lo, lam)
            walks += 1
        # the queries leave most columns unbuilt; the sum of the columns is a
        # boundary, and walked down every row it builds every pivot column
        unbuilt += sum(col is None and bool(image) for col, image in zip(reduction.R, matrix))
        boundary = {}
        for col in explicit.R:
            linalg.add_terms(boundary, col.items())
        assert reduction.reduce(boundary) == explicit.reduce(boundary) == {}
        assert reduction.pivots == explicit.pivots == linalg.Reduction(w.columns).pivots
        assert w.truncated == cut
        for j, col in enumerate(reduction.R):
            if col is not None:
                assert col == explicit.R[j], (rep, lo, j)
                built += bool(col)
        truncated += cut
    assert truncated > 100 and built > 1000 and unbuilt > 1000 and walks > 2000, (
        truncated, built, unbuilt, walks)


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


def test_default_window_bounds_pinned():
    # the zero chain's query bounds and the dual window, on the builtins, the
    # shipped complexes and random instances: any change to the pad
    # arithmetic moves the digest
    complexes = []
    for make in BUILTIN_FIXTURES.values():
        fix = make()
        complexes.append(fix.build(min(F(1, 8), fix.max_eps)))
    for path in sorted((REPO / "fixtures").glob("*.json")):
        raw = jsonio.load_json(path)
        if "orbits" in raw:
            complexes.append(jsonio.complex_from_json(raw))
    complexes += [random_instance(seed).complex for seed in range(30)]
    bounds = [[str(x) for x in (*default_window_bounds(C, C.chain()),
                                *nv.dual._default_dual_window(C))]
              for C in complexes]
    assert len(bounds) == 39
    digest = hashlib.sha256(json.dumps(bounds).encode()).hexdigest()
    assert digest == "a31155d3583c0263e75d316e513392637afcaa9ad663461c0b74fcb85cfdf8b4"


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
    assert on_bounds > 0


def _row_ids(w):
    """A window's row ids, ascending."""
    return sorted(i for run in w.runs for i in run)


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
                # no reduction level can reach the floor
                assert all(g.action > lo for g in w.rows)
                actions = [g.action for g in rows]
                levels = set(actions) | {lo, hi, lo - 1, hi + 1}
                for level in levels | {lam + F(1, 97) for lam in levels}:
                    assert w.count(_prefix(w, level)) == sum(1 for a in actions if a >= level)
                truncated += cut
                columns += len(cols)
    assert truncated > 100 and columns > 1000


def _twins_complex():
    """omega = (1, 3/2), c1 = (0, 1): caps (3, 0) and (0, 2) have equal omega
    and different Chern numbers, so orbit b carries both at one action, in
    two degrees."""
    G = GammaGroup((F(1), F(3, 2)), (0, 1))
    one, k, h = (0, 0), (1, 0), (0, 1)
    return nv.FilteredComplex(
        G,
        [("a", F(0), 2), ("b", F(-1, 3), 1), ("c", F(1), 3), ("e", F(1, 2), 2)],
        {"a": {"b": NovikovScalar(G, DOWN, {one: 1, k: 1}), "c": mono(1, h, G)},
         "b": {"e": mono(1, h, G)},
         "c": {"e": NovikovScalar(G, DOWN, {one: -1, k: -1})}},
    )


def test_windows_address_rows_by_orbit_and_action_key():
    # on the twins complex a window addresses its rows and its columns'
    # targets by (orbit, -action key) within one degree, and the cycle check
    # sums by the same key, so both must agree with the images term by term
    C = _twins_complex()
    assert C.validate().ok
    twins = C.generator("b", (3, 0)), C.generator("b", (0, 2))
    assert twins[0].action == twins[1].action and twins[0].degree != twins[1].degree
    caps_at = {}  # {(orbit, -action key): caps seen in any degree}
    for degree in range(-7, 6):
        for lo, hi in [(F(-8), F(5)), (F(-37, 3), F(11, 2)), (F(-1, 7), F(4, 3))]:
            w = build_window(C, degree, lo, hi)
            rows, cols, matrix, cut = _window_from_images(C, degree, lo, hi)
            assert (w.rows, w.cols, w.matrix, w.truncated) == (rows, cols, matrix, cut)
            ranks = C.action_keys.rank
            assert _row_ids(w) == [g.neg_key * w.width + ranks[g.orbit] for g in w.rows]
            assert w.generators(_row_ids(w), degree) == w.rows
            for g in w.rows:
                caps_at.setdefault((g.orbit, g.neg_key), set()).add(g.cap)
    key = -twins[0].action * C.action_keys.denom
    assert {(3, 0), (0, 2)} <= caps_at[("b", key)]
    rng = random.Random(27)
    outcomes = Counter()
    for degree in range(-5, 5):
        for _ in range(20):
            chain = random_chain(rng, C, degree)
            for cand in (chain, C.boundary(chain)):
                actions = {g.action for g in C.boundary(cand).terms}
                for floor in {None} | {a + d for a in actions for d in (0, F(1, 97), -F(1, 97))}:
                    floored = C.chain(cand.terms, floor)
                    expected = C.boundary(floored).is_zero()
                    assert C.is_cycle(floored) == expected, (cand, floor)
                    outcomes[expected, floor is None] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_reduced_witness_equals_the_public_constructor():
    # a witness that is not the representative is built from the window's
    # rows in index order without the public constructor's checks; it must
    # be the chain that constructor gives on the same terms and floor
    cases = []
    for seed in range(200):
        inst = random_instance(seed)
        cases.append((inst.complex, inst.representative))
    for make in BUILTIN_FIXTURES.values():
        fix = make()
        C = fix.build(min(F(1, 8), fix.max_eps))
        for chain in fix.pd_chains.values():
            rep = C.chain([(C.generator(point), F(pc)) for pc, point in chain])
            if C.boundary(rep).is_zero():
                cases.append((C, rep))
    # plus a boundary from one degree up, which the reduction must remove
    rng = random.Random(27)
    cases += [(C, rep + C.boundary(random_chain(rng, C, rep.degree + 1)))
              for C, rep in cases if not rep.is_zero()]
    seen = Counter()
    for C, rep in cases:
        # a floor 1/3 below the top term, and one 1/3 below every term
        floors = [None]
        if rep.terms:
            floors += {rep.level() - F(1, 3), min(g.action for g in rep.terms) - F(1, 3)}
        for floor in floors:
            floored = C.chain(rep.terms, floor)
            try:
                result = nv.spectral_invariant(C, floored)
            except IndeterminateError:
                seen["indeterminate"] += 1
                continue
            witness = result.witness
            if witness is floored:
                seen["own"] += 1
                continue
            ref = C.chain(list(witness.terms.items()), witness.floor)
            assert list(witness.terms.items()) == list(ref.terms.items())
            assert (witness.floor, witness.degree) == (ref.floor, ref.degree)
            seen["new", result.spectrality, bool(result.reduced_trace), floor is not None] += 1
    assert seen["own"] >= 50, seen
    assert seen["new", "attained", True, False] >= 40, seen
    assert seen["new", "attained", True, True] >= 40, seen
    assert seen["new", "attained", False, True] >= 40, seen


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
    # every query refuses a complex that validate() rejects and names its
    # first violation
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


# validate()'s violations (code, witness, message) on each invalid complex
_VIOLATIONS = {
    "square": [("square", ("x", "z", (0,)), "d(d(x)) has residual 1*q[0] on z")],
    "degree": [("degree", ("x", "y", (0,)), "entry x->y at (0,) maps degree 1 to 1")],
    "level-increase": [("level-increase", ("x", "y", (0,)),
                        "entry x->y at (0,) raises action 0 -> 1/2")],
    "off-degree": [("degree", ("x", "z", ()), "entry x->z at () maps degree 1 to 2")],
    "raise-and-degree": [("level-increase", ("a", "b", (0,)),
                          "entry a->b at (0,) raises action 0 -> 3"),
                         ("degree", ("a", "c", (1,)), "entry a->c at (1,) maps degree 1 to -1")],
    "raise-flat": [("level-increase", ("a", "b", (0,)),
                    "entry a->b at (0,) raises action 0 -> 3")],
}


@pytest.mark.parametrize("name, C, cycle, code", _invalid_complexes())
def test_violation_text_is_pinned(name, C, cycle, code):
    # the report and the refusal name the violations in these exact words
    pinned = _VIOLATIONS[name]
    assert [(v.code, v.witness, v.message) for v in C.validate().violations] == pinned
    code, witness, message = pinned[0]
    with pytest.raises(InvalidComplexError) as err:
        nv.spectral_invariant(C, C.chain({C.generator(cycle): 1}))
    assert str(err.value) == f"invariant:{code}: {message} (witness {witness})"


def _reference_violations(C):
    """(code, witness) of each violation of C's boundary, in validate()'s
    order, decided in `Fraction`s from `entry_shifts` and one d∘d apart
    from `FilteredComplex.boundary_check`."""
    out = []
    for src, dst, label, shift, dshift in entry_shifts(C.boundary_entries, C, C):
        out += [("degree", (src, dst, label))] * (dshift != -1)
        out += [("level-increase", (src, dst, label))] * (shift > 0)
    square = compose_matrices(C.boundary_entries, C.boundary_entries)
    out += [("square", (src, dst, next(iter(s.terms))))
            for src, dst, s in matrix_entries(square) if not s.is_zero()]
    return out


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
    # validate() names the violations an independent Fraction check finds,
    # and the engine refuses a mutant exactly when validate() rejects it,
    # naming its first violation; on a mutant that stays valid, the engine
    # and the oracle agree on the carried-over representative and the base
    # cycles
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
            assert [(v.code, v.witness) for v in report.violations] == _reference_violations(M)
            try:
                _valid_boundary_check(M)
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


def test_window_ids_name_the_degree_generators(monkeypatch):
    # a window's row and column ids, sorted and decoded, are `_degree_keys`
    # exactly; `_chain_vector` maps each decoded generator back to its id;
    # the row count below each level's id bound is the count of rows at or
    # above the level; and a window over the cap raises before any id is
    # read or any window is built
    complexes = [random_instance(seed, max_orbits=n).complex
                 for n in (6, 12) for seed in range(100)]
    complexes += [nv.FilteredComplex(C.gamma, [(o, *C.orbits[o]) for o in sorted(C.orbits)[::-1]],
                                     C.boundary_entries) for C in complexes[:20]]
    for make in BUILTIN_FIXTURES.values():
        fix = make()
        complexes.append(fix.build(min(F(1, 8), fix.max_eps)))
    complexes.append(_twins_complex())
    windows = [(F(-5), F(5)), (F(-37, 3), F(11, 2))]
    cap = engine.MAX_WINDOW_GENERATORS
    rows = levels = over = 0
    for C in complexes:
        for degree in range(-2, 3):
            for lo, hi in windows:
                w = build_window(C, degree, lo, hi)
                ids = _row_ids(w)
                keys = _degree_keys(C, degree, lo, hi)
                assert [tuple(g[:4]) for g in w.generators(ids, degree)] == keys
                assert [tuple(g[:4]) for g in w.cols] == _degree_keys(C, degree + 1, lo, hi)
                assert w.col_ids == sorted(w.col_ids) and len(set(ids)) == len(ids)
                gens = [Generator(*key, w.denom) for key in keys]
                vector, dropped = _chain_vector(w, C.chain({g: j + 1 for j, g in enumerate(gens)}))
                assert vector == {i: j + 1 for j, i in enumerate(ids)} and not dropped
                actions = [g.action for g in gens]
                asc = sorted(actions)
                for level in {*actions, lo, hi} | {a + F(1, 97) for a in actions[:5]}:
                    # the rows with action >= level
                    assert w.count(_prefix(w, level)) == len(asc) - bisect_left(asc, level)
                    levels += 1
                rows += len(ids)
                # over the cap by one, in the rows or the columns (checked first)
                for size in {len(ids), len(w.col_ids)} - {0}:
                    d = degree + 1 if len(w.col_ids) >= size else degree
                    with monkeypatch.context() as m:
                        m.setattr(engine, "MAX_WINDOW_GENERATORS", size - 1)
                        m.setattr(chains.ActionKeys, "run_keys", _never)
                        m.setattr(engine, "Window", _never)
                        with pytest.raises(WindowTooLargeError, match=f"degree {d} on "):
                            build_window(C, degree, lo, hi)
                    over += 1
                assert engine.MAX_WINDOW_GENERATORS == cap
    assert rows > 10_000 and levels > 10_000 and over > 1000, (rows, levels, over)


def _never(*args, **kwargs):
    raise AssertionError("reached past the window cap")


def test_queries_build_no_generator_views():
    # the invariant and membership read the window's integer keys; the
    # generator views `rows`, `cols` and `matrix` are built only when read
    checked = 0
    for seed in range(20):
        inst = random_instance(seed)
        C, rep = inst.complex, inst.representative
        if rep.is_zero():
            continue
        result = nv.spectral_invariant(C, rep)
        if result.spectrality != "attained":
            continue
        lam = result.rho + F(1, 97)
        if nv.spectrality_check(lam, C):
            continue
        assert nv.image_membership(C, rep, lam)
        w = _query(C, rep).window()
        assert "reduction" in vars(w)
        assert not {"rows", "cols", "matrix"} & set(vars(w)), seed
        top = result.certificate["stratum"][0]
        (i,), _ = _chain_vector(w, C.chain({C.generator(*top): 1}))
        assert any(i in run for run in w.runs)
        assert w.generators([i], w.degree) == [result.attained_at]
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


@pytest.mark.parametrize("max_orbits", [6, 8, 12])
def test_oracle_feasibility_is_monotone(max_orbits):
    # oracle_rho's one elimination pass, which reads the answer off the first
    # inconsistent row, is valid only if feasibility is upward-closed over
    # the sorted levels; check it at every level, and check the oracle's
    # answer, sorted on its integer keys, against a plain linear scan over
    # `Generator` rows, on every kind of period group
    checked = 0
    groups = set()
    for k in range(40):
        inst = random_instance(k, max_orbits=max_orbits)
        C, rep = inst.complex, inst.representative
        if rep.is_zero():
            continue
        rows, mat, rhs, levels = _oracle_system(C, rep)

        def feasible(level):
            picked = [i for i, g in enumerate(rows) if g.action > level]
            return linalg.first_inconsistent_row([mat[i] for i in picked],
                                                 [rhs[i] for i in picked]) is None

        feasibility = [feasible(level) for level in levels]
        assert feasibility == sorted(feasibility), (k, feasibility)
        if linalg.first_inconsistent_row(mat, rhs) is None:
            scan = NEG_INF
        else:
            scan = next(level for level, ok in zip(levels, feasibility) if ok)
        assert nv.oracle_rho(C, rep) == scan == inst.expected_rho, k
        checked += 1
        groups.add(C.gamma.rank)
        if C.gamma.omega_units()[1] > 1:
            groups.add("fractional omega")
    assert checked >= 30
    assert groups >= {0, 1, 2, "fractional omega"}, groups


def _clear_caches():
    engine._last_query = None


def _answers(inst, lams, cold):
    """Invariant, oracle and membership answers, each from a cold or warm cache."""
    C, rep = inst.complex, inst.representative

    def call(func, *args):
        if cold:
            _clear_caches()
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
    lam = next(lam for lam in (rep.level() - F(1, k) for k in (97, 89, 83))
               if not nv.spectrality_check(lam, C))
    nv.image_membership(C, rep, lam)
    return weakref.ref(C)


def test_window_cache_is_transparent_and_bounded():
    inst = _nonzero_instance(3)
    C, rep = inst.complex, inst.representative
    w = _query(C, rep).window()
    assert _query(C, rep).window() is w
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

    # the cache is bounded: the query state of the last representative is
    # all that keeps its complex alive, so one query of another
    # representative frees the first complex
    first = _nonzero_instance(5)
    ref = _first_window_ref(first.complex, first.representative)
    del first
    gc.collect()
    assert ref() is not None
    inst = _nonzero_instance(100)
    nv.spectral_invariant(inst.complex, inst.representative)
    del inst
    gc.collect()
    assert ref() is None

    # a window and its reduction form no reference cycle, so the query
    # state of the next representative frees the window at once, without
    # the cyclic garbage collector
    inst, other = _nonzero_instance(7), _nonzero_instance(8)
    nv.spectral_invariant(inst.complex, inst.representative)
    window = weakref.ref(_query(inst.complex, inst.representative).window())
    gc.disable()
    try:
        nv.spectral_invariant(other.complex, other.representative)
        assert window() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the per-representative query state


def _outcome(func, C, rep, *args):
    """What `func(C, rep, *args)` answers, or the type of what it raised."""
    try:
        r = func(C, rep, *args)
    except Exception as err:
        return type(err)
    if isinstance(r, nv.SpectralResult):
        return r.rho, r.witness, r.reduced_trace, r.spectrality, r.certificate, r.attained_at
    return r


def _all_answers(C, rep, lams, cold):
    """Invariant, oracle and membership outcomes of `rep`, cold or warm."""
    queries = [(nv.spectral_invariant,), (nv.oracle_rho,)]
    queries += [(nv.image_membership, lam) for lam in lams]
    out = []
    for func, *args in queries:
        if cold:
            _clear_caches()
        out.append(_outcome(func, C, rep, *args))
    return out


def _off_spectrum(C, rep, count=8):
    """Off-spectrum levels below the level of `rep`, above it and above the
    top of its window."""
    level = rep.level()
    hi = default_window_bounds(C, rep)[1]
    candidates = [level + F(k, 7) + F(1, 13) for k in range(-2 * count, count, 3)]
    candidates += [hi + F(1, 13), hi + 5]
    return [lam for lam in candidates if not nv.spectrality_check(lam, C)]


def test_query_state_stores_no_failure():
    # a check that raises leaves nothing behind: the call raises again, also
    # right after a probe of the same representative or complex succeeded
    C = nv.FilteredComplex(G0, [("x", F(1), 1), ("y", F(0), 0)], {"x": {"y": mono(1, (), G0)}})
    D = nv.FilteredComplex(G0, [("x", F(1), 1), ("y", F(0), 0)], {"x": {"y": mono(1, (), G0)}})
    x, y = C.chain({C.generator("x"): 1}), C.chain({C.generator("y"): 1})
    bad = nv.FilteredComplex(G1, [("x", F(0), 1), ("y", F(1, 2), 0)],
                             {"x": {"y": mono(1, (0,), G1)}})
    z = bad.chain({bad.generator("y"): 1})
    raw = jsonio.load_json(REPO / "fixtures" / "staircase.json")
    S = jsonio.complex_from_json(raw)
    floored = S.chain(jsonio.chain_from_json(raw["representatives"]["mixed"], S).terms, F(1))
    GZ = GammaGroup((F(1),), (0,))
    huge = nv.FilteredComplex(GZ, [("x", F(0), 1), ("y", F(0), 0), ("s", F(0), 0)],
                              {"x": {"y": mono(1, (10**9,), GZ)}})
    s = huge.chain({huge.generator("s"): 1})
    queries = [nv.spectral_invariant, nv.oracle_rho,
               lambda C, rep: nv.image_membership(C, rep, F(1, 2))]
    _clear_caches()
    for _ in range(2):
        assert nv.image_membership(C, y, F(1, 2)) is True  # y = dx
        assert nv.image_membership(S, floored, F(3, 2) + F(1, 13)) is True
        for query in queries:
            with pytest.raises(DomainError, match="not a cycle"):
                query(C, x)
            with pytest.raises(StructuralError, match="different complex"):
                query(D, y)
            with pytest.raises(InvalidComplexError, match="^invariant:level-increase: "):
                query(bad, z)
            with pytest.raises(WindowTooLargeError):
                query(huge, s)
        with pytest.raises(IndeterminateError, match="precision floor"):
            nv.image_membership(S, floored, F(1, 5))


def test_query_state_follows_the_chain_not_its_level():
    # an equal but distinct chain gets the same answers; a chain on the same
    # complex, in the same degree and at the same level, but with other
    # terms, gets its own
    inst = _nonzero_instance(11)
    C, rep = inst.complex, inst.representative
    twin, double = C.chain(rep.terms, rep.floor), rep.scale(2)
    assert twin == rep and twin is not rep and double.level() == rep.level()
    lams = _off_spectrum(C, rep)
    cold = _all_answers(C, rep, lams, cold=True)
    doubled = _all_answers(C, double, lams, cold=True)
    assert cold[0][1] != doubled[0][1]  # the witnesses differ
    _clear_caches()
    for chain, expected in ((rep, cold), (twin, cold), (double, doubled), (rep, cold)):
        assert _all_answers(C, chain, lams, cold=False) == expected


def test_query_state_interleaves_past_its_bound():
    # A, B, C, D, E, F, then A again: representatives that replace each
    # other's query state, two on each complex, then short-lived copies of
    # them, each freed before the next is made, so a copy may take over the
    # id of the last.  Every answer is the one from cold caches.
    reps = []
    for seed in (3, 8, 13):
        inst = _nonzero_instance(seed)
        reps += [(inst.complex, inst.representative), (inst.complex, inst.representative.scale(-3))]
    order = [*range(len(reps)), 0, 3, 1]
    expected = {}
    for i, (C, rep) in enumerate(reps):
        lams = _off_spectrum(C, rep, count=4)
        expected[i] = lams, _all_answers(C, rep, lams, cold=True)
    _clear_caches()
    for i in order:
        C, rep = reps[i]
        lams, answers = expected[i]
        assert _all_answers(C, rep, lams, cold=False) == answers, i
    for i in order:
        C, rep = reps[i]
        lams, answers = expected[i]
        copy = C.chain(rep.terms, rep.floor)
        assert _all_answers(C, copy, lams, cold=False) == answers, i
        del copy


def test_cycle_check_matches_the_boundary():
    # the query's cycle check sums the complex's boundary table in integer
    # keys; it accepts exactly the chains whose `FilteredComplex.boundary`
    # vanishes, also with a floor exactly at an image term's action (the
    # term drops) and 1/97 either side of it
    rng = random.Random(23)
    sources = []
    for path in sorted((REPO / "fixtures").glob("*.json")):
        raw = jsonio.load_json(path)
        if "orbits" in raw:
            C = jsonio.complex_from_json(raw)
            reps = [jsonio.chain_from_json(r, C) for r in raw.get("representatives", {}).values()]
            sources.append((C, reps))
    for make in BUILTIN_FIXTURES.values():
        fix = make()
        C = fix.build(min(F(1, 8), fix.max_eps))
        sources.append((C, [C.chain([(C.generator(point), F(pc)) for pc, point in chain])
                            for chain in fix.pd_chains.values()]))
    for seed in range(40):
        inst = random_instance(seed, max_orbits=6 if seed % 2 else 12)
        sources.append((inst.complex, [inst.representative]))
    outcomes = Counter()
    for C, reps in sources:
        degrees = sorted({d for _, d in C.orbits.values()})
        chains_ = reps + [random_chain(rng, C, rng.choice(degrees)) for _ in range(12)]
        for chain in chains_:
            actions = {g.action for g in C.boundary(C.chain(chain.terms)).terms}
            floors = {None} | {a + d for a in actions for d in (0, F(1, 97), -F(1, 97))}
            for floor in sorted(floors, key=lambda f: (f is not None, f)):
                floored = C.chain(chain.terms, floor)
                expected = C.boundary(floored).is_zero()
                assert C.is_cycle(floored) == expected, (chain, floor)
                outcomes[expected, floor is None] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_cycle_check_refuses_a_foreign_chain_and_an_invalid_complex():
    C = nv.FilteredComplex(G0, [("x", F(1), 1), ("y", F(0), 0)], {"x": {"y": mono(1, (), G0)}})
    D = nv.FilteredComplex(G0, [("x", F(1), 1), ("y", F(0), 0)], {})
    assert C.is_cycle(C.chain({C.generator("y"): 1}))
    assert not C.is_cycle(C.chain({C.generator("x"): 1}))
    assert C.is_cycle(C.chain({C.generator("x"): 1}, floor=0))  # the image lies at the floor
    with pytest.raises(StructuralError, match="does not live in this complex"):
        C.is_cycle(D.chain({D.generator("y"): 1}))
    # y -> x raises the action: refused as every query refuses it
    up = nv.FilteredComplex(G0, [("x", F(1), 0), ("y", F(0), 1)], {"y": {"x": mono(1, (), G0)}})
    with pytest.raises(InvalidComplexError, match="^invariant:level-increase: "):
        up.is_cycle(up.chain({up.generator("y"): 1}))


def test_one_window_reduction_and_cycle_check_per_representative(monkeypatch):
    # a timing-free guard on the query state: the invariant, the oracle and
    # any number of probes of one representative build one window, one
    # reduction and check the cycle once, on the complex's boundary table:
    # no `FilteredComplex.boundary`, no equivariant image, and one cap line
    # per (complex, Chern number), kept as long as the complex; the oracle
    # builds no window, a probe above the representative's level does not
    # walk the reduction, and an invariant attained as the representative
    # stands returns it as its witness and builds no chain; no query reads
    # the window's column list, and the reduction builds each column once
    counts = Counter()
    lines = Counter()  # cap_line calls per (group, Chern number)
    built = Counter()  # column builds per column id, in one representative's window
    reduce, cap_line = linalg.Reduction.reduce, nv.GammaGroup.cap_line
    chain_init = chains.NovikovChain.__init__
    column = engine._column

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return counted

    class CountedReduction(linalg.Reduction):
        def __init__(self, columns, tops=None):
            counts["Reduction"] += 1
            super().__init__(columns, tops)

    def counted_reduce(self, b, k=math.inf):
        counts["reduce"] += 1
        return reduce(self, b, k)

    def counted_cap_line(self, c1):
        lines[id(self), c1] += 1
        return cap_line(self, c1)

    def counted_column(offsets, width, floor, col_ids, j):
        built[col_ids[j]] += 1
        return column(offsets, width, floor, col_ids, j)

    def read_columns(self):
        raise AssertionError("a query read the window's column list")

    image = counting("equivariant_image", chains.equivariant_image)
    monkeypatch.setattr(chains, "equivariant_image", image)
    monkeypatch.setattr(engine, "equivariant_image", image, raising=False)
    monkeypatch.setattr(engine, "build_window", counting("build_window", engine.build_window))
    monkeypatch.setattr(nv.FilteredComplex, "is_cycle",
                        counting("cycle", nv.FilteredComplex.is_cycle))
    monkeypatch.setattr(nv.FilteredComplex, "boundary",
                        counting("boundary", nv.FilteredComplex.boundary))
    monkeypatch.setattr(chains.NovikovChain, "__init__", counting("NovikovChain", chain_init))
    monkeypatch.setattr(nv.GammaGroup, "cap_line", counted_cap_line)
    monkeypatch.setattr(linalg, "Reduction", CountedReduction)
    monkeypatch.setattr(linalg.Reduction, "reduce", counted_reduce)
    monkeypatch.setattr(engine, "_column", counted_column)
    monkeypatch.setattr(engine.Window, "columns", property(read_columns))
    checked = own = materialised = 0
    for seed in range(100):
        inst = _nonzero_instance(seed)
        C, rep = inst.complex, inst.representative
        lams = _off_spectrum(C, rep, count=12)
        above = [lam for lam in lams if lam > rep.level()]
        _clear_caches()
        counts.clear()
        lines.clear()
        # a probe above the level, first: the window is built, not reduced
        assert nv.image_membership(C, rep, above[0]) is True
        assert counts["Reduction"] == 0 and counts["cycle"] == 1
        assert counts["build_window"] == 1
        assert max(lines.values()) == 1, (seed, lines)
        # the cap lines stay with the complex: `lines` counts both phases
        _clear_caches()
        counts.clear()
        nv.oracle_rho(C, rep)
        assert counts["build_window"] == 0
        r = nv.spectral_invariant(C, rep)
        chains_built = counts["NovikovChain"]
        walks = counts["reduce"]
        for lam in lams:
            assert nv.image_membership(C, rep, lam) == (r.rho < lam), (seed, lam)
        assert counts["build_window"] == 1
        assert counts["Reduction"] == 1 and counts["cycle"] == 1, (seed, counts)
        assert counts["boundary"] == counts["equivariant_image"] == 0, (seed, counts)
        assert max(lines.values()) == 1, (seed, lines)
        assert counts["reduce"] - walks == len(lams) - len(above), seed
        assert max(built.values(), default=0) <= 1, (seed, built)
        materialised += len(built)
        built.clear()
        checked += len(above) > 0 and len(above) < len(lams)
        q = engine._last_query
        exact = not (q.window().truncated or q.vector()[1] or rep.floor is not None)
        if r.spectrality == "attained" and not r.reduced_trace and exact:
            assert r.witness is rep and chains_built == 0, (seed, counts)
            own += 1
        else:
            assert r.witness is not rep, seed
    assert checked >= 90 and own >= 50 and materialised >= 10, (checked, own, materialised)
    # the engine keeps the last representative's query state only: A, B,
    # then A again builds A's window a second time, with the same answer,
    # but reads its cap lines off A's action keys
    a, b = _nonzero_instance(3), _nonzero_instance(8)
    _clear_caches()
    counts.clear()
    lines.clear()
    answers = [_outcome(nv.spectral_invariant, inst.complex, inst.representative)
               for inst in (a, b, a)]
    assert counts["build_window"] == 3 and answers[2] == answers[0]
    assert max(lines.values()) == 1, lines


def test_oracle_builds_one_generator_and_no_window(monkeypatch):
    # a timing-free gate on the oracle's own work: its rows come straight
    # from the boundary terms in integer keys, so a call builds no window,
    # no reduction and no equivariant image, and one `Generator`, for the
    # answer row (none for -inf); the query state's checks are built first,
    # since they are not the oracle's work
    counts = Counter()

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return counted

    class CountedReduction(linalg.Reduction):
        def __init__(self, columns):
            counts["Reduction"] += 1
            super().__init__(columns)

    image = counting("equivariant_image", chains.equivariant_image)
    monkeypatch.setattr(chains, "equivariant_image", image)
    # also under the name an `engine` import of it would bind
    monkeypatch.setattr(engine, "equivariant_image", image, raising=False)
    monkeypatch.setattr(engine, "build_window", counting("build_window", engine.build_window))
    monkeypatch.setattr(linalg, "Reduction", CountedReduction)
    monkeypatch.setattr(nv.FilteredComplex, "generator",
                        counting("generator", nv.FilteredComplex.generator))
    outcomes = Counter()
    for seed in range(100):
        inst = random_instance(seed, max_orbits=6)
        C, rep = inst.complex, inst.representative
        queried = [rep] if rep.is_zero() else [rep, C.chain(rep.terms, rep.level() - 1)]
        for chain in queried:
            _clear_caches()
            _query(C, chain)
            counts.clear()
            try:
                rho = nv.oracle_rho(C, chain)
            except IndeterminateError:
                rho = None
            work = counts["build_window"], counts["Reduction"], counts["equivariant_image"]
            assert work == (0, 0, 0), (seed, counts)
            if rho is None:
                assert counts["generator"] <= 1, (seed, counts)
            else:
                assert counts["generator"] == (rho != NEG_INF), (seed, rho, counts)
            outcomes["raise" if rho is None else rho == NEG_INF] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 100 and outcomes["raise"] >= 5, outcomes


def test_valuation_bounds_hypothesis_boundary():
    # the hypothesis eps * (max f - min f) < gap / 2 fails at equality and
    # holds just below it; f shifted up by one keeps the spread, not max + min
    fix = calibration()
    shifted = nv.MorseData(fix.morse.dim, [(p, v + 1, i) for p, v, i in fix.morse.points],
                           fix.morse.boundary, fix.morse.betti)
    checked = 0
    for morse in (fix.morse, shifted):
        spread = morse.max_value() - morse.min_value()
        assert spread == 1
        for a in fix.shipped_classes:
            gap = nv.leading_data(a).gap
            edge = F(gap) / 2 / spread
            at = nv.check_valuation_bounds(morse, edge, a, fix.gamma, fix.pd_chains)
            assert not at.hypothesis_ok and at.rho is None
            below = nv.check_valuation_bounds(morse, edge - F(1, 1000), a, fix.gamma,
                                              fix.pd_chains)
            assert below.hypothesis_ok and below.rho is not None
            checked += 1
    assert checked == 6
