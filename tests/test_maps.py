import json
import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import (
    DOWN,
    NEG_INF,
    GammaGroup,
    HamiltonianData,
    InputError,
    NovikovScalar,
    StructuralError,
    jsonio,
)
from novispec.cli import load_and_validate
from novispec.fixtures import (
    random_continuity_pair,
    random_instance,
    random_monodromy,
    sphere,
    transported_product,
)

G1 = GammaGroup((F(1),), (2,))


def mono(c, l=(0,), g=G1):
    return NovikovScalar.monomial(g, DOWN, c, l)


# -- Hamiltonian algebra -----------------------------------------------------


def grid(points, rows, times=(0, F(1, 2))):
    weights = {p: F(1) for p in points}
    return HamiltonianData(times, weights, rows)


def test_norm_of_constant_is_zero():
    H = grid(["a", "b"], [{"a": 3, "b": 3}, {"a": -1, "b": -1}])
    assert H.norm() == 0


def test_compose_with_zero_is_identity():
    H = grid(["a", "b"], [{"a": 1, "b": 0}, {"a": 2, "b": -1}])
    Z = grid(["a", "b"], [{"a": 0, "b": 0}, {"a": 0, "b": 0}])
    assert H.compose(Z, commuting=True).values == H.values
    with pytest.raises(StructuralError):
        H.compose(Z)


def test_inverse_preserves_norm():
    rng = random.Random(2)
    pts = ["a", "b", "c"]
    for _ in range(20):
        rows = [
            {p: F(rng.randint(-6, 6), rng.choice([1, 2])) for p in pts}
            for _ in range(2)
        ]
        H = grid(pts, rows)
        flows = []
        for _ in range(2):
            perm = list(pts)
            rng.shuffle(perm)
            flows.append(dict(zip(pts, perm)))
        assert H.inverse(flows).norm() == H.norm()


def test_compose_preserves_normalization():
    pts = ["a", "b"]
    H = grid(pts, [{"a": 1, "b": -1}, {"a": 2, "b": -2}]).normalize()
    K = grid(pts, [{"a": 3, "b": -3}, {"a": 0, "b": 0}]).normalize()
    flow = [{"a": "b", "b": "a"}, {"a": "a", "b": "b"}]
    assert H.compose(K, flow).normalized


def test_flow_must_preserve_measure():
    H = HamiltonianData(
        [0], {"a": F(1), "b": F(2)}, [{"a": 0, "b": 0}]
    )
    with pytest.raises(StructuralError):
        H.inverse([{"a": "b", "b": "a"}])


# -- certified chain maps ----------------------------------------------------


def test_identity_certifies_with_zero_bound():
    C = nv.FilteredComplex(
        G1,
        [("x", F(1), 1), ("y", F(0), 0)],
        {"x": {"y": mono(1)}},
    )
    m = nv.identity_map(C, 0)
    assert m.certify().ok


def test_shifted_relabel_bound():
    C = nv.FilteredComplex(G1, [("x", F(1), 1), ("y", F(0), 0)], {"x": {"y": mono(1)}})
    s = F(2, 3)
    D = nv.FilteredComplex(
        G1, [("x", F(1) + s, 1), ("y", s, 0)], {"x": {"y": mono(1)}}
    )
    one = {o: {o: NovikovScalar.one(G1, DOWN)} for o in C.orbits}
    good = nv.ChainMap(C, D, one, s)
    assert good.certify().ok
    bad = nv.ChainMap(C, D, one, s - 1)
    report = bad.certify()
    assert "shift-bound" in report.codes()
    assert report.violations[0].witness in {("x", "x", (0,)), ("y", "y", (0,))}


def test_composition_adds_bounds():
    rng = random.Random(3)
    for k in range(5):
        pair1 = random_continuity_pair(100 + k)
        # compose forward with its own backward: bound adds
        comp = pair1.backward.compose(pair1.forward)
        assert comp.shift_bound == pair1.forward.shift_bound + pair1.backward.shift_bound
        assert comp.certify().ok
        # identity content: the composite acts as identity on chains
        if not pair1.rep_source.is_zero():
            assert comp.apply(pair1.rep_source) == pair1.rep_source


def test_transport_bounds_rho():
    for k in range(8):
        pair = random_continuity_pair(200 + k)
        if pair.rep_source.is_zero():
            continue
        r_src = nv.spectral_invariant(pair.source, pair.rep_source).rho
        moved = pair.forward.apply(pair.rep_source)
        r_tgt = nv.spectral_invariant(pair.target, moved).rho
        if r_src != NEG_INF:
            assert r_tgt <= r_src + pair.forward.shift_bound


def test_chain_identity_violation_detected():
    C = nv.FilteredComplex(
        G1, [("x", F(1), 1), ("y", F(0), 0)], {"x": {"y": mono(1)}}
    )
    D = nv.FilteredComplex(
        G1, [("x", F(1), 1), ("y", F(0), 0)], {"x": {"y": mono(2)}}
    )
    one = {o: {o: NovikovScalar.one(G1, DOWN)} for o in C.orbits}
    m = nv.ChainMap(C, D, one, 0)
    assert "chain-identity" in m.certify().codes()


def test_degree_violation_reported_before_chain_identity(tmp_path):
    # a sends a to a at cap (1,) (degree -3) and to b (degree 2): the image
    # of a mixes degrees, so only the degree violations can be reported
    C = nv.FilteredComplex(G1, [("a", F(0), 1), ("b", F(-1), 2)], {})
    m = nv.ChainMap(C, C, {"a": {"a": mono(1, (1,)), "b": mono(1)}}, 1)
    assert m.certify().codes() == ["degree"]
    (tmp_path / "c.json").write_text(json.dumps(jsonio.complex_to_json(C)))
    (tmp_path / "m.json").write_text(json.dumps(jsonio.chain_map_to_json("c", "c", m)))
    (tmp_path / "w.json").write_text(json.dumps(
        {"complexes": [{"name": "c", "path": "c.json"}], "chain_maps": ["m.json"]}
    ))
    with pytest.raises(InputError) as err:
        load_and_validate(tmp_path / "w.json")
    rows = json.loads(str(err.value))
    assert [(r["code"], r["message"]) for r in rows] == [("uncertified-map", "degree")]


# -- continuity ----------------------------------------------------------------


def test_continuity_identity_case():
    pair = random_continuity_pair(7, constant_shift=True)
    report = nv.verify_continuity(
        pair.source, pair.target, pair.forward, pair.backward,
        pair.ham_source, pair.ham_target, pair.rep_source, pair.rep_target,
    )
    assert report.ok
    assert report.tight_lower and report.tight_upper
    assert report.difference == report.lower == report.upper


def test_continuity_zero_shift_is_degenerate_sandwich():
    pair = random_continuity_pair(7, constant_shift=True)
    rep = nv.verify_continuity(
        pair.source, pair.source, nv.identity_map(pair.source, 0),
        nv.identity_map(pair.source, 0), pair.ham_source, pair.ham_source,
        pair.rep_source, pair.rep_source,
    )
    assert rep.lower == rep.upper == rep.difference == 0


def test_continuity_random_pairs():
    for k in range(12):
        pair = random_continuity_pair(300 + k, constant_shift=(k % 4 == 0))
        if pair.rep_source.is_zero():
            continue
        report = nv.verify_continuity(
            pair.source, pair.target, pair.forward, pair.backward,
            pair.ham_source, pair.ham_target, pair.rep_source, pair.rep_target,
        )
        assert report.ok
        assert report.lower_margin >= 0 and report.upper_margin >= 0
        if pair.constant_shift:
            assert report.tight_lower and report.tight_upper


def test_continuity_rejects_wrong_certificates():
    pair = random_continuity_pair(11)
    wrong = nv.ChainMap(
        pair.forward.source, pair.forward.target,
        pair.forward.matrix, pair.forward.shift_bound + 1,
    )
    with pytest.raises(StructuralError):
        nv.verify_continuity(
            pair.source, pair.target, wrong, pair.backward,
            pair.ham_source, pair.ham_target, pair.rep_source, pair.rep_target,
        )


def _boundary_class_complex():
    """dx = y over the trivial group, with a free cycle z: y is a zero class."""
    G0 = GammaGroup((), ())
    C = nv.FilteredComplex(G0, [("x", F(1), 1), ("y", F(0), 0), ("z", F(0), 0)],
                           {"x": {"y": mono(1, (), G0)}})
    return C, C.chain({C.generator("y"): 1}), C.chain({C.generator("z"): 1})


def test_continuity_of_two_zero_classes():
    # both invariants are -inf: they agree, with no difference and no margins
    C, y, z = _boundary_class_complex()
    H = grid(["a"], [{"a": 0}, {"a": 0}])
    one = nv.identity_map(C, 0)
    report = nv.verify_continuity(C, C, one, one, H, H, y, y)
    assert report.rho_source == report.rho_target == NEG_INF
    assert report.ok and report.difference is None
    assert report.lower_margin is None and report.upper_margin is None
    assert not report.tight_lower and not report.tight_upper
    # one zero class alone fails the check
    for rep_H, rep_F in ((y, z), (z, y)):
        assert not nv.verify_continuity(C, C, one, one, H, H, rep_H, rep_F).ok


def test_local_constancy_of_a_zero_class_family():
    C, y, z = _boundary_class_complex()
    out = nv.check_local_constancy([C, C, C], [y, y, y], [F(1, 100), F(1, 100)])
    assert out["rhos"] == [NEG_INF] * 3
    assert out["steps_ok"] and out["constant"] and out["ok"]
    out = nv.check_local_constancy([C, C], [y, z], [F(1, 100)])
    assert not out["steps_ok"] and not out["constant"]


# -- products -------------------------------------------------------------------


def test_product_with_zero_factor():
    fix = sphere()
    C1, C3, P, _ = transported_product(fix, F(1, 8))
    alpha = nv.realize_flat(nv.flat(fix.cls("pt")), C1, fix.pd_chains)
    assert nv.pants_product(alpha, C1.chain({}, None), P).is_zero()


def test_product_degree_rule():
    fix = sphere()
    C1, C3, P, _ = transported_product(fix, F(1, 8))
    a = nv.realize_flat(nv.flat(fix.cls("pt")), C1, fix.pd_chains)
    out = nv.pants_product(a, a, P)
    assert out.degree == a.degree + a.degree - 1  # half_dim of the sphere


def test_product_matches_quantum_table():
    fix = sphere()
    C1, C3, P, _ = transported_product(fix, F(1, 8))
    a = nv.realize_flat(nv.flat(fix.cls("pt")), C1, fix.pd_chains)
    out = nv.pants_product(a, a, P)
    ab = nv.quantum_product(fix.cls("pt"), fix.cls("pt"), fix.product)
    assert out == nv.realize_flat(nv.flat(ab), C3, fix.pd_chains)


def test_ledger_violation_raises_with_triple():
    fix = sphere()
    C1, C3, P, _ = transported_product(fix, F(1, 2))  # boundary of the regime
    # shrink the allowed slack by faking a worse target action
    bad = nv.ProductMapData(
        P.source1, P.source2,
        nv.FilteredComplex(
            C3.gamma,
            [(o, a + 2, d) for o, (a, d) in sorted(C3.orbits.items())],
            C3.boundary_entries,
        ),
        P.degree_shift,
        P.table,
    )
    report = bad.validate()
    assert "ledger" in report.codes()
    a = nv.realize_flat(nv.flat(fix.cls("pt")), C1, fix.pd_chains)
    with pytest.raises(StructuralError) as err:
        nv.pants_product(a, a, bad)
    assert "triple" in str(err.value)


def test_level_bound_with_ledger():
    fix = sphere()
    C1, C3, P, _ = transported_product(fix, F(1, 8))
    a = nv.realize_flat(nv.flat(fix.cls("pt")), C1, fix.pd_chains)
    out = nv.pants_product(a, a, P)
    assert out.level() <= a.level() + a.level() + P.max_slack()


# -- monodromy -------------------------------------------------------------------


def test_trivial_loop():
    inst = random_instance(5)
    C, rep = inst.complex, inst.representative
    if rep.is_zero():
        rep = None
    ident = nv.MonodromyShift(
        {o: o for o in C.orbits}, {}, F(0), 0
    )
    shifted, transport, report = nv.monodromy_shift(C, ident, rep)
    assert shifted.orbits == C.orbits
    if report:
        assert report["exact"] and report["rho_after"] == report["rho_before"]


def test_deck_transformation():
    fix = sphere()
    C = fix.build(F(1, 6))
    rep = nv.realize_flat(nv.flat(fix.cls("one")), C, fix.pd_chains)
    cap = (2,)
    deck = nv.MonodromyShift(
        {o: o for o in C.orbits},
        {o: cap for o in C.orbits},
        -C.gamma.omega(cap),
        -2 * C.gamma.c1(cap),
    )
    shifted, transport, report = nv.monodromy_shift(C, deck, rep)
    assert shifted.orbits == C.orbits
    assert shifted.boundary_entries == C.boundary_entries
    assert report["exact"]
    assert report["rho_after"] == report["rho_before"] - C.gamma.omega(cap)


def test_random_shifts_exact_and_inverse():
    for k in range(12):
        C, rep, shift, is_deck = random_monodromy(400 + k)
        if rep is None:
            continue
        shifted, transport, report = nv.monodromy_shift(C, shift, rep)
        assert shifted.validate().ok
        assert report["exact"], (k, report)
        inv = shift.inverse()
        back, _, rep2 = nv.monodromy_shift(shifted, inv, transport(rep))
        assert rep2["exact"]
        assert rep2["i_omega"] == -report["i_omega"]


def test_composite_shifts_add():
    C, rep, s1, _ = random_monodromy(402)
    shifted, t1, _ = nv.monodromy_shift(C, s1, None)
    _, rep2, s2, _ = random_monodromy(403)
    # rebuild s2 on the shifted complex's orbit names
    names = sorted(shifted.orbits)
    s2 = nv.MonodromyShift(
        {o: o for o in names}, {o: (1,) * shifted.gamma.rank for o in names},
        F(1, 5), 0,
    )
    comp = s2.compose(s1)
    assert comp.i_omega == s1.i_omega + s2.i_omega
    direct, _, _ = nv.monodromy_shift(shifted, s2, None)
    via, _, _ = nv.monodromy_shift(C, comp, None)
    assert direct.orbits == via.orbits
    assert direct.boundary_entries == via.boundary_entries


def test_local_constancy_family():
    fix = sphere()
    C = fix.build(F(1, 6))
    rep = nv.realize_flat(nv.flat(fix.cls("pt")), C, fix.pd_chains)
    family = [C, C.relabeled({"top": "top", "bot": "bot"}), C]
    reps = [rep,
            family[1].chain({family[1].generator(g.orbit, g.cap): c
                             for g, c in rep.terms.items()}, None),
            rep]
    out = nv.check_local_constancy(family, reps, [F(1, 100), F(1, 100)])
    assert out["same_spectrum"] and out["forced_constant"] and out["constant"]
    assert out["ok"]
