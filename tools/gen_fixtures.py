#!/usr/bin/env python3
"""Regenerate the shipped JSON fixtures from the builtin definitions."""

from fractions import Fraction as F
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import novispec as nv
from novispec import jsonio
from novispec.fixtures import BUILTIN_FIXTURES, load_builtin
from novispec.gamma import GammaGroup
from novispec.scalars import DOWN, NovikovScalar


def build():
    """{file name: JSON object} for every shipped fixture file."""
    out = {}
    for name in sorted(BUILTIN_FIXTURES):
        fix = load_builtin(name)
        out[f"{name}.json"] = jsonio.manifold_to_json(fix)

    # standalone complex: rank-one period group, trivial chern values
    G = GammaGroup((F(1),), (0,))
    mono = lambda c, l=(0,): NovikovScalar.monomial(G, DOWN, c, l)
    C = nv.FilteredComplex(
        G,
        [
            ("a", F(2), 3),
            ("b", F(3, 2), 2),
            ("c", F(1, 2), 2),
            ("d", F(4, 3), 2),
            ("e", 0, 1),
            ("f", 1, 2),
        ],
        {
            "a": {"b": mono(1), "d": mono(2)},
            "b": {"e": mono(2, (1,))},
            "c": {"e": mono(1)},
            "d": {"e": mono(-1, (1,))},
        },
    )
    assert C.validate().ok, C.validate().violations
    blob = jsonio.complex_to_json(C)
    blob["representatives"] = {
        "free": [["1", "f", [0]]],
        "free-shift": [["1", "f", [1]]],
        "mixed": [["1", "f", [0]], ["1", "b", [0]], ["2", "d", [0]]],
        "boundary-class": [["1", "b", [0]], ["2", "d", [0]]],
    }
    out["staircase.json"] = blob

    # identity-shaped chain map to a uniformly lifted copy
    lifted = nv.FilteredComplex(
        G,
        [(o, a + F(1, 4), d) for o, (a, d) in sorted(C.orbits.items())],
        C.boundary_entries,
    )
    out["staircase_lifted.json"] = jsonio.complex_to_json(lifted)
    m = nv.ChainMap(
        C,
        lifted,
        {o: {o: NovikovScalar.one(G, DOWN)} for o in C.orbits},
        F(1, 4),
    )
    assert m.certify().ok
    out["lift_map.json"] = jsonio.chain_map_to_json("staircase", "staircase_lifted", m)

    # pure deck transformation as a monodromy fixture
    deck = nv.MonodromyShift(
        {o: o for o in C.orbits},
        {o: (1,) for o in C.orbits},
        F(-1),
        0,
    )
    out["deck_shift.json"] = jsonio.monodromy_to_json(deck)

    # one continuous and one divergent functional on the staircase
    mu = nv.DualFunctional(
        C, {C.generator("f"): F(1)}, [nv.Ray("e", (0,), (-1,), F(2))]
    )
    out["functional_cont.json"] = jsonio.functional_to_json(mu)
    bad = nv.DualFunctional(C, {}, [nv.Ray("f", (0,), (1,), F(1))])
    out["functional_div.json"] = jsonio.functional_to_json(bad)

    # standalone chain-level product: the sphere's transported table
    from novispec.fixtures import transported_product

    fix = load_builtin("s2")
    C1, C3, P, _ = transported_product(fix, F(1, 8))
    blob = jsonio.complex_to_json(C1)
    blob["representatives"] = {
        "unit": [["1", "bot", [0]]],
        "point": [["1", "top", [0]]],
    }
    out["s2_eps8.json"] = blob
    out["s2_eps4.json"] = jsonio.complex_to_json(C3)
    out["s2_pants.json"] = jsonio.product_map_to_json(
        ("s2_eps8", "s2_eps8", "s2_eps4"), P
    )
    return out


def main():
    root = Path(__file__).resolve().parents[1] / "fixtures"
    root.mkdir(exist_ok=True)
    for name, obj in build().items():
        jsonio.dump_json(obj, root / name)
    print(f"wrote fixtures to {root}")


if __name__ == "__main__":
    main()
