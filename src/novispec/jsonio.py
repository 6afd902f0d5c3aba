"""JSON schemas for fixtures, workspaces, and reports.

Exact rationals travel as "p/q" strings; exponents as integer arrays; field
order is fixed by construction so serialized fixtures and reports are stable
byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from .chains import FilteredComplex, NovikovChain, matrix_entries
from .dual import DualFunctional, Ray
from .errors import InputError
from .fixtures import ManifoldFixture
from .gamma import GammaGroup
from .maps import ChainMap, MonodromyShift, ProductMapData
from .morse import MorseData
from .quantum import COHOMOLOGY, HOMOLOGY, ClassBasis, ProductFixture, QuantumClass
from .scalars import DOWN, NovikovScalar


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    if isinstance(s, bool) or s is None:
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        # floating fixtures are parsed to exact binary rationals; JSON's NaN,
        # Infinity and overflowing literals (1e400) have none
        if not math.isfinite(s):
            raise InputError(f"not a rational: {s!r}")
        return Fraction(s)
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {s!r}") from exc


def parse_int(x) -> int:
    """A JSON integer; floats, bools and strings are rejected, not coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"not an integer: {x!r}")
    return x


def parse_str(x) -> str:
    """A JSON string; numbers, lists and other values are rejected, not coerced."""
    if not isinstance(x, str):
        raise InputError(f"not a string: {x!r}")
    return x


# ---------------------------------------------------------------------------
# groups and scalars


def gamma_to_json(g: GammaGroup) -> dict:
    return {
        "rank": g.rank,
        "omega": [frac_str(v) for v in g.omega_values],
        "c1": list(g.c1_values),
    }


def gamma_from_json(obj) -> GammaGroup:
    omega = [parse_frac(v) for v in obj.get("omega", [])]
    c1 = [parse_int(v) for v in obj.get("c1", [])]
    if "rank" in obj and obj["rank"] != len(omega):
        raise InputError("rank field disagrees with generator lists")
    return GammaGroup(tuple(omega), tuple(c1))


def scalar_to_json(s: NovikovScalar) -> list:
    return [[frac_str(c), list(label)] for label, c in s.terms.items()]


def scalar_from_json(obj, gamma, direction) -> NovikovScalar:
    terms = [(tuple(map(parse_int, label)), parse_frac(coeff)) for coeff, label in obj]
    return NovikovScalar(gamma, direction, terms)


def _matrix_to_json(matrix) -> list:
    """An orbit-pair scalar matrix as sorted {"from", "to", "scalar"} rows."""
    return [
        {"from": src, "to": dst, "scalar": scalar_to_json(scalar)}
        for src, dst, scalar in matrix_entries(matrix)
    ]


def _put_entry(matrix: dict, key, to, value) -> None:
    """matrix[key][to] = value; a second row for one (key, to) is rejected."""
    row = matrix.setdefault(key, {})
    if to in row:
        raise InputError(f"two rows for the entry {key!r} -> {to!r}")
    row[to] = value


def _matrix_from_json(rows, gamma) -> dict:
    matrix = {}
    for row in rows:
        _put_entry(matrix, row["from"], row["to"],
                   scalar_from_json(row["scalar"], gamma, DOWN))
    return matrix


# ---------------------------------------------------------------------------
# complexes and chains


def complex_to_json(C: FilteredComplex) -> dict:
    return {
        "gamma": gamma_to_json(C.gamma),
        "orbits": [
            {"id": o, "action": frac_str(a), "degree": d}
            for o, (a, d) in sorted(C.orbits.items())
        ],
        "boundary": _matrix_to_json(C.boundary_entries),
        "floor": None,  # schema 1 keeps the key; a complex has no floor
    }


def complex_from_json(obj) -> FilteredComplex:
    gamma = gamma_from_json(obj["gamma"])
    orbits = [
        (parse_str(row["id"]), parse_frac(row["action"]), parse_int(row["degree"]))
        for row in obj["orbits"]
    ]
    if obj.get("floor") is not None:
        raise InputError("a complex has no floor: a chain carries its own")
    boundary = _matrix_from_json(obj.get("boundary", []), gamma)
    return FilteredComplex(gamma, orbits, boundary)


def chain_to_json(chain: NovikovChain) -> list:
    return [
        [frac_str(c), g.orbit, list(g.cap)] for g, c in chain.terms.items()
    ]


def chain_from_json(obj, C: FilteredComplex) -> NovikovChain:
    terms = [(C.generator(orbit, tuple(map(parse_int, cap))), parse_frac(coeff))
             for coeff, orbit, cap in obj]
    return C.chain(terms)


# ---------------------------------------------------------------------------
# manifold fixture bundles


def morse_to_json(m: MorseData) -> dict:
    return {
        "dim": m.dim,
        "points": [
            {"id": p, "value": frac_str(v), "index": i} for p, v, i in m.points
        ],
        "boundary": [
            {"from": src, "to": dst, "coeff": coeff}
            for src, dst, coeff in matrix_entries(m.boundary)
        ],
        "betti": m.betti,
    }


def morse_from_json(obj) -> MorseData:
    boundary = {}
    for row in obj.get("boundary", []):
        _put_entry(boundary, row["from"], row["to"], parse_int(row["coeff"]))
    return MorseData(
        dim=parse_int(obj["dim"]),
        points=[(r["id"], parse_frac(r["value"]), parse_int(r["index"]))
                for r in obj["points"]],
        boundary=boundary,
        betti=obj.get("betti"),
    )


def qclass_to_json(a: QuantumClass) -> dict:
    return {
        "direction": a.direction,
        "terms": [[frac_str(c), name, list(label)] for (name, label), c in a.terms.items()],
    }


def qclass_from_json(obj, basis: ClassBasis, gamma: GammaGroup) -> QuantumClass:
    direction = obj.get("direction", COHOMOLOGY)
    if direction not in (COHOMOLOGY, HOMOLOGY):
        raise InputError(f"unknown class direction {direction!r}")
    terms = [
        (parse_frac(c), name, tuple(map(parse_int, label)))
        for c, name, label in obj["terms"]
    ]
    return QuantumClass(basis, gamma, direction, terms)


def _point_chain_to_json(chain):
    return [[frac_str(c), p] for c, p in chain]


def _point_chain_from_json(obj):
    return [(parse_frac(c), p) for c, p in obj]


def manifold_to_json(fix: ManifoldFixture) -> dict:
    basis = {
        "half_dim": fix.basis.half_dim,
        "classes": [
            {"id": name, "degree": bc.degree}
            for name, bc in sorted(fix.basis.classes.items())
        ],
        "pairing": [
            {"a": a, "b": b, "value": frac_str(v)}
            for (a, b), v in sorted(fix.basis.pairing_table.items())
            if v != 0
        ],
    }
    product = None
    if fix.product is not None:
        product = {
            "unit": fix.product.unit,
            "table": [
                {"a": a, "b": b, "result": qclass_to_json(q)["terms"]}
                for (a, b), q in sorted(fix.product.table.items())
            ],
        }
    return {
        "name": fix.name,
        "gamma": gamma_to_json(fix.gamma),
        "morse": morse_to_json(fix.morse),
        "basis": basis,
        "pd_chains": {k: _point_chain_to_json(v) for k, v in sorted(fix.pd_chains.items())},
        "cochains": {k: _point_chain_to_json(v) for k, v in sorted(fix.cochains.items())},
        "product": product,
        "classes": [qclass_to_json(a) for a in fix.shipped_classes],
        "max_eps": frac_str(fix.max_eps),
    }


def manifold_from_json(obj) -> ManifoldFixture:
    gamma = gamma_from_json(obj["gamma"])
    morse = morse_from_json(obj["morse"])
    braw = obj["basis"]
    pairing = {
        (row["a"], row["b"]): parse_frac(row["value"])
        for row in braw.get("pairing", [])
    } or None
    basis = ClassBasis(
        parse_int(braw["half_dim"]),
        [(r["id"], parse_int(r["degree"])) for r in braw["classes"]],
        pairing,
    )
    product = None
    if obj.get("product"):
        table = {}
        for row in obj["product"]["table"]:
            table[(row["a"], row["b"])] = qclass_from_json(
                {"direction": COHOMOLOGY, "terms": row["result"]}, basis, gamma
            )
        product = ProductFixture(basis, gamma, obj["product"]["unit"], table)
        product.validate()
    fix = ManifoldFixture(
        name=obj["name"],
        gamma=gamma,
        morse=morse,
        basis=basis,
        pd_chains={k: _point_chain_from_json(v) for k, v in obj["pd_chains"].items()},
        cochains={k: _point_chain_from_json(v) for k, v in obj["cochains"].items()},
        product=product,
        shipped_classes=[qclass_from_json(c, basis, gamma) for c in obj["classes"]],
        max_eps=parse_frac(obj.get("max_eps", "1/4")),
    )
    return fix


# ---------------------------------------------------------------------------
# maps, shifts, functionals


def chain_map_to_json(name_src, name_dst, m: ChainMap) -> dict:
    return {
        "source": name_src,
        "target": name_dst,
        "bound": frac_str(m.shift_bound),
        "matrix": _matrix_to_json(m.matrix),
    }


def chain_map_from_json(obj, complexes) -> ChainMap:
    try:
        src = complexes[obj["source"]]
        dst = complexes[obj["target"]]
    except KeyError as exc:
        raise InputError(f"chain map references unknown complex {exc}") from exc
    return ChainMap(src, dst, _matrix_from_json(obj["matrix"], src.gamma),
                    parse_frac(obj["bound"]))


def product_map_to_json(names: tuple, P) -> dict:
    """`names` = (source1, source2, target) workspace names."""
    return {
        "source1": names[0],
        "source2": names[1],
        "target": names[2],
        "degree_shift": P.degree_shift,
        "table": [
            {"a": a, "b": b, "to": o3, "scalar": scalar_to_json(scalar)}
            for (a, b), o3, scalar in matrix_entries(P.table)
        ],
        "ledger": [
            {"a": a, "b": b, "to": c, "slack": frac_str(v)}
            for (a, b, c), v in sorted(P.ledger.items())
            if v != 0
        ],
    }


def product_map_from_json(obj, complexes):
    try:
        s1 = complexes[obj["source1"]]
        s2 = complexes[obj["source2"]]
        tgt = complexes[obj["target"]]
    except KeyError as exc:
        raise InputError(f"product references unknown complex {exc}") from exc
    table = {}
    for row in obj["table"]:
        _put_entry(table, (row["a"], row["b"]), row["to"],
                   scalar_from_json(row["scalar"], tgt.gamma, DOWN))
    ledger = {
        (row["a"], row["b"], row["to"]): parse_frac(row["slack"])
        for row in obj.get("ledger", [])
    }
    return ProductMapData(s1, s2, tgt, parse_int(obj["degree_shift"]), table, ledger)


def monodromy_to_json(s: MonodromyShift) -> dict:
    return {
        "orbit_map": dict(sorted(s.orbit_map.items())),
        "cap_shift": {o: list(c) for o, c in sorted(s.cap_shift.items())},
        "i_omega": frac_str(s.i_omega),
        "degree_shift": s.degree_shift,
    }


def monodromy_from_json(obj) -> MonodromyShift:
    return MonodromyShift(
        dict(obj["orbit_map"]),
        {o: tuple(map(parse_int, c)) for o, c in obj.get("cap_shift", {}).items()},
        parse_frac(obj.get("i_omega", 0)),
        parse_int(obj.get("degree_shift", 0)),
    )


def functional_to_json(mu: DualFunctional) -> dict:
    return {
        "threshold": None if mu.threshold is None else frac_str(mu.threshold),
        "atoms": [
            {"orbit": g.orbit, "cap": list(g.cap), "value": frac_str(v)}
            for g, v in sorted(mu.atoms.items(), key=lambda kv: (kv[0].orbit, kv[0].cap))
        ],
        "rays": [
            {
                "orbit": r.orbit,
                "base": list(r.base),
                "direction": list(r.direction),
                "value": frac_str(r.value),
            }
            for r in mu.rays
        ],
    }


def functional_from_json(obj, C: FilteredComplex) -> DualFunctional:
    atoms = [
        (C.generator(row["orbit"], tuple(map(parse_int, row["cap"]))),
         parse_frac(row["value"]))
        for row in obj.get("atoms", [])
    ]
    rays = [
        Ray(
            row["orbit"],
            tuple(map(parse_int, row["base"])),
            tuple(map(parse_int, row["direction"])),
            parse_frac(row["value"]),
        )
        for row in obj.get("rays", [])
    ]
    threshold = obj.get("threshold")
    return DualFunctional(
        C, atoms, rays, None if threshold is None else parse_frac(threshold)
    )


# ---------------------------------------------------------------------------
# files


def dump_json(obj, path) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=1, sort_keys=False) + "\n", encoding="utf-8"
    )


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
