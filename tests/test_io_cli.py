import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import novispec as nv
from novispec import GammaGroup, InputError, jsonio
from novispec.cli import load_and_validate, main, run
from novispec.fixtures import load_builtin, sphere
from novispec.scalars import DOWN, NovikovScalar

REPO = Path(__file__).resolve().parents[1]


def test_fraction_strings():
    assert jsonio.frac_str(F(3, 7)) == "3/7"
    assert jsonio.frac_str(F(4)) == "4"
    assert jsonio.parse_frac("-5/2") == F(-5, 2)
    assert jsonio.parse_frac(3) == 3
    with pytest.raises(InputError):
        jsonio.parse_frac("x/y")


def test_gamma_roundtrip():
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    assert jsonio.gamma_from_json(jsonio.gamma_to_json(g)) == g


def test_scalar_roundtrip():
    g = GammaGroup((F(1), F(3, 2)), (0, 1))
    s = NovikovScalar(g, DOWN, {(1, 0): F(2, 3), (-1, 2): F(-5)})
    assert jsonio.scalar_from_json(jsonio.scalar_to_json(s), g, DOWN) == s


def test_complex_roundtrip():
    fix = sphere()
    C = fix.build(F(1, 8))
    blob = jsonio.complex_to_json(C)
    D = jsonio.complex_from_json(blob)
    assert D.orbits == C.orbits
    assert D.boundary_entries == C.boundary_entries
    assert jsonio.complex_to_json(D) == blob


def test_manifold_roundtrip():
    for name in ("s2", "cp2", "torus", "tilted", "czero"):
        fix = load_builtin(name)
        blob = jsonio.manifold_to_json(fix)
        back = jsonio.manifold_from_json(blob)
        assert jsonio.manifold_to_json(back) == blob


def test_shipped_fixture_files_match_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", REPO / "tools" / "gen_fixtures.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    built = gen.build()
    shipped = sorted(p.name for p in (REPO / "fixtures").iterdir())
    assert shipped == sorted(built)
    for name, obj in built.items():
        blob = jsonio.load_json(REPO / "fixtures" / name)
        assert blob == json.loads(json.dumps(obj)), name


ANSWERS_DIGEST = {
    "rho": "a22b76c29ed552d077a4d3491c8ca7a4ad1d7d367019e1a1739035b70b41df67",
    "witness": "550dd4f7120d29ddbf81f752a389e333e44a5055c0d134642fa3c0672029e640",
    "trace": "04c7ea00019b4c133cd31665910e6f7a64b253477f0207d2c5b476a902188899",
    "spectrality": "ee118a4b74f19a58847f213ecad7c5c5eb66888d8743736655a8763c76e96da1",
    "attained_at": "55743b5e5843795d31babd80d8ed4d06b2ae98ab6f682993635b6f3ede27d9c2",
    "certificate": "aa888d5f7b9023d0efa4a9640d3b937ba33083f6b3bd8c201cb99fb7afebb2c1",
    "oracle": "a22b76c29ed552d077a4d3491c8ca7a4ad1d7d367019e1a1739035b70b41df67",
    "probes": "c395cdd98e7490b619fac68ea0f358b38677b0db992d75009c1295aa0ffbc178",
    "fixtures": "37ecd1d23af9af6499461c1ae63d19d8347a92a2a1ddeb82377841d238e3e28b",
}


def test_answers_digest_pinned():
    # every answer on the random corpus of tools/answers_digest.py, per
    # field: a change that moves one names the field it moved
    spec = importlib.util.spec_from_file_location(
        "answers_digest", REPO / "tools" / "answers_digest.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.digest() == ANSWERS_DIGEST


def test_chain_and_functional_roundtrip():
    fix = sphere()
    C = fix.build(F(1, 8))
    rep = nv.realize_flat(nv.flat(fix.cls("one")), C, fix.pd_chains)
    blob = jsonio.chain_to_json(rep)
    assert jsonio.chain_from_json(blob, C) == rep
    mu = nv.embed_class(fix.cls("pt"), C, fix.cochains)
    back = jsonio.functional_from_json(jsonio.functional_to_json(mu), C)
    assert back.atoms == mu.atoms and back.threshold == mu.threshold


def test_hamiltonian_and_monodromy_roundtrip():
    s = nv.MonodromyShift({"a": "b", "b": "a"}, {"a": (1,), "b": (0,)}, F(1, 2), 2)
    blob = jsonio.monodromy_to_json(s)
    back = jsonio.monodromy_from_json(blob)
    assert back == s


def test_empty_manifest_loads_clean(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"schema": 1}')
    ws = load_and_validate(p)
    assert ws.manifolds == {} and ws.complexes == {}
    report = run("spectra", ws)
    assert report["status"] == "PASS"
    assert report["failures"] == 0


def test_invalid_square_fixture_fails_with_witness(tmp_path):
    g = GammaGroup((F(1),), (2,))
    mono = lambda c: NovikovScalar.monomial(g, DOWN, c)
    C = nv.FilteredComplex(
        g,
        [("x", F(2), 2), ("y", F(1), 1), ("z", F(0), 0)],
        {"x": {"y": mono(1)}, "y": {"z": mono(1)}},
    )
    (tmp_path / "bad.json").write_text(json.dumps(jsonio.complex_to_json(C)))
    (tmp_path / "m.json").write_text(json.dumps(
        {"schema": 1, "complexes": [{"name": "bad", "path": "bad.json"}]}
    ))
    with pytest.raises(InputError) as err:
        load_and_validate(tmp_path / "m.json")
    payload = json.loads(str(err.value))
    assert payload[0]["code"] == "invariant:square"
    assert "witness" in payload[0]["message"]


def test_demo_workspace_loads_clean():
    ws = load_and_validate(REPO / "manifests" / "demo.json")
    assert set(ws.manifolds) == {"s2", "cp2", "torus", "tilted", "czero"}
    assert set(ws.complexes) == {
        "staircase", "staircase_lifted", "s2_eps8", "s2_eps4"
    }
    assert "lift_map" in ws.chain_maps
    assert "deck_shift" in ws.shifts
    assert set(ws.functionals) == {"functional_cont", "functional_div"}
    assert set(ws.products) == {"s2_pants"}
    assert ws.products["s2_pants"].validate().ok


def test_product_map_roundtrip():
    from novispec.fixtures import transported_product

    fix = sphere()
    C1, C3, P, _ = transported_product(fix, F(1, 8))
    names = {"one": C1, "three": C3}
    blob = jsonio.product_map_to_json(("one", "one", "three"), P)
    back = jsonio.product_map_from_json(blob, names)
    assert back.table == P.table
    assert back.degree_shift == P.degree_shift
    assert jsonio.product_map_to_json(("one", "one", "three"), back) == blob


def test_cli_exit_codes_and_determinism(tmp_path):
    manifest = REPO / "manifests" / "demo.json"
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code = main(["spectra", str(manifest), "--out", str(out1), "--oracle-cap", "5"])
    assert code == 0
    code = main([str(manifest), "--out", str(out2), "--oracle-cap", "5"])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["schema"] == 1
    assert report["command"] == "spectra"
    assert report["status"] == "PASS"
    rows = report["results"]["spectra"]["rows"]
    assert any(r["fixture"] == "s2" for r in rows)


def _spectra_report(tmp_path, flags, **manifest):
    """(exit code, report bytes) of `spectra` on the staircase under `manifest`."""
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    staircase = {"name": "staircase", "path": str(REPO / "fixtures" / "staircase.json")}
    path.write_text(json.dumps({"complexes": [staircase], **manifest}))
    return main([str(path), "--out", str(out)] + flags), out.read_bytes()


def test_manifest_floor_and_cli_floor_agree(tmp_path):
    # one workspace floor, whichever place sets it: `free` and `free-shift`
    # lie at or below 1, so both runs give them error rows
    by_manifest = _spectra_report(tmp_path, [], floor="1")
    by_flag = _spectra_report(tmp_path, ["--floor", "1"])
    assert by_manifest == by_flag
    assert by_flag[0] == 1


def test_cli_floor_replaces_manifest_floor(tmp_path):
    # representatives load exact, so a lower --floor keeps `mixed`'s top
    # term at action 1
    code, text = _spectra_report(tmp_path, ["--floor", "-5"], floor="1")
    rows = {r["cls"]: r for r in json.loads(text)["results"]["spectra"]["rows"]}
    assert code == 0
    assert rows["mixed"]["rho"] == "1" and rows["mixed"]["ok"]


@pytest.mark.parametrize("manifest, flags", [
    pytest.param(None, [], id="missing-file"),
    pytest.param("[]", [], id="top-level-list"),
    pytest.param('{"seed": "abc"}', [], id="seed-not-integer"),
    pytest.param('{"oracle_cap": null}', [], id="oracle-cap-null"),
    pytest.param('{"complexes": [{"name": "x"}]}', [], id="complex-without-path"),
    pytest.param('{"complexes": ["staircase.json"]}', [], id="complex-entry-string"),
    pytest.param('{"complexes": 5}', [], id="complexes-not-list"),
    pytest.param('{"out": 5}', [], id="out-not-string"),
    pytest.param('{"schema": 1}', ["--floor", "1/0"], id="floor-zero-denominator"),
    pytest.param('{"schema": 1}', ["--floor", "x"], id="floor-not-rational"),
    pytest.param(json.dumps({"shifts": [{
        "complex": "nowhere", "path": str(REPO / "fixtures" / "deck_shift.json")}]}),
        [], id="shift-on-unknown-complex"),
    pytest.param('{"builtin": ["nope"]}', [], id="unknown-builtin"),
    # a negative cap would run no oracle instance and still pass
    pytest.param('{"oracle_cap": -1}', [], id="manifest-oracle-cap-negative"),
    pytest.param('{"schema": 1}', ["--oracle-cap", "-5"], id="cli-oracle-cap-negative"),
    # a workspace name is a non-empty string not yet taken in its section
    pytest.param(json.dumps({"complexes": [
        {"name": 5, "path": str(REPO / "fixtures" / "staircase.json")},
        {"name": "b", "path": str(REPO / "fixtures" / "staircase_lifted.json")}]}),
        [], id="complex-name-not-string"),
    *(pytest.param(json.dumps({"complexes": [
        {"name": name, "path": str(REPO / "fixtures" / "staircase.json")}]}),
        [], id=f"complex-name-{label}")
      for name, label in ((0, "zero"), (None, "null"), (False, "false"), ("", "empty"))),
    pytest.param('{"builtin": ["s2"], "manifolds": ["s2_named_7.json"]}', [],
                 id="manifold-name-not-string"),
    pytest.param(json.dumps({"complexes": [
        {"name": "a", "path": str(REPO / "fixtures" / "staircase.json")},
        {"name": "a", "path": str(REPO / "fixtures" / "staircase_lifted.json")}]}),
        [], id="duplicate-complex-name"),
    pytest.param(json.dumps({"builtin": ["s2"],
                             "manifolds": [str(REPO / "fixtures" / "s2.json")]}),
                 [], id="manifold-file-reuses-builtin-name"),
    # a representative that is not a cycle has no class to measure
    pytest.param(json.dumps({"complexes": [{"name": "c", "path": "not_a_cycle.json"}]}),
                 [], id="representative-not-a-cycle"),
    # JSON's non-finite numbers have no exact rational
    *(pytest.param(f'{{"{key}": {value}}}', [], id=f"manifest-{key}-{value}")
      for key, value in (("eps", "Infinity"), ("eps", "NaN"), ("eps", "1e400"),
                         ("floor", "-Infinity"), ("floor", "NaN"))),
])
def test_cli_input_error_exit_two(tmp_path, capsys, manifest, flags):
    # the manifold file of the case that names a manifold 7
    s2 = json.loads((REPO / "fixtures" / "s2.json").read_text())
    (tmp_path / "s2_named_7.json").write_text(json.dumps({**s2, "name": 7}))
    # the staircase with one representative a, whose boundary b + 2d is not 0
    staircase = json.loads((REPO / "fixtures" / "staircase.json").read_text())
    (tmp_path / "not_a_cycle.json").write_text(json.dumps(
        {**staircase, "representatives": {"a": [["1", "a", [0]]]}}))
    path = tmp_path / "m.json"
    if manifest is not None:
        path.write_text(manifest)
    assert main([str(path)] + flags) == 2
    assert "input error:" in capsys.readouterr().err


def _set(path, value):
    """Mutation of a loaded fixture: replace the field at `path` by `value`."""
    def mutate(obj):
        if not path:
            return value
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return obj
    return mutate


def _append(path, row):
    """Mutation of a loaded fixture: append `row` to the list at `path`."""
    def mutate(obj):
        node = obj
        for key in path:
            node = node[key]
        node.append(row)
        return obj
    return mutate


# the manifest entry of a fixture file f.json, per section
_ENTRIES = {
    "complexes": {"name": "c", "path": "f.json"},
    "functionals": {"complex": "staircase", "path": "f.json"},
    "shifts": {"complex": "staircase", "path": "f.json"},
    "manifolds": "f.json",
    "products": "f.json",
    "chain_maps": "f.json",
}

# the complexes a fixture of the section refers to, besides the staircase
_COMPANIONS = {
    "products": ("s2_eps8", "s2_eps4"),  # the pants product: s2_eps8 x s2_eps8 -> s2_eps4
    "chain_maps": ("staircase_lifted",),  # the lift map: staircase -> staircase_lifted
}


@pytest.mark.parametrize("section, shipped, mutate, code", [
    # JSON lists where the loader reads objects
    ("complexes", "staircase", _set(["representatives"], [1]), "complex-parse"),
    ("complexes", "staircase", _set(["gamma"], [1]), "complex-parse"),
    ("functionals", "functional_cont", _set([], [1]), "functional-parse"),
    ("shifts", "deck_shift", _set(["cap_shift"], [1]), "shift-parse"),
    ("manifolds", "s2", _set(["morse"], [1]), "manifold-parse"),
    ("manifolds", "s2", _set(["basis"], [1]), "manifold-parse"),
    # integer fields that int() used to truncate or coerce
    ("complexes", "staircase", _set(["representatives", "free", 0, 2], [1.5]),
     "complex-parse"),
    ("complexes", "staircase", _set(["orbits", 0, "degree"], 3.7), "complex-parse"),
    ("complexes", "staircase", _set(["gamma", "c1"], [1.5]), "complex-parse"),
    ("complexes", "staircase", _set(["boundary", 0, "scalar", 0, 1], [True]),
     "complex-parse"),
    ("shifts", "deck_shift", _set(["degree_shift"], "2"), "shift-parse"),
    ("functionals", "functional_cont", _set(["rays", 0, "direction"], [-1.0]),
     "functional-parse"),
    ("manifolds", "s2", _set(["morse", "dim"], 2.0), "manifold-parse"),
    ("manifolds", "s2", _set(["morse", "points", 0, "index"], "2"), "manifold-parse"),
    ("manifolds", "tilted", _set(["morse", "boundary", 0, "coeff"], 1.5),
     "manifold-parse"),
    ("manifolds", "s2", _set(["basis", "half_dim"], 1.0), "manifold-parse"),
    # two terms on one exponent: rejected, not the last one kept
    ("complexes", "staircase", _set(["boundary", 0, "scalar"], [["1", [0]], ["2", [0]]]),
     "complex-parse"),
    # two rows for one matrix entry: rejected, not the last one kept
    pytest.param("complexes", "staircase",
                 _append(["boundary"], {"from": "a", "to": "b", "scalar": [["3", [0]]]}),
                 "complex-parse", id="duplicate-boundary-row"),
    pytest.param("manifolds", "tilted",
                 _append(["morse", "boundary"], {"from": "s", "to": "m1", "coeff": 2}),
                 "manifold-parse", id="duplicate-morse-row"),
    pytest.param("products", "s2_pants",
                 _append(["table"], {"a": "bot", "b": "bot", "to": "bot",
                                     "scalar": [["2", [0]]]}),
                 "product-parse", id="duplicate-product-row"),
    # a fixture that parses but fails its own check, or a field of the wrong type
    pytest.param("chain_maps", "lift_map", _set(["bound"], "x"), "chain-map-parse",
                 id="chain-map-bound-not-rational"),
    pytest.param("products", "s2_pants", _set(["degree_shift"], 0), "product-invariant",
                 id="product-degree-shift-wrong"),
    pytest.param("manifolds", "tilted", _set(["pd_chains", "one"], [["1", "m1"]]),
                 "manifold-invariant", id="manifold-pd-chain-not-cycle"),
    # hh*hh = 2 h q^L: the product table breaks associativity when parsed
    pytest.param("manifolds", "cp2", _set(["product", "table", 2, "result"], [["2", "h", [1]]]),
                 "manifold-parse", id="manifold-product-not-associative"),
    pytest.param("complexes", "staircase", _set(["representatives"], {"a": [["1", "a", [0]]]}),
                 "invariant:not-a-cycle", id="representative-not-a-cycle"),
    # a complex has no floor: only a chain carries one
    pytest.param("complexes", "staircase", _set(["floor"], "1"), "complex-parse",
                 id="complex-floor-not-null"),
    # non-finite numbers have no exact rational
    *(pytest.param("complexes", "staircase", _set(["orbits", 0, "action"], value),
                   "complex-parse", id=f"orbit-action-{value}")
      for value in (float("inf"), float("nan"))),
    # an orbit id is a string, not coerced to one
    *(pytest.param("complexes", "s2_eps4", _set(["orbits", 1, "id"], value),
                   "complex-parse", id=f"orbit-id-{type(value).__name__}")
      for value in ([], 7)),
])
def test_cli_malformed_fixture_exit_two(tmp_path, capsys, section, shipped, mutate, code):
    raw = mutate(json.loads((REPO / "fixtures" / f"{shipped}.json").read_text()))
    (tmp_path / "f.json").write_text(json.dumps(raw))
    staircase = {"name": "staircase", "path": str(REPO / "fixtures" / "staircase.json")}
    manifest = {"complexes": [staircase] + [
        {"name": n, "path": str(REPO / "fixtures" / f"{n}.json")}
        for n in _COMPANIONS.get(section, ())
    ]}
    manifest.setdefault(section, []).append(_ENTRIES[section])
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert main([str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    rows = json.loads(err[len("input error: "):])
    assert [r["code"] for r in rows] == [code]


def test_cli_window_too_large_exit_two(tmp_path, capsys):
    # a valid complex whose one boundary term lowers the action by 10**9:
    # its default window would hold billions of generators
    far = {
        "gamma": {"rank": 1, "omega": ["1"], "c1": [0]},
        "orbits": [{"id": "x", "action": "0", "degree": 1},
                   {"id": "y", "action": "0", "degree": 0},
                   {"id": "s", "action": "0", "degree": 0}],
        "boundary": [{"from": "x", "to": "y", "scalar": [["1", [10**9]]]}],
        "floor": None,
        "representatives": {"s": [["1", "s", [0]]]},
    }
    (tmp_path / "far.json").write_text(json.dumps(far))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"complexes": [{"name": "far", "path": "far.json"}]}))
    assert main(["spectra", str(path)]) == 2
    assert "input error: window-too-large: degree 1 on (" in capsys.readouterr().err


def _nodes(node, path=()):
    """(path, value) of every node of a loaded JSON document below the root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _is_rational(value):
    try:
        jsonio.parse_frac(value)
    except InputError:
        return False
    return True


_DROP = object()
# JSON's non-finite literals, which json.loads accepts
_NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")


def _fuzz_cases(seed=2004, count=60):
    """One-step mutations of the shipped complexes, drawn in a fixed order."""
    rng = random.Random(seed)
    names = ("staircase", "staircase_lifted", "s2_eps4", "s2_eps8")
    wrong = ([], {}, "x", 7, 1.5, None, True)
    cases = []
    for i in range(count):
        name = names[i % len(names)]
        nodes = list(_nodes(json.loads((REPO / "fixtures" / f"{name}.json").read_text())))
        kind = rng.choice(["non-finite", "wrong-type", "drop-key", "nudge"])
        if kind == "non-finite":
            path = rng.choice([p for p, v in nodes if _is_rational(v)])
            value = rng.choice(_NON_FINITE)
        elif kind == "wrong-type":
            path, old = rng.choice(nodes)
            value = rng.choice([w for w in wrong if type(w) is not type(old)])
        elif kind == "drop-key":
            path, value = rng.choice([p for p, _ in nodes if isinstance(p[-1], str)]), _DROP
        else:
            path, old = rng.choice([(p, v) for p, v in nodes if type(v) is int])
            value = old + rng.choice([-1, 1])
        cases.append(pytest.param(name, path, value,
                                  id=f"{i}-{name}-{kind}-{'.'.join(map(str, path))}"))
    return cases


@pytest.mark.parametrize("name, path, value", _fuzz_cases())
def test_cli_mutated_fixture_exits_with_a_code(tmp_path, capsys, name, path, value):
    # a hostile complex ends in a report (0 or 1) or a coded input error (2),
    # never in a traceback
    raw = json.loads((REPO / "fixtures" / f"{name}.json").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    literal = None
    if value is _DROP:
        del node[path[-1]]
    elif value in _NON_FINITE:
        node[path[-1]], literal = "<non-finite>", value
    else:
        node[path[-1]] = value
    text = json.dumps(raw)
    if literal:
        text = text.replace('"<non-finite>"', literal)
    (tmp_path / "f.json").write_text(text)
    (tmp_path / "m.json").write_text(json.dumps({"complexes": [{"name": "c", "path": "f.json"}]}))
    assert main(["spectra", str(tmp_path / "m.json"), "--out", str(tmp_path / "r.json")]) in (0, 1, 2)


def test_cli_oracle_cap_zero_runs_no_instance(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"oracle_cap": 0}')
    out = tmp_path / "r.json"
    assert main(["oracle", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["oracle"]["rows"]
    assert rows[0]["instances"] == 0


def test_cli_subprocess_oracle(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "novispec.cli", "oracle",
         str(REPO / "manifests" / "demo.json"),
         "--oracle-cap", "10", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["results"]["oracle"]["failures"] == 0


REPORT_PINS = [
    # the staircase witnesses that take a reduction step
    ("spectra", "rational-exact",
     "c6b2d6c8b1cd4805280179aad73da368c957598090756e37b9f8e0fb07555a5d"),
    # the dual-vs-primal values
    ("appendix", "rational-exact",
     "0b9ab14f82e372e5afb700081a935c9cc74f65b5f3d0b1172f1c780e16b36532"),
    # normalization, the triangle on manifold and manifest products, seeded
    # continuity and monodromy pairs, invariances; no task reads the
    # manifest's chain maps, shifts or functionals
    ("axioms", "rational-exact",
     "55fd2a995b2088183ef546684a0951aae3a8db6113af7016ad949fd183417a5d"),
    # dressed random instances against the oracle
    ("oracle", "rational-exact",
     "1a66bbd6d833c34c13b31f707e7f64e764834613f31e5c322a2fc455989af62f"),
    # floating mode: every row passes and none is certified spectral
    ("spectra", "floating",
     "447047c153bff321722ace931e0ad39b911691e139ee4b9cfd0b2b26e612e3af"),
]


# the ids name a pin by command and digest, so a new mode adds a case
@pytest.mark.parametrize("command, mode, digest", REPORT_PINS,
                         ids=[f"{command}-{digest}" for command, _, digest in REPORT_PINS])
def test_demo_report_bytes_pinned(command, mode, digest):
    ws = load_and_validate(REPO / "manifests" / "demo.json")
    ws.mode = mode
    ws.oracle_cap = 10  # read by the oracle task only
    text = json.dumps(run(command, ws), indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
