"""Batch driver: load a workspace manifest, run a command, emit a report.

Commands: `spectra` (invariant tables), `axioms` (normalization, triangle,
continuity, monodromy, spectrality, invariances), `appendix` (valuation
ultrametrics, balls, functional classification, dual identities), `oracle`
(seeded engine-vs-brute-force diffs).  Reports are deterministic JSON; exit
codes: 0 all pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__, jsonio
from .dual import (
    BallSpec,
    ball_intersection_radius,
    classify_functional,
    dual_boundary,
    dual_spectral_invariant,
    embed_class,
    in_ball,
)
from .engine import (
    check_valuation_bounds,
    image_membership,
    oracle_rho,
    realize_flat,
    spectral_invariant,
    spectrality_check,
)
from .errors import InputError, NovispecError, WindowTooLargeError
from .fixtures import (
    curated_functionals,
    load_builtin,
    random_chain,
    random_continuity_pair,
    random_instance,
    random_monodromy,
    random_scalar,
    transported_product,
)
from .maps import monodromy_shift, pants_product, verify_continuity
from .quantum import flat, leading_data, quantum_product
from .scalars import DOWN, UP, NEG_INF

COMMANDS = ("spectra", "axioms", "appendix", "oracle", "all")

# what parsing a malformed fixture raises (AttributeError: a list for an object)
_PARSE_ERRORS = (NovispecError, AttributeError, KeyError, TypeError, ValueError)


class _Rejected(Exception):
    """A fixture that parses but fails its own check: args (code, message)."""


def _manifold(ws, raw, entry, stem):
    fix = jsonio.manifold_from_json(raw)
    return fix.name, fix


def _complex(ws, raw, entry, stem):
    C = jsonio.complex_from_json(raw)
    report = C.validate()
    if not report.ok:
        v = report.violations[0]
        raise _Rejected("invariant:" + v.code, f"{v.message} (witness {v.witness})")
    name = entry.get("name", stem)
    ws.representatives[name] = reps = {}
    for rname, terms in raw.get("representatives", {}).items():
        reps[rname] = rep = jsonio.chain_from_json(terms, C)
        if not C.is_cycle(rep):
            raise _Rejected("invariant:not-a-cycle", f"representative {rname!r} is not a cycle")
    return name, C


def _chain_map(ws, raw, entry, stem):
    m = jsonio.chain_map_from_json(raw, ws.complexes)
    cert = m.certify()
    if not cert.ok:
        raise _Rejected("uncertified-map", ", ".join(cert.codes()))
    return stem, m


def _product(ws, raw, entry, stem):
    P = jsonio.product_map_from_json(raw, ws.complexes)
    report = P.validate()
    if not report.ok:
        raise _Rejected("product-invariant", ", ".join(report.codes()))
    return stem, P


def _known_complex(ws, entry):
    cname = entry["complex"]
    if cname not in ws.complexes:
        raise InputError(f"entry references unknown complex {cname!r}")
    return cname


def _shift(ws, raw, entry, stem):
    return stem, (_known_complex(ws, entry), jsonio.monodromy_from_json(raw))


def _functional(ws, raw, entry, stem):
    cname = _known_complex(ws, entry)
    return stem, (cname, jsonio.functional_from_json(raw, ws.complexes[cname]))


# The fixture-file sections, in load order: maps, products, shifts and
# functionals refer to complexes loaded before them.  Each section names its
# parse-failure code, its entry shape (a path string, or an object with a
# string "path") and the loader (ws, raw, entry, stem) -> (name, value) whose
# value is registered under `name` in the Workspace field of the same key.
_SECTIONS = {
    "manifolds": ("manifold-parse", str, _manifold),
    "complexes": ("complex-parse", dict, _complex),
    "chain_maps": ("chain-map-parse", str, _chain_map),
    "products": ("product-parse", str, _product),
    "shifts": ("shift-parse", dict, _shift),
    "functionals": ("functional-parse", dict, _functional),
}
_SHAPE_MESSAGES = {
    str: "entry must be a path string",
    dict: 'entry must be an object with a string "path"',
}

# the JSON type of each typed manifest field, when present
_FIELD_TYPES = {"out": (str, type(None))}
_FIELD_TYPES.update(dict.fromkeys(("builtin", *_SECTIONS), list))


@dataclass
class Workspace:
    mode: str = "rational-exact"
    floor: Fraction | None = None
    seed: int = 17
    oracle_cap: int = 100
    eps: Fraction = Fraction(1, 8)
    out: str | None = None
    manifolds: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)  # manifold -> (eps, built complex)
    complexes: dict = field(default_factory=dict)
    representatives: dict = field(default_factory=dict)  # complex -> {name: chain}
    chain_maps: dict = field(default_factory=dict)
    products: dict = field(default_factory=dict)
    shifts: dict = field(default_factory=dict)  # name -> (complex name, shift)
    functionals: dict = field(default_factory=dict)  # name -> (complex name, mu)
    fixture_hashes: dict = field(default_factory=dict)


def load_and_validate(manifest_path) -> Workspace:
    """Parse the manifest and every referenced fixture; aggregate failures."""
    path = Path(manifest_path)
    obj = jsonio.load_json(path)
    if not isinstance(obj, dict):
        raise InputError("the manifest must be a JSON object")
    for key, kind in _FIELD_TYPES.items():
        if key in obj and not isinstance(obj[key], kind):
            raise InputError(f"manifest field {key!r} has the wrong type")
    if obj.get("schema", 1) != 1:
        raise InputError(f"unsupported manifest schema {obj.get('schema')!r}")
    ws = Workspace()
    ws.mode = obj.get("mode", "rational-exact")
    if ws.mode not in ("rational-exact", "floating"):
        raise InputError(f"unknown mode {ws.mode!r}")
    if obj.get("floor") is not None:
        ws.floor = jsonio.parse_frac(obj["floor"])
    ws.seed = jsonio.parse_int(obj.get("seed", 17))
    ws.oracle_cap = _oracle_cap(obj.get("oracle_cap", 100))
    ws.eps = jsonio.parse_frac(obj.get("eps", "1/8"))
    ws.out = obj.get("out")
    errors = []

    def fail(code, where, message):
        errors.append({"code": code, "where": str(where), "message": message})

    for name in obj.get("builtin", []):
        try:
            ws.manifolds[name] = load_builtin(name)
        except (NovispecError, TypeError) as exc:
            fail("unknown-builtin", name, str(exc))
    for key, (code, shape, load) in _SECTIONS.items():
        registered = getattr(ws, key)
        for entry in obj.get(key, []):
            rel = entry.get("path") if shape is dict and isinstance(entry, dict) else entry
            if not (isinstance(entry, shape) and isinstance(rel, str)):
                fail(code, entry, _SHAPE_MESSAGES[shape])
                continue
            try:
                fpath = path.parent / rel
                name, value = load(ws, jsonio.load_json(fpath), entry, Path(rel).stem)
                # a name is a non-empty string not yet taken in its section;
                # builtins come first
                if not (isinstance(name, str) and name):
                    raise InputError(f"name {name!r} is not a non-empty string")
                if name in registered:
                    raise InputError(f"name {name!r} is already taken")
                registered[name] = value
                ws.fixture_hashes[rel] = jsonio.file_hash(fpath)
            except _Rejected as exc:
                fail(exc.args[0], rel, exc.args[1])
            except _PARSE_ERRORS as exc:
                fail(code, rel, str(exc))
    for name, fix in ws.manifolds.items():
        try:
            ws.models[name] = _validate_manifold(fix, ws.eps)
        except NovispecError as exc:
            fail("manifold-invariant", fix.name, str(exc))
    if errors:
        raise InputError(json.dumps(errors, sort_keys=True))
    return ws


def _oracle_cap(value) -> int:
    cap = jsonio.parse_int(value)
    if cap < 0:
        raise InputError(f"oracle_cap must be nonnegative, got {cap}")
    return cap


def _validate_manifold(fix, eps):
    """The capped eps and the complex built at it, once checked: PD chains
    are cycles, cochains are closed duals, pairing is the table (the
    product, if any, was validated when the fixture was built).  Each class
    is realized once, when a check first reads it, so the checks run, and
    fail, in the order they would with a realization per check."""
    eps = min(Fraction(eps), fix.max_eps)
    C = fix.build(eps)
    rep = C.validate()
    if not rep.ok:
        raise InputError(f"built complex invalid: {rep.codes()}")
    pd_chain = cache(lambda name: realize_flat(flat(fix.cls(name)), C, fix.pd_chains))
    for name in sorted(fix.basis.classes):
        if not C.is_cycle(pd_chain(name)):
            raise InputError(f"chain representative of {name!r} is not a cycle")
        mu = embed_class(fix.cls(name), C, fix.cochains)
        if not dual_boundary(mu).is_zero():
            raise InputError(f"cochain representative of {name!r} is not closed")
        for other in sorted(fix.basis.classes):
            got = mu.evaluate(pd_chain(other))
            want = fix.basis.pairing_table.get((name, other), Fraction(0))
            if got != want:
                raise InputError(
                    f"chain pairing ({name}, {other}) = {got} != table {want}"
                )
    return eps, C


# ---------------------------------------------------------------------------
# report helpers


def _fmt(x):
    if x == NEG_INF:
        return "-inf"
    if isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return jsonio.frac_str(x)
    if isinstance(x, float):
        return repr(x)
    return x


def _row(**kwargs):
    return {k: _fmt(v) for k, v in kwargs.items()}


class TaskLog:
    def __init__(self):
        self.rows = []
        self.failures = 0

    def check(self, ok, **kwargs):
        self.rows.append(_row(ok=bool(ok), **kwargs))
        if not ok:
            self.failures += 1
        return ok

    def note(self, **kwargs):
        self.rows.append(_row(**kwargs))


# ---------------------------------------------------------------------------
# tasks


def _spectra_row(log: TaskLog, ws: Workspace, C, result, **where):
    # floating mode certifies nothing
    cert = ws.mode == "rational-exact" and spectrality_check(result.rho, C)
    log.check(
        result.rho == NEG_INF or cert or ws.mode != "rational-exact",
        task="spectra",
        **where,
        rho=result.rho,
        witness=jsonio.chain_to_json(result.witness),
        trace_len=len(result.reduced_trace),
        spectral=cert,
    )


def task_spectra(ws: Workspace) -> TaskLog:
    log = TaskLog()
    for name in sorted(ws.manifolds):
        fix = ws.manifolds[name]
        eps, C = ws.models[name]
        for i, a in enumerate(fix.shipped_classes):
            rep = realize_flat(flat(a), C, fix.pd_chains)
            result = spectral_invariant(C, C.chain(rep.terms, ws.floor))
            _spectra_row(log, ws, C, result, fixture=name, cls=f"class{i}", eps=eps)
    for cname in sorted(ws.complexes):
        C = ws.complexes[cname]
        for rname, rep in sorted(ws.representatives.get(cname, {}).items()):
            try:
                result = spectral_invariant(C, C.chain(rep.terms, ws.floor))
            except WindowTooLargeError:
                raise  # the input needs an unbounded window: exit 2, not a row
            except NovispecError as exc:
                log.check(False, task="spectra", fixture=cname, cls=rname,
                          error=str(exc))
                continue
            _spectra_row(log, ws, C, result, fixture=cname, cls=rname)
    return log


def task_axioms(ws: Workspace) -> TaskLog:
    log = TaskLog()
    eps_list = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
    for name in sorted(ws.manifolds):
        fix = ws.manifolds[name]
        for i, a in enumerate(fix.shipped_classes):
            ld = leading_data(a)
            prev = None
            for eps in eps_list:
                if eps > fix.max_eps:
                    continue
                rep = check_valuation_bounds(
                    fix.morse, eps, a, fix.gamma, fix.pd_chains
                )
                if not rep.hypothesis_ok:
                    log.note(task="normalization", fixture=name, cls=f"class{i}",
                             eps=eps, hypothesis="violated")
                    continue
                monotone = prev is None or rep.deviation <= prev
                prev = rep.deviation
                log.check(
                    rep.sandwich_ok and rep.halfgap_ok and monotone
                    and rep.deviation <= eps * fix.morse.max_value(),
                    task="normalization",
                    fixture=name,
                    cls=f"class{i}",
                    eps=eps,
                    rho=rep.rho,
                    valuation=rep.valuation,
                    deviation=rep.deviation,
                )
    for name in sorted(ws.manifolds):
        fix = ws.manifolds[name]
        if fix.product is None:
            continue
        eps = min(ws.eps, fix.max_eps)
        C1, C3, P, _ = transported_product(fix, eps)
        if not P.validate().ok:
            log.check(False, task="triangle", fixture=name, error="ledger")
            continue
        names = sorted(fix.basis.classes)
        for i in names:
            for j in names:
                fa = realize_flat(flat(fix.cls(i)), C1, fix.pd_chains)
                fb = realize_flat(flat(fix.cls(j)), C1, fix.pd_chains)
                prod = pants_product(fa, fb, P)
                ab = quantum_product(fix.cls(i), fix.cls(j), fix.product)
                matches = prod == realize_flat(flat(ab), C3, fix.pd_chains)
                r1 = spectral_invariant(C1, fa).rho
                r2 = spectral_invariant(C1, fb).rho
                r3 = spectral_invariant(C3, prod).rho
                log.check(
                    matches and (r3 == NEG_INF or r3 <= r1 + r2),
                    task="triangle",
                    fixture=name,
                    pair=f"{i}*{j}",
                    rho_product=r3,
                    rho_sum=(r1 + r2),
                )
    for pname in sorted(ws.products):
        P = ws.products[pname]
        src_name = next(
            (n for n, c in ws.complexes.items() if c is P.source1), None
        )
        reps = sorted(ws.representatives.get(src_name, {}).items())
        for aname, alpha in reps:
            for bname, beta in reps:
                if alpha.is_zero() or beta.is_zero():
                    continue
                prod = pants_product(alpha, beta, P)
                r1 = spectral_invariant(P.source1, alpha).rho
                r2 = spectral_invariant(P.source2, beta).rho
                r3 = spectral_invariant(P.target, prod).rho
                bound = r1 + r2 + 2 * P.max_slack()
                log.check(
                    r3 == NEG_INF or r3 <= bound,
                    task="triangle",
                    fixture=pname,
                    pair=f"{aname}*{bname}",
                    rho_product=r3,
                    rho_sum=bound,
                )
    rng = random.Random(ws.seed)
    for k in range(10):
        pair = random_continuity_pair(ws.seed * 1000 + k,
                                      constant_shift=(k % 3 == 0))
        if pair.rep_source.is_zero():
            continue
        rep = verify_continuity(
            pair.source, pair.target, pair.forward, pair.backward,
            pair.ham_source, pair.ham_target, pair.rep_source, pair.rep_target,
        )
        tight_ok = (rep.tight_lower and rep.tight_upper) if pair.constant_shift else True
        log.check(rep.ok and tight_ok, task="continuity", seed=ws.seed * 1000 + k,
                  lower=rep.lower, upper=rep.upper, diff=rep.difference)
    for k in range(10):
        C, rep, shift, is_deck = random_monodromy(ws.seed * 2000 + k)
        if rep is None:
            continue
        shifted, transport, report = monodromy_shift(C, shift, rep)
        inv_shifted, _, inv_report = monodromy_shift(
            shifted, shift.inverse(), transport(rep)
        )
        log.check(
            report["exact"] and inv_report["exact"]
            and inv_report["i_omega"] == -report["i_omega"],
            task="monodromy",
            seed=ws.seed * 2000 + k,
            deck=is_deck,
            i_omega=shift.i_omega,
        )
    # projective and relabeling invariance on manifold fixtures
    for name in sorted(ws.manifolds):
        fix = ws.manifolds[name]
        _, C = ws.models[name]
        for i, a in enumerate(fix.shipped_classes):
            rep = realize_flat(flat(a), C, fix.pd_chains)
            base_rho = spectral_invariant(C, rep).rho
            ok = True
            for lam in (2, -1, Fraction(3, 7), -5, Fraction(1, 9)):
                scaled = realize_flat(flat(a.scale(lam)), C, fix.pd_chains)
                ok = ok and spectral_invariant(C, scaled).rho == base_rho
            log.check(ok, task="projective", fixture=name, cls=f"class{i}",
                      rho=base_rho)
        orbit_names = sorted(C.orbits)
        for t in range(3):
            shuffled = list(orbit_names)
            rng.shuffle(shuffled)
            mapping = dict(zip(orbit_names, [f"r{t}_{o}" for o in shuffled]))
            D = C.relabeled(mapping)
            for i, a in enumerate(fix.shipped_classes):
                rep = realize_flat(flat(a), C, fix.pd_chains)
                moved = C.transport(D, rep, mapping)
                log.check(
                    spectral_invariant(D, moved).rho == spectral_invariant(C, rep).rho,
                    task="relabeling", fixture=name, trial=t, cls=f"class{i}",
                )
    return log


def task_appendix(ws: Workspace) -> TaskLog:
    log = TaskLog()
    rng = random.Random(ws.seed + 1)
    gammas = [fix.gamma for _, fix in sorted(ws.manifolds.items())]
    gammas = [g for g in gammas if g.rank > 0] or [load_builtin("s2").gamma]
    ultra_bad = 0
    for _ in range(300):
        gamma = rng.choice(gammas)
        direction = rng.choice([DOWN, UP])
        x = random_scalar(rng, gamma, direction)
        y = random_scalar(rng, gamma, direction)
        vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
        if direction == DOWN:
            ok = vs <= max(vx, vy) and (vx == vy or vs == max(vx, vy))
        else:
            ok = vs >= min(vx, vy) and (vx == vy or vs == min(vx, vy))
        if not (x.is_zero() or y.is_zero()):
            p = (x * y).valuation()
            ok = ok and p == vx + vy
        if not ok:
            ultra_bad += 1
    log.check(ultra_bad == 0, task="ultrametric", trials=300, failures=ultra_bad)

    fix = ws.manifolds.get("czero") or load_builtin("czero")
    C = fix.build(min(ws.eps, fix.max_eps))
    ball_bad = 0
    for _ in range(100):
        deg = rng.choice([-1, 1])
        alpha = random_chain(rng, C, deg)
        b1 = BallSpec(alpha + random_chain(rng, C, deg), Fraction(rng.randint(1, 5)))
        b2 = BallSpec(alpha + random_chain(rng, C, deg), Fraction(rng.randint(1, 5)))
        if not (in_ball(alpha, b1) and in_ball(alpha, b2)):
            continue
        r3 = ball_intersection_radius(b1, b2, alpha)
        for _ in range(5):
            beta = alpha + random_chain(rng, C, deg)
            if (beta - alpha).level() < r3:
                if not (in_ball(beta, b1) and in_ball(beta, b2)):
                    ball_bad += 1
    log.check(ball_bad == 0, task="ball-basis", failures=ball_bad)

    img_bad = 0
    for _ in range(100):
        alpha = random_chain(rng, C, 1)
        R = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
        target = BallSpec(C.boundary(alpha), R)
        for _ in range(5):
            beta = alpha + random_chain(rng, C, 1)
            if in_ball(beta, BallSpec(alpha, R)):
                if not in_ball(C.boundary(beta), target):
                    img_bad += 1
    log.check(img_bad == 0, task="ball-image", failures=img_bad)

    continuous, divergent = curated_functionals(C)
    for i, mu in enumerate(continuous):
        cls = classify_functional(mu)
        witness_ok = cls.continuous and all(
            -C.gamma.omega(g.cap) > cls.threshold for g in mu.atoms
        )
        log.check(witness_ok, task="classification", which=f"cont{i}",
                  threshold=cls.threshold)
    for i, mu in enumerate(divergent):
        cls = classify_functional(mu)
        cert_ok = (not cls.continuous) and all(
            mu.evaluate(ch) == 1 for ch in cls.counterexample
        )
        log.check(cert_ok, task="classification", which=f"div{i}")

    for name in sorted(ws.manifolds):
        fix = ws.manifolds[name]
        _, Cf = ws.models[name]
        for i, a in enumerate(fix.shipped_classes):
            mu = embed_class(a, Cf, fix.cochains)
            lhs = dual_boundary(mu)
            ok = lhs.is_zero()  # shipped classes are cocycles
            rep = realize_flat(flat(a), Cf, fix.pd_chains)
            r = spectral_invariant(Cf, rep).rho
            k = fix.morse.dim // 2 - a.degree
            rd = dual_spectral_invariant(Cf, mu, k)
            log.check(ok, task="cochain-identity", fixture=name, cls=f"class{i}")
            log.note(task="dual-vs-primal", fixture=name, cls=f"class{i}",
                     primal=r, dual=rd, equal=(rd == r))
    return log


def task_oracle(ws: Workspace) -> TaskLog:
    log = TaskLog()
    rng = random.Random(ws.seed + 2)
    diffs = 0
    probes_bad = 0
    count = 0
    for k in range(ws.oracle_cap):
        inst = random_instance(ws.seed * 31 + k)
        if inst.representative.is_zero():
            continue
        count += 1
        r = spectral_invariant(inst.complex, inst.representative)
        o = oracle_rho(inst.complex, inst.representative)
        if not (r.rho == o == inst.expected_rho):
            diffs += 1
            log.check(False, task="oracle", seed=inst.seed, engine=r.rho,
                      oracle=o, expected=inst.expected_rho)
            continue
        probes = 0
        attempts = 0
        while probes < 10 and attempts < 200:
            attempts += 1
            lam = Fraction(rng.randint(-40, 40), 7) + Fraction(1, 13)
            if spectrality_check(lam, inst.complex):
                continue
            probes += 1
            member = image_membership(inst.complex, inst.representative, lam)
            if member != (r.rho < lam):
                probes_bad += 1
        if not spectrality_check(r.rho, inst.complex) and r.rho != NEG_INF:
            log.check(False, task="oracle-spectrality", seed=inst.seed, rho=r.rho)
    log.check(diffs == 0, task="oracle", instances=count, diffs=diffs)
    log.check(probes_bad == 0, task="truncation-probes", failures=probes_bad)
    return log


TASKS = {
    "spectra": task_spectra,
    "axioms": task_axioms,
    "appendix": task_appendix,
    "oracle": task_oracle,
}


def run(command: str, ws: Workspace) -> dict:
    """Execute one command (or `all`) and assemble the report."""
    if command == "all":
        names = ["spectra", "axioms", "appendix", "oracle"]
    else:
        names = [command]
    results = {}
    failures = 0
    for name in names:
        log = TASKS[name](ws)
        results[name] = {"rows": log.rows, "failures": log.failures}
        failures += log.failures
    return {
        "schema": 1,
        "command": command,
        "mode": ws.mode,
        "seed": ws.seed,
        "environment": {"package": "novispec", "version": __version__},
        "fixture_hashes": dict(sorted(ws.fixture_hashes.items())),
        "results": results,
        "failures": failures,
        "status": "PASS" if failures == 0 else "FAIL",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectra",
        description="Exact spectral invariants of filtered Novikov complexes.",
    )
    parser.add_argument("args", nargs="+",
                        help="[command] manifest — command in "
                             f"{{{', '.join(COMMANDS)}}}, default spectra")
    parser.add_argument("--mode", choices=["rational", "float"], default=None)
    parser.add_argument("--floor", default=None, help="precision floor p/q")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--oracle-cap", type=int, default=None)
    opts = parser.parse_args(argv)

    if opts.args[0] in COMMANDS:
        if len(opts.args) != 2:
            parser.error("usage: spectra [command] <manifest>")
        command, manifest = opts.args
    elif len(opts.args) == 1:
        command, manifest = "spectra", opts.args[0]
    else:
        parser.error(f"unknown command {opts.args[0]!r}")

    try:
        ws = load_and_validate(manifest)
        if opts.floor:
            ws.floor = jsonio.parse_frac(opts.floor)
        if opts.oracle_cap is not None:
            ws.oracle_cap = _oracle_cap(opts.oracle_cap)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if opts.mode:
        ws.mode = "rational-exact" if opts.mode == "rational" else "floating"
    if opts.seed is not None:
        ws.seed = opts.seed

    try:
        report = run(command, ws)
    except NovispecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    out_path = opts.out or ws.out
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for name, block in sorted(report["results"].items()):
        print(f"{name}: {'PASS' if block['failures'] == 0 else 'FAIL'} "
              f"({len(block['rows'])} rows)", file=sys.stderr)
    return 0 if report["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
