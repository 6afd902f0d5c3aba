#!/usr/bin/env python3
"""Hash the engine's answers on a fixed random corpus, one digest per field.

    python3 tools/answers_digest.py

On `random_instance` seeds 0-599 (12 orbits on even seeds, 6 on odd) it
asks, per class, for the spectral invariant, the oracle and 5 membership
probes, and prints {field: sha256} as JSON: rho, the witness
(`jsonio.chain_to_json`), the reduced trace, the spectrality, `attained_at`,
the certificate, the oracle's outcome and the probes.  A raised error counts
as an answer (its type and message).  The `fixtures` field hashes the
questions themselves: each instance's complex (`jsonio.complex_to_json`),
representative and expected rho.  Run it on two trees to check that a
change keeps every answer and every seeded instance.
"""

from fractions import Fraction
from hashlib import sha256
import json
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import novispec as nv
from novispec import jsonio
from novispec.engine import ReductionStep
from novispec.fixtures import random_instance

SEEDS = range(600)
FIELDS = ("rho", "witness", "trace", "spectrality", "attained_at", "certificate",
          "oracle", "probes", "fixtures")


def _canon(x):
    """A JSON-ready form of an answer: exact values as strings, tuples as lists."""
    if isinstance(x, (Fraction, float)):
        return str(x)
    if isinstance(x, nv.Generator):
        return [x.orbit, list(x.cap), str(x.action), x.degree]
    if isinstance(x, ReductionStep):
        return [str(x.level), x.stratum_size]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def _ask(func, *args):
    try:
        return func(*args)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def answers(seed: int) -> dict:
    """{field: answer} for the class of one seed."""
    inst = random_instance(seed, max_orbits=12 if seed % 2 == 0 else 6)
    C, rep = inst.complex, inst.representative
    level = rep.level()
    base = level if isinstance(level, Fraction) else Fraction(0)
    r = _ask(nv.spectral_invariant, C, rep)
    out = {"fixtures": [jsonio.complex_to_json(C), jsonio.chain_to_json(rep),
                        inst.expected_rho],
           "oracle": _ask(nv.oracle_rho, C, rep),
           "probes": [_ask(nv.image_membership, C, rep, base + Fraction(k, 7) + Fraction(1, 13))
                      for k in (-6, -3, 0, 3, 6)]}
    if isinstance(r, str):
        out.update(dict.fromkeys(FIELDS[:6], r))
    else:
        out.update(rho=r.rho, witness=jsonio.chain_to_json(r.witness), trace=r.reduced_trace,
                   spectrality=r.spectrality, attained_at=r.attained_at,
                   certificate=r.certificate)
    return out


def digest(seeds=SEEDS) -> dict:
    """{field: sha256 hex} over the answers of every seed, in seed order."""
    hashes = {f: sha256() for f in FIELDS}
    for seed in seeds:
        for f, value in answers(seed).items():
            hashes[f].update(json.dumps(_canon(value), sort_keys=True).encode() + b"\n")
    return {f: h.hexdigest() for f, h in hashes.items()}


if __name__ == "__main__":
    print(json.dumps(digest(), indent=1))
