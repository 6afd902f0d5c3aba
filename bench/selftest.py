"""Self-test of the benchmark's tracing, run from the root of a checkout:

    python3 bench/selftest.py

On `wide` with a 30-class corpus (and its 80 companion classes) it checks
that
- tracing leaves every answer unchanged;
- the hand-checkable identity holds: every window is built by one attempt
  of `spectral_invariant` (its first window or a widening) or by one
  `image_membership` probe, so
  build_window.calls == spectral_invariant.calls + widenings + image_membership.calls,
  with spectral_invariant.calls == 30, oracle_rho.calls == 80 and
  image_membership.calls == the probe levels drawn (5 per companion class);
- two traced passes over fresh copies of the same inputs give identical
  counts (including `Fraction.__new__` calls);
- a traced `report` pass reaches every wrapped layer, each `cli` task
  exactly once through `cli.TASKS`, and still hashes to the expected bytes;
- every patched binding and `Fraction.__new__` are restored afterwards.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402
from tracing import LAYERS, PACKAGE, Tracer  # noqa: E402

CLASSES = 30


def snapshot():
    """Every module global and class attribute in the package, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
            elif isinstance(value, dict) and key.isupper():
                for k, v in value.items():
                    out[(name, key, "[]", k)] = v
    out["Fraction.__new__"] = vars(Fraction)["__new__"]
    return out


def main():
    import novispec.cli  # noqa: F401  (loads every module that binds a layer)

    problems = []
    wl = run.Wide(seed=1, corpus=0)
    wl.CLASSES = CLASSES
    before = snapshot()
    meter = run.Meter(normalise=False)
    tally = run.Tally()

    inputs = wl.setup()
    plain = wl.run(inputs, meter, tally) + wl.side(inputs, meter, tally)

    counts = []
    for _ in range(2):
        inputs = wl.setup()
        with Tracer(LAYERS, count_fractions=True) as tracer:
            answers = wl.run(inputs, meter, tally) + wl.side(inputs, meter, tally)
        if answers != plain:
            problems.append("traced answers differ from untraced answers")
        s = tracer.stats
        counts.append((
            {layer: (st.calls, dict(st.extra)) for layer, st in s.items()},
            tracer.fractions,
            len(tracer.windows),
        ))
        windows = s["engine.build_window"].calls
        invariant = s["engine.spectral_invariant"].calls
        widenings = s["engine.spectral_invariant"].extra.get("widenings", 0)
        probes = s["engine.image_membership"].calls
        oracles = s["engine.oracle_rho"].calls
        levels = sum(len(c.lams) for c in inputs[1])
        if windows != invariant + widenings + probes:
            problems.append(
                f"identity: build_window.calls {windows} != "
                f"{invariant} + {widenings} + {probes}")
        if (invariant, oracles, probes) != (CLASSES, wl.SIDE_CLASSES, levels):
            problems.append(f"call counts: {invariant} invariants, {oracles} oracle calls, "
                            f"{probes} probes for {levels} levels")
        if tracer.missing:
            problems.append(f"layers not found: {tracer.missing}")
    if counts[0] != counts[1]:
        problems.append("counts differ between two traced passes of the same inputs")

    report = run.Report(seed=1, corpus=0)
    ws = report.setup()
    with Tracer(LAYERS, count_fractions=True) as tracer:
        report.run(ws, meter, tally)
    unseen = [layer for layer, st in tracer.stats.items() if st.calls == 0]
    if unseen:
        problems.append(f"report never reached {unseen}")
    tasks = {layer: st.calls for layer, st in tracer.stats.items() if layer.startswith("cli.")}
    if set(tasks.values()) != {1}:
        problems.append(f"cli task calls {tasks}")
    if tally.failed:
        problems.append(f"{tally.failed} wrong answers: {tally.notes[:3]}")

    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        problems.append(f"bindings not restored: {changed[:5]}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
