"""novispec benchmark: one workload in one process, timed or traced.

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
`{"detail": ...}` object with sample counts, per-pass times, failures and
host facts, also written to `bench/out/`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics.  See
`bench/README.md` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYERS, SETUP_LAYERS, Bindings, Tracer  # noqa: E402

PACKAGE = "novispec"
REPORT_SHA256 = "c1ee75cf2eaa055c5f957ecacbf5f1821348e147cd35d7ace3e2fd3af407b8fd"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # with --corpus 1; keep it out of tuning runs

MIN_PASSES = 3  # of an untraced run; a traced run alternates at least 2 + 2
IMPORT_REPEATS = 3

# Host-speed normalisation.  On a shared host the same pass varies by up to
# +-20 % within a minute, in CPU time as much as in wall time.  A fixed
# reference kernel runs between calls, at checkpoints CHECK_EVERY_S of
# program time apart; each stretch of program time is scaled by
# NOMINAL_REF_S over the mean of the reference times at its two ends.
# Checkpoints 0.5 s apart left a 0.08 spread in crosscheck's wall_s over
# five seeds; 0.1 s apart, 0.013.  NOMINAL_REF_S is the kernel's median on
# a quiet 2-core Xeon at 2.0 GHz, so reported times read as seconds on that
# host.
CHECK_EVERY_S = 0.1
REFERENCE_REPEATS = 3
NOMINAL_REF_S = 0.0020


def _reference_once():
    """Exact Gauss-Jordan elimination of a fixed 8 x 9 rational system."""
    n = 8
    a = [
        [Fraction((3 * i + 5 * j) % 13 - 6, (i + 2 * j) % 5 + 1) for j in range(n + 1)]
        for i in range(n)
    ]
    t0 = perf_counter()
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [v / pv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return perf_counter() - t0


def reference_seconds():
    return statistics.median(_reference_once() for _ in range(REFERENCE_REPEATS))


class Meter:
    """Times program work, host-normalised when `normalise` is set.

    `timed` records one call's duration under a series name.  `lap` closes
    the open stretch and returns its length.  References run only between
    top-level timed calls, never inside one.
    """

    def __init__(self, normalise):
        self.normalise = normalise
        self.refs = []
        self._ref = reference_seconds() if normalise else None
        self._pending = []
        self._samples = {}
        self._depth = 0
        self._total = 0.0
        self._raw = 0.0
        self._mark = perf_counter()

    def timed(self, series, func, *args, **kwargs):
        self._depth += 1
        t0 = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            self._pending.append((series, perf_counter() - t0))
            self._depth -= 1
            if self._depth == 0 and perf_counter() - self._mark >= CHECK_EVERY_S:
                self.checkpoint()

    def checkpoint(self):
        raw = perf_counter() - self._mark
        scale = 1.0
        if self.normalise:
            ref = reference_seconds()
            self.refs.append(ref)
            scale = NOMINAL_REF_S / ((self._ref + ref) / 2)
            self._ref = ref
        for series, seconds in self._pending:
            self._samples.setdefault(series, []).append(seconds * scale)
        self._pending.clear()
        self._total += raw * scale
        self._raw += raw
        self._mark = perf_counter()

    def lap(self):
        """(normalised, raw) seconds since the previous lap."""
        self.checkpoint()
        out = (self._total, self._raw)
        self._total = self._raw = 0.0
        return out

    def take(self):
        """Per-call samples recorded since the last take, by series."""
        out, self._samples = self._samples, {}
        return out


class Tally:
    """Answers attempted and failed; failures never abort the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def call(self, what, func, *args, **kwargs):
        """Run one answer-producing call; a raise counts as a failure."""
        try:
            return func(*args, **kwargs)
        except Exception as exc:  # the run keeps going and reports it
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return exc


# ---------------------------------------------------------------------------
# workloads


def _on_spectrum(C, lam):
    g = C.gamma.period_generator()
    bases = [a for a, _ in C.orbits.values()]
    if g == 0:
        return lam in bases
    return any(((b - lam) / g).denominator == 1 for b in bases)


class Case:
    __slots__ = ("complex", "rep", "expected", "lams", "seed")

    def __init__(self, inst, sign, lams):
        self.complex = inst.complex
        self.rep = inst.representative.scale(sign)
        self.expected = inst.expected_rho
        self.lams = lams
        self.seed = inst.seed


class RandomClasses:
    """Nonzero classes of seeded random instances, queried per `--seed`.

    The complexes are a fixed corpus: instance seeds CORPUS_STRIDE * corpus,
    +1, ...  Per-instance cost is heavy-tailed (the slowest 1 % of instances
    take about a fifth of the time), so complexes drawn afresh for each seed
    would move totals by 15-35 % between seeds.  The seed instead draws the
    queries on the corpus: the sign of each representative (same invariant,
    same arithmetic cost; rescaling by other rationals moved the per-call
    medians by about 10 % between seeds) and the probe levels.
    """

    CORPUS_STRIDE = 1_000_000
    SIGNS = (1, -1)

    def __init__(self, seed, corpus):
        self.seed = seed
        self.corpus = corpus

    def cases(self, rng, count, probes, **generator_args):
        """The first `count` nonzero classes, each with `probes` probe levels."""
        fixtures = importlib.import_module(PACKAGE + ".fixtures")
        out = []
        k = self.corpus * self.CORPUS_STRIDE
        while len(out) < count:
            inst = fixtures.random_instance(k, **generator_args)
            k += 1
            if not inst.representative.is_zero():
                lams = self.probe_levels(rng, inst.complex, probes)
                out.append(Case(inst, rng.choice(self.SIGNS), lams))
        return out

    @staticmethod
    def probe_levels(rng, C, count):
        """Off-spectrum levels k/7 + 1/13, one from each of `count` equal
        slices of k in [-42, 42].  Stratified rather than independent
        draws: the cost of a probe depends on its level, and independent
        draws moved `wide`'s probe_p50_ms by 0.17 (spread) between seeds.
        """
        lams = []
        if count == 0:
            return lams
        edges = [-42 + (85 * i) // count for i in range(count + 1)]
        for lo, hi in zip(edges, edges[1:]):
            ks = list(range(lo, hi))
            rng.shuffle(ks)
            lam = next((lam for lam in (Fraction(k, 7) + Fraction(1, 13) for k in ks)
                        if not _on_spectrum(C, lam)), None)
            if lam is not None:
                lams.append(lam)
        return lams

    def rng(self):
        return random.Random(f"{self.name}/{self.seed}")

    @staticmethod
    def cross(cases, meter, tally, answers):
        """Oracle and membership probes per class, checked against truth."""
        engine = importlib.import_module(PACKAGE + ".engine")
        for case in cases:
            o = tally.call(f"oracle seed={case.seed}", meter.timed, "oracle",
                           engine.oracle_rho, case.complex, case.rep)
            if not isinstance(o, Exception):
                tally.check(o == case.expected, f"oracle seed={case.seed}: {o} != {case.expected}")
            answers.append(o)
            for lam in case.lams:
                m = tally.call(f"probe seed={case.seed} lam={lam}", meter.timed, "probe",
                               engine.image_membership, case.complex, case.rep, lam)
                if not isinstance(m, Exception):
                    tally.check(m == (case.expected < lam),
                                f"probe seed={case.seed} lam={lam}: {m}")
                answers.append(m)

    @staticmethod
    def invariant(case, meter, tally, answers):
        engine = importlib.import_module(PACKAGE + ".engine")
        r = tally.call(f"invariant seed={case.seed}", meter.timed, "invariant",
                       engine.spectral_invariant, case.complex, case.rep)
        if not isinstance(r, Exception):
            tally.check(r.rho == case.expected,
                        f"invariant seed={case.seed}: {r.rho} != {case.expected}")
            r = r.rho
        answers.append(r)


class Crosscheck(RandomClasses):
    """Acceptance criterion 2's shape: engine, oracle and 10 probes per class."""

    name = "crosscheck"
    CLASSES = 60

    def setup(self):
        return self.cases(self.rng(), self.CLASSES, 10, max_orbits=6, gamma_window=3)

    def run(self, cases, meter, tally):
        answers = []
        for case in cases:
            self.invariant(case, meter, tally, answers)
            self.cross([case], meter, tally, answers)
        return answers

    def side(self, cases, meter, tally):
        return []


class Wide(RandomClasses):
    """One spectral invariant per class on larger windows.

    Every end-to-end metric must exist on every workload, so after the timed
    loop a companion set of SIDE_CLASSES classes with at most 8 orbits (the
    size the oracle handles in milliseconds; on the 16-orbit corpus it takes
    up to 10 s per class) gets the oracle and SIDE_PROBES probes each.  Those
    calls feed `oracle_*` and `probe_*` only, not `wall_s`.
    """

    name = "wide"
    CLASSES = 120
    SIDE_CLASSES = 80
    SIDE_PROBES = 5

    def setup(self):
        rng = self.rng()
        main = self.cases(rng, self.CLASSES, 0, max_orbits=16)
        side = self.cases(rng, self.SIDE_CLASSES, self.SIDE_PROBES, max_orbits=8)
        return main, side

    def run(self, inputs, meter, tally):
        answers = []
        for case in inputs[0]:
            self.invariant(case, meter, tally, answers)
        return answers

    def side(self, inputs, meter, tally):
        answers = []
        self.cross(inputs[1], meter, tally, answers)
        return answers


class Report:
    """`spectra all manifests/demo.json`, in process; the report is fixed."""

    name = "report"
    MANIFEST = Path("manifests") / "demo.json"
    # per-call series timed inside `cli.run` by patching the package bindings
    SERIES = {
        "invariant": "novispec.engine:spectral_invariant",
        "oracle": "novispec.engine:oracle_rho",
        "probe": "novispec.engine:image_membership",
    }

    def __init__(self, seed, corpus):
        # The manifest pins its own seed and the expected report bytes, so
        # `--seed` and `--corpus` do not change this workload's inputs.
        self.seed = seed

    def setup(self):
        cli = importlib.import_module(PACKAGE + ".cli")
        return cli.load_and_validate(str(self.MANIFEST))

    def run(self, ws, meter, tally):
        cli = importlib.import_module(PACKAGE + ".cli")
        bindings = Bindings()
        for series, target in self.SERIES.items():
            bindings.patch(target, lambda f, s=series: (
                lambda *a, **k: meter.timed(s, f, *a, **k)))
        try:
            report = tally.call("report", cli.run, "all", ws)
        finally:
            bindings.restore()
        if isinstance(report, Exception):
            return [None]
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        tally.check(digest == REPORT_SHA256 and report["failures"] == 0,
                    f"report sha256 {digest}, failures {report['failures']}")
        return [digest]

    def side(self, ws, meter, tally):
        return []


WORKLOADS = {w.name: w for w in (Crosscheck, Wide, Report)}


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def per_call(passes, series):
    """Per-call medians across passes (calls line up: the sequence is fixed)."""
    runs = [p.get(series, []) for p in passes]
    return [statistics.median(xs) for xs in zip(*runs, strict=True)]


def host_facts():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = fh.read().split()[:3]
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": load,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def import_seconds(meter):
    """Median over fresh imports of the package (host-normalised)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        meter.lap()
        importlib.import_module(PACKAGE + ".cli")
        times.append(meter.lap()[0])
    return statistics.median(times)


def timed_run(wl, seconds, tally):
    meter = Meter(normalise=True)
    imports = import_seconds(meter)
    start = perf_counter()
    setups, walls, raw_walls, samples = [], [], [], []
    first_answers = None
    while True:
        t0 = perf_counter()
        meter.lap()
        inputs = wl.setup()
        setups.append(meter.lap()[0])
        answers = wl.run(inputs, meter, tally)
        wall, raw = meter.lap()
        answers += wl.side(inputs, meter, tally)
        meter.lap()
        walls.append(wall)
        raw_walls.append(raw)
        samples.append(meter.take())
        if first_answers is None:
            first_answers = answers
        else:
            tally.check(answers == first_answers, "answers differ between passes")
        took = perf_counter() - t0
        if len(walls) >= MIN_PASSES and perf_counter() - start + took > seconds:
            break
    metrics = {
        "setup_s": (imports + statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
    }
    counts, pcts, means = {}, {}, {}
    for series in ("invariant", "oracle", "probe"):
        calls = per_call(samples, series)
        counts[series] = len(calls)
        if not calls:
            tally.check(False, f"no {series} calls measured")
            continue
        p, pct = tail(calls)
        pcts[series] = pct
        means[series] = 1000 * statistics.fmean(calls)
        metrics[f"{series}_p50_ms"] = (1000 * statistics.median(calls), "ms")
        metrics[f"{series}_tail_ms"] = (1000 * p, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    detail = {
        "passes": len(walls),
        "wall_s": walls,
        "raw_wall_s": raw_walls,
        "setup_s": setups,
        "import_s": imports,
        "calls_per_pass": counts,
        "tail_percentile": pcts,
        "mean_ms": means,
        "reference_s": {
            "median": statistics.median(meter.refs),
            "min": min(meter.refs),
            "max": max(meter.refs),
            "count": len(meter.refs),
        },
    }
    return metrics, detail


def _span_total(tracer, layer):
    return sum(end - start for name, start, end, _ in tracer.spans if name == layer)


def layer_metrics(first, tracers, overhead):
    s = first.stats
    setup = first.setup_stats
    self_s = {
        layer: statistics.median(t.stats[layer].self_s for t in tracers) for layer in s
    }
    setup_self = {
        layer: statistics.median(t.setup_stats[layer].self_s for t in tracers)
        for layer in setup
    }

    def ratio(num, den):
        return num / den if den else 0.0

    def extra(layer, key):
        return s[layer].extra.get(key, 0)

    m = {}

    def calls(layer):
        m[layer + ".calls"] = (s[layer].calls, "count")

    def own(layer):
        m[layer + ".self_s"] = (self_s[layer], "s")

    calls("gamma.solve")
    own("gamma.solve")
    m["gamma.solve.hit_ratio"] = (ratio(extra("gamma.solve", "hits"), s["gamma.solve"].calls), "ratio")
    calls("gamma.omega")
    for layer in ("chains.generator", "chains.boundary"):
        calls(layer)
        own(layer)
    calls("engine.degree_generators")
    own("engine.degree_generators")
    m["engine.degree_generators.generators"] = (extra("engine.degree_generators", "generators"), "count")
    bw = "engine.build_window"
    calls(bw)
    own(bw)
    for key in ("rows", "cols", "nonzeros"):
        m[f"{bw}.{key}"] = (extra(bw, key), "count")
    m[f"{bw}.distinct_ratio"] = (ratio(len(first.windows), s[bw].calls), "ratio")
    calls("engine.spectral_invariant")
    own("engine.spectral_invariant")
    m["engine.spectral_invariant.widenings"] = (extra("engine.spectral_invariant", "widenings"), "count")
    calls("engine.oracle_rho")
    own("engine.oracle_rho")
    m["engine.oracle_rho.levels_probed"] = (extra("engine.oracle_rho", "levels_probed"), "count")
    for layer in ("engine.image_membership", "engine.action_spectrum"):
        calls(layer)
        own(layer)
    calls("linalg.solve")
    own("linalg.solve")
    m["linalg.solve.cells"] = (extra("linalg.solve", "cells"), "count")
    m["linalg.solve.infeasible_ratio"] = (
        ratio(extra("linalg.solve", "infeasible"), s["linalg.solve"].calls), "ratio")
    m["fractions.new.calls"] = (first.fractions, "count")
    calls("linalg.nullspace")
    own("linalg.nullspace")
    m["linalg.nullspace.cells"] = (extra("linalg.nullspace", "cells"), "count")
    calls("dual.dual_spectral_invariant")
    own("dual.dual_spectral_invariant")
    calls("scalars.add")
    calls("scalars.mul")
    m["scalars.ops.self_s"] = (self_s["scalars.add"] + self_s["scalars.mul"], "s")
    for layer in ("maps.verify_continuity", "maps.pants_product", "maps.monodromy_shift"):
        own(layer)
    m["fixtures.random_instance.calls"] = (setup["fixtures.random_instance"].calls, "count")
    m["fixtures.random_instance.self_s"] = (setup_self["fixtures.random_instance"], "s")
    m["cli.load_and_validate.self_s"] = (setup_self["cli.load_and_validate"], "s")
    for task in ("spectra", "axioms", "appendix", "oracle"):
        layer = f"cli.task_{task}"
        total = statistics.median(_span_total(t, layer) for t in tracers)
        m[f"{layer}.s"] = (total, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def traced_run(wl, seconds, tally, out_dir):
    """Alternate plain and traced passes; counts come from the first traced one."""
    meter = Meter(normalise=False)
    start = perf_counter()
    plain, traced, tracers = [], [], []
    reference = None
    while True:
        t0 = perf_counter()
        tracing = len(plain) > len(traced)
        setup_tracer = Tracer(SETUP_LAYERS)
        tracer = Tracer(LAYERS, count_fractions=True)
        with setup_tracer if tracing else nullcontext():
            inputs = wl.setup()
        meter.lap()
        with tracer if tracing else nullcontext():
            answers = wl.run(inputs, meter, tally)
            wall = meter.lap()[1]
            answers += wl.side(inputs, meter, tally)
        if tracing:
            tracer.setup_stats = setup_tracer.stats
            tracers.append(tracer)
            traced.append(wall)
        else:
            plain.append(wall)
        meter.take()
        if reference is None:
            reference = answers
        else:
            tally.check(answers == reference, "traced and untraced answers differ")
        took = perf_counter() - t0
        done = len(traced) >= 2 and len(plain) >= 2 and len(plain) == len(traced)
        if done and perf_counter() - start + 2 * took > seconds:
            break
    first = tracers[0]
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = layer_metrics(first, tracers, overhead)
    identity = None
    if wl.name in ("crosscheck", "wide") and not first.missing:
        windows = metrics["engine.build_window.calls"][0]
        attempts = (metrics["engine.spectral_invariant.calls"][0]
                    + metrics["engine.spectral_invariant.widenings"][0]
                    + metrics["engine.image_membership.calls"][0])
        identity = {"build_window.calls": windows,
                    "spectral_invariant.calls + widenings + image_membership.calls": attempts}
        tally.check(windows == attempts, f"window identity {identity}")
    out_dir.mkdir(parents=True, exist_ok=True)
    first.write_spans(out_dir / f"spans-{wl.name}-seed{wl.seed}.json")
    detail = {
        "plain_wall_s": plain,
        "traced_wall_s": traced,
        "missing_layers": first.missing,
        "spans": len(first.spans),
        "window_identity": identity,
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description="novispec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", type=int, default=0,
                        help="instance corpus of the random workloads; held-out "
                             f"check: --seed {HELD_OUT_SEED} --corpus 1")
    opts = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: run from a novispec checkout; no src/{PACKAGE} in {root}",
              file=sys.stderr)
        return 2
    if opts.workload == "report" and not (root / Report.MANIFEST).is_file():
        print(f"error: no {Report.MANIFEST} in {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    facts = {"start": host_facts()}
    wl = WORKLOADS[opts.workload](opts.seed, opts.corpus)
    tally = Tally()
    out_dir = Path(__file__).resolve().parent / "out"
    if opts.trace:
        metrics, detail = traced_run(wl, opts.seconds, tally, out_dir)
    else:
        metrics, detail = timed_run(wl, opts.seconds, tally)
    facts["end"] = host_facts()
    detail.update({
        "workload": opts.workload,
        "seed": opts.seed,
        "corpus": opts.corpus,
        "trace": opts.trace,
        "seconds": opts.seconds,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "failures": tally.notes,
        "host": facts,
    })
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"result-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
