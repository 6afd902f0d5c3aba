"""Per-layer tracing of novispec from outside the package.

The benchmark does not change the package.  Instead it replaces every
binding of a chosen package function with a wrapper while a pass runs, and
puts the original back afterwards.  Several modules import functions by
name (`dual` binds `build_window` and `_degree_generators`, `maps` binds
`spectral_invariant`, `cli` and the package re-export the engine, and
`cli.TASKS` holds the task functions), so `Bindings` patches every module
global, every module-level dict value and every class attribute in the
package that refers to the original object.

`Tracer` records, for each wrapped layer, a call count and self time (a
call's duration minus the time its wrapped callees cover), plus a few
layer-specific counts.  Calls of the coarse layers are also kept as spans
(layer, start, end, parent span) in memory and written out at the end; the
hot, tiny layers (cap solving, generators, scalar ops) are aggregated only,
because they run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter

PACKAGE = "novispec"


def resolve(target):
    """`"module:Qual.name"` -> (owner, attribute, object), or None if absent.

    Targets that a later version of the package removed are reported as
    missing rather than failing the run.
    """
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Bindings:
    """Every place in the package that binds an object, patched and restored."""

    def __init__(self):
        self._saved = []  # (container, key, original, is_dict)

    def patch(self, target, make_wrapper):
        """Wrap `target` everywhere it is bound; False if it does not exist."""
        found = resolve(target)
        if found is None:
            return False
        owner, attr, original = found
        if isinstance(owner, type):
            # a method: the class attribute is the only binding
            self._set(owner, attr, make_wrapper(original), False)
            return True
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, False)
                elif isinstance(value, dict) and key.isupper():
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper, True)
        return True

    def _set(self, container, key, value, is_dict):
        if is_dict:
            self._saved.append((container, key, container[key], True))
            container[key] = value
        else:
            self._saved.append((container, key, vars(container)[key], False))
            setattr(container, key, value)

    def restore(self):
        while self._saved:
            container, key, original, is_dict = self._saved.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)


class LayerStats:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def bump(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n


# ---------------------------------------------------------------------------
# per-layer counts taken from arguments and results


def _solve_hit(st, frame, args, result):
    st.bump("hits", result is not None)


def _generators(st, frame, args, result):
    st.bump("generators", len(result))


def _window(st, frame, args, w):
    st.bump("rows", len(w.rows))
    st.bump("cols", len(w.cols))
    st.bump("nonzeros", sum(1 for row in w.matrix for c in row if c != 0))
    # the complex itself (identity-hashed) rather than its id: the tuple
    # keeps it alive, so a freed complex's id cannot be reused by another
    frame.tracer.windows.add((w.complex, w.degree, w.lo, w.hi))
    owner = frame.tracer.nearest("engine.spectral_invariant")
    if owner is not None:
        owner.windows += 1


def _cells(rows):
    return len(rows) * len(rows[0]) if rows else 0


def _linalg_solve(st, frame, args, result):
    st.bump("cells", _cells(args[0]))
    st.bump("infeasible", result is None)
    owner = frame.tracer.nearest("engine.oracle_rho")
    if owner is not None:
        frame.tracer.stats["engine.oracle_rho"].bump("levels_probed")


def _nullspace(st, frame, args, result):
    st.bump("cells", _cells(args[0]))


def _invariant(st, frame, args, result):
    st.bump("widenings", max(0, frame.windows - 1))


# layer name -> (target, hot, exit hook)
LAYERS = {
    "gamma.solve": ("novispec.gamma:GammaGroup.solve", True, _solve_hit),
    "gamma.omega": ("novispec.gamma:GammaGroup.omega", True, None),
    "chains.generator": ("novispec.chains:FilteredComplex.generator", True, None),
    "chains.boundary": ("novispec.chains:FilteredComplex.boundary", True, None),
    "scalars.add": ("novispec.scalars:NovikovScalar.__add__", True, None),
    "scalars.mul": ("novispec.scalars:NovikovScalar.__mul__", True, None),
    "engine.degree_generators": ("novispec.engine:_degree_generators", False, _generators),
    "engine.build_window": ("novispec.engine:build_window", False, _window),
    "engine.spectral_invariant": ("novispec.engine:spectral_invariant", False, _invariant),
    "engine.oracle_rho": ("novispec.engine:oracle_rho", False, None),
    "engine.image_membership": ("novispec.engine:image_membership", False, None),
    "engine.action_spectrum": ("novispec.engine:action_spectrum", False, None),
    "linalg.solve": ("novispec.linalg:solve", False, _linalg_solve),
    "linalg.nullspace": ("novispec.linalg:nullspace", False, _nullspace),
    "dual.dual_spectral_invariant": ("novispec.dual:dual_spectral_invariant", False, None),
    "maps.verify_continuity": ("novispec.maps:verify_continuity", False, None),
    "maps.pants_product": ("novispec.maps:pants_product", False, None),
    "maps.monodromy_shift": ("novispec.maps:monodromy_shift", False, None),
    "cli.task_spectra": ("novispec.cli:task_spectra", False, None),
    "cli.task_axioms": ("novispec.cli:task_axioms", False, None),
    "cli.task_appendix": ("novispec.cli:task_appendix", False, None),
    "cli.task_oracle": ("novispec.cli:task_oracle", False, None),
}

# traced while the inputs are made, apart from the pass itself
SETUP_LAYERS = {
    "fixtures.random_instance": ("novispec.fixtures:random_instance", False, None),
    "cli.load_and_validate": ("novispec.cli:load_and_validate", False, None),
}


class Frame:
    __slots__ = ("tracer", "layer", "start", "child", "span", "windows")

    def __init__(self, tracer, layer, start, span):
        self.tracer = tracer
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span = span
        self.windows = 0


class Tracer:
    """Context manager: wrap the given layers, collect spans and counts.

    `count_fractions` also counts `Fraction.__new__` calls by swapping in a
    counting `__new__` and restoring the original on exit.
    """

    def __init__(self, layers, count_fractions=False):
        self.layers = layers
        self.count_fractions = count_fractions
        self.stats = {name: LayerStats() for name in layers}
        self.spans = []  # [layer, start, end, parent span index or -1]
        self.windows = set()  # distinct (complex, degree, lo, hi)
        self.fractions = 0
        self.missing = []
        self._stack = []
        self._bindings = Bindings()
        self._fraction_new = None

    def nearest(self, layer):
        for frame in reversed(self._stack):
            if frame.layer == layer:
                return frame
        return None

    def _wrapper(self, layer, hot, hook):
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        tracer = self

        def make(func):
            def traced(*args, **kwargs):
                span = -1
                if not hot:
                    parent = next((f.span for f in reversed(stack) if f.span >= 0), -1)
                    span = len(spans)
                    spans.append([layer, 0.0, 0.0, parent])
                frame = Frame(tracer, layer, perf_counter(), span)
                stack.append(frame)
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - frame.start
                    stats.calls += 1
                    stats.self_s += duration - frame.child
                    if stack:
                        stack[-1].child += duration
                    if span >= 0:
                        spans[span][1] = frame.start
                        spans[span][2] = end
                if hook is not None:
                    hook(stats, frame, args, result)
                return result

            traced.__wrapped__ = func
            return traced

        return make

    def __enter__(self):
        for layer, (target, hot, hook) in self.layers.items():
            if not self._bindings.patch(target, self._wrapper(layer, hot, hook)):
                self.missing.append(layer)
        if self.count_fractions:
            self._fraction_new = vars(Fraction)["__new__"]
            new = self._fraction_new.__func__
            tracer = self

            def counting_new(cls, *args, **kwargs):
                tracer.fractions += 1
                return new(cls, *args, **kwargs)

            Fraction.__new__ = staticmethod(counting_new)
        return self

    def __exit__(self, *exc):
        if self._fraction_new is not None:
            Fraction.__new__ = self._fraction_new
            self._fraction_new = None
        self._bindings.restore()
        return False

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent"], "spans": self.spans}, fh)
