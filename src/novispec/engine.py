"""Min-max spectral invariants over finite generator windows.

The invariant of a cycle class is the infimum of chain levels over all
representatives.  Over a discrete period lattice the reachable set of
representatives is an affine space over Q inside a finite per-degree window
of capped generators, and the infimum is computed exactly by repeated
top-stratum elimination: solve for a boundary whose action >= level part
cancels the current top stratum; when the linear system is infeasible the
level is the invariant and the infeasibility is its certificate.  The
window columns are the equivariant boundary images of the generators one
degree up, and every level's system is answered by one filtered column
reduction of them (`linalg.Reduction`, pivots at the highest action),
queried on the prefix of rows at or above the level.  The representative
stays sparse; the residual of each solve is the next representative.

Complexes are never mutated after construction, so a window is a function
of (complex, degree, lo, hi).  `build_window` keeps the last few windows in
a small LRU cache keyed by the complex's identity, and each window reduces
its columns once, lazily (`Window.reduction`).  The invariant and every
membership probe of one class on one window thus share one build and one
reduction.  The cache is bounded, so it holds at most a few complexes
alive, and windows are frozen, so a shared one cannot be reassigned.

An independent oracle answers the same question bottom-up: the smallest
level whose strict-superlevel cancellation system is feasible, found by
dense `linalg.solve` on a matrix it builds itself.  Feasibility is monotone
in the level, because a higher level keeps a subset of the constraint rows,
so the oracle bisects the sorted candidate levels.  Membership in the image
of a truncated complex, the probe API, is a prefix query on the window's
reduction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .chains import FilteredComplex, Generator, NovikovChain, equivariant_image
from .errors import DomainError, IndeterminateError, SpectralLevelError, StructuralError
from .morse import MorseData, build_small_complex
from .quantum import HOMOLOGY, QuantumClass, flat, leading_data
from .scalars import NEG_INF, POS_INF


# ---------------------------------------------------------------------------
# window model


@dataclass(frozen=True)
class Window:
    """Per-degree exact matrix model of a complex on an action window.

    Windows are cached and shared by `build_window`: never mutate one.
    """

    complex: FilteredComplex
    lo: Fraction
    hi: Fraction
    degree: int
    rows: list  # degree-d generators, action descending
    cols: list  # degree-(d+1) generators, action descending
    matrix: list  # per column: {row generator: nonzero coefficient}
    row_index: dict = field(default_factory=dict)
    truncated: bool = False  # some boundary target fell below the window

    @cached_property
    def reduction(self) -> linalg.Reduction:
        """The columns reduced in engine order (pivots at the highest action)."""
        return linalg.Reduction(_columns(self))


def _degree_generators(C: FilteredComplex, degree: int, lo, hi):
    """All capped generators of one degree with action in (lo, hi]."""
    out = []
    for orbit, (base, bdeg) in C.orbits.items():
        if (bdeg - degree) % 2 != 0:
            continue
        # action = base - omega(cap) in (lo, hi]
        for cap in C.gamma.caps((bdeg - degree) // 2, base - hi, base - lo):
            out.append(Generator(orbit, cap, base - C.gamma.omega(cap), degree))
    out.sort(key=lambda gen: (-gen.action, gen.orbit, gen.cap))
    return out


@lru_cache(maxsize=4)
def build_window(C: FilteredComplex, degree: int, lo, hi) -> Window:
    """The degree-`degree` window of C on (lo, hi]; the last few are cached."""
    lo, hi = Fraction(lo), Fraction(hi)
    cols = _degree_generators(C, degree + 1, lo, hi)
    rows = _degree_generators(C, degree, lo, hi)
    matrix = []
    truncated = False
    for col in cols:
        image = equivariant_image(C.boundary_entries, {col: 1}, C)
        column = {g: c for g, c in image.items() if g.action > lo}
        # some target falls below the window floor
        truncated = truncated or len(column) < len(image)
        matrix.append(column)
    # boundary targets of the columns may stick out above `hi` on invalid
    # complexes; they must appear as constraint rows.
    extra = {g for column in matrix for g in column}.difference(rows)
    if extra:
        rows = sorted(rows + list(extra), key=lambda g: (-g.action, g.orbit, g.cap))
    row_index = {g: i for i, g in enumerate(rows)}
    return Window(C, lo, hi, degree, rows, cols, matrix, row_index, truncated)


def _chain_vector(window: Window, chain: NovikovChain):
    """Sparse coordinates {row: coeff} of a chain; below-window terms drop.

    Returns (vector, dropped): terms at or below the floor are truncated per
    the precision semantics, terms above the window top are a caller error.
    """
    v = {}
    dropped = False
    for gen, coeff in chain.terms.items():
        i = window.row_index.get(gen)
        if i is None:
            if gen.action <= window.lo:
                dropped = True
                continue
            raise StructuralError(
                f"chain term {gen.orbit}@{gen.cap} lies outside the window"
            )
        v[i] = coeff
    return v, dropped


def _columns(window: Window):
    """The window columns keyed by row index, as `linalg.Reduction` takes them."""
    index = window.row_index
    return [{index[g]: c for g, c in col.items()} for col in window.matrix]


def _prefix(window: Window, level):
    """Number of rows at or above `level` (the rows are action descending)."""
    return sum(1 for g in window.rows if g.action >= level)


# ---------------------------------------------------------------------------
# results


@dataclass
class ReductionStep:
    level: Fraction
    stratum_size: int
    columns_used: int


@dataclass
class SpectralResult:
    rho: object  # Fraction or -inf
    witness: NovikovChain
    reduced_trace: list
    spectrality: str  # "attained" | "zero-class" | "indeterminate"
    attained_at: Generator | None
    certificate: dict

    def is_finite(self):
        return self.rho != NEG_INF


@lru_cache(maxsize=4)
def _window_pad(C: FilteredComplex):
    """(lowest base action, highest base action, pad) of the default windows."""
    actions = [a for a, _ in C.orbits.values()] or [Fraction(0)]
    lo, hi = min(actions), max(actions)
    pad = 2 * C.max_entry_slack() + 3 * C.gamma.period_generator() + (hi - lo) + 1
    return lo, hi, pad


def default_window_bounds(C: FilteredComplex, rep: NovikovChain):
    _, top, pad = _window_pad(C)
    lam = rep.level()
    if lam == NEG_INF:
        lam = top
    return lam - pad, lam + pad - C.gamma.period_generator()


def _query_window(C: FilteredComplex, rep: NovikovChain, window):
    """The (lo, hi) query window of the cycle `rep` (`window` if set).

    None for the zero class, which each query answers itself.
    """
    if rep.complex is not C:
        raise StructuralError("representative lives in a different complex")
    if not C.boundary(rep).is_zero():
        raise DomainError("representative is not a cycle")
    if rep.is_zero():
        return None
    if window is not None:
        return Fraction(window[0]), Fraction(window[1])
    return default_window_bounds(C, rep)


def spectral_invariant(
    C: FilteredComplex,
    representative: NovikovChain,
    *,
    window=None,
    floor=None,
    max_widenings: int = 3,
) -> SpectralResult:
    """Infimum of levels over the class of `representative`, with witness.

    The representative must be a cycle.  `floor` pins the precision floor
    (no widening below it); otherwise the window widens a few times before
    reporting indeterminacy.
    """
    rep = representative
    bounds = _query_window(C, rep, window)
    if bounds is None:
        return SpectralResult(
            NEG_INF, rep, [], "zero-class", None, {"reason": "zero representative"}
        )
    lo, hi = bounds
    hard_floor = floor
    if hard_floor is None and rep.floor is not None:
        hard_floor = rep.floor
    if hard_floor is not None:
        lo = max(lo, Fraction(hard_floor))
        max_widenings = 0
    if hi < rep.level():
        raise StructuralError("window top lies below the representative level")

    widenings = 0
    while True:
        result = _reduce_once(C, rep, lo, hi, hard_floor)
        if result is not None:
            return result
        if widenings >= max_widenings:
            raise IndeterminateError(
                f"reduction reached the precision floor {lo} before stabilizing"
            )
        lo = lo - 2 * (hi - lo)
        widenings += 1


def _reduce_once(C, rep, lo, hi, hard_floor=None):
    window = build_window(C, rep.degree, lo, hi)
    v, dropped = _chain_vector(window, rep)
    if dropped and not v:
        raise IndeterminateError(
            "representative lies entirely at or below the precision floor"
        )
    inexact = dropped or window.truncated or hard_floor is not None
    result_floor = lo if inexact else None
    reduction = window.reduction
    trace = []
    while v:
        level = window.rows[min(v)].action
        if level <= lo:
            return None  # hit the floor: caller may widen
        constraint_rows = _prefix(window, level)
        stratum = [window.rows[i] for i in sorted(v) if i < constraint_rows]
        x, r = reduction.solve(v, constraint_rows)
        if x is None:
            witness = C.chain({window.rows[i]: c for i, c in v.items()}, result_floor)
            cert = {
                "level": level,
                "stratum": [(g.orbit, g.cap) for g in stratum],
                "constraint_rows": constraint_rows,
                "columns": len(window.cols),
                "unsolvable": True,
                "window": (lo, hi),
            }
            return SpectralResult(level, witness, trace, "attained", stratum[0], cert)
        trace.append(ReductionStep(level, len(stratum), len(x)))
        if r and min(r) < constraint_rows:
            raise StructuralError("reduction failed to lower the level")
        v = r
    if inexact:
        # vanishes above the floor only: the value is an interval
        cert = {
            "reason": "vanishes above the precision floor",
            "floor": result_floor,
            "interval": (NEG_INF, result_floor),
        }
        return SpectralResult(
            NEG_INF, C.chain({}, result_floor), trace, "indeterminate", None, cert,
        )
    cert = {"reason": "representative is a boundary"}
    return SpectralResult(NEG_INF, C.chain({}, None), trace, "zero-class", None, cert)


def oracle_rho(C: FilteredComplex, representative: NovikovChain, *, window=None):
    """Bottom-up brute-force answer: the smallest feasible level.

    Feasibility of a level is the solvability of the strict-superlevel
    cancellation system; the matrix is rebuilt from boundary evaluation on
    each candidate column, independently of the reduction path.  A higher
    level keeps a subset of the rows, so feasibility is monotone and the
    smallest feasible level is found by bisection.
    """
    rep = representative
    bounds = _query_window(C, rep, window)
    if bounds is None:
        return NEG_INF
    lo, hi = bounds
    cols = _degree_generators(C, rep.degree + 1, lo, hi)
    images = [C.boundary(C.chain({g: 1}, None)) for g in cols]
    support = set(rep.terms)
    for img in images:
        support.update(img.terms)
    rows = sorted(support, key=lambda g: (-g.action, g.orbit, g.cap))
    index = {g: i for i, g in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for j, img in enumerate(images):
        for g, c in img.terms.items():
            mat[index[g]][j] = c
    vec = [Fraction(0)] * len(rows)
    for g, c in rep.terms.items():
        vec[index[g]] = c

    def feasible(level):
        picked = [i for i, g in enumerate(rows) if g.action > level]
        if not picked:
            return True
        return linalg.solve([mat[i] for i in picked], [-vec[i] for i in picked]) is not None

    if linalg.solve(mat, [-c for c in vec]) is not None:
        return NEG_INF
    levels = sorted({g.action for g in rows if g.action > lo})
    i = bisect_left(levels, True, key=feasible)
    if i == len(levels):
        raise IndeterminateError("no feasible level inside the oracle window")
    return levels[i]


def image_membership(C: FilteredComplex, representative: NovikovChain, lam, *,
                     window=None) -> bool:
    """Is the class visible in the strict sublevel complex at `lam`?

    `lam` must avoid the action spectrum; the test solves for a boundary
    pushing the representative strictly below `lam`.
    """
    lam = Fraction(lam)
    if spectrality_check(lam, C):
        raise SpectralLevelError(f"{lam} lies on the action spectrum")
    rep = representative
    bounds = _query_window(C, rep, window)
    if bounds is None:
        return True
    lo, hi = bounds
    w = build_window(C, rep.degree, lo, max(hi, lam))
    v, _ = _chain_vector(w, rep)
    x, _ = w.reduction.solve(v, _prefix(w, lam))
    return x is not None


# ---------------------------------------------------------------------------
# spectrum


@dataclass
class SpectrumDescription:
    """The spectrum points inside a window; `spectrality_check` tests membership."""

    period: Fraction  # generator of the period group (0 if trivial)
    points: list  # spectrum inside the window, ascending
    rational: bool


def action_spectrum(C: FilteredComplex, window, *, mode: str = "rational-exact"):
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if hi < lo:
        raise StructuralError("empty spectrum window")
    g = C.gamma.period_generator()
    points = set()
    for orbit in sorted(C.orbits):
        base = C.base_action(orbit)
        if g == 0:
            if lo <= base <= hi:
                points.add(base)
            continue
        m_lo = math.ceil((base - hi) / g)
        m_hi = math.floor((base - lo) / g)
        for m in range(m_lo, m_hi + 1):
            points.add(base - m * g)
    return SpectrumDescription(
        period=g,
        points=sorted(points),
        rational=(mode == "rational-exact"),
    )


def spectrality_check(rho, C: FilteredComplex, *, mode: str = "rational-exact") -> bool:
    """Exact membership of a computed value in {base action - period lattice}.

    The zero class (-inf) is outside the spectrum; floating mode is never
    certified.
    """
    if mode != "rational-exact":
        return False
    if rho in (NEG_INF, POS_INF) or isinstance(rho, float):
        return False
    rho = Fraction(rho)
    return any(
        C.gamma.in_period_group(C.base_action(o) - rho) for o in C.orbits
    )


# ---------------------------------------------------------------------------
# class realization and valuation bounds


def realize_flat(b: QuantumClass, C: FilteredComplex, pd_chains: dict) -> NovikovChain:
    """Chain representative of a homology class in a built Morse complex.

    `pd_chains` maps basis class ids to their Morse cycle representatives
    (lists of (coeff, critical point id)); exponent labels become caps.
    """
    if b.direction != HOMOLOGY:
        raise StructuralError("realize_flat takes a homology class")
    terms = []
    for (name, label), coeff in b.terms.items():
        if name not in pd_chains:
            raise StructuralError(f"no chain representative for class {name!r}")
        terms += [(C.generator(point, label), coeff * Fraction(pc))
                  for pc, point in pd_chains[name]]
    return C.chain(terms)


@dataclass
class BoundReport:
    hypothesis_ok: bool
    rho: object
    valuation: Fraction
    gap: object
    halfgap_ok: bool | None
    sandwich_ok: bool | None
    sharper_ok: bool | None
    deviation: object  # |rho - v|

    @property
    def ok(self):
        return bool(self.hypothesis_ok and self.sandwich_ok and self.halfgap_ok)


def check_valuation_bounds(
    m: MorseData, eps, a: QuantumClass, gamma, pd_chains, *, window=None
) -> BoundReport:
    """Bounds of the small-complex invariant around the class valuation.

    Verifies v - gap/2 <= rho <= v + gap/2 and the sharper one-scale sandwich
    v - eps*max(f) <= rho <= v + eps*max(f); the hypothesis
    eps*(max f - min f) < gap/2 is reported, not enforced.
    """
    eps = Fraction(eps)
    ld = leading_data(a)
    v, gap = ld.valuation, ld.gap
    spread = m.max_value() - m.min_value()
    hypothesis_ok = gap == POS_INF or eps * spread < Fraction(gap) / 2
    if not hypothesis_ok:
        return BoundReport(False, None, v, gap, None, None, None, None)
    C = build_small_complex(m, eps, gamma)
    rep = realize_flat(flat(a), C, pd_chains)
    result = spectral_invariant(C, rep, window=window)
    rho = result.rho
    if rho == NEG_INF:
        raise DomainError("class realized to a boundary; bounds are undefined")
    halfgap_ok = True
    if gap != POS_INF:
        half = Fraction(gap) / 2
        halfgap_ok = (v - half <= rho <= v + half)
    mx = m.max_value()
    sandwich_ok = (v - eps * mx <= rho <= v + eps * mx)
    sharper_ok = (v - eps * mx <= rho <= v - eps * m.min_value())
    return BoundReport(
        True, rho, v, gap, halfgap_ok, sandwich_ok, sharper_ok, abs(rho - v)
    )
