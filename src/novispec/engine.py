"""Min-max spectral invariants over finite generator windows.

The invariant of a cycle class is the infimum of chain levels over all
representatives.  Over a discrete period lattice the reachable set of
representatives is an affine space over Q inside a finite per-degree window
of capped generators, and the infimum is computed exactly by repeated
top-stratum elimination: subtract a boundary that cancels the current top
stratum, the representative's part at or above its level; when no boundary
does, the level is the invariant and the uncancelled row is its
certificate.  The window columns are the equivariant boundary images of
the generators one degree up, and every level is answered by one filtered
column reduction of them (`linalg.Reduction`, pivots at the highest
action): the representative is walked down its pivots (`reduce`) as far as
the prefix of rows at or above the level, which a bisection of the
action-sorted rows finds.  The representative stays sparse; the residual
of each walk is the next representative.

Each query reads one window, `default_window_bounds`, its floor raised to
the representative's own.  Every row lies above the floor, so a class that
vanishes there is indeterminate, with the interval (-inf, floor).  The
window spans a pad around the representative's level, so terms spanning more
than the pad can leave a finite invariant indeterminate.

A window enumerates its generators in integers, never through a
per-generator omega or `Fraction`.  Every action of a complex is a multiple
of one denominator, the lcm of the base-action and omega-value
denominators, so an action is an integer key over it.  Per Chern number,
`_degree_keys` reads the cap line once (`GammaGroup.cap_line`: a start cap
and a step of positive omega, here scaled to integers); per orbit, two
floor divisions give the run of steps inside (lo, hi], and each step adds
integers.  The runs' lengths are summed before any key is built, so a
window of more than `MAX_WINDOW_GENERATORS` generators in one degree raises
`WindowTooLargeError` at the cost of one pass over the orbits.  A key is
the tuple (-action key, orbit, cap, degree), so keys sort by action
descending, then (orbit, cap).  The window keeps its rows and columns as
keys and its columns as {row index: coeff}, the form `linalg.Reduction`
takes.  Each column's boundary terms come from a per-complex table
{src orbit: [(dst, label, coeff)]}: by equivariance the term at `label`
sends (src, cap) to (dst, cap + label).  A target missing from the
{(orbit, cap): row index} dict lies below the window floor: no boundary
term of a valid complex raises the action or misses the degree.  The
table, the denominator, the default window pad and the base actions modulo
the period generator, as integers over the denominator (which answer
`spectrality_check` with one lookup), form one record per complex, kept in
a small LRU cache (`_complex_record`), which refuses a complex that
`FilteredComplex.validate` rejects.  The queries read levels off the keys
and bisect them for row prefixes; a `Generator`, with one `Fraction`
action, is built only for what an answer names (the witness and the
attained generator), and the generator views of a window (`rows`, `cols`,
`matrix`) only when read.

Complexes are never mutated after construction, so a window is a function
of (complex, degree, lo, hi).  `build_window` keeps the last few windows in
a small LRU cache keyed by the complex's identity, and each window reduces
its columns once, lazily (`Window.reduction`).  The invariant and every
membership probe of one class on one window thus share one build and one
reduction.  The cache is bounded, so it holds at most a few complexes
alive, and windows are frozen, so a shared one cannot be reassigned.

An independent oracle answers the same question bottom-up: the smallest
level whose strict-superlevel cancellation system is feasible.  It builds
its rows itself from `equivariant_image`, the routine behind
`FilteredComplex.boundary`, apart from the record and the window's
reduction, and sorts them by descending action, so the rows above any
level are a prefix and feasibility is monotone in the level.  One top-down
row elimination (`linalg.first_inconsistent_row`) stops at the first row
that makes the prefix inconsistent; its action is the answer.

Membership in the image of a truncated complex, the probe API, is one walk
on the window's reduction, bounded by a row prefix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter

from . import linalg
from .chains import (
    FilteredComplex,
    Generator,
    NovikovChain,
    compose_matrices,
    entry_shifts,
    equivariant_image,
    matrix_entries,
)
from .errors import (
    DomainError,
    IndeterminateError,
    InvalidComplexError,
    SpectralLevelError,
    StructuralError,
    WindowTooLargeError,
)
from .gamma import vec_add
from .morse import MorseData, build_small_complex
from .quantum import HOMOLOGY, QuantumClass, flat, leading_data
from .scalars import NEG_INF, POS_INF


# ---------------------------------------------------------------------------
# window model


@dataclass(frozen=True)
class Window:
    """Per-degree exact matrix model of a complex on an action window.

    Rows and columns are integer keys (-action key, orbit, cap, degree),
    ascending, so in descending action; the action is the key over `denom`.
    A `Generator` is built only on request: `generator(i)` for one row, and
    the views `rows`, `cols` and `matrix`, built once when first read.
    Windows are cached and shared by `build_window`: never mutate one.
    """

    complex: FilteredComplex
    lo: Fraction
    hi: Fraction
    degree: int
    denom: int  # the complex's action denominator
    keys: list  # row keys: the degree-d generators
    col_keys: list  # column keys: the degree-(d+1) generators
    columns: list  # per column: {row index: nonzero coefficient}
    row_index: dict  # {(orbit, cap): row index}
    truncated: bool  # some boundary target fell below the window

    def generator(self, i: int) -> Generator:
        """The generator of row `i`."""
        neg_key, orbit, cap, degree = self.keys[i]
        return Generator(orbit, cap, Fraction(-neg_key, self.denom), degree)

    @cached_property
    def rows(self) -> list:
        return _generators(self.keys, self.denom)

    @cached_property
    def cols(self) -> list:
        return _generators(self.col_keys, self.denom)

    @cached_property
    def matrix(self) -> list:
        """Per column: {row generator: nonzero coefficient}."""
        rows = self.rows
        return [{rows[i]: c for i, c in col.items()} for col in self.columns]

    @cached_property
    def reduction(self) -> linalg.Reduction:
        """The columns reduced in engine order (pivots at the highest action):
        the reduced columns and their pivots, which every query walks."""
        return linalg.Reduction(self.columns)


@dataclass(frozen=True)
class _ComplexRecord:
    """What the windows and queries of one complex derive from its data."""

    bottom: Fraction  # lowest base action
    top: Fraction  # highest base action
    pad: Fraction  # half-width of the default windows
    denom: int  # lcm of the base-action and omega-value denominators
    boundary: dict  # {src orbit: [(dst, label, coeff)]}: the boundary terms
    period: int  # the period generator times denom
    residues: frozenset  # base actions times denom, modulo period if nonzero


@lru_cache(maxsize=4)
def _complex_record(C: FilteredComplex) -> _ComplexRecord:
    """The per-complex record, the last few cached; refuses an invalid complex."""
    gamma = C.gamma
    bases = [a for a, _ in C.orbits.values()]
    g = gamma.period_generator()
    denom = math.lcm(*(v.denominator for v in (*bases, *gamma.omega_values)))
    boundary = {}
    slack = Fraction(0)  # largest action drop of a boundary term
    invalid = False
    for src, dst, label, shift, dshift in entry_shifts(C.boundary_entries, C, C):
        invalid = invalid or dshift != -1 or shift > 0
        coeff = C.boundary_entries[src][dst].terms[label]
        boundary.setdefault(src, []).append((dst, label, coeff))
        slack = max(slack, -shift)
    square = compose_matrices(C.boundary_entries, C.boundary_entries)
    if invalid or any(not scalar.is_zero() for _, _, scalar in matrix_entries(square)):
        v = C.validate().violations[0]
        raise InvalidComplexError(f"invariant:{v.code}: {v.message} (witness {v.witness})")
    bottom, top = min(bases, default=Fraction(0)), max(bases, default=Fraction(0))
    period = _scaled(g, denom)
    keys = [_scaled(a, denom) for a in bases]
    return _ComplexRecord(
        bottom,
        top,
        2 * slack + 3 * g + (top - bottom) + 1,
        denom,
        boundary,
        period,
        frozenset(k % period for k in keys) if period else frozenset(keys),
    )


def _scaled(value: Fraction, denom: int) -> int:
    """`value` times `denom`, for a multiple of 1/`denom`: an exact integer.

    Every action and omega of a complex is such a multiple of its record's
    denominator, so they compare and reduce as integers.
    """
    return value.numerator * (denom // value.denominator)


MAX_WINDOW_GENERATORS = 250_000  # generators one degree of a window may hold


def _degree_keys(C: FilteredComplex, degree: int, lo, hi) -> list:
    """The keys (-action key, orbit, cap, degree) of all capped generators
    of one degree with action in (lo, hi], ascending.

    The action key is the action times the complex's denominator, so the
    order is by action descending, then (orbit, cap).  Each orbit's
    generators are a run of steps along its cap line, counted before any
    key is built: more than `MAX_WINDOW_GENERATORS` in all raises
    `WindowTooLargeError`.
    """
    denom = _complex_record(C).denom
    # actions as integer keys over denom: lo < key / denom <= hi
    lo_key = lo.numerator * denom // lo.denominator
    hi_key = hi.numerator * denom // hi.denominator
    lines = {}
    runs = []  # per orbit, lazily: keys ascending in -key
    total = 0
    for orbit, (base, bdeg) in C.orbits.items():
        if (bdeg - degree) % 2 != 0:
            continue
        c = (bdeg - degree) // 2
        if c not in lines:  # the cap line in integer action units
            line = C.gamma.cap_line(c)
            if line is not None:
                start, w0, step, dw = line
                line = start, _scaled(w0, denom), step, step and _scaled(dw, denom)
            lines[c] = line
        if lines[c] is None:
            continue
        start, w0, step, dw = lines[c]
        key = _scaled(base, denom) - w0  # the key of `start`; each step lowers it by dw
        if step is None:
            if lo_key < key <= hi_key:
                runs.append([(-key, orbit, start, degree)])
                total += 1
            continue
        first, stop = -((hi_key - key) // dw), -((lo_key - key) // dw)
        if first < stop:
            caps = zip(*(range(x + first * k, x + stop * k, k) if k else repeat(x)
                         for x, k in zip(start, step)))
            runs.append(zip(range(first * dw - key, stop * dw - key, dw), repeat(orbit),
                            caps, repeat(degree)))
            total += stop - first
    if total > MAX_WINDOW_GENERATORS:
        raise WindowTooLargeError(
            f"window-too-large: degree {degree} on ({lo}, {hi}] holds {total} "
            f"generators, over the cap of {MAX_WINDOW_GENERATORS}"
        )
    keyed = []
    for run in runs:
        keyed += run
    keyed.sort()
    return keyed


def _generators(keys, denom: int) -> list:
    """The generators of `keys`, one shared `Fraction` per distinct action."""
    out = []
    last = action = None
    for neg_key, orbit, cap, degree in keys:
        if neg_key != last:
            last, action = neg_key, Fraction(-neg_key, denom)
        out.append(Generator(orbit, cap, action, degree))
    return out


def _degree_generators(C: FilteredComplex, degree: int, lo, hi) -> list:
    """All capped generators of one degree with action in (lo, hi], in the
    order of `_degree_keys`."""
    return _generators(_degree_keys(C, degree, lo, hi), _complex_record(C).denom)


@lru_cache(maxsize=4)
def build_window(C: FilteredComplex, degree: int, lo, hi) -> Window:
    """The degree-`degree` window of C on (lo, hi]; the last few are cached."""
    lo, hi = Fraction(lo), Fraction(hi)
    record = _complex_record(C)
    col_keys = _degree_keys(C, degree + 1, lo, hi)
    keys = _degree_keys(C, degree, lo, hi)
    # (orbit, cap) determines a generator; on a valid complex a boundary
    # target is a row or lies at or below the window floor
    index = {(orbit, cap): i for i, (_, orbit, cap, _) in enumerate(keys)}
    columns = []
    truncated = False
    for _, orbit, cap, _ in col_keys:
        column = {}
        for dst, label, coeff in record.boundary.get(orbit, ()):
            i = index.get((dst, vec_add(cap, label)))
            if i is None:
                truncated = True
            else:
                column[i] = coeff
        columns.append(column)
    return Window(C, lo, hi, degree, record.denom, keys, col_keys, columns, index, truncated)


def _chain_vector(window: Window, chain: NovikovChain):
    """Sparse coordinates {row: coeff} of a chain; below-window terms drop.

    Returns (vector, dropped): terms at or below the floor are truncated per
    the precision semantics, terms above the window top are a caller error.
    """
    v = {}
    dropped = False
    index = window.row_index
    for gen, coeff in chain.terms.items():
        i = index.get((gen.orbit, gen.cap))
        if i is None:
            if gen.action <= window.lo:
                dropped = True
                continue
            raise StructuralError(
                f"chain term {gen.orbit}@{gen.cap} lies outside the window"
            )
        v[i] = coeff
    return v, dropped


_NEG_KEY = itemgetter(0)


def _prefix(window: Window, level):
    """Number of rows at or above `level` (the rows are action descending)."""
    # action >= level exactly when -key <= -ceil(level * denom)
    return bisect_right(window.keys, -math.ceil(level * window.denom), key=_NEG_KEY)


# ---------------------------------------------------------------------------
# results


@dataclass
class ReductionStep:
    level: Fraction
    stratum_size: int


@dataclass
class SpectralResult:
    rho: object  # Fraction or -inf
    witness: NovikovChain
    reduced_trace: list
    spectrality: str  # "attained" | "zero-class" | "indeterminate"
    attained_at: Generator | None
    certificate: dict


def default_window_bounds(C: FilteredComplex, rep: NovikovChain):
    record = _complex_record(C)
    lam = rep.level()
    if lam == NEG_INF:
        lam = record.top
    return lam - record.pad, lam + record.pad - C.gamma.period_generator()


def _query_window(C: FilteredComplex, rep: NovikovChain):
    """The (lo, hi) query window of the cycle `rep`: `default_window_bounds`,
    its floor raised to the representative's precision floor.

    None for the zero class, which each query answers itself.
    """
    if rep.complex is not C:
        raise StructuralError("representative lives in a different complex")
    lo, hi = default_window_bounds(C, rep)
    if not C.boundary(rep).is_zero():
        raise DomainError("representative is not a cycle")
    if rep.is_zero():
        return None
    return (lo if rep.floor is None else max(lo, rep.floor)), hi


_ALL_BELOW_FLOOR = "representative lies entirely at or below the precision floor"


def spectral_invariant(C: FilteredComplex, representative: NovikovChain) -> SpectralResult:
    """Infimum of levels over the class of `representative`, with witness.

    The representative must be a cycle.  The query reads one window,
    `default_window_bounds`, raised to the representative's own precision
    floor; no lower floor is ever tried.  A class that vanishes above the
    floor is indeterminate, with the interval (-inf, floor); a
    representative with no terms above it raises `IndeterminateError`.
    """
    rep = representative
    bounds = _query_window(C, rep)
    if bounds is None:
        if rep.floor is not None:
            raise IndeterminateError(_ALL_BELOW_FLOOR)
        return SpectralResult(
            NEG_INF, rep, [], "zero-class", None, {"reason": "zero representative"}
        )
    lo, hi = bounds
    window = build_window(C, rep.degree, lo, hi)
    v, dropped = _chain_vector(window, rep)
    if dropped and not v:
        raise IndeterminateError(_ALL_BELOW_FLOOR)
    inexact = dropped or window.truncated or rep.floor is not None
    result_floor = lo if inexact else None
    reduction = window.reduction
    keys = window.keys
    trace = []
    # every row lies above `lo`, so each level does too
    while v:
        neg_key = keys[min(v)][0]
        level = Fraction(-neg_key, window.denom)
        constraint_rows = bisect_right(keys, neg_key, key=_NEG_KEY)
        r = reduction.reduce(v, constraint_rows)
        if r and min(r) < constraint_rows:
            witness = C.chain({window.generator(i): c for i, c in v.items()}, result_floor)
            stratum = [i for i in sorted(v) if i < constraint_rows]
            cert = {
                "level": level,
                "stratum": [keys[i][1:3] for i in stratum],
                "constraint_rows": constraint_rows,
                "columns": len(window.columns),
                "unsolvable": True,
                "window": (lo, hi),
            }
            return SpectralResult(
                level, witness, trace, "attained", window.generator(stratum[0]), cert
            )
        trace.append(ReductionStep(level, sum(i < constraint_rows for i in v)))
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
    return SpectralResult(NEG_INF, C.chain(), trace, "zero-class", None, cert)


def oracle_rho(C: FilteredComplex, representative: NovikovChain):
    """Bottom-up brute-force answer: the smallest feasible level.

    Feasibility of a level is the solvability of the strict-superlevel
    cancellation system.  Its sparse rows are built once, from the
    equivariant boundary image of each candidate column, independently of
    the reduction path, and sorted by (-action, orbit, cap), so the rows
    above any level are a prefix.  One top-down elimination
    (`linalg.first_inconsistent_row`) stops at the first inconsistent row
    k: a level is feasible exactly when it is at least the action of row k,
    which is the answer.  A system feasible at the window floor
    (`_query_window`), or a representative with a precision floor and no
    terms above it, raises `IndeterminateError`.
    """
    rep = representative
    bounds = _query_window(C, rep)
    floored = rep.floor is not None
    if bounds is None:
        if floored:
            raise IndeterminateError(_ALL_BELOW_FLOOR)
        return NEG_INF
    lo, hi = bounds
    images = [equivariant_image(C.boundary_entries, {g: 1}, C)
              for g in _degree_generators(C, rep.degree + 1, lo, hi)]
    support = set(rep.terms)
    for img in images:
        support.update(img)
    rows = sorted(support, key=lambda g: (-g.action, g.orbit, g.cap))
    mat = {g: {} for g in rows}
    for j, img in enumerate(images):
        for g, c in img.items():
            mat[g][j] = c
    k = linalg.first_inconsistent_row([mat[g] for g in rows],
                                      [-rep.terms.get(g, 0) for g in rows])
    if k is None and not floored:
        return NEG_INF
    # feasible at the floor itself: the answer lies at or below the window
    if k is None or rows[k].action <= lo:
        raise IndeterminateError("no feasible level inside the oracle window")
    return rows[k].action


def image_membership(C: FilteredComplex, representative: NovikovChain, lam) -> bool:
    """Is the class visible in the strict sublevel complex at `lam`?

    `lam` must avoid the action spectrum and lie above the representative's
    precision floor; the test walks the representative down the window's
    pivots and asks whether a boundary pushes it strictly below `lam`.
    """
    lam = Fraction(lam)
    if spectrality_check(lam, C):
        raise SpectralLevelError(f"{lam} lies on the action spectrum")
    rep = representative
    if rep.floor is not None and lam <= rep.floor:
        raise IndeterminateError(f"{lam} lies at or below the precision floor")
    bounds = _query_window(C, rep)
    if bounds is None:
        return True
    lo, hi = bounds
    w = build_window(C, rep.degree, lo, max(hi, lam))
    v, _ = _chain_vector(w, rep)
    k = _prefix(w, lam)
    r = w.reduction.reduce(v, k)
    return not r or min(r) >= k


# ---------------------------------------------------------------------------
# spectrum


def action_spectrum(C: FilteredComplex, window) -> list:
    """The spectrum points {base action - period lattice} in [lo, hi], ascending."""
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
    return sorted(points)


def spectrality_check(rho, C: FilteredComplex) -> bool:
    """Exact membership of a computed value in {base action - period lattice}.

    The zero class (-inf) is outside the spectrum.
    """
    if rho in (NEG_INF, POS_INF) or isinstance(rho, float):
        return False
    # base - rho lies in the period group g Z iff rho = base mod g, and
    # every point of the spectrum is a multiple of 1/denom
    rho = Fraction(rho)
    record = _complex_record(C)
    if record.denom % rho.denominator:
        return False
    key = _scaled(rho, record.denom)
    return (key % record.period if record.period else key) in record.residues


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
    m: MorseData, eps, a: QuantumClass, gamma, pd_chains
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
    result = spectral_invariant(C, rep)
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
