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
the rows at or above the level, whose ids lie below one bound,
(-action key + 1) times the number of orbits.  Most window columns are
reduced as they stand, and the reduction builds them only when a walk
subtracts them.  The representative stays sparse; the residual of each
walk is the next representative.

Each query reads one window, `default_window_bounds`, its floor raised to
the representative's own.  Every row lies above the floor, so a class that
vanishes there is indeterminate, with the interval (-inf, floor).  The
window spans a pad around the representative's level, so terms spanning more
than the pad can leave a finite invariant indeterminate.

A window names its rows and columns by integer ids and stores neither its
rows nor its columns (after Ripser, which never stores its boundary
matrix).  The ids belong to the complex's `action_keys`: every action is an
integer key over one denominator, and within one degree an orbit's
generator is named by its action, since its caps there share one Chern
number, so two of them differ by a vector of c1 zero, on which omega is
nonzero because `GammaGroup` refuses a group whose omega and c1 share a
kernel vector.  So the id -action key * (number of orbits) + (the orbit's
`ActionKeys.rank`) names a generator of one degree, and id order is chain
order: descending action, ties by orbit.  Per orbit, the ids of one degree
in (lo, hi] are one `range` (`ActionKeys.cap_run`, where a degree becomes a
Chern number), so a window holds those ranges, and their lengths are summed
before any id is read: a window of more than `MAX_WINDOW_GENERATORS`
generators in one degree raises `WindowTooLargeError` at the cost of one
pass over the orbits.  A column is {column id + offset: coeff} over the
boundary's terms from its orbit (`BoundaryCheck.offsets`, by equivariance
one integer per term at every cap, ascending), building no cap; a target at
or past the floor's id lies below the window, since no boundary term of a
valid complex raises the action or misses the degree.  So a column's top
row is its id plus its orbit's least offset (`BoundaryCheck.least_offset`),
or it is empty when that lies at or past the floor, and a window is
truncated when some run's last column plus its orbit's greatest offset
reaches the floor: the reduction reads every top row by arithmetic, and
builds a column only when it walks or subtracts it, once.  A generator is
decoded from its id only for the witness and the `rows`, `cols` and
`matrix` views (`ActionKeys.run_keys`), and the oracle's columns are the
keys of the same runs (`_degree_keys`).
Every query refuses a complex whose `boundary_check` has a violation
(`_valid_boundary_check`); the window pad (`window_pad`) is one sum of the
largest drop and the `action_keys`.

Complexes and chains are never mutated after construction, so a query
state is a function of its chain.  A query state (`_Query`) holds what
every query of one representative derives from it alone: the complex and
cycle checks (`FilteredComplex.is_cycle`, decided in integer keys), the
query bounds and the level, computed once, and the window and the
representative's vector on it, built on first read; the window reduces its
columns once, lazily (`Window.reduction`).  An invariant attained by the
representative as it stands, unreduced and exact, returns the
representative itself as its witness; any other witness is decoded from
the ids of its rows, in id order, which is chain order.  The engine keeps one
query state, the last representative's (`_last_query`), matched by
identity; a query of another representative replaces it.  The invariant,
the oracle and every membership probe of one representative thus share
one check, one window, one vector and one reduction; the oracle reads
only the checks and the bounds.  A window lives only in that state, or
for the length of one `dual_spectral_invariant` call, so between calls
the engine holds at most one window, and one complex, alive.

An independent oracle answers the same question bottom-up: the smallest
level whose strict-superlevel cancellation system is feasible.  It builds
and eliminates its own rows (`oracle_rho`) from the boundary entries,
apart from the boundary check's offsets, the window and its reduction.

Membership in the image of a truncated complex, the probe API, is one walk
on the window's reduction, bounded by an id; a level above the
representative's own needs no walk, since no row of it lies at or above
that level.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter

from . import linalg
from .chains import FilteredComplex, Generator, NovikovChain, _valid_boundary_check, floor_key
from .errors import (
    DomainError,
    IndeterminateError,
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

    Rows and columns are integer ids (`ActionKeys`): -action key times
    `width`, the number of orbits, plus the orbit's rank.
    Within one degree an id names a generator and id order is chain order.
    The rows are never listed: `runs` holds, per orbit in rank order, the
    `range` of its row ids, and an id at or past `floor` lies at or below
    the window floor.  No column is stored: the reduction builds a column
    from the offsets (`_column`) only when it walks or subtracts it.
    `generators` decodes ids, and the views `columns`, `rows`, `cols` and
    `matrix` are built once when first read; no query reads them.  The
    queries of one representative share its window: never mutate one.
    """

    complex: FilteredComplex
    lo: Fraction
    hi: Fraction
    degree: int
    denom: int  # the complex's action denominator
    width: int  # the number of orbits
    floor: int  # -floor key(lo) * width: no row id reaches it
    runs: list  # per orbit with rows: the range of its row ids, ascending
    col_ids: list  # column ids, ascending: the degree-(d+1) generators
    truncated: bool  # some boundary target falls below the window

    def generators(self, ids, degree: int) -> list:
        """The generators of `degree` named by `ids`, each a run of one id."""
        denom, keys = self.denom, self.complex.action_keys
        return [Generator(*key, denom)
                for key in keys.run_keys([range(i, i + 1) for i in ids], degree)]

    def count(self, bound: int) -> int:
        """The number of rows of id below `bound`."""
        return sum(bisect_left(run, bound) for run in self.runs)

    @cached_property
    def rows(self) -> list:
        return self.generators(sorted(i for run in self.runs for i in run), self.degree)

    @cached_property
    def cols(self) -> list:
        return self.generators(self.col_ids, self.degree + 1)

    @cached_property
    def matrix(self) -> list:
        """Per column: {row generator: nonzero coefficient}."""
        rows = dict(zip(sorted(i for run in self.runs for i in run), self.rows))
        return [{rows[i]: c for i, c in col.items()} for col in self.columns]

    @cached_property
    def columns(self) -> list:
        """Per column: {row id: nonzero coefficient}, built once when first
        read; no query reads it."""
        column = partial(_column, self.complex.boundary_check.offsets, self.width, self.floor,
                         self.col_ids)
        return [column(j) for j in range(len(self.col_ids))]

    @cached_property
    def reduction(self) -> linalg.Reduction:
        """The columns reduced in engine order (pivots at the highest action):
        the reduced columns and their pivots, which every query walks.

        A column's top row is its id plus the least offset of its orbit
        (`BoundaryCheck.least_offset`), or none when that lies at or past
        the floor; a column is built (`_column`) only when the reduction
        walks or subtracts it.  The builder holds no reference to the
        window, which holds the reduction: a window then dies with its
        query state, without waiting for the cyclic garbage collector."""
        check, col_ids, width, floor = (
            self.complex.boundary_check, self.col_ids, self.width, self.floor)
        least = check.least_offset
        return linalg.Reduction(partial(_column, check.offsets, width, floor, col_ids), [
            top if (top := c + least[c % width]) < floor else None for c in col_ids])


def _column(offsets: list, width: int, floor: int, col_ids: list, j: int) -> dict:
    """Column j of a window, {row id: nonzero coefficient}: the boundary
    terms of column id `col_ids[j]` (`BoundaryCheck.offsets`) whose target
    lies above the window floor, the id `floor`."""
    c = col_ids[j]
    return {i: coeff for off, coeff in offsets[c % width] if (i := c + off) < floor}


def window_pad(C: FilteredComplex) -> int:
    """The half-width of the default windows as an action key: twice the
    largest boundary drop, three periods, the spread of the base keys and
    one unit of action.  Refuses an invalid complex (`_valid_boundary_check`)."""
    drop, keys = _valid_boundary_check(C).drop, C.action_keys
    return 2 * drop + 3 * keys.period + (keys.top - keys.bottom) + keys.denom


MAX_WINDOW_GENERATORS = 250_000  # generators one degree of a window may hold
_NEG_KEY = itemgetter(0)  # a key's -action key


def _degree_runs(C: FilteredComplex, degree: int, lo, hi) -> list:
    """Per orbit in name order, the ids of its generators of `degree` with
    action in (lo, hi], a nonempty `ActionKeys.cap_run`, counted before any
    id is read: more than `MAX_WINDOW_GENERATORS` in all raises
    `WindowTooLargeError`.  Refuses an invalid complex (`_valid_boundary_check`)."""
    _valid_boundary_check(C)
    units = C.action_keys
    cap_run = units.cap_run
    # actions as integer keys over denom: lo < key / denom <= hi
    lo_key, hi_key = floor_key(lo, units.denom), floor_key(hi, units.denom)
    runs = []
    total = 0
    for rank in range(len(units.names)):
        if ids := cap_run(rank, degree, lo_key, hi_key):
            runs.append(ids)
            total += len(ids)
    if total > MAX_WINDOW_GENERATORS:
        raise WindowTooLargeError(
            f"window-too-large: degree {degree} on ({lo}, {hi}] holds {total} "
            f"generators, over the cap of {MAX_WINDOW_GENERATORS}"
        )
    return runs


def _degree_keys(C: FilteredComplex, degree: int, lo, hi) -> list:
    """The keys (-action key, orbit, cap, degree) of all capped generators
    of one degree with action in (lo, hi], ascending.

    The order is by action descending, then (orbit, cap): the runs of
    `_degree_runs`, decoded (`ActionKeys.run_keys`) in orbit-name order, are
    sorted stably on the action key alone, and within one degree an orbit
    has at most one generator per action key, so ties break by orbit.
    """
    runs = _degree_runs(C, degree, lo, hi)
    keyed = C.action_keys.run_keys(runs, degree)
    if len(runs) > 1:
        keyed.sort(key=_NEG_KEY)
    return keyed


def _degree_generators(C: FilteredComplex, degree: int, lo, hi) -> list:
    """All capped generators of one degree with action in (lo, hi], in the
    order of `_degree_keys`."""
    denom = C.action_keys.denom
    return [Generator(*key, denom) for key in _degree_keys(C, degree, lo, hi)]


def build_window(C: FilteredComplex, degree: int, lo, hi) -> Window:
    """The degree-`degree` window of C on (lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    col_runs = _degree_runs(C, degree + 1, lo, hi)
    runs = _degree_runs(C, degree, lo, hi)
    denom, offsets = C.action_keys.denom, C.boundary_check.offsets
    width = len(offsets)
    # on a valid complex a boundary target is a row or lies at or below the floor
    floor = -floor_key(lo, denom) * width
    col_ids = []
    truncated = False
    for ids in col_runs:
        col_ids += ids
        # a run's last column reaches lowest, by its orbit's greatest offset
        if terms := offsets[ids.start % width]:
            truncated = truncated or ids[-1] + terms[-1][0] >= floor
    col_ids.sort()
    return Window(C, lo, hi, degree, denom, width, floor, runs, col_ids, truncated)


def _chain_vector(window: Window, chain: NovikovChain):
    """Sparse coordinates {row id: coeff} of a chain; below-window terms drop.

    Returns (vector, dropped): terms at or below the floor are truncated per
    the precision semantics, terms above the window top are a caller error.
    A term of the window's degree is a row exactly when its id lies in
    [top, floor), which names it as the window does.
    """
    v, dropped = {}, False
    ranks, width, floor = window.complex.action_keys.rank, window.width, window.floor
    top = -floor_key(window.hi, window.denom) * width
    for gen, coeff in chain.terms.items():
        i = gen.neg_key * width + ranks[gen.orbit]
        if i >= floor:
            dropped = True
        elif i < top:
            raise StructuralError(f"chain term {gen.orbit}@{gen.cap} lies outside the window")
        else:
            v[i] = coeff
    return v, dropped


def _prefix(window: Window, level) -> int:
    """The id bound of the rows at or above `level`: their ids lie below it."""
    # action >= level exactly when -key <= -ceil(level * denom)
    return (1 - math.ceil(level * window.denom)) * window.width


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
    """(lo, hi): `window_pad` below and one period less above the level of
    `rep` (the top base action for the zero chain), each one `Fraction` of
    integer keys."""
    pad, keys = window_pad(C), C.action_keys
    key = keys.top if rep.is_zero() else -next(iter(rep.terms)).neg_key
    return Fraction(key - pad, keys.denom), Fraction(key + pad - keys.period, keys.denom)


class _Query:
    """What every query of one cycle `rep` derives from it alone.

    Checked and computed at construction: the complex's boundary
    (`_valid_boundary_check` refuses an invalid one), that `rep` is a
    cycle, and the query window `bounds`, (lo, hi): `default_window_bounds`
    with its floor raised to the representative's precision floor, or None
    for the zero class, which each query answers itself, and the
    representative's `level`.  Built on first read: the window and the
    representative's vector on it (`_chain_vector`).
    """

    __slots__ = ("rep", "bounds", "level", "_window", "_vector")

    def __init__(self, C: FilteredComplex, rep: NovikovChain):
        lo, hi = default_window_bounds(C, rep)
        if not C.is_cycle(rep):
            raise DomainError("representative is not a cycle")
        self.rep, self.level = rep, rep.level()
        self.bounds = None if rep.is_zero() else (
            lo if rep.floor is None else max(lo, rep.floor), hi)
        self._window = self._vector = None

    def window(self) -> Window:
        if self._window is None:
            self._window = build_window(self.rep.complex, self.rep.degree, *self.bounds)
        return self._window

    def vector(self):
        """(vector, dropped), as `_chain_vector` returns them; never mutate."""
        if self._vector is None:
            self._vector = _chain_vector(self.window(), self.rep)
        return self._vector


_last_query = None  # the query state of the last representative queried


def _query(C: FilteredComplex, rep: NovikovChain) -> _Query:
    """The query state of `rep`: the last one if it is `rep`'s, else a new
    one, which replaces it.

    A check that raises stores nothing, so every later call raises again.
    """
    global _last_query
    if rep.complex is not C:
        raise StructuralError("representative lives in a different complex")
    if _last_query is None or _last_query.rep is not rep:
        _last_query = _Query(C, rep)
    return _last_query


_ALL_BELOW_FLOOR = "representative lies entirely at or below the precision floor"


def spectral_invariant(C: FilteredComplex, representative: NovikovChain) -> SpectralResult:
    """Infimum of levels over the class of `representative`, with witness.

    The representative must be a cycle.  The query reads one window,
    `default_window_bounds`, raised to the representative's own precision
    floor; no lower floor is ever tried.  A class that vanishes above the
    floor is indeterminate, with the interval (-inf, floor); a
    representative with no terms above it raises `IndeterminateError`.
    When the representative's own level is the answer (an empty trace) and
    nothing was dropped, truncated or floored, the witness is the
    representative itself; otherwise it is a new chain.
    """
    rep = representative
    q = _query(C, rep)
    if q.bounds is None:
        if rep.floor is not None:
            raise IndeterminateError(_ALL_BELOW_FLOOR)
        return SpectralResult(
            NEG_INF, rep, [], "zero-class", None, {"reason": "zero representative"}
        )
    lo, hi = q.bounds
    window = q.window()
    v, dropped = q.vector()
    if dropped and not v:
        raise IndeterminateError(_ALL_BELOW_FLOOR)
    inexact = dropped or window.truncated or rep.floor is not None
    result_floor = lo if inexact else None
    reduction = window.reduction
    width = window.width
    trace = []
    # every row lies above `lo`, so each level does too
    while v:
        neg_key = min(v) // width
        level = Fraction(-neg_key, window.denom)
        bound = (neg_key + 1) * width  # the rows at or above `level` lie below it
        r = reduction.reduce(v, bound)
        if r and min(r) < bound:
            if trace or inexact:
                rows = sorted(v)  # id order is chain order, and every row lies above lo
                witness = NovikovChain._ordered(
                    C, dict(zip(window.generators(rows, window.degree), map(v.get, rows))),
                    result_floor, window.degree)
            else:  # unreduced and exact: the representative is its own witness
                witness = rep
            cert = {
                "level": level,
                # the rows of v below `bound` are the witness's terms at `level`
                "stratum": [(g.orbit, g.cap) for g in witness.terms if g.neg_key == neg_key],
                "constraint_rows": window.count(bound),
                "columns": len(window.col_ids),
                "unsolvable": True,
                "window": (lo, hi),
            }
            # the witness's first term is its top row
            return SpectralResult(
                level, witness, trace, "attained", next(iter(witness.terms)), cert
            )
        trace.append(ReductionStep(level, sum(i < bound for i in v)))
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
    cancellation system.  Its sparse rows {column: coeff} are built once,
    keyed by (orbit, cap), from the boundary terms of each candidate
    column, independently of the reduction path, and sorted by (-action,
    orbit, cap), the action read off `FilteredComplex.action_keys`, so the
    rows above any level are a prefix.  One top-down elimination
    (`linalg.first_inconsistent_row`) stops at the first inconsistent row
    k: a level is feasible exactly when it is at least the action of row k,
    which is the answer.  A system feasible at the window floor (the
    engine's query window), or a representative with a precision floor and
    no terms above it, raises `IndeterminateError`.  Of the query state it
    reads only the checks and the bounds, never the window.
    """
    rep = representative
    bounds = _query(C, rep).bounds
    floored = rep.floor is not None
    if bounds is None:
        if floored:
            raise IndeterminateError(_ALL_BELOW_FLOOR)
        return NEG_INF
    lo, hi = bounds
    rhs = {(g.orbit, g.cap): -c for g, c in rep.terms.items()}
    mat = {target: {} for target in rhs}  # {(orbit, cap): {column: coeff}}
    for j, (_, orbit, cap, _) in enumerate(_degree_keys(C, rep.degree + 1, lo, hi)):
        for dst, scalar in C.boundary_entries.get(orbit, {}).items():
            for label, c in scalar.terms.items():
                mat.setdefault((dst, vec_add(cap, label)), {})[j] = c
    neg_key = C.action_keys.neg_key
    rows = [t for _, t in sorted((neg_key(*t), t) for t in mat)]
    k = linalg.first_inconsistent_row([mat[t] for t in rows], [rhs.get(t, 0) for t in rows])
    if k is None and not floored:
        return NEG_INF
    action = None if k is None else C.generator(*rows[k]).action
    # feasible at the floor itself: the answer lies at or below the window
    if action is None or action <= lo:
        raise IndeterminateError("no feasible level inside the oracle window")
    return action


def image_membership(C: FilteredComplex, representative: NovikovChain, lam) -> bool:
    """Is the class visible in the strict sublevel complex at `lam`?

    `lam` must avoid the action spectrum and lie above the representative's
    precision floor; the test walks the representative down the window's
    pivots and asks whether a boundary pushes it strictly below `lam`.
    Above the representative's level no row of it is at or above `lam`, so
    the walk would stop at once: the answer is yes without it.
    """
    lam = Fraction(lam)
    if spectrality_check(lam, C):
        raise SpectralLevelError(f"{lam} lies on the action spectrum")
    rep = representative
    if rep.floor is not None and lam <= rep.floor:
        raise IndeterminateError(f"{lam} lies at or below the precision floor")
    q = _query(C, rep)
    if q.bounds is None:
        return True
    w = q.window()  # built even when unread: a window over the cap raises
    if lam > q.level:
        return True
    v, _ = q.vector()
    k = _prefix(w, lam)
    r = w.reduction.reduce(v, k)
    return not r or min(r) >= k


# ---------------------------------------------------------------------------
# spectrum


def action_spectrum(C: FilteredComplex, window) -> list:
    """The spectrum points {base action - period lattice} in [lo, hi], ascending.

    Read in the complex's action keys, as `spectrality_check` reads them: a
    key is a point exactly when it is congruent to a base key modulo the
    period, so each residue gives one arithmetic run of keys in the window.
    """
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if hi < lo:
        raise StructuralError("empty spectrum window")
    keys = C.action_keys
    lo_key, hi_key = -floor_key(-lo, keys.denom), floor_key(hi, keys.denom)  # ceil, floor
    p = keys.period
    if p:
        points = {k for r in keys.residues for k in range(lo_key + (r - lo_key) % p, hi_key + 1, p)}
    else:
        points = {k for k in keys.residues if lo_key <= k <= hi_key}
    return [Fraction(k, keys.denom) for k in sorted(points)]


def spectrality_check(rho, C: FilteredComplex) -> bool:
    """Exact membership of a computed value in {base action - period lattice}.

    The zero class (-inf) is outside the spectrum.  base - value lies in the
    period group g Z iff value = base mod g, and every point of the spectrum
    is a multiple of 1/denom: one lookup of the value's key in the residues.
    """
    # a float is -inf or +inf, or any other float: never a spectrum point
    if isinstance(rho, float):
        return False
    _valid_boundary_check(C)
    value, keys = (rho if type(rho) is Fraction else Fraction(rho)), C.action_keys
    if keys.denom % value.denominator:
        return False
    key = value.numerator * (keys.denom // value.denominator)
    return (key % keys.period if keys.period else key) in keys.residues


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
