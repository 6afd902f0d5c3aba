"""Graded, action-filtered, equivariant chain complexes and their chains.

A complex is a finite set of orbits, each with a base action and a base
degree; the full generator set is orbit x cap.  Gluing a cap A onto a
generator shifts its action by -omega(A) and its degree by -2*c1(A).

The boundary, certified chain maps, monodromy conjugations and the random
dressing are all one kind of object, an orbit-pair matrix {src orbit: {dst
orbit: downward Novikov scalar}}, which presents an equivariant map on every
cap at once.  Each operation on such matrices is written once, here:
`orbit_matrix` validates and drops zero entries, `matrix_entries` iterates
in sorted orbit order, `entry_shifts` gives each term's action and degree
shift, `compose_matrices` composes, and `equivariant_image` applies a
matrix to capped generators.

A complex is never mutated, so it caches what it derives from its data:
`action_keys`, the one owner of the integer action lattice and of the
generator ids (each action as a key over one denominator, the period, the
base keys modulo it, the orbit ranks, and per degree each orbit's runs of
caps as ranges of ids, `ActionKeys.cap_run`), which the windows, the
spectrum, the cycle test and the seeded chains read, and `boundary_check`,
the one rule that makes the boundary a filtered Novikov differential (each
term lowers the degree by one and never raises the action, and d∘d
vanishes), decided in those keys.
`validate` reports its violations; `is_cycle` and the engine refuse a
complex that has any.

Chains are finite homogeneous combinations of generators with an optional
action-space precision floor.  Neither a complex nor a scalar carries one, so
a chain's floor is the package's only precision floor; `merge_floor` joins
two of them.  The level of a chain is the maximal action of
its support; the peak is the generator attaining it.  A generator is its
key in its complex's integer action lattice, the tuple (-action key, orbit,
cap, degree, denom), so within one complex tuple order is chain order:
descending action, ties broken by (orbit, cap).  Terms are kept in that
order, so `level()` reads the first, and floors are compared in keys.

The public `NovikovChain` constructor checks its input: it converts the
coefficients, sums repeated generators, rejects mixed degrees, applies the
floor and sorts.  The package's own chain algebra trusts what it builds
from chains that were checked already: `+` and `-` check the complexes and
the two degrees once and sort the summed terms, while `scale` and `shift`
keep their chain's order (a shift moves every action and every cap alike).
Each passes its terms to `NovikovChain._ordered`, which checks nothing;
the seeded generators of `fixtures` build their chains the same way.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, inf, lcm
from operator import mul

from .errors import DomainError, IndeterminateError, InvalidComplexError, StructuralError
from .gamma import GammaElement, GammaGroup, integers, vec_add
from .linalg import add_terms
from .scalars import DOWN, NEG_INF


def merge_floor(a, b):
    """The higher of two precision floors; None means exact."""
    return max((f for f in (a, b) if f is not None), default=None)


class Generator(namedtuple("Generator", "neg_key orbit cap degree denom")):
    """A capped orbit (orbit, cap) as its key: `Generator(neg_key, orbit,
    cap, degree, denom)`, where `denom` is its complex's action denominator
    (`FilteredComplex.action_keys.denom`) and `neg_key` is minus its action
    times `denom`.

    `FilteredComplex.generator` builds one from (orbit, cap), and a window
    from its keys, as `Generator(*key, denom)`.  Within one complex tuple
    order is chain order, descending action, ties by (orbit, cap); hashing
    and equality are the tuple's, over every field.
    """

    __slots__ = ()

    @property
    def action(self) -> Fraction:
        return Fraction(-self.neg_key, self.denom)


def floor_key(x: Fraction, denom: int) -> int:
    """The largest integer key at or below `x` times `denom`."""
    return x.numerator * denom // x.denominator


def _above(terms: dict, floor: Fraction, denom: int) -> dict:
    """The terms whose action lies above `floor`, compared in integer keys:
    -neg_key / denom > floor exactly when -neg_key > floor_key(floor, denom)."""
    bound = -floor_key(floor, denom)
    return {g: c for g, c in terms.items() if g.neg_key < bound}


class NovikovChain:
    """Finite homogeneous combination of generators.

    `terms` is a {generator: coeff} dict or a list of (generator, coeff)
    pairs; repeated generators sum.  The summed terms must share one
    degree and the complex's action denominator: keys over two
    denominators do not sort by action.  A finite floor then truncates:
    terms at or below it are dropped.  `terms` is kept in generator order,
    descending action, ties by (orbit, cap); `level()` reads the first term.

    A chain is never mutated after construction, as complexes are not: the
    engine keeps each representative's query state by the chain's identity,
    so build a new chain rather than change `terms`, `floor` or `complex`.
    """

    __slots__ = ("complex", "terms", "floor", "degree")

    def __init__(self, complex: "FilteredComplex", terms=None, floor=None):
        self.complex = complex
        self.floor = None if floor is None else Fraction(floor)
        items = terms.items() if isinstance(terms, dict) else (terms or [])
        clean = {}
        for g, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            s = clean.get(g)
            s = c if s is None else s + c
            if s:
                clean[g] = s
            else:
                clean.pop(g, None)
        denom = complex.action_keys.denom
        degree = None
        for gen in clean:
            if gen.denom != denom:
                raise StructuralError(f"generator {gen.orbit}@{list(gen.cap)} has action "
                                      f"denominator {gen.denom}, not its complex's {denom}")
            if degree is None:
                degree = gen.degree
            elif gen.degree != degree:
                raise StructuralError(
                    f"mixed degrees {degree} and {gen.degree} in one chain"
                )
        if self.floor is not None:
            clean = _above(clean, self.floor, denom)
        self.terms = dict(sorted(clean.items()))
        self.degree = degree if self.terms else None

    @classmethod
    def _ordered(cls, complex, terms, floor, degree) -> "NovikovChain":
        """A chain over `terms` as given: summed, nonzero, above `floor` (a
        `Fraction` or None), of one `degree` and already in chain order."""
        chain = object.__new__(cls)
        chain.complex, chain.terms, chain.floor = complex, terms, floor
        chain.degree = degree if terms else None
        return chain

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, NovikovChain)
            and self.complex is other.complex
            and self.terms == other.terms
            and self.floor == other.floor
        )

    def __repr__(self):
        body = " + ".join(
            f"{c}*[{g.orbit},{list(g.cap)}]" for g, c in self.terms.items()
        )
        return f"<chain {body or '0'}>"

    def __add__(self, other: "NovikovChain") -> "NovikovChain":
        return self._plus(other, other.terms.items())

    def __sub__(self, other: "NovikovChain") -> "NovikovChain":
        return self._plus(other, ((g, -c) for g, c in other.terms.items()))

    def _plus(self, other, pairs) -> "NovikovChain":
        if self.complex is not other.complex:
            raise StructuralError("chains live in different complexes")
        # homogeneous chains: terms of two degrees never cancel
        if self.terms and other.terms and self.degree != other.degree:
            raise StructuralError(
                f"mixed degrees {self.degree} and {other.degree} in one chain"
            )
        floor = merge_floor(self.floor, other.floor)
        terms = add_terms(dict(self.terms), pairs)
        if floor is not None:
            terms = _above(terms, floor, self.complex.action_keys.denom)
        return NovikovChain._ordered(self.complex, dict(sorted(terms.items())), floor,
                                     self.degree if self.terms else other.degree)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, rational) -> "NovikovChain":
        r = Fraction(rational)
        terms = {g: r * c for g, c in self.terms.items()} if r else {}
        return NovikovChain._ordered(self.complex, terms, self.floor, self.degree)

    def level(self):
        if not self.terms:
            return NEG_INF
        return next(iter(self.terms)).action

    def shift(self, cap: GammaElement) -> "NovikovChain":
        """Glue `cap` onto every generator (deck transformation).

        Every -action key moves by omega key(cap), and adding one vector to
        every cap keeps their order, so the terms stay in chain order and
        above the equally moved floor.
        """
        C = self.complex
        cap = C.gamma.check_element(cap)
        floor = self.floor
        if floor is not None:
            floor = floor - C.gamma.omega(cap)
        terms = {C.generator(g.orbit, vec_add(g.cap, cap)): c for g, c in self.terms.items()}
        degree = None if self.degree is None else self.degree - 2 * C.gamma.c1(cap)
        return NovikovChain._ordered(C, terms, floor, degree)


def equivariant_image(matrix, terms, target: "FilteredComplex") -> dict:
    """Image of {generator: coeff} under {src orbit: {dst orbit: scalar}}.

    Scalar terms glue their caps onto the source caps; the image is a plain
    {`target` generator: coeff} dict with cancelled terms dropped.
    """
    return add_terms({}, (
        (target.generator(dst, vec_add(gen.cap, label)), coeff * c)
        for gen, coeff in terms.items()
        for dst, scalar in matrix.get(gen.orbit, {}).items()
        for label, c in scalar.terms.items()
    ))


def orbit_matrix(matrix, source: "FilteredComplex", target: "FilteredComplex",
                 what: str) -> dict:
    """Checked copy of a `what` matrix from `source` to `target` orbits.

    Entries join existing orbits and are downward scalars over the shared
    group; zero entries are dropped.
    """
    out = {}
    for src, row in matrix.items():
        if src not in source.orbits:
            raise StructuralError(f"{what} source {src!r} is not an orbit")
        for dst, scalar in row.items():
            if dst not in target.orbits:
                raise StructuralError(f"{what} target {dst!r} is not an orbit")
            if scalar.direction != DOWN or scalar.group != source.gamma:
                raise StructuralError(
                    f"{what} entries must be downward scalars over the shared group"
                )
            if not scalar.is_zero():
                out.setdefault(src, {})[dst] = scalar
    return out


def matrix_entries(matrix):
    """(src, dst, scalar) over an orbit-pair matrix in sorted orbit order."""
    for src in sorted(matrix):
        row = matrix[src]
        for dst in sorted(row):
            yield src, dst, row[dst]


def entry_shifts(matrix, source: "FilteredComplex", target: "FilteredComplex"):
    """(src, dst, label, action shift, degree shift) over every matrix term.

    The term at `label` sends base generator `src` to (dst, label), moving
    its action by base(dst) - omega(label) - base(src) and its degree by
    deg(dst) - 2*c1(label) - deg(src).
    """
    gamma = source.gamma
    for src, dst, scalar in matrix_entries(matrix):
        sa, sd = source.orbits[src]
        da, dd = target.orbits[dst]
        for label in scalar.terms:
            yield (src, dst, label, da - gamma.omega(label) - sa,
                   dd - 2 * gamma.c1(label) - sd)


def compose_matrices(outer, inner) -> dict:
    """The matrix of `outer` after `inner` (scalar or integer entries alike).

    Entries that cancel stay in the result.
    """
    out = {}
    for src, row in inner.items():
        acc = out.setdefault(src, {})
        for mid, s1 in row.items():
            for dst, s2 in outer.get(mid, {}).items():
                prev = acc.get(dst)
                acc[dst] = s2 * s1 if prev is None else prev + s2 * s1
    return out


def level_and_peak(chain: NovikovChain):
    """(level, peak generator).  Zero chain: (-inf, None).  Ties are rejected."""
    if chain.is_zero():
        if chain.floor is not None:
            raise IndeterminateError("level indeterminate: chain is empty above its floor")
        return NEG_INF, None
    lam = chain.level()
    if chain.floor is not None and lam <= chain.floor:
        raise IndeterminateError("level lies at or below the precision floor")
    top = next(iter(chain.terms)).neg_key
    peaks = [g for g in chain.terms if g.neg_key == top]
    if len(peaks) != 1:
        raise DomainError(
            f"peak is ambiguous: {len(peaks)} generators share the top action {lam}"
        )
    return lam, peaks[0]


@dataclass(frozen=True)
class Violation:
    code: str
    witness: tuple
    message: str


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code, witness, message):
        self.violations.append(Violation(code, tuple(witness), message))

    def codes(self):
        return sorted({v.code for v in self.violations})

    def __repr__(self):
        if self.ok:
            return "<valid>"
        return "<invalid: " + ", ".join(self.codes()) + ">"


_NO_RUN = range(0)


@dataclass(slots=True)  # built once per complex; only `lines` fills in later
class ActionKeys:
    """A complex's actions as integer keys, each action times `denom`, and
    the owner of its generator ids.

    Besides the keys themselves it holds what the windows, the spectrum
    and the cycle test read off them: the orbit names, base keys, base
    degrees and ranks in name order, the period generator, the base keys
    modulo it, the lowest and highest base key, and per Chern number the
    cap line in keys, read from the group by the first `cap_run` that
    needs it.  Within one degree a generator is named by an id, -action
    key * (number of orbits) + (its orbit's rank): `cap_run` gives a run
    of ids as a `range`, and `run_keys` decodes runs."""

    gamma: GammaGroup
    denom: int  # lcm of the base-action and omega-value denominators
    names: tuple  # the orbits in name order: an orbit's rank is its index
    rank: dict  # {orbit: rank}
    base: dict  # {orbit: base action key}, in name order
    degrees: tuple  # the base degree of each orbit, by rank
    omega: tuple  # the omega key of each group generator
    period: int  # the gcd of the omega keys: the period generator as a key
    residues: frozenset  # the base keys, modulo period if nonzero
    bottom: int  # the lowest base key (0 if no orbit)
    top: int  # the highest base key (0 if no orbit)
    # {Chern number: (start, omega key, step, omega key) or None}
    lines: dict = field(default_factory=dict)

    def neg_key(self, orbit: str, cap) -> int:
        """The -action key of (orbit, cap): omega key(cap) - base key(orbit)."""
        return sum(map(mul, self.omega, cap)) - self.base[orbit]

    def cap_run(self, rank: int, degree: int, lo: int, hi: int) -> range:
        """The ids, ascending, of the generators of `degree` of the orbit of
        `rank` with action key in (lo, hi].  An orbit of base degree d holds
        degree k at the caps of Chern number (d - k) / 2, and none when d - k
        is odd.  The caps are a run of steps along that cap line, each adding
        the step's omega key to the -action key, so the ids are a `range`
        whose length is counted by two floor divisions."""
        c1 = self.degrees[rank] - degree
        if c1 % 2:
            return _NO_RUN
        c1 //= 2
        lines = self.lines
        if c1 not in lines:
            line = self.gamma.cap_line(c1)
            if line is not None:
                start, step = line
                line = (start, sum(map(mul, self.omega, start)),
                        step, step and sum(map(mul, self.omega, step)))
            lines[c1] = line
        line = lines[c1]
        if line is None:
            return _NO_RUN
        _, w0, step, dw = line
        width = len(self.names)
        key = self.base[self.names[rank]] - w0  # the key of `start`; a step lowers it by dw
        if step is None:
            return (range(rank - key * width, rank + (1 - key) * width, width)
                    if lo < key <= hi else _NO_RUN)
        first, stop = -((hi - key) // dw), -((lo - key) // dw)
        return range(rank + (first * dw - key) * width, rank + (stop * dw - key) * width,
                     dw * width)

    def run_keys(self, runs, degree: int) -> list:
        """The keys (-action key, orbit, cap, `degree`) of `runs`, a list of
        nonempty `cap_run`s of `degree` or slices of them, run after run,
        each ascending.  A run's first id names its orbit, so the Chern
        number of its caps and the cap line `cap_run` read."""
        names, base, degrees, lines = self.names, self.base, self.degrees, self.lines
        width = len(names)
        keys = []
        for ids in runs:
            rank = ids.start % width
            orbit, neg_key = names[rank], ids.start // width
            start, w0, step, dw = lines[(degrees[rank] - degree) // 2]
            if step is None:
                keys.append((neg_key, orbit, start, degree))
                continue
            n, t = len(ids), (neg_key - w0 + base[orbit]) // dw  # t steps from `start`
            keys += zip(range(neg_key, neg_key + n * dw, dw), repeat(orbit),
                        zip(*[range(x + t * k, x + (t + n) * k, k) if k else repeat(x)
                              for x, k in zip(start, step)]),
                        repeat(degree))
        return keys


@dataclass(slots=True)  # built once per complex, never mutated
class BoundaryCheck:
    """The boundary's violations, in the order `validate` reports them, the
    largest action-key drop of a boundary term (0 if none) and the least
    (None if none), per source rank (`ActionKeys.rank`) the terms as
    [(offset, coeff)], ascending in offset, so a rank's greatest offset is
    its last, and per source rank the least offset (inf if none).

    A term's drop is how far it lowers the action key: `neg_key(dst,
    label) - neg_key(src, 0)`, and its offset is how far it moves the id
    (`ActionKeys`): drop * (number of orbits) + rank(dst) - rank(src).
    By equivariance the term sends the generator of id i of src, at every
    cap, to the generator of id i + offset of dst."""

    violations: tuple
    drop: int
    least: int | None
    offsets: list
    least_offset: list  # per source rank: its least offset, or inf


def _valid_boundary_check(C: "FilteredComplex") -> BoundaryCheck:
    """`C.boundary_check`; refuses a complex with a violation, naming the first."""
    check = C.boundary_check
    if check.violations:
        v = check.violations[0]
        raise InvalidComplexError(f"invariant:{v.code}: {v.message} (witness {v.witness})")
    return check


class FilteredComplex:
    """Finite-rank free module over the downward Novikov ring with filtration."""

    def __init__(self, gamma: GammaGroup, orbits, boundary=None):
        """`orbits`: iterable of (orbit_id, action, degree).

        `boundary`: {from_orbit: {to_orbit: NovikovScalar (downward)}} giving
        the boundary of each base generator.
        """
        self.gamma = gamma
        self.orbits = {}
        for oid, action, degree in orbits:
            oid = str(oid)
            if oid in self.orbits:
                raise StructuralError(f"duplicate orbit id {oid!r}")
            action = action if type(action) is Fraction else Fraction(action)
            self.orbits[oid] = (action, *integers((degree,), f"degree of {oid!r}"))
        self.boundary_entries = orbit_matrix(boundary or {}, self, self, "boundary")

    # -- generators and chains ---------------------------------------------

    def base_action(self, orbit: str) -> Fraction:
        return self.orbits[orbit][0]

    def base_degree(self, orbit: str) -> int:
        return self.orbits[orbit][1]

    def generator(self, orbit: str, cap: GammaElement | None = None) -> Generator:
        if orbit not in self.orbits:
            raise StructuralError(f"unknown orbit {orbit!r}")
        gamma, keys = self.gamma, self.action_keys
        cap = gamma.zero if cap is None else gamma.check_element(cap)
        return Generator(
            keys.neg_key(orbit, cap),
            orbit,
            cap,
            self.orbits[orbit][1] - 2 * sum(map(mul, gamma.c1_values, cap)),
            keys.denom,
        )

    def chain(self, terms=None, floor=None) -> NovikovChain:
        """A chain with its own precision `floor`."""
        return NovikovChain(self, terms, floor)

    # -- boundary ------------------------------------------------------------

    def boundary(self, chain: NovikovChain) -> NovikovChain:
        """The boundary of `chain`, with its floor.

        On a complex whose `boundary_check` finds no violation every image
        term has the chain's degree minus one, so the image is only floored
        and sorted; otherwise the public constructor checks its degrees.
        """
        if chain.complex is not self:
            raise StructuralError("chain does not live in this complex")
        image = equivariant_image(self.boundary_entries, chain.terms, self)
        if self.boundary_check.violations:
            return NovikovChain(self, image, chain.floor)
        floor = chain.floor
        if floor is not None:
            image = _above(image, floor, self.action_keys.denom)
        degree = None if chain.degree is None else chain.degree - 1
        return NovikovChain._ordered(self, dict(sorted(image.items())), floor, degree)

    def is_cycle(self, chain: NovikovChain) -> bool:
        """Does the boundary of `chain` vanish above its precision floor?

        The boundary's terms are summed into {id: coeff} (`ActionKeys`),
        which names the image's generators as (orbit, cap) would, since
        they share one degree; a sum is kept, as `boundary` keeps it, when
        its action key lies above the floor's.  Builds no chain and no cap,
        and refuses an invalid complex (`_valid_boundary_check`).
        """
        if chain.complex is not self:
            raise StructuralError("chain does not live in this complex")
        offsets, ranks = _valid_boundary_check(self).offsets, self.action_keys.rank
        width = len(ranks)
        image = {}
        for g, c in chain.terms.items():
            i = g.neg_key * width + (rank := ranks[g.orbit])
            add_terms(image, ((i + off, c * coeff) for off, coeff in offsets[rank]))
        floor = chain.floor
        if not image or floor is None:
            return not image
        # an action key lies above the floor's exactly when its id lies below this
        bound = -floor_key(floor, self.action_keys.denom) * width
        return all(i >= bound for i in image)

    # -- validation -----------------------------------------------------------

    @cached_property
    def action_keys(self) -> ActionKeys:
        units, omega_denom = self.gamma.omega_units()
        denom = lcm(omega_denom, *(a.denominator for a, _ in self.orbits.values()))
        base = {o: a.numerator * (denom // a.denominator)
                for o, (a, _) in sorted(self.orbits.items())}
        names = tuple(base)
        omega = tuple(u * (denom // omega_denom) for u in units)
        period = gcd(*omega)
        return ActionKeys(
            self.gamma, denom, names, dict(zip(names, range(len(names)))), base,
            tuple([self.orbits[o][1] for o in names]), omega, period,
            frozenset(k % period if period else k for k in base.values()),
            min(base.values(), default=0), max(base.values(), default=0),
        )

    @cached_property
    def boundary_check(self) -> BoundaryCheck:
        """Per term in `matrix_entries` order its `degree`, then `level-increase`
        violation, then the `square` residuals of d∘d.  The term at `label`
        from src to dst has -action key `action_keys.neg_key(dst, label)`,
        degree deg(dst) - 2 c1(label)."""
        entries = self.boundary_entries
        units = self.action_keys
        c1 = self.gamma.c1_values
        report = ValidationReport()
        ranks, width = units.rank, len(units.names)
        offsets = [[] for _ in ranks]
        drops = []
        for src, dst, scalar in matrix_entries(entries):
            (sa, sd), dd = self.orbits[src], self.orbits[dst][1]
            src_key = units.base[src]
            terms, shift = offsets[ranks[src]], ranks[dst] - ranks[src]
            for label, coeff in scalar.terms.items():
                degree = dd - 2 * sum(map(mul, c1, label))
                drop = units.neg_key(dst, label) + src_key
                if degree != sd - 1:
                    report.add("degree", (src, dst, label),
                               f"entry {src}->{dst} at {label} maps degree {sd} to {degree}")
                if drop < 0:
                    report.add("level-increase", (src, dst, label),
                               f"entry {src}->{dst} at {label} raises action {sa} -> "
                               f"{Fraction(src_key - drop, units.denom)}")
                terms.append((drop * width + shift, coeff))
                drops.append(drop)
        least_offset = []
        for terms in offsets:
            terms.sort()
            least_offset.append(terms[0][0] if terms else inf)
        # d(d(x)) = 0 for every base generator; equivariance makes this
        # sufficient for every cap.
        square = compose_matrices(entries, entries)
        for src, dst, scalar in matrix_entries(square):
            if not scalar.is_zero():
                label, coeff = next(iter(scalar.terms.items()))
                report.add("square", (src, dst, label),
                           f"d(d({src})) has residual {coeff}*q{list(label)} on {dst}")
        return BoundaryCheck(tuple(report.violations), max([0, *drops]), min(drops, default=None),
                             offsets, least_offset)

    def validate(self, explicit_generators=None, representatives=None) -> ValidationReport:
        report = ValidationReport(list(self.boundary_check.violations))
        if explicit_generators:
            for orbit, cap, action, degree in explicit_generators:
                try:
                    g = self.generator(orbit, cap)
                except StructuralError:
                    report.add("equivariance", (orbit, tuple(cap)), "unknown orbit")
                    continue
                if g.action != Fraction(action) or g.degree != degree:
                    report.add(
                        "equivariance",
                        (orbit, tuple(cap)),
                        f"listed (action, degree) = ({action}, {degree}) but cap rules "
                        f"give ({g.action}, {g.degree})",
                    )
        for name, chain in (representatives or {}).items():
            try:
                level_and_peak(chain)
            except DomainError:
                lam, top = chain.level(), next(iter(chain.terms)).neg_key
                peaks = tuple(g.orbit for g in chain.terms if g.neg_key == top)
                report.add("tie-peak", (name,) + peaks,
                           f"representative {name!r} has a tied peak at level {lam}")
            except IndeterminateError:
                pass
        return report

    # -- structural operations -------------------------------------------------

    def relabeled(self, mapping) -> "FilteredComplex":
        """Bijective rename of orbit ids; all structure is carried over."""
        if sorted(mapping) != sorted(self.orbits) or len(set(mapping.values())) != len(mapping):
            raise StructuralError("relabeling must be a bijection on orbit ids")
        orbits = [
            (mapping[o], a, d) for o, (a, d) in self.orbits.items()
        ]
        boundary = {
            mapping[src]: {mapping[dst]: s for dst, s in row.items()}
            for src, row in self.boundary_entries.items()
        }
        return FilteredComplex(self.gamma, orbits, boundary)

    def transport(self, other: "FilteredComplex", chain: NovikovChain,
                  mapping) -> NovikovChain:
        """Move a chain through an orbit relabeling onto `other`."""
        return other.chain(
            {other.generator(mapping[g.orbit], g.cap): c for g, c in chain.terms.items()},
            chain.floor,
        )
