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

Chains are finite homogeneous combinations of generators with an optional
action-space precision floor; a complex carries none, so a chain's floor is
the only one a query reads.  The level of a chain is the maximal action of
its support; the peak is the generator attaining it.  Terms are kept in
descending action, ties broken by (orbit, cap), so `level()` reads the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .errors import DomainError, IndeterminateError, StructuralError
from .gamma import GammaElement, GammaGroup, vec_add
from .linalg import add_terms
from .scalars import DOWN, NEG_INF, merge_floor


@dataclass(frozen=True)
class Generator:
    """A capped orbit with its derived action and degree.

    Equality compares every field; the hash reads only (orbit, cap), which
    determine the rest, so it never hashes the `Fraction` action.
    """

    orbit: str
    cap: GammaElement
    action: Fraction
    degree: int

    def __hash__(self):
        return hash((self.orbit, self.cap))


class NovikovChain:
    """Finite homogeneous combination of generators.

    `terms` is a {generator: coeff} dict or a list of (generator, coeff)
    pairs; repeated generators sum.  The summed terms must share one
    degree.  A finite floor then truncates: terms at or below it are
    dropped (scalars, by contrast, reject such input).  `terms` is kept in
    descending action, ties by (orbit, cap); `level()` reads the first term.
    """

    __slots__ = ("complex", "terms", "floor", "degree")

    def __init__(self, complex: "FilteredComplex", terms=None, floor=None):
        self.complex = complex
        self.floor = None if floor is None else Fraction(floor)
        items = terms.items() if isinstance(terms, dict) else (terms or [])
        clean = add_terms({}, ((g, c if type(c) is Fraction else Fraction(c)) for g, c in items))
        degree = None
        for gen in clean:
            if degree is None:
                degree = gen.degree
            elif gen.degree != degree:
                raise StructuralError(
                    f"mixed degrees {degree} and {gen.degree} in one chain"
                )
        if self.floor is not None:
            clean = {g: c for g, c in clean.items() if g.action > self.floor}
        # (-action, orbit, cap) order: stable descending action over (orbit, cap)
        gens = sorted(clean, key=attrgetter("orbit", "cap"))
        gens.sort(key=attrgetter("action"), reverse=True)
        self.terms = {g: clean[g] for g in gens}
        self.degree = degree if self.terms else None

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
        return NovikovChain(self.complex, [*self.terms.items(), *pairs],
                            merge_floor(self.floor, other.floor))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, rational) -> "NovikovChain":
        r = Fraction(rational)
        return NovikovChain(
            self.complex, {g: r * c for g, c in self.terms.items()}, self.floor
        )

    def level(self):
        if not self.terms:
            return NEG_INF
        return next(iter(self.terms)).action

    def shift(self, cap: GammaElement) -> "NovikovChain":
        """Glue `cap` onto every generator (deck transformation)."""
        C = self.complex
        floor = self.floor
        if floor is not None:
            floor = floor - C.gamma.omega(cap)
        return NovikovChain(
            C,
            {C.generator(g.orbit, vec_add(g.cap, cap)): c for g, c in self.terms.items()},
            floor,
        )


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
    peaks = [g for g in chain.terms if g.action == lam]
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
            self.orbits[oid] = (Fraction(action), int(degree))
        self.boundary_entries = orbit_matrix(boundary or {}, self, self, "boundary")

    # -- generators and chains ---------------------------------------------

    def base_action(self, orbit: str) -> Fraction:
        return self.orbits[orbit][0]

    def base_degree(self, orbit: str) -> int:
        return self.orbits[orbit][1]

    def generator(self, orbit: str, cap: GammaElement | None = None) -> Generator:
        if orbit not in self.orbits:
            raise StructuralError(f"unknown orbit {orbit!r}")
        cap = self.gamma.zero if cap is None else self.gamma.check_element(cap)
        action, degree = self.orbits[orbit]
        return Generator(
            orbit,
            cap,
            action - self.gamma.omega(cap),
            degree - 2 * self.gamma.c1(cap),
        )

    def chain(self, terms=None, floor=None) -> NovikovChain:
        """A chain with its own precision `floor`."""
        return NovikovChain(self, terms, floor)

    # -- boundary ------------------------------------------------------------

    def boundary(self, chain: NovikovChain) -> NovikovChain:
        if chain.complex is not self:
            raise StructuralError("chain does not live in this complex")
        return NovikovChain(
            self, equivariant_image(self.boundary_entries, chain.terms, self),
            chain.floor,
        )

    # -- validation -----------------------------------------------------------

    def validate(self, strict_level: bool = False,
                 explicit_generators=None, representatives=None) -> ValidationReport:
        report = ValidationReport()
        for src, dst, label, shift, dshift in entry_shifts(self.boundary_entries, self, self):
            sa, sd = self.orbits[src]
            if dshift != -1:
                report.add(
                    "degree",
                    (src, dst, label),
                    f"entry {src}->{dst} at {label} maps degree {sd} to {sd + dshift}",
                )
            if shift > 0 or (strict_level and shift >= 0):
                report.add(
                    "level-increase",
                    (src, dst, label),
                    f"entry {src}->{dst} at {label} raises action {sa} -> {sa + shift}",
                )
        # d(d(x)) = 0 for every base generator; equivariance makes this
        # sufficient for every cap.
        square = compose_matrices(self.boundary_entries, self.boundary_entries)
        for src, dst, scalar in matrix_entries(square):
            if not scalar.is_zero():
                label, coeff = next(iter(scalar.terms.items()))
                report.add(
                    "square",
                    (src, dst, label),
                    f"d(d({src})) has residual {coeff}*q{list(label)} on {dst}",
                )
        if explicit_generators:
            for orbit, cap, action, degree in explicit_generators:
                try:
                    g = self.generator(orbit, cap)
                except StructuralError:
                    report.add("equivariance", (orbit, tuple(cap)), "unknown orbit")
                    continue
                if g.action != Fraction(action) or g.degree != int(degree):
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
                lam = chain.level()
                peaks = tuple(g.orbit for g in chain.terms if g.action == lam)
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
