"""Quantum (co)homology classes over a fixture basis: product, pairing,
duality, and leading-term data.

A class is a finite sum of (coefficient, basis class id, exponent label)
terms.  Cohomology classes live in the upward ring (term written q^(-A)),
homology classes in the downward ring (term written q^A); the flat map sends
a_i q^(-A) to PD(a_i) q^A label-for-label, sharp is its inverse.

Grading: a cohomology term contributes deg(a) + 2*c1(A), a homology term
deg(b) - 2*c1(A); with these conventions flat maps degree d to 2n - d and the
fixture products are degree-additive.

Leading-term data follows the decreasing enumeration of the support by
lambda_j = -omega(A_j): v = lambda_1, the gap is lambda_1 - lambda_2.  The
min-over-support reading of the valuation is exposed separately and classes
where the two readings disagree are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, FixtureError, StructuralError
from .gamma import GammaGroup, vec_add
from .linalg import Reduction, add_terms
from .scalars import POS_INF

COHOMOLOGY = "cohomology"
HOMOLOGY = "homology"


@dataclass(frozen=True)
class BasisClass:
    name: str
    degree: int  # cohomological degree of the basis class


class ClassBasis:
    """Finite (co)homology basis of one fixture manifold.

    `pairing[i][j]` is the classical pairing (a_i, PD(a_j)); shipped fixtures
    use the identity matrix, which is what makes <1, flat(1)> = 1.
    """

    def __init__(self, half_dim: int, classes, pairing=None):
        self.half_dim = int(half_dim)
        self.classes = {}
        for name, degree in classes:
            name = str(name)
            if name in self.classes:
                raise FixtureError(f"duplicate class id {name!r}")
            if not 0 <= int(degree) <= 2 * self.half_dim:
                raise FixtureError(f"class {name!r} degree outside [0, 2n]")
            self.classes[name] = BasisClass(name, int(degree))
        names = list(self.classes)
        if pairing is None:
            pairing = {
                (a, b): Fraction(int(a == b)) for a in names for b in names
            }
        self.pairing_table = {k: Fraction(v) for k, v in pairing.items()}
        self._check_nondegenerate()

    def _check_nondegenerate(self):
        # full rank: every column of the reduced matrix keeps a pivot
        names = sorted(self.classes)
        columns = [{i: c for i, a in enumerate(names) if (c := self.pairing_table.get((a, b)))}
                   for b in names]
        tops = [min(col, default=None) for col in columns]
        if len(Reduction(columns.__getitem__, tops).pivots) != len(names):
            raise FixtureError("classical pairing matrix is degenerate")

    def degree(self, name: str) -> int:
        return self.classes[name].degree


class QuantumClass:
    """Finite homogeneous class over a basis and a coefficient group."""

    __slots__ = ("basis", "gamma", "direction", "terms", "degree")

    def __init__(self, basis: ClassBasis, gamma: GammaGroup, direction, terms):
        if direction not in (COHOMOLOGY, HOMOLOGY):
            raise StructuralError(f"unknown direction {direction!r}")
        self.basis = basis
        self.gamma = gamma
        self.direction = direction
        pairs = []
        for coeff, name, label in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if name not in basis.classes:
                raise FixtureError(f"unknown basis class {name!r}")
            pairs.append(((name, gamma.check_element(label)), coeff))
        # homogeneity is a property of the sum: cancelled terms carry no degree
        self.terms = dict(sorted(add_terms({}, pairs).items()))
        degree = None
        for name, label in self.terms:
            d = basis.degree(name)
            shift = 2 * gamma.c1(label)
            if direction == COHOMOLOGY:
                total = d + shift
            else:
                # homology coefficients are PD duals of degree 2n - d
                total = (2 * basis.half_dim - d) - shift
            if degree is None:
                degree = total
            elif total != degree:
                raise StructuralError(
                    f"inhomogeneous class: term ({name}, {label}) has total degree "
                    f"{total}, expected {degree}"
                )
        self.degree = degree

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, QuantumClass)
            and self.basis is other.basis
            and self.direction == other.direction
            and self.terms == other.terms
        )

    def __repr__(self):
        sign = "-" if self.direction == COHOMOLOGY else "+"
        body = " + ".join(
            f"{c}*{n}.q^{sign}{list(l)}" for (n, l), c in self.terms.items()
        )
        return f"<{self.direction[:4]} {body or '0'}>"

    def __add__(self, other):
        if self.basis is not other.basis or self.direction != other.direction:
            raise StructuralError("classes are not addable")
        out = [(c, n, l) for (n, l), c in self.terms.items()]
        out += [(c, n, l) for (n, l), c in other.terms.items()]
        return QuantumClass(self.basis, self.gamma, self.direction, out)

    def scale(self, rational):
        r = Fraction(rational)
        return QuantumClass(
            self.basis,
            self.gamma,
            self.direction,
            [(r * c, n, l) for (n, l), c in self.terms.items()],
        )

    def support_labels(self):
        return sorted({l for (_, l) in self.terms})


def flat(a: QuantumClass) -> QuantumClass:
    """Poincare duality to the homology side, label for label."""
    if a.direction != COHOMOLOGY:
        raise StructuralError("flat takes a cohomology class")
    return QuantumClass(
        a.basis, a.gamma, HOMOLOGY, [(c, n, l) for (n, l), c in a.terms.items()]
    )


def sharp(b: QuantumClass) -> QuantumClass:
    if b.direction != HOMOLOGY:
        raise StructuralError("sharp takes a homology class")
    return QuantumClass(
        b.basis, b.gamma, COHOMOLOGY, [(c, n, l) for (n, l), c in b.terms.items()]
    )


def pairing(a: QuantumClass, b: QuantumClass) -> Fraction:
    """Label-matched finite pairing of an upward and a downward class."""
    if a.direction != COHOMOLOGY or b.direction != HOMOLOGY:
        raise StructuralError("pairing takes (cohomology, homology)")
    if a.basis is not b.basis or a.gamma != b.gamma:
        raise StructuralError("pairing across different fixtures")
    total = Fraction(0)
    for (na, la), ca in a.terms.items():
        for (nb, lb), cb in b.terms.items():
            if la == lb:
                total += ca * cb * a.basis.pairing_table.get((na, nb), Fraction(0))
    return total


@dataclass(frozen=True)
class ProductFixture:
    """Structure constants of the quantum cup product on a basis."""

    basis: ClassBasis
    gamma: GammaGroup
    unit: str
    table: dict  # {(id, id): QuantumClass (cohomology)}

    def lookup(self, i: str, j: str) -> QuantumClass:
        if (i, j) in self.table:
            return self.table[(i, j)]
        if (j, i) in self.table:
            return self.table[(j, i)]
        raise FixtureError(f"fixture incomplete: no structure constants for ({i}, {j})")

    def validate(self):
        """Unit, grading, and associativity on the basis span, from one
        product per pair of basis classes."""
        problems = []
        names = sorted(self.basis.classes)
        zero = self.gamma.zero
        unit_class = QuantumClass(self.basis, self.gamma, COHOMOLOGY, [(1, self.unit, zero)])
        x = {n: QuantumClass(self.basis, self.gamma, COHOMOLOGY, [(1, n, zero)]) for n in names}
        products = {}
        for n in names:
            if quantum_product(unit_class, x[n], self) != x[n]:
                problems.append(f"unit fails on {n}")
            for m in names:
                p = products[n, m] = quantum_product(x[n], x[m], self)
                if not p.is_zero() and p.degree != x[n].degree + x[m].degree:
                    problems.append(f"grading fails on ({n}, {m})")
        for i in names:
            for j in names:
                for k in names:
                    left = quantum_product(products[i, j], x[k], self)
                    right = quantum_product(x[i], products[j, k], self)
                    if left != right:
                        problems.append(f"associativity fails on ({i}, {j}, {k})")
        if problems:
            raise FixtureError("; ".join(sorted(set(problems))))


def quantum_product(a: QuantumClass, b: QuantumClass, P: ProductFixture) -> QuantumClass:
    """Bilinear extension of the structure constants; exponent labels add."""
    if a.direction != COHOMOLOGY or b.direction != COHOMOLOGY:
        raise StructuralError("quantum product takes cohomology classes")
    if a.gamma != b.gamma or a.basis is not b.basis:
        raise StructuralError("classes live over different fixtures")
    out = []
    for (na, la), ca in a.terms.items():
        for (nb, lb), cb in b.terms.items():
            base = P.lookup(na, nb)
            shift = vec_add(la, lb)
            for (nc, lc), cc in base.terms.items():
                out.append((ca * cb * cc, nc, vec_add(lc, shift)))
    return QuantumClass(a.basis, a.gamma, COHOMOLOGY, out)


@dataclass(frozen=True)
class LeadingData:
    """Valuation, leading term, and gap of a homogeneous class."""

    valuation: Fraction
    leading_term: tuple  # (coeff, class id, label)
    gap: object  # Fraction or +inf
    readings_disagree: bool  # decreasing-enumeration value != min-over-support value
    valuation_min: Fraction  # the min-over-support reading


def leading_data(a: QuantumClass) -> LeadingData:
    """Leading data along the decreasing enumeration of support levels.

    Levels are lambda = -omega(A) per support label A; v = lambda_1 (the
    largest), gap = lambda_1 - lambda_2 (+inf for a single label).  The
    leading term must be unique.
    """
    if a.is_zero():
        raise DomainError("zero class has no leading data")
    if a.direction != COHOMOLOGY:
        raise StructuralError("leading data is defined for cohomology classes")
    levels = sorted({-a.gamma.omega(l) for l in a.support_labels()}, reverse=True)
    v = levels[0]
    gap = POS_INF if len(levels) == 1 else levels[0] - levels[1]
    hits = [(c, n, l) for (n, l), c in a.terms.items() if -a.gamma.omega(l) == v]
    if len(hits) != 1:
        raise DomainError(
            f"leading term is ambiguous: {len(hits)} terms at level {v}"
        )
    return LeadingData(
        valuation=v,
        leading_term=hits[0],
        gap=gap,
        readings_disagree=(levels[-1] != v),
        valuation_min=levels[-1],
    )


def valuation_min(a: QuantumClass) -> Fraction:
    """min over support of omega(-A): the union-stable reading."""
    if a.is_zero():
        raise DomainError("zero class has no valuation")
    return min(-a.gamma.omega(l) for l in a.support_labels())
