"""The filtration topology on chains and continuous linear functionals.

Balls U(alpha, R) = {beta : level(beta - alpha) < R} form a basis of a
non-Archimedean topology.  A linear functional on chains is continuous
exactly when it vanishes on every cap stratum below some threshold:
mu([o, A]) = 0 whenever -omega(A) <= lambda_mu.  Functionals here are finite
sums of atoms (one generator each) and rays (a cap arithmetic progression on
one orbit with a constant value), which keeps the classification decidable:
a ray diverges upward in omega iff it breaks every threshold, and the
divergence is certified by the canonical prefix sequence whose evaluations
step by one.

The dual invariant reads one engine window, the one a degree down: its
columns are the generators of the functional's degree, implicit as the
engine's are (`Window.implicit_columns`).  Each column gains one row below
every boundary row, the functional's value on its generator where it is
nonzero, and the columns are reduced in ascending action: the first column
to head that row is the first cycle the functional detects.  A column's
top row is its boundary part's, or the functional's row when that part is
empty, and a column is built only when the reduction walks or subtracts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .chains import FilteredComplex, Generator, NovikovChain, matrix_entries, merge_floor
from .engine import _degree_generators, build_window, window_pad
from .errors import DomainError, StructuralError
from .gamma import vec_add, vec_scale, vec_sub
from .linalg import add_terms
from .quantum import COHOMOLOGY, QuantumClass
from .scalars import NEG_INF


# ---------------------------------------------------------------------------
# balls


@dataclass(frozen=True)
class BallSpec:
    center: NovikovChain
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", Fraction(self.radius))


_PAST_ALL = (math.inf,)  # sorts after every generator


def _difference_level(a: NovikovChain, b: NovikovChain):
    """level(a - b) in one pass over both supports, without building a - b.

    It raises as the subtraction does: for chains of different complexes,
    and for mixed degrees among terms that do not cancel, checked before the
    merged floor drops the terms at or below it.
    """
    if a.complex is not b.complex:
        raise StructuralError("chains live in different complexes")
    # chains are homogeneous, so terms of two degrees never cancel
    if a.terms and b.terms and a.degree != b.degree:
        raise StructuralError(f"mixed degrees {a.degree} and {b.degree} in one chain")
    # terms run in chain order, which is tuple order: of the first terms of
    # each chain that do not cancel, the smaller is the top
    top = min(next((g for g, c in x.terms.items() if y.terms.get(g) != c), _PAST_ALL)
              for x, y in ((a, b), (b, a)))
    if top is _PAST_ALL:
        return NEG_INF
    level, floor = top.action, merge_floor(a.floor, b.floor)
    return level if floor is None or level > floor else NEG_INF


def in_ball(beta: NovikovChain, ball: BallSpec) -> bool:
    return _difference_level(beta, ball.center) < ball.radius


def ball_intersection_radius(b1: BallSpec, b2: BallSpec, alpha: NovikovChain):
    """Radius R with U(alpha, R) inside both balls, from the ultrametric step.

    Requires alpha in the intersection; R = min(R1, R2) works because
    level(beta - center_i) <= max(level(beta - alpha), level(alpha - center_i)).
    """
    d1 = _difference_level(alpha, b1.center)
    d2 = _difference_level(alpha, b2.center)
    if not (d1 < b1.radius and d2 < b2.radius):
        raise DomainError("the base point is not in the intersection")
    return min(b1.radius, b2.radius)


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class Ray:
    """Constant value on the caps base + t*direction, t = 0, 1, 2, ..."""

    orbit: str
    base: tuple
    direction: tuple
    value: Fraction

    def hits(self, gen: Generator):
        """The step index t >= 0 with gen = (orbit, base + t*direction), or None."""
        if gen.orbit != self.orbit:
            return None
        diff = vec_sub(gen.cap, self.base)
        steps = None
        for d, x in zip(self.direction, diff):
            if d == 0:
                if x != 0:
                    return None
                continue
            t = Fraction(x, d)
            if steps is None:
                steps = t
            elif steps != t:
                return None
        if steps is None:  # zero direction: only the base itself
            steps = Fraction(0) if all(x == 0 for x in diff) else None
        if steps is None or steps.denominator != 1 or steps < 0:
            return None
        return int(steps)


class DualFunctional:
    """Finite atoms + rays, with an optional declared vanishing threshold."""

    def __init__(self, C: FilteredComplex, atoms=None, rays=None, threshold=None):
        self.complex = C
        items = atoms.items() if isinstance(atoms, dict) else (atoms or [])
        self.atoms = add_terms({}, ((gen, Fraction(value)) for gen, value in items))
        self.rays = []
        for ray in rays or []:
            if ray.orbit not in C.orbits:
                raise StructuralError(f"ray on unknown orbit {ray.orbit!r}")
            if Fraction(ray.value) != 0:
                self.rays.append(ray)
        self.threshold = None if threshold is None else Fraction(threshold)
        if self.threshold is not None:
            bad = [
                gen for gen in self.atoms
                if -C.gamma.omega(gen.cap) <= self.threshold
            ]
            for ray in self.rays:
                if -C.gamma.omega(ray.base) <= self.threshold or C.gamma.omega(ray.direction) > 0:
                    bad.append(ray)
            if bad:
                raise StructuralError(
                    "declared threshold is violated by the support description"
                )

    def is_zero(self):
        return not self.atoms and not self.rays

    def value(self, gen: Generator) -> Fraction:
        """The value on one generator: its atom's plus every ray's that hits it."""
        total = self.atoms.get(gen, Fraction(0))
        for ray in self.rays:
            if ray.hits(gen) is not None:
                total += ray.value
        return total

    def evaluate(self, chain: NovikovChain) -> Fraction:
        return sum((coeff * self.value(gen) for gen, coeff in chain.terms.items()),
                   Fraction(0))

    def support_levels(self):
        """-omega(cap) over atoms and ray starts (rays may descend further)."""
        C = self.complex
        levels = [-C.gamma.omega(g.cap) for g in self.atoms]
        levels += [-C.gamma.omega(r.base) for r in self.rays]
        return levels


@dataclass
class Classification:
    continuous: bool
    threshold: Fraction | None
    counterexample: list | None  # prefix chains beta_1, beta_2, ... or None
    diverging_ray: Ray | None


def classify_functional(mu: DualFunctional) -> Classification:
    """Decide continuity; produce a threshold or a diverging prefix of 4 chains.

    A ray whose direction has positive omega carries support with
    -omega(cap) -> -infinity, so no vanishing threshold can exist; the
    certificate is the prefix sequence whose consecutive evaluations differ
    by exactly one.
    """
    C = mu.complex
    for ray in mu.rays:
        if C.gamma.omega(ray.direction) > 0:
            # increments of the diverging partial-sum sequence: each is a
            # homogeneous chain with evaluation exactly 1, so consecutive
            # partial sums differ by one forever.
            prefix = []
            for j in range(1, 5):
                cap = vec_add(ray.base, vec_scale(j, ray.direction))
                gen = C.generator(ray.orbit, cap)
                prefix.append(C.chain({gen: Fraction(1, 1) / ray.value}))
            return Classification(False, None, prefix, ray)
    if mu.is_zero():
        return Classification(True, Fraction(0), None, None)
    threshold = min(mu.support_levels()) - 1
    return Classification(True, threshold, None, None)


def dual_boundary(mu: DualFunctional) -> DualFunctional:
    """Pullback along the boundary: (d* mu)(alpha) = mu(d alpha)."""
    C = mu.complex
    cls = classify_functional(mu)
    if not cls.continuous:
        raise DomainError("dual boundary of a discontinuous functional is rejected")
    atoms = []  # DualFunctional sums repeated generators
    rays = []
    for src, dst, scalar in matrix_entries(C.boundary_entries):
        for label, coeff in scalar.terms.items():
            atoms += [(C.generator(src, vec_sub(gen.cap, label)), coeff * value)
                      for gen, value in mu.atoms.items() if gen.orbit == dst]
            for ray in mu.rays:
                if ray.orbit != dst:
                    continue
                rays.append(
                    Ray(src, vec_sub(ray.base, label), ray.direction, coeff * ray.value)
                )
    return DualFunctional(C, atoms, rays)


def is_cocycle(mu: DualFunctional, degree: int) -> bool:
    """d* mu = 0, tested by evaluation on the dual window's degree+1 generators."""
    C = mu.complex
    dual = dual_boundary(mu)
    for gen in _degree_generators(C, degree + 1, *_default_dual_window(C)):
        if dual.value(gen) != 0:
            return False
    return True


def _default_dual_window(C: FilteredComplex):
    pad, keys = window_pad(C), C.action_keys
    return Fraction(keys.bottom - pad, keys.denom), Fraction(keys.top + pad, keys.denom)


# ---------------------------------------------------------------------------
# embedding classes and the dual invariant


def embed_class(a: QuantumClass, C: FilteredComplex, cochains: dict) -> DualFunctional:
    """A finite cohomology class as a continuous functional on chains.

    `cochains` maps basis ids to dual cochain representatives (lists of
    (coeff, point id)); term labels become cap positions.  The threshold
    witnesses continuity just below the class's minimal support level.
    """
    if a.direction != COHOMOLOGY:
        raise StructuralError("embed_class takes a cohomology class")
    atoms = []  # DualFunctional sums repeated generators
    for (name, label), coeff in a.terms.items():
        if name not in cochains:
            raise StructuralError(f"no cochain representative for class {name!r}")
        atoms += [(C.generator(point, label), coeff * Fraction(pc))
                  for pc, point in cochains[name]]
    mu = DualFunctional(C, atoms, [])
    return DualFunctional(C, mu.atoms, [], threshold=classify_functional(mu).threshold)


def point_cochain_functional(C: FilteredComplex, terms) -> DualFunctional:
    """Atom functional of a point cochain: (coeff, orbit, cap) triples."""
    return DualFunctional(
        C, [(C.generator(point, tuple(label)), coeff) for coeff, point, label in terms], []
    )


def dual_spectral_invariant(C: FilteredComplex, mu: DualFunctional, degree: int):
    """Smallest truncation level at which the functional detects a cycle.

    The boundary out of degree `degree` is reduced once with its columns in
    ascending action, each with one more row below every boundary row: mu's
    value on its generator.  A column heads that row exactly when its
    boundary part reduces to zero and mu is nonzero on the cycle its
    reduction combines, so the answer is the action of the column that
    heads it.  A functional that detects nothing in the window pairs to
    zero with every class there: -infinity.
    """
    if not is_cocycle(mu, degree):  # refuses a discontinuous functional (`dual_boundary`)
        raise DomainError("the functional is not closed under the dual boundary")
    # the window one degree down has the degree-`degree` generators as its
    # columns, with their boundary images above its floor
    w = build_window(C, degree - 1, *_default_dual_window(C))
    ids, floor = w.col_ids[::-1], w.floor
    gens = w.generators(ids, degree)
    values = [mu.value(gen) for gen in gens]
    column, tops = w.implicit_columns(ids)

    def seen(j):  # mu's row, an id past every window row, only where mu is nonzero
        col = column(j)
        if values[j]:
            col[floor] = values[j]
        return col

    tops = [floor if top is None and value else top for top, value in zip(tops, values)]
    j = linalg.Reduction(seen, tops).pivots.get(floor)
    return NEG_INF if j is None else gens[j].action
