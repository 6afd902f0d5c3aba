"""The coefficient group: a lattice with an area and a Chern homomorphism.

Elements (caps) are integer coordinate vectors; omega extends linearly with
exact rational values (evaluated in integer units over one denominator), c1
with integer values.  Construction rejects any representation in which a
nonzero lattice vector is killed by both homomorphisms, so (omega, c1) is
injective on the group.  With rational omega values this forces rank <= 2.

Gluing a cap shifts a generator's degree by -2 c1, so the caps of one degree
are the solutions of c1(A) = c.  These form a cap line: empty, one point, or
A0 + t K over the integers with c1(K) = 0.  Injectivity makes omega(K) != 0,
so `GammaGroup.cap_line` orients K with omega(K) > 0, and the caps of one
Chern number in an area range are a run of consecutive t.  The group only
solves for the line: a complex's action keys (`chains.ActionKeys`) read it
once per Chern number in integer action units, with omega in the same units
(`GammaGroup.omega_units`), and enumerate its runs there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, index, mul, sub

from .errors import StructuralError

GammaElement = tuple  # integer coordinate vector, length = group rank


def vec_zero(rank: int) -> GammaElement:
    return (0,) * rank

def vec_add(a: GammaElement, b: GammaElement) -> GammaElement:
    return tuple(map(add, a, b))

def vec_sub(a: GammaElement, b: GammaElement) -> GammaElement:
    return tuple(map(sub, a, b))

def vec_neg(a: GammaElement) -> GammaElement:
    return tuple(-x for x in a)

def vec_scale(n: int, a: GammaElement) -> GammaElement:
    return tuple(n * x for x in a)


def integers(values, what: str) -> tuple:
    """`values` as a tuple of ints; a non-integer (1.5, 3/2) is rejected, not truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise StructuralError(f"{what} must be integers, got {values!r}") from None


def fraction_gcd(values) -> Fraction:
    """gcd of exact rationals: the generator of the subgroup of Q they span."""
    g = Fraction(0)
    for v in values:
        v = abs(Fraction(v))
        if v == 0:
            continue
        if g == 0:
            g = v
        else:
            num = gcd(g.numerator * v.denominator, v.numerator * g.denominator)
            g = Fraction(num, g.denominator * v.denominator)
    return g


@dataclass(frozen=True)
class GammaGroup:
    """Free abelian group Z^k with omega and c1 given on generators."""

    omega_values: tuple
    c1_values: tuple
    # derived from omega_values, so kept out of equality, hashing and repr
    _period: Fraction = field(init=False, repr=False, compare=False)
    _omega_units: tuple = field(init=False, repr=False, compare=False)
    _omega_denom: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        omega = tuple(Fraction(v) for v in self.omega_values)
        chern = integers(self.c1_values, "c1 values")
        if len(omega) != len(chern):
            raise StructuralError("omega and c1 generator lists differ in length")
        object.__setattr__(self, "omega_values", omega)
        object.__setattr__(self, "c1_values", chern)
        object.__setattr__(self, "_period", fraction_gcd(omega))
        object.__setattr__(self, "_omega_denom", lcm(*(w.denominator for w in omega)))
        object.__setattr__(self, "_omega_units", tuple(int(w * self._omega_denom) for w in omega))
        if self._joint_kernel_nontrivial():
            raise StructuralError(
                "degenerate generators: a nonzero vector has omega = 0 and c1 = 0"
            )

    def _joint_kernel_nontrivial(self) -> bool:
        # Rational kernel of the 2 x k matrix [omega; c1] is nonzero iff an
        # integer kernel vector exists (clear denominators), iff rank < k.
        k = self.rank
        if k == 0:
            return False
        w, c = self.omega_values, self.c1_values
        rank = 0
        if any(v != 0 for v in w) or any(v != 0 for v in c):
            rank = 1
        if any(
            w[i] * c[j] - w[j] * c[i] != 0
            for i in range(k)
            for j in range(i + 1, k)
        ):
            rank = 2
        return rank < k

    @property
    def rank(self) -> int:
        return len(self.omega_values)

    @property
    def zero(self) -> GammaElement:
        return vec_zero(self.rank)

    def check_element(self, a: GammaElement) -> GammaElement:
        a = integers(a, "element coordinates")
        if len(a) != self.rank:
            raise StructuralError(
                f"element has {len(a)} coordinates, group rank is {self.rank}"
            )
        return a

    def omega(self, a: GammaElement) -> Fraction:
        a = self.check_element(a)
        return Fraction(sum(map(mul, self._omega_units, a)), self._omega_denom)

    def c1(self, a: GammaElement) -> int:
        a = self.check_element(a)
        return sum(c * x for c, x in zip(self.c1_values, a))

    def omega_units(self):
        """(units, denom): omega of each generator is units[i] / denom, with
        denom the lcm of the omega-value denominators."""
        return self._omega_units, self._omega_denom

    def evaluate(self, a: GammaElement):
        """Both homomorphisms at once: (omega(a), c1(a))."""
        return self.omega(a), self.c1(a)

    def period_generator(self) -> Fraction:
        """Generator of the period group omega(Gamma) inside Q (0 if trivial)."""
        return self._period

    def cap_line(self, c1: int):
        """(A0, K) with {A : c1(A) = c1} = {A0 + t K}.

        K is oriented so that omega(K) > 0, decided in integer omega units;
        K is None for a one-point line, and the whole result is None if no
        cap has Chern number c1.  Rank 0 and 1 solve directly; rank 2 solves
        d1 x + d2 y = c1 by one extended gcd.  A zero c1 row on rank 2 was
        rejected at construction.
        """
        d = self.c1_values
        if not any(d):
            if c1 != 0:
                return None
            start, step = self.zero, ((1,) if self.rank else None)
        elif self.rank == 1:
            if c1 % d[0] != 0:
                return None
            start, step = (c1 // d[0],), None
        else:
            g, u, v = _extended_gcd(*d)
            if c1 % g != 0:
                return None
            start, step = (u * (c1 // g), v * (c1 // g)), (d[1] // g, -d[0] // g)
        if step is None or sum(map(mul, self._omega_units, step)) > 0:
            return start, step
        return start, vec_neg(step)


def _extended_gcd(a: int, b: int):
    """(g, u, v) with a u + b v = g = gcd(a, b) >= 0."""
    r0, r1, u0, u1, v0, v1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0 < 0:
        return -r0, -u0, -v0
    return r0, u0, v0
