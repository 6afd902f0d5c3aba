"""Formal Novikov scalars over exact rationals, in both completion directions.

A scalar is a finite map {exponent label -> coefficient} plus a precision
floor.  In the downward ring a label B names the written exponent q^B; in the
upward ring a label A names the term written q^(-A).  In both directions the
infinite tails of a genuine series have omega(label) -> -infinity, so one
uniform truncation rule applies: labels with omega(label) <= floor are
unrepresentable.  floor = None means exact.

Valuations follow the two ring conventions: downward v = max omega(B) over
the support, upward v = min omega(-A) = -max omega(A); the zero scalar gets
-infinity / +infinity respectively.  A zero term list with a finite floor is
indeterminate: the true scalar may have all its support below the floor.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, IndeterminateError, StructuralError
from .gamma import GammaGroup, vec_add, vec_neg
from .linalg import add_terms

DOWN = "downward"
UP = "upward"

NEG_INF = float("-inf")
POS_INF = float("inf")


def merge_floor(a, b):
    """The higher of two precision floors; None means exact."""
    return max((f for f in (a, b) if f is not None), default=None)


class NovikovScalar:
    __slots__ = ("group", "direction", "terms", "floor")

    def __init__(self, group: GammaGroup, direction: str, terms=None, floor=None):
        if direction not in (DOWN, UP):
            raise StructuralError(f"unknown direction {direction!r}")
        self.group = group
        self.direction = direction
        self.floor = None if floor is None else Fraction(floor)
        clean = {}
        for label, coeff in (terms or {}).items() if isinstance(terms, dict) else (terms or []):
            label = group.check_element(label)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if label in clean:
                raise StructuralError(f"duplicate exponent {label}")
            if self.floor is not None and group.omega(label) <= self.floor:
                raise StructuralError(
                    f"term at {label} lies at or below the precision floor"
                )
            clean[label] = coeff
        self.terms = dict(sorted(clean.items()))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, group, direction, floor=None):
        return cls(group, direction, {}, floor)

    @classmethod
    def monomial(cls, group, direction, coeff, label=None, floor=None):
        label = group.zero if label is None else label
        return cls(group, direction, {tuple(label): Fraction(coeff)}, floor)

    @classmethod
    def one(cls, group, direction):
        return cls.monomial(group, direction, 1)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "NovikovScalar"):
        if self.direction != other.direction:
            raise StructuralError("direction mismatch")
        if self.group != other.group:
            raise StructuralError("scalars live over different groups")

    def __eq__(self, other):
        return (
            isinstance(other, NovikovScalar)
            and self.group == other.group
            and self.direction == other.direction
            and self.terms == other.terms
            and self.floor == other.floor
        )

    def __hash__(self):
        return hash((self.direction, tuple(self.terms.items()), self.floor))

    def __repr__(self):
        arrow = "v" if self.direction == DOWN else "^"
        body = " + ".join(f"{c}*q{list(l)}" for l, c in self.terms.items()) or "0"
        tail = "" if self.floor is None else f" + O({self.floor})"
        return f"<{arrow} {body}{tail}>"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check_compatible(other)
        floor = merge_floor(self.floor, other.floor)
        terms = add_terms(dict(self.terms), other.terms.items())
        if floor is not None:
            terms = {l: c for l, c in terms.items() if self.group.omega(l) > floor}
        return NovikovScalar(self.group, self.direction, terms, floor)

    def __neg__(self) -> "NovikovScalar":
        return NovikovScalar(
            self.group, self.direction, {l: -c for l, c in self.terms.items()}, self.floor
        )

    def __sub__(self, other):
        return self + (-other)

    def _top_omega(self):
        if not self.terms:
            return None
        return max(self.group.omega(l) for l in self.terms)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check_compatible(other)
        # Sound floor: unknown tails of one factor meet the leading part of
        # the other, so floors add through the top omega of the partner.
        candidates = []
        for f, partner in ((self.floor, other), (other.floor, self)):
            if f is None:
                continue
            top = partner._top_omega()
            if top is not None:
                candidates.append(f + top)
        if self.floor is not None and other.floor is not None:
            candidates.append(self.floor + other.floor)
        floor = max(candidates) if candidates else None
        terms = add_terms({}, (
            (vec_add(la, lb), ca * cb)
            for la, ca in self.terms.items() for lb, cb in other.terms.items()
        ))
        if floor is not None:
            terms = {l: c for l, c in terms.items() if self.group.omega(l) > floor}
        return NovikovScalar(self.group, self.direction, terms, floor)

    def scale(self, rational) -> "NovikovScalar":
        r = Fraction(rational)
        return NovikovScalar(
            self.group, self.direction, {l: r * c for l, c in self.terms.items()}, self.floor
        )

    def shift(self, label) -> "NovikovScalar":
        """Multiply by the monomial with exponent `label` and coefficient 1."""
        label = self.group.check_element(label)
        floor = None
        if self.floor is not None:
            floor = self.floor + self.group.omega(label)
        return NovikovScalar(
            self.group,
            self.direction,
            {vec_add(l, label): c for l, c in self.terms.items()},
            floor,
        )

    # -- valuation ----------------------------------------------------------

    def valuation(self):
        """Downward: max omega(B); upward: min omega(-A).  Zero: -inf / +inf."""
        if not self.terms:
            if self.floor is not None:
                raise IndeterminateError(
                    "valuation indeterminate: no terms above the precision floor"
                )
            return NEG_INF if self.direction == DOWN else POS_INF
        if self.direction == DOWN:
            return max(self.group.omega(l) for l in self.terms)
        return min(self.group.omega(vec_neg(l)) for l in self.terms)

    def leading(self):
        """(label, coefficient) attaining the valuation; error on ties."""
        if not self.terms:
            raise DomainError("zero scalar has no leading term")
        v = self.valuation()
        if self.direction == DOWN:
            hits = [l for l in self.terms if self.group.omega(l) == v]
        else:
            hits = [l for l in self.terms if self.group.omega(vec_neg(l)) == v]
        if len(hits) != 1:
            raise DomainError(f"leading term is ambiguous among {hits}")
        return hits[0], self.terms[hits[0]]
