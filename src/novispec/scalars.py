"""Exact formal Novikov scalars over rationals, in both completion directions.

A scalar is a finite map {exponent label -> coefficient}, and it is exact:
ring operations never truncate.  Precision belongs to chains (see `chains`).
In the downward ring a label B names the written exponent q^B; in the upward
ring a label A names the term written q^(-A).

Valuations follow the two ring conventions: downward v = max omega(B) over
the support, upward v = min omega(-A) = -max omega(A); the zero scalar gets
-infinity / +infinity respectively.  Both compare omega in integer units
(`GammaGroup.omega_units`) and build one `Fraction` for the answer.

The public `NovikovScalar` constructor checks its input: the direction,
each label against the group, each coefficient, and duplicate labels.
Sums, negations and products of checked scalars, and the random scalars of
`fixtures`, already have valid labels and nonzero coefficients, so they
go through `NovikovScalar._checked`, which only puts the terms in label
order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import DomainError, StructuralError
from .gamma import GammaGroup, vec_add
from .linalg import add_terms

DOWN = "downward"
UP = "upward"

NEG_INF = float("-inf")
POS_INF = float("inf")


class NovikovScalar:
    __slots__ = ("group", "direction", "terms")

    def __init__(self, group: GammaGroup, direction: str, terms=None):
        if direction not in (DOWN, UP):
            raise StructuralError(f"unknown direction {direction!r}")
        self.group = group
        self.direction = direction
        clean = {}
        for label, coeff in (terms or {}).items() if isinstance(terms, dict) else (terms or []):
            label = group.check_element(label)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if label in clean:
                raise StructuralError(f"duplicate exponent {label}")
            clean[label] = coeff
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def _checked(cls, group, direction, terms) -> "NovikovScalar":
        """A scalar over `terms` as given: a {label: coeff} dict of checked
        labels and nonzero `Fraction`s, put in label order."""
        scalar = object.__new__(cls)
        scalar.group, scalar.direction = group, direction
        scalar.terms = dict(sorted(terms.items()))
        return scalar

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, group, direction):
        return cls(group, direction, {})

    @classmethod
    def monomial(cls, group, direction, coeff, label=None):
        label = group.zero if label is None else label
        return cls(group, direction, {tuple(label): Fraction(coeff)})

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
        )

    def __hash__(self):
        return hash((self.direction, tuple(self.terms.items())))

    def __repr__(self):
        arrow = "v" if self.direction == DOWN else "^"
        body = " + ".join(f"{c}*q{list(l)}" for l, c in self.terms.items()) or "0"
        return f"<{arrow} {body}>"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check_compatible(other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return NovikovScalar._checked(self.group, self.direction, terms)

    def __neg__(self) -> "NovikovScalar":
        return NovikovScalar._checked(
            self.group, self.direction, {l: -c for l, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check_compatible(other)
        terms = add_terms({}, (
            (vec_add(la, lb), ca * cb)
            for la, ca in self.terms.items() for lb, cb in other.terms.items()
        ))
        return NovikovScalar._checked(self.group, self.direction, terms)

    def scale(self, rational) -> "NovikovScalar":
        r = Fraction(rational)
        return NovikovScalar(
            self.group, self.direction, {l: r * c for l, c in self.terms.items()}
        )

    # -- valuation ----------------------------------------------------------

    def valuation(self):
        """Downward: max omega(B); upward: min omega(-A).  Zero: -inf / +inf."""
        if not self.terms:
            return NEG_INF if self.direction == DOWN else POS_INF
        units, denom = self.group.omega_units()
        top = max(sum(map(mul, units, l)) for l in self.terms)
        return Fraction(top if self.direction == DOWN else -top, denom)

    def leading(self):
        """(label, coefficient) attaining the valuation; error on ties."""
        if not self.terms:
            raise DomainError("zero scalar has no leading term")
        # in both directions the labels of the largest omega attain it
        units, _ = self.group.omega_units()
        keys = {l: sum(map(mul, units, l)) for l in self.terms}
        top = max(keys.values())
        hits = [l for l, k in keys.items() if k == top]
        if len(hits) != 1:
            raise DomainError(f"leading term is ambiguous among {hits}")
        return hits[0], self.terms[hits[0]]
