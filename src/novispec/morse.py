"""Morse data and the small-multiple filtered complex it generates.

The complex of a small positive multiple eps*f has one orbit per critical
point p, base action -eps*f(p), and base degree n - index_f(p) (half the
ambient dimension shifted by the Morse index of -f).  Its boundary is the
boundary of the -eps*f Morse complex, i.e. the transpose of the supplied
f-boundary, with no group-shifted entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chains import FilteredComplex, compose_matrices
from .errors import StructuralError
from .gamma import GammaGroup
from .linalg import add_terms
from .scalars import DOWN, NovikovScalar


@dataclass
class MorseData:
    """Critical points and integral boundary of a Morse function f."""

    dim: int  # ambient dimension 2n
    points: list  # of (id, value f(p), index in [0, dim])
    boundary: dict = field(default_factory=dict)  # {src: {dst: int}}, index drops 1
    betti: list | None = None

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 0:
            raise StructuralError("ambient dimension must be a nonnegative even integer")
        pts = []
        seen = set()
        for pid, value, index in self.points:
            pid = str(pid)
            if pid in seen:
                raise StructuralError(f"duplicate critical point id {pid!r}")
            seen.add(pid)
            index = int(index)
            if not 0 <= index <= self.dim:
                raise StructuralError(f"index {index} of {pid!r} outside [0, {self.dim}]")
            pts.append((pid, Fraction(value), index))
        self.points = pts
        self._index = {pid: (value, index) for pid, value, index in pts}
        cleaned = {}
        for src, row in self.boundary.items():
            if src not in self._index:
                raise StructuralError(f"boundary source {src!r} is not a critical point")
            for dst, coeff in row.items():
                if dst not in self._index:
                    raise StructuralError(f"boundary target {dst!r} is not a critical point")
                coeff = int(coeff)
                if coeff == 0:
                    continue
                if self._index[dst][1] != self._index[src][1] - 1:
                    raise StructuralError(
                        f"boundary entry {src}->{dst} does not drop the index by 1"
                    )
                cleaned.setdefault(src, {})[dst] = coeff
        self.boundary = cleaned
        self._check_square_zero()
        if self.betti is not None:
            self._check_morse_inequalities()

    def _check_square_zero(self):
        for src, row in compose_matrices(self.boundary, self.boundary).items():
            bad = {d: c for d, c in row.items() if c != 0}
            if bad:
                raise StructuralError(f"Morse boundary does not square to zero at {src!r}: {bad}")

    def _check_morse_inequalities(self):
        counts = [0] * (self.dim + 1)
        for _, _, index in self.points:
            counts[index] += 1
        betti = list(self.betti) + [0] * (self.dim + 1 - len(self.betti))
        for i, b in enumerate(betti):
            if counts[i] < b:
                raise StructuralError(
                    f"Morse inequality fails in index {i}: {counts[i]} < b_{i} = {b}"
                )
        euler_counts = sum((-1) ** i * c for i, c in enumerate(counts))
        euler_betti = sum((-1) ** i * b for i, b in enumerate(betti))
        if euler_counts != euler_betti:
            raise StructuralError("Euler characteristics of counts and Betti numbers differ")

    def value(self, pid: str) -> Fraction:
        return self._index[pid][0]

    def index(self, pid: str) -> int:
        return self._index[pid][1]

    def max_value(self) -> Fraction:
        return max(v for _, v, _ in self.points)

    def min_value(self) -> Fraction:
        return min(v for _, v, _ in self.points)


def build_small_complex(m: MorseData, eps, gamma: GammaGroup) -> FilteredComplex:
    """Filtered complex of eps*f: no quantum terms, transposed Morse boundary."""
    eps = Fraction(eps)
    if eps <= 0:
        raise StructuralError("eps must be positive")
    n = m.dim // 2
    orbits = [(pid, -eps * value, n - index) for pid, value, index in m.points]
    boundary = {}
    # boundary of -f = transpose of the f-boundary
    for src, row in m.boundary.items():
        for dst, coeff in row.items():
            boundary.setdefault(dst, {})[src] = NovikovScalar.monomial(
                gamma, DOWN, coeff
            )
    C = FilteredComplex(gamma, orbits, boundary)
    C.annotations["morse_index"] = {pid: index for pid, _, index in m.points}
    C.annotations["morse_value"] = {pid: value for pid, value, _ in m.points}
    C.annotations["eps"] = eps
    C.annotations["half_dim"] = n
    return C


def cochain_differential(m: MorseData, terms) -> list:
    """Differential on point cochains, read off the raw Morse data.

    `terms` is a list of (coeff, point id, cap label); the dual of the
    built boundary sends p* to the f-targets of p, labels untouched.  This
    is the independent route against pulling functionals back through the
    built complex.
    """
    out = add_terms({}, (
        ((dst, tuple(label)), Fraction(coeff) * k)
        for coeff, point, label in terms
        for dst, k in m.boundary.get(point, {}).items()
    ))
    return [(c, p, l) for (p, l), c in sorted(out.items())]


def morse_index_of(C: FilteredComplex, orbit: str) -> int:
    """The original Morse index of the critical point behind an orbit."""
    table = C.annotations.get("morse_index")
    if table is None or orbit not in table:
        raise StructuralError(f"no Morse index recorded for orbit {orbit!r}")
    return table[orbit]
