"""Certified chain maps, sampled Hamiltonian algebra, chain-level products,
and monodromy shifts.

Maps arrive with certificates (a claimed uniform level shift), never from
solving anything: certification re-checks the chain identity, the degree, and
the entry-wise shift bound.  Products carry a per-triple slack ledger that is
hard-checked at evaluation time.  Monodromy shifts are filtered isomorphisms
moving every action by one constant, built from an orbit bijection and a cap
correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import (
    FilteredComplex,
    NovikovChain,
    ValidationReport,
    compose_matrices,
    entry_shifts,
    equivariant_image,
    matrix_entries,
    merge_floor,
    orbit_matrix,
)
from .engine import action_spectrum, spectral_invariant
from .errors import StructuralError
from .gamma import vec_add, vec_neg
from .scalars import DOWN, NEG_INF, NovikovScalar


# ---------------------------------------------------------------------------
# sampled Hamiltonians


class HamiltonianData:
    """Time-sampled function values on a finite weighted point set."""

    def __init__(self, times, weights, values, normalized=False):
        self.times = tuple(Fraction(t) for t in times)
        if not self.times or self.times[0] != 0:
            raise StructuralError("time samples must start at 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise StructuralError("time samples must increase")
        if self.times[-1] >= 1:
            raise StructuralError("time samples live in [0, 1)")
        self.weights = {str(p): Fraction(w) for p, w in weights.items()}
        if any(w <= 0 for w in self.weights.values()):
            raise StructuralError("weights must be positive")
        self.values = []
        for row in values:
            row = {str(p): Fraction(v) for p, v in row.items()}
            if sorted(row) != sorted(self.weights):
                raise StructuralError("each time sample must cover every point")
            self.values.append(row)
        if len(self.values) != len(self.times):
            raise StructuralError("one value row per time sample required")
        self.normalized = bool(normalized)
        if self.normalized:
            for i, row in enumerate(self.values):
                if self._mean(row) != 0:
                    raise StructuralError(
                        f"normalized flag set but the mean at t={self.times[i]} is nonzero"
                    )

    def _mean(self, row):
        total_w = sum(self.weights.values())
        return sum(self.weights[p] * v for p, v in row.items()) / total_w

    def _steps(self):
        ts = list(self.times) + [Fraction(1)]
        return [b - a for a, b in zip(ts, ts[1:])]

    def _same_grid(self, other: "HamiltonianData"):
        if self.times != other.times or sorted(self.weights) != sorted(other.weights):
            raise StructuralError("Hamiltonians live on different sample grids")
        if self.weights != other.weights:
            raise StructuralError("Hamiltonians carry different measures")

    # -- operations ----------------------------------------------------------

    def norm(self) -> Fraction:
        """Left-endpoint quadrature of max - min over time."""
        total = Fraction(0)
        for dt, row in zip(self._steps(), self.values):
            total += dt * (max(row.values()) - min(row.values()))
        return total

    def compose(self, other: "HamiltonianData", flow=None,
                commuting: bool = False) -> "HamiltonianData":
        """Group law: self followed by other moved back through self's flow.

        `flow[i]` is the permutation of point ids realized by self's flow at
        the i-th time sample.  Without flow data the `commuting` shortcut
        must be set explicitly (points stay put); otherwise the call is an
        error.
        """
        self._same_grid(other)
        if flow is None and not commuting:
            raise StructuralError(
                "compose needs flow data or the commuting shortcut flag"
            )
        flow = self._check_flow(flow)
        rows = []
        for i, (row_a, row_b) in enumerate(zip(self.values, other.values)):
            inv = {v: k for k, v in flow[i].items()}
            rows.append({p: row_a[p] + row_b[inv[p]] for p in row_a})
        return HamiltonianData(
            self.times, self.weights, rows,
            normalized=self.normalized and other.normalized,
        )

    def inverse(self, flow=None) -> "HamiltonianData":
        """Inverse element: negated values pulled through the flow."""
        flow = self._check_flow(flow)
        rows = []
        for i, row in enumerate(self.values):
            rows.append({p: -row[flow[i][p]] for p in row})
        return HamiltonianData(self.times, self.weights, rows, normalized=self.normalized)

    def normalize(self) -> "HamiltonianData":
        rows = []
        for row in self.values:
            mean = self._mean(row)
            rows.append({p: v - mean for p, v in row.items()})
        return HamiltonianData(self.times, self.weights, rows, normalized=True)

    def _check_flow(self, flow):
        if flow is None:
            ident = {p: p for p in self.weights}
            return [ident] * len(self.times)
        if len(flow) != len(self.times):
            raise StructuralError("one permutation per time sample required")
        for perm in flow:
            if sorted(perm) != sorted(self.weights) or sorted(perm.values()) != sorted(self.weights):
                raise StructuralError("flow must permute the sample points")
            if any(self.weights[p] != self.weights[q] for p, q in perm.items()):
                raise StructuralError("flow must preserve the measure")
        return flow

    def pointwise(self, other: "HamiltonianData", op) -> list:
        """Per-time list of op over the pointwise difference other - self."""
        self._same_grid(other)
        out = []
        for row_a, row_b in zip(self.values, other.values):
            out.append(op(row_b[p] - row_a[p] for p in row_a))
        return out

    def quadrature(self, per_time) -> Fraction:
        return sum(
            (dt * v for dt, v in zip(self._steps(), per_time)), Fraction(0)
        )


def shift_bounds(H: HamiltonianData, F: HamiltonianData):
    """(lower, upper) of the continuity sandwich between H and F.

    lower = integral of -max(F - H), upper = integral of -min(F - H).
    """
    lower = H.quadrature([-v for v in H.pointwise(F, max)])
    upper = H.quadrature([-v for v in H.pointwise(F, min)])
    return lower, upper


# ---------------------------------------------------------------------------
# certified chain maps


class ChainMap:
    """Degree-zero map with a claimed uniform level-shift bound."""

    def __init__(self, source: FilteredComplex, target: FilteredComplex,
                 matrix, shift_bound):
        if source.gamma != target.gamma:
            raise StructuralError("source and target use different groups")
        self.source = source
        self.target = target
        self.shift_bound = Fraction(shift_bound)
        self.matrix = orbit_matrix(matrix, source, target, "map")

    def apply(self, chain: NovikovChain) -> NovikovChain:
        if chain.complex is not self.source:
            raise StructuralError("chain does not live in the source complex")
        image = equivariant_image(self.matrix, chain.terms, self.target)
        return self.target.chain(image, chain.floor)

    def certify(self) -> ValidationReport:
        """Chain identity, degree zero, and the entry-wise shift bound."""
        report = ValidationReport()
        shifts = entry_shifts(self.matrix, self.source, self.target)
        for src, dst, label, shift, dshift in shifts:
            if dshift != 0:
                sdeg = self.source.base_degree(src)
                report.add("degree", (src, dst, label), f"entry {src}->{dst} at {label} "
                           f"shifts degree {sdeg} -> {sdeg + dshift}")
            if shift > self.shift_bound:
                report.add(
                    "shift-bound",
                    (src, dst, label),
                    f"entry {src}->{dst} at {label} shifts action by {shift} "
                    f"> bound {self.shift_bound}",
                )
        if "degree" in report.codes():
            # a degree-shifting row can map a generator to mixed degrees
            return report
        # chain identity on base generators (equivariance covers all caps)
        for src in sorted(self.source.orbits):
            chain = self.source.chain({self.source.generator(src): 1})
            left = self.apply(self.source.boundary(chain))
            right = self.target.boundary(self.apply(chain))
            if left != right:
                diff = left - right
                gen = next(iter(diff.terms))
                report.add("chain-identity", (src, gen.orbit),
                           f"boundary does not commute on {src!r}")
        return report

    def compose(self, inner: "ChainMap") -> "ChainMap":
        """self after inner, with the additive certificate."""
        if inner.target is not self.source:
            raise StructuralError("maps are not composable")
        return ChainMap(
            inner.source, self.target, compose_matrices(self.matrix, inner.matrix),
            inner.shift_bound + self.shift_bound,
        )


def identity_map(C: FilteredComplex, bound=0) -> ChainMap:
    one = {o: {o: NovikovScalar.one(C.gamma, DOWN)} for o in C.orbits}
    return ChainMap(C, C, one, bound)


@dataclass
class ContinuityReport:
    lower: Fraction
    upper: Fraction
    rho_source: object
    rho_target: object
    difference: object
    ok: bool
    lower_margin: object
    upper_margin: object
    tight_lower: bool
    tight_upper: bool


def verify_continuity(
    C_H: FilteredComplex,
    C_F: FilteredComplex,
    h_HF: ChainMap,
    h_FH: ChainMap,
    H: HamiltonianData,
    F: HamiltonianData,
    rep_H: NovikovChain,
    rep_F: NovikovChain,
) -> ContinuityReport:
    """Two-sided level bound between invariants of one class in two complexes.

    The forward map must be certified with the upper sandwich bound, the
    reverse map with the reversed one; the invariants of the supplied class
    pair must then differ by a value inside the sandwich.  Two zero classes
    agree, as in `monodromy_shift`, with no difference or margins.
    """
    lower, upper = shift_bounds(H, F)
    rev_lower, rev_upper = shift_bounds(F, H)
    if h_HF.source is not C_H or h_HF.target is not C_F:
        raise StructuralError("forward map endpoints are wrong")
    if h_FH.source is not C_F or h_FH.target is not C_H:
        raise StructuralError("reverse map endpoints are wrong")
    if h_HF.shift_bound != upper or h_FH.shift_bound != rev_upper:
        raise StructuralError(
            "certificates do not match the sampled data: expected "
            f"{upper} forward and {rev_upper} backward"
        )
    for name, m in (("forward", h_HF), ("backward", h_FH)):
        rep = m.certify()
        if not rep.ok:
            raise StructuralError(f"{name} map fails certification: {rep.codes()}")
    rho_H = spectral_invariant(C_H, rep_H).rho
    rho_F = spectral_invariant(C_F, rep_F).rho
    if rho_H == rho_F == NEG_INF:
        return ContinuityReport(lower, upper, rho_H, rho_F, None, True, None, None,
                                tight_lower=False, tight_upper=False)
    diff = rho_F - rho_H
    ok = lower <= diff <= upper
    return ContinuityReport(
        lower, upper, rho_H, rho_F, diff, ok,
        diff - lower, upper - diff,
        tight_lower=(diff == lower), tight_upper=(diff == upper),
    )


# ---------------------------------------------------------------------------
# chain-level products


class ProductMapData:
    """Bilinear table over orbit pairs with a per-triple slack ledger."""

    def __init__(self, source1, source2, target, degree_shift, table, ledger=None):
        self.source1 = source1
        self.source2 = source2
        self.target = target
        self.degree_shift = int(degree_shift)
        if not (source1.gamma == source2.gamma == target.gamma):
            raise StructuralError("product factors use different groups")
        self.table = {}
        for (o1, o2), row in table.items():
            for o3, scalar in row.items():
                if scalar.direction != DOWN:
                    raise StructuralError("product entries must be downward scalars")
                if not scalar.is_zero():
                    self.table.setdefault((o1, o2), {})[o3] = scalar
        self.ledger = {k: Fraction(v) for k, v in (ledger or {}).items()}

    def slack(self, o1, o2, o3) -> Fraction:
        return self.ledger.get((o1, o2, o3), Fraction(0))

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        for (o1, o2), o3, scalar in matrix_entries(self.table):
            d1 = self.source1.base_degree(o1)
            d2 = self.source2.base_degree(o2)
            a1 = self.source1.base_action(o1)
            a2 = self.source2.base_action(o2)
            for label in scalar.terms:
                d3 = self.target.base_degree(o3) - 2 * self.target.gamma.c1(label)
                if d3 != d1 + d2 - self.degree_shift:
                    report.add(
                        "degree",
                        (o1, o2, o3, label),
                        f"triple ({o1},{o2})->{o3} at {label}: degree {d3} != "
                        f"{d1} + {d2} - {self.degree_shift}",
                    )
                a3 = self.target.base_action(o3) - self.target.gamma.omega(label)
                if a3 > a1 + a2 + self.slack(o1, o2, o3):
                    report.add(
                        "ledger",
                        (o1, o2, o3, label),
                        f"triple ({o1},{o2})->{o3} at {label}: level {a3} exceeds "
                        f"{a1} + {a2} + {self.slack(o1, o2, o3)}",
                    )
        return report

    def max_slack(self):
        return max(self.ledger.values(), default=Fraction(0))


def pants_product(alpha: NovikovChain, beta: NovikovChain, P: ProductMapData) -> NovikovChain:
    """Bilinear chain-level product; caps add, the ledger is hard-checked."""
    if alpha.complex is not P.source1 or beta.complex is not P.source2:
        raise StructuralError("factors do not live in the product's sources")
    if alpha.is_zero() or beta.is_zero():
        return P.target.chain()
    out = []
    for g1, c1 in alpha.terms.items():
        for g2, c2 in beta.terms.items():
            row = P.table.get((g1.orbit, g2.orbit))
            if row is None:
                continue
            for o3, scalar in row.items():
                for label, c in scalar.terms.items():
                    # base-level form of the ledger bound; caps cancel
                    a3 = P.target.base_action(o3) - P.target.gamma.omega(label)
                    bound = (
                        P.source1.base_action(g1.orbit)
                        + P.source2.base_action(g2.orbit)
                        + P.slack(g1.orbit, g2.orbit, o3)
                    )
                    if a3 > bound:
                        raise StructuralError(
                            f"ledger violation on triple ({g1.orbit}, {g2.orbit}, {o3})"
                        )
                    cap = vec_add(vec_add(g1.cap, g2.cap), label)
                    out.append((P.target.generator(o3, cap), c1 * c2 * c))
    result = P.target.chain(out, merge_floor(alpha.floor, beta.floor))
    if not result.is_zero():
        expected = alpha.degree + beta.degree - P.degree_shift
        if result.degree != expected:
            raise StructuralError(
                f"product degree {result.degree} != {expected}"
            )
        bound = alpha.level() + beta.level() + P.max_slack()
        if result.level() > bound:
            raise StructuralError("product level exceeds the ledger bound")
    return result


# ---------------------------------------------------------------------------
# monodromy shifts


@dataclass(frozen=True)
class MonodromyShift:
    """Loop action: orbit bijection + cap correction + uniform action shift."""

    orbit_map: dict  # source orbit -> target orbit name
    cap_shift: dict  # source orbit -> GammaElement
    i_omega: Fraction
    degree_shift: int

    def inverse(self) -> "MonodromyShift":
        inv_map = {v: k for k, v in self.orbit_map.items()}
        return MonodromyShift(
            inv_map,
            {self.orbit_map[o]: vec_neg(cap) for o, cap in self.cap_shift.items()},
            -Fraction(self.i_omega),
            -self.degree_shift,
        )

    def compose(self, inner: "MonodromyShift") -> "MonodromyShift":
        """self after inner; action constants add."""
        return MonodromyShift(
            {o: self.orbit_map[inner.orbit_map[o]] for o in inner.orbit_map},
            {
                o: vec_add(inner.cap_shift[o], self.cap_shift[inner.orbit_map[o]])
                for o in inner.orbit_map
            },
            Fraction(inner.i_omega) + Fraction(self.i_omega),
            inner.degree_shift + self.degree_shift,
        )


def monodromy_shift(C: FilteredComplex, s: MonodromyShift,
                    representative: NovikovChain | None = None):
    """Shifted complex, transported class, and the exact invariant relation.

    Builds the target complex whose generators are the renamed orbits with
    every action moved by i_omega, conjugates the boundary, and (when a
    representative is supplied) checks rho(shifted) = rho(original) + i_omega
    exactly.
    """
    if sorted(s.orbit_map) != sorted(C.orbits):
        raise StructuralError("orbit map does not cover the complex")
    if len(set(s.orbit_map.values())) != len(s.orbit_map):
        raise StructuralError("orbit map is not a bijection")
    gamma = C.gamma
    i_omega = Fraction(s.i_omega)
    kappa = {o: gamma.check_element(s.cap_shift.get(o, gamma.zero)) for o in C.orbits}
    orbits = [
        (s.orbit_map[o], base + i_omega + gamma.omega(kappa[o]),
         deg + s.degree_shift + 2 * gamma.c1(kappa[o]))
        for o, (base, deg) in sorted(C.orbits.items())
    ]
    # S sends orbit o to its image glued with kappa[o]; the boundary is conjugated
    S = {o: {s.orbit_map[o]: NovikovScalar.monomial(gamma, DOWN, 1, kappa[o])}
         for o in C.orbits}
    S_inv = {s.orbit_map[o]: {o: NovikovScalar.monomial(gamma, DOWN, 1, vec_neg(kappa[o]))}
             for o in C.orbits}
    boundary = compose_matrices(S, compose_matrices(C.boundary_entries, S_inv))
    shifted = FilteredComplex(gamma, orbits, boundary)

    def transport(chain: NovikovChain) -> NovikovChain:
        return shifted.chain(
            equivariant_image(S, chain.terms, shifted),
            None if chain.floor is None else chain.floor + i_omega,
        )

    report = None
    if representative is not None:
        before = spectral_invariant(C, representative)
        after = spectral_invariant(shifted, transport(representative))
        if before.rho == NEG_INF:
            exact = after.rho == NEG_INF
        else:
            exact = after.rho == before.rho + i_omega
        report = {
            "rho_before": before.rho,
            "rho_after": after.rho,
            "i_omega": i_omega,
            "exact": exact,
        }
    return shifted, transport, report


# the action window on which check_local_constancy compares the spectra
CONSTANCY_WINDOW = (-100, 100)


def check_local_constancy(complexes, representatives, step_bounds):
    """Constancy of the invariant along a family with fixed spectrum.

    `step_bounds[i]` bounds |rho(i+1) - rho(i)|; if every bound is smaller
    than the minimal spectral gap and all spectra agree, the invariant is
    forced constant, and this is checked exactly.  Equal invariants, -inf
    included, are a step of 0.
    """
    if not (len(complexes) == len(representatives) == len(step_bounds) + 1):
        raise StructuralError("family lengths are inconsistent")
    spectra = [action_spectrum(C, CONSTANCY_WINDOW) for C in complexes]
    same_spectrum = all(s == spectra[0] for s in spectra)
    points = spectra[0]
    gaps = [b - a for a, b in zip(points, points[1:])]
    min_gap = min(gaps) if gaps else None
    rhos = [
        spectral_invariant(C, rep).rho
        for C, rep in zip(complexes, representatives)
    ]
    steps_ok = all(
        (0 if r1 == r2 else abs(r2 - r1)) <= b
        for r1, r2, b in zip(rhos, rhos[1:], step_bounds)
    )
    forced = (
        same_spectrum
        and min_gap is not None
        and all(Fraction(b) < min_gap for b in step_bounds)
    )
    constant = all(r == rhos[0] for r in rhos)
    return {
        "same_spectrum": same_spectrum,
        "min_gap": min_gap,
        "steps_ok": steps_ok,
        "forced_constant": forced,
        "constant": constant,
        "rhos": rhos,
        "ok": (not forced) or constant,
    }
