"""Shipped desk-scale fixtures and the seeded random instance generator.

Fixtures bundle a coefficient group, Morse data, a (co)homology basis with
PD chain and dual cochain representatives, and (where meaningful) a quantum
product table.  Everything is validated by the package's own invariants, not
taken on trust.

Random instances are valid by construction: a direct sum of matched pairs
(one boundary arrow each) and harmonic singletons, dressed by a filtered
unitriangular change of basis.  The invariant of any test class is known in
advance (the level of its singleton part), giving a ground truth independent
of both the engine and the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chains import (
    FilteredComplex,
    Generator,
    NovikovChain,
    compose_matrices,
    entry_shifts,
    equivariant_image,
)
from .errors import FixtureError
from .gamma import GammaGroup, vec_add
from .linalg import add_terms
from .morse import MorseData, build_small_complex
from .quantum import (
    COHOMOLOGY,
    ClassBasis,
    ProductFixture,
    QuantumClass,
)
from .scalars import DOWN, NEG_INF, NovikovScalar


@dataclass
class ManifoldFixture:
    name: str
    gamma: GammaGroup
    morse: MorseData
    basis: ClassBasis
    pd_chains: dict  # class id -> [(coeff, point id)]
    cochains: dict  # class id -> [(coeff, point id)]
    product: ProductFixture | None
    shipped_classes: list  # of QuantumClass (cohomology)
    max_eps: Fraction  # product ledger stays at slack 0 for eps below this

    def cls(self, name: str, label=None) -> QuantumClass:
        label = self.gamma.zero if label is None else label
        return QuantumClass(self.basis, self.gamma, COHOMOLOGY, [(1, name, label)])

    def build(self, eps) -> FilteredComplex:
        return build_small_complex(self.morse, eps, self.gamma)


def sphere() -> ManifoldFixture:
    """Two-point height model of the complex line with its quantum square."""
    gamma = GammaGroup((Fraction(1),), (2,))
    morse = MorseData(
        dim=2,
        points=[("top", 1, 2), ("bot", 0, 0)],
        boundary={},
        betti=[1, 0, 1],
    )
    basis = ClassBasis(1, [("one", 0), ("pt", 2)])
    pd_chains = {"one": [(1, "bot")], "pt": [(1, "top")]}
    cochains = dict(pd_chains)
    L = (1,)
    table = {
        ("one", "one"): QuantumClass(basis, gamma, COHOMOLOGY, [(1, "one", gamma.zero)]),
        ("one", "pt"): QuantumClass(basis, gamma, COHOMOLOGY, [(1, "pt", gamma.zero)]),
        ("pt", "pt"): QuantumClass(basis, gamma, COHOMOLOGY, [(1, "one", L)]),
    }
    product = ProductFixture(basis, gamma, "one", table)
    product.validate()
    shipped = [
        QuantumClass(basis, gamma, COHOMOLOGY, [(1, "one", gamma.zero)]),
        QuantumClass(basis, gamma, COHOMOLOGY, [(1, "pt", gamma.zero)]),
        QuantumClass(basis, gamma, COHOMOLOGY, [(1, "one", L)]),
        QuantumClass(basis, gamma, COHOMOLOGY, [(2, "pt", L)]),
    ]
    # pt*pt needs omega(L) >= 2 eps f(top) at slack 0
    return ManifoldFixture(
        "s2", gamma, morse, basis, pd_chains, cochains, product, shipped,
        max_eps=Fraction(1, 2),
    )


def projective_plane() -> ManifoldFixture:
    """Three-cell model of the complex projective plane."""
    gamma = GammaGroup((Fraction(1),), (3,))
    morse = MorseData(
        dim=4,
        points=[("p0", 0, 0), ("p2", Fraction(1, 3), 2), ("p4", 1, 4)],
        boundary={},
        betti=[1, 0, 1, 0, 1],
    )
    basis = ClassBasis(2, [("one", 0), ("h", 2), ("hh", 4)])
    pd_chains = {"one": [(1, "p0")], "h": [(1, "p2")], "hh": [(1, "p4")]}
    cochains = dict(pd_chains)
    L = (1,)
    mk = lambda *terms: QuantumClass(basis, gamma, COHOMOLOGY, list(terms))
    table = {
        ("one", "one"): mk((1, "one", gamma.zero)),
        ("one", "h"): mk((1, "h", gamma.zero)),
        ("one", "hh"): mk((1, "hh", gamma.zero)),
        ("h", "h"): mk((1, "hh", gamma.zero)),
        ("h", "hh"): mk((1, "one", L)),
        ("hh", "hh"): mk((1, "h", L)),
    }
    product = ProductFixture(basis, gamma, "one", table)
    product.validate()
    shipped = [
        mk((1, "one", gamma.zero)),
        mk((1, "h", gamma.zero)),
        mk((1, "hh", gamma.zero)),
        mk((1, "h", L)),
    ]
    # worst ledger constraint: h*hh -> one at L needs omega(L) >= eps*(f2 + f4)
    return ManifoldFixture(
        "cp2", gamma, morse, basis, pd_chains, cochains, product, shipped,
        max_eps=Fraction(1, 2),
    )


def torus() -> ManifoldFixture:
    """Four-cell flat model with trivial group and classical cup product."""
    gamma = GammaGroup((), ())
    morse = MorseData(
        dim=2,
        points=[("m", 0, 0), ("a", Fraction(1, 3), 1), ("b", Fraction(2, 3), 1), ("M", 1, 2)],
        boundary={},
        betti=[1, 2, 1],
    )
    basis = ClassBasis(1, [("one", 0), ("al", 1), ("be", 1), ("pt", 2)])
    pd_chains = {
        "one": [(1, "m")],
        "al": [(1, "a")],
        "be": [(1, "b")],
        "pt": [(1, "M")],
    }
    cochains = dict(pd_chains)
    mk = lambda *terms: QuantumClass(basis, gamma, COHOMOLOGY, list(terms))
    zero = mk()
    table = {
        ("one", "one"): mk((1, "one", ())),
        ("one", "al"): mk((1, "al", ())),
        ("one", "be"): mk((1, "be", ())),
        ("one", "pt"): mk((1, "pt", ())),
        ("al", "al"): zero,
        ("be", "be"): zero,
        ("al", "be"): mk((1, "pt", ())),
        ("be", "al"): mk((-1, "pt", ())),
        ("al", "pt"): zero,
        ("be", "pt"): zero,
        ("pt", "pt"): zero,
    }
    product = ProductFixture(basis, gamma, "one", table)
    # graded-commutativity in odd degrees breaks naive symmetric lookup, so
    # the torus table carries both orders explicitly; validate() only checks
    # unit/grading/associativity, which all hold.
    product.validate()
    shipped = [mk((1, "one", ())), mk((1, "al", ())), mk((1, "be", ())), mk((1, "pt", ()))]
    return ManifoldFixture(
        "torus", gamma, morse, basis, pd_chains, cochains, product, shipped,
        max_eps=Fraction(1),
    )


def tilted_sphere() -> ManifoldFixture:
    """Sphere with two bottoms and a saddle: nonzero Morse boundary."""
    gamma = GammaGroup((Fraction(1),), (2,))
    morse = MorseData(
        dim=2,
        points=[("M", 2, 2), ("s", 1, 1), ("m1", 0, 0), ("m2", Fraction(1, 4), 0)],
        boundary={"s": {"m1": 1, "m2": -1}},
        betti=[1, 0, 1],
    )
    basis = ClassBasis(1, [("one", 0), ("pt", 2)])
    pd_chains = {"one": [(1, "m1"), (1, "m2")], "pt": [(1, "M")]}
    cochains = {"one": [(Fraction(1, 2), "m1"), (Fraction(1, 2), "m2")], "pt": [(1, "M")]}
    shipped = [
        QuantumClass(basis, gamma, COHOMOLOGY, [(1, "one", gamma.zero)]),
        QuantumClass(basis, gamma, COHOMOLOGY, [(1, "pt", gamma.zero)]),
    ]
    return ManifoldFixture(
        "tilted", gamma, morse, basis, pd_chains, cochains, None, shipped,
        max_eps=Fraction(1, 4),
    )


def calibration() -> ManifoldFixture:
    """Rank-one group with vanishing Chern values: finite-gap classes."""
    gamma = GammaGroup((Fraction(1),), (0,))
    morse = MorseData(
        dim=2,
        points=[("top", 1, 2), ("bot", 0, 0)],
        boundary={},
        betti=[1, 0, 1],
    )
    basis = ClassBasis(1, [("one", 0), ("pt", 2)])
    pd_chains = {"one": [(1, "bot")], "pt": [(1, "top")]}
    cochains = dict(pd_chains)
    D = (1,)
    mk = lambda *terms: QuantumClass(basis, gamma, COHOMOLOGY, list(terms))
    shipped = [
        mk((1, "one", gamma.zero), (1, "one", D)),  # gap 1
        mk((1, "pt", gamma.zero), (2, "pt", (2,))),  # gap 2
        mk((1, "one", (-1,)), (1, "one", D)),  # gap 2, shifted up
    ]
    return ManifoldFixture(
        "czero", gamma, morse, basis, pd_chains, cochains, None, shipped,
        max_eps=Fraction(1, 4),
    )


BUILTIN_FIXTURES = {
    "s2": sphere,
    "cp2": projective_plane,
    "torus": torus,
    "tilted": tilted_sphere,
    "czero": calibration,
}


def load_builtin(name: str) -> ManifoldFixture:
    if name not in BUILTIN_FIXTURES:
        raise FixtureError(f"unknown builtin fixture {name!r}")
    return BUILTIN_FIXTURES[name]()


def transported_product(fix: ManifoldFixture, eps) -> tuple:
    """Chain-level product data on the built complexes of eps and 2*eps.

    Orbit pairs multiply by the quantum table rewritten through the PD
    correspondence class <-> critical point; the slack ledger stays at zero
    whenever eps <= fix.max_eps.
    """
    from .maps import ProductMapData

    eps = Fraction(eps)
    if fix.product is None:
        raise FixtureError(f"fixture {fix.name!r} ships no product")
    if eps > fix.max_eps:
        raise FixtureError(
            f"eps={eps} is outside the zero-slack regime of {fix.name!r}"
        )
    C1 = fix.build(eps)
    C3 = fix.build(2 * eps)
    point_of = {}
    for cname, chain in fix.pd_chains.items():
        if len(chain) != 1 or chain[0][0] != 1:
            raise FixtureError(
                "transported products need one critical point per class"
            )
        point_of[cname] = chain[0][1]
    class_of = {v: k for k, v in point_of.items()}
    table = {}
    names = sorted(fix.basis.classes)
    for i in names:
        for j in names:
            prod = fix.product.lookup(i, j)
            row = {}
            for (name, label), coeff in prod.terms.items():
                row.setdefault(point_of[name], []).append((label, coeff))
            table[(point_of[i], point_of[j])] = {
                o: NovikovScalar(fix.gamma, DOWN, add_terms({}, pairs))
                for o, pairs in row.items()
            }
    P = ProductMapData(C1, C1, C3, fix.morse.dim // 2, table)
    return C1, C3, P, class_of


# ---------------------------------------------------------------------------
# random valid instances with known ground truth


@dataclass
class RandomInstance:
    complex: FilteredComplex
    representative: NovikovChain
    expected_rho: object  # Fraction or -inf
    degree: int
    seed: int


def _random_gamma(rng: random.Random) -> GammaGroup:
    kind = rng.choice(["trivial", "rank1", "rank1-c0", "rank2"])
    if kind == "trivial":
        return GammaGroup((), ())
    if kind == "rank1":
        return GammaGroup((Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])),),
                          (rng.choice([1, 2, 3]),))
    if kind == "rank1-c0":
        return GammaGroup((Fraction(rng.choice([1, 2]), rng.choice([1, 2])),), (0,))
    return GammaGroup((Fraction(1), Fraction(3, 2)), (0, 1))


def _random_caps(rng, gamma, max_shift=3):
    """A small nonnegative-area cap, biased toward zero."""
    if gamma.rank == 0:
        return ()
    if rng.random() < 0.45:
        return gamma.zero
    if gamma.rank == 1:
        return (rng.randint(0, max_shift),)
    # rank 2 with omega = (1, 3/2): keep omega >= 0 in quanta of 1/2
    a = rng.randint(0, max_shift)
    b = rng.randint(0, max_shift - a if max_shift > a else 0)
    return (a, b)


def random_instance(seed: int, max_orbits: int = 6, gamma_window: int = 3) -> RandomInstance:
    """Seeded valid complex + cycle with a precomputed invariant.

    Undressed shape: matched pairs x_i -> y_i (one strictly action-dropping
    arrow each) and singleton cycles s_j in the class degree; the class is a
    combination of singletons and erasable targets.  A layered unitriangular
    filtered automorphism then hides the structure without moving any level.
    """
    rng = random.Random(seed)
    gamma = _random_gamma(rng)
    degree = rng.randint(-2, 2)
    n_pairs = rng.randint(1, max(1, max_orbits // 2 - 1))
    n_single = rng.randint(1, max_orbits - 2 * n_pairs) if max_orbits - 2 * n_pairs >= 1 else 0
    quantum = gamma.period_generator()
    step = quantum if quantum != 0 else Fraction(1, 2)

    def grid(lo, hi):
        span = int((hi - lo) / step)
        return lo + rng.randint(0, max(span, 1)) * step

    orbits = []
    boundary = {}
    singles = []
    pairs = []
    for i in range(n_single):
        name = f"s{i}"
        orbits.append((name, grid(Fraction(-2), Fraction(2)), degree))
        singles.append(name)
    for i in range(n_pairs):
        x, y = f"x{i}", f"y{i}"
        cap = _random_caps(rng, gamma, gamma_window)
        drop = step * rng.randint(0, 2) + Fraction(1, 7)  # strictly positive
        y_action = grid(Fraction(-2), Fraction(2))
        x_action = y_action - gamma.omega(cap) + drop
        y_degree = degree + 2 * (rng.randint(-1, 1))
        # entry x -> y at `cap` needs deg(y) - 2*c1(cap) == deg(x) - 1
        x_degree = y_degree - 2 * gamma.c1(cap) + 1
        orbits.append((x, x_action, x_degree))
        orbits.append((y, y_action, y_degree))
        coeff = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
        boundary[x] = {y: NovikovScalar.monomial(gamma, DOWN, coeff, cap)}
        pairs.append((x, y, cap, coeff))
    C = FilteredComplex(gamma, orbits, boundary)

    rep_terms = []
    expected = NEG_INF
    for name in singles:
        if rng.random() < 0.7:
            c = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
            cap = _random_caps(rng, gamma, gamma_window)
            g = C.generator(name, cap)
            if g.degree != degree:
                continue
            rep_terms.append((g, c))
            expected = max(expected, g.action)
    for x, y, cap, coeff in pairs:
        if rng.random() < 0.6:
            shift = _random_caps(rng, gamma, gamma_window)
            g = C.generator(y, vec_add(cap, shift))
            if g.degree != degree:
                continue
            rep_terms.append((g, Fraction(rng.choice([1, -1, 2]), 1)))
    rep = C.chain(rep_terms)
    if rep.is_zero() or rep.degree != degree:
        rep = C.chain()
        expected = NEG_INF

    C, rep = _dress(rng, C, rep, gamma_window)
    return RandomInstance(C, rep, expected, degree, seed)


def random_scalar(rng: random.Random, gamma: GammaGroup, direction):
    """Exact random scalar: at most 4 terms, exponent coordinates in [-3, 3]."""
    terms = add_terms({}, (
        (tuple(rng.randint(-3, 3) for _ in range(gamma.rank)),
         Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
        for _ in range(rng.randint(0, 4))
    ))
    return NovikovScalar(gamma, direction, terms)


@dataclass
class ContinuityPair:
    """Two complexes, identity-shaped certified maps, sampled Hamiltonians,
    and one class carried on both sides."""

    source: FilteredComplex
    target: FilteredComplex
    forward: object  # ChainMap
    backward: object
    ham_source: object  # HamiltonianData
    ham_target: object
    rep_source: NovikovChain
    rep_target: NovikovChain
    constant_shift: bool


def random_continuity_pair(seed: int, constant_shift: bool = False) -> ContinuityPair:
    """Seeded valid pair for the two-sided level bound.

    The target complex moves each orbit by a per-orbit amount inside the
    sampled sandwich, small enough that the shared boundary matrix stays
    level-nonincreasing; both identity maps then certify with exactly the
    quadrature bounds.  With `constant_shift` the move is one constant and
    both bounds are tight.
    """
    from .maps import ChainMap, HamiltonianData

    rng = random.Random(("continuity", seed).__repr__())
    inst = random_instance(seed)
    C = inst.complex
    rep = inst.representative
    if inst.expected_rho == NEG_INF:
        # boundary or empty class: fall back to a singleton cycle, which the
        # instance generator always creates
        rep = C.chain({C.generator(sorted(C.orbits)[0]): 1})
        if not C.boundary(rep).is_zero():
            rep = C.chain()
    shifts = entry_shifts(C.boundary_entries, C, C)
    min_slack = min((-shift for _, _, _, shift, _ in shifts), default=Fraction(1))
    unit = min(Fraction(min_slack) / 4, Fraction(1, 4))
    if constant_shift:
        s = unit * rng.randint(-3, 3)
        deltas = {o: s for o in C.orbits}
        lo = hi = s
    else:
        deltas = {o: unit * rng.randint(-2, 2) for o in sorted(C.orbits)}
        lo = min(deltas.values())
        hi = max(deltas.values())
        if lo == hi:
            hi = lo + unit
    target = FilteredComplex(
        C.gamma,
        [(o, a + deltas[o], d) for o, (a, d) in sorted(C.orbits.items())],
        C.boundary_entries,
    )
    # sandwich data: one point per extreme, one time sample
    weights = {"lowpt": Fraction(1), "highpt": Fraction(1)}
    ham_source = HamiltonianData([0], weights, [{"lowpt": 0, "highpt": 0}])
    ham_target = HamiltonianData([0], weights, [{"lowpt": -hi, "highpt": -lo}])
    one = NovikovScalar.one(C.gamma, DOWN)
    forward = ChainMap(C, target, {o: {o: one} for o in C.orbits}, hi)
    backward = ChainMap(target, C, {o: {o: one} for o in C.orbits}, -lo)
    rep_target = target.chain(
        {target.generator(g.orbit, g.cap): c for g, c in rep.terms.items()}, rep.floor
    )
    return ContinuityPair(
        C, target, forward, backward, ham_source, ham_target, rep, rep_target,
        constant_shift,
    )


def random_monodromy(seed: int):
    """Seeded loop shift on a seeded complex; every third one is a pure deck."""
    from .maps import MonodromyShift

    rng = random.Random(("monodromy", seed).__repr__())
    inst = random_instance(seed)
    C, rep = inst.complex, inst.representative
    if rep.is_zero():
        rep = C.chain({C.generator(sorted(C.orbits)[0]): 1})
        if not C.boundary(rep).is_zero():
            rep = None
    gamma = C.gamma
    names = sorted(C.orbits)
    if seed % 3 == 0 and gamma.rank > 0:
        cap = _random_caps(rng, gamma) or gamma.zero
        shift = MonodromyShift(
            {o: o for o in names},
            {o: cap for o in names},
            -gamma.omega(cap),
            -2 * gamma.c1(cap),
        )
        return C, rep, shift, True
    perm = list(names)
    rng.shuffle(perm)
    caps = {o: _random_caps(rng, gamma) for o in names}
    quantum = gamma.period_generator()
    step = quantum if quantum != 0 else Fraction(1, 3)
    i_omega = step * rng.randint(-4, 4) + Fraction(rng.randint(-2, 2), 7)
    shift = MonodromyShift(
        dict(zip(names, perm)), caps, i_omega, 2 * rng.randint(-2, 2)
    )
    return C, rep, shift, False


def curated_functionals(C: FilteredComplex):
    """10 continuous and 10 divergent functionals on a rank-one complex."""
    from .dual import DualFunctional, Ray

    if C.gamma.rank != 1:
        raise FixtureError("curated functionals expect a rank-one group")
    orbits = sorted(C.orbits)
    o1 = orbits[0]
    o2 = orbits[-1]
    continuous = [
        DualFunctional(C, {C.generator(o1): Fraction(1)}, []),
        DualFunctional(C, {C.generator(o2, (1,)): Fraction(-2)}, []),
        DualFunctional(C, {C.generator(o1, (2,)): Fraction(1, 3)}, []),
        DualFunctional(
            C,
            {C.generator(o1): Fraction(1), C.generator(o2, (1,)): Fraction(2)},
            [],
        ),
        DualFunctional(
            C,
            {C.generator(o1, (-1,)): Fraction(5), C.generator(o1, (3,)): Fraction(-1)},
            [],
        ),
        DualFunctional(C, {}, [Ray(o1, (0,), (-1,), Fraction(1))]),
        DualFunctional(C, {}, [Ray(o2, (2,), (-2,), Fraction(3, 2))]),
        DualFunctional(C, {}, [Ray(o1, (1,), (0,), Fraction(2))]),
        DualFunctional(C, {}, [Ray(o2, (-1,), (0,), Fraction(-1))]),
        DualFunctional(
            C,
            {C.generator(o2): Fraction(1)},
            [Ray(o1, (0,), (-1,), Fraction(4))],
        ),
    ]
    divergent = [
        DualFunctional(C, {}, [Ray(o1, (0,), (1,), Fraction(1))]),
        DualFunctional(C, {}, [Ray(o1, (0,), (2,), Fraction(-2))]),
        DualFunctional(C, {}, [Ray(o2, (-3,), (1,), Fraction(1, 2))]),
        DualFunctional(C, {}, [Ray(o2, (5,), (3,), Fraction(7))]),
        DualFunctional(C, {}, [Ray(o1, (2,), (1,), Fraction(-1, 3))]),
        DualFunctional(
            C,
            {C.generator(o1): Fraction(1)},
            [Ray(o2, (0,), (1,), Fraction(2))],
        ),
        DualFunctional(C, {}, [Ray(o1, (-2,), (2,), Fraction(5))]),
        DualFunctional(C, {}, [Ray(o2, (1,), (1,), Fraction(1))]),
        DualFunctional(
            C,
            {},
            [Ray(o1, (0,), (-1,), Fraction(1)), Ray(o1, (0,), (1,), Fraction(1))],
        ),
        DualFunctional(C, {}, [Ray(o2, (-1,), (4,), Fraction(-4))]),
    ]
    return continuous, divergent


def random_chain(rng: random.Random, C: FilteredComplex, degree):
    """Random chain of 1 to 4 terms in one degree (not necessarily a cycle);
    the candidate generators are built once per (complex, degree)."""
    candidates = _chain_candidates(C, degree)
    if not candidates:
        return C.chain()
    return C.chain([
        (rng.choice(candidates), Fraction(rng.randint(-5, 5), rng.choice([1, 2])))
        for _ in range(rng.randint(1, 4))
    ])


@lru_cache(maxsize=4)
def _chain_candidates(C: FilteredComplex, degree) -> tuple:
    """`random_chain`'s candidates in `degree`; the last few are cached."""
    candidates = []
    quantum = C.gamma.period_generator()
    for orbit in sorted(C.orbits):
        base_deg = C.base_degree(orbit)
        if (base_deg - degree) % 2 != 0:
            continue
        c = (base_deg - degree) // 2
        # the omega-0 cap, then the caps of omega m * quantum, |m| <= 2
        caps = C.gamma.caps(c, 0, quantum or 1)
        caps += C.gamma.caps(c, -2 * quantum, 3 * quantum)
        base = C.base_action(orbit)
        candidates.extend(Generator(orbit, cap, base - w, degree) for cap, w in caps)
    return tuple(candidates)


def _dress(rng, C: FilteredComplex, rep: NovikovChain, gamma_window):
    """Conjugate by a layered strictly-filtered unitriangular automorphism.

    P = 1 + N with N mapping layer-one orbits to strictly lower-action
    same-degree layer-two orbits, so P and its inverse both preserve levels
    and the conjugated boundary stays valid.
    """
    gamma = C.gamma
    names = sorted(C.orbits)
    rng.shuffle(names)
    half = len(names) // 2
    layer1, layer2 = set(names[:half]), set(names[half:])
    N = {}
    for src in sorted(layer1):
        sa, sd = C.orbits[src]
        for dst in sorted(layer2):
            da, dd = C.orbits[dst]
            if rng.random() > 0.5:
                continue
            cap = _random_caps(rng, gamma, gamma_window)
            # need degree match dd - 2c1(cap) == sd and strict action drop
            if dd - 2 * gamma.c1(cap) != sd:
                continue
            if da - gamma.omega(cap) >= sa:
                continue
            coeff = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2]))
            N.setdefault(src, {})[dst] = NovikovScalar.monomial(gamma, DOWN, coeff, cap)

    one = NovikovScalar.one(gamma, DOWN)
    P = {o: {o: one, **N.get(o, {})} for o in C.orbits}
    P_inv = {o: {o: one, **{d: -s for d, s in N.get(o, {}).items()}} for o in C.orbits}
    boundary = compose_matrices(P, compose_matrices(C.boundary_entries, P_inv))
    dressed = FilteredComplex(gamma, [(o,) + C.orbits[o] for o in sorted(C.orbits)], boundary)
    new_rep = dressed.chain(
        {dressed.generator(g.orbit, g.cap): c
         for g, c in equivariant_image(P, rep.terms, C).items()},
        rep.floor,
    )
    return dressed, new_rep
