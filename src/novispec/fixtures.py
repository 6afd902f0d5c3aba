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

The seeded generators (`random_instance`, `random_chain`, `random_scalar`,
`random_continuity_pair`, `random_monodromy`) are defined by their draws:
the same public `random.Random` calls, with the same arguments, in the same
order, and the same values built from them.  Tests pin both.  Around the
draws a generator does little else: it works in integer action keys and
trusts the parts it builds from checked ones.  An instance's undressed
shape is plain keys and (orbit, cap) terms, never a complex; only the
dressed complex goes through the public `FilteredComplex` constructor.
Boundary and coefficient scalars are built with `NovikovScalar._checked`
(labels are integer caps of the group's rank, coefficients nonzero
`Fraction`s), and chains with `NovikovChain._ordered` over generators from
`FilteredComplex.generator` or the candidate lists, which already have one
degree and no floor; a generator is its key, so sorting the terms puts
them in chain order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .chains import FilteredComplex, Generator, NovikovChain
from .dual import DualFunctional, Ray
from .errors import FixtureError
from .gamma import GammaGroup, vec_add
from .linalg import add_terms
from .maps import ChainMap, HamiltonianData, MonodromyShift, ProductMapData
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


_VALIDATED_TABLES = set()  # builtins whose fixed product table passed `validate` here


def _validated(name: str, product: ProductFixture) -> ProductFixture:
    """`product`, the fixed table of builtin `name`, validated on its first
    build in this process; a table whose validation raised is validated
    again on its next build."""
    if name not in _VALIDATED_TABLES:
        product.validate()
        _VALIDATED_TABLES.add(name)
    return product


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
    product = _validated("s2", ProductFixture(basis, gamma, "one", table))
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
    product = _validated("cp2", ProductFixture(basis, gamma, "one", table))
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
    # graded-commutativity in odd degrees breaks naive symmetric lookup, so
    # the torus table carries both orders explicitly; validate() only checks
    # unit/grading/associativity, which all hold.
    product = _validated("torus", ProductFixture(basis, gamma, "one", table))
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


# n/d for the coefficient draws of the generators
_FRACTIONS = {(n, d): Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)}
_ONE = _FRACTIONS[1, 1]


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
    rank = gamma.rank
    if rank == 0:
        return ()
    if rng.random() < 0.45:
        return (0,) * rank
    if rank == 1:
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

    The undressed shape is never a complex: its actions are integer keys
    over `denom` (the grid step, omega and the 1/7 of each drop share it),
    its boundary and representative are (orbit, cap) terms, and only the
    dressed complex is built.
    """
    rng = random.Random(seed)
    gamma = _random_gamma(rng)
    degree = rng.randint(-2, 2)
    n_pairs = rng.randint(1, max(1, max_orbits // 2 - 1))
    n_single = rng.randint(1, max_orbits - 2 * n_pairs) if max_orbits - 2 * n_pairs >= 1 else 0
    quantum = gamma.period_generator()
    step = quantum if quantum != 0 else Fraction(1, 2)
    units, omega_denom = gamma.omega_units()
    denom = lcm(omega_denom, step.denominator, 7)
    omega = tuple(u * (denom // omega_denom) for u in units)
    c1 = gamma.c1_values
    step_key = step.numerator * (denom // step.denominator)
    span = max(4 * step.denominator // step.numerator, 1)  # steps in [-2, 2]

    def grid():
        return rng.randint(0, span) * step_key - 2 * denom

    orbits = {}  # {orbit: (action key, degree)}
    boundary = {}  # {x: [(y, cap, coeff)]}
    pairs = []
    for i in range(n_single):
        orbits[f"s{i}"] = (grid(), degree)
    for i in range(n_pairs):
        x, y = f"x{i}", f"y{i}"
        cap = _random_caps(rng, gamma, gamma_window)
        drop = step_key * rng.randint(0, 2) + denom // 7  # strictly positive
        y_key = grid()
        y_degree = degree + 2 * (rng.randint(-1, 1))
        # entry x -> y at `cap` needs deg(y) - 2*c1(cap) == deg(x) - 1
        orbits[x] = (y_key - sum(map(mul, omega, cap)) + drop,
                     y_degree - 2 * sum(map(mul, c1, cap)) + 1)
        orbits[y] = (y_key, y_degree)
        coeff = _FRACTIONS[rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2])]
        boundary[x] = [(y, cap, coeff)]
        pairs.append((y, cap))

    rep = {}  # {(orbit, cap): coeff}, one term per orbit
    expected = None  # the highest singleton term's action key
    for i in range(n_single):
        if rng.random() < 0.7:
            c = _FRACTIONS[rng.choice([1, -1, 2, 3]), rng.choice([1, 2])]
            cap = _random_caps(rng, gamma, gamma_window)
            if sum(map(mul, c1, cap)):
                continue
            rep[f"s{i}", cap] = c
            key = orbits[f"s{i}"][0] - sum(map(mul, omega, cap))
            expected = key if expected is None else max(expected, key)
    for y, cap in pairs:
        if rng.random() < 0.6:
            cap = vec_add(cap, _random_caps(rng, gamma, gamma_window))
            if orbits[y][1] - 2 * sum(map(mul, c1, cap)) != degree:
                continue
            rep[y, cap] = _FRACTIONS[rng.choice([1, -1, 2]), 1]

    N = _random_dressing(rng, gamma, omega, orbits, gamma_window)
    C = FilteredComplex(
        gamma,
        [(o, Fraction(key, denom), d) for o, (key, d) in sorted(orbits.items())],
        _conjugated(gamma, orbits, boundary, N),
    )
    terms = add_terms(dict(rep), _pushed(N, rep.items()))  # P(rep)
    rep = NovikovChain._ordered(
        C, dict(sorted((C.generator(o, cap), c) for (o, cap), c in terms.items())),
        None, degree,
    )
    expected = NEG_INF if expected is None else Fraction(expected, denom)
    return RandomInstance(C, rep, expected, degree, seed)


def random_scalar(rng: random.Random, gamma: GammaGroup, direction):
    """Exact random scalar: at most 4 terms, exponent coordinates in [-3, 3]."""
    terms = add_terms({}, (
        (tuple(rng.randint(-3, 3) for _ in range(gamma.rank)),
         _FRACTIONS[rng.randint(-6, 6), rng.choice([1, 2, 3])])
        for _ in range(rng.randint(0, 4))
    ))
    # integer labels of the group's rank and nonzero coefficients
    return NovikovScalar._checked(gamma, direction, terms)


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
    rng = random.Random(("continuity", seed).__repr__())
    inst = random_instance(seed)
    C = inst.complex
    rep = inst.representative
    if inst.expected_rho == NEG_INF:
        # boundary or empty class: fall back to a singleton cycle, which the
        # instance generator always creates
        rep = C.chain({C.generator(sorted(C.orbits)[0]): 1})
        if not C.is_cycle(rep):
            rep = C.chain()
    # the smallest action drop of a boundary term, read in integer keys
    drop = C.boundary_check.least
    min_slack = Fraction(1) if drop is None else Fraction(drop, C.action_keys.denom)
    unit = min(min_slack / 4, Fraction(1, 4))
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
    # the same terms, none at or below a floor (an instance's representative
    # has none), in the order of the moved actions
    rep_target = NovikovChain._ordered(
        target,
        dict(sorted((target.generator(g.orbit, g.cap), c) for g, c in rep.terms.items())),
        None, rep.degree,
    )
    return ContinuityPair(
        C, target, forward, backward, ham_source, ham_target, rep, rep_target,
        constant_shift,
    )


def random_monodromy(seed: int):
    """Seeded loop shift on a seeded complex; every third one is a pure deck."""
    rng = random.Random(("monodromy", seed).__repr__())
    inst = random_instance(seed)
    C, rep = inst.complex, inst.representative
    if rep.is_zero():
        rep = C.chain({C.generator(sorted(C.orbits)[0]): 1})
        if not C.is_cycle(rep):
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
    terms = add_terms({}, (
        (rng.choice(candidates), _FRACTIONS[rng.randint(-5, 5), rng.choice([1, 2])])
        for _ in range(rng.randint(1, 4))
    ))
    return NovikovChain._ordered(C, dict(sorted(terms.items())), None, degree)


@lru_cache(maxsize=4)
def _chain_candidates(C: FilteredComplex, degree) -> tuple:
    """`random_chain`'s candidates in `degree`; the last few are cached.

    Per orbit with a cap line in `degree` the list holds the omega-0 cap,
    then the caps of omega m * quantum for |m| <= 2, each run read off
    `ActionKeys.cap_run` in omega ascending, so a nontrivial group lists
    its omega-0 caps twice (on `czero` in degree 1: 6 candidates, 5
    distinct) and `random_chain` draws them twice as often as the others.
    That bias stays: the demo report's bytes depend on these draws.
    """
    runs = []
    keys = C.action_keys
    for rank, (orbit, base) in enumerate(keys.base.items()):  # in name order
        base_deg = C.base_degree(orbit)
        if (base_deg - degree) % 2 != 0:
            continue
        c = (base_deg - degree) // 2
        # omega keys in [w_lo, w_hi) are action keys in (base - w_hi, base - w_lo]
        for w_lo, w_hi in ((0, keys.period or keys.denom), (-2 * keys.period, 3 * keys.period)):
            ids = keys.cap_run(rank, orbit, c, base - w_hi, base - w_lo)
            if ids:
                runs.append((orbit, c, ids))
    return tuple(Generator(*key, keys.denom) for key in keys.run_keys(runs, degree))


def _random_dressing(rng, gamma, omega, orbits, gamma_window) -> dict:
    """N of the dressing P = 1 + N, as rows {src: [(dst, cap, coeff)]}.

    N maps layer-one orbits to strictly lower-action same-degree layer-two
    orbits, so N∘N = 0, P^-1 = 1 - N, and P and its inverse both preserve
    levels: the conjugated boundary stays valid.  `orbits` gives each
    orbit's (action key, degree), with `omega` the group's omega keys.
    """
    c1 = gamma.c1_values
    names = sorted(orbits)
    rng.shuffle(names)
    half = len(names) // 2
    layer2 = sorted(names[half:])
    N = {}
    for src in sorted(names[:half]):
        s_key, s_degree = orbits[src]
        for dst in layer2:
            if rng.random() > 0.5:
                continue
            cap = _random_caps(rng, gamma, gamma_window)
            d_key, d_degree = orbits[dst]
            # need degree match deg(dst) - 2c1(cap) == deg(src) and strict action drop
            if d_degree - 2 * sum(map(mul, c1, cap)) != s_degree:
                continue
            if d_key - sum(map(mul, omega, cap)) >= s_key:
                continue
            coeff = _FRACTIONS[rng.choice([1, -1, 2]), rng.choice([1, 2])]
            N.setdefault(src, []).append((dst, cap, coeff))
    return N


def _pushed(rows, terms):
    """(orbit, cap) terms pushed through rows {orbit: [(dst, label, coeff)]}:
    each lands on (dst, cap + label), not yet summed."""
    return (
        ((dst, vec_add(cap, label)), k * c)
        for (orbit, cap), c in terms
        for dst, label, k in rows.get(orbit, ())
    )


def _conjugated(gamma, orbits, boundary, N) -> dict:
    """The boundary matrix of P∘d∘P^-1, P = 1 + N, for d given as rows.

    Per base generator s: P^-1 s = s - N s, then d, then P, summed by
    (orbit, cap) with cancelled terms dropped."""
    zero = gamma.zero
    out = {}
    for src in orbits:
        if src not in boundary and src not in N:
            continue  # d(P^-1 src) = d(src) = 0
        inverse = [((src, zero), _ONE)]
        inverse += (((dst, cap), -k) for dst, cap, k in N.get(src, ()))
        image = add_terms({}, _pushed(boundary, inverse))
        row = out[src] = {}
        for (dst, label), c in add_terms(dict(image), _pushed(N, image.items())).items():
            row.setdefault(dst, {})[label] = c
    return {src: {dst: NovikovScalar._checked(gamma, DOWN, terms) for dst, terms in row.items()}
            for src, row in out.items()}
