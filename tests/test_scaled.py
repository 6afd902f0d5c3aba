"""Opt-in slow tier: three-way agreement past desk scale.

Run with `pytest -m slow`; the default run deselects it.  Engine, oracle
and the generator's ground truth must agree on every nonzero class of
`random_instance(seed, max_orbits=n)` for consecutive seeds from 5000, and
five off-spectrum membership probes per class must agree with the ground
truth.  The seeds and class counts are fixed.
"""

import random
from fractions import Fraction as F

import pytest

import novispec as nv
from novispec import NEG_INF
from novispec.fixtures import random_instance

FIRST_SEED = 5000
PROBES = 5


def _probe_levels(rng, C, rho):
    """PROBES off-spectrum levels: just above and below rho, then random."""
    near = [rho + F(1, 13), rho - F(1, 13)] if rho != NEG_INF else []
    out = []
    for lam in near + [F(rng.randint(-60, 60), 7) + F(1, 13) for _ in range(50)]:
        if len(out) < PROBES and lam not in out and not nv.spectrality_check(lam, C):
            out.append(lam)
    assert len(out) == PROBES
    return out


@pytest.mark.slow
@pytest.mark.parametrize("max_orbits, classes",
                         [(12, 40), (24, 16), (48, 40), (96, 10), (192, 10)])
def test_three_way_agreement_at_scale(max_orbits, classes):
    rng = random.Random(max_orbits)
    seed, checked = FIRST_SEED, 0
    while checked < classes:
        inst = random_instance(seed, max_orbits=max_orbits)
        seed += 1
        C, rep, expected = inst.complex, inst.representative, inst.expected_rho
        if rep.is_zero():
            continue
        rho = nv.spectral_invariant(C, rep).rho
        oracle = nv.oracle_rho(C, rep)
        assert rho == oracle == expected, (inst.seed, rho, oracle, expected)
        for lam in _probe_levels(rng, C, expected):
            member = nv.image_membership(C, rep, lam)
            assert member == (expected < lam), (inst.seed, lam, expected, member)
        checked += 1
