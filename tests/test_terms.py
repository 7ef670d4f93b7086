"""compose_components against a reference that canonicalizes every tower level."""

import random
from fractions import Fraction
from math import prod

import pytest

from ncresidue import terms as T
from ncresidue.dsl import random_symbol
from ncresidue.nctorus import Theta


def reference_compose(system, n, comps_a, comps_b, keep, kmax=None):
    """sum_gamma (1/gamma!) (d_xi^gamma a)(D^gamma b), each derivative level canonical.

    ``keep(d, k)`` selects the emitted degree d at derivative order k; with
    ``kmax=None`` the tower runs until it vanishes.
    """
    out = {}
    for a_deg, a_terms in comps_a.items():
        level, k = {(0,) * n: a_terms}, 0
        while level and (kmax is None or k <= kmax):
            for gamma, left in level.items():
                fact = T.gamma_factorial(gamma)
                for b_deg, b_terms in comps_b.items():
                    if not keep(a_deg + b_deg - k, k):
                        continue
                    right = {key: system.times_fraction(s, Fraction(w, fact))
                             for key, s in b_terms.items()
                             if (w := prod(m**g for m, g in zip(key[0], gamma)))}
                    T.mul_terms(system, left, right, out.setdefault(a_deg + b_deg - k, {}))
            nxt = {}
            for gamma, t in level.items():
                for j in range(n):
                    raw = T.partial_xi_terms(system, t, j)
                    d = T.canonical_terms(system, n, a_deg - k - 1, raw)
                    if d:
                        nxt[gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]] = d
            level, k = nxt, k + 1
    result = {d: T.canonical_terms(system, n, d, raw) for d, raw in out.items()}
    return {d: ct for d, ct in result.items() if ct}


def _classical_pair(rng, n):
    m1, m2 = rng.randint(-1, 2), rng.randint(-1, 2)
    a, b = (random_symbol(rng.getrandbits(32), dim=n, order=m, depth=m1 + n + m2,
                          max_mode=2, max_alpha=3) for m in (m1, m2))
    return ({d: c.raw_terms() for d, c in a.components.items()},
            {d: c.raw_terms() for d, c in b.components.items()}, a, b)


def _floor(a, b):
    return max(a.trusted_floor + b.order, a.order + b.trusted_floor)


@pytest.mark.parametrize("n", [2, 3])
def test_raw_tower_matches_per_level_canonical_reference(n):
    rng = random.Random(100 + n)
    system = T.RATIONAL_SYSTEM
    for _ in range(6):
        ca, cb, a, b = _classical_pair(rng, n)
        floor = _floor(a, b)
        kmax = max(x + y for x in ca for y in cb) - floor
        got = T.compose_components(system, n, ca, cb, floor)
        assert got == reference_compose(system, n, ca, cb, lambda d, k: d >= floor, kmax)
        got = T.compose_components(system, n, ca, cb, floor, degrees={-n})
        assert got == reference_compose(system, n, ca, cb, lambda d, k: d == -n, kmax)
        got = T.compose_components(system, n, ca, cb, None, gamma_cap=2)
        assert got == reference_compose(system, n, ca, cb, lambda d, k: True, 2)


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12)])
def test_raw_tower_matches_reference_twisted(theta):
    th = Theta.from_rational(theta)
    system = T.CyclotomicSystem(theta.numerator, theta.denominator)
    rng = random.Random(7)
    for _ in range(6):
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        a, b = (random_symbol(rng.getrandbits(32), dim=2, order=m, depth=m1 + 2 + m2,
                              max_mode=2, max_alpha=2, theta=th) for m in (m1, m2))
        floor = _floor(a, b)
        ca, cb = a._components, b._components
        kmax = max(x + y for x in ca for y in cb) - floor
        got = T.compose_components(system, 2, ca, cb, floor)
        assert got == reference_compose(system, 2, ca, cb, lambda d, k: d >= floor, kmax)


def test_raw_tower_terminates_for_complete_polynomial_left_factor():
    system = T.RATIONAL_SYSTEM
    one = system.from_fraction(1)
    # xi1^3 + 2 e(1,0) xi1 |xi|^2 - xi2^2 + e(0,1): a polynomial with x-dependence
    ca = {
        3: {((0, 0), (3, 0), 0): one,
            ((1, 0), (1, 0), 2): system.from_fraction(Fraction(2))},
        2: {((0, 0), (0, 2), 0): system.from_fraction(Fraction(-1))},
        0: {((0, 1), (0, 0), 0): one},
    }
    _ca, cb, _a, _b = _classical_pair(random.Random(5), 2)
    got = T.compose_components(system, 2, ca, cb, None)
    assert got
    assert got == reference_compose(system, 2, ca, cb, lambda d, k: True)
