"""compose_components against a reference that canonicalizes every tower level."""

import random
from fractions import Fraction
from math import prod

import pytest

from ncresidue import terms as T
from ncresidue.calculus import _residue_of_composition
from ncresidue.dsl import random_symbol
from ncresidue.nctorus import NCSymbol, Theta, _nc_residue_of_composition
from ncresidue.scalars import (
    ComplexRational,
    GaussianInteger,
    PiGradedScalar,
    sphere_monomial_integral,
    torus_volume,
)
from ncresidue.symbols import ClassicalSymbol, HomogeneousComponent


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
                    raw = T.partial_xi_terms(t, j)
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


# -- the residue of a composition without composing ------------------------------


def _reflect(rng, left_bags, right_bags):
    """Blocks of the right factor, about half its terms moved onto (-mode, alpha)
    of a left term, so many products land on mode zero with even exponents."""
    spots = sorted({(m, a) for bag in left_bags.values() for (m, a, _p) in bag})
    blocks = {}
    for deg, bag in sorted(right_bags.items()):
        terms = []
        for (mode, alpha, _p), s in sorted(bag.items()):
            if rng.random() < 0.5:
                mode, alpha = rng.choice(spots)
                mode = tuple(-x for x in mode)
            terms.append((s, mode, alpha, deg - sum(alpha)))
        blocks[deg] = terms
    return blocks


def _classical_residue_pairs(n, count, seed):
    rng = random.Random(seed)
    for i in range(count):
        m1, m2 = rng.randint(-1, 2), rng.randint(-1, 2)
        # mode 0 on the left now and then; an x-independent right factor now and then
        left_mode, right_mode = (0, 1) if i % 5 == 1 else (1, 0) if i % 5 == 2 else (1, 1)
        a, b = (random_symbol(rng.getrandbits(32), dim=n, order=m, depth=m1 + n + m2,
                              max_mode=mm, max_alpha=3)
                for m, mm in ((m1, left_mode), (m2, right_mode)))
        ca = {d: c.raw_terms() for d, c in a.components.items()}
        if i % 5 != 2:
            blocks = _reflect(rng, ca, {d: c.raw_terms() for d, c in b.components.items()})
            comps = {d: HomogeneousComponent(n, d, t) for d, t in blocks.items()}
            b = ClassicalSymbol(n, m2, {d: c for d, c in comps.items() if not c.is_zero()},
                                b.trusted_floor)
        yield a, b


def _twisted_residue_pairs(theta, count, seed):
    th = Theta.from_rational(theta)
    rng = random.Random(seed)
    for i in range(count):
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        a, b = (random_symbol(rng.getrandbits(32), dim=2, order=m, depth=m1 + 2 + m2,
                              max_mode=2 if i % 4 else 0, max_alpha=2, theta=th)
                for m in (m1, m2))
        if i % 4:
            b = NCSymbol(th, m2, _reflect(rng, a._term_bags(), b._term_bags()),
                         b.trusted_floor)
        yield a, b


def _reference_sphere_part(system, n, a, b):
    """Mode zero of the degree -n component of a o b, composed and canonical."""
    comps = T.compose_components(system, n, a._term_bags(), b._term_bags(), _floor(a, b),
                                 degrees={-n})
    return {key: s for key, s in comps.get(-n, {}).items() if not any(key[0])}


def _reference_residue(system, n, a, b):
    total = system.zero
    for (_m, alpha, _p), s in _reference_sphere_part(system, n, a, b).items():
        total = total + system.times_fraction(s, sphere_monomial_integral(alpha, n).coeff.re)
    return PiGradedScalar(total, n // 2) if total else PiGradedScalar(0)


def _assert_pairing_matches_reference(system, n, a, b):
    bag = T.residue_pairing(system, n, a._term_bags(), b._term_bags())
    assert all(x % 2 == 0 for alpha in bag for x in alpha)
    # the raw bag, read back at degree -n, is the even part of the composed one
    raw = {((0,) * n, alpha, -n - sum(alpha)): s for alpha, s in bag.items()}
    even = {key: s for key, s in _reference_sphere_part(system, n, a, b).items()
            if not any(x % 2 for x in key[1])}
    assert T.canonical_terms(system, n, -n, raw) == T.canonical_terms(system, n, -n, even)


@pytest.mark.parametrize("n", [2, 3])
def test_residue_pairing_matches_composed_reference(n):
    system = T.RATIONAL_SYSTEM
    nonzero = 0
    for a, b in _classical_residue_pairs(n, 15, 300 + n):
        for s, t in ((a, b), (b, a)):
            _assert_pairing_matches_reference(system, n, s, t)
            got = _residue_of_composition(s, t)
            assert got == torus_volume(n) * _reference_residue(system, n, s, t)
            nonzero += not got.is_zero()
    assert nonzero >= 15


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12), Fraction(0), Fraction(1, 2)])
def test_residue_pairing_matches_composed_reference_twisted(theta):
    nonzero = 0
    for a, b in _twisted_residue_pairs(theta, 16, 77):
        system = a._system
        for s, t in ((a, b), (b, a)):
            _assert_pairing_matches_reference(system, 2, s, t)
            got = _nc_residue_of_composition(s, t)
            assert got == _reference_residue(system, 2, s, t)
            nonzero += not got.is_zero()
    assert nonzero >= 12


# -- the Gaussian-integer numerator kernel ------------------------------------------


class _Unlifted(T.RationalSystem):
    """The complex-rational system run as it is: every engine op on ComplexRational."""

    def lift(self, comps, scale=1):
        return self, comps, 1

    @staticmethod
    def lower(s, den):
        return s


def _large_primes(count, start=10**6):
    out, p = [], start
    while len(out) < count:
        p += 1
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            out.append(p)
    return out


_PRIMES = _large_primes(24)


def _coprime_bags(rng, symbol_bags):
    """The bags with every coefficient divided by a large prime, a different one
    per component, so the lift's common denominator is a product of them."""
    primes = rng.sample(_PRIMES, len(symbol_bags))
    return {d: {key: s * Fraction(rng.choice([1, -3, 7]), p) for key, s in bag.items()}
            for (d, bag), p in zip(symbol_bags.items(), primes)}


def _polynomial_bags(rng, n, top):
    """A complete polynomial symbol: |xi| powers even and nonnegative, modes mixed."""
    comps = {}
    for deg in range(top, -1, -1):
        bag = {}
        for _ in range(3):
            p = 2 * rng.randint(0, deg // 2)
            alpha = [0] * n
            for _ in range(deg - p):
                alpha[rng.randrange(n)] += 1
            mode = tuple(rng.randint(-1, 1) for _ in range(n))
            T.bag_add(bag, (mode, tuple(alpha), p), T.RATIONAL_SYSTEM.from_fraction(1))
        comps[deg] = bag
    return comps


def _assert_same_as_unlifted(n, ca, cb, floor, **kw):
    got = T.compose_components(T.RATIONAL_SYSTEM, n, ca, cb, floor, **kw)
    assert got == T.compose_components(_Unlifted(), n, ca, cb, floor, **kw)
    assert all(type(s) is ComplexRational for bag in got.values() for s in bag.values())
    return got


@pytest.mark.parametrize("n", [2, 3])
def test_numerator_kernel_matches_unlifted_path(n):
    rng = random.Random(500 + n)
    emitted = nonzero = 0
    for i in range(5):
        raw_a, raw_b, a, b = _classical_pair(rng, n)
        ca, cb = _coprime_bags(rng, raw_a), _coprime_bags(rng, raw_b)
        floor = _floor(a, b)
        emitted += len(_assert_same_as_unlifted(n, ca, cb, floor))
        _assert_same_as_unlifted(n, ca, cb, floor, degrees={-n})
        _assert_same_as_unlifted(n, ca, cb, None, gamma_cap=i % 3)
        # a complete polynomial left factor, and a right factor free of modes
        poly = _coprime_bags(rng, _polynomial_bags(rng, n, 2 + i % 2))
        emitted += len(_assert_same_as_unlifted(n, poly, cb, None))
        free = _coprime_bags(rng, {d: {(tuple([0] * n), al, p): s for (_m, al, p), s in bag.items()}
                                   for d, bag in raw_b.items()})
        emitted += len(_assert_same_as_unlifted(n, ca, free, None))
        # right terms moved onto reflections of left modes, so residues are nonzero
        refl = {}
        for d, block in _reflect(rng, ca, cb).items():
            for s, mode, alpha, p in block:
                T.bag_add(refl.setdefault(d, {}), (mode, alpha, p), s)
        for s, t in ((ca, cb), (ca, refl), (refl, ca), (poly, refl), (ca, free)):
            bag = T.residue_pairing(T.RATIONAL_SYSTEM, n, s, t)
            assert bag == T.residue_pairing(_Unlifted(), n, s, t)
            assert all(type(v) is ComplexRational for v in bag.values())
            nonzero += bool(bag)
    assert emitted >= 30 and nonzero >= 5


def test_numerator_lift_and_lower_round_trip():
    system = T.RATIONAL_SYSTEM
    key = ((0, 0), (0, 0), 0)
    comps = {0: {key: ComplexRational(Fraction(3, 1000003), Fraction(-5, 7))},
             -1: {key: ComplexRational(Fraction(1, 2))}}
    engine, lifted, den = system.lift(comps, scale=6)
    assert engine is T.GAUSSIAN_SYSTEM
    assert den == 6 * 1000003 * 7 * 2
    for d, bag in comps.items():
        for k, s in bag.items():
            assert type(lifted[d][k]) is GaussianInteger
            assert system.lower(lifted[d][k], den) == s


def test_gaussian_times_fraction_is_exact_division():
    system = T.GAUSSIAN_SYSTEM
    assert system.times_fraction(GaussianInteger(6, -9), Fraction(2, 3)) == GaussianInteger(4, -6)
    with pytest.raises(ArithmeticError):
        system.times_fraction(GaussianInteger(6, -8), Fraction(2, 3))
    with pytest.raises(ArithmeticError):
        system.times_fraction(GaussianInteger(1, 0), Fraction(1, 2))
