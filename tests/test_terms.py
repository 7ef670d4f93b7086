"""The term engine against references: composition that canonicalizes every tower
level, and canonical form that expands each group before dividing."""

import math
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncresidue import terms as T
from ncresidue.calculus import _residue_of_composition, _sphere_sum, compose, residue
from ncresidue.cyclotomic import CyclotomicInteger, CyclotomicScalar, cyclotomic_phase
from ncresidue.dsl import random_symbol, symbol_from_json, symbol_to_json
from ncresidue.errors import ValidationError
from ncresidue.nctorus import (
    NCSymbol,
    Theta,
    _nc_residue_of_composition,
    _system_for,
    nc_compose,
    nc_trace_defect,
)
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
                    right = {key: s * Fraction(w, fact)
                             for key, s in b_terms.items()
                             if (w := prod(m**g for m, g in zip(key[0], gamma)))}
                    bucket = out.setdefault(a_deg + b_deg - k, {})
                    for key, s in T.mul_terms(system, n, left, right).items():
                        T.bag_add(bucket, key, s)
            nxt = {}
            for gamma, t in level.items():
                for j in range(n):
                    raw = T.partial_xi_terms(n, t, j)
                    d = T.canonical_terms(n, a_deg - k - 1, raw)
                    if d:
                        nxt[gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]] = d
            level, k = nxt, k + 1
    result = {d: T.canonical_terms(n, d, raw) for d, raw in out.items()}
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
    one = ComplexRational(1)
    # xi1^3 + 2 e(1,0) xi1 |xi|^2 - xi2^2 + e(0,1): a polynomial with x-dependence
    ca = {
        3: {((0, 0), (3, 0), 0): one,
            ((1, 0), (1, 0), 2): ComplexRational(2)},
        2: {((0, 0), (0, 2), 0): ComplexRational(-1)},
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
    comps = T.compose_components(system, n, a._term_bags(), b._term_bags(), _floor(a, b))
    return {key: s for key, s in comps.get(-n, {}).items() if not any(key[0])}


def _reference_residue(system, n, a, b):
    total = system.zero
    for (_m, alpha, _p), s in _reference_sphere_part(system, n, a, b).items():
        total = total + s * sphere_monomial_integral(alpha, n).coeff.re
    return PiGradedScalar(total, n // 2) if total else PiGradedScalar(0)


def _pairing(system, n, comps_a, comps_b):
    """``residue_pairing`` with each numerator lowered: alpha -> scalar."""
    bag, den = T.residue_pairing(system, n, comps_a, comps_b)
    return {alpha: system.lower(s, den) for alpha, s in bag.items()}


def _assert_pairing_matches_reference(system, n, a, b):
    bag = _pairing(system, n, a._term_bags(), b._term_bags())
    assert all(x % 2 == 0 for alpha in bag for x in alpha)
    # the raw bag, read back at degree -n, is the even part of the composed one
    raw = {((0,) * n, alpha, -n - sum(alpha)): s for alpha, s in bag.items()}
    even = {key: s for key, s in _reference_sphere_part(system, n, a, b).items()
            if not any(x % 2 for x in key[1])}
    assert T.canonical_terms(n, -n, raw) == T.canonical_terms(n, -n, even)


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


# modes that vanish on some axes, where the support rule prunes derivatives
_SPARSE_MODES = [(1, 0, 0), (0, -2, 1), (0, 0, 0), (-1, 0, 2), (0, 1, 0), (2, -1, 0)]


def _sparse_mode_pairs(count, seed):
    """n = 3 pairs whose modes are drawn from ``_SPARSE_MODES``, the right factor
    reflected onto the left one as in ``_classical_residue_pairs``."""
    rng = random.Random(seed)
    for _ in range(count):
        m1, m2 = rng.randint(-1, 2), rng.randint(-1, 2)
        syms = [random_symbol(rng.getrandbits(32), dim=3, order=m, depth=m1 + 3 + m2,
                              max_mode=1, max_alpha=3) for m in (m1, m2)]
        bags = [{d: {(rng.choice(_SPARSE_MODES), alpha, p): s
                     for (_m, alpha, p), s in sorted(bag.items())}
                 for d, bag in sym._term_bags().items()} for sym in syms]
        blocks = [{d: [(s, *key) for key, s in bag.items()] for d, bag in bags[0].items()},
                  _reflect(rng, bags[0], bags[1])]
        yield tuple(
            ClassicalSymbol(3, sym.order, {d: c for d, t in bl.items()
                                           if not (c := HomogeneousComponent(3, d, t)).is_zero()},
                            sym.trusted_floor)
            for sym, bl in zip(syms, blocks))


def test_residue_pairing_matches_reference_on_modes_with_zero_axes():
    system = T.RATIONAL_SYSTEM
    nonzero = 0
    for a, b in _sparse_mode_pairs(16, 9):
        for s, t in ((a, b), (b, a)):
            _assert_pairing_matches_reference(system, 3, s, t)
            got = _residue_of_composition(s, t)
            assert got == torus_volume(3) * _reference_residue(system, 3, s, t)
            nonzero += not got.is_zero()
    assert nonzero >= 12


def test_residue_pairing_differentiates_a_left_term_only_along_its_mode(monkeypatch):
    """A left term of mode m meets right terms of mode -m, on which D^gamma
    vanishes unless gamma lies where m is nonzero: no other derivative is built,
    and a mode-zero term is never differentiated."""
    cases = [(T.RATIONAL_SYSTEM, 3, list(_classical_residue_pairs(3, 15, 303))),
             (T.RATIONAL_SYSTEM, 3, list(_sparse_mode_pairs(16, 9)))]
    for theta in (Fraction(2, 5), Fraction(5, 12)):
        pairs = list(_twisted_residue_pairs(theta, 16, 77))
        cases.append((pairs[0][0]._system, 2, pairs))
    calls = []
    differentiate = T.partial_xi_terms

    def recording(keys, terms, axis):
        calls.append((axis, {keys.unpack(key)[0] for key in terms}))
        return differentiate(keys, terms, axis)

    monkeypatch.setattr(T, "partial_xi_terms", recording)
    for system, n, pairs in cases:
        for a, b in pairs:
            for s, t in ((a, b), (b, a)):
                T.residue_pairing(system, n, s._term_bags(), t._term_bags())
    assert len(calls) >= 100
    assert all(mode[axis] for axis, modes in calls for mode in modes)


# -- the Gaussian-integer numerator kernel ------------------------------------------


class _RunAsItIs:
    """A system's coefficients left unlifted: every engine op runs on the
    coefficient class itself, and the one denominator (K!) is divided out
    with a ``Fraction``."""

    @staticmethod
    def lift(comps):
        return comps, 1

    @staticmethod
    def lower(s, den):
        return s * Fraction(1, den)


class _Unlifted(_RunAsItIs, T.RationalSystem):
    """The complex-rational system run on ComplexRational."""


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
            T.bag_add(bag, (mode, tuple(alpha), p), ComplexRational(1))
        comps[deg] = bag
    return comps


def _assert_same_as_unlifted(n, ca, cb, floor, **kw):
    got = T.compose_components(T.RATIONAL_SYSTEM, n, ca, cb, floor, **kw)
    assert got == T.compose_components(_Unlifted(), n, ca, cb, floor, **kw)
    assert all(type(s) is ComplexRational for bag in got.values() for s in bag.values())
    return got


def test_residue_pairing_refuses_a_tower_past_the_gamma_bound():
    """sigma = U V xi_1 |xi|^-2 against tau = U^-1 V^-1 |xi|^K meets at level K + 1.

    The bound admits 43 at n = 2.  At the float twist, order 171 used to run for
    seconds and end in an OverflowError (K! past the float range)."""
    theta = Theta.from_float(0.4)
    sigma = NCSymbol(theta, -1, {-1: [(1, (1, 1), (1, 0), -2)]}, None)

    def tau(order):
        return NCSymbol(theta, order, {order: [(1, (-1, -1), (0, 0), order)]}, None)

    assert _deepest_order(2) == 43
    _nc_residue_of_composition(sigma, tau(42))
    start = time.perf_counter()
    for order, level in ((43, 44), (170, 171)):
        with pytest.raises(ValidationError, match=f"up to order {level} in 2 variables"):
            _nc_residue_of_composition(sigma, tau(order))
    assert time.perf_counter() - start < 1


def test_residue_pairing_admits_what_compose_admits():
    # xi_1 against a right factor of order 50: the level 1 + 50 + 2 of that pair
    # lies past the bound, but the tower of xi_1 vanishes after one step
    cr = ComplexRational
    sigma = ClassicalSymbol(2, 1, {1: HomogeneousComponent(2, 1, [(1, (0, 0), (1, 0), 0)])})
    tau = ClassicalSymbol(2, 50, {
        50: HomogeneousComponent(2, 50, [(cr(2, 1), (1, 0), (0, 0), 50)]),
        -3: HomogeneousComponent(2, -3, [(cr(0, 3), (0, 0), (1, 0), -4)]),
    })
    got = _residue_of_composition(sigma, tau)
    assert not got.is_zero()
    assert got == residue(compose(sigma, tau))
    assert _residue_of_composition(tau, sigma) == residue(compose(tau, sigma))


@pytest.mark.parametrize("n", [2, 3])
def test_numerator_kernel_matches_unlifted_path(n):
    rng = random.Random(500 + n)
    emitted = nonzero = 0
    for i in range(5):
        raw_a, raw_b, a, b = _classical_pair(rng, n)
        ca, cb = _coprime_bags(rng, raw_a), _coprime_bags(rng, raw_b)
        floor = _floor(a, b)
        emitted += len(_assert_same_as_unlifted(n, ca, cb, floor))
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
            bag = _pairing(T.RATIONAL_SYSTEM, n, s, t)
            assert bag == _pairing(_Unlifted(), n, s, t)
            assert all(type(v) is ComplexRational for v in bag.values())
            nonzero += bool(bag)
    assert emitted >= 30 and nonzero >= 5


def test_numerator_lift_and_lower_round_trip():
    system = T.RATIONAL_SYSTEM
    key = ((0, 0), (0, 0), 0)
    comps = {0: {key: ComplexRational(Fraction(3, 1000003), Fraction(-5, 7))},
             -1: {key: ComplexRational(Fraction(1, 2))}}
    lifted, den = system.lift(comps)
    assert den == 1000003 * 7 * 2
    for d, bag in comps.items():
        for k, s in bag.items():
            assert type(lifted[d][k]) is GaussianInteger
            assert system.lower(lifted[d][k], den) == s


def test_gaussian_integer_weights_divide_exactly():
    assert GaussianInteger(12, -18).exact_div(3) == GaussianInteger(4, -6)
    with pytest.raises(ArithmeticError):
        GaussianInteger(12, -16).exact_div(3)
    with pytest.raises(ArithmeticError):
        GaussianInteger(1, 0).exact_div(2)
    # a weight w/gamma! applied as the integer w * (K!/gamma!), with K! in the
    # denominator, lowers to the coefficient times the Fraction weight
    system = T.RATIONAL_SYSTEM
    s = ComplexRational(Fraction(3, 10), Fraction(-5, 7))
    lifted, den = system.lift({0: {((0, 0), (0, 0), 0): s}})
    num = lifted[0][((0, 0), (0, 0), 0)]
    for k, gamma, w in ((3, (2, 1), -5), (4, (0, 2), 9), (7, (3, 3), 1)):
        scale = math.factorial(k)
        weighted = num * (w * (scale // T.gamma_factorial(gamma)))
        assert system.lower(weighted, den * scale) == s * Fraction(w, T.gamma_factorial(gamma))


# -- the cyclotomic-integer numerator kernel -----------------------------------------


class _UnliftedCyclotomic(_RunAsItIs, T.CyclotomicSystem):
    """The cyclotomic system run on CyclotomicScalar."""


def _sorted_repr(comps):
    """repr of a degree -> bag dict, which shows each coefficient's order."""
    return repr(sorted((d, sorted(bag.items())) for d, bag in comps.items()))


def _with_phase_seven(sym):
    """The symbol read back from its JSON with a phase zeta_7 on every other term."""
    doc = symbol_to_json(sym)
    for block in doc["blocks"]:
        for term in block["terms"][::2]:
            term["phase"] = [7, 1]
    return symbol_from_json(doc)


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12), Fraction(7, 30),
                                   Fraction(0), Fraction(1, 2)])
def test_cyclotomic_numerator_kernel_matches_unlifted_path(theta):
    unlifted = _UnliftedCyclotomic(theta.numerator, theta.denominator)
    big = math.lcm(4, theta.denominator)
    emitted = nonzero = 0
    stray = set()  # orders that divide no lcm(4, theta denominator)
    for i, (a, b) in enumerate(_twisted_residue_pairs(theta, 6, 41)):
        if i % 2:
            a, b = _with_phase_seven(a), _with_phase_seven(b)
        system = a._system
        ca, cb = a._term_bags(), b._term_bags()
        floor = _floor(a, b)
        for floor_, kw in ((floor, {}), (None, {"gamma_cap": i % 3})):
            got = T.compose_components(system, 2, ca, cb, floor_, **kw)
            assert _sorted_repr(got) == _sorted_repr(
                T.compose_components(unlifted, 2, ca, cb, floor_, **kw))
            assert all(type(s) is CyclotomicScalar for bag in got.values() for s in bag.values())
            emitted += sum(map(len, got.values()))
            stray |= {s.order for bag in got.values() for s in bag.values() if big % s.order}
        for s, t in ((a, b), (b, a)):
            got = _nc_residue_of_composition(s, t)
            want = _sphere_sum(unlifted, 2, *T.residue_pairing(
                unlifted, 2, s._term_bags(), t._term_bags()))
            assert repr(got) == repr(want)
            nonzero += not got.is_zero()
    assert emitted >= 100 and nonzero >= 6 and stray


def test_cyclotomic_lift_and_lower_round_trip():
    system = T.CyclotomicSystem(5, 12)
    zeta3 = CyclotomicScalar.root_of_unity(3, 1)
    key, key2 = ((0, 0), (0, 0), 0), ((1, 0), (0, 0), 0)
    comps = {
        # zeta_3 held at order 12, zeta_7 at order 28, a rational at order 1
        0: {key: zeta3 * CyclotomicScalar(12, [1]) * Fraction(3, 1000003),
            key2: CyclotomicScalar.root_of_unity(7, 2) * CyclotomicScalar(4, [0, Fraction(-5, 7)])},
        -1: {key: CyclotomicScalar(1, [Fraction(1, 2)])},
    }
    assert [s.order for bag in comps.values() for s in bag.values()] == [12, 28, 1]
    lifted, den = system.lift(comps)
    assert den == 1000003 * 7 * 2
    for d, bag in comps.items():
        for k, s in bag.items():
            n = lifted[d][k]
            assert type(n) is CyclotomicInteger and n.order == s.order
            assert all(type(c) is int for c in n.coeffs)
            assert repr(system.lower(n, den)) == repr(s)


def test_cyclotomic_integer_weights_divide_exactly():
    system = T.CyclotomicSystem(2, 5)
    value = CyclotomicScalar(5, [Fraction(1, 3), 0, Fraction(2, 3), 0])
    lifted, den = system.lift({0: {((0, 0), (0, 0), 0): value}})
    s = lifted[0][((0, 0), (0, 0), 0)]
    assert den == 3 and s.coeffs == [1, 0, 2, 0]
    with pytest.raises(ArithmeticError):
        s.exact_div(7)
    assert (s * 7).exact_div(7).coeffs == [1, 0, 2, 0]
    # the integer weight w * (K!/gamma!) over den * K! is the Fraction weight w/gamma!
    scale = math.factorial(5)
    weighted = s * (-4 * (scale // T.gamma_factorial((1, 2))))
    assert repr(system.lower(weighted, den * scale)) == repr(value * Fraction(-4, 2))


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12), Fraction(7, 30)])
def test_twisted_phase_is_one_integer_root_per_exponent(theta):
    """One system per twist, whose phase is an integer root of unity built once;
    a coefficient multiplies by it as by the exact phase ``cyclotomic_phase``."""
    system = _system_for(Theta.from_rational(theta))
    assert system is _system_for(Theta.from_rational(theta))
    assert NCSymbol(Theta.from_rational(theta), 0)._system is system
    x = CyclotomicScalar(12, [Fraction(1, 3), -2, 0, Fraction(5, 7)])
    for left, right in (((0, 1), (1, 0)), ((3, -2), (-1, 5)), ((0, 2), (3, 7))):
        root = system.phase(left[1], right[0])
        t = left[1] * right[0]
        if (theta * t).denominator == 1:
            assert root is None
            continue
        assert type(root) is CyclotomicInteger
        assert system.phase(left[1], right[0]) is root
        want = cyclotomic_phase(theta.numerator, theta.denominator, t)
        assert root == want.num and want.den == 1
        assert repr(x * root) == repr(root * x) == repr(x * want)


@pytest.mark.parametrize("q", [997, 9973])
def test_nc_compose_at_a_large_theta_denominator_is_quick(q):
    theta = Theta.from_rational(Fraction(1, q))
    rng = random.Random(3)
    a, b = (random_symbol(rng.getrandbits(32), dim=2, order=m, depth=2, max_mode=1, max_alpha=1,
                          theta=theta) for m in (0, -1))
    start = time.perf_counter()
    composed = [nc_compose(a, b), nc_compose(b, a)]
    assert time.perf_counter() - start < 2
    # the hard case: values at order 4q, phi(4q) = 2(q - 1) coefficients each
    assert any(s.order == 4 * q for c in composed for bag in c._term_bags().values()
               for s in bag.values())
    assert nc_trace_defect(a, b).is_zero()


# -- canonical form ------------------------------------------------------------------


def _reference_divide(poly, n):
    """Quotient of poly by xi_1^2 + ... + xi_n^2, or None: long division from the
    largest remaining exponent."""
    rem, quo = dict(poly), {}
    while rem:
        alpha = max(rem)
        c = rem.pop(alpha)
        if alpha[0] < 2:
            return None
        beta = (alpha[0] - 2,) + alpha[1:]
        T.bag_add(quo, beta, c)
        for j in range(1, n):
            T.bag_add(rem, T._bump(beta, j, 2), -c)
    return quo


def _reference_canonical(n, degree, raw):
    """Expand then divide: each (mode, parity) group is multiplied out to its lowest
    |xi| power through the multinomial expansion of (xi_1^2 + ... + xi_n^2)^k, and
    the sum of squares is then divided out of the whole expansion while it divides."""
    groups = {}
    for (mode, alpha, npow), s in raw.items():
        if s:
            groups.setdefault((mode, npow % 2), []).append((alpha, npow, s))
    out = {}
    for (mode, _parity), items in groups.items():
        pmin = min(p for _a, p, _s in items)
        poly = {}
        for alpha, p, s in items:
            k = (p - pmin) // 2
            for beta in T.compositions(n, k):
                m = math.factorial(k) // T.gamma_factorial(beta)
                T.bag_add(poly, tuple(a + 2 * b for a, b in zip(alpha, beta)), s * m)
        while poly:
            quo = _reference_divide(poly, n)
            if quo is None:
                break
            poly, pmin = quo, pmin + 2
        for alpha, s in poly.items():
            out[(mode, alpha, pmin)] = s
    return out


def _random_poly(rng, scalar, n, deg, size):
    poly = {}
    for _ in range(size):
        alpha = [0] * n
        for _ in range(deg):
            alpha[rng.randrange(n)] += 1
        T.bag_add(poly, tuple(alpha), scalar(rng))
    return poly


def _times_sum_sq(poly, n, times=1):
    for _ in range(times):
        out = {}
        for alpha, s in poly.items():
            for j in range(n):
                T.bag_add(out, T._bump(alpha, j, 2), s)
        poly = out
    return poly


def _group(rng, scalar, n, d, kind):
    """Shells P_0 .. P_K (K <= 4) of a degree-d polynomial P = sum_k R^k P_k.

    ``free``: random shells.  ``divisible``: P = R^j Q, with P_1 .. P_K random
    and P_0 what is left, so the canonical form peels R off j times (more when
    Q happens to divide).  ``zero``: the same with Q = 0, so P cancels.
    ``hollow``: P_0 = R G and P_1 = -G, so P_1 cancels once the quotient of
    P_0 is folded in, and P = R^2 P_2.  Returns the shells and the least
    number of peels.
    """
    if kind == "hollow" and d >= 4:
        g = _random_poly(rng, scalar, n, d - 2, rng.randint(1, 3))
        rest = _random_poly(rng, scalar, n, d - 4, rng.randint(1, 3))
        return [_times_sum_sq(g, n), {alpha: -s for alpha, s in g.items()}, rest], 2
    top = rng.randint(0, min(4, d // 2))
    shells = [_random_poly(rng, scalar, n, d - 2 * k, rng.randint(0, 3)) for k in range(top + 1)]
    if kind == "free":
        shells[0] = _random_poly(rng, scalar, n, d, rng.randint(1, 4))
        return shells, 0
    j = rng.randint(0, d // 2)
    low = {}
    if kind == "divisible":
        low = _times_sum_sq(_random_poly(rng, scalar, n, d - 2 * j, rng.randint(1, 3)), n, j)
    for k in range(1, top + 1):
        for alpha, s in _times_sum_sq(shells[k], n, k).items():
            T.bag_add(low, alpha, -s)
    shells[0] = low
    return shells, (d // 2 + 1 if kind == "zero" else j)


def _random_bag(rng, scalar, n):
    """A raw bag of several (mode, parity) groups, with the least peel count of each."""
    degree = rng.randint(-3, 3)
    modes = [(0,) * n, (1,) + (0,) * (n - 1), (-1,) + (2,) * (n - 1)]
    raw, peels = {}, {}
    for mode in rng.sample(modes, rng.randint(1, 3)):
        for parity in rng.sample([0, 1], rng.randint(1, 2)):
            d = 2 * rng.randint(0, 4) + (degree - parity) % 2
            pmin = degree - d
            kind = rng.choice(["free", "divisible", "divisible", "zero", "hollow"])
            shells, peel = _group(rng, scalar, n, d, kind)
            for k, shell in enumerate(shells):
                for alpha, s in shell.items():
                    raw[(mode, alpha, pmin + 2 * k)] = s
            peels[(mode, parity)] = pmin + 2 * peel
    return degree, raw, peels


def _rational(rng):
    return ComplexRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                           Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def _gaussian(rng):
    return GaussianInteger(rng.randint(-3, 3), rng.randint(-3, 3))


def _cyclotomic(order):
    return lambda rng: CyclotomicScalar(order, [rng.randint(-2, 2) for _ in range(order)])


def _float(rng):
    # integer parts, so float sums are exact and cancellation is visible
    return complex(rng.randint(-3, 3), rng.randint(-3, 3))


@pytest.mark.parametrize("scalar", [_rational, _gaussian, _cyclotomic(5), _cyclotomic(12), _float],
                         ids=["rational", "gaussian", "cyclotomic5", "cyclotomic12", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_form_matches_expand_then_divide(scalar, n):
    rng = random.Random(900 + n)
    peeled = cancelled = 0
    for _ in range(12):
        degree, raw, peels = _random_bag(rng, scalar, n)
        got = T.canonical_terms(n, degree, raw)
        want = _reference_canonical(n, degree, raw)
        assert got.keys() == want.keys()
        if scalar is _float:
            assert all(abs(got[key] - want[key]) <= 1e-12 for key in got)
        else:
            assert got == want
        groups = {}
        for (mode, alpha, p), s in got.items():
            groups.setdefault((mode, p % 2), {}).setdefault(p, {})[alpha] = s
        for group, by_pow in groups.items():
            # one |xi| power per group, at least as high as the known peels reach,
            # and a polynomial part that the sum of squares no longer divides
            [(p, poly)] = by_pow.items()
            assert p >= peels[group]
            assert _reference_divide(poly, n) is None
            peeled += p > min(k[2] for k in raw if (k[0], k[2] % 2) == group)
        cancelled += len(peels) - len(groups)
    assert peeled >= 5 and cancelled >= 2


def test_canonical_form_refuses_a_costly_group(monkeypatch):
    one = GaussianInteger(1, 0)
    zero8 = (0,) * 8
    # the division of xi1^64 runs bucket after bucket in dimension 8
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="degree 64 polynomial in 8 variables needs more "
                                              "than 100000 monomial updates"):
        T.canonical_terms(8, 0, {(zero8, (64,) + (0,) * 7, -64): one})
    # so does the Horner expansion of 1 to |xi|^-64, behind a division that fails at once
    with pytest.raises(ValidationError, match="needs more than 100000"):
        T.canonical_terms(8, 0, {(zero8, (0, 64) + (0,) * 6, -64): one, (zero8, zero8, 0): one})
    assert time.perf_counter() - start < 2
    # a group in the same space whose division fails at once costs nothing
    key = (zero8, (0, 64) + (0,) * 6, -64)
    assert T.canonical_terms(8, 0, {key: one}) == {key: one}
    # dimension 4 at the exponent limit
    key = ((0,) * 4, (64, 0, 0, 0), -64)
    assert T.canonical_terms(4, 0, {key: one}) == {key: one}
    # the bound is inclusive: dividing xi1^6 in 4 variables makes 4 + 12 + 24 updates
    # before it fails, and expanding 1 by Horner's rule to |xi|^-6 makes 4 + 16 + 40
    raw = {((0,) * 4, (6, 0, 0, 0), -6): one, ((0,) * 4, (0, 0, 0, 0), 0): one}
    monkeypatch.setattr(T, "MAX_CANONICAL_MONOMIALS", 100)
    assert T.canonical_terms(4, 0, raw) == _reference_canonical(4, 0, raw)
    monkeypatch.setattr(T, "MAX_CANONICAL_MONOMIALS", 99)
    with pytest.raises(ValidationError, match="degree 6 polynomial in 4 variables needs more "
                                              "than 99 monomial updates"):
        T.canonical_terms(4, 0, raw)


# -- packed keys ---------------------------------------------------------------------

_HUGE = 10**998 + 7  # a 999-digit mode entry


def _deepest_order(n):
    """The deepest derivative order K that MAX_GAMMA_COUNT admits in n variables."""
    return max(k for k in range(T.MAX_GAMMA_COUNT) if math.comb(k + n, n) <= T.MAX_GAMMA_COUNT)


def _sparse(draw, n, values):
    """A length-n tuple, zero but at a few drawn places."""
    entries = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        entries[j] = draw(values)
    return tuple(entries)


# besides small values: 999-digit ones, and ones just below a width boundary,
# where a sum of two fields or a derivative tower would carry into the next field
# of a layout sized without the margins of ``pack_terms``
_mode_entries = st.one_of(st.integers(-6, 6),
                          st.sampled_from([-_HUGE, _HUGE, -(2**61), 2**61, 100, -120]))
_exponents = st.one_of(st.integers(0, 9), st.sampled_from([64, 120, 2**40]))
_npows = st.one_of(st.integers(-12, 12), st.sampled_from([-_HUGE, -(2**40), 2**40, -110, 110]))


@st.composite
def _key_bags(draw):
    """(n, depth, two tuple-keyed bags): negative and 999-digit modes, negative
    npow, dimensions up to 64 and the deepest order the gamma bound admits."""
    n = draw(st.sampled_from([2, 3, 8, 64]))
    depth = draw(st.sampled_from([0, 1, _deepest_order(n)]))
    bags = []
    for _ in range(2):
        bag = {}
        for _ in range(draw(st.integers(1, 5))):
            key = (_sparse(draw, n, _mode_entries), _sparse(draw, n, _exponents), draw(_npows))
            bag[key] = len(bag) + 1
        bags.append(bag)
    return n, depth, bags


_EDGE_64 = {((_HUGE,) + (0,) * 62 + (-_HUGE,), (2**40,) + (0,) * 63, -_HUGE): 1,
            ((-1,) * 64, (1,) * 64, 3): 2}
_EDGE_2 = {((-_HUGE, 5), (0, 9), -12): 1, ((3, -2), (1, 0), 2**40): 2}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_key_bags())
@example((64, 1, [_EDGE_64, _EDGE_64]))
@example((2, 43, [_EDGE_2, {((1, 1), (2, 0), -3): 1}]))
@example((3, 16, [{((0, -4, 2), (3, 0, 1), -9): 1}, {((-6, 6, 0), (0, 2, 0), 1): 2}]))
@example((2, 0, [{((100, -1), (64, 0), 0): 1}, {((27, -120), (64, 1), -1): 2}]))
def test_packed_keys_round_trip_add_and_step_like_their_tuples(case):
    n, depth, bags = case
    keys, packed = T.pack_terms(n, bags, depth)
    # pack then unpack is the identity, in the bag's order
    for bag, pbag in zip(bags, packed):
        assert list(pbag.values()) == list(bag.values())
        assert keys.unpack_bag(pbag) == bag
        assert [keys.unpack(k) for k in pbag] == list(bag)
    # a product key is k1 + k2 - offsets: the pack of the fieldwise sums
    for (m1, a1, p1), k1 in zip(bags[0], packed[0]):
        for (m2, a2, p2), k2 in zip(bags[1], packed[1]):
            want = (tuple(map(sum, zip(m1, m2))), tuple(map(sum, zip(a1, a2))), p1 + p2)
            assert keys.unpack(k1 + k2 - keys.offsets) == want
    # the d/d(xi_j) moves are T._bump on alpha, and |alpha| + npow drops by one; a
    # tower of ``depth`` steps stays inside the fields
    for (mode, alpha, p), k in zip(bags[0], packed[0]):
        for j in range(n):
            down, r_step = keys.xi_steps[j]
            assert keys.unpack(k - r_step) == (mode, T._bump(alpha, j, 1), p - 2)
            if alpha[j]:
                assert keys.unpack(k - down) == (mode, T._bump(alpha, j, -1), p)
        for step in range(depth):
            j = step % n
            k -= keys.xi_steps[j][1]
            alpha, p = T._bump(alpha, j, 1), p - 2
            assert keys.unpack(k) == (mode, alpha, p)
            assert (k >> keys.degree_shift & keys.mask) - keys.half == sum(alpha) + p


def test_packed_width_follows_the_inputs():
    small = {((1, -2), (1, 0), -3): 1}
    keys, _ = T.pack_terms(2, [small])
    assert keys.width == 8
    keys, _ = T.pack_terms(2, [small], _deepest_order(2))
    assert keys.width == 16  # 4 * (4 + 43) needs nine bits
    keys, _ = T.pack_terms(2, [small, {((_HUGE, 0), (0, 0), 0): 1}])
    assert keys.width >= (4 * _HUGE).bit_length() + 1 and keys.width % 8 == 0
    with pytest.raises(ValidationError, match="has length != 2"):
        T.pack_terms(2, [{((0, 0), (1,), 0): 1}])
    with pytest.raises(ValidationError, match="Fourier mode"):
        T.pack_terms(2, [{((0,), (1, 0), 0): 1}])
    with pytest.raises(ValidationError, match="nonnegative"):
        T.pack_terms(2, [{((0, 0), (1, -1), 0): 1}])


def test_layout_memos_stay_exact_and_bounded(monkeypatch):
    # mode (256, -1) packs, with a carry, to the 8-bit fields of mode (0, 0):
    # a key packed too narrow first must leave nothing behind in the memos
    zero = {((0, 0), (0, 0), 0): 1}
    narrow, [packed_zero] = T.pack_terms(2, [zero])
    assert narrow.width == 8
    wide = {((256, -1), (0, 0), 0): 1}
    keys, [packed] = T.pack_terms(2, [wide])
    assert keys.width == 16 and keys.unpack_bag(packed) == wide
    assert narrow.unpack_bag(packed_zero) == zero
    # a memo holds at most _MEMO_FIELDS fields, n per entry, and starts afresh
    monkeypatch.setattr(T, "_MEMO_FIELDS", 12)
    keys = T.Keys(3, 8)
    bag = {((i, -i, 1), (i, 0, 1), -i): i + 1 for i in range(10)}
    _, [packed] = keys.pack([bag])
    assert len(keys.modes) <= 4 and len(keys.alphas) <= 4
    assert keys.unpack_bag(packed) == bag
    assert [keys.unpack(k) for k in packed] == list(bag)


def test_layout_memos_map_back_only_what_they_decode():
    # (True, 0) == (1, 0) as a dict key: a caller's tuple must not become the
    # decoded value of its key fields, in this call or a later one
    T._narrow_layout.cache_clear()
    one = ComplexRational(1)
    for mode, alpha in (((True, 0), (0, True)), ((1, 0), (0, 1))):
        bag = T.canonical_terms(2, 0, {(mode, alpha, -1): one})
        assert list(bag) == [((1, 0), (0, 1), -1)]
        ((mode, alpha, npow),) = bag
        assert all(type(x) is int for x in (*mode, *alpha, npow))


def test_tuple_keyed_mul_terms_returns_a_new_bag():
    one = ComplexRational(1)
    left, right = {((1, 0), (1, 0), 0): one}, {((0, 2), (0, 0), -1): one}
    assert T.mul_terms(T.RATIONAL_SYSTEM, 2, left, right) == {((1, 2), (1, 0), -1): one}
    with pytest.raises(TypeError):
        T.mul_terms(T.RATIONAL_SYSTEM, 2, left, right, {})


def _one_term(n, deg, mode, alpha, coeff):
    return {deg: {(mode, alpha, deg - sum(alpha)): coeff}}


def test_compose_at_the_packing_edges_matches_the_reference():
    """300-digit modes and dimension 8, against the per-level canonical reference."""
    big = 10**299 + 3
    cr = ComplexRational
    cases = [
        (2, {**_one_term(2, 0, (big, -2), (1, 1), cr(2, 1)), **_one_term(2, -1, (-3, big), (0, 1), cr(1))},
         {**_one_term(2, 1, (-big, 2), (2, 0), cr(0, 1)), **_one_term(2, 0, (0, -big), (0, 0), cr(-1, 2))}, -3),
        (8, {**_one_term(8, 1, (1,) + (0,) * 6 + (-2,), (1,) + (0,) * 7, cr(1, 1))},
         {**_one_term(8, -1, (0, 3) + (0,) * 6, (0,) * 7 + (1,), cr(1, -3))}, -2),
    ]
    for n, ca, cb, floor in cases:
        for a, b in ((ca, cb), (cb, ca)):
            kmax = max(x + y for x in a for y in b) - floor
            got = T.compose_components(T.RATIONAL_SYSTEM, n, a, b, floor)
            assert got
            assert got == reference_compose(T.RATIONAL_SYSTEM, n, a, b, lambda d, k: d >= floor, kmax)
    theta = Theta.from_rational(Fraction(2, 5))
    system = _system_for(theta)
    a = NCSymbol(theta, 0, {0: [(cr(1, 2), (big, -1), (1, 1), -2)],
                            -1: [(cr(3), (-2, big), (0, 1), -2)]}, -3)
    b = NCSymbol(theta, 0, {0: [(cr(-1), (-big, 1 - big), (2, 0), -2)]}, -3)
    for s, t in ((a, b), (b, a)):
        ca, cb = s._term_bags(), t._term_bags()
        kmax = max(x + y for x in ca for y in cb) + 3
        got = T.compose_components(system, 2, ca, cb, -3)
        assert got == reference_compose(system, 2, ca, cb, lambda d, k: d >= -3, kmax)
        assert nc_compose(s, t)._term_bags() == got
