"""The term engine against references: composition that canonicalizes every tower
level, and canonical form that expands each group before dividing."""

import itertools
import math
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncresidue import terms as T
from ncresidue.calculus import (
    _normalized_residue_of_composition,
    _residue_of_composition,
    _sphere_sum,
    compose,
    residue,
    trace_defect,
)
from ncresidue.cyclotomic import CyclotomicInteger, CyclotomicScalar, cyclotomic_phase
from ncresidue.dsl import random_symbol, symbol_from_json, symbol_to_json
from ncresidue.errors import InsufficientExpansionError, ValidationError
from ncresidue.nctorus import (
    NCSymbol,
    Theta,
    _nc_residue_of_composition,
    _system_for,
    nc_compose,
    nc_residue,
    nc_trace_defect,
)
from ncresidue.scalars import (
    ComplexRational,
    GaussianInteger,
    PiGradedScalar,
    sphere_monomial_integral,
    sphere_surface_measure,
    torus_volume,
)
from ncresidue.symbols import (
    ClassicalSymbol,
    HomogeneousComponent,
    exp_symbol,
    one_symbol,
    sphere_average,
)

from conftest import compositions, gamma_factorial


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
                fact = gamma_factorial(gamma)
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


def _shallow_floor(ca, cb, depth):
    """The floor at which the pairs of components of the largest degree sum
    reach derivative order ``depth``, and every other pair less."""
    return max(x + y for x in ca for y in cb) - depth


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
        low = _shallow_floor(ca, cb, 2)
        got = T.compose_components(system, n, ca, cb, low)
        assert got == reference_compose(system, n, ca, cb, lambda d, k: d >= low, 2)


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


def _reference_partial_xi(terms, axis):
    """d/d(xi_axis) of xi^alpha |xi|^p = alpha_axis xi^(alpha - e) |xi|^p
    + p xi^(alpha + e) |xi|^(p - 2), term by term on tuple keys."""
    out = {}
    for (mode, alpha, p), s in terms.items():
        if alpha[axis]:
            T.bag_add(out, (mode, T._bump(alpha, axis, -1), p), s * alpha[axis])
        if p:
            T.bag_add(out, (mode, T._bump(alpha, axis, 1), p - 2), s * p)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partial_xi_terms_matches_a_termwise_reference(n):
    rng = random.Random(290 + n)
    cancelled = 0
    for _ in range(40):
        degree, axis = rng.randint(-3, 2), rng.randrange(n)
        # s xi^alpha |xi|^p and s' xi^(alpha - 2e) |xi|^(p + 2) meet at
        # xi^(alpha - e) |xi|^p, where s' = -s alpha_axis / (p + 2) cancels them
        alpha = T._bump(tuple(rng.randint(0, 2) for _ in range(n)), axis, 2)
        mode, p = tuple(rng.randint(-2, 2) for _ in range(n)), degree - sum(alpha)
        s = ComplexRational(Fraction(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(-2, 2))
        terms = {(mode, alpha, p): s}
        if p + 2:
            terms[(mode, T._bump(alpha, axis, -2), p + 2)] = s * Fraction(-alpha[axis], p + 2)
        for _ in range(rng.randint(0, 5)):
            other = tuple(rng.randint(0, 3) for _ in range(n))
            key = (tuple(rng.randint(-2, 2) for _ in range(n)), other, degree - sum(other))
            T.bag_add(terms, key, ComplexRational(rng.randint(-3, 3), rng.randint(-1, 1)))
        want = _reference_partial_xi(terms, axis)
        got = T.partial_xi_terms(n, terms, axis)
        assert list(got.items()) == list(want.items())
        cancelled += (mode, T._bump(alpha, axis, -1), p) not in want
    assert cancelled >= 20


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


def _classical_residue_pairs(n, count, seed, top=2):
    """Pairs of orders -1 .. ``top``."""
    rng = random.Random(seed)
    for i in range(count):
        m1, m2 = rng.randint(-1, top), rng.randint(-1, top)
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


def _pairing(system, n, comps_a, comps_b, commutator=False):
    """What ``residue_pairing`` integrates, each numerator lowered: alpha ->
    scalar (with ``commutator``, the one bag of a o b - b o a).

    It is read through a recording weight lookup.  With the layouts' memos
    dropped and the lookup remembering nothing, every alpha a pass weights
    is looked up afresh, in the order of the numerators it then sums, so
    the two line up.  The integrated pair is checked against the recorded
    bag's own sphere integral."""
    looked_up, bags = [], []
    sphere_total = T.sphere_total

    def weight(keys, part):
        looked_up.append(keys.alpha_of(part))
        w = sphere_monomial_integral(looked_up[-1], keys.n).coeff
        return w.a, w.den

    def recording_total(nums, values, weights, den):
        values = list(values)
        assert len(looked_up) == len(values)
        bags.append({alpha: system.lower(nums.total([v], [1]), den)
                     for alpha, v in zip(looked_up, values)})
        looked_up.clear()
        return sphere_total(nums, values, weights, den)

    T._narrow_layout.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T.Keys, "sphere_weight", weight)
        mp.setattr(T, "sphere_total", recording_total)
        total, den = T.residue_pairing(system, n, comps_a, comps_b, commutator=commutator)
    [bag] = bags
    want = sum((s * sphere_monomial_integral(alpha, n).coeff.re for alpha, s in bag.items()),
               system.zero)
    assert _sphere_sum(system, n, total, den) == (
        PiGradedScalar(want, n // 2) if want else PiGradedScalar(0))
    return bag


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
    vanishes unless gamma lies where m is nonzero: every derivative step is
    taken along -m, on axes where m is nonzero, and a mode-zero term is never
    differentiated."""
    cases = [(T.RATIONAL_SYSTEM, 3, list(_classical_residue_pairs(3, 15, 303))),
             (T.RATIONAL_SYSTEM, 3, list(_sparse_mode_pairs(16, 9)))]
    for theta in (Fraction(2, 5), Fraction(5, 12)):
        pairs = list(_twisted_residue_pairs(theta, 16, 77))
        cases.append((pairs[0][0]._system, 2, pairs))
    calls = []
    chain_of = T._chain

    def recording(keys, bag, steps, top, cut=None):
        chain = chain_of(keys, bag, steps, top, cut)
        # one call per level built, from the level before it; a chain's last
        # level takes, per parity of a term's alpha, a part of the steps
        for k, terms in enumerate(chain[:-1]):
            parity = cut is not None and k + 1 == top
            parts = cut[1].values() if parity else [steps]
            axes = {shift // keys.width: v for part in parts for shift, v, _down, _r_step in part}
            calls.append((axes, {keys.unpack(key)[0] for key in terms}, parity))
        return chain

    monkeypatch.setattr(T, "_chain", recording)
    for system, n, pairs in cases:
        for a, b in pairs:
            for s, t in ((a, b), (b, a)):
                T.residue_pairing(system, n, s._term_bags(), t._term_bags())
            T.residue_pairing(system, n, a._term_bags(), b._term_bags(), commutator=True)
    assert len(calls) >= 100 and any(parity for _axes, _modes, parity in calls)
    for axes, modes, parity in calls:
        assert axes or parity
        for mode in modes:
            along_mode = {j: -x for j, x in enumerate(mode) if x}
            assert axes.items() <= along_mode.items() if parity else axes == along_mode


# -- one sphere integral for every residue -----------------------------------------


def _residue_symbols(n, count, seed, theta=None):
    """Symbols trusted down to degree -n or below, of orders -n .. 1; two in
    three are free of modes, so their degree -n component is all mode zero."""
    rng = random.Random(seed)
    for i in range(count):
        order = rng.randint(-n, 1)
        yield random_symbol(rng.getrandbits(32), dim=n, order=order, depth=order + n + i % 2,
                            max_mode=0 if i % 3 else 1, max_alpha=2, theta=theta)


@pytest.mark.parametrize("n", [2, 3])
def test_residue_is_the_residue_of_its_composition_with_one(n):
    """sigma o 1 = sigma: the symbol's own integral (``_normalized_residue``)
    against the pairing pass of the composition."""
    one, nonzero = one_symbol(n), 0
    for sigma in _residue_symbols(n, 15, 60 + n):
        got = residue(sigma)
        assert got == _residue_of_composition(sigma, one)
        nonzero += not got.is_zero()
    assert nonzero >= 5


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12), Fraction(7, 30), 0.4])
def test_nc_residue_is_the_residue_of_its_composition_with_one(theta):
    th = Theta.from_float(theta) if type(theta) is float else Theta.from_rational(theta)
    one = NCSymbol(th, 0, {0: [(1, (0, 0), (0, 0), 0)]}, None)
    nonzero = 0
    for sigma in _residue_symbols(2, 24, 70, th):
        got, want = nc_residue(sigma), _nc_residue_of_composition(sigma, one)
        if type(theta) is float:
            assert got.pi_exponent == want.pi_exponent
            assert abs(got.to_complex() - want.to_complex()) <= 1e-12 * abs(want.to_complex())
        else:
            assert repr(got) == repr(want)
        nonzero += not got.is_zero()
    assert nonzero >= 5


def _residue_through_the_two_factor_map(sigma, volume):
    """``_normalized_residue`` with its numerators from the map of two factors
    (the right one empty), sized by ``numerator_width``'s proof."""
    n, system = sigma.n, sigma._system
    bag = {key: s for key, s in sigma._term_bags().get(-n, {}).items() if not any(key[0])}
    keys, [bag], sizes = T._pack_sized(n, [bag], 0)
    nums, den = system.numerator_map([bag], [{}], n, sizes, 0)
    return _sphere_sum(system, n, *T.sphere_integral(nums, keys, bag, den), volume=volume)


@pytest.mark.parametrize("n, theta", [(2, None), (3, None), (2, Fraction(2, 5)),
                                      (2, Fraction(5, 12)), (2, Fraction(7, 30)), (2, 0.4)])
def test_a_residue_takes_the_lone_numerator_map_with_the_same_values(monkeypatch, n, theta):
    """``residue`` and ``nc_residue`` of one symbol map its numerators with no
    right factor: the exact map calls no ``numerator_width``, and every value
    is byte-identical to the one the two-factor map gives."""
    th = None if theta is None else (
        Theta.from_float(theta) if type(theta) is float else Theta.from_rational(theta))
    symbols = list(_residue_symbols(n, 60, 90 + n, th))
    want = [repr(_residue_through_the_two_factor_map(sigma, theta is None)) for sigma in symbols]

    def refused(*_args):
        raise AssertionError("numerator_width called")

    monkeypatch.setattr(T, "numerator_width", refused)
    got = [repr((residue if theta is None else nc_residue)(sigma)) for sigma in symbols]
    assert got == want
    assert sum(text != repr(PiGradedScalar(0)) for text in got) >= 15


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_average_is_the_residue_of_a_composition_with_a_mode(n):
    """The average of c on mode m, times the measure, is the normalized
    residue of c e^(-i m.x), which only the product term reaches."""
    measure, checked, nonzero = sphere_surface_measure(n), 0, 0
    for sigma in _residue_symbols(n, 15, 80 + n):
        c = sigma.components.get(-n)
        if c is None:
            continue
        average, symbol = sphere_average(c), ClassicalSymbol(n, -n, {-n: c}, None)
        for mode in {key[0] for key in c.raw_terms()} | {(1,) * n}:
            got = measure * average.hat(mode)
            assert got == _normalized_residue_of_composition(
                symbol, exp_symbol(n, tuple(-x for x in mode)))
            checked += 1
            nonzero += not got.is_zero()
    assert checked >= 20 and nonzero >= 8


# -- the Gaussian-integer numerator kernel ------------------------------------------


class _RunAsItIs:
    """A system's coefficients left unlifted: every engine op runs on the
    coefficient class itself, and the one denominator (K!) is divided out
    with a ``Fraction``."""

    @staticmethod
    def lower(s, den):
        return s * Fraction(1, den)

    # the numerator map that keeps the coefficients, over den 1
    numerator_map = T._same_numerators


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


def test_residue_pairing_meets_a_mode_free_factor_at_level_zero_only():
    """D^gamma, gamma != 0, kills a right factor free of modes, so it meets
    only level 0: xi_1 |xi|^-2 against |xi|^50 would meet at level -1 + 50 +
    2 = 51, past the bound 43 at n = 2, and so would its level K enter the
    weights.  The residues are those of the compositions, in both orders."""
    cr = ComplexRational
    sigma = ClassicalSymbol(2, -1, {-1: HomogeneousComponent(2, -1, [(1, (0, 0), (1, 0), -2)])})
    tau = ClassicalSymbol(2, 50, {
        50: HomogeneousComponent(2, 50, [(cr(2), (0, 0), (0, 0), 50)]),
        -1: HomogeneousComponent(2, -1, [(cr(0, 3), (0, 0), (1, 0), -2)]),
    })
    st, ts = _residue_of_composition(sigma, tau), _residue_of_composition(tau, sigma)
    assert not st.is_zero()
    assert st == residue(compose(sigma, tau)) and ts == residue(compose(tau, sigma))
    assert trace_defect(sigma, tau) == st - ts


# -- the trace defect: both orderings in one pass -----------------------------------


def _calculus(s):
    """(compose, residue, single-ordering residue of a composition, trace defect)
    of the calculus a symbol belongs to."""
    if type(s) is ClassicalSymbol:
        return compose, residue, _residue_of_composition, trace_defect
    return nc_compose, nc_residue, _nc_residue_of_composition, nc_trace_defect


def _two_call_defect(s, t):
    """The trace defect as two single-ordering residues and their difference."""
    single = _calculus(s)[2]
    return single(s, t) - single(t, s)


def _assert_defect_by_composing(s, t):
    """The defect, and the residue of each ordering without composing, against
    the residues of the two full compositions, and the defect's one bag
    against the difference of the two orderings' bags; returns Res(s o t)."""
    comp, res, single, defect = _calculus(s)
    st, ts = res(comp(s, t)), res(comp(t, s))
    assert defect(s, t) == st - ts
    assert single(s, t) == st and single(t, s) == ts
    system, n, a, b = s._system, s.n, s._term_bags(), t._term_bags()
    bag = _pairing(system, n, a, b, commutator=True)
    assert all(x % 2 == 0 for alpha in bag for x in alpha)
    ab, ba = _pairing(system, n, a, b), _pairing(system, n, b, a)
    assert bag == {alpha: d for alpha in {**ab, **ba}
                   if (d := ab.get(alpha, system.zero) - ba.get(alpha, system.zero))}
    return st


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_defect_is_the_difference_of_the_composed_residues(n):
    # at n = 5, orders up to 2 would compose through order 9, past the gamma bound
    pairs = _classical_residue_pairs(n, 20, 700 + n, top=2 if n < 5 else 1)
    nonzero = sum(not _assert_defect_by_composing(a, b).is_zero() for a, b in pairs)
    assert nonzero >= 8


@pytest.mark.parametrize("theta", [Fraction(0), Fraction(1, 2), Fraction(2, 5), Fraction(5, 12),
                                   Fraction(7, 30)])
def test_nc_trace_defect_is_the_difference_of_the_composed_residues(theta):
    nonzero = sum(not _assert_defect_by_composing(a, b).is_zero()
                  for a, b in _twisted_residue_pairs(theta, 12, 710))
    assert nonzero >= 6


def _deepest_residue_pair(rng, n):
    """One-term factors of modes m and -m with 200-digit coefficients whose
    products reach degree -n at the deepest level K that ``MAX_GAMMA_COUNT``
    admits in n variables, in both orders (neither factor is a polynomial), and
    whose composition is trusted down to -n."""
    k = _deepest_order(n)
    mode = tuple((-1) ** j * (j + 1) for j in range(n))
    # |xi|^-1 against xi_1 |xi|^(K - 2) at n = 2 (K odd), |xi|^-2 against
    # xi_3^2 |xi|^(K - 5) at n = 3 (K even): the level-K products have even exponents
    a_deg, beta = (-1, (1, 0)) if n == 2 else (-2, (0, 0, 2))
    b_deg = k - n - a_deg
    cr = ComplexRational
    a = ClassicalSymbol(n, a_deg, {a_deg: HomogeneousComponent(
        n, a_deg, [(cr(_large(rng, 200), _large(rng, 200)), mode, (0,) * n, a_deg)])})
    b = ClassicalSymbol(n, b_deg, {b_deg: HomogeneousComponent(
        n, b_deg, [(cr(_large(rng, 200), _large(rng, 200)), tuple(-x for x in mode), beta,
                    b_deg - sum(beta))])}, b_deg - k)
    return a, b


def test_trace_defect_at_the_deepest_towers_with_long_coefficients(monkeypatch):
    """The defect against both compositions at K = 43 (n = 2) and 16 (n = 3),
    and the Gaussian numerators of every pairing packed at the width the proof
    of ``numerator_width`` gives for the factors, with no bit dropped."""
    calls, packed, pending = [], [], []
    width = T.numerator_width

    def recording(*args):
        calls.append((args, width(*args)))
        pending.append(calls[-1][1])
        return calls[-1][1]

    class Recording(T.PackedGaussians):
        def __init__(self, w):
            # (width, the width numerator_width gave it); a residue of one
            # symbol has no right factor and sizes its map without one
            packed.append((w, pending.pop() if pending else None))
            super().__init__(w)

    monkeypatch.setattr(T, "numerator_width", recording)
    monkeypatch.setattr(T, "PackedGaussians", Recording)
    rng = random.Random(17)
    for n in (2, 3):
        k = _deepest_order(n)
        a, b = _deepest_residue_pair(rng, n)
        for s, t in ((a, b), (b, a)):
            calls.clear()
            packed.clear()
            assert not _assert_defect_by_composing(s, t).is_zero()
            assert trace_defect(s, t).is_zero()
            pairings = [(args, w) for args, w in calls if args[-1] == k]
            assert len(pairings) >= 4  # the compositions, the defect, the single orderings
            for (n_, norm_a, norm_b, f_xi, f_mode, f_alpha, depth), w in pairings:
                # the norms are the factors' own: each is one lifted coefficient
                assert {norm_a, norm_b} <= {abs(x.a) + abs(x.b)
                                            for sym in (a, b) for bag in sym._term_bags().values()
                                            for x in bag.values()}
                span = min(2 * f_alpha + depth, T.MAX_CANONICAL_MONOMIALS // n_)
                assert w == 1 + (norm_a.bit_length() + norm_b.bit_length()
                                 + math.comb(depth + n_, n_).bit_length()
                                 + depth * (f_xi + 3 * depth).bit_length()
                                 + math.factorial(depth).bit_length()
                                 + depth * f_mode.bit_length() + span * (n_ - 1).bit_length())
            # each width numerator_width gives packs the next map; the only
            # other maps are those of the residues of the two compositions
            assert [w for w, sized in packed if sized is not None] == [w for _args, w in calls]
            assert all(w == sized for w, sized in packed if sized is not None)
            assert [sized for _w, sized in packed].count(None) == 2


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_trace_defect_refuses_as_the_two_call_form():
    """Each refusal of the one-pass defect, in either argument order, is the
    exception and message of the two single-ordering calls it replaces."""
    tower_refusal = ("composition needs xi-derivatives up to order {} in {} variables, more "
                     "than 1000 multi-indices; lower the orders of the factors")
    cases = []
    for theta in (Theta.from_rational(Fraction(2, 5)), Theta.from_float(0.4)):
        # the README's example: a pair that meets at level K + 1
        sigma = NCSymbol(theta, -1, {-1: [(1, (1, 1), (1, 0), -2)]}, None)
        tau = NCSymbol(theta, 43, {43: [(1, (-1, -1), (0, 0), 43)]}, None)
        refusal = (ValidationError, tower_refusal.format(44, 2))
        cases += [(sigma, tau, refusal), (tau, sigma, refusal)]
        shallow = NCSymbol(theta, 0, {0: [(1, (1, 0), (0, 0), 0)]}, 0)
        cases.append((shallow, sigma, (InsufficientExpansionError,
                                       "composition is only trusted down to degree -1, above -2")))
        other = NCSymbol(Theta.from_rational(Fraction(5, 12)), -1, {-1: [(1, (1, 1), (1, 0), -2)]})
        cases.append((sigma, other, (ValidationError, "twist mismatch in composition")))
    # e^(i x_1) xi_1 against e^(-i x_1) |xi|^43: the tower of the first, a
    # polynomial, vanishes before level 46, so only the second ordering is refused
    xi1 = ClassicalSymbol(2, 1, {1: HomogeneousComponent(2, 1, [(1, (1, 0), (1, 0), 0)])})
    tall = ClassicalSymbol(2, 43, {43: HomogeneousComponent(
        2, 43, [(ComplexRational(2, 1), (-1, 0), (0, 0), 43)])})
    refusal = (ValidationError, tower_refusal.format(46, 2))
    cases += [(xi1, tall, refusal), (tall, xi1, refusal)]
    # with e^(i x_1) |xi|^-1 beside xi_1, both orderings are refused, at different levels
    both = ClassicalSymbol(2, 1, {1: xi1.component(1), -1: HomogeneousComponent(
        2, -1, [(1, (1, 0), (0, 0), -1)])})
    cases += [(both, tall, (ValidationError, tower_refusal.format(44, 2))),
              (tall, both, (ValidationError, tower_refusal.format(46, 2)))]
    shallow = ClassicalSymbol(
        3, 0, {0: HomogeneousComponent(3, 0, [(1, (0, 0, 1), (0, 0, 0), 0)])}, 0)
    cases.append((shallow, shallow, (InsufficientExpansionError,
                                     "composition is only trusted down to degree 0, above -3")))
    twisted = NCSymbol(Theta.from_rational(Fraction(2, 5)), -1, {-1: [(1, (1, 1), (1, 0), -2)]})
    plane = ClassicalSymbol(2, -1, {-1: HomogeneousComponent(2, -1, [(1, (1, 1), (1, 0), -2)])})
    cases += [(plane, twisted, (TypeError, "cannot compose ClassicalSymbol with NCSymbol")),
              (twisted, plane, (TypeError, "cannot compose NCSymbol with ClassicalSymbol"))]
    for s, t, want in cases:
        assert _raised(_calculus(s)[3], s, t) == want == _raised(_two_call_defect, s, t)


@pytest.mark.parametrize("theta", [0.3, 0.4])
def test_float_trace_defect_stays_near_the_two_call_form(theta):
    """On pairs drawn as the ``nc-trace`` benchmark draws them, moved to a float
    twist, the one-pass defect is the two-call one up to rounding."""
    th = Theta.from_float(theta)
    checked = 0
    for exact in (Fraction(2, 5), Fraction(5, 12), Fraction(7, 30)):
        for a, b in _twisted_residue_pairs(exact, 12, 720):
            s, t = (NCSymbol(th, x.order, x.components, x.trusted_floor) for x in (a, b))
            got, want = nc_trace_defect(s, t).to_complex(), _two_call_defect(s, t).to_complex()
            scale = max(abs(_nc_residue_of_composition(x, y).to_complex())
                        for x, y in ((s, t), (t, s)))
            assert abs(got - want) <= 1e-12 * scale
            checked += scale > 0
    assert checked >= 12


# -- the residue path's set-up: one plan per factor -------------------------------


def _monomial(twist, n, mode, alpha, npow, coeff, floor):
    """The one-term symbol coeff e^(i mode.x) xi^alpha |xi|^npow (a word U^a V^b
    at a twist), trusted down to ``floor``."""
    deg = sum(alpha) + npow
    if twist is not None:
        return NCSymbol(twist, deg, {deg: [(coeff, mode, alpha, npow)]}, floor)
    comp = HomogeneousComponent(n, deg, [(coeff, mode, alpha, npow)])
    return ClassicalSymbol(n, deg, {deg: comp}, floor)


def _monomial_box(n, modes, degrees, top):
    """(mode, alpha, npow) for every mode u and -u, every degree and every alpha
    with |alpha| <= ``top``."""
    alphas = [al for s in range(top + 1) for al in itertools.product(range(s + 1), repeat=n)
              if sum(al) == s]
    modes = list(dict.fromkeys([*modes, *[tuple(-x for x in mode) for mode in modes]]))
    return [(mode, al, deg - sum(al)) for mode in modes for deg in degrees for al in alphas]


def _facing_monomial_pairs(twist, n, modes, degrees, top):
    """Every pair of box monomials of modes u and -u whose products reach
    degree -n, each trusted just deep enough for its partner, so that the
    composition is trusted down to -n."""
    box = _monomial_box(n, modes, degrees, top)
    coeffs = [ComplexRational(Fraction(3, 7), -1), ComplexRational(Fraction(-5, 2))]
    for i, (mode, alpha, npow) in enumerate(box):
        for j, (mode_b, beta, qpow) in enumerate(box):
            a_deg, b_deg = sum(alpha) + npow, sum(beta) + qpow
            if mode_b != tuple(-x for x in mode) or a_deg + b_deg < -n:
                continue
            yield (_monomial(twist, n, mode, alpha, npow, coeffs[i % 2], -n - b_deg),
                   _monomial(twist, n, mode_b, beta, qpow, coeffs[j % 2], -n - a_deg))


_MONOMIAL_BOXES = [
    (None, 2, [(0, 0), (1, 0), (1, -1), (0, 2)], [-2, -1, 0, 1], 1),
    (None, 3, [(0, 0, 0), (1, 0, -1), (0, 1, 1)], [-3, -2, -1, 0], 1),
    (Theta.from_rational(Fraction(2, 5)), 2, [(0, 0), (1, 0), (1, 1), (0, 2)], [-2, -1, 0, 1], 1),
    (Theta.from_rational(Fraction(5, 12)), 2, [(0, 0), (1, 0), (1, 1), (2, 1)], [-2, -1, 0, 1], 1),
    (Theta.from_rational(Fraction(7, 30)), 2, [(0, 0), (0, 1), (1, 2), (2, 1)], [-2, -1, 0, 1], 1),
]


def _sweep(box):
    """(pairs, nonzero, failures) over the facing monomial pairs of a box: the
    pair count, the count of nonzero residues Res(a o b), and per check the
    count of pairs that fail it: ``defect`` (the defect is not exactly 0),
    ``two-call`` (it is not the difference of the two single-ordering
    residues) and ``residue`` (an ordering's residue is not that of the full
    composition)."""
    twist, n, modes, degrees, top = box
    pairs = list(_facing_monomial_pairs(twist, n, modes, degrees, top))
    failures = dict.fromkeys(["defect", "two-call", "residue"], 0)
    nonzero = 0
    for a, b in pairs:
        comp, res, single, defect = _calculus(a)
        got = defect(a, b)
        failures["defect"] += not got.is_zero()
        failures["two-call"] += got != _two_call_defect(a, b)
        st = single(a, b)
        failures["residue"] += st != res(comp(a, b)) or single(b, a) != res(comp(b, a))
        nonzero += not st.is_zero()
    return len(pairs), nonzero, {check: k for check, k in failures.items() if k}


@pytest.mark.parametrize("box", _MONOMIAL_BOXES,
                         ids=["n=2", "n=3", "theta=2/5", "theta=5/12", "theta=7/30"])
def test_trace_defect_vanishes_on_every_facing_monomial_pair(box):
    """The defect is bilinear, so its vanishing on the monomials of a box is the
    trace property for every pair of symbols with terms in it; each ordering's
    residue is also that of the full composition."""
    pairs, nonzero, failures = _sweep(box)
    assert failures == {}
    assert pairs >= 500 and nonzero >= 100


def _weights_from_level_zero(passes):
    """The pass with every level weighted K!/1, level 0's weight, for K!/k!."""
    def mutant(system, keys, nums, orderings, den):
        return passes(system, keys, nums, [(walk, [w[0]] * len(w)) for walk, w in orderings],
                      den)
    return mutant


def _phase_from_the_wrong_entry(passes):
    """The pass with the phase of a left mode -v and a right mode v read from
    the left mode's first entry, -v_0, in place of its second, -v_1."""
    class WrongEntry:
        def __init__(self, system):
            phase = system.phase
            self.phase = None if phase is None else lambda _v, u: phase(-u, u)

    def mutant(system, *args):
        return passes(WrongEntry(system), *args)
    return mutant


def _both_orderings_added(passes):
    """The pass with b o a's weights +K!/k!, a o b's sign."""
    def mutant(system, keys, nums, orderings, den):
        return passes(system, keys, nums,
                      [(walk, [abs(x) for x in w]) for walk, w in orderings], den)
    return mutant


def _last_level_dropped(chain_of):
    """``_chain`` with the level that only ``_pairing_pass`` builds, the last
    level of a chain cut by parity, left empty."""
    def mutant(keys, bag, steps, top, cut=None):
        chain = chain_of(keys, bag, steps, top, cut)
        if cut is not None and len(chain) > top:
            chain[top] = {}
        return chain
    return mutant


def _parity_one_level_deeper(admits):
    """The parity rule read at level k + 1: it drops the meets whose level k
    reaches an even product, and keeps those whose products are all odd."""
    def mutant(left, right, supp, off, k):
        return admits(left, right, supp, off, k + 1)
    return mutant


# each mutant of the one-bag defect: the function of ``terms`` it replaces,
# how, the box it is swept on and the checks of the sweep it fails there
_MUTANTS = {
    "weight K!/1": ("_pairing_pass", _weights_from_level_zero, 0, {"residue"}),
    "phase entry": ("_pairing_pass", _phase_from_the_wrong_entry, 3, {"residue"}),
    "level dropped": ("_chain", _last_level_dropped, 0, {"residue"}),
    "sign": ("_pairing_pass", _both_orderings_added, 0, {"defect", "two-call"}),
    "parity k + 1": ("_parity_admits", _parity_one_level_deeper, 0, {"residue"}),
}


@pytest.mark.parametrize("mutant", _MUTANTS)
def test_each_mutant_of_the_one_bag_defect_fails_the_sweep(monkeypatch, mutant):
    """The sweep catches each mutant of the residue path, injected by
    replacing a function of ``terms`` with a mutated form that only that
    path reaches: the weights K!/1 in place of K!/k!, the phase read from
    the wrong mode entry, the last level of each chain (the step that
    ``_pairing_pass`` alone cuts by parity) dropped, and b o a added in
    place of subtracted.  The first three change both orderings alike, so
    they cancel in the defect and show only against the composition; the
    last shows only in the defect."""
    name, make, box, caught = _MUTANTS[mutant]
    monkeypatch.setattr(T, name, make(getattr(T, name)))
    _pairs, _nonzero, failures = _sweep(_MONOMIAL_BOXES[box])
    assert failures.keys() == caught


def test_a_term_that_faces_nothing_does_not_widen_the_residue_layout(monkeypatch):
    """Each factor gets a term whose mode faces no mode of the other and whose
    |alpha| + |npow| = 81 is past what the 8-bit layout holds at any depth
    (4 (F + K) must stay below 2^7): the residue path keeps the narrow
    layout, and the residues are those of the factors without that term."""
    def sym(terms):
        return ClassicalSymbol(2, -1, {-1: HomogeneousComponent(2, -1, terms)}, -3)

    cr = ComplexRational
    a_terms = [(cr(Fraction(3, 7), 2), (1, 0), (1, 0), -2)]
    b_terms = [(cr(-5), (-1, 0), (1, 0), -2)]
    a, b = sym(a_terms), sym(b_terms)
    wide_a = sym(a_terms + [(cr(1, 1), (2, 2), (0, 40), -41)])
    wide_b = sym(b_terms + [(cr(2), (0, 3), (40, 0), -41)])
    assert (4 * 81).bit_length() + 1 > T._TIER
    cases = [(wide_a, wide_b, a, b), (wide_b, wide_a, b, a), (wide_a, b, a, b), (a, wide_b, a, b)]
    want = [(_residue_of_composition(s, t), _residue_of_composition(t, s))
            for _ws, _wt, s, t in cases]
    assert all(not r.is_zero() for pair in want for r in pair)
    widths, layouts = [], []
    passes, keys_class = T._pairing_pass, T.Keys

    def recording_pass(system, keys, *args):
        widths.append(keys.width)
        return passes(system, keys, *args)

    class Recording(keys_class):
        def __init__(self, n, width):
            layouts.append(width)
            super().__init__(n, width)

    monkeypatch.setattr(T, "_pairing_pass", recording_pass)
    monkeypatch.setattr(T, "Keys", Recording)
    for (s, t, _s, _t), (st, ts) in zip(cases, want):
        assert _residue_of_composition(s, t) == st and _residue_of_composition(t, s) == ts
        assert trace_defect(s, t) == st - ts
    assert len(widths) == 12 and set(widths) == {T._TIER} and not layouts
    monkeypatch.undo()
    assert _residue_of_composition(wide_a, wide_b) == residue(compose(wide_a, wide_b))


def test_a_term_whose_meets_are_all_odd_builds_no_chain(monkeypatch):
    """The left factor gets two terms past what the 8-bit layout holds, each
    facing a small term of the other factor at level 1, where every product
    has an odd exponent: one meets an odd alpha_0 off its mode's axis, the
    other the same parities on its mode's axes, where level 1 flips one.
    Neither meet survives the parity rule, so the residue path keeps the
    narrow layout, hands the same bags to the numerator map and builds the
    same chains as without those terms, and the residues are theirs."""
    def sym(order, terms, floor):
        return ClassicalSymbol(2, order, {order: HomogeneousComponent(2, order, terms)}, floor)

    cr = ComplexRational
    a_terms = [(cr(Fraction(3, 7), 2), (1, 0), (1, 0), -2)]
    dead = [(cr(1, 1), (0, 2), (0, 40), -41), (cr(1, -1), (2, 1), (41, 0), -42)]
    a, wide_a = sym(-1, a_terms, -3), sym(-1, a_terms + dead, -3)
    b = sym(0, [(cr(-5), (-1, 0), (2, 0), -2), (cr(2), (0, -2), (1, 0), -1),
                (cr(3), (-2, -1), (1, 0), -1)], -2)
    assert (4 * 83).bit_length() + 1 > T._TIER
    st, ts = _residue_of_composition(a, b), _residue_of_composition(b, a)
    assert not st.is_zero() and not ts.is_zero()
    calls, layouts = [], []
    passes, mapping, chain_of, keys_class = (T._pairing_pass, T.RationalSystem.numerator_map,
                                             T._chain, T.Keys)

    def recording_pass(system, keys, *args):
        calls.append(("width", keys.width))
        return passes(system, keys, *args)

    def recording_map(left, right, *args):
        calls.append(("map", [list(bag.values()) for bag in left + right]))
        return mapping(left, right, *args)

    def recording_chain(keys, bag, steps, top, cut=None):
        calls.append(("chain", len(bag), top))
        return chain_of(keys, bag, steps, top, cut)

    class Recording(keys_class):
        def __init__(self, n, width):
            layouts.append(width)
            super().__init__(n, width)

    def run(s, t):
        calls.clear()
        got = [_residue_of_composition(s, t), _residue_of_composition(t, s), trace_defect(s, t)]
        return got, list(calls)

    monkeypatch.setattr(T, "_pairing_pass", recording_pass)
    monkeypatch.setattr(T.RationalSystem, "numerator_map", staticmethod(recording_map))
    monkeypatch.setattr(T, "_chain", recording_chain)
    monkeypatch.setattr(T, "Keys", Recording)
    want, want_calls = run(a, b)
    got, got_calls = run(wide_a, b)
    assert want == got == [st, ts, st - ts]
    assert got_calls == want_calls and not layouts
    assert ("width", T._TIER) in got_calls and any(c[0] == "chain" for c in got_calls)
    assert all(call[1] == T._TIER for call in got_calls if call[0] == "width")
    monkeypatch.undo()
    assert st == residue(compose(wide_a, b)) and ts == residue(compose(b, wide_a))


@pytest.mark.parametrize("n", [2, 3])
def test_a_term_past_the_narrow_layout_meets_by_its_true_parities(n):
    """e^(i x_0) xi_0^130 |xi|^(-129 - n), of order 1 - n, meets e^(-i x_0)
    xi_0 |xi|^-1 at level 1, where every product is even and the sphere sum
    is not zero.  In the 8-bit layout alpha_0 = 130 carries into alpha_1's
    low bit, which then reads odd: the parity rule must not read a layout
    that does not hold the term, so the meet sizes the width and each
    ordering's residue is that of the composition."""
    def sym(order, terms):
        return ClassicalSymbol(n, order, {order: HomogeneousComponent(n, order, terms)},
                               order - n - 1)

    e0 = (1,) + (0,) * (n - 1)
    a = sym(1 - n, [(ComplexRational(1), e0, (130,) + (0,) * (n - 1), -129 - n)])
    b = sym(0, [(ComplexRational(1), tuple(-x for x in e0), e0, -1)])
    assert 130 >= T.Keys(n, T._TIER).half
    st, ts = _residue_of_composition(a, b), _residue_of_composition(b, a)
    assert not st.is_zero() and not ts.is_zero()
    assert st == residue(compose(a, b)) and ts == residue(compose(b, a))
    assert trace_defect(a, b) == st - ts


def _reference_walks(keys, n, plans, commutator):
    """``_walks`` by scanning: for each ordering, every pair of degrees that
    the level rule admits at floor -n, against every pair of groups whose
    modes face, the parity rule read from each group's terms, and a meet
    with a group past the layout's ``half`` kept without it."""
    flip = 2 * (keys.offsets >> keys.mode_shifts[0])
    odd = (keys.offsets & keys.alpha_mask) >> (keys.width - 1)
    used, walks, deepest = ([], []), [], 0
    for i, j in ((0, 1), (1, 0)) if commutator else ((0, 1),):
        right = plans[j][0]
        fields = {field for _d, groups, _m in right for field in groups}
        walk, depth = [], 0
        for a_deg, groups, _m in plans[i][0]:
            faced = [(field, g) for field, g in groups.items() if flip - field in fields]
            polynomial = all(g[4] for _f, g in faced)
            admitted = [(b_deg, rgroups) for b_deg, rgroups, moving in right
                        if T._level(a_deg, b_deg, polynomial, moving, -n) == a_deg + b_deg + n
                        >= 0] if faced else []
            depth = max([depth] + [a_deg + b_deg + n for b_deg, _g in admitted])
            for field, g in faced:
                supp = sum(1 << keys.width * x for x, v in
                           enumerate(keys.fields(flip - field << keys.mode_shifts[0], n + 2,
                                                 2 * n + 2)) if v)
                kept, top, wanted = [], 0, None
                for b_deg, rgroups in admitted:
                    h, k = rgroups.get(flip - field), a_deg + b_deg + n
                    if h is None:
                        continue
                    classes = frozenset()
                    if g[3] < keys.half and h[3] < keys.half:
                        classes = frozenset(key & odd for key in h[0])
                        if not T._parity_admits(frozenset(key & odd for key in g[0]), classes,
                                                supp, odd ^ supp, k):
                            continue
                    kept.append((k, h[0]))
                    if k > top:
                        top, wanted = k, classes
                    if all(x is not h for x in used[j]):
                        used[j].append(h)
                if kept:
                    if all(x is not g for x in used[i]):
                        used[i].append(g)
                    walk.append((flip - field, g[0], top, kept, wanted))
        walks.append(walk)
        deepest = max(deepest, depth)
    sizes = tuple(max([0] + [g[x] for side in used for g in side]) for x in (1, 2, 3))
    return walks, deepest, tuple([g[0] for g in side] for side in used), sizes


def _walk_pairs():
    """(n, a, b): the seeded classical pairs at n = 2 and 3 and twisted ones
    at theta 2/5, 5/12 and 7/30, both ways round."""
    for n in (2, 3):
        for a, b in _classical_residue_pairs(n, 12, 400 + n):
            yield n, a._term_bags(), b._term_bags()
            yield n, b._term_bags(), a._term_bags()
    for theta in (Fraction(2, 5), Fraction(5, 12), Fraction(7, 30)):
        for a, b in _twisted_residue_pairs(theta, 12, 91):
            yield 2, a._term_bags(), b._term_bags()
            yield 2, b._term_bags(), a._term_bags()


def test_walk_lists_match_a_scan_of_every_admitted_pair():
    """``_walks``, which finds each meet through the other factor's mode
    index, keeps the entries, their order, each meet and its order, the
    deepest level and parities of each entry, K, and the groups put on
    numerators, in order, of a scan of every pair of degrees the level rule
    admits against every pair of facing groups; for one ordering and for a
    commutator."""
    meets = 0
    for n, comps_a, comps_b in _walk_pairs():
        keys = T._narrow_layout(n)
        for commutator in (False, True):
            want = _reference_walks(keys, n, [T._plan(keys, comps_a), T._plan(keys, comps_b)],
                                    commutator)
            got = T._walks(keys, n, [T._plan(keys, comps_a), T._plan(keys, comps_b)],
                           commutator)
            assert got == want
            meets += sum(len(entry[3]) for walk in got[0] for entry in walk)
    assert meets >= 300


def test_trace_defect_sets_each_factor_up_once(monkeypatch):
    """A ``trace_defect`` call packs and groups each factor in one pass, forms
    no ``GaussianInteger`` but the one sphere total of both orderings,
    whatever the number of terms, and builds no ``PiGradedScalar`` for its
    zero value."""
    counts = dict.fromkeys(["plan", "pack", "gaussian", "graded"], 0)

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    pairs = [(a, b) for a, b in _classical_residue_pairs(3, 12, 303)
             if not _residue_of_composition(a, b).is_zero()]
    assert len(pairs) >= 4 and max(len(bag) for a, _b in pairs
                                    for bag in a._term_bags().values()) >= 2
    monkeypatch.setattr(T, "_plan", counting("plan", T._plan))
    monkeypatch.setattr(T.Keys, "pack", counting("pack", T.Keys.pack))
    monkeypatch.setattr(GaussianInteger, "__init__",
                        counting("gaussian", GaussianInteger.__init__))
    monkeypatch.setattr(PiGradedScalar, "__init__", counting("graded", PiGradedScalar.__init__))
    monkeypatch.setattr(PiGradedScalar, "_graded", classmethod(
        counting("graded", PiGradedScalar._graded.__func__)))
    for a, b in pairs:
        trace_defect(a, b)  # the layout's memos now hold the sphere weights
        for key in counts:
            counts[key] = 0
        assert trace_defect(a, b).is_zero()
        assert counts == {"plan": 2, "pack": 0, "gaussian": 1, "graded": 0}


@pytest.mark.parametrize("n", [2, 3])
def test_numerator_kernel_matches_unlifted_path(n):
    rng = random.Random(500 + n)
    emitted = nonzero = 0
    for i in range(5):
        raw_a, raw_b, a, b = _classical_pair(rng, n)
        ca, cb = _coprime_bags(rng, raw_a), _coprime_bags(rng, raw_b)
        floor = _floor(a, b)
        emitted += len(_assert_same_as_unlifted(n, ca, cb, floor))
        _assert_same_as_unlifted(n, ca, cb, _shallow_floor(ca, cb, i % 3))
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


def _numerators(system, comps, depth=0):
    """(layout, packed bags, numerator map, den): the bags of ``comps``
    packed and lifted onto numerators by the system's ``numerator_map``,
    as one factor with no right factor, as a sphere integral takes them."""
    keys, bags, sizes = T._pack_sized(2, list(comps.values()), depth)
    nums, den = system.numerator_map(bags, [], 2, sizes, depth)
    return keys, bags, nums, den


def test_numerator_lift_and_lower_round_trip():
    """Each coefficient (a + bi) / d becomes one ``int``, the image of the
    Gaussian integer (a + bi) (den / d), den the lcm of the denominators,
    and ``lower`` takes it back exactly."""
    system = T.RATIONAL_SYSTEM
    key = ((0, 0), (0, 0), 0)
    comps = {0: {key: ComplexRational(Fraction(3, 1000003), Fraction(-5, 7))},
             -1: {key: ComplexRational(Fraction(1, 2))}}
    keys, bags, nums, den = _numerators(system, comps)
    assert den == 1000003 * 7 * 2
    for bag, want in zip(bags, comps.values()):
        [num], [s] = bag.values(), want.values()
        assert type(num) is int
        k = den // s.den
        assert nums.total([num], [1]) == GaussianInteger(s.a * k, s.b * k)
        assert system.lower(nums.total([num], [1]), den) == s
        assert nums.lower(keys, [bag], den) == want


def test_gaussian_integer_weights_divide_exactly():
    # a weight w/gamma! applied as the integer w * (K!/gamma!), with K! in the
    # denominator, lowers to the coefficient times the Fraction weight
    system = T.RATIONAL_SYSTEM
    key = ((0, 0), (0, 0), 0)
    s = ComplexRational(Fraction(3, 10), Fraction(-5, 7))
    keys, [bag], nums, den = _numerators(system, {0: {key: s}}, depth=7)
    [(packed, num)] = bag.items()
    assert den == 70 and nums.total([num], [1]) == GaussianInteger(21, -50)
    for k, gamma, w in ((3, (2, 1), -5), (4, (0, 2), 9), (7, (3, 3), 1)):
        scale = math.factorial(k)
        weighted = num * (w * (scale // gamma_factorial(gamma)))
        want = s * Fraction(w, gamma_factorial(gamma))
        assert system.lower(nums.total([weighted], [1]), den * scale) == want
        assert nums.lower(keys, [{packed: weighted}], den * scale) == {key: want}


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
        for floor_ in (floor, _shallow_floor(ca, cb, i % 3)):
            got = T.compose_components(system, 2, ca, cb, floor_)
            assert _sorted_repr(got) == _sorted_repr(
                T.compose_components(unlifted, 2, ca, cb, floor_))
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
    keys, bags, nums, den = _numerators(system, comps)
    assert den == 1000003 * 7 * 2
    for bag, want in zip(bags, comps.values()):
        for n, s in zip(bag.values(), want.values()):
            if s.order == 1:  # a rational numerator runs as a plain int
                assert type(n) is int and n == 1000003 * 7
            else:
                assert type(n) is CyclotomicInteger and n.order == s.order
                assert all(type(c) is int for c in n.coeffs)
            assert repr(system.lower(n, den)) == repr(s)
        assert repr(nums.lower(keys, [bag], den)) == repr(want)


def test_cyclotomic_lower_takes_an_int_as_order_one():
    system = T.CyclotomicSystem(5, 12)
    for k, den in ((6, 4), (-9, 6), (0, 5), (7, 1), (3 * 10**40, 10**41)):
        got = system.lower(k, den)
        want = system.lower(CyclotomicInteger(1, [k]), den)
        assert repr(got) == repr(want) and (got.num.coeffs, got.den) == (want.num.coeffs, want.den)
        assert type(got.num.coeffs[0]) is int and got.order == 1


def test_cyclotomic_numerator_map_writes_the_numerators_in_place():
    """Each factor's packed bags take their numerators over the lcm of that
    factor's denominators, in the same dicts: an int at order 1, a
    CyclotomicInteger at its stored order otherwise."""
    system = T.CyclotomicSystem(2, 5)
    left = [{1: CyclotomicScalar(1, [Fraction(3, 4)]),
             2: CyclotomicScalar(5, [Fraction(1, 6), 0, 1, 0])}, {}]
    right = [{3: CyclotomicScalar(1, [Fraction(-5, 9)]),
              4: CyclotomicScalar(12, [0, 0, Fraction(1, 3), 0])}]
    bags = [*left, *right]
    nums, den = system.numerator_map(left, right, 2, (0, 0, 0), 0)
    assert den == 12 * 9 and [*left, *right] == bags and all(
        x is y for x, y in zip([*left, *right], bags))
    assert left == [{1: 9, 2: CyclotomicInteger(5, [2, 0, 12, 0])}, {}]
    assert right == [{3: -5, 4: CyclotomicInteger(12, [0, 0, 3, 0])}]
    assert [type(v) for bag in bags for v in bag.values()] == [
        int, CyclotomicInteger, int, CyclotomicInteger]
    assert right[0][4].order == 12


def test_cyclotomic_integer_weights_divide_exactly():
    system = T.CyclotomicSystem(2, 5)
    value = CyclotomicScalar(5, [Fraction(1, 3), 0, Fraction(2, 3), 0])
    _keys, [bag], _nums, den = _numerators(system, {0: {((0, 0), (0, 0), 0): value}})
    [s] = bag.values()
    assert den == 3 and s.coeffs == [1, 0, 2, 0]
    # the integer weight w * (K!/gamma!) over den * K! is the Fraction weight w/gamma!
    scale = math.factorial(5)
    weighted = s * (-4 * (scale // gamma_factorial((1, 2))))
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
            for beta in compositions(n, k):
                m = math.factorial(k) // gamma_factorial(beta)
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


def _alphas(n, top, step=1):
    """Every alpha of length n with |alpha| <= top and entries multiples of step."""
    return [a for a in itertools.product(range(0, top + 1, step), repeat=n) if sum(a) <= top]


@pytest.mark.parametrize("width", [8, 16])
def test_sphere_weight_memo_matches_the_monomial_integrals(width):
    """Through a narrow and a wide layout, the ``sphere`` memo's weight of every
    even alpha with |alpha| <= 12 at n = 2 .. 5, times pi^(n // 2), is the
    monomial's integral over S^(n-1); that of an odd alpha is zero."""
    for n in (2, 3, 4, 5):
        keys = T.Keys(n, width)
        odd = [alpha for alpha in _alphas(n, 5) if any(x % 2 for x in alpha)]
        for alpha in _alphas(n, 12, 2) + odd:
            part = keys.pack_alpha(alpha)[1] & keys.alpha_mask
            c, d = keys.sphere_weight(part)
            assert keys.sphere[part] == (c, d)
            assert d > 0 and math.gcd(c, d) == 1
            assert PiGradedScalar(Fraction(c, d), n // 2) == sphere_monomial_integral(alpha, n)
            assert bool(c) != (alpha in odd)


def test_sphere_weight_memo_starts_afresh_when_full(monkeypatch):
    monkeypatch.setattr(T, "_MEMO_FIELDS", 12)
    keys = T.Keys(3, 8)
    assert keys.memo_limit == 4
    seen = {}
    for _ in range(2):
        for alpha in _alphas(3, 8, 2):
            part = keys.pack_alpha(alpha)[1] & keys.alpha_mask
            w = keys.sphere.get(part) or keys.sphere_weight(part)
            assert len(keys.sphere) <= 4 and keys.sphere[part] == w
            assert seen.setdefault(alpha, w) == w
            assert PiGradedScalar(Fraction(*w), 1) == sphere_monomial_integral(alpha, 3)
    assert len(seen) == 35


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


# -- Gaussian numerators as ints -------------------------------------------------------


_KEY = ((1, -2), (0, 3), -1)  # the key the numerators below are lowered under


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 400), st.data())
def test_packed_gaussians_pack_reduce_and_lower_round_trip(width, data):
    ints = T.PackedGaussians(width)
    edge = 2 ** (width - 1) - 1
    part = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0]))
    z = GaussianInteger(data.draw(part), data.draw(part))
    den = data.draw(st.sampled_from([1, 2, 6, 35, 2**64 + 13]))
    v = ints.pack(z)
    # the packed value is its own balanced representative, of every lift
    shift = data.draw(st.integers(-3, 3)) * ints.modulus
    keys, [[k]] = T.pack_terms(2, [{_KEY: 0}])
    assert ints.reduce({k: v + shift}) == ({k: v} if z else {})
    want = {_KEY: ComplexRational(Fraction(z.re, den), Fraction(z.im, den))} if z else {}
    assert ints.lower(keys, [ints.reduce({k: v})], den) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_packed_gaussian_arithmetic_matches_gaussian_integers(data):
    n = data.draw(st.sampled_from([2, 3, 8, 64]))
    norms = [data.draw(st.one_of(st.integers(1, 9), st.integers(1, 10**300))) for _ in range(2)]
    f_xi = data.draw(st.integers(0, 40))
    sizes = [f_xi, data.draw(st.sampled_from([0, 1, 7, 10**300])), data.draw(st.integers(0, f_xi))]
    width = T.numerator_width(n, *norms, *sizes, data.draw(st.integers(0, 6)))
    ints = T.PackedGaussians(width)
    # parts below 2^((w - 4) / 2): z0 z1 + c z2 z3 - z4 stays below 2^(w - 1)
    limit = 2 ** ((width - 4) // 2)
    part = st.one_of(st.integers(-limit, limit), st.sampled_from([limit, -limit, 0]))
    zs = [GaussianInteger(data.draw(part), data.draw(part)) for _ in range(5)]
    c = data.draw(st.integers(-2, 2))
    want = zs[0] * zs[1] + zs[2] * zs[3] * c + -zs[4]
    p = [ints.pack(z) for z in zs]
    # formed on the ints unreduced, as the engine does, and reduced once
    keys, [[k]] = T.pack_terms(2, [{_KEY: 0}])
    got = ints.lower(keys, [ints.reduce({k: p[0] * p[1] + p[2] * p[3] * c + -p[4]})], 1)
    assert got == ({_KEY: ComplexRational(want.re, want.im)} if want else {})


def _assert_lowest_and_shared(bag: dict) -> None:
    """Each coefficient is a nonzero (a + bi) / den in lowest terms, and equal
    ones are one object."""
    first = {}
    for s in bag.values():
        assert type(s) is ComplexRational and s
        assert s.den > 0 and math.gcd(s.a, s.b, s.den) == 1
        assert first.setdefault((s.a, s.b, s.den), s) is s


def test_packed_gaussians_lower_builds_each_value_once():
    ints = T.PackedGaussians(16)
    keys, [bag] = T.pack_terms(2, [{((j, 0), (0, 0), 0): 0 for j in range(6)}])
    packed = list(bag)
    # over den 12: 1 + 5i repeats with gcd 1, 6 - 4i with gcd 2 and 4i with gcd 4
    values = [(1, 5), (6, -4), (1, 5), (0, 4), (6, -4), (0, 4)]
    # one group per key: the keys differ in their modes
    got = ints.lower(keys, [{k: ints.pack(GaussianInteger(*z))}
                            for k, z in zip(packed, values)], 12)
    want = [ComplexRational(Fraction(a, 12), Fraction(b, 12)) for a, b in values]
    assert list(got.values()) == want
    _assert_lowest_and_shared(got)
    assert len({id(s) for s in got.values()}) == 3
    assert [(s.a, s.b, s.den) for s in got.values()][:2] == [(1, 5, 12), (3, -2, 6)]


def test_a_value_shared_by_two_degrees_is_built_once(monkeypatch):
    """``compose_components`` lowers every degree over one den, and its
    numerator map keeps one table of values: a coefficient that two
    degrees share is made once, and both hold the one object."""
    cr, zero = ComplexRational, (0, 0)
    left = {0: {(zero, zero, 0): cr(2)}}
    right = {-2: {((1, 0), zero, -2): cr(Fraction(1, 4)), ((0, 1), (1, 0), -3): cr(1, 1)},
             -3: {((1, 1), (0, 1), -4): cr(Fraction(1, 4)), ((2, 0), zero, -3): cr(1, 1)}}
    made = []
    make = ComplexRational._make
    monkeypatch.setattr(ComplexRational, "_make", classmethod(
        lambda cls, *args: made.append(args) or make(*args)))
    got = T.compose_components(T.RATIONAL_SYSTEM, 2, left, right, None)
    assert made == [(1, 0, 2), (2, 2, 1)]
    monkeypatch.undo()
    assert got == {d: {key: s * 2 for key, s in bag.items()} for d, bag in right.items()}
    assert got[-2][((1, 0), zero, -2)] is got[-3][((1, 1), (0, 1), -4)]
    assert got[-2][((0, 1), (1, 0), -3)] is got[-3][((2, 0), zero, -3)]


@pytest.mark.parametrize("c", [1, 2, Fraction(1, 3)])
def test_composed_coefficients_are_in_lowest_terms(c):
    """A constant left factor c meets right terms of distinct modes whose
    coefficients repeat: the lifted products repeat, with gcd 1 against the
    common denominator (c = 1: 1/4) and with gcd > 1 (c = 2: 2/4, and 4 + 4i
    over 4 for every c), and each lowers to one shared value."""
    cr, zero = ComplexRational, (0, 0)
    left = {0: {(zero, zero, 0): cr(c)}}
    right = {-2: {((1, 0), zero, -2): cr(Fraction(1, 4)), ((0, 1), zero, -2): cr(Fraction(1, 4)),
                  ((1, 1), zero, -2): cr(1, 1), ((2, 0), zero, -2): cr(1, 1),
                  ((0, 2), zero, -2): cr(0)}}
    got = T.compose_components(T.RATIONAL_SYSTEM, 2, left, right, None)
    [bag] = got.values()
    _assert_lowest_and_shared(bag)
    assert bag == {key: s * c for key, s in right[-2].items() if s}
    assert bag[((1, 0), zero, -2)] is bag[((0, 1), zero, -2)]
    assert bag[((1, 1), zero, -2)] is bag[((2, 0), zero, -2)]


def test_composed_coefficients_of_random_pairs_are_in_lowest_terms():
    # with the weights K!/k! over K! in the denominator
    rng = random.Random(310)
    for n in (2, 3):
        for _ in range(4):
            ca, cb, a, b = _classical_pair(rng, n)
            for bag in T.compose_components(T.RATIONAL_SYSTEM, n, ca, cb, _floor(a, b)).values():
                _assert_lowest_and_shared(bag)


def test_numerator_width_bounds_canonical_growth_by_alpha(monkeypatch):
    # xi_1 |xi|^(2^20) e^(i x_1) has F_xi = 2^20 + 1, and no term of the pair has
    # |alpha| > 2: canonical form grows by n^s with s <= 2A + K, not 2 F_xi + K
    # (the bound with A = F_xi)
    widths = []
    width = T.numerator_width

    def recording(n, norm_a, norm_b, f_xi, f_mode, f_alpha, depth):
        new = width(n, norm_a, norm_b, f_xi, f_mode, f_alpha, depth)
        widths.append((new, width(n, norm_a, norm_b, f_xi, f_mode, f_xi, depth)))
        return new

    monkeypatch.setattr(T, "numerator_width", recording)
    big, cr = 2**20, ComplexRational
    a = {big + 1: {((1, 0), (1, 0), big): cr(3, -1)}}
    b = {0: {((-1, 0), (0, 0), 0): cr(1), ((-1, 0), (0, 2), -2): cr(0, Fraction(2, 3)),
             ((0, 0), (1, 1), -2): cr(1)},
         -1: {((0, 1), (1, 0), -2): cr(Fraction(1, 2))}}
    for s, t in ((a, b), (b, a)):
        assert _assert_same_as_unlifted(2, s, t, big - 3)
        assert _assert_same_as_unlifted(2, s, t, _shallow_floor(s, t, 3))
    assert len(widths) == 4
    assert all(new < 200 and old > 50_000 for new, old in widths)


def _large(rng, digits=300):
    """A rational part of about ``digits`` digits over a mixed denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits),
                    rng.choice([1, 3, 77, 2**64 + 13, 10**40 + 9]))


def _assert_matches_reference(n, a, b, floor=None):
    if floor is None:
        keep, kmax = (lambda d, k: True), None
    else:
        keep, kmax = (lambda d, k: d >= floor), max(x + y for x in a for y in b) - floor
    got = T.compose_components(T.RATIONAL_SYSTEM, n, a, b, floor)
    assert got
    assert got == reference_compose(T.RATIONAL_SYSTEM, n, a, b, keep, kmax)
    return got


def test_compose_at_the_numerator_width_edges_matches_the_reference():
    rng = random.Random(15)
    cr = ComplexRational
    # constants: no derivative, no canonical form, so the product of the two
    # 300-digit numerators is all the width holds, within a few bits
    for _ in range(4):
        a = {0: {((0, 0), (0, 0), 0): cr(_large(rng), _large(rng))}}
        b = {0: {((0, 0), (0, 0), 0): cr(_large(rng), 0)}}
        _assert_matches_reference(2, a, b)
    # 300-digit numerators over mixed denominators, against a 300-digit mode
    big = 10**299 + 3
    for n in (2, 3):
        z = (0,) * n
        a = {0: {((big,) + z[1:], (1,) + z[1:], -1): cr(_large(rng), _large(rng)),
                 ((-3,) + z[1:], z[1:] + (2,), -2): cr(_large(rng))},
             -1: {(z[1:] + (2,), z, -1): cr(0, _large(rng))}}
        b = {1: {((-big,) + z[1:], (0, 1) + z[2:], 0): cr(_large(rng), _large(rng)),
                 (z, z, 1): cr(_large(rng), -1)}}
        for s, t in ((a, b), (b, a)):
            _assert_matches_reference(n, s, t, floor=-3)
    # dimension 8, large numerators
    mode = (1,) + (0,) * 6 + (-2,)
    a = {1: {(mode, (1,) + (0,) * 7, 0): cr(_large(rng), _large(rng))}}
    b = {-1: {((0, 3) + (0,) * 6, (0,) * 7 + (1,), -2): cr(_large(rng), _large(rng))}}
    for s, t in ((a, b), (b, a)):
        _assert_matches_reference(8, s, t, floor=-2)


def test_compose_at_the_deepest_tower_matches_the_reference():
    # order 43 in 2 variables, the deepest MAX_GAMMA_COUNT admits, on a left
    # factor with a large |xi| power, so the tower and the weights both grow
    rng = random.Random(16)
    k = _deepest_order(2)
    cr = ComplexRational
    a = {-9: {((1, -2), (1, 0), -10): cr(_large(rng, 200), _large(rng, 200))}}
    b = {0: {((-1, 2), (0, 0), 0): cr(_large(rng, 200)),
             ((3, 1), (0, 2), -2): cr(0, _large(rng, 200))}}
    got = _assert_matches_reference(2, a, b, floor=-9 - k)
    assert min(got) == -9 - k


@pytest.mark.parametrize("n, h", [(2, 6), (3, 10), (8, 8)])
def test_compose_whose_canonical_form_expands_matches_the_reference(n, h):
    # xi_1^(2h+1) and e^(i x_1) xi_2 |xi|^(2h), times 1 + e^(-i x_1): canonical
    # form of the mode-zero product writes xi_2 |xi|^(2h) out as xi_2 R^h, whose
    # multinomial coefficients the width must hold beside the numerators
    z = (0,) * n
    e1 = (1,) + z[1:]
    a = {2 * h + 1: {(z, (2 * h + 1,) + z[1:], 0): ComplexRational(1),
                     (e1, (0, 1) + z[2:], 2 * h): ComplexRational(1)}}
    b = {0: {(z, z, 0): ComplexRational(1), (tuple(-x for x in e1), z, 0): ComplexRational(1)}}
    got = _assert_matches_reference(n, a, b, floor=_shallow_floor(a, b, 0))
    coefficient = max(abs(s.re) for s in got[2 * h + 1].values())
    assert coefficient == math.factorial(h) // prod(
        math.factorial(h // n + (j < h % n)) for j in range(n))


# -- composition against the literal gamma-sum -------------------------------------------


def _d_xi(bag, j):
    """d/d(xi_j) of a tuple-keyed bag, term by term: xi_j^a |xi|^p goes to
    a xi_j^(a-1) |xi|^p + p xi_j^(a+1) |xi|^(p-2)."""
    out = {}
    for (mode, alpha, p), s in bag.items():
        if alpha[j]:
            T.bag_add(out, (mode, T._bump(alpha, j, -1), p), s * alpha[j])
        if p:
            T.bag_add(out, (mode, T._bump(alpha, j, 1), p - 2), s * p)
    return out


def _literal_gamma_sum(system, n, comps_a, comps_b, floor, kmax):
    """The raw degree bags of sum_gamma (1/gamma!) (d_xi^gamma a)(D^gamma b)
    down to ``floor``, one multi-index gamma with |gamma| <= ``kmax`` and one
    pair of terms at a time, with the ``Fraction`` weight mode^gamma / gamma!
    of the right term; ``kmax=None`` runs until the derivatives vanish."""
    phase = system.phase
    out = {}
    for a_deg, a_terms in comps_a.items():
        level, k = {(0,) * n: a_terms}, 0
        while level and (kmax is None or k <= kmax):
            for gamma, left in level.items():
                fact = gamma_factorial(gamma)
                for b_deg, b_terms in comps_b.items():
                    if floor is not None and a_deg + b_deg - k < floor:
                        continue
                    bucket = out.setdefault(a_deg + b_deg - k, {})
                    for (m2, a2, p2), s2 in b_terms.items():
                        w = Fraction(prod(v**g for v, g in zip(m2, gamma)), fact)
                        if not w:
                            continue
                        for (m1, a1, p1), s1 in left.items():
                            s = s1 * (s2 * w)
                            ph = None if phase is None else phase(m1[1], m2[0])
                            if ph is not None:
                                s = s * ph
                            key = (tuple(x + y for x, y in zip(m1, m2)),
                                   tuple(x + y for x, y in zip(a1, a2)), p1 + p2)
                            T.bag_add(bucket, key, s)
            nxt = {}
            for gamma, d in level.items():
                for j in range(n):
                    up = T._bump(gamma, j, 1)
                    if up not in nxt and (dd := _d_xi(d, j)):
                        nxt[up] = dd  # the partials commute: any path to gamma will do
            level, k = nxt, k + 1
    return out


def _canonical_degrees(canonical, n, raw):
    result = {d: canonical(n, d, bag) for d, bag in raw.items()}
    return {d: ct for d, ct in result.items() if ct}


def _regrouped_by_mode(rng, bags, n):
    """The bags with each term moved onto the least mode of its component or
    onto mode zero, next to twice the term times xi_1 |xi|^-1, so a component
    holds several terms of one mode and often some of mode zero."""
    out = {}
    for d, bag in bags.items():
        choices = [min(m for (m, _a, _p) in bag), (0,) * n]
        moved = out.setdefault(d, {})
        for (_mode, alpha, p), s in sorted(bag.items(), key=lambda item: item[0]):
            mode = rng.choice(choices)
            T.bag_add(moved, (mode, alpha, p), s)
            T.bag_add(moved, (mode, T._bump(alpha, 0, 1), p - 1), s * 2)
    return {d: bag for d, bag in out.items() if bag}


@pytest.mark.parametrize("n, theta", [(2, None), (3, None), (2, Fraction(2, 5)),
                                      (2, Fraction(7, 30))])
def test_compose_matches_the_literal_gamma_sum(n, theta):
    # each right mode's gamma-series is summed as (K!/k!) (v . grad_xi)^k a: the
    # result is the literal sum over multi-indices, canonicalized by expanding then
    # dividing.  A twisted coefficient keeps the lcm of the orders of what was
    # summed into it, so its storage order depends on the order of the sums; the
    # literal sum canonicalized as the engine does it also matches by repr, which
    # shows those orders (expanding then dividing sums in another order, and at a
    # few seeds leaves the same value at another order)
    if theta is None:
        system, th = T.RATIONAL_SYSTEM, None
    else:
        system, th = T.CyclotomicSystem(theta.numerator, theta.denominator), Theta.from_rational(theta)
    rng = random.Random(f"literal {n} {theta}")
    several = mode_zero = 0
    for i in range(3):
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        a, b = (random_symbol(rng.getrandbits(32), dim=n, order=m, depth=m1 + n + m2,
                              max_mode=2, max_alpha=2, theta=th) for m in (m1, m2))
        ca, cb = a._term_bags(), _regrouped_by_mode(rng, b._term_bags(), n)
        for bag in cb.values():
            modes = [mode for (mode, _a, _p) in bag]
            several += len(modes) > len(set(modes))
            mode_zero += (0,) * n in modes
        floor = _floor(a, b)
        poly = {d: {key: system.coerce(s) for key, s in bag.items()}
                for d, bag in _polynomial_bags(rng, n, 1 + i).items()}
        free = {d: {((0,) * n, al, p): s for (_m, al, p), s in bag.items()}
                for d, bag in cb.items()}
        cases = [(ca, cb, floor, max(x + y for x in ca for y in cb) - floor)]
        cases += [(ca, cb, _shallow_floor(ca, cb, depth), depth) for depth in range(4)]
        # complete: a polynomial left factor's tower ends, a mode-free right factor
        # meets level 0 only (the literal sum runs two levels past it, to zeros)
        cases += [(poly, cb, None, None), (ca, free, None, 2)]
        for s, t, fl, kmax in cases:
            got = T.compose_components(system, n, s, t, fl)
            raw = _literal_gamma_sum(system, n, s, t, fl, kmax)
            assert got == _canonical_degrees(_reference_canonical, n, raw)
            assert _sorted_repr(got) == _sorted_repr(_canonical_degrees(T.canonical_terms, n, raw))
    assert several and mode_zero


# -- the certificate of canonical form -----------------------------------------------


def _count_divisions(monkeypatch):
    """A list that grows by one at each trial division by the sum of squares."""
    calls = []
    divide = T._divide_by_sum_sq

    def counting(*args):
        calls.append(1)
        return divide(*args)

    monkeypatch.setattr(T, "_divide_by_sum_sq", counting)
    return calls


def _bags_of(terms):
    """Degree bags of (re, im, mode, alpha, npow) terms, as complex rationals."""
    out = {}
    for re, im, mode, alpha, npow in terms:
        T.bag_add(out.setdefault(sum(alpha) + npow, {}), (mode, alpha, npow),
                  ComplexRational(re, im))
    return out


# (xi_1 + i xi_2) o (xi_1 - i xi_2) = |xi|^2 at n = 2; at n = 3, sigma = (xi_1 + i
# xi_2) e^(i x_1) + xi_3 e^(i x_2) and tau = ((xi_1 - i xi_2) e^(i x_2) + xi_3 e^(i
# x_1)) |xi|^-2 give 1 at mode (1, 1, 0).  Each of those groups is a multiple of R, so
# it vanishes at the null point and is divided
_DIVISIBLE = {
    "n=2": (2, [(1, 0, (0, 0), (1, 0), 0), (0, 1, (0, 0), (0, 1), 0)],
            [(1, 0, (0, 0), (1, 0), 0), (0, -1, (0, 0), (0, 1), 0)], None),
    "n=3": (3, [(1, 0, (1, 0, 0), (1, 0, 0), 0), (0, 1, (1, 0, 0), (0, 1, 0), 0),
                (1, 0, (0, 1, 0), (0, 0, 1), 0)],
            [(1, 0, (0, 1, 0), (1, 0, 0), -2), (0, -1, (0, 1, 0), (0, 1, 0), -2),
             (1, 0, (1, 0, 0), (0, 0, 1), -2)], -4),
}

# linear forms through the null points (-1, i) and (4, 3, 5i): i xi_1 + xi_2 and
# 3 xi_1 - 4 xi_2, times xi_1^2 |xi|^-2, over a second shell xi_2; the lowest shell
# vanishes at the null point, and R does not divide it
_THROUGH_THE_NULL_POINT = {
    "n=2": (2, [(0, 1, (1, 0), (3, 0), -2), (1, 0, (1, 0), (2, 1), -2),
                (2, 0, (1, 0), (0, 1), 0)]),
    "n=3": (3, [(3, 0, (0, 1, 1), (3, 0, 0), -2), (-4, 0, (0, 1, 1), (2, 1, 0), -2),
                (2, -1, (0, 1, 1), (0, 1, 0), 0)]),
}


def _one(n):
    return {0: {((0,) * n, (0,) * n, 0): ComplexRational(1)}}


@pytest.mark.parametrize("case", sorted(_DIVISIBLE))
def test_canonical_form_divides_groups_that_the_certificate_cannot_settle(monkeypatch, case):
    n, left, right, floor = _DIVISIBLE[case]
    a, b = _bags_of(left), _bags_of(right)
    calls = _count_divisions(monkeypatch)
    got = T.compose_components(T.RATIONAL_SYSTEM, n, a, b, floor)
    assert calls
    kmax = None if floor is None else max(x + y for x in a for y in b) - floor
    raw = _literal_gamma_sum(T.RATIONAL_SYSTEM, n, a, b, floor, kmax)
    assert got == _canonical_degrees(_reference_canonical, n, raw)
    one = ComplexRational(1)
    if n == 2:
        assert got == {2: {((0, 0), (0, 0), 2): one}}
    else:
        assert got[0][((1, 1, 0), (0, 0, 0), 0)] == one


@pytest.mark.parametrize("case", sorted(_THROUGH_THE_NULL_POINT))
def test_a_shell_through_the_null_point_falls_back_to_division(monkeypatch, case):
    n, left = _THROUGH_THE_NULL_POINT[case]
    a = _bags_of(left)
    calls = _count_divisions(monkeypatch)
    got = T.compose_components(T.RATIONAL_SYSTEM, n, a, _one(n), None)
    assert len(calls) == 1  # divided once, and the division fails
    assert got == _canonical_degrees(_reference_canonical, n, a)
    assert {p for (_m, _a, p) in got[1]} == {-2}  # expanded onto the lowest shell


def test_the_certificate_evaluates_at_a_zero_of_the_sum_of_squares():
    assert T._null_point(1) == (0,)
    assert T._null_point(2) == (-1, 1) and T._null_point(3) == (4, 3, 5)
    for n in range(1, 9):
        *real, imag = T._null_point(n)
        assert sum(x * x for x in real) == imag * imag  # the last coordinate is imag * i
    rng = random.Random(2101)
    ints = T.PackedGaussians(40)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            q = _random_poly(rng, _gaussian, n, rng.randint(0, 4), rng.randint(1, 4))
            alpha = next(iter(_random_poly(rng, lambda _rng: 1, n, rng.randint(0, 3), 1)))
            shells = [_times_sum_sq(q, n), {alpha: GaussianInteger(2, -1)}]
            keys, packed = T.pack_terms(n, [{((0,) * n, alpha, 0): ints.pack(s)
                                             for alpha, s in shell.items()} for shell in shells])
            divisible, monomial = packed
            assert not ints.certify(keys, divisible)  # a multiple of R vanishes at z
            # no monomial vanishes at z, but at n = 1 z is the origin
            assert ints.certify(keys, monomial) == (n > 1 or not any(alpha))
    # a linear form through z vanishes there, a nonzero multiple of it elsewhere does not
    keys, [through, off] = T.pack_terms(3, [
        {((0,) * 3, (1, 0, 0), 0): ints.pack(GaussianInteger(3, 0)),
         ((0,) * 3, (0, 1, 0), 0): ints.pack(GaussianInteger(-4, 0))},
        {((0,) * 3, (1, 0, 0), 0): ints.pack(GaussianInteger(3, 0)),
         ((0,) * 3, (0, 0, 1), 0): ints.pack(GaussianInteger(-4, 0))}])
    assert not ints.certify(keys, through) and ints.certify(keys, off)


def test_the_certificate_is_taken_only_where_no_group_can_be_refused(monkeypatch):
    # xi_1^2 |xi|^-2 + 1 at n = 2: s = 2 and one shell above the lowest, so the
    # bound is n (1 + 1) C(s + 1, 1) = 12 updates; trial division makes 2 (xi_1^2,
    # then xi_2^2 is left over) and Horner's rule 2
    one = ComplexRational(1)
    a = _bags_of([(1, 0, (0, 0), (2, 0), -2), (1, 0, (0, 0), (0, 0), 0)])
    want = {0: _reference_canonical(2, 0, a[0])}
    calls = _count_divisions(monkeypatch)
    for limit, divisions in ((12, 0), (11, 1), (4, 1)):
        monkeypatch.setattr(T, "MAX_CANONICAL_MONOMIALS", limit)
        calls.clear()
        assert T.compose_components(T.RATIONAL_SYSTEM, 2, a, _one(2), None) == want
        assert len(calls) == divisions
    monkeypatch.setattr(T, "MAX_CANONICAL_MONOMIALS", 3)
    with pytest.raises(ValidationError, match="degree 2 polynomial in 2 variables needs more "
                                              "than 3 monomial updates"):
        T.compose_components(T.RATIONAL_SYSTEM, 2, a, _one(2), None)
    # past the bound a one-term group is divided, and refused, as by trial division
    monkeypatch.undo()
    zero8 = (0,) * 8
    with pytest.raises(ValidationError, match="degree 64 polynomial in 8 variables needs more "
                                              "than 100000 monomial updates"):
        T.compose_components(T.RATIONAL_SYSTEM, 8, {0: {(zero8, (64,) + (0,) * 7, -64): one}},
                             _one(8), None)


def test_composing_random_symbols_makes_no_trial_division(monkeypatch):
    # the shape of the compose-full benchmark: n = 3, orders -1 .. 2, depth m1 + 3 +
    # m2, modes and alphas up to 3, every degree down to the composed floor.  Each
    # group's lowest shell is settled by the certificate
    rng = random.Random(2102)
    pairs = []
    for _ in range(20):
        m1, m2 = rng.randint(-1, 2), rng.randint(-1, 2)
        pairs.append([random_symbol(rng.getrandbits(32), dim=3, order=m, depth=m1 + 3 + m2,
                                    max_mode=3, max_alpha=3) for m in (m1, m2)])
    settled = []
    certify = T.PackedGaussians.certify

    def counting(*args):
        settled.append(certify(*args))
        return settled[-1]

    monkeypatch.setattr(T.PackedGaussians, "certify", counting)
    calls = _count_divisions(monkeypatch)
    for a, b in pairs:
        compose(a, b)
    assert not calls
    assert len(settled) > 1000 and all(settled)


# -- the monomial rule ----------------------------------------------------------------


def _packed_canonical(n, degree, raw):
    """``canonical_terms(n, degree, raw)`` as the packed path forms it."""
    keys, (packed,) = T.pack_terms(n, (raw,))
    return keys.unpack_bag(T.canonical_terms(keys, degree, packed))


def _rule_outcome(fn):
    """The items of a bag, key order and entry types included, or the refusal."""
    try:
        bag = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return list(bag.items()), [type(x) for mode, alpha, p in bag for x in (*mode, *alpha, p)]


def _rule_bag(rng, n):
    """A raw bag of one to three terms, most of them lone monomials, some with a
    flaw the monomial rule must leave to the packed path."""
    degree, raw = rng.randint(-3, 3), {}
    for _ in range(rng.randint(1, 3)):
        mode = tuple(rng.randint(-2, 2) for _ in range(n))
        alpha = [rng.randint(0, 3) for _ in range(n)]
        coeff = ComplexRational(rng.randint(-2, 2), rng.randint(0, 1))
        flaw = rng.choice(["none"] * 6 + ["bool", "zero", "zero negative", "length",
                                          "inhomogeneous", "same group", "huge"])
        npow = degree - sum(alpha) + (flaw == "inhomogeneous")
        if flaw == "bool":
            mode, alpha[0] = (True,) + mode[1:], True
            npow = degree - sum(alpha)
        elif flaw in ("zero", "zero negative"):
            coeff = ComplexRational(0)
            alpha[0] -= 4 * (flaw == "zero negative")
        elif flaw == "length":
            alpha.append(0)
        elif flaw == "same group":
            # xi_1^2 |xi|^(npow - 2) meets the term below in its group
            twin = [a + 2 * (j == 0) for j, a in enumerate(alpha)]
            raw[(mode, tuple(twin), npow - 2)] = coeff
        elif flaw == "huge":
            mode = (_HUGE,) + mode[1:]
        raw[(mode, tuple(alpha), npow)] = coeff
    return degree, raw


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_rule_agrees_with_the_packed_path(monkeypatch, n):
    rng = random.Random(2200 + n)
    pack, packed = T.pack_terms, []
    monkeypatch.setattr(T, "pack_terms", lambda *args: packed.append(1) or pack(*args))
    ruled = refused = 0
    for _ in range(300):
        degree, raw = _rule_bag(rng, n)
        want = _rule_outcome(lambda: _packed_canonical(n, degree, raw))
        packed.clear()
        got = _rule_outcome(lambda: T.canonical_terms(n, degree, raw))
        assert got == want
        if isinstance(got[0], list):
            assert set(got[1]) <= {int}
        else:
            refused += 1
        ruled += not packed
    assert refused > 50
    assert ruled == 0 if n == 1 else ruled > 100


def test_lone_monomials_build_no_layout(monkeypatch):
    one, two = ComplexRational(1), ComplexRational(2, -1)
    cases = [
        (2, 0, {((1, 0), (1, 0), -1): one, ((1, 0), (0, 0), 0): two}),
        (2, 0, {((True, 0), (0, True), -1): one}),
        (3, 0, {((0, 0, 0), (2, 0, 0), -2): one, ((0, 1, 0), (0, 2, 1), -3): ComplexRational(0)}),
        (8, -1, {((0,) * 7 + (-3,), (0,) * 6 + (1, 1), -3): two}),
        (3, 1, {}),
    ]
    want = [_packed_canonical(n, d, raw) for n, d, raw in cases]

    def refuse(*args):
        raise AssertionError("a lone monomial was packed")

    monkeypatch.setattr(T, "pack_terms", refuse)
    for (n, d, raw), bag in zip(cases, want):
        assert _rule_outcome(lambda: T.canonical_terms(n, d, raw)) == _rule_outcome(lambda: bag)
    # the rule's keys are the layout's own tuples, shared from call to call,
    # not the ones a caller built
    mode, alpha = tuple([1, 0]), tuple([1, 0])
    [key] = T.canonical_terms(2, 0, {(mode, alpha, -1): one})
    [again] = T.canonical_terms(2, 0, {(tuple([1, 0]), tuple([1, 0]), -1): two})
    assert key[0] is again[0] and key[1] is again[1] and key[0] is not mode


def test_monomial_rule_keeps_to_its_conditions():
    one = ComplexRational(1)
    # at n = 1, xi_1^2 |xi|^-2 = 1: the rule never applies there
    assert T.canonical_terms(1, 0, {((0,), (2,), -2): one}) == {((0,), (0,), 0): one}
    assert T.canonical_terms(1, 2, {((3,), (2,), 0): one}) == {((3,), (0,), 2): one}
    # xi_1^2 |xi|^-2 + xi_2^2 |xi|^-2 = 1 at n = 2: two terms of one group
    raw = {((0, 0), (2, 0), -2): one, ((0, 0), (0, 2), -2): one}
    assert T.canonical_terms(2, 0, raw) == {((0, 0), (0, 0), 0): one}
    # a zero term is checked before it is dropped
    for raw in ({((0, 0), (1, -1), 0): ComplexRational(0)},
                {((0, 0), (1, 0), -1): one, ((1, 0), (3, -1), -2): ComplexRational(0)}):
        with pytest.raises(ValidationError, match="nonnegative"):
            T.canonical_terms(2, 0, raw)
    with pytest.raises(ValidationError, match="has length != 2"):
        T.canonical_terms(2, 0, {((0, 0), (1, 0, 0), -1): ComplexRational(0)})
    # a zero term need not be homogeneous, as on the packed path
    raw = {((0, 0), (1, 0), 0): ComplexRational(0), ((0, 0), (1, 0), -1): one}
    assert T.canonical_terms(2, 0, raw) == {((0, 0), (1, 0), -1): one}


def test_monomial_rule_takes_the_refusal_bound_at_the_call(monkeypatch):
    one = ComplexRational(1)
    # xi_1^40 |xi|^-40 fits the narrow layout, but in dimension 8 its division
    # passes the bound before it fails, and the rule leaves it to be refused
    zero8 = (0,) * 8
    with pytest.raises(ValidationError, match="degree 40 polynomial in 8 variables"):
        T.canonical_terms(8, 0, {(zero8, (40,) + (0,) * 7, -40): one})
    # n C(s + n - 1, n - 1) at s = 6, n = 4 is 4 * 84 = 336 updates at most; the
    # division of xi_1^6 in fact makes 4 + 12 + 24 and then fails
    raw = {((0,) * 4, (6, 0, 0, 0), -6): one}
    pack, packed = T.pack_terms, []
    monkeypatch.setattr(T, "pack_terms", lambda *args: packed.append(1) or pack(*args))
    for limit, packs in ((336, 0), (335, 1), (40, 1)):
        monkeypatch.setattr(T, "MAX_CANONICAL_MONOMIALS", limit)
        packed.clear()
        assert T.canonical_terms(4, 0, raw) == raw
        assert len(packed) == packs
    monkeypatch.setattr(T, "MAX_CANONICAL_MONOMIALS", 39)
    with pytest.raises(ValidationError, match="degree 6 polynomial in 4 variables needs more "
                                              "than 39 monomial updates"):
        T.canonical_terms(4, 0, raw)


def test_compose_full_pool_packs_only_its_sums(monkeypatch):
    """Op counts of the pool the compose-full benchmark draws at seed 7: n = 3,
    64 pairs per order pair (m1, m2) in -1 .. 2, each tau's terms moved onto
    the reflected x-dependent (mode, alpha) of its sigma.  Every tuple-keyed
    canonical form of a bag of lone monomials is the rule's; only the few
    whose groups hold two terms pack."""
    canonical, pack = T.canonical_terms, T.pack_terms
    counts = {"calls": 0, "packs": 0}
    inside = []

    def counting_canonical(keys, *args):
        tuples = type(keys) is int
        counts["calls"] += tuples
        inside.append(tuples)
        try:
            return canonical(keys, *args)
        finally:
            inside.pop()

    def counting_pack(*args):
        counts["packs"] += bool(inside and inside[-1])
        return pack(*args)

    monkeypatch.setattr(T, "canonical_terms", counting_canonical)
    monkeypatch.setattr(T, "pack_terms", counting_pack)
    rng = random.Random(7)
    for _ in range(64):
        for m1 in range(-1, 3):
            for m2 in range(-1, 3):
                kw = dict(dim=3, depth=m1 + 3 + m2, max_mode=3, max_alpha=3)
                sigma = random_symbol(rng.getrandbits(32), order=m1, **kw)
                tau = random_symbol(rng.getrandbits(32), order=m2, **kw)
                spots = sorted({(mode, alpha) for c in sigma.components.values()
                                for mode, alpha, _p in c.raw_terms() if any(mode)})
                if not spots:
                    continue
                comps = {}
                for deg, comp in sorted(tau.components.items()):
                    terms = []
                    for _key, s in sorted(comp.raw_terms().items()):
                        mode, alpha = rng.choice(spots)
                        terms.append((s, tuple(-k for k in mode), alpha, deg - sum(alpha)))
                    comp = HomogeneousComponent(3, deg, terms)
                    if not comp.is_zero():
                        comps[deg] = comp
                ClassicalSymbol(3, tau.order, comps, tau.trusted_floor)
    assert counts == {"calls": 12_881, "packs": 14}


def _nc_trace_pool(seed):
    """The pool the nc-trace benchmark draws at ``seed``: 32 pairs per twist
    2/5, 5/12, 7/30 and order pair (m1, m2) in -1 .. 1, each tau's terms moved
    onto the reflected x-dependent (mode, alpha) of its sigma."""
    rng = random.Random(seed)
    for _ in range(32):
        for theta in (Fraction(2, 5), Fraction(5, 12), Fraction(7, 30)):
            for m1 in range(-1, 2):
                for m2 in range(-1, 2):
                    kw = dict(dim=2, depth=m1 + 2 + m2, max_mode=2, max_alpha=2, theta=theta)
                    sigma = random_symbol(rng.getrandbits(32), order=m1, **kw)
                    tau = random_symbol(rng.getrandbits(32), order=m2, **kw)
                    spots = sorted({(mode, alpha) for raw in sigma.components.values()
                                    for mode, alpha, _p in raw if any(mode)})
                    if spots:
                        blocks = {}
                        for deg, raw in sorted(tau.components.items()):
                            blocks[deg] = []
                            for _key, s in sorted(raw.items()):
                                mode, alpha = rng.choice(spots)
                                blocks[deg].append((s, tuple(-k for k in mode), alpha,
                                                    deg - sum(alpha)))
                        tau = NCSymbol(tau.theta, tau.order, blocks, tau.trusted_floor)
                    yield sigma, tau


def _counting_chain(built):
    """``_chain`` that adds the terms of each level it builds to ``built``:
    [terms of whole steps, terms of last steps cut by parity]."""
    chain_of = T._chain

    def counting(keys, bag, steps, top, cut=None):
        chain = chain_of(keys, bag, steps, top, cut)
        for k, level in enumerate(chain[1:], 1):
            built[cut is not None and k == top] += len(level)
        return chain
    return counting


def test_nc_trace_pool_builds_the_last_chain_level_by_parity(monkeypatch):
    """Op count of the single-ordering residues, both orders, of the 864
    pairs of the nc-trace pool at seed 7: the terms the chains build.  A
    chain is built only for a left group with a meet that can reach an even
    product, and only as deep as its deepest such meet; its last level
    only where it meets a right term's parity.  Built whole, as every other
    level is, the chains hold 4,956 terms; walking every meet of the level
    rule, with the last level cut, they held 3,265 + 1,827."""
    built = [0, 0]  # terms of whole steps, terms of last steps cut by parity
    monkeypatch.setattr(T, "_chain", _counting_chain(built))
    for sigma, tau in _nc_trace_pool(7):
        _nc_residue_of_composition(sigma, tau)
        _nc_residue_of_composition(tau, sigma)
    assert built == [2_006, 1_894]


def _trace_n3_pool(seed):
    """The pool the trace-n3 benchmark draws at ``seed``: n = 3, 32 pairs per
    order pair (m1, m2) in -1 .. 2, each tau's terms moved onto the reflected
    x-dependent (mode, alpha) of its sigma."""
    rng = random.Random(seed)
    for _ in range(32):
        for m1 in range(-1, 3):
            for m2 in range(-1, 3):
                kw = dict(dim=3, depth=m1 + 3 + m2, max_mode=3, max_alpha=3)
                sigma = random_symbol(rng.getrandbits(32), order=m1, **kw)
                tau = random_symbol(rng.getrandbits(32), order=m2, **kw)
                spots = sorted({(mode, alpha) for c in sigma.components.values()
                                for mode, alpha, _p in c.raw_terms() if any(mode)})
                if spots:
                    comps = {}
                    for deg, comp in sorted(tau.components.items()):
                        terms = []
                        for _key, s in sorted(comp.raw_terms().items()):
                            mode, alpha = rng.choice(spots)
                            terms.append((s, tuple(-k for k in mode), alpha, deg - sum(alpha)))
                        comp = HomogeneousComponent(3, deg, terms)
                        if not comp.is_zero():
                            comps[deg] = comp
                    tau = ClassicalSymbol(3, tau.order, comps, tau.trusted_floor)
                yield sigma, tau


def test_trace_n3_pool_builds_as_many_chain_terms_as_a_call_per_level(monkeypatch):
    """Op count of the trace defects of the 512 pairs of the trace-n3 pool at
    seed 7: the terms the chains build, whole levels and last levels cut by
    parity, the same as when each level was built by a call of its own.
    Only the walk lists' meets, which can reach an even product, build
    chains, each as deep as its deepest meet; walking every meet of the
    level rule, the chains built 22,495 + 4,868."""
    built = [0, 0]
    monkeypatch.setattr(T, "_chain", _counting_chain(built))
    defects = [trace_defect(sigma, tau) for sigma, tau in _trace_n3_pool(7)]
    assert len(defects) == 512 and all(d.is_zero() for d in defects)
    assert built == [11_535, 5_121]


def _fresh_direction(keys, field):
    """(v, steps, the low bit of each alpha field where v is nonzero) for the
    mode fields ``field``, read and built with no memo; for a key (field,
    wanted), the table of the last level cut by parity."""
    if type(field) is tuple:
        field, wanted = field
        steps = _fresh_direction(keys, field)[1]
        flips = {p ^ 1 << step[0] for p in wanted for step in steps}
        return {p: tuple(step for step in steps if p ^ 1 << step[0] in wanted) for p in flips}
    v = keys.fields(field << keys.mode_shifts[0], keys.n + 2, 2 * keys.n + 2)
    return (v, tuple((keys.width * j, x, *keys.xi_steps[j]) for j, x in enumerate(v) if x),
            sum(1 << keys.width * j for j, x in enumerate(v) if x))


def test_the_direction_memo_holds_fresh_steps_within_its_limit(monkeypatch):
    """The layout's direction memo returns the steps, and the parity cuts of
    a chain's last level, that a fresh table builds; it holds at most
    ``memo_limit`` entries, starting afresh when full, with the same trace
    defects and residues; and a wider layout built for one call writes only
    its own memo, never the narrow layout's."""
    pool = list(_trace_n3_pool(7))[::16]
    want = [str(trace_defect(s, t)) + str(_residue_of_composition(s, t)) for s, t in pool]
    narrow = T._narrow_layout(3)
    assert {type(field) for field in narrow.directions} == {int, tuple}
    for field, entry in narrow.directions.items():
        assert entry == _fresh_direction(narrow, field) == _fresh_direction(T.Keys(3, 8), field)
    sizes, direction, fields = [], T._direction, T._MEMO_FIELDS
    monkeypatch.setattr(T, "_direction", lambda keys, field: sizes.append(
        len(keys.directions)) or direction(keys, field))
    T._MEMO_FIELDS = 3 * 4  # read when a layout is built: the narrow ones are built afresh
    T._narrow_layout.cache_clear()
    try:
        got = [str(trace_defect(s, t)) + str(_residue_of_composition(s, t)) for s, t in pool]
        small = T._narrow_layout(3)
        assert small.memo_limit == 4 and len(small.directions) <= 4
    finally:
        T._MEMO_FIELDS = fields
        T._narrow_layout.cache_clear()
    assert len(sizes) > 8 and max(sizes) <= 4
    assert got == want
    # a mode entry of 100 needs 16-bit fields: the call builds a wider layout
    cr = ComplexRational
    a = ClassicalSymbol(2, 0, {0: HomogeneousComponent(2, 0, [(cr(2), (100, 1), (1, 0), -1)])})
    b = ClassicalSymbol(2, -1, {-1: HomogeneousComponent(2, -1, [(cr(3), (-100, -1), (0, 0), -1)])},
                        -2)
    narrow = T._narrow_layout(2)
    before = dict(narrow.directions)
    layouts = []
    passes = T._pairing_pass
    monkeypatch.setattr(T, "_pairing_pass", lambda system, keys, *args: layouts.append(keys)
                        or passes(system, keys, *args))
    assert trace_defect(a, b).is_zero()
    assert not _residue_of_composition(a, b).is_zero()
    assert [keys.width for keys in layouts] == [16, 16]
    assert narrow.directions == before
    for keys in layouts:
        assert keys.directions
        for field, entry in keys.directions.items():
            assert entry == _fresh_direction(keys, field)


def test_a_second_trace_defect_over_the_same_modes_builds_no_steps(monkeypatch):
    """The steps of each mode are built once per layout: with the narrow
    layout's memo emptied, the defects of part of the trace-n3 pool build
    them, and the same defects again build none."""
    built = []
    direction = T._direction
    monkeypatch.setattr(T, "_direction", lambda keys, field: built.append(field)
                        or direction(keys, field))
    T._narrow_layout(3).directions.clear()
    pool = list(_trace_n3_pool(7))[::8]
    first = [trace_defect(s, t) for s, t in pool]
    assert len(built) >= 10
    built.clear()
    second = [trace_defect(s, t) for s, t in pool]
    assert built == [] and second == first
