import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncresidue.cyclotomic import (
    CyclotomicInteger,
    CyclotomicScalar,
    cyclotomic_phase,
    cyclotomic_polynomial,
    decompose_root,
)
from ncresidue.errors import DomainError
from ncresidue.scalars import ComplexRational


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_satisfy_their_polynomial():
    for q in range(1, 16):
        z = CyclotomicScalar.root_of_unity(q, 1)
        acc = CyclotomicScalar.from_rational(0)
        power = CyclotomicScalar.from_rational(1)
        for c in cyclotomic_polynomial(q):
            acc = acc + power * c
            power = power * z
        assert acc.is_zero()


def test_phase_examples():
    assert cyclotomic_phase(0, 1, 5) == 1
    assert cyclotomic_phase(1, 4, 1) == ComplexRational(0, 1)
    assert cyclotomic_phase(1, 2, 2) == 1


def test_phase_homomorphism_exact():
    rng = random.Random(5)
    for num, den in [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 7)]:
        for _ in range(40):
            a = rng.randint(-30, 30)
            b = rng.randint(-30, 30)
            assert cyclotomic_phase(num, den, a) * cyclotomic_phase(
                num, den, b
            ) == cyclotomic_phase(num, den, a + b)


def test_phase_matches_float():
    rng = random.Random(6)
    for _ in range(60):
        num = rng.randint(-5, 5)
        den = rng.randint(1, 9)
        t = rng.randint(-10, 10)
        exact = cyclotomic_phase(num, den, t).to_complex()
        approx = cmath.exp(2j * cmath.pi * num * t / den)
        assert abs(exact - approx) < 1e-12


@pytest.mark.parametrize("q", [1, 4, 5, 12, 30])
def test_scaling_matches_fully_reduced_construction(q):
    rng = random.Random(q)
    for _ in range(5):
        # longer than phi(q), with some zeros, so construction reduces
        dense = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) * rng.randint(0, 1)
                 for _ in range(q + 3)]
        x = CyclotomicScalar(q, dense)
        for k in (0, 1, -1, 7, Fraction(-3, 4)):
            y = x * k
            ref = CyclotomicScalar(q, [c * k for c in dense])
            assert y == ref and y == k * x
            if k != 0:
                assert (y.order, y.coeffs) == (ref.order, ref.coeffs)
        # a vector already on the power basis reduces to itself
        assert CyclotomicScalar(q, x.coeffs).coeffs == x.coeffs
        padded = CyclotomicScalar(q, list(x.coeffs) + [Fraction(0)] * q)
        assert padded.coeffs == x.coeffs


def test_cyclotomic_polynomials_multiply_to_x_q_minus_one():
    for q in range(1, 121):
        prod = [1]
        for d in range(1, q + 1):
            if q % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, x in enumerate(prod):
                    for j, y in enumerate(phi):
                        out[i + j] += x * y
                prod = out
        assert prod == [-1] + [0] * (q - 1) + [1], q


# -- a tests-only reference: dense Fraction polynomials reduced mod Phi_q -----------
#
# A value is (q, coordinates) on the power basis of zeta_q.  The order rule
# the library states is kept here explicitly: a sum or product is formed at
# the lcm of the operands' orders and stored there; negation, conjugation
# and rational scaling keep the operand's order.


def _ref(q, dense):
    """(q, the remainder of sum_j dense[j] x^j by Phi_q, as Fractions)."""
    phi = cyclotomic_polynomial(q)
    deg = len(phi) - 1
    work = [Fraction(c) for c in dense] + [Fraction(0)] * deg
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for k, p in enumerate(phi):
                work[i - deg + k] -= c * p
    return q, tuple(work[:deg])


def _ref_at(x, q):
    # zeta_(x order) = zeta_q^step
    step = q // x[0]
    dense = [Fraction(0)] * (step * len(x[1]))
    dense[::step] = x[1]
    return _ref(q, dense)[1]


def _ref_add(x, y):
    q = math.lcm(x[0], y[0])
    return q, tuple(a + b for a, b in zip(_ref_at(x, q), _ref_at(y, q)))


def _ref_mul(x, y):
    q = math.lcm(x[0], y[0])
    a, b = _ref_at(x, q), _ref_at(y, q)
    out = [Fraction(0)] * (len(a) + len(b))
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return _ref(q, out)


def _ref_scale(x, f):
    return x[0], tuple(c * f for c in x[1])


def _ref_conj(x):
    q = x[0]
    dense = [Fraction(0)] * q
    for j, c in enumerate(x[1]):
        dense[-j % q] += c
    return _ref(q, dense)


def _ref_root(q, e):
    g = math.gcd(e % q, q)
    dense = [0] * (e % q // g) + [1]
    return _ref(q // g, dense)


@pytest.mark.parametrize("orders", [(1, 1), (1, 4), (4, 5), (12, 20), (7, 12), (28, 15), (4, 97)])
def test_integer_arithmetic_follows_the_scalar_order_rule(orders):
    """Sums, products, negation and integer scaling of numerators give the
    order and coordinates of the reference."""
    rng = random.Random(sum(orders))
    for _ in range(6):
        # sparse integer values, some rational and some zero, stored at the given orders
        ra, rb = (_ref(q, [rng.choice([1, -2, 3]) if rng.random() < 3 / q else 0
                           for _ in range(q)]) for q in orders)
        ia, ib = (CyclotomicInteger(q, [int(c) for c in coords]) for q, coords in (ra, rb))
        for got, want in ((ia + ib, _ref_add(ra, rb)), (ib + ia, _ref_add(rb, ra)),
                          (ia * ib, _ref_mul(ra, rb)), (ib * ia, _ref_mul(rb, ra)),
                          (-ia, _ref_scale(ra, -1)), (ia * 3, _ref_scale(ra, 3)), (ia * 1, ra)):
            assert all(c.denominator == 1 for c in want[1])
            assert (got.order, got.coeffs) == (want[0], [int(c) for c in want[1]])
            assert bool(got) == any(want[1])
    for q, e in ((1, 0), (4, 3), (12, 8), (30, 25), (997, 996)):
        want = _ref_root(q, e)
        for got in (CyclotomicInteger.root_of_unity(q, e), CyclotomicScalar.root_of_unity(q, e)):
            assert (got.order, list(got.coeffs)) == (want[0], list(want[1]))


def _assert_lowest_terms(x):
    ints = list(x.num.coeffs) if isinstance(x, CyclotomicScalar) else [x.num.re, x.num.im]
    assert all(type(c) is int for c in ints) and type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *ints) == 1  # zero has den 1


_ref_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_ref_values = st.tuples(st.sampled_from([1, 2, 3, 4, 5, 6, 12, 20]),
                        st.lists(_ref_fractions, max_size=25))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ref_values, _ref_values, _ref_fractions.filter(bool), _ref_fractions, _ref_fractions)
def test_exact_scalars_stay_in_lowest_terms_and_match_the_references(a, b, f, re, im):
    """Cyclotomic field operations against the polynomial reference, and
    complex-rational ones against pairs of Fractions; every result is kept in
    lowest terms."""
    x, y = CyclotomicScalar(*a), CyclotomicScalar(*b)
    rx, ry = _ref(*a), _ref(*b)
    for got, want in ((x, rx), (y, ry), (x + y, _ref_add(rx, ry)),
                      (x - y, _ref_add(rx, _ref_scale(ry, -1))), (x * y, _ref_mul(rx, ry)),
                      (-x, _ref_scale(rx, -1)), (x * f, _ref_scale(rx, f)),
                      (x.conjugate(), _ref_conj(rx))):
        _assert_lowest_terms(got)
        assert (got.order, got.coeffs) == want
    assert (x == y) == (_ref_at(rx, 60) == _ref_at(ry, 60))
    u, v = ComplexRational(re, im), ComplexRational(f, re)
    pairs = {"+": (re + f, im + re), "-": (re - f, im - re),
             "*": (re * f - im * re, re * re + im * f), "conj": (re, -im), "scale": (re * f, im * f)}
    norm = f * f + re * re
    pairs["/"] = ((re * f + im * re) / norm, (im * f - re * re) / norm)
    for tag, got in (("+", u + v), ("-", u - v), ("*", u * v), ("conj", u.conjugate()),
                     ("scale", u * f), ("/", u / v)):
        _assert_lowest_terms(got)
        assert (got.re, got.im) == pairs[tag], tag
    assert u.abs_squared() == re * re + im * im
    if im == 0:
        assert u == re and hash(u) == hash(re)


def test_cross_order_equality():
    i = CyclotomicScalar.from_complex_rational(ComplexRational(0, 1))
    assert CyclotomicScalar.root_of_unity(4, 1) == i
    assert CyclotomicScalar.root_of_unity(8, 2) == i
    assert CyclotomicScalar.root_of_unity(6, 3) == -1
    assert CyclotomicScalar.root_of_unity(12, 0) == 1


def test_mixed_order_arithmetic():
    z3 = CyclotomicScalar.root_of_unity(3, 1)
    z4 = CyclotomicScalar.root_of_unity(4, 1)
    assert z3 * z4 == CyclotomicScalar.root_of_unity(12, 7)
    s = z3 + z3 * z3  # 1 + zeta3 + zeta3^2 = 0
    assert (s + 1).is_zero()


def test_conjugation():
    rng = random.Random(7)
    for _ in range(30):
        q = rng.randint(1, 12)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        z = CyclotomicScalar(q, coeffs)
        assert z.conjugate().conjugate() == z
        norm = z * z.conjugate()
        value = norm.to_complex()
        assert abs(value.imag) < 1e-12 and value.real >= -1e-12
        zz = CyclotomicScalar.root_of_unity(q, 1)
        assert zz.conjugate() * zz == 1


def test_multiplication_is_associative_and_commutative():
    rng = random.Random(9)
    def rand_scalar():
        q = rng.choice([1, 2, 3, 4, 5, 6, 12])
        return CyclotomicScalar(
            q, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)]
        )

    for _ in range(40):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_rational_embedding_and_conversion():
    half = CyclotomicScalar.from_rational(Fraction(1, 2))
    assert half.order == 1
    assert half.to_complex_rational() == ComplexRational(Fraction(1, 2))
    mix = CyclotomicScalar.from_complex_rational(ComplexRational(1, 2))
    assert mix.to_complex_rational() == ComplexRational(1, 2)
    z3 = CyclotomicScalar.root_of_unity(3, 1)
    with pytest.raises(DomainError):
        z3.to_complex_rational()


def test_equal_embedded_values_share_one_immutable_scalar():
    a = CyclotomicScalar.from_complex_rational(ComplexRational(Fraction(-2, 3)))
    assert a is CyclotomicScalar.from_rational(Fraction(-4, 6))
    assert (a.order, a.coeffs) == (1, (Fraction(-2, 3),))
    b = CyclotomicScalar.from_complex_rational(ComplexRational(0, Fraction(1, 2)))
    assert b is CyclotomicScalar.from_complex_rational(ComplexRational(0, Fraction(2, 4)))
    assert (b.order, b.coeffs) == (4, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(AttributeError):
        b.coeffs = ()


def test_scalar_is_field_like_on_small_cases():
    # (1 + zeta5)(1 - zeta5 + zeta5^2 - zeta5^3 + zeta5^4) telescopes to
    # 1 + zeta5^5 = 2, an exact identity after cyclotomic reduction
    z = CyclotomicScalar.root_of_unity(5, 1)
    one = CyclotomicScalar.from_rational(1)
    alt = one - z + z * z - z * z * z + z * z * z * z
    assert (one + z) * alt == 2


def test_decompose_root_matches_values():
    import math

    for q0 in (1, 2, 3, 4, 5, 6):
        big = math.lcm(4, q0)
        for j in range(big):
            a, b = decompose_root(big, j, q0)
            lhs = CyclotomicScalar.root_of_unity(big, j)
            rhs = CyclotomicScalar.root_of_unity(4, a) * CyclotomicScalar.root_of_unity(
                q0, b
            )
            assert lhs == rhs
