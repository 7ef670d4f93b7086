import cmath
import random
from fractions import Fraction

import pytest

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


def _numerator(x: CyclotomicScalar) -> CyclotomicInteger:
    return CyclotomicInteger(x.order, [int(c) for c in x.coeffs])


@pytest.mark.parametrize("orders", [(1, 1), (1, 4), (4, 5), (12, 20), (7, 12), (28, 15), (4, 97)])
def test_integer_arithmetic_follows_the_scalar_order_rule(orders):
    """Sums, products, negation and integer scaling of numerators give the
    order and coefficients the same operations on CyclotomicScalar give."""
    rng = random.Random(sum(orders))
    for _ in range(6):
        # sparse integer values, some rational and some zero, stored at the given orders
        a, b = (CyclotomicScalar(q, [rng.choice([1, -2, 3]) if rng.random() < 3 / q else 0
                                     for _ in range(q)]) for q in orders)
        ia, ib = _numerator(a), _numerator(b)
        for got, want in ((ia + ib, a + b), (ib + ia, b + a), (ia * ib, a * b),
                          (ib * ia, b * a), (-ia, -a), (ia * 3, a * 3), (ia * 1, a)):
            assert (got.order, got.coeffs) == (want.order, [int(c) for c in want.coeffs])
            assert bool(got) == bool(want)
    for q, e in ((1, 0), (4, 3), (12, 8), (30, 25), (997, 996)):
        want = CyclotomicScalar.root_of_unity(q, e)
        got = CyclotomicInteger.root_of_unity(q, e)
        assert (got.order, got.coeffs) == (want.order, [int(c) for c in want.coeffs])


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
