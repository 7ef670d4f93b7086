import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncresidue.errors import DomainError, ValidationError
from ncresidue.scalars import (
    ComplexRational,
    PiGradedScalar,
    gamma_half,
    sphere_monomial_integral,
    sphere_surface_measure,
    torus_volume,
)

from conftest import compositions, sphere_quadrature

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
complex_rationals = st.builds(ComplexRational, rationals, rationals)


# -- ComplexRational ----------------------------------------------------------


@given(complex_rationals, complex_rationals, complex_rationals)
def test_complex_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(complex_rationals)
def test_complex_rational_conjugation(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.im == 0
    assert norm.re == a.abs_squared()
    assert norm.re >= 0


@given(complex_rationals, complex_rationals)
def test_complex_rational_division(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


SCALE_FACTORS = [0, 1, -1, 7, Fraction(-3, 4)]


@given(complex_rationals)
def test_rational_system_scaling_matches_complex_product(s):
    for k in SCALE_FACTORS:
        full = s * ComplexRational(k)  # the general complex product
        scaled = [s * Fraction(k), s * k]
        for v in scaled:
            assert v == full and hash(v) == hash(full)
            for part in (v.re, v.im):
                assert isinstance(part, Fraction)
                assert part.denominator > 0
                assert math.gcd(part.numerator, part.denominator) == 1


def test_complex_rational_basics():
    i = ComplexRational(0, 1)
    assert i * i == -1
    assert ComplexRational(Fraction(2, 4)) == ComplexRational(Fraction(1, 2))
    assert ComplexRational(3) == 3
    assert str(ComplexRational(Fraction(3, 4), Fraction(-1, 2))) == "3/4 - 1/2*i"
    assert abs(ComplexRational(1, 1).to_complex() - (1 + 1j)) < 1e-15
    # stored flat, in lowest terms: (a + bi) / den
    x = ComplexRational(Fraction(3, 4), Fraction(-1, 6))
    assert (x.a, x.b, x.den) == (9, -2, 12)
    assert (ComplexRational(0).a, ComplexRational(0).b, ComplexRational(0).den) == (0, 0, 1)


# parts of up to 200 digits over denominators of up to 200 digits, and small
# ones, so sums cancel, products meet zero and parts come out integral
_big_ints = st.integers(-10**200, 10**200)
_parts = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(Fraction, _big_ints, st.integers(1, 10**200)),
    st.builds(Fraction, _big_ints),
)


def _ref_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re} {'+' if im > 0 else '-'} {abs(im)}*i"


def _assert_is(x, re: Fraction, im: Fraction):
    """x is ComplexRational(re, im), flat and in lowest terms."""
    assert type(x) is ComplexRational
    assert (x.re, x.im) == (re, im)
    assert all(type(v) is int for v in (x.a, x.b, x.den))
    assert x.den > 0 and math.gcd(x.a, x.b, x.den) == 1
    assert bool(x) == bool(re or im) and x.is_zero() == (not (re or im))
    assert repr(x) == f"ComplexRational({re!r}, {im!r})" and str(x) == _ref_str(re, im)
    if im == 0:
        assert x == re and re == x and hash(x) == hash(re)
        if re.denominator == 1:
            assert x == int(re) and hash(x) == hash(int(re))
    else:
        assert x != re and hash(x) == hash((re, im))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_parts, _parts, _parts, _parts, st.one_of(_parts, st.integers(-5, 5)))
def test_complex_rational_matches_fraction_pairs(r1, i1, r2, i2, f):
    """Every operation of the flat class against the same operation on pairs
    of Fractions, with long parts; the operands are never changed."""
    x, y = ComplexRational(r1, i1), ComplexRational(r2, i2)
    _assert_is(x, r1, i1)
    _assert_is(y, r2, i2)
    _assert_is(x + y, r1 + r2, i1 + i2)
    _assert_is(x - y, r1 - r2, i1 - i2)
    _assert_is(x * y, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    _assert_is(-x, -r1, -i1)
    _assert_is(x.conjugate(), r1, -i1)
    assert x.abs_squared() == r1 * r1 + i1 * i1
    assert type(x.abs_squared()) is Fraction
    norm = r2 * r2 + i2 * i2
    if norm:
        _assert_is(x / y, (r1 * r2 + i1 * i2) / norm, (i1 * r2 - r1 * i2) / norm)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    # mixed with an int or a Fraction, both ways
    _assert_is(x + f, r1 + f, i1)
    _assert_is(f + x, r1 + f, i1)
    _assert_is(x - f, r1 - f, i1)
    _assert_is(f - x, f - r1, -i1)
    _assert_is(x * f, r1 * f, i1 * f)
    _assert_is(f * x, r1 * f, i1 * f)
    if f:
        _assert_is(x / f, r1 / f, i1 / f)
    norm = r1 * r1 + i1 * i1
    if norm:
        _assert_is(f / x, f * r1 / norm, -f * i1 / norm)
    assert (x == y) == ((r1, i1) == (r2, i2))
    assert (x == ComplexRational(r1, i1)) and hash(x) == hash(ComplexRational(r1, i1))
    _assert_is(x, r1, i1)
    _assert_is(y, r2, i2)
    for name in ("a", "b", "den", "re", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    _assert_is(x, r1, i1)


# -- PiGradedScalar -----------------------------------------------------------


def test_pi_graded_zero_is_canonical():
    z = PiGradedScalar(0, 5)
    assert z.pi_exponent == 0
    assert z.is_zero()
    assert z == PiGradedScalar(0)


def test_pi_graded_addition_rules():
    a = PiGradedScalar(Fraction(1, 2), 3)
    b = PiGradedScalar(Fraction(1, 3), 3)
    assert a + b == PiGradedScalar(Fraction(5, 6), 3)
    assert a + PiGradedScalar(0) == a
    with pytest.raises(ValidationError):
        a + PiGradedScalar(1, 2)


def test_pi_graded_multiplication_and_division():
    a = PiGradedScalar(2, Fraction(1, 2))
    b = PiGradedScalar(Fraction(3, 4), Fraction(3, 2))
    assert a * b == PiGradedScalar(Fraction(3, 2), 2)
    assert (a * b) / b == a
    assert a * Fraction(1, 2) == PiGradedScalar(1, Fraction(1, 2))


def test_pi_graded_validation():
    with pytest.raises(ValidationError):
        PiGradedScalar(1, Fraction(1, 3))
    with pytest.raises(ValidationError):
        PiGradedScalar(1, -1)


def test_pi_graded_str():
    assert str(PiGradedScalar(8, 3)) == "8 * pi^3"
    assert str(PiGradedScalar(Fraction(15, 8), Fraction(1, 2))) == "15/8 * pi^(1/2)"
    assert str(PiGradedScalar(0)) == "0"
    assert str(PiGradedScalar(Fraction(3, 4))) == "3/4"


# -- gamma at half-integers ----------------------------------------------------


def test_gamma_examples():
    assert gamma_half(1) == PiGradedScalar(1, Fraction(1, 2))
    assert gamma_half(2) == PiGradedScalar(1)
    assert gamma_half(7) == PiGradedScalar(Fraction(15, 8), Fraction(1, 2))


def test_gamma_recursion_exact():
    # Gamma(z + 1) = z Gamma(z) for z = two_z / 2
    for two_z in range(1, 30):
        lhs = gamma_half(two_z + 2)
        rhs = gamma_half(two_z) * Fraction(two_z, 2)
        assert lhs == rhs


def test_gamma_matches_float():
    for two_z in range(1, 20):
        exact = gamma_half(two_z).to_complex().real
        assert math.isclose(exact, math.gamma(two_z / 2), rel_tol=1e-12)


def test_gamma_domain_error():
    with pytest.raises(DomainError):
        gamma_half(0)
    with pytest.raises(DomainError):
        gamma_half(-3)


# -- sphere integrals -----------------------------------------------------------


def test_sphere_integral_examples():
    assert sphere_monomial_integral((0, 0), 2) == PiGradedScalar(2, 1)
    assert sphere_monomial_integral((1, 0), 2).is_zero()
    assert sphere_monomial_integral((2, 0), 2) == PiGradedScalar(1, 1)
    assert sphere_monomial_integral((2, 2, 0), 3) == PiGradedScalar(Fraction(4, 15), 1)


def test_sphere_integral_against_quadrature():
    for n in (2, 3):
        for total in range(0, 5, 2):
            for alpha in compositions(n, total):
                exact = sphere_monomial_integral(alpha, n).to_complex().real
                approx = sphere_quadrature(alpha, n)
                assert math.isclose(exact, approx, rel_tol=1e-9, abs_tol=1e-12)


def test_sphere_integral_recursion_exact():
    for n in (2, 3):
        for total in range(0, 7, 2):
            for alpha in compositions(n, total):
                if any(a % 2 for a in alpha):
                    continue
                lhs = PiGradedScalar(0)
                for j in range(n):
                    bumped = alpha[:j] + (alpha[j] + 2,) + alpha[j + 1 :]
                    lhs = lhs + sphere_monomial_integral(bumped, n)
                assert lhs == sphere_monomial_integral(alpha, n)


def test_sphere_integral_validation():
    with pytest.raises(DomainError):
        sphere_monomial_integral((0,), 1)
    with pytest.raises(ValidationError):
        sphere_monomial_integral((1, 2, 3), 2)
    with pytest.raises(ValidationError):
        sphere_monomial_integral((-2, 0), 2)


def test_measures():
    assert sphere_surface_measure(2) == PiGradedScalar(2, 1)
    assert sphere_surface_measure(3) == PiGradedScalar(4, 1)
    assert torus_volume(2) == PiGradedScalar(4, 2)
    assert torus_volume(3) == PiGradedScalar(8, 3)
