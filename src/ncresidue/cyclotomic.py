"""Exact arithmetic with roots of unity in cyclotomic fields.

Values are rational linear combinations of powers of a primitive q-th root
of unity zeta_q, stored on the power basis 1, zeta, ..., zeta^(phi(q)-1)
after reduction modulo the q-th cyclotomic polynomial.  Because Phi_q is
irreducible over Q, the reduced representation of a value is unique, so a
zero test on coefficients decides equality of the complex numbers denoted.

The imaginary unit is folded into the root of unity (i = zeta^(q/4) once
4 | q) rather than kept in the coefficient field: over Q(i) the cyclotomic
polynomial factors whenever 4 | q and reduction would stop being faithful.

A ``CyclotomicInteger`` is such a power-basis vector with integer
coefficients, and it carries the ring arithmetic, the reduction and the
order rule.  A ``CyclotomicScalar`` is one over a positive int denominator
in lowest terms, with the field arithmetic of ``scalars._Quotient``; the
exact twisted calculus runs on the numerators.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .scalars import ComplexRational, GaussianInteger, _lowest_terms, _Quotient, _set


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_q, low degree first, monic."""
    if q < 1:
        raise DomainError(f"cyclotomic order must be positive, got {q}")
    if q == 1:
        return (-1, 1)
    # with p the largest prime factor and q = m p: Phi_q(x) = Phi_m(x^p) when p
    # divides m, else Phi_m(x^p) / Phi_m(x), an exact division by the short Phi_m
    p = _largest_prime_factor(q)
    m = q // p
    base = cyclotomic_polynomial(m)
    stretched = [0] * (p * (len(base) - 1) + 1)
    stretched[::p] = base
    if m % p == 0:
        return tuple(stretched)
    return tuple(_int_poly_quotient(stretched, base))


def _largest_prime_factor(q: int) -> int:
    d = 2
    while d * d <= q:
        while q % d == 0 and q > d:
            q //= d
        d += 1
    return q


def _int_poly_quotient(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    dd = len(den) - 1
    low = [(k, c) for k, c in enumerate(den[:dd]) if c]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        num[i] = 0
        for k, d in low:
            num[i - dd + k] -= c * d
    if any(num):
        raise ArithmeticError("inexact cyclotomic polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi_lower_terms(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # deg Phi and its nonzero coefficients below the leading one
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    return deg, tuple((k, c) for k, c in enumerate(phi[:deg]) if c)


def _reduce_int(order: int, work: list[int]) -> list[int]:
    """An integer vector in powers of zeta_order, on the power basis.

    zeta^order = 1, and zeta^(order/2) = -1 for an even order, fold the
    vector first, so the division by Phi_order runs only over the few powers
    left between its degree and order (or order/2).
    """
    deg, low = _phi_lower_terms(order)
    if len(work) > deg:
        if len(work) > order:
            work = [sum(work[i::order]) for i in range(order)]
        half = order // 2
        if order % 2 == 0 and len(work) > half:
            work = [x - y for x, y in zip(work, work[half:])] + work[len(work) - half : half]
    if len(work) < deg:
        work.extend([0] * (deg - len(work)))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for k, p in low:
                work[base + k] -= c * p
    del work[deg:]
    return work


class CyclotomicInteger:
    """An element of Z[zeta_order] on the power basis: a cyclotomic numerator.

    The numerator of ``CyclotomicScalar``, and the scalar the exact twisted
    calculus runs on.  The order rule: a sum, product or comparison works at
    the lcm of its operands' orders, and a result is stored there, never
    reduced to the smallest field holding it.  ``coeffs`` is a list of
    exactly phi(order) entries: numerators are many and short-lived, and
    freed tuples of these lengths would stay in CPython's tuple free lists
    (about 0.6 MiB more resident memory in a ``nc-trace`` benchmark run).
    Instances are never mutated after construction; the fields are plain
    slots to keep construction cheap.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: list[int]):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def root_of_unity(cls, q: int, exponent: int) -> "CyclotomicInteger":
        """exp(2*pi*i*exponent/q), stored at its primitive order."""
        e = exponent % q
        g = math.gcd(e, q)
        dense = [0] * (e // g + 1)
        dense[-1] = 1
        return cls(q // g, _reduce_int(q // g, dense))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _at(self, order: int) -> list[int]:
        # the coefficients at a multiple of the order: zeta_self = zeta^step
        if order == self.order:
            return self.coeffs
        step = order // self.order
        dense = [0] * (step * (len(self.coeffs) - 1) + 1)
        dense[::step] = self.coeffs
        return _reduce_int(order, dense)

    def __add__(self, other):
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        q = self.order if self.order == other.order else math.lcm(self.order, other.order)
        return CyclotomicInteger(q, list(map(operator.add, self._at(q), other._at(q))))

    def __neg__(self):
        return CyclotomicInteger(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            return CyclotomicInteger(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        # a rational factor scales; the lcm of the orders is the other one's
        if other.order == 1:
            return self * other.coeffs[0]
        if self.order == 1:
            return other * self.coeffs[0]
        q = self.order if self.order == other.order else math.lcm(self.order, other.order)
        a = [(i, x) for i, x in enumerate(self._at(q)) if x]
        b = [(j, y) for j, y in enumerate(other._at(q)) if y]
        if not a or not b:
            return CyclotomicInteger(q, [0] * _phi_lower_terms(q)[0])
        out = [0] * (a[-1][0] + b[-1][0] + 1)
        for i, x in a:
            for j, y in b:
                out[i + j] += x * y
        return CyclotomicInteger(q, _reduce_int(q, out))

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicInteger":
        # zeta^j -> zeta^(order - j)
        q = self.order
        dense = [0] * q
        for j, c in enumerate(self.coeffs):
            dense[-j % q] += c
        return CyclotomicInteger(q, _reduce_int(q, dense))

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def exact_div(self, d: int) -> "CyclotomicInteger":
        out = []
        for c in self.coeffs:
            quo, rem = divmod(c, d)
            if rem:
                raise ArithmeticError(f"{self!r} / {d} is not a cyclotomic integer")
            out.append(quo)
        return CyclotomicInteger(self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        q = self.order if self.order == other.order else math.lcm(self.order, other.order)
        return self._at(q) == other._at(q)

    def __repr__(self) -> str:
        return f"CyclotomicInteger({self.order}, {list(self.coeffs)!r})"


class CyclotomicScalar(_Quotient):
    """An element of the cyclotomic field Q(zeta_order).

    Stored as a ``CyclotomicInteger`` numerator over one positive
    denominator in lowest terms, so ``order`` follows the numerator's order
    rule; ``coeffs`` are the power-basis coordinates as ``Fraction``s.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise DomainError(f"cyclotomic order must be positive, got {order}")
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        ints = [c.numerator * (den // c.denominator) for c in fracs]
        num, den = _lowest_terms(CyclotomicInteger(order, _reduce_int(order, ints)), den)
        _set(self, "num", num)
        _set(self, "den", den)

    @staticmethod
    def _coerce(value):
        if isinstance(value, CyclotomicScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicScalar.from_rational(value)
        if isinstance(value, ComplexRational):
            return CyclotomicScalar.from_complex_rational(value)
        return NotImplemented

    @property
    def order(self) -> int:
        return self.num.order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num.coeffs)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CyclotomicScalar":
        value = Fraction(value)
        return _embedded(value.numerator, 0, value.denominator)

    @classmethod
    def from_complex_rational(cls, value: ComplexRational) -> "CyclotomicScalar":
        return _embedded(value.num.re, value.num.im, value.den)

    @classmethod
    def root_of_unity(cls, q: int, exponent: int) -> "CyclotomicScalar":
        """exp(2*pi*i*exponent/q), stored at its primitive order."""
        if q < 1:
            raise DomainError(f"root order must be positive, got {q}")
        return cls._make(CyclotomicInteger.root_of_unity(q, exponent), 1)

    def is_rational(self) -> bool:
        return not any(self.num.coeffs[1:])

    # -- conversion ---------------------------------------------------------

    def to_complex(self) -> complex:
        q = self.order
        return sum(
            (complex(c) * cmath.exp(2j * cmath.pi * j / q) for j, c in enumerate(self.coeffs)),
            0j,
        )

    def to_complex_rational(self) -> ComplexRational:
        """Exact conversion for values lying in Q(i)."""
        if self.is_rational() or self.order == 4:
            re, im = (self.num.coeffs + [0])[:2]  # a rational one may have one coefficient
            return ComplexRational._make(GaussianInteger(re, im), self.den)
        raise DomainError(
            f"value of cyclotomic order {self.order} does not have a stored Q(i) form"
        )

    def __repr__(self) -> str:
        return f"CyclotomicScalar({self.order}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                unit = f"zeta{self.order}" + (f"^{j}" if j > 1 else "")
                parts.append(unit if c == 1 else f"{c}*{unit}")
        return " + ".join(parts)


@lru_cache(maxsize=1024)
def _embedded(re: int, im: int, den: int) -> CyclotomicScalar:
    """(re + i*im) / den in lowest terms, at order 1 when im is 0 and at order 4
    otherwise.

    The coefficients a symbol is built from repeat a few small values, and a
    CyclotomicScalar is immutable, so equal ones share one object: this
    holds the symbols of the ``nc-trace`` benchmark inputs in about 0.9 MB
    less memory.
    """
    if im == 0:
        return CyclotomicScalar._make(CyclotomicInteger(1, [re]), den)
    return CyclotomicScalar._make(CyclotomicInteger(4, [re, im]), den)


CYC_ZERO = CyclotomicScalar(1, [0])
CyclotomicScalar._zero = CYC_ZERO


def cyclotomic_phase(theta_num: int, theta_den: int, exponent: int) -> CyclotomicScalar:
    """The exact phase exp(2*pi*i*theta*exponent) for theta = theta_num/theta_den.

    Multiplying two phases adds exponents, so this is a homomorphism from
    the integers into the roots of unity of order dividing theta_den.
    """
    if theta_den < 1:
        raise DomainError(f"theta denominator must be positive, got {theta_den}")
    return CyclotomicScalar.root_of_unity(theta_den, theta_num * exponent)


def decompose_root(order: int, exponent: int, theta_den: int) -> tuple[int, int]:
    """Write zeta_order^exponent as i^a * zeta_theta_den^b; return (a, b).

    Requires the root to lie in the group generated by i and zeta_theta_den,
    which holds for every scalar produced by the twisted-torus calculus with
    a rational twist of denominator theta_den.
    """
    big = math.lcm(4, theta_den)
    e = exponent % order
    g = math.gcd(e, order)
    if big % (order // g) != 0:
        raise DomainError(
            f"zeta_{order}^{exponent} is not an i-times-zeta_{theta_den} root"
        )
    t = (e * big // order) % big
    u, v = big // 4, big // theta_den
    x, y = _bezout(u, v)
    a, b = (x * t) % 4, (y * t) % theta_den
    if (4 * b) % theta_den == 0:
        # the zeta part is itself a power of i; fold it in
        a = (a + 4 * b // theta_den) % 4
        b = 0
    return a, b


def _bezout(u: int, v: int) -> tuple[int, int]:
    # x*u + y*v == gcd(u, v), here always 1 by the lcm construction
    old_r, r = u, v
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r != 1:
        raise ArithmeticError("expected coprime arguments")
    return old_x, old_y
