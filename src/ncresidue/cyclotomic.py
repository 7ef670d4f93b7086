"""Exact arithmetic with roots of unity in cyclotomic fields.

Values are rational linear combinations of powers of a primitive q-th root
of unity zeta_q, stored on the power basis 1, zeta, ..., zeta^(phi(q)-1)
after reduction modulo the q-th cyclotomic polynomial.  Because Phi_q is
irreducible over Q, the reduced representation of a value is unique, so a
zero test on coefficients decides equality of the complex numbers denoted.

The imaginary unit is folded into the root of unity (i = zeta^(q/4) once
4 | q) rather than kept in the coefficient field: over Q(i) the cyclotomic
polynomial factors whenever 4 | q and reduction would stop being faithful.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ValidationError
from .scalars import ComplexRational


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_q, low degree first, monic."""
    if q < 1:
        raise DomainError(f"cyclotomic order must be positive, got {q}")
    if q == 1:
        return (-1, 1)
    # x^q - 1 divided by all lower-order cyclotomic factors
    num = [0] * (q + 1)
    num[0] = -1
    num[q] = 1
    for d in range(1, q):
        if q % d == 0:
            num = _int_poly_quotient(num, cyclotomic_polynomial(d))
    return tuple(num)


def _int_poly_quotient(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for k in range(dd + 1):
            num[i - dd + k] -= c * den[k]
    if any(num):
        raise ArithmeticError("inexact cyclotomic polynomial division")
    return out


def _reduce(order: int, dense: list[Fraction]) -> tuple[Fraction, ...]:
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    if len(dense) == deg:
        return tuple(dense)  # already on the power basis
    work = list(dense) + [Fraction(0)] * max(0, deg - len(dense))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        work[i] = Fraction(0)
        for k in range(deg):
            work[i - deg + k] -= c * phi[k]
    return tuple(work[:deg])


class CyclotomicScalar:
    """An element of the cyclotomic field Q(zeta_order)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise DomainError(f"cyclotomic order must be positive, got {order}")
        dense = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _reduce(order, dense))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicScalar is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CyclotomicScalar":
        return cls(1, [Fraction(value)])

    @classmethod
    def from_complex_rational(cls, value: ComplexRational) -> "CyclotomicScalar":
        if value.im == 0:
            return cls(1, [value.re])
        return cls(4, [value.re, value.im])

    @classmethod
    def root_of_unity(cls, q: int, exponent: int) -> "CyclotomicScalar":
        """exp(2*pi*i*exponent/q), stored at its primitive order."""
        if q < 1:
            raise DomainError(f"root order must be positive, got {q}")
        e = exponent % q
        g = math.gcd(e, q)
        q2, e2 = q // g, e // g
        dense = [Fraction(0)] * (e2 + 1)
        dense[e2] = Fraction(1)
        return cls(q2, dense)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _lift(self, order: int) -> "CyclotomicScalar":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValidationError(
                f"cannot lift from order {self.order} to non-multiple {order}"
            )
        scale = order // self.order
        dense = [Fraction(0)] * (scale * len(self.coeffs))
        for j, c in enumerate(self.coeffs):
            dense[j * scale] = c
        return CyclotomicScalar(order, dense)

    def _pair(self, other) -> tuple["CyclotomicScalar", "CyclotomicScalar"]:
        q = math.lcm(self.order, other.order)
        return self._lift(q), other._lift(q)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return CyclotomicScalar(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return CyclotomicScalar(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == 0:
                return CyclotomicScalar(1, [0])
            return CyclotomicScalar(self.order, [c * other if c else c for c in self.coeffs])
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y != 0:
                    out[i + j] += x * y
        return CyclotomicScalar(a.order, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicScalar":
        q = self.order
        dense = [Fraction(0)] * q
        for j, c in enumerate(self.coeffs):
            dense[(q - j) % q] += c
        return CyclotomicScalar(q, dense)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    # -- conversion ---------------------------------------------------------

    def to_complex(self) -> complex:
        q = self.order
        return sum(
            (complex(c) * cmath.exp(2j * cmath.pi * j / q) for j, c in enumerate(self.coeffs)),
            0j,
        )

    def to_complex_rational(self) -> ComplexRational:
        """Exact conversion for values lying in Q(i)."""
        if self.is_rational():
            return ComplexRational(self.coeffs[0])
        if self.order == 4:
            return ComplexRational(self.coeffs[0], self.coeffs[1])
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


CYC_ZERO = CyclotomicScalar(1, [0])
CYC_ONE = CyclotomicScalar(1, [1])


def _coerce(value):
    if isinstance(value, CyclotomicScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicScalar(1, [Fraction(value)])
    if isinstance(value, ComplexRational):
        return CyclotomicScalar.from_complex_rational(value)
    return NotImplemented


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
