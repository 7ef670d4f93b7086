"""Exact scalars: complex rationals and pi-graded values.

Every sphere and torus integral evaluated in this package lands in the
graded ring of complex rationals times an exact power of pi, with
half-integer exponents allowed because the Gamma function at half-integers
produces sqrt(pi).  Keeping the pi exponent symbolic is what makes equality
of residues decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ValidationError

_PI = math.pi


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    Fractions are kept in lowest terms with positive denominator, so
    structural equality coincides with mathematical equality.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational multiplier scales each part; no complex product
            if other == 1:
                return self
            re, im = self.re, self.im
            return ComplexRational(re * other if re else re, im * other if im else im)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


def _coerce(value):
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(value)
    return NotImplemented


CR_ZERO = ComplexRational(0)
CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)


class GaussianInteger:
    """An exact complex number with integer real and imaginary parts.

    The numerator type of exact composition: complex-rational coefficients
    are lifted over a shared integer denominator, so sums and products here
    never normalize a fraction.  Instances are never mutated after
    construction; the fields are plain slots to keep construction cheap.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __add__(self, other):
        if not isinstance(other, GaussianInteger):
            return NotImplemented
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return GaussianInteger(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianInteger):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b and not d:
                return GaussianInteger(a * c, 0)
            return GaussianInteger(a * c - b * d, a * d + b * c)
        if isinstance(other, int):
            if other == 1:
                return self
            return GaussianInteger(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianInteger):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __repr__(self) -> str:
        return f"GaussianInteger({self.re!r}, {self.im!r})"


class PiGradedScalar:
    """An exact value coeff * pi**k with half-integer exponent k >= 0.

    Addition is only defined between values of equal grade (or with zero);
    mixing grades would require a transcendence argument the ring does not
    encode.  Zero is canonical: a zero coefficient forces exponent 0.
    """

    __slots__ = ("coeff", "pi_exponent")

    def __init__(self, coeff, pi_exponent=0):
        if isinstance(coeff, (int, Fraction)):
            coeff = ComplexRational(coeff)
        k = pi_exponent if isinstance(pi_exponent, Fraction) else Fraction(pi_exponent)
        if k.denominator not in (1, 2):
            raise ValidationError(f"pi exponent must be a half-integer, got {k}")
        if k < 0:
            raise ValidationError(f"pi exponent must be nonnegative, got {k}")
        if not coeff:
            k = Fraction(0)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_exponent", k)

    def __setattr__(self, name, value):
        raise AttributeError("PiGradedScalar is immutable")

    def is_zero(self) -> bool:
        return not self.coeff

    def __add__(self, other):
        if not isinstance(other, PiGradedScalar):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_exponent != other.pi_exponent:
            raise ValidationError(
                f"cannot add pi-graded values of different grades "
                f"({self.pi_exponent} vs {other.pi_exponent})"
            )
        return PiGradedScalar(self.coeff + other.coeff, self.pi_exponent)

    def __sub__(self, other):
        if not isinstance(other, PiGradedScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PiGradedScalar(-self.coeff, self.pi_exponent)

    def __mul__(self, other):
        if isinstance(other, PiGradedScalar):
            return PiGradedScalar(
                self.coeff * other.coeff, self.pi_exponent + other.pi_exponent
            )
        if isinstance(other, (int, Fraction, ComplexRational)):
            return PiGradedScalar(self.coeff * other, self.pi_exponent)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PiGradedScalar):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero PiGradedScalar")
        k = self.pi_exponent - other.pi_exponent
        if self.is_zero():
            k = Fraction(0)
        return PiGradedScalar(self.coeff / other.coeff, k)

    def __eq__(self, other) -> bool:
        if isinstance(other, PiGradedScalar):
            return (
                self.pi_exponent == other.pi_exponent and self.coeff == other.coeff
            )
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        if self.is_zero():
            return hash(0)
        return hash((self.coeff, self.pi_exponent))

    def to_complex(self) -> complex:
        c = self.coeff
        base = c.to_complex() if hasattr(c, "to_complex") else complex(c)
        return base * _PI ** float(self.pi_exponent)

    def __repr__(self) -> str:
        return f"PiGradedScalar({self.coeff!r}, {self.pi_exponent!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        c = str(self.coeff)
        if " " in c or "*" in c:
            c = f"({c})"
        if self.pi_exponent == 0:
            return c
        k = self.pi_exponent
        kstr = str(k) if k.denominator == 1 else f"({k})"
        return f"{c} * pi^{kstr}"


PG_ZERO = PiGradedScalar(0)


def gamma_half(two_z: int) -> PiGradedScalar:
    """Exact Gamma(two_z / 2) for a positive integer ``two_z``.

    Gamma(m) = (m-1)! and Gamma(m + 1/2) = ((2m)! / (4^m m!)) sqrt(pi).
    """
    if not isinstance(two_z, int) or two_z <= 0:
        raise DomainError(f"gamma_half requires a positive integer, got {two_z!r}")
    if two_z % 2 == 0:
        m = two_z // 2
        return PiGradedScalar(Fraction(math.factorial(m - 1)))
    m = (two_z - 1) // 2
    coeff = Fraction(math.factorial(2 * m), 4**m * math.factorial(m))
    return PiGradedScalar(coeff, Fraction(1, 2))


def sphere_monomial_integral(alpha: tuple[int, ...], n: int) -> PiGradedScalar:
    """Exact integral of xi^alpha over the unit sphere S^(n-1).

    Zero when any exponent is odd; otherwise
    2 * prod_j Gamma((alpha_j + 1)/2) / Gamma((|alpha| + n)/2).
    """
    if n < 2:
        raise DomainError(f"sphere dimension must satisfy n >= 2, got {n}")
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValidationError(f"multi-index length {len(alpha)} != dimension {n}")
    if any(a < 0 for a in alpha):
        raise ValidationError(f"multi-index entries must be nonnegative: {alpha}")
    if any(a % 2 for a in alpha):
        return PG_ZERO
    return _even_sphere_integral(n, *alpha)


@lru_cache(maxsize=4096, typed=True)
def _even_sphere_integral(n: int, *alpha) -> PiGradedScalar:
    # typed: an exponent 2.0 must still reach gamma_half's integer check
    num = PiGradedScalar(2)
    for a in alpha:
        num = num * gamma_half(a + 1)
    return num / gamma_half(sum(alpha) + n)


def sphere_surface_measure(n: int) -> PiGradedScalar:
    """Surface measure of S^(n-1), e.g. 2*pi for n = 2."""
    return sphere_monomial_integral((0,) * n, n)


def torus_volume(n: int) -> PiGradedScalar:
    """Volume (2*pi)^n of the n-torus with full Lebesgue measure."""
    return PiGradedScalar(Fraction(2**n), n)
