"""Exact scalars: complex rationals and pi-graded values.

Every sphere and torus integral evaluated in this package lands in the
graded ring of complex rationals times an exact power of pi, with
half-integer exponents allowed because the Gamma function at half-integers
produces sqrt(pi).  Keeping the pi exponent symbolic is what makes equality
of residues decidable.

A ``ComplexRational`` is three plain ints, (a + bi) / den in lowest terms;
``CyclotomicScalar`` in ``cyclotomic`` is a cyclotomic-integer numerator
over one positive int.  The term engine runs on integer numerators over
one shared denominator (``terms.RationalSystem.numerator_map`` packs each
Gaussian numerator into one ``int``), sums a sphere integral into a
``GaussianInteger`` (here), and lowers its results back to these scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ValidationError

_PI = math.pi


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    Stored flat as three ints, (a + bi) / den in lowest terms: den > 0 and
    gcd(a, b, den) = 1, so zero is 0/1 and structural equality is equality
    of values.  ``re`` and ``im`` are the parts as ``Fraction``s.  Instances
    are immutable, so equal values may share one object.
    """

    __slots__ = ("a", "b", "den")

    def __init__(self, re=0, im=0):
        for x in (re, im):
            if not isinstance(x, (Fraction, int, str)):
                raise TypeError(f"expected a rational value, got {type(x).__name__}")
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (den // re.denominator))
        _set_b(self, im.numerator * (den // im.denominator))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @classmethod
    def _make(cls, a: int, b: int, den: int):
        """(a + bi) / den, which must already be in lowest terms."""
        out = _new(cls)
        _set_a(out, a)
        _set_b(out, b)
        _set_den(out, den)
        return out

    @classmethod
    def _lowest(cls, a: int, b: int, den: int):
        g = math.gcd(a, b, den)
        if g == 1:
            return cls._make(a, b, den)
        return cls._make(a // g, b // g, den // g)

    @staticmethod
    def _coerce(value):
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(value)
        return NotImplemented

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.den)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        den = math.lcm(d1, d2)
        k1, k2 = den // d1, den // d2
        return self._lowest(self.a * k1 + other.a * k2, self.b * k1 + other.b * k2, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return self._make(-self.a, -self.b, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational multiplier scales both parts; no complex product
            if other == 1:
                return self
            if not other:
                return CR_ZERO
            p = other.numerator
            return self._lowest(self.a * p, self.b * p, self.den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return self._lowest(a * c - b * d, a * d + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a + bi) / (c + di) = (a + bi)(c - di) / (c^2 + d^2)
        a, b, c, d, k = self.a, self.b, other.a, other.b, other.den
        return self._lowest((a * c + b * d) * k, (b * c - a * d) * k, self.den * (c * c + d * d))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self):
        return self._make(self.a, -self.b, self.den)

    def abs_squared(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.den * self.den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        if self.b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {abs(im)}*i"


# The slots are written through their descriptors, which is cheaper than
# object.__setattr__ by name and bypasses the refusing __setattr__ alike.
_new = object.__new__
_set_a, _set_b, _set_den = (ComplexRational.__dict__[name].__set__
                            for name in ComplexRational.__slots__)


class GaussianInteger:
    """An exact complex number with integer real and imaginary parts: the
    sphere total of the engine (``terms.PackedGaussians.total``), a sum of
    numerators over a shared denominator.
    Instances are never mutated; the fields are plain slots, cheap to set.
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


CR_ZERO = ComplexRational(0)


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

    @classmethod
    def _graded(cls, coeff, k: Fraction) -> "PiGradedScalar":
        """coeff * pi**k from a coefficient and a ``Fraction`` k known to be
        valid, as the arithmetic and the integrals make them: nothing is
        coerced or checked, and a zero coefficient still forces grade 0."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_exponent", k if coeff else _GRADE_ZERO)
        return self

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
        return PiGradedScalar._graded(self.coeff + other.coeff, self.pi_exponent)

    def __sub__(self, other):
        if not isinstance(other, PiGradedScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PiGradedScalar._graded(-self.coeff, self.pi_exponent)

    def __mul__(self, other):
        if isinstance(other, PiGradedScalar):
            return PiGradedScalar._graded(
                self.coeff * other.coeff, self.pi_exponent + other.pi_exponent
            )
        if isinstance(other, (int, Fraction, ComplexRational)):
            return PiGradedScalar._graded(self.coeff * other, self.pi_exponent)
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


_GRADE_ZERO = Fraction(0)
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


@lru_cache(maxsize=64)
def torus_volume(n: int) -> PiGradedScalar:
    """Volume (2*pi)^n of the n-torus with full Lebesgue measure."""
    return PiGradedScalar(Fraction(2**n), n)
