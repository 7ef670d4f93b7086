"""Exact scalars: complex rationals and pi-graded values.

Every sphere and torus integral evaluated in this package lands in the
graded ring of complex rationals times an exact power of pi, with
half-integer exponents allowed because the Gamma function at half-integers
produces sqrt(pi).  Keeping the pi exponent symbolic is what makes equality
of residues decidable.

Both calculi's exact scalars, ``ComplexRational`` here and
``CyclotomicScalar`` in ``cyclotomic``, are integer-ring numerators over one
positive int (``_Quotient``, which holds their arithmetic once); the term
engine runs on the numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ValidationError

_PI = math.pi


_set = object.__setattr__


def _lowest_terms(num, den: int):
    """num / den with the common factor of den and num's content divided out."""
    g = math.gcd(num.content(), den)
    if g == 1:
        return num, den
    return num.exact_div(g), den // g


class _Quotient:
    """An exact scalar num / den: an integer-ring numerator over a positive int.

    Kept in lowest terms: den and the content of num (the gcd of its
    coefficients) are coprime, and zero has den 1, so structural equality
    is equality of values.  A scalar multiplies by a bare numerator (such
    as a twist's root of unity) as by a scalar of denominator 1.  The
    numerator supplies its ring operations, ``content``, ``exact_div`` and
    ``conjugate``; a subclass supplies ``_coerce`` (a value of its class,
    or ``NotImplemented``) and ``_zero``, the value a rational zero factor
    gives.
    """

    __slots__ = ("num", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, num, den: int):
        out = object.__new__(cls)
        _set(out, "num", num)
        _set(out, "den", den)
        return out

    @classmethod
    def _lowest(cls, num, den: int):
        return cls._make(*_lowest_terms(num, den))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        return self._lowest(self.num * (den // self.den) + other.num * (den // other.den), den)

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
        return self._make(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational multiplier scales the numerator; no ring product
            if other == 1:
                return self
            if not other:
                return self._zero
            return self._lowest(self.num * other.numerator, self.den * other.denominator)
        if type(other) is type(self.num):
            return self._lowest(self.num * other, self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._lowest(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self):
        return self._make(self.num.conjugate(), self.den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num


class ComplexRational(_Quotient):
    """A complex number with exact rational real and imaginary parts.

    Stored as a Gaussian-integer numerator over one positive denominator in
    lowest terms; ``re`` and ``im`` are the parts as ``Fraction``s.
    """

    __slots__ = ()

    def __init__(self, re=0, im=0):
        for x in (re, im):
            if not isinstance(x, (Fraction, int, str)):
                raise TypeError(f"expected a rational value, got {type(x).__name__}")
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        _set(self, "num", GaussianInteger(re.numerator * (den // re.denominator),
                                          im.numerator * (den // im.denominator)))
        _set(self, "den", den)

    @staticmethod
    def _coerce(value):
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(value)
        return NotImplemented

    @property
    def re(self) -> Fraction:
        return Fraction(self.num.re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num.im, self.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero ComplexRational")
        conj = other.num.conjugate()
        return self._lowest(self.num * conj * other.den, self.den * (other.num * conj).re)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def abs_squared(self) -> Fraction:
        return Fraction((self.num * self.num.conjugate()).re, self.den * self.den)

    def __hash__(self):
        if self.num.im == 0:
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


class GaussianInteger:
    """An exact complex number with integer real and imaginary parts.

    The numerator of ``ComplexRational``, and the scalar exact composition
    runs on: coefficients are lifted over a shared integer denominator, so
    sums and products here never normalize a fraction.  Instances are never
    mutated after construction; the fields are plain slots to keep
    construction cheap.
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

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def content(self) -> int:
        return math.gcd(self.re, self.im)

    def exact_div(self, d: int) -> "GaussianInteger":
        re, rem_re = divmod(self.re, d)
        im, rem_im = divmod(self.im, d)
        if rem_re or rem_im:
            raise ArithmeticError(f"{self!r} / {d} is not a Gaussian integer")
        return GaussianInteger(re, im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianInteger):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __repr__(self) -> str:
        return f"GaussianInteger({self.re!r}, {self.im!r})"


CR_ZERO = ComplexRational(0)
ComplexRational._zero = CR_ZERO


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
