"""The twisted two-torus side: finite Fourier sums in U, V with VU = e^(2 pi i theta) UV,
derivations, the normalized trace, symbols with algebra-valued coefficients,
their residue, and the theta = 0 bridge back to the ordinary torus.

Two scalar backends coexist: exact cyclotomic coefficients for rational
twists (decidable equality, exact trace identities) and floating complex
coefficients for continuity experiments at arbitrary twists.  The twist
picks the backend in one place, ``_system_for``, which keeps one
coefficient system per exact twist.  That system coerces every
coefficient, and its ``phase`` is the only place the factor
e^(2 pi i theta t) is computed: an integer root of unity, built once per
exponent, which numerators and coefficients multiply by alike.

This module keeps only what is particular to the twisted algebra.  The
calculus itself is the commutative one with D_x replaced by delta_j:
``nc_compose``, ``nc_residue`` and ``nc_trace_defect`` call the composed-
floor rule, composition and residue integral of ``calculus``, and
``NCPolynomial`` is the Fourier sum of ``symbols`` (an order-0 symbol on
the one symbol core) with the twist as its space, whose products are the
term engine's ``mul_terms`` with the backend's phase and whose delta_j is
the core's ``deriv_x``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import terms as T
from .calculus import (
    _normalized_residue,
    _normalized_residue_of_composition,
    _Record,
    compose,
    residue,
)
from .errors import DomainError, ValidationError
from .scalars import PiGradedScalar, torus_volume
from .symbols import (
    ClassicalSymbol,
    HomogeneousComponent,
    _checked_terms,
    _FourierSum,
    _index,
    _Symbol,
)


class Theta(_Record):
    """The twist angle, either an exact rational or a floating value."""

    __slots__ = ("exact", "approximate")

    def __init__(self, exact: Fraction | None = None, approximate: float | None = None):
        if (exact is None) == (approximate is None):
            raise ValidationError("exactly one of exact/approximate must be set")
        if approximate is not None and not math.isfinite(approximate):
            raise ValidationError(f"bad theta {approximate!r}: not finite")
        self._set(exact, approximate)

    @classmethod
    def from_rational(cls, value) -> "Theta":
        try:
            return cls(exact=Fraction(value))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad theta {value!r}: {exc}") from None

    @classmethod
    def from_float(cls, value: float) -> "Theta":
        try:
            return cls(approximate=float(value))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad theta {value!r}: {exc}") from None

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def as_float(self) -> float:
        return float(self.exact) if self.is_exact else self.approximate

    def __repr__(self) -> str:
        if self.is_exact:
            return f"Theta({self.exact})"
        return f"Theta(~{self.approximate})"


THETA_ZERO = Theta.from_rational(0)


def _twist(theta) -> Theta:
    """``theta``, which a twisted class takes as its space: a ``Theta``,
    or ``ValidationError``."""
    if not isinstance(theta, Theta):
        raise ValidationError(f"a twist must be a Theta, got {theta!r}")
    return theta


def _system_for(theta: Theta | None):
    """The coefficient system of a twist; None is the commutative calculus.

    An exact twist has one system (``_exact_system``), so the roots of
    unity its phase builds are kept from call to call.  A float one is
    built afresh: 0.0 and -0.0 are one twist, but their phases differ in
    the sign of a zero part.
    """
    if theta is None:
        return T.RATIONAL_SYSTEM
    if theta.is_exact:
        return _exact_system(theta.exact.numerator, theta.exact.denominator)
    return T.FloatSystem(theta.approximate)


# keyed by two ints, which hash faster than the Fraction
_exact_system = lru_cache(maxsize=64)(T.CyclotomicSystem)


class _Twisted:
    """The twisted classes' space: the twist, which picks their system."""

    __slots__ = ()

    n = 2
    _space_name = "twist"

    @property
    def theta(self) -> Theta:
        return self._space

    @property
    def _system(self):
        return _system_for(_twist(self.theta))


class NCPolynomial(_Twisted, _FourierSum):
    """A finite Fourier sum sum a_mn U^m V^n in the twisted torus algebra."""

    __slots__ = ()

    @classmethod
    def zero(cls, theta: Theta) -> "NCPolynomial":
        return cls(theta, {})

    @classmethod
    def one(cls, theta: Theta) -> "NCPolynomial":
        return cls(theta, {(0, 0): 1})

    @classmethod
    def monomial(cls, theta: Theta, m: int, n: int, coeff=1) -> "NCPolynomial":
        return cls(theta, {(m, n): coeff})

    def coefficient(self, m: int, n: int):
        return self._coefficient((m, n))

    def delta(self, j: int) -> "NCPolynomial":
        """The basic derivation delta_j; scales a_mn by m (j=1) or n (j=2)."""
        if j not in (1, 2):
            raise ValidationError(f"derivation index must be 1 or 2, got {j}")
        return self.deriv_x(j)

    def approximate(self) -> "NCPolynomial":
        """The same element with floating coefficients."""
        if not self.theta.is_exact:
            return self
        return NCPolynomial(Theta.from_float(self.theta.as_float()), self.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        inner = " + ".join(
            f"({s})*U^{m}V^{n}" for (m, n), s in sorted(self.coeffs.items())
        )
        return f"<ncpoly theta={self.theta!r}: {inner or '0'}>"


def nc_u(theta: Theta) -> NCPolynomial:
    return NCPolynomial.monomial(theta, 1, 0)


def nc_v(theta: Theta) -> NCPolynomial:
    return NCPolynomial.monomial(theta, 0, 1)


class NCSymbol(_Twisted, _Symbol):
    """A classical symbol whose coefficients live in the twisted algebra.

    Terms are stored at the granularity of single U^m V^n modes, mirroring
    the Fourier modes of the commutative calculus; the canonical form is
    the same maximal-|xi|-power extraction per (mode, parity) class.
    Coefficients always multiply from the left.  A block of ``components``
    is a ``(mode, alpha, npow) -> coeff`` dict or a list of
    ``(coeff, mode, alpha, npow)`` terms.
    """

    __slots__ = ()

    __hash__ = None

    def __init__(
        self,
        theta: Theta,
        order: int,
        components: dict | None = None,
        trusted_floor: int | None = None,
    ):
        coerce = _system_for(_twist(theta)).coerce
        # a generator: each block is checked, then put in canonical form
        blocks = ((deg if type(deg) is int else _index(deg, "degree"),
                   _checked_terms(2, _block_items(block), coerce))
                  for deg, block in (components or {}).items())
        self._init_raw(theta, order, blocks, trusted_floor)

    def _check_composable(self, other: "NCSymbol") -> None:
        if self.theta != other.theta:
            raise ValidationError("twist mismatch in composition")

    @property
    def components(self) -> dict[int, dict]:
        return {d: dict(t) for d, t in self._components.items()}

    def component_raw(self, degree: int) -> dict:
        return dict(self._bag(degree))

    def blocks(self) -> dict[int, list[tuple[tuple[int, int], int, NCPolynomial]]]:
        """Components grouped as (alpha, npow) -> algebra coefficient."""
        out = {}
        for deg, terms in self._components.items():
            grouped: dict = {}
            for (mode, alpha, npow), s in terms.items():
                grouped.setdefault((alpha, npow), {})[mode] = s
            out[deg] = [
                (alpha, npow, NCPolynomial(self.theta, modes))
                for (alpha, npow), modes in sorted(grouped.items())
            ]
        return out

    def __repr__(self) -> str:
        return (
            f"<ncsymbol theta={self.theta!r} order={self.order} "
            f"floor={self.trusted_floor} degrees={self.degrees()}>"
        )


def _block_items(block):
    """The ``(coeff, mode, alpha, npow)`` terms of a dict or list block; a
    dict key that is not a ``(mode, alpha, npow)`` tuple is refused."""
    if not isinstance(block, dict):
        return block
    items = []
    for key, coeff in block.items():
        if type(key) is not tuple or len(key) != 3:
            raise ValidationError(f"term key {key!r} is not a (mode, alpha, npow) tuple")
        items.append((coeff, *key))
    return items


def nc_compose(sigma: NCSymbol, tau: NCSymbol) -> NCSymbol:
    """Composition with D_x^gamma replaced by delta^gamma; sigma acts from the left."""
    return compose(sigma, tau)


def nc_residue(sigma: NCSymbol) -> PiGradedScalar:
    """Circle integral of the trace of the degree-(-2) coefficient.

    Exact (a cyclotomic multiple of pi) under the exact backend; floating
    under the approximate one.
    """
    return _normalized_residue(sigma)


def _nc_residue_of_composition(sigma: NCSymbol, tau: NCSymbol) -> PiGradedScalar:
    return _normalized_residue_of_composition(sigma, tau)


def nc_trace_defect(sigma: NCSymbol, tau: NCSymbol) -> PiGradedScalar:
    """Residue of the composition commutator; exactly zero for rational twists."""
    return _normalized_residue_of_composition(sigma, tau, commutator=True)


def nc_apply(sigma: NCSymbol, a: NCPolynomial) -> NCPolynomial:
    """Apply the operator of sigma to an algebra element by lattice evaluation.

    Each Fourier mode (m, n) of ``a`` is scaled on the left by the symbol
    evaluated at xi = (m, n); the (0, 0) mode is cut off because homogeneous
    components are singular at the origin.  Output uses the floating backend.
    """
    if sigma.theta != a.theta:
        raise ValidationError("twist mismatch between symbol and argument")
    theta = Theta.from_float(sigma.theta.as_float())
    coerce = _system_for(theta).coerce
    out: dict = {}  # the sum, one mode at a time, in the order of a's modes
    for (m, n), coeff in a.coeffs.items():
        if (m, n) == (0, 0):
            continue
        norm_sq = m * m + n * n
        values: dict = {}
        for (mode, alpha, p), s in _all_terms(sigma):
            radial = norm_sq ** (p // 2) if p % 2 == 0 else math.sqrt(norm_sq) ** p
            v = (m ** alpha[0]) * (n ** alpha[1]) * radial
            if v == 0:
                continue
            values[mode] = values.get(mode, 0j) + coerce(s) * v
        sym_val = NCPolynomial(theta, values)
        for mode, s in (sym_val * NCPolynomial(theta, {(m, n): coeff})).coeffs.items():
            T.bag_add(out, mode, s)
    return NCPolynomial(theta, out)


def _all_terms(sigma: NCSymbol):
    for terms in sigma._components.values():
        yield from terms.items()


def to_euclidean(sigma: NCSymbol) -> ClassicalSymbol:
    """Identify U, V with e^(ix), e^(iy) at twist zero.

    Intertwines the two composition formulas and carries the twisted
    residue to the commutative one up to the torus volume (2 pi)^2.
    """
    if not (sigma.theta.is_exact and sigma.theta.exact == 0):
        raise DomainError("the Euclidean identification requires theta exactly 0")
    comps = {
        deg: HomogeneousComponent.from_raw(
            2, deg, {key: s.to_complex_rational() for key, s in terms.items()}
        )
        for deg, terms in sigma._components.items()
    }
    return ClassicalSymbol(2, sigma.order, comps, sigma.trusted_floor)


class SemiclassicalReport(_Record):
    __slots__ = ("lhs", "rhs", "equal")

    def __init__(self, lhs: PiGradedScalar, rhs: PiGradedScalar, equal: bool):
        self._set(lhs, rhs, equal)


def semiclassical_check(sigma: NCSymbol) -> SemiclassicalReport:
    """Compare the Euclidean residue with (2 pi)^2 times the twisted residue.

    The factor reconciles the unnormalized torus integral with the
    normalized trace; at twist zero the two sides agree exactly.
    """
    lhs = residue(to_euclidean(sigma))
    rhs = torus_volume(2) * nc_residue(sigma)
    return SemiclassicalReport(lhs=lhs, rhs=rhs, equal=lhs == rhs)
