"""Homogeneous components and classical symbols on the n-torus.

The symbol class is deliberately structural: trigonometric-polynomial
dependence on x and xi^alpha |xi|^p dependence on xi.  It is closed under
every operation of the calculus (xi-derivatives, x-derivatives, products,
Euler antiderivatives) and admits exact sphere and torus integration, which
is what turns the residue identities into decidable statements.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import terms as T
from .errors import (
    CriticalDegreeError,
    InsufficientExpansionError,
    ValidationError,
)
from .scalars import (
    ComplexRational,
    PiGradedScalar,
    sphere_monomial_integral,
    sphere_surface_measure,
)

_SYS = T.RATIONAL_SYSTEM


class SymbolTerm(NamedTuple):
    """coeff * e^(i mode.x) * xi^alpha * |xi|^npow"""

    coeff: ComplexRational
    mode: tuple[int, ...]
    alpha: tuple[int, ...]
    npow: int

    @property
    def degree(self) -> int:
        return sum(self.alpha) + self.npow


def _canonical_bag(n: int, degree: int, items: Iterable, coerce) -> dict:
    """The canonical term bag of ``(coeff, mode, alpha, npow)`` items.

    Checks each item and coerces its coefficient with ``coerce`` before
    summing; ``canonical_terms`` then checks the homogeneity.
    """
    raw: dict = {}
    for coeff, mode, alpha, npow in items:
        mode = _indices(mode, n, "Fourier mode")
        alpha = _indices(alpha, n, "xi multi-index")
        if min(alpha) < 0:
            raise ValidationError(f"xi exponents must be nonnegative: {alpha}")
        T.bag_add(raw, (mode, alpha, _index(npow, "|xi| power")), coerce(coeff))
    return T.canonical_terms(n, degree, raw)


def _index(value, what: str) -> int:
    """``value`` as an ``int`` (``operator.index``), or ``ValidationError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} {value!r} is not an integer") from None


def _indices(entries, n: int, what: str) -> tuple[int, ...]:
    """``entries`` as n ``int``s: ``numpy.int64`` or ``bool`` entries become
    plain ``int``s, and a float or a string is a ``ValidationError``."""
    try:
        out = tuple(map(operator.index, entries))
    except TypeError:
        raise ValidationError(f"{what} {entries!r} must hold integers") from None
    if len(out) != n:
        raise ValidationError(f"{what} {out} has length != {n}")
    return out


def _sum_bag(n: int, degree: int, a: dict, b: dict) -> dict:
    """The canonical bag of a + b, two canonical bags of one degree."""
    if not a or not b:
        return a or b
    return T.canonical_terms(n, degree, T.add_terms(a, b))


def _scale_bag(bag: dict, c) -> dict:
    # a nonzero multiple of a canonical bag is canonical
    return {k: c * s for k, s in bag.items()} if c else {}


def _partial_xi_bag(n: int, degree: int, bag: dict, axis: int) -> dict:
    return T.canonical_terms(n, degree - 1, T.partial_xi_terms(n, bag, axis))


def _axis(n: int, direction: int) -> int:
    """The 0-based axis of a 1-based direction."""
    if not 1 <= direction <= n:
        raise ValidationError(f"direction must lie in 1..{n}, got {direction}")
    return direction - 1


class HomogeneousComponent:
    """A degree-d homogeneous function of (x, xi), kept in canonical form."""

    __slots__ = ("n", "degree", "_terms")

    def __init__(self, n: int, degree: int, terms: Iterable = ()):
        if n < 2:
            raise ValidationError(f"dimension must be at least 2, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_terms", _canonical_bag(n, degree, terms, _SYS.coerce))

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousComponent is immutable")

    @classmethod
    def _from_canonical(cls, n: int, degree: int, canonical: dict) -> "HomogeneousComponent":
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_terms", canonical)
        return self

    @classmethod
    def from_raw(cls, n: int, degree: int, raw: dict) -> "HomogeneousComponent":
        return cls._from_canonical(n, degree, T.canonical_terms(n, degree, raw))

    def terms(self) -> tuple[SymbolTerm, ...]:
        return tuple(
            SymbolTerm(s, mode, alpha, npow)
            for (mode, alpha, npow), s in sorted(self._terms.items())
        )

    def raw_terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _check_compatible(self, other: "HomogeneousComponent") -> None:
        if self.n != other.n:
            raise ValidationError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other):
        if not isinstance(other, HomogeneousComponent):
            return NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree and self._terms and other._terms:
            raise ValidationError(
                f"cannot add components of degrees {self.degree} and {other.degree}"
            )
        deg = self.degree if self._terms or not other._terms else other.degree
        return HomogeneousComponent._from_canonical(
            self.n, deg, _sum_bag(self.n, deg, self._terms, other._terms)
        )

    def __sub__(self, other):
        if not isinstance(other, HomogeneousComponent):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "HomogeneousComponent":
        return HomogeneousComponent._from_canonical(
            self.n, self.degree, _scale_bag(self._terms, _SYS.coerce(c))
        )

    def __mul__(self, other):
        if not isinstance(other, HomogeneousComponent):
            return NotImplemented
        self._check_compatible(other)
        deg = self.degree + other.degree
        raw = T.mul_terms(_SYS, self.n, self._terms, other._terms)
        return HomogeneousComponent._from_canonical(
            self.n, deg, T.canonical_terms(self.n, deg, raw)
        )

    def partial_xi(self, direction: int) -> "HomogeneousComponent":
        """d/d(xi_direction); directions are 1-based."""
        axis = _axis(self.n, direction)
        return HomogeneousComponent._from_canonical(
            self.n, self.degree - 1, _partial_xi_bag(self.n, self.degree, self._terms, axis)
        )

    def deriv_x(self, direction: int) -> "HomogeneousComponent":
        """D_x = -i d/dx in the given 1-based direction.

        It scales whole Fourier modes, so the canonical form is kept.
        """
        axis = _axis(self.n, direction)
        return HomogeneousComponent._from_canonical(
            self.n, self.degree, T.mode_deriv_terms(self._terms, axis)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousComponent):
            return NotImplemented
        return (
            self.n == other.n
            and (self.degree == other.degree or self.is_zero() and other.is_zero())
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items()) if self._terms else 0))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s}*e{list(mode)}*xi^{list(alpha)}*r^{p}"
            for (mode, alpha, p), s in sorted(self._terms.items())
        )
        return f"<component n={self.n} deg={self.degree}: {inner or '0'}>"


def canonicalize(component: HomogeneousComponent) -> HomogeneousComponent:
    """Rebuild the canonical form; idempotent by construction."""
    return HomogeneousComponent.from_raw(
        component.n, component.degree, component.raw_terms()
    )


def zero_component(n: int, degree: int) -> HomogeneousComponent:
    return HomogeneousComponent._from_canonical(n, degree, {})


class _FourierSum:
    """The core under both Fourier-sum classes: ``coeffs`` maps modes (n
    ``int``s each) to nonzero coefficients.

    ``_space`` and the subclass's ``n``, ``_system`` and ``_space_name`` are
    as for ``_Symbol``.  To the term engine a mode is a term with no xi
    part: a product is one ``mul_terms`` call (with the system's phase;
    the torus's system has none), a derivation one ``mode_deriv_terms``.
    """

    __slots__ = ("_space", "coeffs")

    def __init__(self, space, coeffs: dict | None = None):
        object.__setattr__(self, "_space", space)
        n, coerce = self.n, self._system.coerce
        clean = {}
        for mode, c in (coeffs or {}).items():
            mode, c = _indices(mode, n, "Fourier mode"), coerce(c)
            if c:
                clean[mode] = c
        object.__setattr__(self, "coeffs", clean)

    def _with(self, coeffs: dict):
        out = object.__new__(type(self))
        object.__setattr__(out, "_space", self._space)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check_space(self, other) -> None:
        if self._space != other._space:
            raise ValidationError(
                f"{self._space_name} mismatch: {self._space!r} vs {other._space!r}"
            )

    def _terms(self) -> dict:
        flat = (0,) * self.n
        return {(mode, flat, 0): s for mode, s in self.coeffs.items()}

    def _from_terms(self, bag: dict):
        return self._with({key[0]: s for key, s in bag.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_space(other)
        return self._with(T.add_terms(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._with({mode: -s for mode, s in self.coeffs.items()})

    def scale(self, c):
        c = self._system.coerce(c)
        return self._with({mode: p for mode, s in self.coeffs.items() if (p := c * s)})

    def __mul__(self, other):
        if type(other) is type(self):
            self._check_space(other)
            return self._from_terms(
                T.mul_terms(self._system, self.n, self._terms(), other._terms())
            )
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__  # a scalar multiple

    def adjoint(self):
        """The *-involution: (U^m V^n)* = e^(2 pi i theta m n) U^-m V^-n."""
        phase = self._system.phase
        out = {}
        for mode, s in self.coeffs.items():
            conj = s.conjugate()
            # the phase of reordering V^-n U^-m into U^-m V^-n
            ph = phase and phase(-mode[1], -mode[0])
            out[tuple(-x for x in mode)] = conj if ph is None else conj * ph
        return self._with(out)

    def trace(self):
        """The normalized trace: the mode-zero Fourier coefficient."""
        return self.coeffs.get((0,) * self.n, self._system.zero)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._space == other._space and self.coeffs == other.coeffs


class TrigPolynomial(_FourierSum):
    """A finite Fourier sum on the n-torus with exact coefficients."""

    __slots__ = ()

    _system = _SYS
    _space_name = "dimension"

    @property
    def n(self) -> int:
        return self._space

    def hat(self, mode) -> ComplexRational:
        return self.coeffs.get(tuple(mode), _SYS.zero)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = TrigPolynomial(self.n, {(0,) * self.n: other})  # a constant
        return super().__eq__(other)

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*e{list(m)}" for m, c in sorted(self.coeffs.items()))
        return f"<trigpoly n={self.n}: {inner or '0'}>"


def euler_antiderivatives(component: HomogeneousComponent) -> list[HomogeneousComponent]:
    """Components h_l = xi_l * c / (n + d) with sum_l d(h_l)/d(xi_l) = c.

    Euler's identity makes the divergence of (xi * c) equal (n + d) c for a
    degree-d homogeneous c, so the construction degenerates exactly at
    d = -n, which is a hard error.
    """
    n, d = component.n, component.degree
    if d == -n:
        raise CriticalDegreeError(
            f"Euler antiderivatives degenerate at degree {-n} in dimension {n}"
        )
    factor = ComplexRational(Fraction(1, n + d))
    out = []
    for axis in range(n):
        raw = {}
        for (mode, alpha, p), s in component.raw_terms().items():
            key = (mode, T._bump(alpha, axis, 1), p)
            raw[key] = s * factor
        out.append(
            HomogeneousComponent._from_canonical(
                n, d + 1, T.canonical_terms(n, d + 1, raw)
            )
        )
    return out


def _sphere_sum(system, n: int, bag: dict, den: int) -> PiGradedScalar:
    """Integral over S^(n-1) of sum_alpha (s / den) xi^alpha.

    ``bag`` maps alpha to a numerator of the system, as ``lift`` returns
    it.  Each numerator is scaled by its monomial integral over the lcm L
    of the integrals' denominators, so the sum stays on numerators, and the
    total is lowered once, over den * L.
    """
    grade = Fraction(n // 2)  # pi grade of every nonzero monomial integral on S^(n-1)
    weights = []
    for alpha, s in bag.items():
        integral = sphere_monomial_integral(alpha, n)
        if integral.is_zero():
            continue
        if integral.pi_exponent != grade:
            raise ArithmeticError("unexpected pi grade in a sphere integral")
        weights.append((s, integral.coeff))
    scale = math.lcm(*(w.den for _s, w in weights))
    total = None
    for s, w in weights:
        term = s * (w.num.re * (scale // w.den))
        total = term if total is None else total + term
    if not total:
        return PiGradedScalar(0)
    return PiGradedScalar(system.lower(total, den * scale), grade)


def sphere_average(component: HomogeneousComponent) -> TrigPolynomial:
    """Mean of a degree-(-n) component over the unit xi-sphere, per mode.

    On |xi| = 1 every |xi| power is 1 and the pi factors of the monomial
    integrals cancel against the surface measure, so the coefficients are
    complex rationals.
    """
    n = component.n
    if component.degree != -n:
        raise ValidationError(
            f"sphere average requires degree {-n}, got {component.degree}"
        )
    # within one mode of a homogeneous component, alpha determines the |xi| power
    by_mode: dict = {}
    for (mode, alpha, _p), s in component.raw_terms().items():
        by_mode.setdefault(mode, {})[alpha] = s
    # one lift for all the modes, so they share one denominator
    lifted, den = _SYS.lift(by_mode)
    # the measure is the integral of 1, whose pi grade every sphere sum has
    per_measure = 1 / sphere_surface_measure(n).coeff.re
    coeffs = {
        mode: _sphere_sum(_SYS, n, bag, den).coeff * per_measure
        for mode, bag in lifted.items()
    }
    return TrigPolynomial(n, coeffs)


class _Symbol:
    """The core under both symbol classes: a canonical term bag per degree.

    ``_space`` is what two symbols must share (the dimension of a
    ``ClassicalSymbol``, the twist of an ``NCSymbol``).  A subclass supplies
    ``n``, its coefficient ``_system`` (which also coerces scalars) and
    ``_space_name``.  D_x on the torus and delta_j on the twisted side both
    scale a term by its mode, so ``deriv_x`` serves both.
    """

    __slots__ = ("_space", "order", "trusted_floor", "_components")

    def _init(self, space, order: int, bags: Iterable, trusted_floor: int | None) -> None:
        """Set the fields from ``(degree, canonical bag)`` pairs.

        Empty bags are dropped; a nonempty one outside order..trusted_floor
        is refused.
        """
        comps = {}
        for deg, bag in bags:
            if not bag:
                continue
            if deg > order:
                raise ValidationError(f"component degree {deg} exceeds symbol order {order}")
            if trusted_floor is not None and deg < trusted_floor:
                raise ValidationError(
                    f"component degree {deg} lies below the trusted floor {trusted_floor}"
                )
            comps[deg] = bag
        if trusted_floor is not None and trusted_floor > order:
            raise ValidationError(f"trusted floor {trusted_floor} exceeds order {order}")
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "trusted_floor", trusted_floor)
        object.__setattr__(self, "_components", comps)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- what calculus.py composes and integrates through ---------------------

    def _term_bags(self) -> dict[int, dict]:
        return self._components

    def _with_term_bags(self, order: int, bags: dict[int, dict], trusted_floor: int | None):
        out = object.__new__(type(self))
        out._init(self._space, order, bags.items(), trusted_floor)
        return out

    # -- structure ------------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self._components, reverse=True)

    def is_zero(self) -> bool:
        return not self._components

    def _bag(self, degree: int) -> dict:
        """The bag at ``degree``, refusing a degree below the trusted floor."""
        if self.trusted_floor is not None and degree < self.trusted_floor:
            raise InsufficientExpansionError(
                f"degree {degree} lies below the trusted floor {self.trusted_floor}"
            )
        return self._components.get(degree, {})

    def __eq__(self, other) -> bool:
        """Equality of expansions: same space, floor and components.

        The declared order is presentation metadata (an upper bound), so two
        symbols that differ only there compare equal.
        """
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._space == other._space
            and self.trusted_floor == other.trusted_floor
            and self._components == other._components
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._space != other._space:
            raise ValidationError(f"{self._space_name} mismatch in symbol addition")
        floors = [f for f in (self.trusted_floor, other.trusted_floor) if f is not None]
        floor = max(floors) if floors else None
        a, b = self._components, other._components
        bags = {
            deg: _sum_bag(self.n, deg, a.get(deg, {}), b.get(deg, {}))
            for deg in set(a) | set(b)
            if floor is None or deg >= floor
        }
        return self._with_term_bags(max(self.order, other.order), bags, floor)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self._system.coerce(c)
        bags = {deg: _scale_bag(bag, c) for deg, bag in self._components.items()}
        return self._with_term_bags(self.order, bags, self.trusted_floor)

    def deriv_x(self, direction: int):
        """D_x in the given 1-based direction: each term scales by its mode there."""
        axis = _axis(self.n, direction)
        bags = {deg: T.mode_deriv_terms(bag, axis) for deg, bag in self._components.items()}
        return self._with_term_bags(self.order, bags, self.trusted_floor)

    def partial_xi(self, direction: int):
        """d/d(xi_direction); order and floor drop by one."""
        axis = _axis(self.n, direction)
        bags = {
            deg - 1: _partial_xi_bag(self.n, deg, bag, axis)
            for deg, bag in self._components.items()
        }
        floor = None if self.trusted_floor is None else self.trusted_floor - 1
        return self._with_term_bags(self.order - 1, bags, floor)


class ClassicalSymbol(_Symbol):
    """A truncated classical symbol: homogeneous components from ``order``
    down to ``trusted_floor``.

    ``trusted_floor=None`` marks a complete expansion (every unlisted degree
    is known to be zero), which is how exact polynomial symbols such as
    xi_l or e^(i x_l) enter the calculus.  Finite floors record how deep a
    truncated expansion can be trusted; operations refuse to answer
    questions that the missing lower components could change.
    """

    __slots__ = ()

    _system = _SYS
    _space_name = "dimension"

    def __init__(
        self,
        n: int,
        order: int,
        components: dict[int, HomogeneousComponent] | None = None,
        trusted_floor: int | None = None,
    ):
        if n < 2:
            raise ValidationError(f"dimension must be at least 2, got {n}")
        self._init(n, order, _component_bags(n, components or {}), trusted_floor)

    @property
    def n(self) -> int:
        return self._space

    def _check_composable(self, other: "ClassicalSymbol") -> None:
        if self.n != other.n:
            raise ValidationError(
                f"dimension mismatch in composition: {self.n} != {other.n}"
            )

    @property
    def components(self) -> dict[int, HomogeneousComponent]:
        return {
            d: HomogeneousComponent._from_canonical(self.n, d, bag)
            for d, bag in self._components.items()
        }

    def component(self, degree: int) -> HomogeneousComponent:
        return HomogeneousComponent._from_canonical(self.n, degree, self._bag(degree))

    def __hash__(self):
        return hash(
            (self.n, self.trusted_floor, frozenset(self.components.items()))
        )

    def __repr__(self) -> str:
        comps = ", ".join(f"{d}: {c!r}" for d, c in sorted(self.components.items(), reverse=True))
        return (
            f"<symbol n={self.n} order={self.order} floor={self.trusted_floor} "
            f"{{{comps}}}>"
        )


def _component_bags(n: int, components: dict):
    """The ``(degree, bag)`` pairs of a dict of components, each checked."""
    for deg, comp in components.items():
        if not isinstance(comp, HomogeneousComponent):
            raise TypeError("components must be HomogeneousComponent values")
        if comp.n != n:
            raise ValidationError("component dimension mismatch")
        if comp._terms and comp.degree != deg:
            raise ValidationError(
                f"component of degree {comp.degree} stored at degree {deg}"
            )
        yield deg, comp._terms


def monomial_symbol(
    n: int,
    coeff,
    mode: tuple[int, ...] = None,
    alpha: tuple[int, ...] = None,
    npow: int = 0,
) -> ClassicalSymbol:
    """A complete one-term symbol coeff * e^(i mode.x) xi^alpha |xi|^npow."""
    mode = (0,) * n if mode is None else mode
    alpha = (0,) * n if alpha is None else _indices(alpha, n, "xi multi-index")
    npow = _index(npow, "|xi| power")
    degree = sum(alpha) + npow
    comp = HomogeneousComponent(n, degree, [(coeff, mode, alpha, npow)])
    return ClassicalSymbol(n, degree, {degree: comp}, None)


def xi_symbol(n: int, direction: int) -> ClassicalSymbol:
    """The coordinate symbol xi_direction (1-based), complete at all depths."""
    if not 1 <= direction <= n:
        raise ValidationError(f"direction must lie in 1..{n}, got {direction}")
    alpha = tuple(1 if i == direction - 1 else 0 for i in range(n))
    return monomial_symbol(n, 1, alpha=alpha)


def exp_symbol(n: int, mode: tuple[int, ...]) -> ClassicalSymbol:
    """The oscillating symbol e^(i mode.x), complete at all depths."""
    return monomial_symbol(n, 1, mode=mode)


def one_symbol(n: int) -> ClassicalSymbol:
    return monomial_symbol(n, 1)
