"""Homogeneous components, classical symbols and Fourier sums on the n-torus.

The symbol class is deliberately structural: trigonometric-polynomial
dependence on x and xi^alpha |xi|^p dependence on xi.  It is closed under
every operation of the calculus (xi-derivatives, x-derivatives, products,
Euler antiderivatives) and admits exact sphere and torus integration, which
is what turns the residue identities into decidable statements.  One core,
``_Symbol``, stores and compares all of them; a Fourier sum
(``TrigPolynomial``, and ``nctorus.NCPolynomial``) is the order-0 symbol of
multiplication by it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import terms as T
from .errors import (
    CriticalDegreeError,
    InsufficientExpansionError,
    ValidationError,
)
from .scalars import (
    PG_ZERO,
    ComplexRational,
    PiGradedScalar,
    sphere_surface_measure,
    torus_volume,
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


def _checked_terms(n: int, items: Iterable, coerce) -> dict:
    """The raw term bag of ``(coeff, mode, alpha, npow)`` items: each key
    checked and made of plain ``int``s, each coefficient coerced with
    ``coerce`` before summing.  ``canonical_terms`` checks the homogeneity.
    Items that are not iterable, or an item that is not four entries, are
    a ``ValidationError``.
    """
    raw: dict = {}
    try:
        items = iter(items)
    except TypeError:
        raise ValidationError(f"terms {items!r} are not iterable") from None
    for item in items:
        try:
            coeff, mode, alpha, npow = item
        except (TypeError, ValueError):
            raise ValidationError(
                f"term {item!r} is not a (coeff, mode, alpha, npow) tuple") from None
        mode = _indices(mode, n, "Fourier mode")
        alpha = _indices(alpha, n, "xi multi-index")
        if min(alpha) < 0:
            raise ValidationError(f"xi exponents must be nonnegative: {alpha}")
        T.bag_add(raw, (mode, alpha, _index(npow, "|xi| power")), coerce(coeff))
    return raw


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


def _scale_bag(n: int, degree: int, bag: dict, c) -> dict:
    """c times a canonical bag.  A nonzero multiple of it is canonical; a
    float product that rounds to zero is dropped, as no zero term is
    stored, and the rest is made canonical again, since the terms left may
    be a multiple of xi_1^2 + ... + xi_n^2."""
    if not c:
        return {}
    out = {k: p for k, s in bag.items() if (p := c * s)}
    return out if len(out) == len(bag) else T.canonical_terms(n, degree, out)


def _axis(n: int, direction: int) -> int:
    """The 0-based axis of a 1-based direction."""
    direction = _index(direction, "direction")
    if not 1 <= direction <= n:
        raise ValidationError(f"direction must lie in 1..{n}, got {direction}")
    return direction - 1


def _dimension(n: int, least: int = 2) -> int:
    """``n`` as an ``int``, refused below ``least``."""
    if type(n) is not int:
        n = _index(n, "dimension")
    if n < least:
        raise ValidationError(f"dimension must be at least {least}, got {n}")
    return n


class _Torus:
    """The torus classes' space: the dimension, under the rational system;
    the commutative twin of ``nctorus._Twisted``."""

    __slots__ = ()

    _system = _SYS
    _space_name = "dimension"

    @property
    def n(self) -> int:
        return self._space


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


def _sphere_sum(system, n: int, total, den: int, *, volume=False) -> PiGradedScalar:
    """(total / den) pi^(n // 2), a ``terms.sphere_total`` lowered once, times
    the torus volume with ``volume`` (its coefficient on the left): one
    value is built, and none for a zero total."""
    if not total:
        return PG_ZERO
    coeff = system.lower(total, den)
    return PiGradedScalar._graded(torus_volume(n).coeff * coeff if volume else coeff,
                                  _grade(n // 2 + n * volume))


_grade = lru_cache(maxsize=64)(Fraction)


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
    by_mode: dict = {}
    for key, s in component.raw_terms().items():
        by_mode.setdefault(key[0], {})[key] = s
    # one numerator map for all the modes, so they share one denominator
    keys, bags, sizes = T._pack_sized(n, list(by_mode.values()), 0)
    nums, den = _SYS.numerator_map(bags, [], n, sizes, 0)
    # the measure is the integral of 1, whose pi grade every sphere sum has
    per_measure = 1 / sphere_surface_measure(n).coeff.re
    coeffs = {
        mode: _sphere_sum(_SYS, n, *T.sphere_integral(nums, keys, bag, den)).coeff * per_measure
        for mode, bag in zip(by_mode, bags)
    }
    return TrigPolynomial(n, coeffs)


class _Symbol:
    """The core under the symbol classes: a canonical term bag per degree.

    ``_space`` is what two symbols must share (the dimension of a
    ``ClassicalSymbol`` or a ``HomogeneousComponent``, the twist of an
    ``NCSymbol``).  A subclass takes ``n``, its coefficient ``_system``
    (which also coerces scalars) and ``_space_name`` from its space class,
    ``_Torus`` or ``nctorus._Twisted``.  D_x on the torus and delta_j on
    the twisted side both scale a term by its mode, so ``deriv_x`` serves
    both.  The Fourier sums are the order-0 symbols of multiplication by
    them (``_FourierSum``), so this core serves them too.

    Every class is built through ``_init_raw`` or ``_init``, and the
    arithmetic is written once here: ``+`` and ``-`` (a component adds
    only its degree rule), negation term by term, ``scale`` (which drops a
    float product that rounds to zero, ``_scale_bag``) and the pointwise
    product of one-degree symbols (``_product``).  One
    ``_check_space`` refuses a sum, a difference or a product across two
    spaces, naming both.
    """

    __slots__ = ("_space", "order", "trusted_floor", "_components")

    def _init(self, space, order: int, bags: Iterable, trusted_floor: int | None) -> None:
        """Set the fields from ``(degree, canonical bag)`` pairs.

        The order, the floor and the degrees become plain ``int``s
        (``operator.index``; a float is a ``ValidationError``).  Empty bags
        are dropped; a nonempty one outside order..trusted_floor is refused.
        """
        # most calls come from the arithmetic with ints: test the type first
        if type(order) is not int:
            order = _index(order, "order")
        if trusted_floor is not None and type(trusted_floor) is not int:
            trusted_floor = _index(trusted_floor, "trusted floor")
        comps = {}
        for deg, bag in bags:
            if type(deg) is not int:
                deg = _index(deg, "degree")
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
        _set_space(self, space)
        _set_order(self, order)
        _set_floor(self, trusted_floor)
        _set_components(self, comps)

    def _init_raw(self, space, order: int, blocks: Iterable, trusted_floor: int | None) -> None:
        """``_init`` from ``(degree, raw bag)`` pairs with checked keys and
        coefficients of the system, each bag made canonical: the one
        construction path of both calculi, which ``NCSymbol`` reaches after
        ``_checked_terms`` and the readers in ``dsl`` directly.  Every
        caller has coerced each coefficient once; none is coerced here."""
        _set_space(self, space)  # which n reads
        n = self.n
        bags = [(deg, T.canonical_terms(n, deg, raw)) for deg, raw in blocks]
        self._init(space, order, bags, trusted_floor)

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

    def __hash__(self):
        return hash((self._space, self.trusted_floor, frozenset(
            (deg, frozenset(bag.items())) for deg, bag in self._components.items())))

    # -- arithmetic -----------------------------------------------------------

    def _check_space(self, other) -> None:
        if self._space != other._space:
            raise ValidationError(
                f"{self._space_name} mismatch: {self._space!r} vs {other._space!r}"
            )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_space(other)
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
        # term by term: a float's zero part keeps its sign, which scale(-1) flips
        bags = {deg: {k: -s for k, s in bag.items()} for deg, bag in self._components.items()}
        return self._with_term_bags(self.order, bags, self.trusted_floor)

    def scale(self, c):
        c = self._system.coerce(c)
        bags = {deg: _scale_bag(self.n, deg, bag, c) for deg, bag in self._components.items()}
        return self._with_term_bags(self.order, bags, self.trusted_floor)

    def _product(self, other):
        """The pointwise product of two symbols of one degree each, complete:
        one ``mul_terms`` call with the system's phase (the torus's system
        has none), at the sum of the degrees."""
        self._check_space(other)
        order = self.order + other.order
        raw = T.mul_terms(self._system, self.n, self._bag(self.order), other._bag(other.order))
        out = object.__new__(type(self))
        out._init_raw(self._space, order, ((order, raw),), None)
        return out

    def deriv_x(self, direction: int):
        """D_x in the given 1-based direction: each term scales by its mode there."""
        axis = _axis(self.n, direction)
        bags = {deg: T.mode_deriv_terms(bag, axis) for deg, bag in self._components.items()}
        return self._with_term_bags(self.order, bags, self.trusted_floor)

    def partial_xi(self, direction: int):
        """d/d(xi_direction); order and floor drop by one."""
        n = self.n
        axis = _axis(n, direction)
        bags = {
            deg - 1: T.canonical_terms(n, deg - 1, T.partial_xi_terms(n, bag, axis))
            for deg, bag in self._components.items()
        }
        floor = None if self.trusted_floor is None else self.trusted_floor - 1
        return self._with_term_bags(self.order - 1, bags, floor)


# The slots are written through their descriptors, which is cheaper than
# object.__setattr__ by name and bypasses the refusing __setattr__ alike.
_set_space, _set_order, _set_floor, _set_components = (
    _Symbol.__dict__[name].__set__ for name in _Symbol.__slots__
)


class _FourierSum(_Symbol):
    """What a finite Fourier sum adds to the symbol core.

    A function on the torus, or an element of the twisted algebra, is the
    order-0 symbol of multiplication by it: one bag at degree 0 whose terms
    ``(mode, (0,) * n, 0)`` carry no xi part, and no floor.  The core's
    construction, storage, zero test, equality, hash, ``+``, ``-``,
    negation, ``scale``, pointwise product and ``deriv_x`` serve it;
    ``coeffs`` reads the bag as mode -> coefficient, and a product by
    anything but a sum of the same class is a scalar multiple.
    """

    __slots__ = ()

    def __init__(self, space, coeffs: dict | None = None):
        _set_space(self, space)  # which n and _system read
        n = self.n
        flat = (0,) * n
        terms = ((c, mode, flat, 0) for mode, c in (coeffs or {}).items())
        self._init_raw(space, 0, ((0, _checked_terms(n, terms, self._system.coerce)),), None)

    @property
    def coeffs(self) -> dict:
        """Mode -> nonzero coefficient, read from the bag into a new dict."""
        return {key[0]: s for key, s in self._bag(0).items()}

    def _coefficient(self, mode: tuple):
        return self._bag(0).get((mode, (0,) * self.n, 0), self._system.zero)

    def __bool__(self) -> bool:
        return bool(self._components)

    def __mul__(self, other):
        if type(other) is type(self):
            return self._product(other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__  # a scalar multiple

    def adjoint(self):
        """The *-involution: (U^m V^n)* = e^(2 pi i theta m n) U^-m V^-n."""
        phase = self._system.phase
        out = {}
        for (mode, flat, _p), s in self._bag(0).items():
            conj = s.conjugate()
            # the phase of reordering V^-n U^-m into U^-m V^-n
            ph = phase and phase(-mode[1], -mode[0])
            out[(tuple(-x for x in mode), flat, 0)] = conj if ph is None else conj * ph
        return self._with_term_bags(0, {0: out}, None)

    def trace(self):
        """The normalized trace: the mode-zero Fourier coefficient."""
        return self._coefficient((0,) * self.n)


class TrigPolynomial(_Torus, _FourierSum):
    """A finite Fourier sum on the n-torus with exact coefficients; the
    circle, n = 1, is admitted."""

    __slots__ = ()

    def __init__(self, n: int, coeffs: dict | None = None):
        super().__init__(_dimension(n, 1), coeffs)

    def hat(self, mode) -> ComplexRational:
        return self._coefficient(tuple(mode))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = TrigPolynomial(self.n, {(0,) * self.n: other})  # a constant
        return super().__eq__(other)

    __hash__ = _Symbol.__hash__  # defining __eq__ unsets the inherited one

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*e{list(m)}" for m, c in sorted(self.coeffs.items()))
        return f"<trigpoly n={self.n}: {inner or '0'}>"


class HomogeneousComponent(_Torus, _Symbol):
    """A degree-d homogeneous function of (x, xi), kept in canonical form.

    It is a complete symbol of the one degree d: its one bag, when
    nonzero, sits at its order d, so the core's construction, equality and
    hash (two zero components are equal at any degree), ``-``, negation,
    ``scale``, pointwise product, ``partial_xi`` and ``deriv_x`` serve it.
    A sum refuses two nonzero summands of different degrees.
    """

    __slots__ = ()

    def __init__(self, n: int, degree: int, terms: Iterable = ()):
        if type(n) is not int or type(degree) is not int:
            n, degree = _index(n, "dimension"), _index(degree, "degree")
        n = _dimension(n)
        self._init_raw(n, degree, ((degree, _checked_terms(n, terms, _SYS.coerce)),), None)

    @classmethod
    def _from_canonical(cls, n: int, degree: int, canonical: dict) -> "HomogeneousComponent":
        self = object.__new__(cls)
        self._init(n, degree, ((degree, canonical),), None)
        return self

    @classmethod
    def from_raw(cls, n: int, degree: int, raw: dict) -> "HomogeneousComponent":
        self = object.__new__(cls)
        self._init_raw(n, degree, ((degree, raw),), None)
        return self

    @property
    def degree(self) -> int:
        return self.order

    @property
    def _terms(self) -> dict:
        return self._components[self.order] if self._components else {}

    def terms(self) -> tuple[SymbolTerm, ...]:
        return tuple(
            SymbolTerm(s, mode, alpha, npow)
            for (mode, alpha, npow), s in sorted(self._terms.items())
        )

    def raw_terms(self) -> dict:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        """The core's sum; of two summands of different degrees, one must be
        zero, and the sum is the other one."""
        if type(other) is not type(self) or self.degree == other.degree:
            return _Symbol.__add__(self, other)
        self._check_space(other)
        if self._terms and other._terms:
            raise ValidationError(
                f"cannot add components of degrees {self.degree} and {other.degree}"
            )
        return other if other._terms else self

    def __mul__(self, other):
        return self._product(other) if type(other) is type(self) else NotImplemented

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


class ClassicalSymbol(_Torus, _Symbol):
    """A truncated classical symbol: homogeneous components from ``order``
    down to ``trusted_floor``.

    ``trusted_floor=None`` marks a complete expansion (every unlisted degree
    is known to be zero), which is how exact polynomial symbols such as
    xi_l or e^(i x_l) enter the calculus.  Finite floors record how deep a
    truncated expansion can be trusted; operations refuse to answer
    questions that the missing lower components could change.
    """

    __slots__ = ()

    def __init__(
        self,
        n: int,
        order: int,
        components: dict[int, HomogeneousComponent] | None = None,
        trusted_floor: int | None = None,
    ):
        n = _dimension(n)
        self._init(n, order, _component_bags(n, components or {}), trusted_floor)

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
    return monomial_symbol(n, 1, alpha=T._bump((0,) * n, _axis(n, direction), 1))


def exp_symbol(n: int, mode: tuple[int, ...]) -> ClassicalSymbol:
    """The oscillating symbol e^(i mode.x), complete at all depths."""
    return monomial_symbol(n, 1, mode=mode)


def one_symbol(n: int) -> ClassicalSymbol:
    return monomial_symbol(n, 1)
