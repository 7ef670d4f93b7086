"""Homogeneous components and classical symbols on the n-torus.

The symbol class is deliberately structural: trigonometric-polynomial
dependence on x and xi^alpha |xi|^p dependence on xi.  It is closed under
every operation of the calculus (xi-derivatives, x-derivatives, products,
Euler antiderivatives) and admits exact sphere and torus integration, which
is what turns the residue identities into decidable statements.
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
    """
    raw: dict = {}
    for coeff, mode, alpha, npow in items:
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


def _scale_bag(bag: dict, c) -> dict:
    # a nonzero multiple of a canonical bag is canonical
    return {k: c * s for k, s in bag.items()} if c else {}


def _axis(n: int, direction: int) -> int:
    """The 0-based axis of a 1-based direction."""
    direction = _index(direction, "direction")
    if not 1 <= direction <= n:
        raise ValidationError(f"direction must lie in 1..{n}, got {direction}")
    return direction - 1


def _dimension(n: int) -> int:
    """``n`` as an ``int``, refused below 2."""
    if type(n) is not int:
        n = _index(n, "dimension")
    if n < 2:
        raise ValidationError(f"dimension must be at least 2, got {n}")
    return n


class _FourierSum:
    """The core under both Fourier-sum classes: ``coeffs`` maps modes (n
    ``int``s each) to nonzero coefficients.

    ``_space`` is as for ``_Symbol``, and the subclass takes ``n``,
    ``_system`` and ``_space_name`` from its space class, ``_Torus`` or
    ``nctorus._Twisted``.  To the term engine a mode is a term with no xi
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


class _Torus:
    """The torus classes' space: the dimension, under the rational system;
    the commutative twin of ``nctorus._Twisted``."""

    __slots__ = ()

    _system = _SYS
    _space_name = "dimension"

    @property
    def n(self) -> int:
        return self._space


class TrigPolynomial(_Torus, _FourierSum):
    """A finite Fourier sum on the n-torus with exact coefficients."""

    __slots__ = ()

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
    both.
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


class HomogeneousComponent(_Torus, _Symbol):
    """A degree-d homogeneous function of (x, xi), kept in canonical form.

    It is a complete symbol of the one degree d: its one bag, when
    nonzero, sits at its order d, so the core's equality (two zero
    components are equal at any degree), ``-``, negation, ``scale``,
    ``partial_xi`` and ``deriv_x`` serve it.  A sum refuses two nonzero
    summands of different degrees.
    """

    __slots__ = ()

    def __init__(self, n: int, degree: int, terms: Iterable = ()):
        if type(n) is not int or type(degree) is not int:
            n, degree = _index(n, "dimension"), _index(degree, "degree")
        n = _dimension(n)
        raw = _checked_terms(n, terms, _SYS.coerce)
        self._set(n, degree, T.canonical_terms(n, degree, raw))

    def _set(self, n: int, degree: int, canonical: dict) -> None:
        _set_space(self, n)
        _set_order(self, degree)
        _set_floor(self, None)
        _set_components(self, {degree: canonical} if canonical else {})

    @classmethod
    def _from_canonical(cls, n: int, degree: int, canonical: dict) -> "HomogeneousComponent":
        self = object.__new__(cls)
        self._set(n, degree, canonical)
        return self

    @classmethod
    def from_raw(cls, n: int, degree: int, raw: dict) -> "HomogeneousComponent":
        return cls._from_canonical(n, degree, T.canonical_terms(n, degree, raw))

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
        if not isinstance(other, HomogeneousComponent):
            return NotImplemented
        if self.n != other.n:
            raise ValidationError(f"dimension mismatch: {self.n} != {other.n}")
        if self.degree != other.degree and self._terms and other._terms:
            raise ValidationError(
                f"cannot add components of degrees {self.degree} and {other.degree}"
            )
        deg = self.degree if self._terms or not other._terms else other.degree
        return HomogeneousComponent._from_canonical(
            self.n, deg, _sum_bag(self.n, deg, self._terms, other._terms)
        )

    def __mul__(self, other):
        if not isinstance(other, HomogeneousComponent):
            return NotImplemented
        if self.n != other.n:
            raise ValidationError(f"dimension mismatch: {self.n} != {other.n}")
        raw = T.mul_terms(_SYS, self.n, self._terms, other._terms)
        return HomogeneousComponent.from_raw(self.n, self.degree + other.degree, raw)

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
    return monomial_symbol(n, 1, alpha=T._bump((0,) * n, _axis(n, direction), 1))


def exp_symbol(n: int, mode: tuple[int, ...]) -> ClassicalSymbol:
    """The oscillating symbol e^(i mode.x), complete at all depths."""
    return monomial_symbol(n, 1, mode=mode)


def one_symbol(n: int) -> ClassicalSymbol:
    return monomial_symbol(n, 1)
