"""Operator-level calculus on the torus: composition, residue, commutators.

The composition expansion is the finite-per-degree double sum over
homogeneous components and derivative multi-indices; truncation bookkeeping
follows the rule floor(lambda) = max(floor(sigma) + order(tau),
order(sigma) + floor(tau)), which is exactly the set of degrees that the
unknown components below either factor's floor cannot reach.

The composed-floor rule, composition and the residue integral are written
once here for both symbol classes: ``nctorus`` composes and integrates
twisted symbols through the same functions, which reach a symbol only
through ``n``, ``order``, ``trusted_floor``, ``_system``, ``_term_bags``,
``_check_composable`` and ``_with_term_bags``.
"""

from __future__ import annotations

from . import terms as T
from .errors import InsufficientExpansionError, ValidationError
from .scalars import (
    PiGradedScalar,
    sphere_surface_measure,
    torus_volume,
)
from .symbols import (
    ClassicalSymbol,
    HomogeneousComponent,
    TrigPolynomial,
    _axis,
    _index,
    _sphere_sum,
    euler_antiderivatives,
    exp_symbol,
    sphere_average,
    xi_symbol,
)


def _standard_floor(sigma, tau) -> int | None:
    parts = []
    if sigma.trusted_floor is not None:
        parts.append(sigma.trusted_floor + tau.order)
    if tau.trusted_floor is not None:
        parts.append(sigma.order + tau.trusted_floor)
    return max(parts) if parts else None


def _symbol_polynomial(sym: ClassicalSymbol) -> bool:
    return all(T.terms_polynomial(t) for t in sym._term_bags().values())


def _check_pair(sigma, tau) -> None:
    """Refuse, with ``TypeError``, a pair that is not two symbols of one
    class, ``ClassicalSymbol`` or ``NCSymbol`` (the classes that say when
    two of their symbols compose), then ask that class."""
    check = getattr(type(sigma), "_check_composable", None)
    if check is None or type(sigma) is not type(tau):
        raise TypeError(
            f"cannot compose {type(sigma).__name__} with {type(tau).__name__}"
        )
    check(sigma, tau)


def _compose_impl(sigma, tau, floor: int | None, *, commutator: bool = False):
    """sigma o tau for either symbol class: ClassicalSymbol or NCSymbol; with
    ``commutator``, sigma o tau - tau o sigma in one engine pass
    (``terms.compose_components``).

    Each class supplies its coefficient system, its term bags, the check
    that two of its symbols compose, and the wrapping of the result.
    """
    _check_pair(sigma, tau)
    bags = T.compose_components(
        sigma._system,
        sigma.n,
        sigma._term_bags(),
        tau._term_bags(),
        floor,
        commutator=commutator,
    )
    return sigma._with_term_bags(sigma.order + tau.order, bags, floor)


def compose(sigma: ClassicalSymbol, tau: ClassicalSymbol) -> ClassicalSymbol:
    """Symbol of the operator product, emitted down to the composed floor."""
    return _compose_impl(sigma, tau, _standard_floor(sigma, tau))


def _normalized_residue(sigma, *, volume: bool = False) -> PiGradedScalar:
    """Sphere integral of the mode-zero part of the degree-(-n) component.

    This is the residue with the normalized trace on the x side, for either
    symbol class; ``residue`` asks for it times the torus volume
    (``volume``) and ``nc_residue`` for it as it is.  Refuses (rather than
    guessing zero) when the expansion is not trusted down to degree -n.
    """
    n = sigma.n
    if sigma.trusted_floor is not None and sigma.trusted_floor > -n:
        raise InsufficientExpansionError(
            f"residue needs the expansion down to degree {-n}, but the floor "
            f"is {sigma.trusted_floor}"
        )
    # the trace kills every other mode
    bag = {key: s for key, s in sigma._term_bags().get(-n, {}).items() if not any(key[0])}
    system = sigma._system
    keys, [bag], sizes = T._pack_sized(n, [bag], 0)
    nums, den = system.numerator_map([bag], [], n, sizes, 0)
    return _sphere_sum(system, n, *T.sphere_integral(nums, keys, bag, den), volume=volume)


def residue(sigma: ClassicalSymbol) -> PiGradedScalar:
    """The residue integral of the degree-(-n) component.

    The torus integral keeps only Fourier mode zero, with weight (2*pi)^n;
    the sphere integral of each monomial is evaluated in closed form.
    Refuses (rather than guessing zero) when the expansion is not trusted
    down to degree -n.
    """
    return _normalized_residue(sigma, volume=True)


def _normalized_residue_of_composition(sigma, tau, *, commutator: bool = False,
                                       volume: bool = False) -> PiGradedScalar:
    """``_normalized_residue`` of sigma o tau, without composing.

    Only the mode-zero, degree-(-n) products reach the residue, and on the
    unit sphere they need no canonical form, so ``terms.residue_pairing``
    forms just those and the sphere sum integrates them raw.  With
    ``commutator``, the residue of sigma o tau - tau o sigma, both
    orderings in one signed bag (the floor rule is symmetric, so one check
    covers both); ``volume`` scales as ``residue`` does.
    """
    n = sigma.n
    floor = _standard_floor(sigma, tau)
    if floor is not None and floor > -n:
        raise InsufficientExpansionError(
            f"composition is only trusted down to degree {floor}, above {-n}"
        )
    _check_pair(sigma, tau)
    system = sigma._system
    total, den = T.residue_pairing(system, n, sigma._term_bags(), tau._term_bags(),
                                   commutator=commutator)
    return _sphere_sum(system, n, total, den, volume=volume)


def _residue_of_composition(sigma: ClassicalSymbol, tau: ClassicalSymbol) -> PiGradedScalar:
    """``residue`` of sigma o tau, without composing."""
    return _normalized_residue_of_composition(sigma, tau, volume=True)


def trace_defect(sigma: ClassicalSymbol, tau: ClassicalSymbol) -> PiGradedScalar:
    """Res of [T_sigma, T_tau]; the trace property makes this exactly zero."""
    return _normalized_residue_of_composition(sigma, tau, commutator=True, volume=True)


def commutator_xi(sigma: ClassicalSymbol, direction: int) -> ClassicalSymbol:
    """Symbol of [T_xi_l, T_sigma]; equals D_x_l sigma componentwise.

    The gamma expansion terminates after one step because the second
    xi-derivative of xi_l vanishes, and the unknown tails below the floor
    cancel between the two orderings, so the result is trusted exactly as
    deep as sigma itself.
    """
    return _compose_impl(xi_symbol(sigma.n, direction), sigma, sigma.trusted_floor,
                         commutator=True)


def commutator_exp(
    sigma: ClassicalSymbol, direction: int, depth: int
) -> ClassicalSymbol:
    """Symbol of [T_sigma, T_e^(i x_l)] with the gamma series cut at ``depth``.

    Matches sum_{j=1..depth} (1/j!) (d_xi_l^j sigma) e^(i x_l) down to the
    returned floor; the terms beyond ``depth`` live strictly below it, so
    the floor alone cuts the series.  With no floor, sigma is polynomial of
    degree at most ``depth`` and its tower ends first.

    The result is trusted one degree deeper than sigma itself: the zeroth
    series term cancels between the two orderings, and every other term at
    degree floor(sigma) - 1 differentiates a stored component.
    """
    depth = _index(depth, "depth")
    if depth < 0:
        raise ValidationError(f"depth must be nonnegative, got {depth}")
    n = sigma.n
    exp = exp_symbol(n, T._bump((0,) * n, _axis(n, direction), 1))
    top = max(sigma.degrees(), default=sigma.order)
    if sigma.trusted_floor is None and _symbol_polynomial(sigma) and depth >= max(top, 0):
        floor = None  # the series provably terminates by order depth
    elif sigma.trusted_floor is None:
        floor = top - depth
    else:
        floor = max(sigma.trusted_floor - 1, top - depth)
    return _compose_impl(sigma, exp, floor, commutator=True)


class _Record:
    """An immutable record on ``__slots__`` that behaves as a frozen dataclass
    (``==`` and a hash of the fields in order, an equal ``repr``) without
    importing ``dataclasses``, which pulls ``inspect`` into every process.
    A subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` with ``_set``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class DecompositionCertificate(_Record):
    """Constructive witness of the residue-uniqueness decomposition.

    For every trusted degree d != -n the symbol's component is exhibited as
    a divergence sum_l d(h_l)/d(xi_l); the degree-(-n) component splits as
    r(x) |xi|^(-n) plus a remainder with zero sphere average at every mode.
    """

    __slots__ = ("n", "antiderivative_families", "sphere_mean", "remainder")

    def __init__(self, n: int, antiderivative_families: dict[int, list[HomogeneousComponent]],
                 sphere_mean: TrigPolynomial, remainder: HomogeneousComponent):
        self._set(n, antiderivative_families, sphere_mean, remainder)

    def implied_residue(self) -> PiGradedScalar:
        """(2*pi)^n |S^(n-1)| r_hat(0): the residue determined by the mean."""
        return (
            torus_volume(self.n)
            * sphere_surface_measure(self.n)
            * self.sphere_mean.hat((0,) * self.n)
        )


def uniqueness_decompose(sigma: ClassicalSymbol) -> DecompositionCertificate:
    """Split a symbol into divergences plus the sphere-mean part at -n."""
    n = sigma.n
    if sigma.trusted_floor is not None and sigma.trusted_floor > -n:
        raise InsufficientExpansionError(
            f"decomposition needs the expansion down to degree {-n}, but the "
            f"floor is {sigma.trusted_floor}"
        )
    families = {}
    for deg, comp in sigma.components.items():
        if deg != -n:
            families[deg] = euler_antiderivatives(comp)
    comp = sigma.component(-n)
    mean = sphere_average(comp)
    mean_part = HomogeneousComponent(
        n,
        -n,
        [(c, mode, (0,) * n, -n) for mode, c in mean.coeffs.items()],
    )
    remainder = comp - mean_part
    if not sphere_average(remainder).is_zero():
        raise ArithmeticError("remainder of the mean split has nonzero average")
    return DecompositionCertificate(n, families, mean, remainder)
