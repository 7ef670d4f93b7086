"""Term-level machinery shared by the commutative and twisted calculi.

A homogeneous component is stored as a dict mapping

    (mode, alpha, npow) -> scalar

where ``mode`` is the Fourier index of the oscillating factor (a lattice
point on the torus, or the (m, n) word exponents of the twisted algebra),
``alpha`` the xi-monomial exponents and ``npow`` the power of |xi|.  The
same representation serves both calculi.  Scalars are added, multiplied,
negated, scaled by an ``int`` and tested for zero with their own operators
(``+``, ``*``, unary ``-``, truthiness).  Each calculus has one
coefficient-system object, which supplies only what differs between
backends: the coefficient class and its ``zero``, ``coerce`` of an outside
value, the ``phase`` the product of two modes picks up (an integer root of
unity at a rational twist, read from two mode entries: ``phase(v, u)`` for
a left mode (., v) and a right mode (u, .); None without a twist), and the
numerators the engine runs on: ``numerator_map`` moves exact coefficients
onto integer numerators over one shared denominator, for every composition
and every residue, and ``lower`` moves them back with one gcd.

Composition by directional derivatives.  On the torus D_x^gamma acts on a
right term of Fourier mode v as v^gamma, so by the multinomial theorem
the terms |gamma| = k of sum_gamma (1/gamma!) (d_xi^gamma a) (D^gamma b)
on that term are one directional derivative, (1/k!) (v . grad_xi)^k a.
One engine computes this sum for both of its clients, the symbol of a o b
(``compose_components``) and the part of it that the residue integrates
(``residue_pairing``), in three steps.  The set-up (``_set_up``) plans
each factor once into (degree, mode) groups (``_plan``), asks the
client's walk builder for one walk list per ordering, sizes the layout
and the numerator map on the groups on a walk, and gives each ordering
its integer weights +-K!/k! (``_weights``), K! going into the one
denominator lowered at the end, so no ``Fraction`` is formed on the way.
A walk list holds one entry per left group and right mode v it meets:
for composition (``_compose_walks``) the right groups of mode v of every
component the level rule admits, each at the levels 0 .. k into degree
a_deg + b_deg - k; for the residue (``_walks``) only the right groups of
the facing mode, read from an index of the other factor's groups, each
at the one level that lands at degree -n, kept only when the parity rule
lets that level reach an even product (a step along xi_j flips the
parity of alpha_j alone, so a level-k term keeps its parities off the
mode's support and changes their count on it by k mod 2;
``_parity_admits``).  The one pass (``_pairing_pass``) builds per entry
the chain a, (v . grad_xi) a, ... in one call of the one xi-derivative
kernel (``_chain``), as deep as its deepest meet (for the residue, its
last level cut by parity inside the kernel), and sums the products per
emitted degree, both orderings of a commutator into the same bags with
opposite signs.  Composition canonicalizes each emitted degree; the
residue integrates its degree -n bag over the unit sphere.  Both clients
share the level rule, one function of a pair of components (``_level``),
and the steps of each direction, which a layout keeps in its
``directions`` memo (``_direction``, and the parity cuts of
``_parity_cut``), so a mode's steps are built once per layout, not once
per call.

Keys: tuples at the module boundary, packed ``int``s inside (``Keys``,
whose layout and memos its docstring describes; ``pack_terms`` chooses a
width that no field of a product, derivative or canonical shell can carry
past, and packs what the engine loops are handed as tuples).  A
symbol-layer bag with one term per (mode, parity) group is its own
canonical form, which ``canonical_terms`` hands back without packing (the
monomial rule).

Numerators: under ``RationalSystem`` the engine runs on one ``int`` per
Gaussian numerator a + bi, a + b 2^w (``PackedGaussians``), the image under
a ring map, so the loops, which only add, negate, multiply and test for
zero, run unchanged; ``numerator_width`` picks a w that every value of the
call stays below, which makes the images exact, and its docstring holds
the proof.  The twisted system writes its own numerators into the bags in
place, a rational (order-1) one as a plain ``int`` (``_numerator``), whose
sums and products keep the other operand's order, so stored orders are
unchanged; the float system keeps its floats (``_same_numerators``).  Each
engine call has one code path.

Canonical form: within each (mode, parity of npow) class all terms share
the maximal norm power such that the polynomial part is not divisible by
R = xi_1^2 + ... + xi_n^2.  This removes the only relation among the
generators, so structural equality of canonical term dicts is equality of
functions on R^n minus the origin.  ``canonical_terms`` holds the method:
long division of the lowest shell, settled at once by a value at a zero of
R (``_null_point``) when that value is nonzero, and Horner's rule.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from functools import lru_cache

from .cyclotomic import CYC_ZERO, CyclotomicInteger, CyclotomicScalar
from .errors import ValidationError
from .scalars import CR_ZERO, ComplexRational, GaussianInteger, sphere_monomial_integral

TermKey = tuple[tuple[int, ...], tuple[int, ...], int]


class RationalSystem:
    """Exact complex-rational coefficients; trivial mode phases.

    The twisted systems below derive from it and override what differs.
    ``scalar`` is the coefficient class.  ``numerator_map`` is the one
    path to numerators, for both engines and every residue
    (``sphere_integral``): here ``int``s (``PackedGaussians``) read
    straight from the coefficients, the other systems theirs
    (``_numerator`` for the twisted one).
    """

    zero = CR_ZERO
    scalar = ComplexRational
    _refusal = "expected an exact scalar, got {}"

    def coerce(self, value):
        """``value`` as a coefficient of this system, or ``TypeError``."""
        s = self.scalar._coerce(value)
        if s is NotImplemented:
            raise TypeError(self._refusal.format(type(value).__name__))
        return s

    # no twist: products of modes pick up no phase
    phase = None

    def lower(self, s: GaussianInteger, den: int) -> ComplexRational:
        """The coefficient s / den, in lowest terms."""
        return ComplexRational._lowest(s.re, s.im, den)

    @staticmethod
    def numerator_map(left: list, right: list, n: int, sizes: tuple[int, int, int], depth: int,
                      compositions: int = 1):
        """(numerator map, den): each coefficient (a + bi) / d of the engine's
        packed bags turned in place into the ``int`` (a + b 2^w)(D / d), D the
        lcm of its factor's d and den the product of both D, after one pass
        for D and the L1 norm; w is ``numerator_width``'s (``sizes`` as
        ``pack_terms``'), plus bits(compositions - 1) when canonical form
        takes the sum of that many compositions (a commutator).

        With no right factor no product is formed, and the values are the
        numerators themselves (a residue's sphere integral,
        ``sphere_integral``), each of whose parts is below 2^(bits(P) +
        bits(D)), P the largest |a| or |b|: one pass takes D and P, and the
        width is one more than those bits, all that the values need."""
        if not right:
            lone, top = set(), 0  # the d, and the bits of every |a| and |b|
            for bag in left:
                for s in bag.values():
                    lone.add(s.den)
                    top |= abs(s.a) | abs(s.b)
            dens = [math.lcm(*lone)]
            width = top.bit_length() + dens[0].bit_length() + 1
        else:
            dens, totals = [], []
            for bags in (left, right):
                norms: dict[int, int] = {}  # d -> the sum of |a| + |b| over the terms over d
                for bag in bags:
                    for s in bag.values():
                        norms[s.den] = norms.get(s.den, 0) + abs(s.a) + abs(s.b)
                den = math.lcm(*norms)
                dens.append(den)
                totals.append(sum([den // d * t for d, t in norms.items()]))
            width = numerator_width(n, *totals, *sizes, depth) + (compositions - 1).bit_length()
        ints = PackedGaussians(width)
        w = ints.width
        for bags, den in zip((left, right), dens):  # the left factor alone when no right
            for bag in bags:
                for key, s in bag.items():
                    bag[key] = (s.a + (s.b << w)) * (den // s.den)
        return ints, math.prod(dens)


class _SameNumerators:
    """The identity numerator map: the engine runs on the system's own
    numerators, which the system's ``lower`` turns into coefficients.  It
    reduces nothing and has no certificate, so canonical form divides every
    group by trial (``canonical_terms``)."""

    __slots__ = ("system",)

    modulus = half = certify = None

    def __init__(self, system):
        self.system = system

    @staticmethod
    def reduce(bag: dict) -> dict:
        return bag

    @staticmethod
    def total(values, factors):
        """The sum of v f, in order (None when there is no term)."""
        total = None
        for v, f in zip(values, factors):
            term = v * f
            total = term if total is None else total + term
        return total

    def lower(self, keys: Keys, groups, den: int) -> dict:
        """The canonical groups as one bag with tuple keys and coefficients."""
        lower, bag = self.system.lower, {}
        for poly in groups:
            bag.update(poly)
        return {key: lower(s, den) for key, s in keys.unpack_bag(bag).items()}


def _same_numerators(self, *_args):
    """The numerator map that keeps the system's numerators as they are (the
    float system's floats), over den 1."""
    return _SameNumerators(self), 1


class CyclotomicSystem(RationalSystem):
    """Exact cyclotomic coefficients twisted by theta_num / theta_den.

    The phase of two modes is an integer root of unity, built once per
    exponent and kept for the life of the system (``nctorus._system_for``
    builds one system per twist).  Numerators and coefficients both
    multiply by it.  It reads the two mode entries it depends on:
    ``phase(v, u)`` is the phase of U^m V^v times U^u V^n, that is of a
    left mode whose second entry is v and a right mode whose first is u.
    """

    zero = CYC_ZERO
    scalar = CyclotomicScalar
    _refusal = "exact backend cannot hold a {} coefficient"

    def __init__(self, theta_num: int, theta_den: int):
        self.theta_num = theta_num
        self.theta_den = theta_den
        self._roots: dict[int, CyclotomicInteger] = {}

    @staticmethod
    def lower(s, den: int) -> CyclotomicScalar:
        """The coefficient s / den in lowest terms, an ``int`` s at order 1."""
        if type(s) is int:
            g = math.gcd(s, den)
            return CyclotomicScalar._make(CyclotomicInteger(1, [s // g]), den // g)
        return CyclotomicScalar._lowest(s, den)

    def phase(self, v: int, u: int):
        e = (self.theta_num * v * u) % self.theta_den
        if not e:
            return None
        root = self._roots.get(e)
        if root is None:
            root = self._roots[e] = CyclotomicInteger.root_of_unity(self.theta_den, e)
        return root

    def numerator_map(self, left: list, right: list, *_sizes):
        """The numerator map that keeps the system's numerators, in place: each
        coefficient s / d of a factor's packed bags becomes ``_numerator(s)``
        (D / d), D the lcm of that factor's d, after one pass for D; den is
        the product of both D."""
        den = 1
        for bags in (left, right):
            d = math.lcm(*{s.den for bag in bags for s in bag.values()})
            for bag in bags:
                for key, s in bag.items():
                    bag[key] = _numerator(s) * (d // s.den)
            den *= d
        return _SameNumerators(self), den


def _numerator(s: CyclotomicScalar):
    """The numerator of ``s`` the twisted engine runs on: the ``int`` of an
    order-1 value, whose sums and products keep the other operand's order
    (lcm(q, 1) = q), and the ``CyclotomicInteger`` of any other order."""
    num = s.num
    return num.coeffs[0] if num.order == 1 else num


class FloatSystem(RationalSystem):
    """Floating complex coefficients for numerical experiments.

    The engine runs on the floats as they are: the numerator map keeps them
    over den 1 (``_same_numerators``), and ``lower`` divides by whatever
    denominator a caller has scaled by since.
    """

    zero = 0j
    scalar = complex

    def __init__(self, theta: float = 0.0):
        self.theta = float(theta)

    @staticmethod
    def coerce(value) -> complex:
        """``value`` as a coefficient: a number or an exact scalar, or ``TypeError``."""
        if isinstance(value, (CyclotomicScalar, ComplexRational)):
            return value.to_complex()
        if isinstance(value, (int, float, complex, numbers.Number)):
            return complex(value)
        raise TypeError(f"float backend cannot hold a {type(value).__name__} coefficient")

    def phase(self, v: int, u: int):
        t = v * u
        if t == 0:
            return None
        # also at theta 0.0: the factor 1+0j settles the sign of zero parts
        try:
            return cmath.exp(2j * cmath.pi * self.theta * t)
        except (OverflowError, ValueError):  # t, or the angle, is past the float range
            raise ValidationError(
                f"a phase exponent of {t.bit_length()} bits is too large for the float "
                f"twist theta {self.theta}"
            ) from None

    @staticmethod
    def lower(s: complex, den: int) -> complex:
        return s if den == 1 else s / den

    numerator_map = _same_numerators


RATIONAL_SYSTEM = RationalSystem()


# -- numerators ---------------------------------------------------------------


class PackedGaussians:
    """Gaussian numerators as ``int``s of one width w: a + bi as a + b 2^w.

    This is the ring map Z[i] -> Z/(2^(2w) + 1) that sends i to 2^w (whose
    square is -1 there), so sums, ``int`` multiples, negations and products
    of the ``int``s are images of the same Gaussian arithmetic, exactly, as
    long as nothing is reduced on the way.  A Gaussian integer whose parts
    lie below 2^(w - 1) in absolute value is recovered from its image: the
    balanced representative (``reduce``) is a + b 2^w itself, whose low w
    bits, taken as balanced, are a, and whose bits above them are b
    (``lower``).  ``numerator_width`` picks a w that every Gaussian value
    of a ``compose_components`` call stays below.  The same map evaluates a
    shell of canonical form at a zero of xi_1^2 + ... + xi_n^2 (``certify``).
    """

    __slots__ = ("width", "modulus", "half", "low_half", "low_mask", "made")

    def __init__(self, width: int):
        self.width = w = width
        self.modulus = (1 << 2 * w) + 1
        self.half = 1 << (2 * w - 1)
        self.low_half = 1 << (w - 1)
        self.low_mask = (1 << w) - 1
        self.made: dict[int, dict] = {}  # den -> {value: its coefficient}, for ``lower``

    def pack(self, z) -> int:
        return z.re + (z.im << self.width)

    def reduce(self, bag: dict) -> dict:
        """The bag with each value as its balanced representative mod
        2^(2w) + 1, in [-2^(2w - 1), 2^(2w - 1)], and the zeros dropped."""
        m, h = self.modulus, self.half
        return {key: r for key, v in bag.items() if (r := (v + h) % m - h)}

    def total(self, values, factors) -> GaussianInteger:
        """The sum of (a + bi) f over balanced values v = a + b 2^w and
        ``int`` factors f, taken on the parts a and b, so it needs no width."""
        h, mask, w = self.low_half, self.low_mask, self.width
        re = im = 0
        for v, f in zip(values, factors):
            a = ((v + h) & mask) - h
            re += a * f
            im += ((v - a) >> w) * f
        return GaussianInteger(re, im)

    def certify(self, keys: Keys, shell: dict) -> bool:
        """True when R = xi_1^2 + ... + xi_n^2 provably does not divide the
        packed shell: its value at the zero z of R over Z[i] that
        ``Keys.cone_weight`` evaluates monomials at is nonzero mod 2^(2w) +
        1.  If R divided the shell P, then P(z) = R(z) Q(z) = 0, and so would
        be its image under the map i -> 2^w.  The sum is taken on the
        shell's values as they are, the terms of real and of imaginary
        weight apart, and reduced once; it needs no width.  A zero proves
        nothing.
        """
        weights, alpha_mask = keys.cone, keys.alpha_mask
        real = imag = 0
        for key, v in shell.items():
            part = key & alpha_mask
            c, k = weights.get(part) or keys.cone_weight(part)
            if k:
                imag += v * c
            else:
                real += v * c
        return (real + (imag << self.width)) % self.modulus != 0

    def lower(self, keys: Keys, groups, den: int) -> dict:
        """The packed canonical groups as one bag with tuple keys, and each
        value v = a + b 2^w, |a| < 2^(w - 1), as the ``ComplexRational``
        (a + bi) / den in lowest terms.  A group has one mode and one |xi|
        power, read from its first key, so only the alpha of each term is
        read (from the layout's memo, ``Keys.alpha_of``).  Each distinct
        value over ``den`` is built once per numerator map, whatever the
        degrees it is lowered in (a ``compose_components`` call lowers every
        degree over one den), and the keys holding it share the immutable
        object."""
        h, mask, w = self.low_half, self.low_mask, self.width
        gcd, make = math.gcd, ComplexRational._make
        modes, alphas, alpha_of = keys.modes, keys.alphas, keys.alpha_of
        first, alpha_mask = keys.mode_shifts[0], keys.alpha_mask
        m, kh, ps = keys.mask, keys.half, keys.npow_shift
        out, made = {}, self.made.setdefault(den, {})
        for poly in groups:
            if not poly:
                continue
            key = next(iter(poly))
            mode = modes.get(key >> first) or keys.unpack(key)[0]
            npow = (key >> ps & m) - kh
            for key, v in poly.items():
                s = made.get(v)
                if s is None:
                    a = ((v + h) & mask) - h
                    b = (v - a) >> w
                    g = gcd(a, b, den)
                    s = made[v] = make(a, b, den) if g == 1 else make(a // g, b // g, den // g)
                part = key & alpha_mask
                out[(mode, alphas.get(part) or alpha_of(part), npow)] = s
        return out


def numerator_width(n: int, norm_a: int, norm_b: int, f_xi: int, f_mode: int, f_alpha: int,
                    depth: int) -> int:
    """The width w of ``PackedGaussians`` for a ``compose_components`` call or
    a ``residue_pairing`` pass.

    ``norm_a`` and ``norm_b`` are the L1 norms of the factors' numerators
    (the sum of |re| + |im| over every numerator), F_xi = ``f_xi`` bounds
    |alpha| + |npow|, F_mode = ``f_mode`` bounds |mode entry| and A =
    ``f_alpha`` bounds |alpha| over their terms, and K = ``depth`` is the
    deepest derivative order.  Both engines take these over the groups on
    their walk lists, the only terms a call puts on numerators
    (``_set_up``), and every chain and product is formed from those: for
    ``compose_components`` the (degree, mode) groups of each left component
    that the level rule lets meet a right one, and each right group of
    every component it meets (``_compose_walks``); for ``residue_pairing``
    the groups of ``_walks``.  Every Gaussian value the call forms (chain
    level, weighted right term, product, bucket sum, canonical shell or
    quotient, result) has parts of absolute value below 2^(w - 1), which is
    what ``PackedGaussians`` needs.  Proof, in the L1 norm N of a bag,
    which bounds every part of every value in it, and is subadditive and
    submultiplicative (|z1 z2|_1 <= |z1|_1 |z2|_1):

    - a derivative step d/d(xi_j) scales a term by alpha_j and by npow, and
      after k steps |alpha| + |npow| <= F_xi + 3k (alpha grows by at most
      one, |npow| by at most two), so each step of a tower of order <= K
      multiplies N by at most t = F_xi + 3K;
    - a directional step v . grad_xi, v a right mode, is the sum of the n
      steps d/d(xi_j) scaled by v_j, so level j of a chain has N <= (n
      F_mode t)^j N(a), and n^j <= (n + 1) ... (n + K) = C(K + n, n) K!
      (a step is taken only when K >= 1 and F_mode >= 1), so N <= C(K + n,
      n) K! F_mode^K t^K N(a); a right term weighted by K!/k! has N <= K!
      N(b);
    - as a bag, (v . grad_xi)^k a is the sum over |gamma| = k of (k!/gamma!)
      v^gamma d_xi^gamma a, so each product of level k with a right term of
      mode v is the sum of the products (K!/gamma!) v^gamma (d_xi^gamma a)
      (right term) of the gamma-sum, each of weight at most K! F_mode^K in
      absolute value and of N <= t^K K! F_mode^K N(a) N(b); over all pairs
      and all gamma with |gamma| <= K, of which there are C(K + n, n) (at
      most ``MAX_GAMMA_COUNT``, ``_check_tower``), these sum to N <= C(K +
      n, n) t^K K! F_mode^K N(a) N(b), which bounds every product and every
      partial bucket sum;
    - canonical form of a group of degree d and lowest |xi| power p makes
      every value at most n^s times the group's N, with s = d - p, its
      largest |alpha|, at most 2A + K (a factor's terms have |alpha| <= A,
      a derivative step moves |alpha| by one and a product adds the
      alphas): the division by xi_1^2 + ... + xi_n^2 moves a term at xi_1
      exponent e to n terms at e - 2, so the sum of |value| n^(e/2) never
      grows, and starts at most n^(s/2) N; Horner's rule then multiplies N
      by at most n per shell, over at most s/2 shells.  Also, each division
      bucket and each shell costs at least n of the
      ``MAX_CANONICAL_MONOMIALS`` updates a group may make, and multiplies
      the group's total N by at most n, so s may be capped at
      ``MAX_CANONICAL_MONOMIALS`` // n.

    A ``residue_pairing`` pass runs one ordering of its factors, or both,
    into one bag at the deeper ordering's depth K.  Each ordering forms the
    chain levels, weighted right terms and products of the composition in
    that order at depth K (the bound is symmetric in the factors and grows
    with K), restricted to the pairs that reach mode zero and can reach an
    even product (``_walks``), negated for b o a.  Every product lands at
    degree -n and mode zero, so a key of the bag is one alpha, and its
    value is a partial sum of the products of a o b plus one of b o a,
    whose N is at most twice the bound, which the width covers, as the pass
    takes no canonical form: at K = 0 it charges the count C(n, n) = 1 a
    bit, at K >= 1 and n >= 2 canonical form's n^s, s = span >= 1, and
    at n = 1, where a pair of terms meets at one level k of one gamma, the
    count K + 1 >= 2.  The sphere integral of the bag sums the parts a and b of
    its balanced values as plain ``int``s, so it needs no width.  A
    ``compose_components`` commutator does take canonical form, of the sum
    of c = 2 compositions, each within the bound before it, so a group's N
    is at most c times that bound: its numerator map adds bits(c - 1) to
    this width (``RationalSystem.numerator_map``).  The sphere integral of
    a symbol's own terms (``sphere_integral``) has no right factor and
    takes no width from here: its values are the numerators themselves,
    which the map sizes directly (``RationalSystem.numerator_map``).

    Each factor x is below 2^bits(x), and n^s at most 2^(s ceil(log2 n)),
    so the width is one more than the sum of those bit counts.  Sizes enter
    by bit length (F_mode may have a thousand digits); only A enters
    linearly, and capped.

    Canonical form's certificate (``PackedGaussians.certify``) needs no
    width: it forms the value of a shell at a null point as a sum of
    ``int`` multiples of the shell's values and reduces it mod 2^(2w) + 1,
    where only its residue matters, so it may grow past 2^(w - 1).
    """
    k = depth
    span = min(2 * f_alpha + k, MAX_CANONICAL_MONOMIALS // n)
    bits = (norm_a.bit_length() + norm_b.bit_length() + math.comb(k + n, n).bit_length()
            + k * (f_xi + 3 * k).bit_length() + math.factorial(k).bit_length()
            + k * f_mode.bit_length() + span * (n - 1).bit_length())
    return bits + 1


# -- packed keys --------------------------------------------------------------


class Keys:
    """The packed layout of one engine call: a term key (mode, alpha, npow)
    of dimension n as one ``int``.

    The fields, from the low bits up, are alpha_0 .. alpha_(n-1), npow,
    |alpha| + npow and mode_0 .. mode_(n-1), each ``width`` bits wide and
    holding its value plus the offset ``half`` = 2^(width - 1), so a field
    holds every value v with |v| < half without touching its neighbours.
    Keys then add field by field: the key of a product is k1 + k2 -
    ``offsets``, and a derivative step adds or subtracts a unit.  A layout
    is chosen, and keys are packed, by ``pack_terms``.

    A layout remembers the modes and the alphas it has packed or read, in
    two memos that map both ways: ``modes`` maps a mode to (its largest
    |entry|, its share of a key, the mode, its mode fields) and the mode
    fields of a key (``key >> mode_shifts[0]``) to the mode; ``alphas``
    maps an alpha to (|alpha|, its share of a key, offsets included) and
    the alpha fields of a key (``key & alpha_mask``) to the alpha.  Tuples
    and ints never collide as dict keys.  Both map a decoded tuple, never a
    caller's, whose entries may be ``bool``s equal to the ``int``s, and a
    tuple's entry holds that decoded tuple.  A third memo, ``cone``,
    maps the alpha fields of a key to the monomial's value at a zero of
    xi_1^2 + ... + xi_n^2 (``cone_weight``), a fourth, ``sphere``, to its
    integral over the unit sphere (``sphere_weight``), and a fifth,
    ``directions``, maps the mode fields of a mode v to v, the steps of
    v . grad_xi and its support bits (``_direction``), and (mode fields,
    parities) to the steps of a chain's last level cut by parity
    (``_parity_cut``), so both engines build a mode's steps once per
    layout.  Each memo holds up to ``_MEMO_FIELDS`` fields and starts
    afresh when full.
    """

    __slots__ = ("n", "width", "mask", "half", "offsets", "alpha_mask", "npow_shift",
                 "npow_unit", "degree_shift", "degree_unit", "degree_field", "group_of",
                 "mode_shifts", "mode_units", "peel", "spread", "times_r", "xi_steps",
                 "alpha_weights", "npow_weight", "modes", "alphas", "cone", "cone_point",
                 "sphere", "directions", "memo_limit")

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = w = width
        self.mask = (1 << w) - 1
        self.half = half = 1 << (w - 1)
        self.offsets = half * (((1 << (w * (2 * n + 2))) - 1) // self.mask)
        self.alpha_mask = (1 << (w * n)) - 1
        units = tuple(1 << (w * j) for j in range(n))
        self.npow_shift = w * n
        self.npow_unit = 1 << self.npow_shift
        self.degree_shift = w * (n + 1)
        self.degree_unit = 1 << self.degree_shift
        self.degree_field = self.mask << self.degree_shift
        self.group_of = ~(self.mask - 1)  # above npow, and npow's parity bit (key >> npow)
        self.mode_shifts = tuple(w * (n + 2 + i) for i in range(n))
        self.mode_units = tuple(1 << shift for shift in self.mode_shifts)
        # canonical form's moves; none changes |alpha| + npow.  Dividing by
        # xi_1^2 + ... + xi_n^2 turns xi_1^2 into |xi|^2 (peel) and passes
        # xi_j^2 - xi_1^2 down (spread); Horner's rule turns |xi|^2 into xi_j^2.
        self.peel = 2 * self.npow_unit - 2 * units[0]
        self.spread = tuple(2 * u - 2 * units[0] for u in units[1:])
        self.times_r = tuple(2 * u - 2 * self.npow_unit for u in units)
        # d/d(xi_j) takes xi_j^a to a xi_j^(a-1) and |xi|^p to p xi_j |xi|^(p-2)
        self.xi_steps = tuple((u + self.degree_unit, 2 * self.npow_unit + self.degree_unit - u)
                              for u in units)
        # packing: alpha_j and npow count in |alpha| + npow too
        self.alpha_weights = tuple(u + self.degree_unit for u in units)
        self.npow_weight = self.npow_unit + self.degree_unit
        self.modes: dict = {}
        self.alphas: dict = {}
        self.cone: dict = {}
        self.cone_point = _null_point(n)
        self.sphere: dict = {}
        self.directions: dict = {}
        self.memo_limit = max(1, _MEMO_FIELDS // n)

    def pack(self, bags) -> tuple[tuple[int, int, int], list[dict]]:
        """((F_xi, F_mode, A), the bags with packed keys): the largest |alpha|
        + |npow|, the largest |mode entry| and the largest |alpha|, for
        ``pack_terms`` to check against the width and ``numerator_width``
        to bound canonical growth by."""
        modes, alphas, weight = self.modes, self.alphas, self.npow_weight
        f_xi = f_mode = f_alpha = 0
        out = []
        for bag in bags:
            packed = {}
            for (mode, alpha, npow), s in bag.items():
                a = alphas.get(alpha) or self.pack_alpha(alpha)
                m = modes.get(mode) or self.pack_mode(mode)
                size = a[0] + abs(npow)
                if size > f_xi:
                    f_xi = size
                if a[0] > f_alpha:
                    f_alpha = a[0]
                if m[0] > f_mode:
                    f_mode = m[0]
                packed[a[1] + m[1] + npow * weight] = s
            out.append(packed)
        return (f_xi, f_mode, f_alpha), out

    def pack_alpha(self, alpha: tuple) -> tuple[int, int, tuple]:
        """(|alpha|, its share of a key, offsets included, the alpha), checked."""
        n = self.n
        if len(alpha) != n:
            raise ValidationError(f"xi multi-index {alpha} has length != {n}")
        if min(alpha) < 0:
            raise ValidationError(f"xi exponents must be nonnegative: {alpha}")
        size = sum(alpha)
        part = self.offsets + sum(map(operator.mul, alpha, self.alpha_weights))
        if size >= self.half:  # a field overflows: the layout is too narrow
            return size, part, alpha
        alpha = self.unpack(part)[1]  # decoded, so its entries are ints
        return _remember(self.alphas, alpha, (size, part, alpha), self.memo_limit)

    def pack_mode(self, mode: tuple) -> tuple[int, int, tuple, int]:
        """(largest |entry|, its share of a key, the mode, its mode fields),
        checked."""
        if len(mode) != self.n:
            raise ValidationError(f"Fourier mode {mode} has length != {self.n}")
        size = max(max(mode), -min(mode))
        part = sum(map(operator.mul, mode, self.mode_units))
        field = (self.offsets + part) >> self.mode_shifts[0]
        if size >= self.half:
            return size, part, mode, field
        mode = self.unpack(self.offsets + part)[0]  # decoded, so its entries are ints
        return _remember(self.modes, mode, (size, part, mode, field), self.memo_limit)

    def fields(self, key: int, start: int, stop: int) -> tuple[int, ...]:
        """The values of fields start .. stop - 1 of ``key``.

        A width is whole bytes, so the fields are read off the key's bytes.
        """
        size, h = self.width >> 3, self.half
        data = key.to_bytes(size * (2 * self.n + 2), "little")
        if size == 1:
            return tuple([x - h for x in data[start:stop]])
        read = int.from_bytes
        return tuple([read(data[i:i + size], "little") - h
                      for i in range(start * size, stop * size, size)])

    def unpack(self, key: int) -> TermKey:
        n, modes = self.n, self.modes
        mode = modes.get(key >> self.mode_shifts[0])
        if mode is None:
            mode = _remember(modes, key >> self.mode_shifts[0],
                             self.fields(key, n + 2, 2 * n + 2), self.memo_limit)
        npow = (key >> self.npow_shift & self.mask) - self.half
        return mode, self.alpha_of(key & self.alpha_mask), npow

    def alpha_of(self, part: int) -> tuple[int, ...]:
        """The alpha whose fields are ``part``, a key's ``key & alpha_mask``."""
        alpha = self.alphas.get(part)
        if alpha is None:
            alpha = _remember(self.alphas, part, self.fields(part, 0, self.n), self.memo_limit)
        return alpha

    def cone_weight(self, part: int) -> tuple[int, int]:
        """(c, k) with z^alpha = c i^k, k 0 or 1, for the alpha whose fields
        are ``part`` and z the zero of xi_1^2 + ... + xi_n^2 whose last
        coordinate is imaginary (``_null_point``); remembered in ``cone``."""
        alpha = self.alpha_of(part)
        c, k = math.prod(map(pow, self.cone_point, alpha)), alpha[-1]
        return _remember(self.cone, part, (-c if k & 2 else c, k & 1), self.memo_limit)

    def sphere_weight(self, part: int) -> tuple[int, int]:
        """(c, d), d > 0, in lowest terms, for the alpha whose fields are
        ``part``: the monomial's integral over S^(n-1) is (c / d) pi^(n //
        2), the grade of every even alpha's, and (0, 1) for an odd alpha;
        remembered in ``sphere``."""
        w = sphere_monomial_integral(self.alpha_of(part), self.n).coeff
        return _remember(self.sphere, part, (w.a, w.den), self.memo_limit)

    def unpack_bag(self, bag: dict) -> dict:
        """The bag with tuple keys: ``unpack`` with its memo hits inlined."""
        modes, alphas = self.modes, self.alphas
        first, alpha_mask = self.mode_shifts[0], self.alpha_mask
        m, h, ps = self.mask, self.half, self.npow_shift
        out = {}
        for key, s in bag.items():
            mode, alpha = modes.get(key >> first), alphas.get(key & alpha_mask)
            if mode is None or alpha is None:
                out[self.unpack(key)] = s
            else:
                out[(mode, alpha, (key >> ps & m) - h)] = s
        return out


# Field widths are multiples of this many bits.  A call's width is the
# narrowest such multiple that covers its keys, so most calls share the
# layout of width _TIER, kept per dimension with its memos; a wider one is
# built, and its memos dropped, per call.
_TIER = 8
_narrow_layout = lru_cache(maxsize=16)(lambda n: Keys(n, _TIER))

# The symbol layer hands the engine many bags of one or two
# terms, and compose_components many product keys, whose modes and alphas
# repeat; working their shares out, or reading them back, is most of the
# cost of packing and unpacking.  A memo of a layout holds at most this many
# fields (n per entry), so its size does not grow with the dimension.
_MEMO_FIELDS = 1 << 15


def _null_point(n: int) -> tuple[int, ...]:
    """Integers x_1 .. x_n such that z = (x_1, ..., x_(n-1), x_n i) is a zero
    of xi_1^2 + ... + xi_n^2 over Z[i]: z = (2 a_0, ..., 2 a_(n-3), S - 1,
    (S + 1) i) with a_j = j + 2 and S the sum of the a_j^2, since (S - 1)^2
    - (S + 1)^2 = -4 S.  That is (-1, i) at n = 2 and (4, 3, 5i) at n = 3;
    at n = 1 the only zero is 0."""
    if n == 1:
        return (0,)
    a = [j + 2 for j in range(n - 2)]
    total = sum(x * x for x in a)
    return (*[2 * x for x in a], total - 1, total + 1)


def _remember(memo: dict, x, entry, limit: int):
    if len(memo) >= limit:
        memo.clear()
    memo[x] = entry
    return entry


def pack_terms(n: int, bags, depth: int = 0):
    """``(layout, packed bags)`` for n-dimensional tuple-keyed ``bags`` and
    all the engine derives from them with at most ``depth`` xi-derivatives.

    Each mode and alpha must have length n and no exponent may be negative
    (``ValidationError`` otherwise).  The width covers F, the largest
    |field| of any key: a derivative of order k <= depth has fields within
    F + 2k (npow drops by two per step), a product of two such keys within
    2F + 2k, and canonical form keeps the degree d and moves every alpha_j
    within [0, d - pmin] and npow within [pmin, d], so no field passes
    4(F + depth).  F is taken as the largest |mode entry| or |alpha| +
    |npow|, which bounds each exponent, |npow| and |alpha| + npow.  The
    keys are packed at the narrowest width first, and again wider when F
    turns out to need it.  ``mul_terms`` and ``partial_xi_terms`` do this
    on entry, and ``canonical_terms`` when it is handed the dimension n in
    place of a layout; they unpack their result (``Keys.unpack_bag``) on
    return, but ``canonical_terms`` first tries its monomial rule, which
    packs nothing.
    """
    keys, packed, _sizes = _pack_sized(n, bags, depth)
    return keys, packed


def _pack_sized(n: int, bags, depth: int):
    """``pack_terms``, and the sizes (F_xi, F_mode, A) it took F from."""
    keys = _narrow_layout(n)
    while True:
        sizes, packed = keys.pack(bags)
        needed = (4 * (max(sizes) + depth)).bit_length() + 1
        if needed <= keys.width:
            return keys, packed, sizes
        keys = Keys(n, -(-needed // _TIER) * _TIER)


# -- term bags ----------------------------------------------------------------


def bag_add(bag: dict, key, scalar) -> None:
    cur = bag.get(key)
    if cur is None:
        if scalar:
            bag[key] = scalar
        return
    new = cur + scalar
    if not new:
        del bag[key]
    else:
        bag[key] = new


def add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, s in b.items():
        bag_add(out, key, s)
    return out


def mul_terms(system, n: int, left: dict, right: dict) -> dict:
    """Pointwise product of two n-dimensional tuple-keyed bags; modes add,
    with the system's phase twist.

    Left scalars multiply on the left, which is what the twisted calculus
    requires; the commutative backend does not care.  The bags are packed
    on entry (``pack_terms``) and the product, a new bag, is unpacked on
    return.  The phase is read only for a twisted system, from the two mode
    fields it uses.
    """
    keys, (left, right) = pack_terms(n, (left, right))
    out: dict = {}
    phase = system.phase
    if phase is not None:
        m, h = keys.mask, keys.half
        second, first = keys.mode_shifts[1], keys.mode_shifts[0]
    offsets = keys.offsets
    for k1, s1 in left.items():
        base = k1 - offsets
        if phase is not None:
            v = (k1 >> second & m) - h
        for k2, s2 in right.items():
            s = s1 * s2
            if phase is not None:
                ph = phase(v, (k2 >> first & m) - h)
                if ph is not None:
                    s = s * ph
            key = base + k2
            cur = out.get(key)
            if cur is None:
                if s:
                    out[key] = s
            else:
                s = cur + s
                if s:
                    out[key] = s
                else:
                    del out[key]
    return keys.unpack_bag(out)


def partial_xi_terms(n: int, terms: dict, axis: int) -> dict:
    """d/d(xi_axis) of an n-dimensional tuple-keyed bag, termwise: |alpha| +
    npow drops by one.  It is level 1 of the chain along the axis's unit
    vector, built by the one kernel ``_chain`` that both engines walk; the
    bag is packed on entry (``pack_terms``) and the derivative unpacked on
    return."""
    keys, (terms,) = pack_terms(n, (terms,), 1)
    step = (keys.width * axis, 1, *keys.xi_steps[axis])
    return keys.unpack_bag(_chain(keys, terms, (step,), 1)[-1])


def mode_deriv_terms(terms: dict, axis: int) -> dict:
    """The mode-weighting derivative (D_x or delta_j): scales by mode[axis]."""
    out = {}
    for (mode, alpha, p), s in terms.items():
        k = mode[axis]
        if k:
            out[(mode, alpha, p)] = s * k
    return out


def _bump(alpha: tuple[int, ...], axis: int, delta: int) -> tuple[int, ...]:
    return alpha[:axis] + (alpha[axis] + delta,) + alpha[axis + 1 :]


def terms_polynomial(terms: dict) -> bool:
    """True when every |xi| power is even and nonnegative (a polynomial)."""
    return all(p >= 0 and p % 2 == 0 for (_m, _a, p) in terms)


# -- canonical form ---------------------------------------------------------

# Dividing a group by the sum of squares, or expanding it by Horner's rule,
# can make far more monomial updates than the group has terms: in dimension
# 8 at the exponent limit a one-term group spans about 1.3e9 monomials.
# canonical_terms refuses a group once the updates it has made would pass
# this bound, checked before each bucket of the division and each shell of
# the expansion, so a group is refused for the work it needs, never for the
# size of the space it lies in.  A group whose division a certificate
# settles skips that division only when the bound could not refuse it.
MAX_CANONICAL_MONOMIALS = 100_000


def _too_costly(n: int, d: int) -> ValidationError:
    return ValidationError(
        f"canonical form of a degree {d} polynomial in {n} variables needs "
        f"more than {MAX_CANONICAL_MONOMIALS} monomial updates"
    )


def canonical_terms(keys, degree: int, raw: dict, nums=None, den: int = 1) -> dict:
    """Canonicalize a raw term bag of the given homogeneity degree.

    Each (mode, parity of npow) group is a polynomial P = sum_k R^k P_k,
    where R = xi_1^2 + ... + xi_n^2 and the shell P_k holds the terms at
    |xi| power pmin + 2k.  R divides P exactly when it divides the lowest
    shell P_0, so the power of R is found by dividing P_0 alone and folding
    the quotient into the next shell; a shell that cancels to nothing
    divides too.  When the division fails, the shells left are expanded
    once by Horner's rule, Q <- P_k + R Q, at the current lowest power.

    A numerator map ``nums`` (``compose_components``) may settle the first
    division without making it: its ``certify`` evaluates P_0 at a zero z
    of R, and a nonzero value proves that R does not divide P_0 (if P_0 = R
    Q, then P_0(z) = R(z) Q(z) = 0), so the group goes straight to Horner's
    rule at pmin.  A zero value proves nothing, and the group is divided
    as above.  The shortcut is taken only when the group provably cannot
    be refused (see ``MAX_CANONICAL_MONOMIALS``), so refusals are those of
    trial division: with s = degree - pmin and K = (top - pmin) / 2 shells
    above P_0, every shell is a homogeneous polynomial in alpha of degree
    at most s, so it has at most C(s + n - 1, n - 1) terms.  The failed
    division of P_0 charges n per term of each bucket it takes, and its
    buckets hold distinct monomials of degree s; each of the K Horner steps
    charges n per term of a shell.  So the group makes at most n (K + 1)
    C(s + n - 1, n - 1) updates, and when that is within the limit, read
    at the call, it is never refused.

    The monomial rule.  At n >= 2, R divides no monomial c xi^alpha, c !=
    0: R vanishes at ``_null_point(n)``, whose coordinates are all nonzero,
    so z^alpha != 0 there (at n = 1, R = xi_1^2 divides xi_1^2).  So a
    tuple-keyed bag whose every group is one nonzero term, and within the
    bound above with K = 0 and s = |alpha|, is returned as it stands, keys
    read from the narrow layout's memos (plain ``int``s, shared tuples), in
    order, zero terms dropped.  Keys are checked as ``pack_terms`` checks
    them before zeros are dropped; any other bag takes the packed path, so
    refusals and their messages are the packed path's.

    ``keys`` is the layout of a packed bag or the dimension of a
    tuple-keyed one (``pack_terms``, which checks the lengths).  A group
    is the key shifted down to its npow field, with all of that field but
    its parity bit cleared; the homogeneity check compares the |alpha| +
    npow field.  With ``nums``, each value of ``raw`` is reduced by it as
    the terms are grouped (``nums.modulus``), and the finished groups are
    lowered by it over ``den`` group by group, with no merged packed bag
    in between (``nums.lower``): the result then has tuple keys and
    coefficients.
    """
    tuples = type(keys) is int
    if tuples:
        lone = _lone_monomials(keys, degree, raw) if nums is None else None
        if lone is not None:
            return lone
        keys, (raw,) = pack_terms(keys, (raw,))
    n, m, h, ps = keys.n, keys.mask, keys.half, keys.npow_shift
    degree_field, group_of = keys.degree_field, keys.group_of
    homogeneous = (degree + h) << keys.degree_shift
    modulus = certify = None
    if nums is not None:
        modulus, half, certify = nums.modulus, nums.half, nums.certify
    groups: dict[int, dict[int, dict]] = {}
    for key, s in raw.items():
        if modulus is not None:
            s = (s + half) % modulus - half
        if not s:
            continue
        if key & degree_field != homogeneous:
            _mode, alpha, npow = keys.unpack(key)
            raise ValidationError(
                f"term xi^{alpha} |xi|^{npow} is homogeneous of degree "
                f"{sum(alpha) + npow}, not {degree}"
            )
        top = key >> ps
        groups.setdefault(top & group_of, {}).setdefault((top & m) - h, {})[key] = s
    limit = MAX_CANONICAL_MONOMIALS
    out, polys = {}, []  # the canonical groups, merged or kept apart for nums.lower
    for by_pow in groups.values():
        p, top = min(by_pow), max(by_pow)
        d, left = degree - p, limit  # monomial updates left
        if not (certify is not None and n * ((top - p) // 2 + 1) * _monomials(n, d) <= limit
                and certify(keys, by_pow[p])):
            while p <= top:
                low = by_pow.get(p)
                if low:
                    quo, left = _divide_by_sum_sq(keys, low, left)
                    if left < 0:
                        raise _too_costly(n, d)
                    if quo is None:
                        break
                    nxt = by_pow.get(p + 2)
                    if nxt is None:
                        by_pow[p + 2] = quo
                        top = max(top, p + 2)
                    else:
                        for key, s in quo.items():
                            bag_add(nxt, key, s)
                p += 2
            else:
                continue  # the group cancels to zero
        poly = by_pow[top]
        for q in range(top - 2, p - 1, -2):
            left -= n * len(poly)
            if left < 0:
                raise _too_costly(n, d)
            poly = _times_sum_sq_plus(keys, poly, by_pow.get(q, {}))
        if nums is None:
            out.update(poly)
        else:
            polys.append(poly)
    if nums is not None:
        return nums.lower(keys, polys, den)
    return keys.unpack_bag(out) if tuples else out


def _lone_monomials(n: int, degree: int, raw: dict):
    """The canonical form of ``raw`` by the monomial rule of
    ``canonical_terms``, or None when the rule does not settle it."""
    if n < 2:
        return None
    keys = _narrow_layout(n)
    alphas, modes, weight, half = keys.alphas, keys.modes, keys.npow_weight, keys.half
    ps, group_of, limit = keys.npow_shift, keys.group_of, MAX_CANONICAL_MONOMIALS
    out, groups = {}, set()
    for (mode, alpha, npow), s in raw.items():
        a = alphas.get(alpha) or keys.pack_alpha(alpha)
        m = modes.get(mode) or keys.pack_mode(mode)
        size = a[0]
        if (type(npow) is not int or size + npow != degree or size + abs(npow) >= half
                or m[0] >= half or n * _monomials(n, size) > limit):
            return None
        if s:
            group = (a[1] + m[1] + npow * weight) >> ps & group_of
            if group in groups:
                return None
            groups.add(group)
            out[(m[2], a[2], npow)] = s
    return out


@lru_cache(maxsize=1024)
def _monomials(n: int, s: int) -> int:
    """C(s + n - 1, n - 1), the number of monomials of degree s in n variables."""
    return math.comb(s + n - 1, n - 1)


def _times_sum_sq_plus(keys, poly: dict, shell: dict) -> dict:
    """shell + (xi_1^2 + ... + xi_n^2) * poly, poly one |xi|^2 above shell."""
    out = dict(shell)
    steps = keys.times_r
    for key, s in poly.items():
        for step in steps:
            k = key + step
            cur = out.get(k)
            if cur is None:
                out[k] = s
            else:
                cur = cur + s
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return out


def _divide_by_sum_sq(keys, poly: dict, left: int):
    """(Exact quotient of poly by xi_1^2 + ... + xi_n^2 or None, updates left).

    Long division in xi_1: the terms are taken by descending xi_1 exponent
    e, each giving a quotient term at e - 2 and passing -(xi_2^2 + ... +
    xi_n^2) times it down to exponent e - 2.  A term left at e < 2 is a
    remainder.  Each bucket's updates are taken from ``left`` before they
    are made; the division stops when that would go below zero, and the
    negative count it returns tells the caller to refuse.  The quotient's
    keys sit one |xi|^2 higher than poly's.
    """
    n, m, h = keys.n, keys.mask, keys.half
    if max(map(m.__and__, poly)) < h + 2:
        return None, left  # no xi_1^2 to divide by; xi_1's is the lowest field
    peel, spread = keys.peel, keys.spread
    by_first: dict[int, dict] = {}
    for key, s in poly.items():
        by_first.setdefault((key & m) - h, {})[key] = s
    quo: dict = {}
    for e in range(max(by_first), -1, -1):
        rem = by_first.pop(e, None)
        if not rem:
            continue
        if e < 2:
            return None, left
        left -= n * len(rem)
        if left < 0:
            return None, left
        lower = by_first.setdefault(e - 2, {})
        for key, s in rem.items():
            quo[key + peel] = s
            neg = -s
            for step in spread:
                bag_add(lower, key + step, neg)
    return quo, left


# -- composition ------------------------------------------------------------

# compose_components and residue_pairing refuse (_check_tower), before they
# scale by K!, a sum whose deepest derivative order K reaches more multi-indices
# |gamma| <= K in n variables, C(K + n, n), than this: a low floor or high
# orders would walk a tower that deep.  The tests and benchmarks reach 120.
MAX_GAMMA_COUNT = 1_000


def compose_components(
    system,
    n: int,
    comps_a: dict[int, dict],
    comps_b: dict[int, dict],
    floor: int | None,
    *,
    commutator: bool = False,
) -> dict[int, dict]:
    """Components of sum_gamma (1/gamma!) (d_xi^gamma a) (D^gamma b); with
    ``commutator``, those of a o b - b o a.

    ``floor`` bounds the emitted degrees from below.  With no floor, the
    series terminates only when the left factor is polynomial in xi or the
    right factor is free of modes; otherwise the loop would not end, so it
    raises ``ValidationError`` instead.  Each ordering is checked
    (termination, then ``_check_tower``) in turn, a o b first.

    The sum is taken by directional derivatives.  D^gamma acts on a right
    term of mode v as v^gamma, and sum over |gamma| = k of (1/gamma!)
    v^gamma d_xi^gamma is (1/k!) (v . grad_xi)^k, exactly (the partials
    commute).  It runs on the residue's engine: the factors are planned
    and set up once (``_set_up``), each ordering gets one walk list
    (``_compose_walks``), and one pass (``_pairing_pass``) builds, per
    left (degree, mode) group and right mode v it meets, one chain a, (v .
    grad_xi) a, ..., whose level k meets the right groups of mode v into
    the emitted degree a_deg + b_deg - k, with the integer weight K!/k! (K
    the deepest level of either ordering, K! going into the one
    denominator) and a o b's sign, and b o a's products with -K!/k! into
    the same raw bags.  The levels are kept raw, and each emitted degree
    is canonicalized once at the end, which suffices because the canonical
    form of a function is unique and ``canonical_terms`` accepts any
    homogeneous raw bag: canonical form reduces the numerators as it
    groups the terms, certifies and lowers each emitted degree group by
    group into tuple keys and coefficients, dividing once.
    """
    keys, nums, orderings, den = _set_up(
        system, n, comps_a, comps_b, commutator, lambda *args: _compose_walks(*args, floor),
        "assign a higher trusted floor", 1 + commutator)
    result = {}
    for d, raw in _pairing_pass(system, keys, orderings).items():
        ct = canonical_terms(keys, d, raw, nums, den)
        if ct:
            result[d] = ct
    return result


def _chain(keys: Keys, bag: dict, steps, top: int, cut=None) -> list[dict]:
    """The chain [bag, (v . grad_xi) bag, ..., (v . grad_xi)^top bag] of a
    packed bag, each level one pass over the one before, summed as
    ``bag_add`` does; an empty level ends it early.  ``steps`` holds (shift
    of alpha_j, v_j, down, r_step) for each axis j where v_j is nonzero,
    with the moves of ``Keys.xi_steps``: each axis is d/d(xi_j) scaled by
    v_j, and |alpha| + npow drops by one.  With ``cut``, a pair (mask,
    table), level ``top`` takes from each term only the steps
    ``table.get(key & mask, ())``, which cuts the full level to the keys
    they reach, its order and values kept.  This is the one xi-derivative
    kernel: of ``_pairing_pass``, for both engines, and of
    ``partial_xi_terms``."""
    m, h, ps = keys.mask, keys.half, keys.npow_shift
    chain = [bag]
    for level in range(1, top + 1):
        if not bag:
            break
        last = level == top and cut is not None
        if last:
            mask, table = cut
        out: dict = {}
        for key, s in bag.items():
            p = (key >> ps & m) - h
            for shift, v, down, r_step in table.get(key & mask, ()) if last else steps:
                a = (key >> shift & m) - h
                if a:
                    k, x = key - down, s * (a * v)
                    cur = out.get(k)
                    if cur is None:
                        if x:
                            out[k] = x
                    else:
                        x = cur + x
                        if x:
                            out[k] = x
                        else:
                            del out[k]
                if p:
                    k, x = key - r_step, s * (p * v)
                    cur = out.get(k)
                    if cur is None:
                        if x:
                            out[k] = x
                    else:
                        x = cur + x
                        if x:
                            out[k] = x
                        else:
                            del out[k]
        chain.append(out)
        bag = out
    return chain


def _check_tower(n: int, deepest: int, remedy: str) -> None:
    """Refuse a xi-derivative tower of more than ``MAX_GAMMA_COUNT`` multi-indices."""
    if math.comb(deepest + n, n) > MAX_GAMMA_COUNT:
        raise ValidationError(
            f"composition needs xi-derivatives up to order {deepest} in {n} variables, "
            f"more than {MAX_GAMMA_COUNT} multi-indices; {remedy}"
        )


def _level(a_deg: int, b_deg: int, polynomial: bool, moving: bool, floor) -> int:
    """The level rule of both engines: the deepest derivative order k at
    which a left component of degree ``a_deg`` reaches a level against a
    right one of degree ``b_deg``, negative when it reaches none.  The
    lowest emitted degree ``floor`` sets a_deg + b_deg - k, the tower of a
    ``polynomial`` left component vanishes past its degree, and D^gamma,
    gamma != 0, kills a right component that is not ``moving``, free of
    modes (``_compose_walks``' termination check makes sure one applies
    when there is no floor)."""
    k = math.inf if floor is None else a_deg + b_deg - floor
    if polynomial and a_deg < k:
        k = a_deg
    if not moving and k > 0:
        k = 0
    return k


def _direction(keys: Keys, field: int) -> tuple:
    """(v, the steps of v . grad_xi for ``_chain``, the support bits) for the
    mode v whose mode fields (``key >> mode_shifts[0]``) are ``field`` (read
    from the layout's ``modes`` memo if packed there), remembered in its
    ``directions`` memo; the support bits are the low bits of the alpha
    fields where v is nonzero, which the parity rule reads (``_walks``)."""
    n, w = keys.n, keys.width
    v = keys.modes.get(field) or keys.fields(field << keys.mode_shifts[0], n + 2, 2 * n + 2)
    steps = tuple([(w * j, x, *keys.xi_steps[j]) for j, x in enumerate(v) if x])
    supp = sum([1 << step[0] for step in steps])
    return _remember(keys.directions, field, (v, steps, supp), keys.memo_limit)


def _parity_cut(keys: Keys, field: int, wanted: frozenset) -> dict:
    """The steps of the chain's last level (``_chain``'s cut) along the mode
    whose mode fields are ``field``, for right terms of the alpha parities
    ``wanted`` (``key & odd`` in ``_pairing_pass``): a term of parity p takes
    the steps, in order, whose flip of alpha_j's parity (the low bit of its
    field) reaches a wanted parity.  Remembered in the layout's
    ``directions`` memo under (``field``, ``wanted``)."""
    table: dict[int, list] = {}
    for step in (keys.directions.get(field) or _direction(keys, field))[1]:
        for p in wanted:
            table.setdefault(p ^ 1 << step[0], []).append(step)
    table = {p: tuple(steps) for p, steps in table.items()}
    return _remember(keys.directions, (field, wanted), table, keys.memo_limit)


@lru_cache(maxsize=128)
def _weights(depth: int, sign: int) -> tuple[int, ...]:
    """The integer weights sign K!/k!, k = 0 .. K = ``depth``, of both
    engines' chain levels; ``_weights(K, 1)[0]`` is K!."""
    scale = math.factorial(depth)
    return tuple([sign * scale // math.factorial(k) for k in range(depth + 1)])


def residue_pairing(system, n: int, comps_a: dict[int, dict], comps_b: dict[int, dict], *,
                    commutator: bool = False):
    """The part of a o b that the residue integrates, integrated over the
    unit sphere as ``(total, den)`` (``sphere_total``), which
    ``symbols._sphere_sum`` lowers once; with ``commutator``, that of a o b
    - b o a.

    Sums (1/gamma!) (d_xi^gamma a)(D^gamma b) over the products that land
    at degree -n and Fourier mode zero, the only part the torus integral
    keeps, and drops the |xi| power: on the unit sphere |xi| = 1, so the
    sum stays raw and is never canonicalized.

    It is ``compose_components``' engine with other walk lists: a call is
    set up once (``_set_up``), and each ordering gets one walk list
    (``_walks``): the left groups, each with its meets, the right groups it
    reaches at the one level the level rule gives towards degree -n and
    where the parity rule lets a product be even.  Each ordering's deepest
    level is bounded (``_check_tower``, a o b first) before any numerator
    is formed.  Both orderings run into one bag at depth K
    (``_pairing_pass``, one key per alpha): a o b with the weights K!/k!,
    b o a with -K!/k!, so the commutator is reduced, integrated
    (``sphere_integral``, which leaves out the odd alphas by their zero
    weight) and lowered once, and a single ordering is the same pass with
    one sign.
    """
    keys, nums, orderings, den = _set_up(system, n, comps_a, comps_b, commutator, _walks,
                                         "lower the orders of the factors")
    return sphere_integral(nums, keys, _pairing_pass(system, keys, orderings).get(-n, {}),
                           den)


def _set_up(system, n: int, comps_a: dict[int, dict], comps_b: dict[int, dict],
            commutator: bool, walk_list, remedy: str, compositions: int = 1):
    """(layout, numerator map, orderings, den): the set-up of both engines.

    Each factor is planned once (``_plan``), and each ordering, a o b
    first, gets its walk list from ``walk_list(keys, left plan, right
    plan, left groups, right groups)`` (``_walks`` or ``_compose_walks``),
    which notes each group it walks once, per factor, and returns the list
    and its deepest level; that level is bounded (``_check_tower``, with
    ``remedy``) before the next ordering is walked.  The layout covers the
    terms of the groups on a walk at the deeper depth K, and no two modes
    share their mode fields; when it does not, the factors are planned
    again under a wider one.  Only the groups on a walk are put on
    numerators, by the system's ``numerator_map``, sized on their largest
    (F_xi, F_mode, A) and on ``compositions``, the count of compositions
    canonical form sums.  Each ordering gets its walk list and the weights
    sign K!/k! (``_weights``), a o b +, b o a -, and den takes the K! the
    weights scale by."""
    keys = _narrow_layout(n)
    while True:
        plans = [_plan(keys, comps_a), _plan(keys, comps_b)]
        width = (4 * max(plans[0][1], plans[1][1])).bit_length() + 1
        if width <= keys.width:  # no two modes share their mode fields
            used, walks, deepest = ([], []), [], 0
            for i, j in ((0, 1), (1, 0)) if commutator else ((0, 1),):
                walk, depth = walk_list(keys, plans[i][0], plans[j][0], used[i], used[j])
                _check_tower(n, depth, remedy)
                walks.append(walk)
                deepest = max(deepest, depth)
            sizes = tuple([max([0] + [g[x] for groups in used for g in groups])
                           for x in (1, 2, 3)])
            width = (4 * (max(sizes) + deepest)).bit_length() + 1
            if width <= keys.width:
                break
        keys = Keys(n, -(-width // _TIER) * _TIER)
    bags = [[g[0] for g in groups] for groups in used]
    nums, den = system.numerator_map(*bags, n, sizes, deepest, compositions)
    orderings = [(walk, _weights(deepest, sign)) for walk, sign in zip(walks, (1, -1))]
    return keys, nums, orderings, den * _weights(deepest, 1)[0]


def _plan(keys: Keys, comps: dict[int, dict]):
    """(plan, reach): a factor's terms packed as ``Keys.pack`` packs them
    and grouped by degree and mode, in one pass: (degree, {mode fields:
    group}, moving) per component, a group being [packed bag, F_xi, F_mode,
    A, polynomial, walked, parities, mode] (``pack_terms``' sizes, whether
    every |xi| power is even and nonnegative, whether a walk list holds it,
    its alpha parity classes once ``_parities`` reads them, for ``_walks``,
    and the mode, whose phase ``_pairing_pass`` reads).  The mode fields
    tell the modes apart when ``reach``, the largest |mode entry|, is below
    the layout's ``half``."""
    modes, alphas, weight = keys.modes, keys.alphas, keys.npow_weight
    zero = keys.offsets >> keys.mode_shifts[0]  # the mode fields of mode zero
    reach, plan = 0, []
    for deg, bag in comps.items():
        groups: dict[int, list] = {}
        for (mode, alpha, npow), s in bag.items():
            a = alphas.get(alpha) or keys.pack_alpha(alpha)
            m = modes.get(mode) or keys.pack_mode(mode)
            g = groups.get(m[3])
            if g is None:
                g = groups[m[3]] = [{}, 0, m[0], 0, True, False, None, m[2]]
                if m[0] > reach:
                    reach = m[0]
            g[0][a[1] + m[1] + npow * weight] = s
            if a[0] + abs(npow) > g[1]:
                g[1] = a[0] + abs(npow)
            if a[0] > g[3]:
                g[3] = a[0]
            if npow < 0 or npow & 1:
                g[4] = False
        plan.append((deg, groups, len(groups) > 1 or bool(groups) and zero not in groups))
    return plan, reach


# the levels a mode-zero right group meets: (v . grad_xi)^k vanishes for k >= 1 at v = 0
_LEVEL_ZERO = slice(0, 1)


def _compose_walks(keys: Keys, left_plan: list, right_plan: list, mine: list, theirs: list,
                   floor) -> tuple[list, int]:
    """(walk list, deepest level) of one ordering of ``compose_components``,
    from the left and right factors' plans (``_plan``), each group it walks
    noted once in ``mine`` (left) or ``theirs`` (right).

    The ordering is first checked: with no ``floor``, every left component
    must be polynomial or every right one free of modes (the flags of the
    plans), or the series does not terminate.  Its deepest level is the
    level rule's (``_level``) over every pair of components.  A walk list
    holds (mode fields of v, left group, deepest k, meets, None) for each
    left group and each right mode v that a right group of an admitted
    component has, in plan order; a meet is (the slice of levels 0 .. k,
    a_deg + b_deg, right bag), k the level the rule gives the pair of
    components, or level 0 alone for a mode-zero right group, whose later
    levels vanish.  The meets of one left component and mode are built
    once and shared by its groups; the groups on a walk are those of every
    left component with a meet and every right group met.
    """
    zero = keys.offsets >> keys.mode_shifts[0]  # the mode fields of mode zero
    left = [(deg, groups, all([g[4] for g in groups.values()]))
            for deg, groups, _moving in left_plan if groups]
    right = [component for component in right_plan if component[1]]
    if floor is None and not (all([p for *_x, p in left]) or not any([m for *_x, m in right])):
        raise ValidationError(
            "composition of two complete symbols does not terminate here; "
            "assign a finite trusted floor to one factor"
        )
    walk, depth = [], 0
    for a_deg, groups, polynomial in left:
        tops: dict[int, list] = {}  # mode fields of v -> [deepest k, meets]
        for b_deg, right_groups, moving in right:
            k = _level(a_deg, b_deg, polynomial, moving, floor)
            if k < 0:
                continue
            if k > depth:
                depth = k
            levels, d = slice(0, k + 1), a_deg + b_deg
            for field, h in right_groups.items():
                if field == zero:
                    meet, reach = (_LEVEL_ZERO, d, h[0]), 0
                else:
                    meet, reach = (levels, d, h[0]), k
                top = tops.get(field)
                if top is None:
                    tops[field] = [reach, [meet]]
                else:
                    if reach > top[0]:
                        top[0] = reach
                    top[1].append(meet)
                if not h[5]:
                    h[5] = True
                    theirs.append(h)
        if tops:
            entries = [(field, top, meets) for field, (top, meets) in tops.items()]
            for g in groups.values():
                if not g[5]:
                    g[5] = True
                    mine.append(g)
                walk += [(field, g, top, meets, None) for field, top, meets in entries]
    return walk, depth


def _walks(keys: Keys, left_plan: list, right_plan: list, mine: list,
           theirs: list) -> tuple[list, int]:
    """(walk list, deepest level K) of one ordering of ``residue_pairing``,
    from the left and right factors' plans (``_plan``), each group it walks
    noted once in ``mine`` (left) or ``theirs`` (right).

    A left group of mode -v meets a right group of mode v (their mode
    fields add to ``flip``) at level k = a_deg + b_deg + n when the level
    rule (``_level`` at floor -n, the left component cut to its groups that
    face the other factor) admits that pair of degrees, and the parity
    rule (``_parity_admits``) lets level k reach an even product.  A faced
    left group reads its partners, the right groups of mode v, from an
    index of the right factor's groups by mode fields, in component order,
    so only groups that exist are visited, each admitted by the rule for
    its pair of degrees.
    The parity bits are read only from a layout that holds both groups'
    alphas: a meet with a group of A >= ``half``, whose alpha fields may
    carry into their neighbours, is kept, so that group sizes the width
    and the wider layout's call decides it.  A walk list holds (mode
    fields of v, left group, deepest k, meets, the parity classes of the
    right terms at the deepest k, None at k = 0) for each left group with
    a meet, in plan order, a meet being (the slice of level k alone,
    a_deg + b_deg, right bag), in the right factor's order, so each lands
    at degree -n; a group on no walk is never put on numerators and sizes
    nothing.  K is the
    deepest level the level rule admits over the pairs of degrees,
    whether or not a meet survives there, so the weights, the denominator
    and the tower bound are those of the full pairing.
    """
    n, flip = keys.n, 2 * (keys.offsets >> keys.mode_shifts[0])
    odd = (keys.offsets & keys.alpha_mask) >> (keys.width - 1)
    directions, half = keys.directions, keys.half
    index = {}  # the right factor's mode fields -> [(degree, group, moving), ...]
    for deg, groups, moving in right_plan:
        for field, g in groups.items():
            index.setdefault(field, []).append((deg, g, moving))
    left = []  # (degree, [(partner fields, group, partners) of each faced group], polynomial)
    for deg, groups, _moving in left_plan:
        faced, polynomial = [], True
        for field, g in groups.items():
            partners = index.get(flip - field)
            if partners is not None:
                faced.append((flip - field, g, partners))
                polynomial = polynomial and g[4]
        if faced:
            left.append((deg, faced, polynomial))
    depth = 0  # the deepest level the rule admits, over every pair of degrees
    for a_deg, _faced, polynomial in left:
        for b_deg, _groups, moving in right_plan:
            k = a_deg + b_deg + n
            if k > depth and _level(a_deg, b_deg, polynomial, moving, -n) == k:
                depth = k
    walk = []
    for a_deg, faced, polynomial in left:
        for partner, g, partners in faced:
            supp, kept, top, wanted = None, [], 0, None
            for b_deg, h, moving in partners:
                k = a_deg + b_deg + n
                if k < 0 or _level(a_deg, b_deg, polynomial, moving, -n) != k:
                    continue
                if supp is None:  # the parity bits of the axes where v is nonzero
                    supp = (directions.get(partner) or _direction(keys, partner))[2]
                    off = odd ^ supp
                if g[3] >= half or h[3] >= half:  # bits carried: kept, to size the width
                    classes = frozenset()
                else:
                    classes = h[6] or _parities(h, odd)
                    if not _parity_admits(g[6] or _parities(g, odd), classes, supp, off, k):
                        continue
                kept.append((slice(k, k + 1), a_deg + b_deg, h[0]))
                if k > top:  # one meet per level: k = a_deg + b_deg + n
                    top, wanted = k, classes
                if not h[5]:
                    h[5] = True
                    theirs.append(h)
            if kept:
                if not g[5]:
                    g[5] = True
                    mine.append(g)
                walk.append((partner, g, top, kept, wanted))
    return walk, depth


def _parities(group: list, odd: int) -> frozenset:
    """The alpha parity classes (``key & odd``, the low bit of each alpha
    field) of a ``_plan`` group's terms, kept on the group, where ``_walks``
    reads them once they are set."""
    classes = group[6] = frozenset(map(odd.__and__, group[0]))
    return classes


def _parity_admits(left: frozenset, right: frozenset, supp: int, off: int, k: int) -> bool:
    """The parity rule: whether level k of a chain along v from a left
    group can meet a term of a right group in an even product, from their
    parity classes (``_parities``) ``left`` and ``right``; ``supp`` and
    ``off`` hold the parity bits of the axes where v is nonzero and of the
    others.  A step of v . grad_xi along xi_j, v_j nonzero, flips the
    parity of alpha_j alone, so a level-k term keeps its left term's
    parities off supp(v), and its count of odd exponents on supp(v)
    changes by k mod 2.  A
    product is even when its two terms' parities are equal: the parities
    of some left and right term must differ on supp(v) alone, in a count of
    bits of k's parity.  Along v = 0 no step is taken, so only level 0 is
    built."""
    if k and not supp:
        return False
    for p in left:
        for q in right:
            d = p ^ q
            if not d & off and not ((d & supp).bit_count() + k) & 1:
                return True
    return False


def _pairing_pass(system, keys: Keys, orderings: list) -> dict:
    """The products of both engines, {emitted degree: raw packed bag}: those
    of each ordering (walk list, weights) on the numerators the set-up put
    in the walked groups (``_set_up``), summed per emitted degree on their
    keys.

    A left group of mode u meets the right groups of one mode v, so for
    each entry (v, left group, deepest k, meets, parities) of a walk list
    (``_walks`` or ``_compose_walks``) one chain a, (v . grad_xi) a, ... is
    built in one call (``_chain``, with v's steps from the layout's
    ``directions`` memo), as deep as its deepest meet; its phase is read
    once, from u's second entry and v's first.  Each level k of a meet
    (levels, a slice of the chain; d; right bag) meets the right terms
    with the integer weight ``weights[k]``, +-K!/k!, left scalar first,
    then the phase, into the bag of degree d - k; an empty level ends the
    chain.  An entry that
    carries parities (the residue's) has the chain's last level cut by
    them: a step along xi_j flips the parity of alpha_j alone, so it takes
    from each term only the steps that reach the parity of a right term it
    meets there (the kernel's cut, a table from a term's parity to those
    steps).  The residue's bag, of degree -n and mode zero, holds one key
    per alpha (|alpha| + npow = -n), and ``sphere_integral`` leaves out
    the odd ones, which the parity rules make rare.
    """
    odd = (keys.offsets & keys.alpha_mask) >> (keys.width - 1)  # each alpha field's low bit
    offsets, phase, directions = keys.offsets, system.phase, keys.directions
    out: dict[int, dict] = {}
    for walk, weights in orderings:
        for partner, g, top, meets, wanted in walk:
            v, steps, _supp = directions.get(partner) or _direction(keys, partner)
            ph = None if phase is None else phase(g[7][1], v[0])
            if not top:
                chain = [g[0]]
            elif wanted is None:
                chain = _chain(keys, g[0], steps, top)
            else:  # the last level cut by parity, to the right terms' at level top
                table = directions.get((partner, wanted)) or _parity_cut(keys, partner, wanted)
                chain = _chain(keys, g[0], steps, top, (odd, table))
            for levels, d, terms in meets:
                for k, level in enumerate(chain[levels], levels.start):
                    if not level:
                        break  # the chain has ended
                    bucket = out.get(d - k)
                    if bucket is None:
                        bucket = out[d - k] = {}
                    for k2, s2 in terms.items():
                        base, weighted = k2 - offsets, s2 * weights[k]
                        for k1, s1 in level.items():
                            s = s1 * weighted
                            if ph is not None:
                                s = s * ph
                            key = k1 + base
                            cur = bucket.get(key)
                            if cur is None:
                                if s:
                                    bucket[key] = s
                            else:
                                s = cur + s
                                if s:
                                    bucket[key] = s
                                else:
                                    del bucket[key]
    return out


def sphere_integral(nums, keys: Keys, bag: dict, den: int):
    """(total, den L), which ``symbols._sphere_sum`` lowers once: the
    integral over S^(n-1) of the packed ``bag`` of numerators (of ``nums``)
    over ``den``, every |xi| power read as 1.  The bag is reduced once and
    each alpha weighted from the layout's ``sphere`` memo; an odd alpha, of
    weight zero, is left out of the sum (``sphere_total``).  Every residue
    is this integral: of a composition's pairing bag (``_pairing_pass``),
    and of a symbol's own terms (``calculus._normalized_residue``,
    ``symbols.sphere_average``), given numerators by the system's
    ``numerator_map`` with no right factor.
    """
    sphere, alpha_mask = keys.sphere, keys.alpha_mask
    values, weights = [], []
    for key, v in nums.reduce(bag).items():
        part = key & alpha_mask
        w = sphere.get(part) or keys.sphere_weight(part)
        if w[0]:
            values.append(v)
            weights.append(w)
    return sphere_total(nums, values, weights, den)


def sphere_total(nums, values, weights: list, den: int):
    """(total, den L) with total pi^(n // 2) / (den L) the integral over
    S^(n-1) of sum (v / den) xi^alpha, for the numerators ``values`` and the
    nonzero weights (c, d) of their alphas (``Keys.sphere_weight``): total is
    the sum of v c (L / d), L the lcm of the d, on the numerators of ``nums``."""
    scale = math.lcm(*{d for _c, d in weights})
    return nums.total(values, [c * (scale // d) for c, d in weights]), den * scale
