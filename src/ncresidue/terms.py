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
value, the ``phase`` the product of two modes picks up, and the pair
``lift``/``lower`` that moves exact coefficients onto their integer
numerators over one shared denominator and back.  An exact coefficient
already is a numerator over a denominator (Gaussian integers for complex
rationals, cyclotomic integers at their own order for cyclotomic
scalars), so lifting rescales numerators and lowering is one gcd; one
``lift``/``lower`` pair serves both exact calculi.  The phase works on
both levels: the twisted one is an integer root of unity, which a
numerator and a ``CyclotomicScalar`` multiply by alike.  Composition
weights w/gamma! are applied as the integers w * (K!/gamma!), with K! in
the one denominator that is lowered at the end, so no ``Fraction`` is
formed on the way.  The twisted phase is read from two mode entries:
``phase(v, u)`` for a left mode (., v) and a right mode (u, .); the
commutative system has none (``phase`` is None).

Keys: tuples at the module boundary, packed ``int``s inside.  Everything
outside this module (symbols, ``NCPolynomial``, the parser, the writers,
JSON, ``raw_terms()``) sees the (mode, alpha, npow) tuples above.  The
engine loops (``mul_terms``, ``partial_xi_terms``, ``canonical_terms``
and the composition and residue sums) run on keys packed into one ``int``
each (``Keys``): from the low bits up, the fields alpha_0 .. alpha_(n-1),
npow, |alpha| + npow and mode_0 .. mode_(n-1), each ``width`` bits wide
and holding its value plus the offset 2^(width - 1).  So a product key is
k1 + k2 minus the packed offsets, a xi-derivative or R step adds a
precomputed unit, canonical form groups terms by the key shifted down to
npow (keeping its parity bit) and divides along the alpha_0 field, and the
homogeneity check is one mask-and-compare on the |alpha| + npow field.
Width rule: ``pack_terms`` works the width out from the keys of each call,
as the narrowest multiple of 8 bits whose offset exceeds 4 (F + K), F the
largest field value of the inputs and K the deepest derivative order, so
that no field of a product, derivative or canonical shell can carry into
its neighbour.  ``compose_components`` packs its lifted factors once, and
``residue_pairing`` its left one; the loops also accept tuple-keyed bags
when handed the dimension n in place of a layout, and then pack on entry
and unpack on return.  A layout remembers the modes and alphas it has
packed or read (``Keys``), which is what keeps the many one- and two-term
bags of the symbol layer and the parser cheap to pack.

Canonical form: within each (mode, parity of npow) class all terms share
the maximal norm power such that the polynomial part is not divisible by
xi_1^2 + ... + xi_n^2.  This removes the only relation among the
generators, so structural equality of canonical term dicts is equality of
functions on R^n minus the origin.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache

from .cyclotomic import CYC_ZERO, CyclotomicInteger, CyclotomicScalar
from .errors import ValidationError
from .scalars import CR_ZERO, ComplexRational

TermKey = tuple[tuple[int, ...], tuple[int, ...], int]


class RationalSystem:
    """Exact complex-rational coefficients; trivial mode phases.

    The twisted systems below derive from it and override what differs.
    ``scalar`` is the coefficient class.
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

    @staticmethod
    def lift(comps: dict[int, dict]):
        """The components as integer numerators over one denominator.

        Returns ``(numerators, den)``: every coefficient num / d becomes the
        numerator num * (den / d), where den is the lcm of all the
        denominators.  ``lower`` turns a numerator back into a coefficient.
        """
        den = math.lcm(*{s.den for bag in comps.values() for s in bag.values()})
        lifted = {
            deg: {key: s.num * (den // s.den) for key, s in bag.items()}
            for deg, bag in comps.items()
        }
        return lifted, den

    def lower(self, s, den: int):
        """The coefficient s / den, in lowest terms (at the order of s)."""
        return self.scalar._lowest(s, den)


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

    def phase(self, v: int, u: int):
        e = (self.theta_num * v * u) % self.theta_den
        if not e:
            return None
        root = self._roots.get(e)
        if root is None:
            root = self._roots[e] = CyclotomicInteger.root_of_unity(self.theta_den, e)
        return root


class FloatSystem(RationalSystem):
    """Floating complex coefficients for numerical experiments.

    The engine runs on the floats as they are: ``lift`` is the identity
    with denominator 1, and ``lower`` divides by whatever denominator a
    caller has scaled by since.
    """

    zero = 0j
    scalar = complex

    def __init__(self, theta: float = 0.0):
        self.theta = float(theta)

    @staticmethod
    def coerce(value) -> complex:
        if isinstance(value, (CyclotomicScalar, ComplexRational)):
            return value.to_complex()
        return complex(value)

    def phase(self, v: int, u: int):
        t = v * u
        if t == 0:
            return None
        # also at theta 0.0: the factor 1+0j settles the sign of zero parts
        return cmath.exp(2j * cmath.pi * self.theta * t)

    @staticmethod
    def lift(comps: dict[int, dict]):
        return comps, 1

    @staticmethod
    def lower(s: complex, den: int) -> complex:
        return s if den == 1 else s / den


RATIONAL_SYSTEM = RationalSystem()


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
    |entry|, its share of a key) and the mode fields of a key (``key >>
    mode_shifts[0]``) to the mode; ``alphas`` maps an alpha to (|alpha|,
    its share of a key, offsets included) and the alpha fields of a key
    (``key & alpha_mask``) to the alpha.  Tuples and ints never collide as
    dict keys.  Both map a decoded tuple, never a caller's, whose entries
    may be ``bool``s equal to the ``int``s.  Each memo holds up to
    ``_MEMO_FIELDS`` fields and starts afresh when full.
    """

    __slots__ = ("n", "width", "mask", "half", "offsets", "alpha_mask", "npow_shift",
                 "npow_unit", "degree_shift", "degree_unit", "degree_field", "group_of",
                 "mode_shifts", "mode_units", "peel", "spread", "times_r", "xi_steps",
                 "alpha_weights", "npow_weight", "modes", "alphas", "memo_limit")

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
        self.memo_limit = max(1, _MEMO_FIELDS // n)

    def pack(self, bags) -> tuple[int, list[dict]]:
        """(F, the bags with packed keys), for ``pack_terms`` to check F
        against the width."""
        modes, alphas, weight = self.modes, self.alphas, self.npow_weight
        top = 0
        out = []
        for bag in bags:
            packed = {}
            for (mode, alpha, npow), s in bag.items():
                a = alphas.get(alpha) or self.pack_alpha(alpha)
                m = modes.get(mode) or self.pack_mode(mode)
                size = a[0] + abs(npow)
                if size > top:
                    top = size
                if m[0] > top:
                    top = m[0]
                packed[a[1] + m[1] + npow * weight] = s
            out.append(packed)
        return top, out

    def pack_alpha(self, alpha: tuple) -> tuple[int, int]:
        """(|alpha|, what alpha adds to a key, offsets included), checked."""
        n = self.n
        if len(alpha) != n:
            raise ValidationError(f"xi multi-index {alpha} has length != {n}")
        if min(alpha) < 0:
            raise ValidationError(f"xi exponents must be nonnegative: {alpha}")
        size = sum(alpha)
        part = self.offsets + sum(map(operator.mul, alpha, self.alpha_weights))
        if size < self.half:  # else a field overflows: the layout is too narrow
            alpha = self.unpack(part)[1]  # decoded, so its entries are ints
            _remember(self.alphas, alpha, (size, part), self.memo_limit)
        return size, part

    def pack_mode(self, mode: tuple) -> tuple[int, int]:
        """(largest |entry|, what the mode adds to a key), checked."""
        if len(mode) != self.n:
            raise ValidationError(f"Fourier mode {mode} has length != {self.n}")
        size = max(max(mode), -min(mode))
        part = sum(map(operator.mul, mode, self.mode_units))
        if size < self.half:
            mode = self.unpack(self.offsets + part)[0]  # decoded, so its entries are ints
            _remember(self.modes, mode, (size, part), self.memo_limit)
        return size, part

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
        n, modes, alphas = self.n, self.modes, self.alphas
        mode = modes.get(key >> self.mode_shifts[0])
        if mode is None:
            mode = _remember(modes, key >> self.mode_shifts[0],
                             self.fields(key, n + 2, 2 * n + 2), self.memo_limit)
        alpha = alphas.get(key & self.alpha_mask)
        if alpha is None:
            alpha = _remember(alphas, key & self.alpha_mask, self.fields(key, 0, n),
                              self.memo_limit)
        return mode, alpha, (key >> self.npow_shift & self.mask) - self.half

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

# The symbol layer and the parser hand the engine many bags of one or two
# terms, and compose_components many product keys, whose modes and alphas
# repeat; working their shares out, or reading them back, is most of the
# cost of packing and unpacking.  A memo of a layout holds at most this many
# fields (n per entry), so its size does not grow with the dimension.
_MEMO_FIELDS = 1 << 15


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
    turns out to need it.  The engine loops below do this on entry when
    they are handed the dimension n, with tuple-keyed bags, in place of a
    layout, and unpack their result (``Keys.unpack_bag``) on return.
    """
    keys = _narrow_layout(n)
    while True:
        top, packed = keys.pack(bags)
        needed = (4 * (top + depth)).bit_length() + 1
        if needed <= keys.width:
            return keys, packed
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


def mul_terms(system, keys, left: dict, right: dict, out: dict | None = None) -> dict:
    """Pointwise product; modes add, with the system's phase twist.

    Left scalars multiply on the left, which is what the twisted calculus
    requires; the commutative backend does not care.  ``keys`` is the
    layout of packed bags, whose products are summed into ``out`` as
    ``bag_add`` does, or the dimension of tuple-keyed ones
    (``pack_terms``), whose product is a new bag.  The phase is read only
    for a twisted system, from the two mode fields it uses.
    """
    tuples = type(keys) is int
    if tuples:
        if out is not None:
            raise TypeError("mul_terms sums into out only on packed bags")
        keys, (left, right) = pack_terms(keys, (left, right))
    if out is None:
        out = {}
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
    return keys.unpack_bag(out) if tuples else out


def partial_xi_terms(keys, terms: dict, axis: int) -> dict:
    """d/d(xi_axis), termwise: |alpha| + npow drops by one.

    ``keys`` is the layout of packed bags or the dimension of tuple-keyed
    ones (``pack_terms``).
    """
    tuples = type(keys) is int
    if tuples:
        keys, (terms,) = pack_terms(keys, (terms,), 1)
    m, h = keys.mask, keys.half
    shift, ps = keys.width * axis, keys.npow_shift
    down, r_step = keys.xi_steps[axis]
    out: dict = {}
    for key, s in terms.items():
        a = (key >> shift & m) - h
        if a:
            bag_add(out, key - down, s * a)
        p = (key >> ps & m) - h
        if p:
            bag_add(out, key - r_step, s * p)
    return keys.unpack_bag(out) if tuples else out


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


def terms_x_independent(terms: dict) -> bool:
    return all(not any(mode) for (mode, _a, _p) in terms)


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
# size of the space it lies in.
MAX_CANONICAL_MONOMIALS = 100_000


def _too_costly(n: int, d: int) -> ValidationError:
    return ValidationError(
        f"canonical form of a degree {d} polynomial in {n} variables needs "
        f"more than {MAX_CANONICAL_MONOMIALS} monomial updates"
    )


def canonical_terms(keys, degree: int, raw: dict) -> dict:
    """Canonicalize a raw term bag of the given homogeneity degree.

    Each (mode, parity of npow) group is a polynomial P = sum_k R^k P_k,
    where R = xi_1^2 + ... + xi_n^2 and the shell P_k holds the terms at
    |xi| power pmin + 2k.  R divides P exactly when it divides the lowest
    shell P_0, so the power of R is found by dividing P_0 alone and folding
    the quotient into the next shell; a shell that cancels to nothing
    divides too.  When the division fails, the shells left are expanded
    once by Horner's rule, Q <- P_k + R Q, at the current lowest power.

    ``keys`` is the layout of a packed bag or the dimension of a
    tuple-keyed one (``pack_terms``, which checks the lengths).  A group
    is the key shifted down to its npow field, with all of that field but
    its parity bit cleared; the homogeneity check compares the |alpha| +
    npow field.
    """
    tuples = type(keys) is int
    if tuples:
        keys, (raw,) = pack_terms(keys, (raw,))
    n, m, h, ps = keys.n, keys.mask, keys.half, keys.npow_shift
    degree_field, group_of = keys.degree_field, keys.group_of
    homogeneous = (degree + h) << keys.degree_shift
    groups: dict[int, dict[int, dict]] = {}
    for key, s in raw.items():
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
    out = {}
    for by_pow in groups.values():
        p, top = min(by_pow), max(by_pow)
        d, left = degree - p, MAX_CANONICAL_MONOMIALS  # monomial updates left
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
        out.update(poly)
    return keys.unpack_bag(out) if tuples else out


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
# lift by K!, a sum whose deepest derivative order K reaches more multi-indices
# |gamma| <= K in n variables, C(K + n, n), than this: a low floor or high
# orders would walk a tower that deep.  The tests and benchmarks reach 120.
MAX_GAMMA_COUNT = 1_000


@lru_cache(maxsize=256)
def compositions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length n with total k."""
    if n == 1:
        return ((k,),)
    out = []
    for first in range(k + 1):
        for rest in compositions(n - 1, k - first):
            out.append((first,) + rest)
    return tuple(out)


def gamma_factorial(gamma: tuple[int, ...]) -> int:
    f = 1
    for g in gamma:
        f *= math.factorial(g)
    return f


def xi_derivative(keys: Keys, memo: dict, gamma: tuple[int, ...]) -> dict:
    """The raw bag d_xi^gamma terms, memoised.

    ``memo`` maps multi-indices to derivative bags and starts as
    ``{(0,) * n: terms}``.  A missing d_xi^gamma is built as d_xi_j of
    d_xi^(gamma - e_j), with j the first axis where gamma is nonzero, so
    every multi-index on that chain is built once and kept.  Bags are the
    ones ``partial_xi_terms`` returns, never canonicalized; an empty bag is
    a zero derivative, and so is every derivative built from it.
    """
    d = memo.get(gamma)
    if d is not None:
        return d
    chain = []
    while d is None:
        j = next(i for i, g in enumerate(gamma) if g)
        chain.append((gamma, j))
        gamma = _bump(gamma, j, -1)
        d = memo.get(gamma)
    for gamma, j in reversed(chain):
        d = partial_xi_terms(keys, d, j) if d else {}
        memo[gamma] = d
    return d


def compose_components(
    system,
    n: int,
    comps_a: dict[int, dict],
    comps_b: dict[int, dict],
    floor: int | None,
    *,
    gamma_cap: int | None = None,
) -> dict[int, dict]:
    """Components of sum_gamma (1/gamma!) (d_xi^gamma a) (D^gamma b).

    ``floor`` bounds the emitted degrees from below; ``gamma_cap``
    truncates the derivative order.  With neither, the series terminates
    only when the left factor is polynomial in xi or the right factor is
    free of modes; otherwise the loop would not end, so it raises
    ``ValidationError`` instead.

    The xi-derivatives of each left component are kept raw (see
    ``xi_derivative``).  Each emitted degree is canonicalized once at
    the end, which suffices because the canonical form of a function is
    unique and ``canonical_terms`` accepts any homogeneous raw bag.  Each
    weighted right factor (1/gamma!) D^gamma b is formed once per
    (b_deg, gamma) and serves every left component.

    Both factors are lifted on entry (``system.lift``), and each weight
    w/gamma! is applied as the integer w * (K!/gamma!), where K is the
    deepest derivative order any pair reaches: the whole sum runs on
    numerators over one denominator, the two lifts' denominators times K!,
    and each emitted coefficient is divided by it once (``system.lower``).
    The lifted factors are packed once, under a layout that covers order K
    (``pack_terms``), and the keys are unpacked only in the result.
    """
    if floor is None and gamma_cap is None and not (
        all(terms_polynomial(t) for t in comps_a.values())
        or all(terms_x_independent(t) for t in comps_b.values())
    ):
        raise ValidationError(
            "composition of two complete symbols does not terminate here; "
            "assign a finite trusted floor to one factor"
        )
    caps = _level_caps(comps_a, comps_b, floor, gamma_cap)
    deepest = max(caps.values(), default=0)
    _check_tower(n, deepest, "assign a higher trusted floor")
    comps_a, den_a = system.lift(comps_a)
    comps_b, den_b = system.lift(comps_b)
    keys, packed = pack_terms(n, [*comps_a.values(), *comps_b.values()], deepest)
    comps_a = dict(zip(comps_a, packed))
    comps_b = dict(zip(comps_b, packed[len(comps_a):]))
    scale = math.factorial(deepest)
    out: dict[int, dict] = {}
    weighted: dict[tuple, dict] = {}
    for a_deg, a_terms in comps_a.items():
        memo = {(0,) * n: a_terms}
        for b_deg, b_terms in comps_b.items():
            kmax = caps.get((a_deg, b_deg))
            if kmax is None:
                continue
            for k in range(kmax + 1):
                level = [(gamma, d) for gamma in compositions(n, k)
                         if (d := xi_derivative(keys, memo, gamma))]
                if not level:
                    break  # every higher xi-derivative vanishes too
                bucket = out.setdefault(a_deg + b_deg - k, {})
                for gamma, left in level:
                    right = weighted.get((b_deg, gamma))
                    if right is None:
                        right = _weighted_right(keys, b_terms, gamma, scale)
                        weighted[(b_deg, gamma)] = right
                    if right:
                        mul_terms(system, keys, left, right, out=bucket)
    den = den_a * den_b * scale
    result = {}
    for d, raw in out.items():
        ct = canonical_terms(keys, d, raw)
        if ct:
            result[d] = {key: system.lower(s, den) for key, s in keys.unpack_bag(ct).items()}
    return result


def _check_tower(n: int, deepest: int, remedy: str) -> None:
    """Refuse a xi-derivative tower of more than ``MAX_GAMMA_COUNT`` multi-indices."""
    if math.comb(deepest + n, n) > MAX_GAMMA_COUNT:
        raise ValidationError(
            f"composition needs xi-derivatives up to order {deepest} in {n} variables, "
            f"more than {MAX_GAMMA_COUNT} multi-indices; {remedy}"
        )


def _level_caps(comps_a, comps_b, floor, gamma_cap) -> dict[tuple[int, int], int]:
    """The deepest derivative order k each pair (a_deg, b_deg) can use.

    A pair that reaches no level is left out.  The bounds: the lowest
    emitted degree ``floor`` sets a_deg + b_deg - k, ``gamma_cap`` caps k,
    a right component free of modes is killed by every D^gamma with
    gamma != 0, and the tower of a polynomial left component vanishes past
    its degree (its largest |alpha| + p).  The termination check of ``compose_components`` makes
    sure one of them applies.
    """
    caps = {}
    for a_deg, a_terms in comps_a.items():
        if not a_terms:
            continue
        a_cap = a_deg if terms_polynomial(a_terms) else None
        for b_deg, b_terms in comps_b.items():
            if not b_terms:
                continue
            bounds = [a_cap, gamma_cap, 0 if terms_x_independent(b_terms) else None]
            if floor is not None:
                bounds.append(a_deg + b_deg - floor)
            kmax = min(b for b in bounds if b is not None)
            if kmax >= 0:
                caps[(a_deg, b_deg)] = kmax
    return caps


def _weighted_right(keys: Keys, b_terms: dict, gamma: tuple[int, ...], scale: int) -> dict:
    # (scale/gamma!) D^gamma applied termwise: each term scales by mode^gamma
    fact = scale // gamma_factorial(gamma)
    if not any(gamma):
        return b_terms if fact == 1 else {key: s * fact for key, s in b_terms.items()}
    m, h = keys.mask, keys.half
    powers = [(shift, g) for shift, g in zip(keys.mode_shifts, gamma) if g]
    out = {}
    for key, s in b_terms.items():
        w = fact
        for shift, g in powers:
            x = (key >> shift & m) - h
            if x == 0:
                w = 0
                break
            w *= x**g
        if w:
            out[key] = s * w
    return out


def residue_pairing(system, n: int, comps_a: dict[int, dict], comps_b: dict[int, dict]):
    """The part of a o b that the residue integrates, as alpha -> numerator.

    Sums (1/gamma!) (d_xi^gamma a)(D^gamma b) over the products that land
    at degree -n and Fourier mode zero, the only part the torus integral
    keeps, and drops the |xi| power: the sum is integrated over the unit
    sphere, where |xi| = 1, so it stays raw and is never canonicalized.
    A monomial with an odd exponent integrates to zero there and is
    skipped.  The product is formed as in ``mul_terms``: left scalar first,
    then the system's phase.

    Only the xi-derivatives that can meet a partner are built.  The left
    terms are split into (mode, exponent parity) groups, which never share
    a key, and a group of mode m pairs only with right terms of mode -m:
    on those D^gamma/gamma! is the weight (-m)^gamma/gamma!, which is zero
    unless gamma is supported where m is nonzero (support rule).  Each
    derivative d_xi_j flips the parity of exponent j, so a group of parity
    p meets right terms of parity p' only through gamma = p xor p' mod 2
    (parity rule).  A mode-zero group therefore meets only gamma = 0.  The
    derivatives of each group are memoised (``xi_derivative``), and the
    phase and weight are formed once per group and gamma.

    A pair meets at level k = a_deg + b_deg + n.  It is dropped when its
    left component is a polynomial of degree below k, as in ``_level_caps``,
    and the deepest level is bounded (``_check_tower``) before any lift.

    As in ``compose_components``, both factors are lifted and the
    weights are the integers w * (K!/gamma!).  The left groups are packed
    once, for their xi-derivatives, and each product reads the alpha of its
    left key.  Returns ``(bag, den)``: the bag of numerators and their one
    denominator, the lifts' denominators times K!, which the sphere sum
    lowers by once.
    """
    b_modes = {b_deg: {key[0] for key in b_terms} for b_deg, b_terms in comps_b.items()}
    wanted = {tuple(-x for x in mode) for modes in b_modes.values() for mode in modes}
    kept: dict[int, dict] = {}
    levels: dict[tuple[int, int], int] = {}
    for a_deg, a_terms in comps_a.items():
        a_terms = {key: s for key, s in a_terms.items() if key[0] in wanted}
        if not a_terms:
            continue
        kept[a_deg] = a_terms
        top = a_deg if terms_polynomial(a_terms) else None
        for b_deg, modes in b_modes.items():
            k = a_deg + b_deg + n
            if k < 0 or (top is not None and k > top) or (k and not any(map(any, modes))):
                continue  # out of reach, past a polynomial's tower, or D^gamma kills b
            levels[(a_deg, b_deg)] = k
    deepest = max(levels.values(), default=0)
    _check_tower(n, deepest, "lower the orders of the factors")
    comps_a, den_a = system.lift(kept)
    comps_b, den_b = system.lift(comps_b)
    partners: dict[int, dict] = {}  # b_deg -> mode -> parity -> [(alpha, numerator)]
    for b_deg, b_terms in comps_b.items():
        index = partners[b_deg] = {}
        for (mode, alpha, _p), s in b_terms.items():
            index.setdefault(mode, {}).setdefault(_parity(alpha), []).append((alpha, s))
    groups, bags = [], []  # (a_deg, mode, parity) and the left terms that pair alike
    for a_deg, a_terms in comps_a.items():
        by_group: dict[tuple, dict] = {}
        for key, s in a_terms.items():
            by_group.setdefault((key[0], _parity(key[1])), {})[key] = s
        groups += [(a_deg, *group) for group in by_group]
        bags += by_group.values()
    keys, packed = pack_terms(n, bags, deepest)
    scale = math.factorial(deepest)
    add = operator.add
    out: dict = {}
    for (a_deg, m1, par), group in zip(groups, packed):
        m2 = tuple(-x for x in m1)
        support = tuple(j for j, x in enumerate(m1) if x)
        ph = None if system.phase is None else system.phase(m1[1], m2[0])
        memo = {(0,) * n: group}
        for b_deg, index in partners.items():
            k = levels.get((a_deg, b_deg))
            by_parity = index.get(m2)
            if k is None or by_parity is None:
                continue
            gammas = _gammas_by_parity(n, support, k)
            for par2, right in by_parity.items():
                for gamma in gammas.get(tuple(map(operator.xor, par, par2)), ()):
                    left = xi_derivative(keys, memo, gamma)
                    if not left:
                        continue
                    w = scale // gamma_factorial(gamma)
                    for m, g in zip(m2, gamma):
                        w *= m**g
                    for k1, s1 in left.items():
                        if w != 1:
                            s1 = s1 * w
                        a1 = keys.unpack(k1)[1]
                        for a2, s2 in right:
                            s = s1 * s2
                            if ph is not None:
                                s = s * ph
                            bag_add(out, tuple(map(add, a1, a2)), s)
    return out, den_a * den_b * scale


@lru_cache(maxsize=1024)
def _gammas_by_parity(n: int, support: tuple[int, ...], k: int) -> dict[tuple, tuple]:
    """The multi-indices gamma with |gamma| = k, zero off ``support``, by parity.

    The dict is cached and shared between callers, who only read it.
    """
    if not support:
        return {(0,) * n: ((0,) * n,)} if k == 0 else {}
    out: dict[tuple, list] = {}
    for sub in compositions(len(support), k):
        gamma = [0] * n
        for j, g in zip(support, sub):
            gamma[j] = g
        out.setdefault(_parity(gamma), []).append(tuple(gamma))
    return {par: tuple(gs) for par, gs in out.items()}


def _parity(alpha: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a & 1 for a in alpha)
