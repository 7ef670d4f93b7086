"""Term-level machinery shared by the commutative and twisted calculi.

A homogeneous component is stored as a dict mapping

    (mode, alpha, npow) -> scalar

where ``mode`` is the Fourier index of the oscillating factor (a lattice
point on the torus, or the (m, n) word exponents of the twisted algebra),
``alpha`` the xi-monomial exponents and ``npow`` the power of |xi|.  The
same representation serves both calculi.  Scalars are added, multiplied,
negated, scaled by an ``int`` and tested for zero with their own operators
(``+``, ``*``, unary ``-``, truthiness).  A coefficient-system object
supplies only what differs between backends: its ``zero``, scaling by a
``Fraction`` (``times_fraction``), the ``phase`` the product of two modes
picks up, and the pair ``lift``/``lower`` that moves exact coefficients
onto their integer numerators over one shared denominator and back.  An
exact coefficient already is a numerator over a denominator (Gaussian
integers for complex rationals, cyclotomic integers at their own order
for cyclotomic scalars), so lifting rescales numerators and lowering is
one gcd; one ``lift``/``lower`` pair serves both exact calculi.

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
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (
    CYC_ZERO,
    CyclotomicInteger,
    CyclotomicScalar,
    cyclotomic_phase,
)
from .errors import ValidationError
from .scalars import CR_ZERO, ComplexRational, GaussianInteger

TermKey = tuple[tuple[int, ...], tuple[int, ...], int]


class GaussianIntegerSystem:
    """Numerators of exact complex-rational coefficients; trivial mode phases.

    The cyclotomic numerator system derives from it.  Scaling by a fraction
    is an exact division, which the ``scale`` given to
    ``RationalSystem.lift`` makes possible; a remainder would mean a wrong
    scale, so it raises instead of rounding.
    """

    zero = GaussianInteger(0, 0)

    @staticmethod
    def times_fraction(s, f: Fraction):
        return (s * f.numerator).exact_div(f.denominator)

    @staticmethod
    def phase(left_mode, right_mode):
        return None


GAUSSIAN_SYSTEM = GaussianIntegerSystem()


class CyclotomicIntegerSystem(GaussianIntegerSystem):
    """Numerators of exact cyclotomic coefficients, twisted by theta_num/theta_den.

    The phases are integer roots of unity, each built once.
    """

    zero = CyclotomicInteger(1, [0])

    def __init__(self, theta_num: int, theta_den: int):
        self.theta_num = theta_num
        self.theta_den = theta_den
        self._roots: dict[int, CyclotomicInteger] = {}

    def phase(self, left_mode, right_mode):
        e = (self.theta_num * left_mode[1] * right_mode[0]) % self.theta_den
        if not e:
            return None
        root = self._roots.get(e)
        if root is None:
            root = self._roots[e] = CyclotomicInteger.root_of_unity(self.theta_den, e)
        return root


@lru_cache(maxsize=64)
def _cyclotomic_engine(theta_num: int, theta_den: int) -> CyclotomicIntegerSystem:
    return CyclotomicIntegerSystem(theta_num, theta_den)


class RationalSystem:
    """Exact complex-rational coefficients; trivial mode phases.

    The twisted systems below derive from it and override what differs.
    ``scalar`` is the coefficient class and ``engine`` the system of its
    numerators.
    """

    zero = CR_ZERO
    scalar = ComplexRational
    engine = GAUSSIAN_SYSTEM

    @staticmethod
    def times_fraction(s, f: Fraction):
        return s * f

    @staticmethod
    def phase(left_mode, right_mode):
        return None

    def lift(self, comps: dict[int, dict], scale: int = 1):
        """The components as integer numerators over one denominator.

        Returns ``(engine, numerators, den)``: every coefficient num / d
        becomes the numerator num * (den / d), where den is the lcm of all
        the denominators times ``scale``, and ``engine`` is the coefficient
        system of the numerators.  ``lower`` turns a numerator back into a
        coefficient.
        """
        den = math.lcm(*{s.den for bag in comps.values() for s in bag.values()}) * scale
        lifted = {
            deg: {key: s.num * (den // s.den) for key, s in bag.items()}
            for deg, bag in comps.items()
        }
        return self.engine, lifted, den

    def lower(self, s, den: int):
        """The coefficient s / den, in lowest terms (at the order of s)."""
        return self.scalar._lowest(s, den)


class CyclotomicSystem(RationalSystem):
    """Exact cyclotomic coefficients twisted by a rational angle."""

    zero = CYC_ZERO
    scalar = CyclotomicScalar

    def __init__(self, theta_num: int, theta_den: int):
        self.theta_num = theta_num
        self.theta_den = theta_den
        self.engine = _cyclotomic_engine(theta_num, theta_den)

    def phase(self, left_mode, right_mode):
        t = left_mode[1] * right_mode[0]
        if (self.theta_num * t) % self.theta_den == 0:
            return None
        return cyclotomic_phase(self.theta_num, self.theta_den, t)


class FloatSystem(RationalSystem):
    """Floating complex coefficients for numerical experiments.

    The engine runs on the floats as they are: ``lift`` is the identity
    with denominator 1, and ``lower`` divides by whatever denominator a
    caller has scaled by since.
    """

    zero = 0j

    def __init__(self, theta: float = 0.0):
        self.theta = float(theta)

    @staticmethod
    def times_fraction(s, f: Fraction):
        return s * float(f)

    def phase(self, left_mode, right_mode):
        t = left_mode[1] * right_mode[0]
        if t == 0:
            return None
        # also at theta 0.0: the factor 1+0j settles the sign of zero parts
        return cmath.exp(2j * cmath.pi * self.theta * t)

    def lift(self, comps: dict[int, dict], scale: int = 1):
        return self, comps, 1

    @staticmethod
    def lower(s: complex, den: int) -> complex:
        return s if den == 1 else s / den


RATIONAL_SYSTEM = RationalSystem()


def bag_add(bag: dict, key: TermKey, scalar) -> None:
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


def mul_terms(system, left: dict, right: dict, out: dict | None = None) -> dict:
    """Pointwise product; modes add, with the system's phase twist.

    Left scalars multiply on the left, which is what the twisted calculus
    requires; the commutative backend does not care.  Products are summed
    into ``out`` as ``bag_add`` does.
    """
    if out is None:
        out = {}
    phase = system.phase
    add = operator.add
    for (m1, a1, p1), s1 in left.items():
        for (m2, a2, p2), s2 in right.items():
            s = s1 * s2
            ph = phase(m1, m2)
            if ph is not None:
                s = s * ph
            key = (tuple(map(add, m1, m2)), tuple(map(add, a1, a2)), p1 + p2)
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
    return out


def partial_xi_terms(terms: dict, axis: int) -> dict:
    """d/d(xi_axis), termwise: |alpha| + npow drops by one."""
    out = {}
    for (mode, alpha, p), s in terms.items():
        a = alpha[axis]
        if a:
            key = (mode, _bump(alpha, axis, -1), p)
            bag_add(out, key, s * a)
        if p:
            key = (mode, _bump(alpha, axis, 1), p - 2)
            bag_add(out, key, s * p)
    return out


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


def canonical_terms(n: int, degree: int, raw: dict) -> dict:
    """Canonicalize a raw term bag of the given homogeneity degree.

    Each (mode, parity of npow) group is a polynomial P = sum_k R^k P_k,
    where R = xi_1^2 + ... + xi_n^2 and the shell P_k holds the terms at
    |xi| power pmin + 2k.  R divides P exactly when it divides the lowest
    shell P_0, so the power of R is found by dividing P_0 alone and folding
    the quotient into the next shell; a shell that cancels to nothing
    divides too.  When the division fails, the shells left are expanded
    once by Horner's rule, Q <- P_k + R Q, at the current lowest power.
    """
    groups: dict[tuple, dict[int, dict]] = {}
    for (mode, alpha, npow), s in raw.items():
        if not s:
            continue
        if len(alpha) != n:
            raise ValidationError(f"xi multi-index {alpha} has length != {n}")
        if sum(alpha) + npow != degree:
            raise ValidationError(
                f"term xi^{alpha} |xi|^{npow} is homogeneous of degree "
                f"{sum(alpha) + npow}, not {degree}"
            )
        groups.setdefault((mode, npow % 2), {}).setdefault(npow, {})[alpha] = s
    out = {}
    for (mode, _parity), by_pow in groups.items():
        p, top = min(by_pow), max(by_pow)
        d, left = degree - p, MAX_CANONICAL_MONOMIALS  # monomial updates left
        while p <= top:
            low = by_pow.get(p)
            if low:
                quo, left = _divide_by_sum_sq(low, n, left)
                if left < 0:
                    raise _too_costly(n, d)
                if quo is None:
                    break
                nxt = by_pow.get(p + 2)
                if nxt is None:
                    by_pow[p + 2] = quo
                    top = max(top, p + 2)
                else:
                    for alpha, s in quo.items():
                        bag_add(nxt, alpha, s)
            p += 2
        else:
            continue  # the group cancels to zero
        poly = by_pow[top]
        for q in range(top - 2, p - 1, -2):
            left -= n * len(poly)
            if left < 0:
                raise _too_costly(n, d)
            poly = _times_sum_sq_plus(poly, by_pow.get(q, {}), n)
        for alpha, s in poly.items():
            out[(mode, alpha, p)] = s
    return out


def _times_sum_sq_plus(poly: dict, shell: dict, n: int) -> dict:
    """shell + (xi_1^2 + ... + xi_n^2) * poly."""
    out = dict(shell)
    for alpha, s in poly.items():
        for j in range(n):
            key = alpha[:j] + (alpha[j] + 2,) + alpha[j + 1 :]
            cur = out.get(key)
            if cur is None:
                out[key] = s
            else:
                cur = cur + s
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return out


def _divide_by_sum_sq(poly: dict, n: int, left: int):
    """(Exact quotient of poly by xi_1^2 + ... + xi_n^2 or None, updates left).

    Long division in xi_1: the terms are taken by descending xi_1 exponent
    e, each giving a quotient term at e - 2 and passing -(xi_2^2 + ... +
    xi_n^2) times it down to exponent e - 2.  A term left at e < 2 is a
    remainder.  Each bucket's updates are taken from ``left`` before they
    are made; the division stops when that would go below zero, and the
    negative count it returns tells the caller to refuse.
    """
    by_first: dict[int, dict] = {}
    for alpha, s in poly.items():
        by_first.setdefault(alpha[0], {})[alpha] = s
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
        for alpha, s in rem.items():
            beta = (e - 2,) + alpha[1:]
            quo[beta] = s
            neg = -s
            for j in range(1, n):
                bag_add(lower, beta[:j] + (beta[j] + 2,) + beta[j + 1 :], neg)
    return quo, left


# -- composition ------------------------------------------------------------

# compose_components refuses, before it lifts by K!, a composition whose
# deepest derivative order K reaches more multi-indices |gamma| <= K in n
# variables, C(K + n, n), than this: a floor far below the orders would walk
# a tower that deep.  The tests and benchmarks reach 120 (K = 7, n = 3).
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


def xi_derivative(memo: dict, gamma: tuple[int, ...]) -> dict:
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
        d = partial_xi_terms(d, j) if d else {}
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

    Both factors are lifted on entry (``system.lift``), the right one scaled
    by K!, where K is the deepest derivative order any pair reaches: every
    weight w/gamma! then divides exactly, the whole sum runs on numerators
    over the one denominator of the two lifts, and each emitted coefficient
    is divided by it once (``system.lower``).
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
    if math.comb(deepest + n, n) > MAX_GAMMA_COUNT:
        raise ValidationError(
            f"composition needs xi-derivatives up to order {deepest} in {n} variables, "
            f"more than {MAX_GAMMA_COUNT} multi-indices; assign a higher trusted floor"
        )
    engine, comps_a, den_a = system.lift(comps_a)
    _, comps_b, den_b = system.lift(comps_b, math.factorial(deepest))
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
                         if (d := xi_derivative(memo, gamma))]
                if not level:
                    break  # every higher xi-derivative vanishes too
                bucket = out.setdefault(a_deg + b_deg - k, {})
                for gamma, left in level:
                    right = weighted.get((b_deg, gamma))
                    if right is None:
                        right = _weighted_right(engine, b_terms, gamma)
                        weighted[(b_deg, gamma)] = right
                    if right:
                        mul_terms(engine, left, right, out=bucket)
    den = den_a * den_b
    result = {}
    for d, raw in out.items():
        ct = canonical_terms(n, d, raw)
        if ct:
            result[d] = {key: system.lower(s, den) for key, s in ct.items()}
    return result


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


def _weighted_right(system, b_terms: dict, gamma: tuple[int, ...]) -> dict:
    # (1/gamma!) D^gamma applied termwise: each term scales by mode^gamma
    if not any(gamma):
        return b_terms
    fact = gamma_factorial(gamma)
    out = {}
    for key, s in b_terms.items():
        mode = key[0]
        w = 1
        for axis, g in enumerate(gamma):
            if g:
                m = mode[axis]
                if m == 0:
                    w = 0
                    break
                w *= m**g
        if w:
            out[key] = system.times_fraction(s, Fraction(w, fact))
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

    As in ``compose_components``, both factors are lifted on entry, here the
    left one scaled by K! because it carries the weights w/gamma!.  Returns
    ``(engine, bag, den)``: the numerator system, the bag of numerators and
    the denominator of the lifts, which the sphere sum lowers by once.
    """
    engine, comps_b, den_b = system.lift(comps_b)
    partners: dict[int, dict] = {}  # b_deg -> mode -> parity -> [(alpha, numerator)]
    for b_deg, b_terms in comps_b.items():
        index: dict = {}
        for (mode, alpha, _p), s in b_terms.items():
            index.setdefault(mode, {}).setdefault(_parity(alpha), []).append((alpha, s))
        if index:
            partners[b_deg] = index
    wanted = {tuple(-x for x in mode) for index in partners.values() for mode in index}
    kept: dict[int, dict] = {}
    levels: dict[tuple[int, int], int] = {}
    for a_deg, a_terms in comps_a.items():
        a_terms = {key: s for key, s in a_terms.items() if key[0] in wanted}
        if not a_terms:
            continue
        kept[a_deg] = a_terms
        for b_deg, index in partners.items():
            k = a_deg + b_deg + n
            if k < 0 or (k and all(not any(mode) for mode in index)):
                continue  # degree -n out of reach, or D^gamma kills every right term
            levels[(a_deg, b_deg)] = k
    _, comps_a, den_a = system.lift(kept, math.factorial(max(levels.values(), default=0)))
    add = operator.add
    out: dict = {}
    for a_deg, a_terms in comps_a.items():
        groups: dict[tuple, dict] = {}
        for key, s in a_terms.items():
            groups.setdefault((key[0], _parity(key[1])), {})[key] = s
        for (m1, par), group in groups.items():
            m2 = tuple(-x for x in m1)
            support = tuple(j for j, x in enumerate(m1) if x)
            ph = engine.phase(m1, m2)
            memo = {(0,) * n: group}
            for b_deg, index in partners.items():
                k = levels.get((a_deg, b_deg))
                by_parity = index.get(m2)
                if k is None or by_parity is None:
                    continue
                gammas = _gammas_by_parity(n, support, k)
                for par2, right in by_parity.items():
                    for gamma in gammas.get(tuple(map(operator.xor, par, par2)), ()):
                        left = xi_derivative(memo, gamma)
                        if not left:
                            continue
                        w = 1
                        for m, g in zip(m2, gamma):
                            w *= m**g
                        fact = gamma_factorial(gamma)
                        f = None if w == fact else Fraction(w, fact)
                        for (_m, a1, _p), s1 in left.items():
                            if f is not None:
                                s1 = engine.times_fraction(s1, f)
                            for a2, s2 in right:
                                s = s1 * s2
                                if ph is not None:
                                    s = s * ph
                                bag_add(out, tuple(map(add, a1, a2)), s)
    return engine, out, den_a * den_b


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
