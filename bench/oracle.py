"""Floating-point reference for the symbol calculus, written apart from the library.

A symbol is handled here as ``{degree: [(coeff, mode, alpha, npow), ...]}``
with complex ``coeff``; one term stands for
``coeff * e^(i mode.x) * xi^alpha * |xi|^npow`` (on the twisted torus
``mode`` is the word exponent pair of ``U^m V^n``).  Nothing is put in
canonical form: derivatives and products work on raw term lists and only
merge equal keys, so agreement with the library's exact canonical results
is a real check of both the composition expansion and the canonical form.

Only the standard library is used, and nothing of ``ncresidue`` is
imported.  Callers turn library scalars into complex numbers with
``exact_to_complex``, which reads the stored rationals directly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

TWO_PI = 2.0 * math.pi


def exact_to_complex(value) -> complex:
    """A library scalar as a complex number, read from its stored rationals.

    ``ComplexRational`` exposes ``re``/``im``; ``CyclotomicScalar`` exposes
    ``order`` and power-basis ``coeffs`` in powers of exp(2 pi i / order).
    """
    if hasattr(value, "re") and hasattr(value, "im"):
        return complex(float(value.re), float(value.im))
    if hasattr(value, "order") and hasattr(value, "coeffs"):
        q = value.order
        return sum(
            (float(c) * cmath.exp(2j * math.pi * j / q) for j, c in enumerate(value.coeffs) if c),
            0j,
        )
    if isinstance(value, (int, Fraction, float, complex)):
        return complex(value)
    raise TypeError(f"no complex reading for {type(value).__name__}")


def terms_of(components: dict) -> dict[int, list]:
    """``{deg: {(mode, alpha, npow): scalar}}`` to oracle term lists."""
    return {
        deg: [(exact_to_complex(s), tuple(m), tuple(a), int(p)) for (m, a, p), s in raw.items()]
        for deg, raw in components.items()
    }


def _merge(bag: dict, key, c: complex) -> None:
    bag[key] = bag.get(key, 0j) + c


def d_xi(terms: list, axis: int) -> list:
    """d/d(xi_axis) of a raw term list (product rule on xi^alpha |xi|^p)."""
    bag: dict = {}
    for c, mode, alpha, p in terms:
        a = alpha[axis]
        if a:
            lowered = alpha[:axis] + (a - 1,) + alpha[axis + 1 :]
            _merge(bag, (mode, lowered, p), c * a)
        if p:
            raised = alpha[:axis] + (a + 1,) + alpha[axis + 1 :]
            _merge(bag, (mode, raised, p - 2), c * p)
    return [(c, m, a, p) for (m, a, p), c in bag.items() if c != 0]


def multi_indices(n: int, k: int):
    """Every length-n multi-index of total k."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in multi_indices(n - 1, k - first):
            yield (first,) + rest


def _tower(terms: list, n: int, kmax: int) -> dict:
    """``{gamma: d_xi^gamma terms}`` for every |gamma| <= kmax."""
    out = {(0,) * n: terms}
    for k in range(1, kmax + 1):
        for gamma in multi_indices(n, k):
            j = next(i for i, g in enumerate(gamma) if g)
            parent = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :]
            out[gamma] = d_xi(out[parent], j)
    return out


def tower_term_count(sym: dict, n: int, other_order: int) -> int:
    """Raw terms in the xi-derivative towers a composition with ``sym`` on the left builds.

    A component of degree d meets the other factor's top degree at
    |gamma| up to d + other_order + n on the way down to degree -n.
    """
    total = 0
    for deg, terms in sym.items():
        kmax = deg + other_order + n
        if kmax >= 0:
            total += sum(len(level) for level in _tower(terms, n, kmax).values())
    return total


def _needed_levels(sigma: dict, tau: dict, degrees) -> dict:
    """For each degree of sigma, the highest |gamma| some wanted degree needs."""
    out = {}
    for a_deg in sigma:
        ks = [a_deg + b_deg - d for b_deg in tau for d in degrees if a_deg + b_deg - d >= 0]
        if ks:
            out[a_deg] = max(ks)
    return out


def _weighted(terms: list, gamma) -> list:
    """(1/gamma!) D^gamma: a term of mode k scales by k^gamma / gamma!."""
    fact = 1
    for g in gamma:
        fact *= math.factorial(g)
    out = []
    for c, mode, alpha, p in terms:
        w = 1
        for axis, g in enumerate(gamma):
            w *= mode[axis] ** g
        if w:
            out.append((c * w / fact, mode, alpha, p))
    return out


def zero_mode_products(sigma: dict, tau: dict, n: int, degree: int, theta: float | None = None) -> list:
    """Raw mode-zero terms of degree ``degree`` of sum_gamma (1/gamma!) (d_xi^gamma sigma) (D^gamma tau).

    ``D^gamma`` scales a term of mode k by k^gamma.  Only products landing
    on Fourier mode zero are kept, which is all a residue needs.  With
    ``theta`` the product of modes (a, b) and (c, d) picks up
    exp(2 pi i theta b c), the twisted torus rule
    U^a V^b U^c V^d = e^(2 pi i theta b c) U^(a+c) V^(b+d).
    """
    out: list = []
    for a_deg, kmax in _needed_levels(sigma, tau, [degree]).items():
        tower = _tower(sigma[a_deg], n, kmax)
        for b_deg, b_terms in tau.items():
            k = a_deg + b_deg - degree
            if k < 0:
                continue
            for gamma in multi_indices(n, k):
                left = tower[gamma]
                if not left:
                    continue
                for c2, m2, al2, p2 in _weighted(b_terms, gamma):
                    for c1, m1, al1, p1 in left:
                        if any(x + y for x, y in zip(m1, m2)):
                            continue
                        c = c1 * c2
                        if theta is not None and m1[1] * m2[0]:
                            c *= cmath.exp(2j * math.pi * theta * m1[1] * m2[0])
                        alpha = tuple(x + y for x, y in zip(al1, al2))
                        out.append((c, (0,) * n, alpha, p1 + p2))
    return out


def evaluate_composition(sigma: dict, tau: dict, n: int, degrees, points) -> dict:
    """``{degree: [(value, scale) at each point]}`` of the commutative composition sum.

    Evaluates pointwise, (d_xi^gamma sigma)(x, xi) * (D^gamma tau)(x, xi),
    so no product term list is ever formed.
    """
    out = {d: [[0j, 0.0] for _ in points] for d in degrees}
    for a_deg, kmax in _needed_levels(sigma, tau, degrees).items():
        tower = _tower(sigma[a_deg], n, kmax)
        at = {g: [evaluate(ts, x, xi) for x, xi in points] for g, ts in tower.items() if ts}
        for b_deg, b_terms in tau.items():
            for d in degrees:
                k = a_deg + b_deg - d
                if k < 0:
                    continue
                for gamma in multi_indices(n, k):
                    if gamma not in at:
                        continue
                    right = _weighted(b_terms, gamma)
                    if not right:
                        continue
                    for i, (x, xi) in enumerate(points):
                        lv, ls = at[gamma][i]
                        rv, rs = evaluate(right, x, xi)
                        out[d][i][0] += lv * rv
                        out[d][i][1] += ls * rs
    return {d: [tuple(v) for v in vals] for d, vals in out.items()}


def sphere_integral(alpha, n: int) -> float:
    """Integral of xi^alpha over the unit sphere S^(n-1), by Gamma functions."""
    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2)
    return num / math.gamma((sum(alpha) + n) / 2)


def residue_terms(terms: list, n: int, torus_weight: float) -> tuple[complex, float]:
    """(value, scale): torus_weight * sum of sphere integrals of the mode-zero terms.

    ``scale`` is the same sum taken over absolute values; it bounds the
    rounding error of ``value`` and serves as the base of relative checks.
    """
    value = 0j
    scale = 0.0
    for c, mode, alpha, _p in terms:
        if any(mode):
            continue
        s = sphere_integral(alpha, n)
        value += c * s
        scale += abs(c) * s
    return torus_weight * value, torus_weight * scale


def residue_of_product(sigma: dict, tau: dict, n: int, theta: float | None = None):
    """Res(sigma o tau) as (value, scale).

    On the n-torus the residue carries the torus volume (2 pi)^n; on the
    twisted torus the trace is normalized, so the weight is 1.
    """
    weight = 1.0 if theta is not None else TWO_PI ** n
    terms = zero_mode_products(sigma, tau, n, -n, theta=theta)
    return residue_terms(terms, n, weight)


def residue_of_symbol(sym: dict, n: int, theta: float | None = None):
    weight = 1.0 if theta is not None else TWO_PI ** n
    return residue_terms(sym.get(-n, []), n, weight)


def evaluate(terms: list, x, xi) -> tuple[complex, float]:
    """(value, scale) of a raw term list at the point (x, xi)."""
    r = math.sqrt(sum(t * t for t in xi))
    value = 0j
    scale = 0.0
    for c, mode, alpha, p in terms:
        v = r ** p
        for a, t in zip(alpha, xi):
            v *= t ** a
        phase = cmath.exp(1j * sum(k * xx for k, xx in zip(mode, x)))
        value += c * v * phase
        scale += abs(c * v)
    return value, scale


def agree(a: complex, b: complex, scale: float, rel: float = 1e-9) -> bool:
    """|a - b| within ``rel`` of the larger of the magnitudes involved."""
    return abs(a - b) <= rel * max(scale, abs(a), abs(b), 1e-300)
