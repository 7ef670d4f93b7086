"""Shared numeric oracles, deliberately independent of the library internals.

Evaluation here multiplies out floats from the stored term data; the
library itself never evaluates numerically, so agreement between the two
routes is a real check.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache

import numpy as np


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
    return math.prod(map(math.factorial, gamma))


def eval_terms(raw_terms: dict, x, xi) -> complex:
    total = 0j
    for (mode, alpha, p), c in raw_terms.items():
        v = c.to_complex() if hasattr(c, "to_complex") else complex(c)
        v *= cmath.exp(1j * sum(k * xx for k, xx in zip(mode, x)))
        for a, t in zip(alpha, xi):
            v *= t**a
        v *= math.sqrt(sum(t * t for t in xi)) ** p
        total += v
    return total


def eval_component(comp, x, xi) -> complex:
    return eval_terms(comp.raw_terms(), x, xi)


def eval_symbol(sym, x, xi) -> complex:
    return sum(
        (eval_component(c, x, xi) for c in sym.components.values()), 0j
    )


def random_point(rng: random.Random, n: int):
    x = tuple(rng.uniform(0, 2 * math.pi) for _ in range(n))
    raw = [rng.gauss(0, 1) for _ in range(n)]
    norm = math.sqrt(sum(t * t for t in raw))
    while norm < 1e-3:
        raw = [rng.gauss(0, 1) for _ in range(n)]
        norm = math.sqrt(sum(t * t for t in raw))
    xi = tuple(t / norm for t in raw)
    return x, xi


def sphere_quadrature(alpha, n: int) -> float:
    """Numerical integral of xi^alpha over S^(n-1).

    n=2: trapezoid rule on the circle (exact for trigonometric polynomials
    once the node count beats the degree).  n=3: Gauss-Legendre in cos(polar)
    crossed with a trapezoid in azimuth.
    """
    if n == 2:
        a1, a2 = alpha
        t = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        vals = np.cos(t) ** a1 * np.sin(t) ** a2
        return float(vals.mean() * 2 * np.pi)
    if n == 3:
        a1, a2, a3 = alpha
        nodes, weights = np.polynomial.legendre.leggauss(24)
        phi = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        mu = nodes[:, None]
        sin_theta = np.sqrt(1.0 - mu**2)
        vals = (
            (sin_theta * np.cos(phi)[None, :]) ** a1
            * (sin_theta * np.sin(phi)[None, :]) ** a2
            * mu**a3
        )
        inner = vals.mean(axis=1) * 2 * np.pi
        return float((weights * inner).sum())
    raise ValueError(f"no quadrature oracle for n={n}")
