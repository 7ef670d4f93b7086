import random
from fractions import Fraction

import numpy as np
import pytest

from ncresidue import terms as T
from ncresidue.dsl import format_symbol, symbol_to_json
from ncresidue.errors import (
    CriticalDegreeError,
    InsufficientExpansionError,
    ValidationError,
)
from ncresidue.scalars import ComplexRational
from ncresidue.symbols import (
    ClassicalSymbol,
    HomogeneousComponent,
    TrigPolynomial,
    canonicalize,
    euler_antiderivatives,
    monomial_symbol,
    sphere_average,
    xi_symbol,
    zero_component,
)
from ncresidue.dsl import random_symbol

from conftest import eval_component, random_point


def comp(n, degree, terms):
    return HomogeneousComponent(n, degree, terms)


def random_component(rng, n, degree, max_mode=2, max_alpha=3, nterms=2):
    terms = []
    for _ in range(nterms):
        mode = tuple(rng.randint(-max_mode, max_mode) for _ in range(n))
        total = rng.randint(0, max_alpha)
        alpha = [0] * n
        for _ in range(total):
            alpha[rng.randrange(n)] += 1
        coeff = ComplexRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        )
        terms.append((coeff, mode, tuple(alpha), degree - total))
    return comp(n, degree, terms)


# -- canonical form ------------------------------------------------------------


def test_canonicalize_sum_of_squares_identity():
    c = comp(2, 0, [(1, (0, 0), (2, 0), -2), (1, (0, 0), (0, 2), -2)])
    assert c == comp(2, 0, [(1, (0, 0), (0, 0), 0)])
    assert len(c.raw_terms()) == 1


def test_canonicalize_fixed_point_odd_class():
    c = comp(2, 0, [(1, (0, 0), (1, 0), -1)])
    assert c.raw_terms() == {((0, 0), (1, 0), -1): ComplexRational(1)}
    assert canonicalize(c) == c


def test_canonicalize_two_parity_classes():
    # (xi1^2+xi2^2)^2 |xi|^-6 + xi1 |xi|^-3  ->  |xi|^-2 + xi1 |xi|^-3:
    # the even class factors out the squared-norm polynomial twice, the odd
    # class is untouched
    q2 = [(1, (0, 0), (4, 0), -6), (2, (0, 0), (2, 2), -6), (1, (0, 0), (0, 4), -6)]
    c = comp(2, -2, q2 + [(1, (0, 0), (1, 0), -3)])
    expected = comp(2, -2, [(1, (0, 0), (0, 0), -2), (1, (0, 0), (1, 0), -3)])
    assert c == expected
    assert len(c.raw_terms()) == 2
    # the extraction preserves pointwise values
    rng = random.Random(11)
    flat = {
        ((0, 0), (4, 0), -6): ComplexRational(1),
        ((0, 0), (2, 2), -6): ComplexRational(2),
        ((0, 0), (0, 4), -6): ComplexRational(1),
        ((0, 0), (1, 0), -3): ComplexRational(1),
    }
    from conftest import eval_terms

    for _ in range(20):
        x, xi = random_point(rng, 2)
        assert abs(eval_component(c, x, xi) - eval_terms(flat, x, xi)) < 1e-9


def test_canonicalize_preserves_values_randomized():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice([2, 3])
        degree = rng.randint(-4, 3)
        c = random_component(rng, n, degree, nterms=3)
        again = canonicalize(c)
        assert again == c
        for _ in range(5):
            x, xi = random_point(rng, n)
            assert abs(eval_component(c, x, xi) - eval_component(again, x, xi)) < 1e-9


def test_component_degree_validation():
    with pytest.raises(ValidationError):
        comp(2, 0, [(1, (0, 0), (1, 0), -2)])
    with pytest.raises(ValidationError):
        comp(2, 1, [(1, (0, 0), (1, 0), 0), (1, (0, 0), (0, 0), 0)])


# -- algebra ---------------------------------------------------------------------


def test_component_add_inverse():
    a = comp(2, -1, [(1, (0, 0), (1, 0), -2)])
    assert (a + (-a)).is_zero()


def test_component_add_degree_mismatch():
    a = comp(2, 0, [(1, (0, 0), (0, 0), 0)])
    b = comp(2, 1, [(1, (0, 0), (1, 0), 0)])
    with pytest.raises(ValidationError):
        a + b


def test_component_mul_monomials():
    a = comp(2, 1, [(1, (0, 0), (1, 0), 0)])
    b = comp(2, -1, [(1, (0, 0), (1, 0), -2)])
    prod = a * b
    assert prod.degree == 0
    assert prod == comp(2, 0, [(1, (0, 0), (2, 0), -2)])


def test_component_mul_modes_add():
    a = comp(2, 0, [(1, (1, 0), (0, 0), 0)])
    b = comp(2, 1, [(1, (-1, 0), (0, 1), 0)])
    prod = a * b
    assert prod == comp(2, 1, [(1, (0, 0), (0, 1), 0)])
    rng = random.Random(3)
    for _ in range(10):
        x, xi = random_point(rng, 2)
        assert (
            abs(
                eval_component(prod, x, xi)
                - eval_component(a, x, xi) * eval_component(b, x, xi)
            )
            < 1e-9
        )


# -- derivatives -----------------------------------------------------------------


def test_partial_xi_examples():
    xi1 = comp(2, 1, [(1, (0, 0), (1, 0), 0)])
    assert xi1.partial_xi(1) == comp(2, 0, [(1, (0, 0), (0, 0), 0)])

    inv2 = comp(2, -2, [(1, (0, 0), (0, 0), -2)])
    assert inv2.partial_xi(1) == comp(2, -3, [(-2, (0, 0), (1, 0), -4)])

    c = comp(2, 0, [(1, (0, 0), (1, 0), -1)])
    assert c.partial_xi(2) == comp(2, -1, [(-1, (0, 0), (1, 1), -3)])


def test_partial_xi_finite_difference_oracle():
    rng = random.Random(31)
    h = 1e-6
    for _ in range(12):
        n = rng.choice([2, 3])
        degree = rng.randint(-3, 3)
        c = random_component(rng, n, degree)
        axis = rng.randint(1, n)
        d = c.partial_xi(axis)
        for _ in range(4):
            x, xi = random_point(rng, n)
            up = list(xi)
            dn = list(xi)
            up[axis - 1] += h
            dn[axis - 1] -= h
            fd = (eval_component(c, x, tuple(up)) - eval_component(c, x, tuple(dn))) / (
                2 * h
            )
            assert abs(eval_component(d, x, xi) - fd) < 1e-5


def test_deriv_x_examples():
    c = comp(2, -2, [(1, (1, 0), (0, 0), -2)])
    assert c.deriv_x(1) == c
    xi2 = comp(2, 1, [(1, (0, 0), (0, 1), 0)])
    assert xi2.deriv_x(1).is_zero()
    c = comp(2, 1, [(1, (1, -3), (1, 0), 0)])
    assert c.deriv_x(2) == comp(2, 1, [(-3, (1, -3), (1, 0), 0)])


def test_symbol_derivatives_check_the_direction_of_a_zero_symbol():
    zero = ClassicalSymbol(2, 0)
    for derivative in (zero.deriv_x, zero.partial_xi):
        assert derivative(2).is_zero()
        for direction in (0, 3):
            with pytest.raises(ValidationError):
                derivative(direction)


def test_derivatives_commute_exactly():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.choice([2, 3])
        c = random_component(rng, n, rng.randint(-3, 3))
        l1 = rng.randint(1, n)
        l2 = rng.randint(1, n)
        assert c.deriv_x(l2).partial_xi(l1) == c.partial_xi(l1).deriv_x(l2)


def test_euler_identity_exact():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.choice([2, 3])
        d = rng.randint(-5, 5)
        c = random_component(rng, n, d)
        total = zero_component(n, d)
        for axis in range(1, n + 1):
            alpha = tuple(1 if i == axis - 1 else 0 for i in range(n))
            xi_axis = comp(n, 1, [(1, (0,) * n, alpha, 0)])
            total = total + xi_axis * c.partial_xi(axis)
        assert total == c.scale(d)


# -- Euler antiderivatives --------------------------------------------------------


def test_euler_antiderivatives_examples():
    c = comp(2, 0, [(1, (0, 0), (2, 0), -2)])
    hs = euler_antiderivatives(c)
    assert hs[0] == comp(2, 1, [(Fraction(1, 2), (0, 0), (3, 0), -2)])
    assert hs[1] == comp(2, 1, [(Fraction(1, 2), (0, 0), (2, 1), -2)])
    recon = zero_component(2, 0)
    for axis, h in enumerate(hs, start=1):
        recon = recon + h.partial_xi(axis)
    assert recon == c

    one = comp(2, 0, [(1, (0, 0), (0, 0), 0)])
    hs = euler_antiderivatives(one)
    assert hs[0] == comp(2, 1, [(Fraction(1, 2), (0, 0), (1, 0), 0)])


def test_euler_antiderivatives_reconstruction_randomized():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.choice([2, 3])
        d = rng.choice([k for k in range(-5, 4) if k != -n])
        c = random_component(rng, n, d)
        hs = euler_antiderivatives(c)
        assert all(h.degree == d + 1 for h in hs)
        recon = zero_component(n, d)
        for axis, h in enumerate(hs, start=1):
            recon = recon + h.partial_xi(axis)
        assert recon == c


def test_euler_antiderivatives_critical_degree():
    c = comp(2, -2, [(1, (1, 0), (1, 1), -4)])
    with pytest.raises(CriticalDegreeError):
        euler_antiderivatives(c)
    c3 = comp(3, -3, [(1, (0, 0, 0), (0, 0, 0), -3)])
    with pytest.raises(CriticalDegreeError):
        euler_antiderivatives(c3)


# -- sphere averages ----------------------------------------------------------------


def test_sphere_average_examples():
    c = comp(2, -2, [(1, (0, 0), (0, 0), -2)])
    assert sphere_average(c) == TrigPolynomial(2, {(0, 0): 1})

    c = comp(2, -2, [(1, (0, 0), (2, 0), -4)])
    assert sphere_average(c) == TrigPolynomial(2, {(0, 0): Fraction(1, 2)})

    c = comp(2, -2, [(1, (1, 0), (1, 1), -4)])
    assert sphere_average(c).is_zero()


def test_sphere_average_degree_validation():
    with pytest.raises(ValidationError):
        sphere_average(comp(2, -1, [(1, (0, 0), (1, 0), -2)]))


def test_sphere_vanishing_of_xi_derivatives():
    # any xi-derivative of a degree-(1-n) component integrates to zero on the
    # sphere, at every Fourier mode
    rng = random.Random(61)
    for _ in range(30):
        n = rng.choice([2, 3])
        a = random_component(rng, n, -n + 1, nterms=3)
        axis = rng.randint(1, n)
        d = a.partial_xi(axis)
        if d.is_zero():
            continue
        avg = sphere_average(d)
        assert avg.is_zero()
        assert avg.hat((0,) * n) == ComplexRational(0)


# -- trig polynomials -----------------------------------------------------------------


def test_trig_polynomial_ops():
    r = TrigPolynomial(2, {(0, 0): Fraction(1, 2), (1, 0): ComplexRational(0, 1)})
    s = TrigPolynomial(2, {(1, 0): ComplexRational(0, -1)})
    assert (r + s).coeffs == {(0, 0): ComplexRational(Fraction(1, 2))}
    assert (r - r).is_zero()
    assert r.scale(2).hat((0, 0)) == 1
    assert r.hat((5, 5)) == 0
    assert TrigPolynomial(2, {(0, 0): Fraction(1, 2)}) == ComplexRational(Fraction(1, 2))


def test_trig_polynomial_sum_across_dimensions_is_a_validation_error():
    a, b = TrigPolynomial(2, {(0, 0): 1}), TrigPolynomial(3, {(0, 0, 0): 1})
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(ValidationError, match="dimension mismatch: 2 vs 3"):
            op(b)


def test_trig_polynomial_is_the_algebra_at_twist_zero():
    # a commutative convolution algebra: the product is the convolution, the
    # adjoint conjugates and reflects, the trace is the mode-zero coefficient
    a = TrigPolynomial(2, {(1, 0): 2, (0, -1): ComplexRational(0, 1)})
    b = TrigPolynomial(2, {(-1, 0): Fraction(1, 2), (0, 0): 3})
    assert a * b == b * a == TrigPolynomial(
        2, {(0, 0): 1, (1, 0): 6, (-1, -1): ComplexRational(0, Fraction(1, 2)),
            (0, -1): ComplexRational(0, 3)})
    assert a.adjoint() == TrigPolynomial(2, {(-1, 0): 2, (0, 1): ComplexRational(0, -1)})
    assert (a * a.adjoint()).trace() == 5
    assert 2 * a == a * 2 == a.scale(2)
    assert not TrigPolynomial(2) and TrigPolynomial(2).is_zero()
    assert hash(a) == hash(TrigPolynomial(2, dict(a.coeffs)))


# -- term entries: plain ints, or a one-line refusal ----------------------------------


def test_numpy_integer_entries_become_plain_ints():
    T._narrow_layout.cache_clear()  # so the engine meets these modes afresh
    i = np.int64
    c = HomogeneousComponent(2, 0, [(1, (i(1), i(-2)), (i(0), i(2)), i(-2))])
    assert c == HomogeneousComponent(2, 0, [(1, (1, -2), (0, 2), -2)])
    (term,) = c.terms()
    assert all(type(x) is int for x in term.mode + term.alpha + (term.npow,))
    sym = monomial_symbol(2, 1, mode=(i(1), i(0)), alpha=(i(1), i(0)), npow=i(-1))
    assert format_symbol(sym) == "dim 2 order 0 floor 0\ndeg 0 { e(1,0) * xi1 * r^-1 }"
    assert TrigPolynomial(2, {(i(1), i(0)): 1}).coeffs == {(1, 0): ComplexRational(1)}


def test_a_bool_mode_entry_does_not_change_later_modes():
    # (True, 0) == (1, 0) as a dict key: a fresh layout memo must not give the
    # caller's tuple back for every later (1, 0)
    T._narrow_layout.cache_clear()
    odd = HomogeneousComponent(2, 0, [(1, (True, 0), (0, 0), 0)])
    assert [t.mode for t in odd.terms()] == [(1, 0)]
    assert type(odd.terms()[0].mode[0]) is int
    sym = monomial_symbol(2, 1, mode=(1, 0))
    assert format_symbol(sym) == "dim 2 order 0 floor 0\ndeg 0 { e(1,0) }"
    assert symbol_to_json(sym)["blocks"][0]["terms"][0]["mode"] == [1, 0]


@pytest.mark.parametrize("mode, alpha", [((1.5, 0), (0, 0)), ((0, 0), (1.5, 0)),
                                          ((0, "1"), (0, 0)), (1, (0, 0)), ((0, 0), None)])
def test_a_non_integer_entry_is_a_validation_error(mode, alpha):
    with pytest.raises(ValidationError, match="must hold integers"):
        HomogeneousComponent(2, 0, [(1, mode, alpha, 0)])


def test_a_fractional_npow_is_a_validation_error():
    for npow in (0.5, 1.0, Fraction(1, 2)):
        with pytest.raises(ValidationError, match="not an integer"):
            HomogeneousComponent(2, 0, [(1, (0, 0), (0, 0), npow)])
        with pytest.raises(ValidationError, match="not an integer"):
            monomial_symbol(2, 1, npow=npow)


# -- classical symbols ------------------------------------------------------------------


def test_symbol_construction_validation():
    c = comp(2, 0, [(1, (0, 0), (0, 0), 0)])
    with pytest.raises(ValidationError):
        ClassicalSymbol(2, -1, {0: c}, -2)
    with pytest.raises(ValidationError):
        ClassicalSymbol(2, 1, {0: c}, 1)
    with pytest.raises(ValidationError):
        ClassicalSymbol(2, 0, {0: comp(3, 0, [(1, (0, 0, 0), (0, 0, 0), 0)])}, 0)


def test_symbol_component_access_and_floor():
    sym = random_symbol(3, dim=2, order=1, depth=2, max_mode=1, max_alpha=2)
    assert sym.trusted_floor == -1
    assert sym.component(1).degree == 1
    assert sym.component(5).is_zero()
    with pytest.raises(InsufficientExpansionError):
        sym.component(-2)


def test_symbol_addition_floors_and_linearity():
    a = random_symbol(5, dim=2, order=1, depth=3, max_mode=1, max_alpha=2)
    b = random_symbol(6, dim=2, order=0, depth=1, max_mode=1, max_alpha=2)
    s = a + b
    assert s.trusted_floor == max(a.trusted_floor, b.trusted_floor)
    assert s.order == max(a.order, b.order)
    for deg in s.components:
        assert s.component(deg) == a.component(deg) + b.component(deg)


def test_symbol_equality_ignores_declared_order():
    c = comp(2, -2, [(1, (0, 0), (0, 0), -2)])
    a = ClassicalSymbol(2, 0, {-2: c}, -2)
    b = ClassicalSymbol(2, -2, {-2: c}, -2)
    assert a == b
    assert a != ClassicalSymbol(2, 0, {-2: c}, -3)


def test_xi_symbol_is_complete():
    s = xi_symbol(2, 1)
    assert s.trusted_floor is None
    assert s.component(-100).is_zero()
