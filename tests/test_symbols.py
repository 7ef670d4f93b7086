import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ncresidue import terms as T
from ncresidue.calculus import commutator_exp, commutator_xi
from ncresidue.dsl import format_symbol, symbol_from_json, symbol_to_json
from ncresidue.errors import (
    CriticalDegreeError,
    InsufficientExpansionError,
    ValidationError,
)
from ncresidue.nctorus import NCPolynomial, NCSymbol, Theta
from ncresidue.scalars import ComplexRational
from ncresidue.symbols import (
    ClassicalSymbol,
    HomogeneousComponent,
    TrigPolynomial,
    canonicalize,
    euler_antiderivatives,
    monomial_symbol,
    one_symbol,
    sphere_average,
    xi_symbol,
    zero_component,
    _Symbol,
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


def test_a_component_is_immutable():
    c = comp(2, 0, [(1, (1, 0), (0, 0), 0)])
    for name in ("n", "degree", "_terms", "order", "extra"):
        with pytest.raises(AttributeError, match="^HomogeneousComponent is immutable$"):
            setattr(c, name, 1)


def test_a_zero_component_keeps_its_degree_through_the_calculus():
    zero = zero_component(3, 2)
    nonzero = comp(3, 2, [(1, (1, 0, 0), (0, 0, 0), 2)])
    for same in (zero.scale(0), -zero, zero.deriv_x(1), nonzero.scale(0)):
        assert same.is_zero() and same.degree == 2
    assert zero.partial_xi(1).degree == 1


def test_zero_components_of_different_degrees_are_equal():
    a, b = zero_component(2, 1), comp(2, -3, [])
    assert a == b and hash(a) == hash(b)
    assert a != comp(2, 1, [(1, (0, 0), (1, 0), 0)])


@pytest.mark.parametrize("make, message", [
    (lambda: HomogeneousComponent(1, 0), "dimension must be at least 2, got 1"),
    (lambda: HomogeneousComponent(1, 1.5), "degree 1.5 is not an integer"),
    (lambda: HomogeneousComponent(1.5, 0), "dimension 1.5 is not an integer"),
    (lambda: ClassicalSymbol(1, 0), "dimension must be at least 2, got 1"),
    # a list in place of the dict of coefficients or components
    (lambda: TrigPolynomial(2, [((1, 0), 1)]), r"coefficients \[\(\(1, 0\), 1\)\] must be a dict"),
    (lambda: ClassicalSymbol(2, 0, [5]), r"components \[5\] must be a dict")])
def test_a_bad_header_is_refused_with_its_message(make, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make()


def test_a_numpy_dimension_or_degree_comes_back_as_int():
    for c in (HomogeneousComponent(np.int64(2), 1), HomogeneousComponent(2, np.int64(1))):
        assert type(c.n) is int and type(c.degree) is int
        assert c == zero_component(2, 1)


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


def _direction_calls(direction):
    sigma = ClassicalSymbol(2, 1, {1: comp(2, 1, [(1, (1, 0), (1, 0), 0)])}, -1)
    return [lambda: commutator_exp(sigma, direction, 2), lambda: xi_symbol(2, direction),
            lambda: commutator_xi(sigma, direction), lambda: sigma.partial_xi(direction),
            lambda: sigma.deriv_x(direction),
            lambda: sigma.component(1).partial_xi(direction),
            lambda: sigma.component(1).deriv_x(direction)]


@pytest.mark.parametrize("direction", [1.5, "1"])
def test_a_non_integer_direction_is_a_validation_error(direction):
    for call in _direction_calls(direction):
        with pytest.raises(ValidationError, match=f"direction {direction!r} is not an integer"):
            call()


@pytest.mark.parametrize("direction", [np.int64(1), True])
def test_an_integer_like_direction_acts_as_its_int(direction):
    for call, want in zip(_direction_calls(direction), _direction_calls(1)):
        assert call() == want()


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


def test_trig_polynomial_refuses_a_dimension_below_one_or_not_an_integer():
    """A dimension below 1, or one that is not an integer, is refused when the
    sum is built, so no later sum or product reaches the term engine with
    it; the circle, n = 1, constructs, adds and multiplies."""
    for n, coeffs, message in ((0, {(): 1}, "at least 1, got 0"), (-2, {}, "at least 1, got -2"),
                               (2.0, {(0, 0): 1}, "2.0 is not an integer"),
                               ("2", {}, "'2' is not an integer")):
        with pytest.raises(ValidationError, match=message):
            TrigPolynomial(n, coeffs)
    a = TrigPolynomial(1, {(1,): 2, (0,): Fraction(1, 2)})
    b = TrigPolynomial(1, {(-1,): ComplexRational(0, 1)})
    assert a.n == 1 and a.hat((1,)) == 2
    assert a + b == TrigPolynomial(
        1, {(1,): 2, (0,): Fraction(1, 2), (-1,): ComplexRational(0, 1)})
    assert (a - a).is_zero()
    assert a * b == TrigPolynomial(1, {(0,): ComplexRational(0, 2),
                                       (-1,): ComplexRational(0, Fraction(1, 2))})


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


def test_a_fourier_sum_is_an_order_0_symbol():
    for poly in (TrigPolynomial(2), NCPolynomial(Theta.from_float(0.4))):
        assert isinstance(poly, _Symbol) and (poly.order, poly.trusted_floor) == (0, None)


def test_a_fourier_sum_keeps_its_own_float_steps_and_messages():
    """The symbol core's float steps and messages, which a Fourier sum and
    every other symbol class share: unary minus keeps the sign of a float's
    zero part (``scale(-1)`` flips it), ``scale`` drops a product that
    rounds to zero, so the result equals the symbol built without that
    term, and a mismatch names both spaces."""
    th = Theta.from_float(0.4)
    (neg,) = (-NCPolynomial(th, {(0, 1): 2})).coeffs.values()
    assert neg == -2 and math.copysign(1, neg.imag) == -1
    assert NCPolynomial(th, {(1, 0): 1e-300}).scale(1e-300).is_zero()
    for theta in (Theta.from_float(0.3), th):
        (neg,) = (-NCSymbol(theta, 0, {0: {((0, 1), (0, 0), 0): 2}})).components[0].values()
        assert neg == -2 and math.copysign(1, neg.imag) == -1
        tiny = NCSymbol(theta, 0, {0: {((1, 0), (0, 0), 0): 1e-200,
                                       ((0, 1), (0, 0), 0): 1.0}}, 0)
        assert tiny.scale(1e-200) == NCSymbol(theta, 0, {0: {((0, 1), (0, 0), 0): 1e-200}}, 0)
        assert NCSymbol(theta, 0, {0: {((1, 0), (0, 0), 0): 1e-300}}).scale(1e-300).is_zero()
        # the terms left are 1e-200 (xi_1^2 + xi_2^2) |xi|^-2, which is 1e-200
        square = NCSymbol(theta, 0, {0: {((0, 0), (2, 0), -2): 1.0, ((0, 0), (0, 2), -2): 1.0,
                                         ((0, 0), (1, 1), -2): 1e-200}})
        assert square.scale(1e-200) == NCSymbol(theta, 0, {0: [(1e-200, (0, 0), (0, 0), 0)]})
    a = NCPolynomial(Theta.from_rational(Fraction(2, 5)), {(1, 0): 1})
    b = NCPolynomial(Theta.from_rational(Fraction(1, 3)), {(1, 0): 1})
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(ValidationError,
                           match=re.escape("twist mismatch: Theta(2/5) vs Theta(1/3)")):
            op(b)
    a, b = (NCSymbol(x.theta, 0, {0: {((1, 0), (0, 0), 0): 1}}) for x in (a, b))
    for op in (a.__add__, a.__sub__):
        with pytest.raises(ValidationError,
                           match=re.escape("twist mismatch: Theta(2/5) vs Theta(1/3)")):
            op(b)
    a, b = one_symbol(2), one_symbol(3)
    for x, y in ((a, b), (b, a)):
        for op in (x.__add__, x.__sub__):
            with pytest.raises(ValidationError,
                               match=f"^dimension mismatch: {x.n} vs {y.n}$"):
                op(y)
    a, b = (s.component(0) for s in (a, b))
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(ValidationError, match="^dimension mismatch: 2 vs 3$"):
            op(b)


def test_equal_symbols_hash_equal_and_twisted_ones_stay_unhashable():
    t = TrigPolynomial(2, {(1, 0): 2, (0, -1): Fraction(1, 3)})
    assert hash(t) == hash(TrigPolynomial(2, {(0, -1): Fraction(1, 3), (1, 0): 2}))
    # xi_1^2 + xi_2^2 and |xi|^2: one function, one canonical form
    c = comp(2, 2, [(1, (1, 0), (2, 0), 0), (1, (1, 0), (0, 2), 0)])
    d = comp(2, 2, [(1, (1, 0), (0, 0), 2)])
    assert c == d and hash(c) == hash(d)
    assert zero_component(2, 3) == zero_component(2, -1)
    assert hash(zero_component(2, 3)) == hash(zero_component(2, -1))
    # equality and the hash ignore the declared order
    s, u = (ClassicalSymbol(2, order, {2: x}, 0) for order, x in ((2, c), (5, d)))
    assert s == u and hash(s) == hash(u)
    th = Theta.from_rational(Fraction(2, 5))
    for x in (NCPolynomial(th, {(1, 0): 1}), NCSymbol(th, 0, {0: {((1, 0), (0, 0), 0): 1}})):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)


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


def test_numpy_header_integers_become_plain_ints_and_json_dumps():
    i = np.int64
    comp = HomogeneousComponent(i(2), i(-1), [(1, (i(1), i(0)), (i(1), i(0)), i(-2))])
    assert type(comp.n) is int and type(comp.degree) is int
    sym = ClassicalSymbol(i(2), i(0), {i(-1): comp, i(0): HomogeneousComponent(2, 0)}, i(-2))
    assert all(type(x) is int for x in (sym.n, sym.order, sym.trusted_floor, *sym.degrees()))
    assert sym == ClassicalSymbol(2, 0, {-1: comp}, -2)
    text = json.dumps(symbol_to_json(sym))
    assert symbol_from_json(json.loads(text)) == sym
    theta = Theta.from_rational(Fraction(2, 5))
    nc = NCSymbol(theta, i(0), {i(-1): [(1, (i(1), i(0)), (i(1), i(0)), i(-2))]}, i(-1))
    assert symbol_from_json(json.loads(json.dumps(symbol_to_json(nc)))) == nc


@pytest.mark.parametrize("make", [
    lambda: ClassicalSymbol(2.0, 0), lambda: ClassicalSymbol(2, 0.5),
    lambda: ClassicalSymbol(2, 0, None, -1.0), lambda: HomogeneousComponent(2, 0.0),
    lambda: HomogeneousComponent(2.0, 0),
    lambda: ClassicalSymbol(2, 0, {0.0: HomogeneousComponent(2, 0)}),
    lambda: NCSymbol(Theta.from_rational(Fraction(2, 5)), 0, {-1.0: []}),
    lambda: NCSymbol(Theta.from_float(0.4), 0, None, Fraction(-1, 2))])
def test_a_float_header_integer_is_a_validation_error(make):
    with pytest.raises(ValidationError, match="is not an integer"):
        make()


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


# (mode, alpha, npow, degree) of one term, and the refusal of both public constructors
MALFORMED_TERMS = [
    ((1.5, 0), (0, 0), 0, 0, "Fourier mode (1.5, 0) must hold integers"),
    (("1", 0), (0, 0), 0, 0, "Fourier mode ('1', 0) must hold integers"),
    (1, (0, 0), 0, 0, "Fourier mode 1 must hold integers"),
    ((0, 0), (0.0, 1), -1, 0, "xi multi-index (0.0, 1) must hold integers"),
    ((0, 0), (0, "1"), -1, 0, "xi multi-index (0, '1') must hold integers"),
    ((1, 0, 0), (0, 0), 0, 0, "Fourier mode (1, 0, 0) has length != 2"),
    ((1,), (0, 0), 0, 0, "Fourier mode (1,) has length != 2"),
    ((0, 0), (1, 0, 0), -1, 0, "xi multi-index (1, 0, 0) has length != 2"),
    ((0, 0), (-1, 1), 0, 0, "xi exponents must be nonnegative: (-1, 1)"),
    ((0, 0), (0, 0), 0.5, 0, "|xi| power 0.5 is not an integer"),
    ((0, 0), (0, 0), "0", 0, "|xi| power '0' is not an integer"),
    ((0, 0), (0, 0), 0, 0.5, "degree 0.5 is not an integer"),
    ((0, 0), (0, 0), 0, Fraction(0), "degree Fraction(0, 1) is not an integer"),
    ((0, 0), (1, 0), 0, 0, "term xi^(1, 0) |xi|^0 is homogeneous of degree 1, not 0"),
]


@pytest.mark.parametrize("mode, alpha, npow, degree, message", MALFORMED_TERMS)
def test_the_public_constructors_refuse_a_malformed_term(mode, alpha, npow, degree, message):
    term = [(1, mode, alpha, npow)]
    makers = [lambda: HomogeneousComponent(2, degree, term)]
    for theta in (Theta.from_rational(Fraction(2, 5)), Theta.from_float(0.4)):
        makers.append(lambda theta=theta: NCSymbol(theta, 1, {degree: term}))
        makers.append(lambda theta=theta: NCSymbol(theta, 1, {degree: {(mode, alpha, npow): 1}}))
    for make in makers:
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == message


# terms that are not (coeff, mode, alpha, npow) items, and the refusal of both public constructors
MALFORMED_TERM_SHAPES = [
    ([(1, (0, 0))], "term (1, (0, 0)) is not a (coeff, mode, alpha, npow) tuple"),
    ([(1, (0, 0), (0, 0), 0, 0)],
     "term (1, (0, 0), (0, 0), 0, 0) is not a (coeff, mode, alpha, npow) tuple"),
    ([5], "term 5 is not a (coeff, mode, alpha, npow) tuple"),
    (5, "terms 5 are not iterable"),
]


@pytest.mark.parametrize("terms, message", MALFORMED_TERM_SHAPES)
def test_the_public_constructors_refuse_a_term_of_the_wrong_shape(terms, message):
    makers = [lambda: HomogeneousComponent(2, 0, terms)]
    for theta in (Theta.from_rational(Fraction(2, 5)), Theta.from_float(0.4)):
        makers.append(lambda theta=theta: NCSymbol(theta, 1, {0: terms}))
    for make in makers:
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("theta", [Theta.from_rational(Fraction(2, 5)), Theta.from_float(0.4)])
def test_the_twisted_constructor_makes_entries_plain_ints(theta):
    i = np.int64
    sym = NCSymbol(theta, i(0), {i(-1): [(1, (True, i(-2)), (i(1), False), i(-2))],
                                 False: {((i(1), True), (0, 0), 0): 2}}, i(-1))
    assert sym == NCSymbol(theta, 0, {-1: [(1, (1, -2), (1, 0), -2)],
                                      0: [(2, (1, 1), (0, 0), 0)]}, -1)
    assert all(type(d) is int for d in sym.degrees())
    for bag in sym.components.values():
        for mode, alpha, npow in bag:
            assert all(type(x) is int for x in mode + alpha + (npow,))
    for bad in ("1", None, [1]):  # a coefficient no system holds
        with pytest.raises(TypeError):
            NCSymbol(theta, 0, {0: [(bad, (0, 0), (0, 0), 0)]})
    if theta.is_exact:
        with pytest.raises(TypeError, match="exact backend cannot hold a float coefficient"):
            NCSymbol(theta, 0, {0: [(0.5, (0, 0), (0, 0), 0)]})


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
