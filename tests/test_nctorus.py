import cmath
import random
from fractions import Fraction

import pytest

from ncresidue.calculus import compose, residue
from ncresidue.cyclotomic import CyclotomicScalar, cyclotomic_phase
from ncresidue.errors import DomainError, InsufficientExpansionError, ValidationError
from ncresidue.nctorus import (
    NCPolynomial,
    NCSymbol,
    Theta,
    _nc_residue_of_composition,
    nc_apply,
    nc_compose,
    nc_residue,
    nc_trace_defect,
    nc_u,
    nc_v,
    semiclassical_check,
    to_euclidean,
    _system_for,
)
from ncresidue.scalars import ComplexRational, PiGradedScalar
from ncresidue.dsl import random_symbol

THETAS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]


def rand_poly(rng, theta, max_mode=2, nmodes=3):
    coeffs = {}
    for _ in range(rng.randint(1, nmodes)):
        mode = (rng.randint(-max_mode, max_mode), rng.randint(-max_mode, max_mode))
        c = ComplexRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        )
        coeffs[mode] = CyclotomicScalar.from_complex_rational(c) + coeffs.get(
            mode, CyclotomicScalar.from_rational(0)
        )
    return NCPolynomial(theta, coeffs)


# -- Theta ------------------------------------------------------------------------


def test_theta_exactly_one_variant():
    with pytest.raises(ValidationError):
        Theta(None, None)
    with pytest.raises(ValidationError):
        Theta(Fraction(1, 2), 0.5)
    assert Theta.from_rational(Fraction(1, 2)).is_exact
    assert not Theta.from_float(0.5).is_exact
    assert Theta.from_rational(Fraction(1, 2)) != Theta.from_float(0.5)


# -- algebra relations --------------------------------------------------------------


def test_twisted_commutation_relation():
    for theta in THETAS:
        th = Theta.from_rational(theta)
        U, V = nc_u(th), nc_v(th)
        phase = cyclotomic_phase(theta.numerator, theta.denominator, 1)
        assert V * U == (U * V) * phase


def test_theta_zero_is_convolution():
    th = Theta.from_rational(0)
    a = NCPolynomial(th, {(1, 0): 2, (0, 1): ComplexRational(0, 1)})
    b = NCPolynomial(th, {(-1, 0): Fraction(1, 2)})
    prod = a * b
    assert prod == NCPolynomial(
        th, {(0, 0): 1, (-1, 1): ComplexRational(0, Fraction(1, 2))}
    )


def test_quarter_twist_square():
    th = Theta.from_rational(Fraction(1, 4))
    U, V = nc_u(th), nc_v(th)
    uv = U * V
    sq = uv * uv
    assert sq == NCPolynomial(th, {(2, 2): CyclotomicScalar.root_of_unity(4, 1)})


def test_theta_mismatch_rejected():
    a = NCPolynomial.one(Theta.from_rational(0))
    b = NCPolynomial.one(Theta.from_rational(Fraction(1, 2)))
    with pytest.raises(ValidationError):
        a * b
    with pytest.raises(ValidationError):
        a + b


@pytest.mark.parametrize("mode, message", [((1.5, 0), "must hold integers"),
                                           ((1, 0, 0), "has length != 2"),
                                           (1, "must hold integers")])
def test_a_malformed_mode_is_a_validation_error(mode, message):
    for theta in (Theta.from_rational(Fraction(2, 5)), Theta.from_float(0.4)):
        with pytest.raises(ValidationError, match=message):
            NCPolynomial(theta, {mode: 1})


@pytest.mark.parametrize("theta", [Theta.from_rational(Fraction(2, 5)), Theta.from_float(0.4)])
def test_a_non_number_scalar_is_a_type_error_at_both_twists(theta):
    u = NCPolynomial.monomial(theta, 1, 0)
    for value in ("2", "x", None, [1]):
        with pytest.raises(TypeError):
            u * value
        with pytest.raises(TypeError):
            value * u
    for sym in (NCSymbol(theta, 0, {0: [(1, (1, 0), (0, 0), 0)]}), NCSymbol(theta, 0)):
        with pytest.raises(TypeError):
            sym.scale("2")
    assert (u * 2).coefficient(1, 0) == 2
    assert (u * Fraction(1, 2)).coefficient(1, 0) == Fraction(1, 2)


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12), 0.4])
def test_a_symbol_coerces_each_coefficient_once(monkeypatch, theta):
    """``NCSymbol`` coerces each input term's coefficient once, in the blocks'
    order (a list block and a dict block with a repeated key), and builds the
    symbol it builds from coefficients coerced beforehand."""
    th = Theta.from_float(theta) if type(theta) is float else Theta.from_rational(theta)
    system = _system_for(th)
    terms = {0: [(1, (1, 0), (0, 0), 0), (Fraction(1, 2), (0, 1), (1, 0), -1),
                 (-3, (1, 0), (0, 0), 0)],
             -1: {((1, 1), (1, 0), -2): ComplexRational(2, -1), ((0, 0), (0, 1), -2): 3}}
    coerced = {0: [(system.coerce(c), *key) for c, *key in terms[0]],
               -1: {key: system.coerce(c) for key, c in terms[-1].items()}}
    want = NCSymbol(th, 0, coerced, -2)
    calls, coerce = [], system.coerce  # a float twist builds its system afresh

    def counting(*args):  # (self, value) or (value,)
        calls.append(args[-1])
        return coerce(args[-1])

    monkeypatch.setattr(type(system), "coerce", counting)
    sym = NCSymbol(th, 0, terms, -2)
    assert calls == [1, Fraction(1, 2), -3, ComplexRational(2, -1), 3]
    assert sym == want and repr(sym) == repr(want)
    assert len(sym.components[0]) == 2 and len(sym.components[-1]) == 2


def test_algebra_elements_stay_unhashable_and_keep_their_names():
    th = Theta.from_rational(Fraction(1, 4))
    a = NCPolynomial(th, {(True, 0): 2})
    assert list(a.coeffs) == [(1, 0)] and type(next(iter(a.coeffs))[0]) is int
    with pytest.raises(TypeError):
        hash(a)
    assert a.theta == th and a.coefficient(1, 0) == 2 and a.coefficient(0, 0) == 0
    assert 3 * a == a * 3 == NCPolynomial.monomial(th, 1, 0, 6)
    assert a.approximate().coefficient(1, 0) == 2 + 0j
    assert repr(NCPolynomial.zero(th)) == "<ncpoly theta=Theta(1/4): 0>"


def test_mul_associativity_randomized():
    rng = random.Random(11)
    for theta in THETAS:
        th = Theta.from_rational(theta)
        for _ in range(15):
            a, b, c = (rand_poly(rng, th) for _ in range(3))
            assert (a * b) * c == a * (b * c)


# -- adjoint ---------------------------------------------------------------------------


def test_adjoint_examples():
    for theta in THETAS:
        th = Theta.from_rational(theta)
        U, V = nc_u(th), nc_v(th)
        assert U.adjoint() == NCPolynomial.monomial(th, -1, 0)
        expected = NCPolynomial(
            th,
            {(-1, -1): cyclotomic_phase(theta.numerator, theta.denominator, 1)},
        )
        assert (U * V).adjoint() == expected


def test_adjoint_is_involution():
    rng = random.Random(13)
    for theta in THETAS:
        th = Theta.from_rational(theta)
        for _ in range(10):
            a = rand_poly(rng, th)
            assert a.adjoint().adjoint() == a


def test_adjoint_self_adjoint_at_theta_zero():
    th = Theta.from_rational(0)
    a = NCPolynomial(th, {(1, 1): Fraction(2, 3), (-1, -1): Fraction(2, 3), (0, 0): 5})
    assert a.adjoint() == a


# -- trace and derivations ----------------------------------------------------------------


def test_trace_examples():
    th = Theta.from_rational(Fraction(1, 3))
    assert NCPolynomial.one(th).trace() == 1
    assert (nc_u(th) * nc_v(th)).trace() == 0
    a = NCPolynomial(th, {(0, 0): 3, (1, 0): 2})
    assert a.trace() == 3


def test_trace_property_randomized():
    rng = random.Random(17)
    for theta in THETAS:
        th = Theta.from_rational(theta)
        for _ in range(15):
            a, b = rand_poly(rng, th), rand_poly(rng, th)
            assert (a * b).trace() == (b * a).trace()


def test_trace_positivity():
    rng = random.Random(19)
    for theta in THETAS:
        th = Theta.from_rational(theta)
        for _ in range(10):
            a = rand_poly(rng, th)
            got = (a.adjoint() * a).trace()
            want = CyclotomicScalar.from_rational(0)
            for s in a.coeffs.values():
                want = want + s.conjugate() * s
            assert got == want
            if not a.is_zero():
                assert not got.is_zero()
                value = got.to_complex()
                assert abs(value.imag) < 1e-12 and value.real > 0


def test_delta_examples():
    th = Theta.from_rational(Fraction(1, 4))
    U, V = nc_u(th), nc_v(th)
    assert U.delta(1) == U
    assert U.delta(2).is_zero()
    u3 = NCPolynomial.monomial(th, 3, 0)
    assert u3.delta(2).is_zero()
    w = NCPolynomial.monomial(th, 2, 5)
    assert w.delta(1) == w * 2
    with pytest.raises(ValidationError):
        U.delta(3)


def test_delta_is_a_derivation():
    rng = random.Random(23)
    for theta in THETAS:
        th = Theta.from_rational(theta)
        for _ in range(10):
            a, b = rand_poly(rng, th), rand_poly(rng, th)
            for j in (1, 2):
                assert (a * b).delta(j) == a.delta(j) * b + a * b.delta(j)


def test_delta_star_compatibility():
    rng = random.Random(29)
    for theta in THETAS:
        th = Theta.from_rational(theta)
        for _ in range(10):
            a = rand_poly(rng, th)
            for j in (1, 2):
                assert a.adjoint().delta(j) == -(a.delta(j).adjoint())


# -- symbols and composition -----------------------------------------------------------------


def test_nc_symbol_canonical_form():
    th = Theta.from_rational(Fraction(1, 3))
    sym = NCSymbol(
        th,
        0,
        {0: [(1, (1, 0), (2, 0), -2), (1, (1, 0), (0, 2), -2)]},
        0,
    )
    assert sym.components == {0: {((1, 0), (0, 0), 0): CyclotomicScalar.from_rational(1)}}


def test_nc_compose_scalar_coefficients_reduce_to_commutative():
    for theta in THETAS:
        th = Theta.from_rational(theta)
        a = NCSymbol(th, 1, {1: [(2, (0, 0), (1, 0), 0)]}, None)
        b = NCSymbol(th, -2, {-2: [(Fraction(1, 2), (0, 0), (0, 0), -2)]}, None)
        lam = nc_compose(a, b)
        assert lam.components == {
            -1: {((0, 0), (1, 0), -2): CyclotomicScalar.from_rational(1)}
        }


def test_nc_compose_one_step_example():
    th = Theta.from_rational(Fraction(1, 3))
    sigma = NCSymbol(th, 1, {1: [(1, (0, 0), (1, 0), 0)]}, None)
    tau = NCSymbol(th, -2, {-2: [(1, (1, 0), (0, 0), -2)]}, None)
    lam = nc_compose(sigma, tau)
    one = CyclotomicScalar.from_rational(1)
    assert lam.components == {
        -1: {((1, 0), (1, 0), -2): one},
        -2: {((1, 0), (0, 0), -2): one},
    }


def test_nc_symbol_blocks_group_algebra_coefficients():
    th = Theta.from_rational(Fraction(1, 4))
    sym = NCSymbol(
        th,
        -2,
        {-2: [(2, (0, 0), (0, 0), -2), (1, (1, 1), (0, 0), -2), (1, (0, 0), (2, 0), -4)]},
        -2,
    )
    # 2|xi|^-2 and xi1^2|xi|^-4 share the (0,0) word and merge into one
    # polynomial class (3 xi1^2 + 2 xi2^2)|xi|^-4; the U V word stays apart
    blocks = sym.blocks()
    assert blocks[-2] == [
        ((0, 0), -2, NCPolynomial(th, {(1, 1): 1})),
        ((0, 2), -4, NCPolynomial(th, {(0, 0): 2})),
        ((2, 0), -4, NCPolynomial(th, {(0, 0): 3})),
    ]


def test_nc_polynomial_accessors_and_approximation():
    th = Theta.from_rational(Fraction(1, 3))
    a = NCPolynomial(th, {(1, 0): Fraction(1, 2), (0, 1): ComplexRational(0, 1)})
    assert a.coefficient(1, 0) == Fraction(1, 2)
    assert a.coefficient(5, 5).is_zero()
    approx = a.approximate()
    assert not approx.theta.is_exact
    assert abs(approx.coefficient(0, 1) - 1j) < 1e-15


@pytest.mark.parametrize("exact", [Fraction(0), Fraction(3, 10)])
def test_float_backend_products_match_exact(exact):
    th = Theta.from_float(float(exact))
    twist = cmath.exp(2j * cmath.pi * float(exact))
    _assert_close(nc_v(th) * nc_u(th), nc_u(th) * nc_v(th) * twist)
    rng = random.Random(17)
    exact_th = Theta.from_rational(exact)
    for _ in range(20):
        a, b = rand_poly(rng, exact_th), rand_poly(rng, exact_th)
        _assert_close(a.approximate() * b.approximate(), (a * b).approximate())


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_float_residue_of_composition_matches_compose_then_residue(theta):
    # the residue sums its products in another order than compose, so the
    # floating values agree to rounding, not bit for bit
    th = Theta.from_float(theta)
    rng = random.Random(29)
    nonzero = 0
    for _ in range(12):
        a = random_symbol(rng.getrandbits(32), dim=2, order=0, depth=2, max_mode=2,
                          max_alpha=2, theta=th)
        reflected = {deg: [(s, (-m[0], -m[1]), alpha, p) for (m, alpha, p), s in bag.items()]
                     for deg, bag in a._term_bags().items()}
        b = NCSymbol(th, 0, reflected, -2)
        for s, t in ((a, b), (b, a)):
            new = _nc_residue_of_composition(s, t).to_complex()
            old = nc_residue(nc_compose(s, t)).to_complex()
            assert cmath.isclose(new, old, rel_tol=1e-12, abs_tol=1e-12)
            nonzero += abs(old) > 1e-9
    assert nonzero >= 12


def _assert_close(p, q):
    assert p.theta == q.theta and not p.theta.is_exact
    for mode in set(p.coeffs) | set(q.coeffs):
        assert abs(p.coefficient(*mode) - q.coefficient(*mode)) < 1e-12


def test_nc_compose_refuses_complete_pair_that_does_not_terminate():
    th = Theta.from_rational(Fraction(2, 5))
    not_polynomial = NCSymbol(th, -1, {-1: [(1, (0, 0), (0, 0), -1)]}, None)
    depends_on_u = NCSymbol(th, 0, {0: [(1, (1, 0), (0, 0), 0)]}, None)
    with pytest.raises(ValidationError, match="does not terminate"):
        nc_compose(not_polynomial, depends_on_u)


def test_nc_compose_theta_mismatch():
    a = NCSymbol(Theta.from_rational(0), 0, {0: [(1, (0, 0), (0, 0), 0)]}, 0)
    b = NCSymbol(Theta.from_rational(Fraction(1, 2)), 0, {0: [(1, (0, 0), (0, 0), 0)]}, 0)
    with pytest.raises(ValidationError):
        nc_compose(a, b)


# -- residue -----------------------------------------------------------------------------------


def test_nc_residue_examples():
    th = Theta.from_rational(Fraction(1, 3))
    s = NCSymbol(th, -2, {-2: [(1, (0, 0), (0, 0), -2)]}, -2)
    assert nc_residue(s) == PiGradedScalar(2, 1)

    s = NCSymbol(th, -2, {-2: [(1, (1, 1), (0, 0), -2)]}, -2)
    assert nc_residue(s).is_zero()

    s = NCSymbol(
        th, -2, {-2: [(2, (0, 0), (2, 0), -4), (1, (1, 0), (2, 0), -4)]}, -2
    )
    assert nc_residue(s) == PiGradedScalar(2, 1)


def test_nc_residue_insufficient_expansion():
    th = Theta.from_rational(0)
    s = NCSymbol(th, 0, {0: [(1, (0, 0), (0, 0), 0)]}, 0)
    with pytest.raises(InsufficientExpansionError):
        nc_residue(s)


def test_nc_trace_defect_randomized():
    rng = random.Random(31)
    for theta in THETAS:
        for _ in range(10):
            m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
            s1 = random_symbol(rng.getrandbits(32), dim=2, order=m1,
                               depth=m1 + 2 + m2, max_mode=2, max_alpha=2, theta=theta)
            s2 = random_symbol(rng.getrandbits(32), dim=2, order=m2,
                               depth=m2 + 2 + m1, max_mode=2, max_alpha=2, theta=theta)
            assert nc_trace_defect(s1, s2).is_zero()


# -- operator application -----------------------------------------------------------------------


def test_nc_apply_examples():
    th = Theta.from_rational(Fraction(1, 4))
    s = NCSymbol(th, -2, {-2: [(1, (0, 0), (0, 0), -2)]}, -2)
    a = nc_u(th) * nc_v(th)
    out = nc_apply(s, a)
    (mode, value), = out.coeffs.items()
    assert mode == (1, 1)
    assert abs(value - 0.5) < 1e-12

    assert nc_apply(s, NCPolynomial.one(th)).is_zero()

    s = NCSymbol(th, 1, {1: [(1, (0, 0), (1, 0), 0)]}, None)
    out = nc_apply(s, nc_u(th))
    (mode, value), = out.coeffs.items()
    assert mode == (1, 0)
    assert abs(value - 1.0) < 1e-12


def test_nc_apply_theta_mismatch():
    s = NCSymbol(Theta.from_rational(0), -2, {-2: [(1, (0, 0), (0, 0), -2)]}, -2)
    a = NCPolynomial.one(Theta.from_rational(Fraction(1, 2)))
    with pytest.raises(ValidationError):
        nc_apply(s, a)


# -- the theta = 0 bridge -----------------------------------------------------------------------


def test_to_euclidean_mode_mapping():
    th = Theta.from_rational(0)
    s = NCSymbol(
        th,
        -2,
        {-2: [(1, (0, 0), (0, 0), -2), (1, (1, 0), (0, 0), -2), (1, (-1, 0), (0, 0), -2)]},
        -2,
    )
    e = to_euclidean(s)
    assert set(e.component(-2).raw_terms()) == {
        ((0, 0), (0, 0), -2),
        ((1, 0), (0, 0), -2),
        ((-1, 0), (0, 0), -2),
    }

    s = NCSymbol(th, 1, {1: [(1, (0, 1), (1, 0), 0)]}, None)
    e = to_euclidean(s)
    assert e.component(1).raw_terms() == {((0, 1), (1, 0), 0): ComplexRational(1)}

    z = NCSymbol(th, 0, {}, 0)
    assert to_euclidean(z).is_zero()


def test_to_euclidean_requires_exact_zero():
    s = NCSymbol(Theta.from_rational(Fraction(1, 4)), 0, {0: [(1, (0, 0), (0, 0), 0)]}, 0)
    with pytest.raises(DomainError):
        to_euclidean(s)
    s = NCSymbol(Theta.from_float(0.0), 0, {0: [(1, (0, 0), (0, 0), 0)]}, 0)
    with pytest.raises(DomainError):
        to_euclidean(s)


def test_to_euclidean_intertwines_composition():
    rng = random.Random(37)
    for _ in range(10):
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        s1 = random_symbol(rng.getrandbits(32), dim=2, order=m1, depth=m1 + 2 + m2,
                           max_mode=2, max_alpha=2, theta=Fraction(0))
        s2 = random_symbol(rng.getrandbits(32), dim=2, order=m2, depth=m2 + 2 + m1,
                           max_mode=2, max_alpha=2, theta=Fraction(0))
        assert to_euclidean(nc_compose(s1, s2)) == compose(to_euclidean(s1), to_euclidean(s2))


def test_semiclassical_worked_example():
    th = Theta.from_rational(0)
    s = NCSymbol(th, -2, {-2: [(1, (0, 0), (0, 0), -2)]}, -2)
    report = semiclassical_check(s)
    assert report.lhs == PiGradedScalar(8, 3)
    assert report.rhs == PiGradedScalar(8, 3)
    assert report.equal

    s = NCSymbol(th, -2, {-2: [(1, (1, 0), (0, 0), -2)]}, -2)
    report = semiclassical_check(s)
    assert report.lhs.is_zero() and report.rhs.is_zero() and report.equal


def test_semiclassical_randomized():
    rng = random.Random(41)
    for _ in range(15):
        order = rng.randint(-2, 0)
        s = random_symbol(rng.getrandbits(32), dim=2, order=order,
                          depth=order + 2 + rng.randint(0, 1),
                          max_mode=2, max_alpha=2, theta=Fraction(0))
        report = semiclassical_check(s)
        assert report.equal
        assert report.lhs == residue(to_euclidean(s))


# -- symbol arithmetic --------------------------------------------------------------------------


def _nc_pairs(seed, theta, count, max_mode=2):
    rng = random.Random(seed)
    for _ in range(count):
        orders = (rng.randint(-1, 1), rng.randint(-1, 1))
        yield tuple(
            random_symbol(rng.getrandbits(32), dim=2, order=m, depth=m + 2 + rng.randint(0, 1),
                          max_mode=max_mode, max_alpha=2, theta=theta)
            for m in orders
        )


def test_nc_symbol_arithmetic_matches_euclidean_at_theta_zero():
    c = ComplexRational(Fraction(-2, 3), Fraction(1, 2))
    for a, b in _nc_pairs(43, Fraction(0), 12):
        ea, eb = to_euclidean(a), to_euclidean(b)
        total = a + b
        assert total.trusted_floor == max(a.trusted_floor, b.trusted_floor)
        assert total.order == max(a.order, b.order)
        assert to_euclidean(total) == ea + eb
        assert to_euclidean(a - b) == ea - eb
        assert to_euclidean(-a) == -ea
        assert to_euclidean(a.scale(c)) == ea.scale(c)
        assert (a - a).is_zero()
        for j in (1, 2):
            assert to_euclidean(a.partial_xi(j)) == ea.partial_xi(j)
            assert to_euclidean(a.deriv_x(j)) == ea.deriv_x(j)
        assert a.partial_xi(1).trusted_floor == a.trusted_floor - 1


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12)])
def test_nc_residue_is_linear(theta):
    c = cyclotomic_phase(theta.numerator, theta.denominator, 1) * CyclotomicScalar.from_complex_rational(
        ComplexRational(Fraction(3, 2), -1)
    )
    nonzero = 0
    for a, b in _nc_pairs(47, theta, 12, max_mode=0):
        ra = nc_residue(a)
        assert nc_residue(a + b) == ra + nc_residue(b)
        assert nc_residue(a - b) == ra - nc_residue(b)
        assert nc_residue(a.scale(c)) == PiGradedScalar(c * ra.coeff, ra.pi_exponent)
        nonzero += not ra.is_zero()
    assert nonzero >= 4


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12)])
def test_nc_symbol_deriv_x_is_delta_on_block_coefficients(theta):
    def coefficients(sym):
        return {(deg, alpha, p): poly
                for deg, blocks in sym.blocks().items() for alpha, p, poly in blocks}

    for a, _b in _nc_pairs(53, theta, 8):
        for j in (1, 2):
            want = {key: poly.delta(j) for key, poly in coefficients(a).items()}
            assert coefficients(a.deriv_x(j)) == {k: p for k, p in want.items() if p}


def test_nc_symbol_arithmetic_refuses_mixed_operands():
    a = NCSymbol(Theta.from_rational(Fraction(2, 5)), 0, {0: [(1, (1, 0), (0, 0), 0)]}, 0)
    b = NCSymbol(Theta.from_rational(Fraction(1, 3)), 0, {0: [(1, (1, 0), (0, 0), 0)]}, 0)
    with pytest.raises(ValidationError):
        a + b
    with pytest.raises(ValidationError):
        a - b
    e = to_euclidean(NCSymbol(Theta.from_rational(0), 0, {0: [(1, (1, 0), (0, 0), 0)]}, 0))
    for left, right in ((a, e), (e, a)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    with pytest.raises(ValidationError):
        a.deriv_x(3)
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12)])
def test_float_twist_compose_matches_the_exact_composition(theta):
    """``nc_compose`` at the float twist float(theta) against the exact composition
    at theta, coefficient by coefficient, to 1e-12 of the largest coefficient.

    The float path runs the same integer weights w * (K!/gamma!) on floats and
    divides by K! once; the first pair's floor reaches derivative order K = 8.
    A key on one side only (a rounding residue the float canonical form keeps)
    must be as small.
    """
    rng = random.Random(11)
    for i in range(6):
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        depth = 8 if i == 0 else m1 + 2 + m2
        seeds = [rng.getrandbits(32) for _ in range(2)]
        exact, approx = (
            nc_compose(*(random_symbol(seed, dim=2, order=m, depth=depth, max_mode=2,
                                       max_alpha=2, theta=th)
                         for seed, m in zip(seeds, (m1, m2))))
            for th in (Theta.from_rational(theta), Theta.from_float(float(theta))))
        want = {(d, key): s.to_complex()
                for d, bag in exact._term_bags().items() for key, s in bag.items()}
        got = {(d, key): s for d, bag in approx._term_bags().items() for key, s in bag.items()}
        if i == 0:
            assert m1 + m2 - exact.trusted_floor == 8
            assert exact._term_bags().get(exact.trusted_floor) and len(want) > 500
        top = max(map(abs, want.values()), default=1.0)
        for key in want.keys() | got.keys():
            assert abs(want.get(key, 0) - got.get(key, 0)) <= 1e-12 * top, key
