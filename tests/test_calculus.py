import dataclasses
import random
import re
from fractions import Fraction

import pytest
import sympy as sp

from ncresidue import terms as T
from ncresidue.calculus import (
    DecompositionCertificate,
    _compose_impl,
    _residue_of_composition,
    commutator_exp,
    commutator_xi,
    compose,
    residue,
    trace_defect,
    uniqueness_decompose,
)
from ncresidue.errors import InsufficientExpansionError, ValidationError
from ncresidue.nctorus import (
    NCSymbol,
    SemiclassicalReport,
    Theta,
    _nc_residue_of_composition,
    semiclassical_check,
)
from ncresidue.scalars import ComplexRational, PiGradedScalar
from ncresidue.symbols import (
    ClassicalSymbol,
    HomogeneousComponent,
    TrigPolynomial,
    monomial_symbol,
    one_symbol,
    sphere_average,
    exp_symbol,
    xi_symbol,
    zero_component,
)
from ncresidue.dsl import random_symbol

from conftest import compositions, eval_component, gamma_factorial, random_point


def comp(n, degree, terms):
    return HomogeneousComponent(n, degree, terms)


# -- independent brute-force oracle for the composition expansion ---------------


def _component_to_sympy(component, xs, xis):
    r2 = sum(v**2 for v in xis)
    expr = sp.Integer(0)
    for (mode, alpha, p), c in component.raw_terms().items():
        term = sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
            c.im.numerator, c.im.denominator
        )
        term *= sp.exp(sp.I * sum(k * v for k, v in zip(mode, xs)))
        for a, v in zip(alpha, xis):
            term *= v**a
        term *= r2 ** sp.Rational(p, 2)
        expr += term
    return expr


def brute_compose_degree(sigma, tau, target, n):
    """sum over (a, b, gamma) with a + b - |gamma| = target, via sympy calculus."""
    xs = sp.symbols(f"x1:{n + 1}", real=True)
    xis = sp.symbols(f"v1:{n + 1}", real=True, positive=True)
    total = sp.Integer(0)
    for a_deg, ca in sigma.components.items():
        ea_base = _component_to_sympy(ca, xs, xis)
        for b_deg, cb in tau.components.items():
            k = a_deg + b_deg - target
            if k < 0:
                continue
            eb_base = _component_to_sympy(cb, xs, xis)
            for gamma in compositions(n, k):
                ea = ea_base
                for axis, g in enumerate(gamma):
                    if g:
                        ea = sp.diff(ea, xis[axis], g)
                eb = eb_base
                for axis, g in enumerate(gamma):
                    if g:
                        eb = sp.diff(eb, xs[axis], g)
                eb = (-sp.I) ** k * eb
                total += ea * eb / gamma_factorial(gamma)
    return total, xs, xis


def assert_component_matches_sympy(component, expr, xs, xis, rng, points=4):
    n = len(xs)
    for _ in range(points):
        x, xi = random_point(rng, n)
        subs = dict(zip(xs, x)) | dict(zip(xis, xi))
        want = complex(expr.subs(subs).evalf())
        got = eval_component(component, x, xi)
        assert abs(want - got) < 1e-8


# -- compose -----------------------------------------------------------------------


def test_compose_basic_example():
    sigma = xi_symbol(2, 1)
    tau = monomial_symbol(2, 1, mode=(1, 0), npow=-2)
    lam = compose(sigma, tau)
    assert lam.trusted_floor is None
    assert lam.components == {
        -1: comp(2, -1, [(1, (1, 0), (1, 0), -2)]),
        -2: comp(2, -2, [(1, (1, 0), (0, 0), -2)]),
    }
    rng = random.Random(71)
    for target in (-1, -2):
        expr, xs, xis = brute_compose_degree(sigma, tau, target, 2)
        assert_component_matches_sympy(lam.component(target), expr, xs, xis, rng)


def test_compose_x_independent_right_factor_is_pointwise_product():
    rng = random.Random(73)
    sigma = random_symbol(101, dim=2, order=1, depth=2, max_mode=2, max_alpha=2)
    # strip x-dependence from tau
    tau_src = random_symbol(102, dim=2, order=0, depth=2, max_mode=0, max_alpha=2)
    lam = compose(sigma, tau_src)
    for deg, c in lam.components.items():
        expected = zero_component(2, deg)
        for a, ca in sigma.components.items():
            for b, cb in tau_src.components.items():
                if a + b == deg:
                    expected = expected + ca * cb
        assert c == expected


def test_compose_identity_symbol():
    tau = random_symbol(103, dim=2, order=1, depth=3, max_mode=2, max_alpha=2)
    lam = compose(one_symbol(2), tau)
    assert lam == tau
    assert lam.trusted_floor == tau.trusted_floor
    lam2 = compose(tau, one_symbol(2))
    assert lam2 == tau


def test_compose_truncation_bookkeeping():
    sigma = ClassicalSymbol(
        2, 1, {1: comp(2, 1, [(1, (0, 0), (1, 0), 0)])}, trusted_floor=1
    )
    tau = ClassicalSymbol(
        2, -2, {-2: comp(2, -2, [(1, (1, 0), (0, 0), -2)])}, trusted_floor=-2
    )
    lam = compose(sigma, tau)
    # floor = max(1 + (-2), 1 + (-2)) = -1: the -2 component is untrusted
    assert lam.trusted_floor == -1
    assert list(lam.components) == [-1]


def test_compose_random_against_sympy():
    rng = random.Random(79)
    for n, seeds in ((2, (201, 202, 203)), (3, (204, 205))):
        for seed in seeds:
            sigma = random_symbol(seed, dim=n, order=1, depth=2, max_mode=1, max_alpha=2)
            tau = random_symbol(seed + 50, dim=n, order=0, depth=2, max_mode=1, max_alpha=2)
            lam = compose(sigma, tau)
            if n == 3:  # the exact kernel divides by a shared denominator
                assert any(s.re.denominator > 1 or s.im.denominator > 1
                           for sym in (sigma, tau) for comp in sym.components.values()
                           for s in comp.raw_terms().values())
            for target in lam.components:
                expr, xs, xis = brute_compose_degree(sigma, tau, target, n)
                assert_component_matches_sympy(
                    lam.component(target), expr, xs, xis, rng, points=3
                )


def test_compose_associativity_above_common_floor():
    rng = random.Random(83)
    for seed in range(301, 309):
        a = random_symbol(seed, dim=2, order=1, depth=2, max_mode=1, max_alpha=2)
        b = random_symbol(seed + 40, dim=2, order=0, depth=2, max_mode=1, max_alpha=2)
        c = random_symbol(seed + 80, dim=2, order=1, depth=2, max_mode=1, max_alpha=2)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.trusted_floor == right.trusted_floor
        assert left == right


def test_compose_dimension_mismatch():
    with pytest.raises(ValidationError):
        compose(one_symbol(2), one_symbol(3))


def test_compose_nonterminating_complete_pair_refused():
    sigma = monomial_symbol(2, 1, npow=-2)  # not polynomial in xi
    tau = monomial_symbol(2, 1, mode=(1, 0))  # x-dependent
    with pytest.raises(ValidationError):
        compose(sigma, tau)


# -- residue ------------------------------------------------------------------------


def _sym(n, order, floor, blocks):
    comps = {d: comp(n, d, terms) for d, terms in blocks.items()}
    comps = {d: c for d, c in comps.items() if not c.is_zero()}
    return ClassicalSymbol(n, order, comps, floor)


def test_residue_worked_values():
    s = _sym(2, -2, -2, {-2: [(1, (0, 0), (0, 0), -2)]})
    assert residue(s) == PiGradedScalar(8, 3)
    s = _sym(2, -2, -2, {-2: [(1, (0, 0), (2, 0), -4)]})
    assert residue(s) == PiGradedScalar(4, 3)


def test_residue_grade_in_three_dimensions():
    # (2 pi)^3 * |S^2| = 32 pi^4: the pi grade of a nonzero residue is fixed
    # by the torus and sphere measures
    s = _sym(3, -3, -3, {-3: [(1, (0, 0, 0), (0, 0, 0), -3)]})
    assert residue(s) == PiGradedScalar(32, 4)


def test_residue_vanishes_below_critical_order():
    s = _sym(2, -3, -3, {-3: [(1, (0, 0), (1, 0), -4)]})
    assert residue(s).is_zero()


def test_residue_kills_nonzero_modes():
    s = _sym(2, -2, -2, {-2: [(1, (1, 0), (0, 0), -2)]})
    assert residue(s).is_zero()


def test_residue_insufficient_expansion():
    s = _sym(2, 0, 0, {0: [(1, (0, 0), (0, 0), 0)]})
    with pytest.raises(InsufficientExpansionError):
        residue(s)


def test_residue_linearity_exact():
    rng = random.Random(89)
    for seed in range(401, 411):
        a = random_symbol(seed, dim=2, order=0, depth=2, max_mode=2, max_alpha=2)
        b = random_symbol(seed + 30, dim=2, order=0, depth=2, max_mode=2, max_alpha=2)
        ca = ComplexRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        cb = ComplexRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        lhs = residue(a.scale(ca) + b.scale(cb))
        rhs = residue(a) * ca + residue(b) * cb
        assert lhs == rhs


def test_residue_vanishes_on_xi_derivative_images():
    rng = random.Random(97)
    for seed in range(421, 429):
        n = rng.choice([2, 3])
        blocks = {}
        total = zero_component(n, -n)
        for axis in range(1, n + 1):
            a = random_symbol(seed * 7 + axis, dim=n, order=-n + 1, depth=0,
                              max_mode=2, max_alpha=2)
            total = total + a.component(-n + 1).partial_xi(axis)
        if total.is_zero():
            continue
        s = ClassicalSymbol(n, -n, {-n: total}, -n)
        assert residue(s).is_zero()


def test_residue_vanishes_on_x_derivative_images():
    rng = random.Random(101)
    for seed in range(441, 449):
        n = rng.choice([2, 3])
        b = random_symbol(seed * 11, dim=n, order=-n, depth=0, max_mode=2, max_alpha=2)
        axis = rng.randint(1, n)
        d = b.component(-n).deriv_x(axis)
        if d.is_zero():
            continue
        s = ClassicalSymbol(n, -n, {-n: d}, -n)
        assert residue(s).is_zero()


# -- trace defect ---------------------------------------------------------------------


def test_trace_defect_examples():
    sigma = xi_symbol(2, 1)
    tau = monomial_symbol(2, 1, mode=(1, 0), npow=-2)
    assert trace_defect(sigma, tau).is_zero()
    s = random_symbol(501, dim=2, order=0, depth=2, max_mode=2, max_alpha=2)
    assert trace_defect(s, s).is_zero()


def test_trace_defect_random_small_suite():
    rng = random.Random(103)
    for n in (2, 3):
        for _ in range(20):
            m1 = rng.randint(-1, 2)
            m2 = rng.randint(-1, 2)
            s1 = random_symbol(rng.getrandbits(32), dim=n, order=m1,
                               depth=m1 + n + m2, max_mode=3, max_alpha=3)
            s2 = random_symbol(rng.getrandbits(32), dim=n, order=m2,
                               depth=m2 + n + m1, max_mode=3, max_alpha=3)
            assert trace_defect(s1, s2).is_zero()


def test_trace_defect_insufficient_expansion():
    s1 = random_symbol(503, dim=2, order=1, depth=0, max_mode=2, max_alpha=2)
    s2 = random_symbol(504, dim=2, order=1, depth=0, max_mode=2, max_alpha=2)
    with pytest.raises(InsufficientExpansionError):
        trace_defect(s1, s2)


@pytest.mark.parametrize("n", [2, 3])
def test_residue_of_composition_refuses_shallow_pair_in_either_order(n):
    deep = random_symbol(505, dim=n, order=-1, depth=n, max_mode=2, max_alpha=2)
    shallow = random_symbol(506, dim=n, order=1, depth=0, max_mode=2, max_alpha=2)
    # composed floor max(1 + (-1), 1 + (-1 - n)) = 0 lies above -n
    for s, t in ((deep, shallow), (shallow, deep)):
        with pytest.raises(InsufficientExpansionError):
            _residue_of_composition(s, t)


def test_residue_of_composition_refuses_mixed_symbol_classes():
    classical = random_symbol(507, dim=2, order=0, depth=2, max_mode=1, max_alpha=2)
    twisted = random_symbol(508, dim=2, order=0, depth=2, max_mode=1, max_alpha=2,
                            theta=Fraction(2, 5))
    with pytest.raises(TypeError):
        _residue_of_composition(classical, twisted)
    with pytest.raises(TypeError):
        _nc_residue_of_composition(twisted, classical)


def test_composing_what_is_not_a_symbol_is_a_type_error():
    """Only two symbols of one class compose: a component or a trigonometric
    polynomial, on either side, is refused with the TypeError of mixed
    classes, not an AttributeError."""
    classical = random_symbol(507, dim=2, order=0, depth=2, max_mode=1, max_alpha=2)
    component = classical.component(0)
    trig = TrigPolynomial(2, {(1, 0): ComplexRational(1)})
    assert type(component) is HomogeneousComponent
    pairs = [(component, component), (component, classical), (classical, component),
             (trig, trig), (classical, trig), (trig, component)]
    for operation in (compose, trace_defect, _residue_of_composition):
        for s, t in pairs:
            message = f"cannot compose {type(s).__name__} with {type(t).__name__}"
            with pytest.raises(TypeError, match=f"^{message}$"):
                operation(s, t)


# -- commutators -------------------------------------------------------------------------


def test_commutator_xi_examples():
    tau = monomial_symbol(2, 1, mode=(1, 0), npow=-2)
    assert commutator_xi(tau, 1) == tau.deriv_x(1)
    flat = monomial_symbol(2, 1, alpha=(0, 2))
    assert commutator_xi(flat, 1).is_zero()
    s = monomial_symbol(2, 1, mode=(2, 1), alpha=(0, 1))
    assert commutator_xi(s, 2) == s.deriv_x(2)


def test_commutator_xi_contract_randomized():
    rng = random.Random(107)
    for seed in range(601, 621):
        n = rng.choice([2, 3])
        s = random_symbol(seed, dim=n, order=rng.randint(-1, 1), depth=2,
                          max_mode=2, max_alpha=2)
        axis = rng.randint(1, n)
        got = commutator_xi(s, axis)
        want = s.deriv_x(axis)
        assert got == want
        assert got.trusted_floor == s.trusted_floor


def test_commutator_exp_hand_example():
    s = monomial_symbol(2, 1, alpha=(2, 0))
    got = commutator_exp(s, 1, 2)
    expected = ClassicalSymbol(
        2,
        2,
        {
            1: comp(2, 1, [(2, (1, 0), (1, 0), 0)]),
            0: comp(2, 0, [(1, (1, 0), (0, 0), 0)]),
        },
        trusted_floor=None,
    )
    assert got == expected


def test_commutator_exp_kills_xi_constants():
    s = monomial_symbol(2, Fraction(3, 2), mode=(1, 1))
    assert commutator_exp(s, 1, 3).is_zero()
    assert commutator_exp(s, 2, 3).is_zero()


def test_commutator_exp_leading_term():
    s = monomial_symbol(2, 1, npow=-2)
    got = commutator_exp(s, 2, 1)
    assert got.trusted_floor == -3
    assert got.component(-3) == comp(2, -3, [(-2, (0, 1), (0, 1), -4)])


@pytest.mark.parametrize("depth, message", [(1.5, "depth 1.5 is not an integer"),
                                            ("2", "depth '2' is not an integer"),
                                            (-1, "depth must be nonnegative, got -1")])
def test_commutator_exp_refuses_a_depth_that_is_not_a_nonnegative_integer(depth, message):
    s = random_symbol(3, dim=2, order=1, depth=2, max_mode=1, max_alpha=2)
    assert s.trusted_floor is not None  # so the depth meets arithmetic at once
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        commutator_exp(s, 1, depth)


def _exp_series(sigma, direction, depth, floor):
    """sum_{j=1..depth} (1/j!) (d^j sigma) e^(i x_l), assembled independently."""
    n = sigma.n
    mode = tuple(1 if i == direction - 1 else 0 for i in range(n))
    e_comp = HomogeneousComponent(n, 0, [(1, mode, (0,) * n, 0)])
    comps = {}
    current = sigma
    fact = 1
    for j in range(1, depth + 1):
        current = current.partial_xi(direction)
        fact *= j
        for deg, c in current.components.items():
            if floor is not None and deg < floor:
                continue
            piece = (c * e_comp).scale(Fraction(1, fact))
            comps[deg] = comps.get(deg, zero_component(n, deg)) + piece
    comps = {d: c for d, c in comps.items() if not c.is_zero()}
    order = max(comps, default=sigma.order - 1)
    return ClassicalSymbol(n, max(order, floor if floor is not None else order), comps, floor)


def test_commutator_exp_matches_series_randomized():
    rng = random.Random(109)
    for seed in range(701, 713):
        n = rng.choice([2, 3])
        s = random_symbol(seed, dim=n, order=rng.randint(0, 1), depth=2,
                          max_mode=2, max_alpha=2)
        direction = rng.randint(1, n)
        depth = rng.randint(1, 4)
        got = commutator_exp(s, direction, depth)
        want = _exp_series(s, direction, depth, got.trusted_floor)
        assert got == want


def _commutator_symbols():
    """60 seeded symbols, n = 2 and 3, depths 0-4, and three complete ones."""
    rng = random.Random(113)
    for seed in range(801, 861):
        n = rng.choice([2, 3])
        yield random_symbol(seed, dim=n, order=rng.randint(-1, 2), depth=rng.randint(0, 4),
                            max_mode=2, max_alpha=2)
    yield monomial_symbol(2, 3, mode=(1, -1), alpha=(2, 1))
    yield one_symbol(3)
    yield ClassicalSymbol(2, 0, {}, None)


def test_commutators_are_the_difference_of_the_two_compositions(monkeypatch):
    """One engine pass per commutator gives what composing in both orders and
    subtracting gives: value, repr, order and floor."""
    calls = []
    engine = T.compose_components

    def counting(*args, **kw):
        calls.append(kw.get("commutator", False))
        return engine(*args, **kw)

    monkeypatch.setattr(T, "compose_components", counting)
    nonzero = 0
    for s in _commutator_symbols():
        n, floor = s.n, s.trusted_floor
        for direction in range(1, n + 1):
            xi = xi_symbol(n, direction)
            calls.clear()
            got = commutator_xi(s, direction)
            assert calls == [True]
            want = _compose_impl(xi, s, floor) - _compose_impl(s, xi, floor)
            assert (got, repr(got), got.order, got.trusted_floor) == (
                want, repr(want), want.order, want.trusted_floor)
            mode = tuple(int(i == direction - 1) for i in range(n))
            exp = exp_symbol(n, mode)
            for depth in range(5):
                calls.clear()
                got = commutator_exp(s, direction, depth)
                assert calls == [True]
                low = got.trusted_floor
                want = _compose_impl(s, exp, low) - _compose_impl(exp, s, low)
                assert (got, repr(got), got.order, got.trusted_floor) == (
                    want, repr(want), want.order, want.trusted_floor)
                nonzero += not got.is_zero()
    assert nonzero >= 200


def test_a_commutator_checks_each_ordering_in_turn():
    """The refusals of the two-compose route, a o b's first.  A complete
    symbol that is not polynomial does not terminate before e^(i x_1) in
    either order, and a floor too deep for the tower is refused."""
    n = 2
    moving = ClassicalSymbol(n, 0, {-1: HomogeneousComponent(
        n, -1, [(1, (1, 0), (0, 0), -1)])}, None)
    exp = exp_symbol(n, (1, 0))
    for a, b in ((moving, exp), (exp, moving)):
        with pytest.raises(ValidationError, match="does not terminate"):
            _compose_impl(a, b, None, commutator=True)
    with pytest.raises(ValidationError, match="multi-indices"):
        _compose_impl(moving, moving, -62, commutator=True)


def test_a_commutator_packs_its_numerators_one_bit_wider(monkeypatch):
    """Canonical form of a commutator sums two compositions, each within the
    bound of ``numerator_width``, so the numerators take one bit more."""
    widths, packed = [], []
    width = T.numerator_width

    def recording(*args):
        widths.append(width(*args))
        return widths[-1]

    class Recording(T.PackedGaussians):
        def __init__(self, w):
            packed.append(w)
            super().__init__(w)

    monkeypatch.setattr(T, "numerator_width", recording)
    monkeypatch.setattr(T, "PackedGaussians", Recording)
    s = random_symbol(5, dim=3, order=1, depth=3, max_mode=2, max_alpha=2)
    assert not commutator_xi(s, 2).is_zero()
    assert not compose(s, xi_symbol(3, 2)).is_zero()
    assert packed == [widths[0] + 1, widths[1]]


# -- uniqueness decomposition ----------------------------------------------------------


def test_decompose_worked_example():
    s = _sym(
        2, 0, -2,
        {0: [(1, (0, 0), (2, 0), -2)], -2: [(1, (0, 0), (2, 0), -4)]},
    )
    cert = uniqueness_decompose(s)
    assert cert.sphere_mean == TrigPolynomial(2, {(0, 0): Fraction(1, 2)})
    assert set(cert.antiderivative_families) == {0}
    h = cert.antiderivative_families[0]
    assert h[0] == comp(2, 1, [(Fraction(1, 2), (0, 0), (3, 0), -2)])
    expected_rem = comp(
        2, -2, [(1, (0, 0), (2, 0), -4), (Fraction(-1, 2), (0, 0), (0, 0), -2)]
    )
    assert cert.remainder == expected_rem
    assert residue(s) == cert.implied_residue()


def test_decompose_pure_mean_component():
    s = _sym(2, -2, -2, {-2: [(Fraction(5, 3), (0, 0), (0, 0), -2)]})
    cert = uniqueness_decompose(s)
    assert not cert.antiderivative_families
    assert cert.sphere_mean == TrigPolynomial(2, {(0, 0): Fraction(5, 3)})
    assert cert.remainder.is_zero()


def test_decompose_below_critical_order():
    s = _sym(2, -3, -3, {-3: [(1, (0, 0), (0, 0), -3)]})
    cert = uniqueness_decompose(s)
    assert cert.sphere_mean.is_zero()
    assert cert.remainder.is_zero()
    assert set(cert.antiderivative_families) == {-3}
    assert residue(s) == cert.implied_residue() == PiGradedScalar(0)


def test_decompose_requires_depth():
    s = _sym(2, 0, 0, {0: [(1, (0, 0), (0, 0), 0)]})
    with pytest.raises(InsufficientExpansionError):
        uniqueness_decompose(s)


def test_the_records_behave_as_frozen_dataclasses():
    """DecompositionCertificate and SemiclassicalReport keep what the frozen
    dataclasses they replace did: positional and keyword construction, ==
    of the fields within one class, their hash (none for a dict field),
    immutability and the repr."""
    s = _sym(2, 0, -2, {0: [(1, (0, 0), (2, 0), -2)], -2: [(1, (0, 0), (2, 0), -4)]})
    t = NCSymbol(Theta.from_rational(0), -2, {-2: [(3, (0, 0), (0, 0), -2)]}, -2)
    for record, cls in ((uniqueness_decompose(s), DecompositionCertificate),
                        (semiclassical_check(t), SemiclassicalReport)):
        names = cls.__slots__
        values = [getattr(record, name) for name in names]
        twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)(*values)
        assert repr(record) == repr(twin) and repr(record).startswith(f"{cls.__name__}(")
        again = cls(**dict(zip(names, values)))
        assert again == record and cls(*values) == record and again is not record
        assert record != twin and record != cls(*values[:-1], None)
        assert {type(record).__eq__(record, twin)} == {NotImplemented}
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(record, names[-1])
        with pytest.raises(TypeError):
            cls(*values[:-1])
        assert _hash_or_refusal(record) == _hash_or_refusal(twin)
        assert not hasattr(record, "__dict__")
    plain = SemiclassicalReport(PiGradedScalar(1), PiGradedScalar(2), False)
    assert hash(plain) == hash((PiGradedScalar(1), PiGradedScalar(2), False))


def _hash_or_refusal(x):
    try:
        return hash(x)
    except TypeError as exc:  # a dict or a cyclotomic field: unhashable
        return str(exc)


def test_decompose_consistency_randomized():
    rng = random.Random(113)
    for seed in range(801, 816):
        n = rng.choice([2, 3])
        order = rng.randint(-n, 1)
        s = random_symbol(seed, dim=n, order=order, depth=order + n + rng.randint(0, 1),
                          max_mode=2, max_alpha=3)
        cert = uniqueness_decompose(s)
        assert residue(s) == cert.implied_residue()
        assert sphere_average(cert.remainder).is_zero()
        for deg, fam in cert.antiderivative_families.items():
            recon = zero_component(n, deg)
            for axis, h in enumerate(fam, start=1):
                recon = recon + h.partial_xi(axis)
            assert recon == s.component(deg)
