import json
import pathlib
from fractions import Fraction

import pytest

from ncresidue.errors import ParseError, ValidationError
from ncresidue.nctorus import NCPolynomial, NCSymbol, Theta, nc_compose
from ncresidue.scalars import ComplexRational
from ncresidue.symbols import ClassicalSymbol, HomogeneousComponent
from ncresidue.dsl import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_EXPONENT,
    format_nc_element,
    format_symbol,
    parse_nc_element,
    parse_symbol,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

THETAS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]


# -- parsing -----------------------------------------------------------------------


def test_parse_classical_example():
    s = parse_symbol("dim 2 order 0 floor -2 deg -2 { xi1^2 * r^-4 }")
    assert isinstance(s, ClassicalSymbol)
    assert s.n == 2 and s.order == 0 and s.trusted_floor == -2
    assert s.component(-2) == HomogeneousComponent(
        2, -2, [(1, (0, 0), (2, 0), -4)]
    )


def test_parse_nc_example():
    s = parse_symbol("dim 2 order -2 floor -2 theta 1/4 deg -2 { r^-2 * U * V }")
    assert isinstance(s, NCSymbol)
    assert s.theta == Theta.from_rational(Fraction(1, 4))
    (key, value), = s.components[-2].items()
    assert key == ((1, 1), (0, 0), -2)
    assert value == 1


def test_parse_homogeneity_violation():
    with pytest.raises(ValidationError) as err:
        parse_symbol("dim 2 order 0 floor -2 deg 0 { xi1 * r^-2 }")
    assert "degree" in str(err.value)


def test_parse_reports_positions():
    with pytest.raises(ParseError) as err:
        parse_symbol("dim 2 order 0 floor 0\ndeg 0 { xi1 * }")
    assert err.value.line == 2
    assert err.value.column is not None


def test_parse_error_classes():
    with pytest.raises(ParseError):
        parse_symbol("dim 2 order 0 floor 0 deg 0 { 1 ")  # unclosed block
    with pytest.raises(ParseError):
        parse_symbol("dim 2 order 0 floor 0 deg 0 { @ }")  # bad character
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order 0 floor 0 theta 1/4 deg 0 { U * e(1,1) }")  # mixed
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order 0 floor 0 theta 1/4 deg 0 { 1 }")  # theta, no U/V
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order 0 floor 0 deg 0 { U * V^-1 }")  # U/V, no theta
    with pytest.raises(ValidationError):
        parse_symbol("dim 3 order 0 floor 0 theta 1/4 deg 0 { U }")  # dim 3 twist
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order 0 floor 0 deg 0 { xi1^-1 * xi2 }")  # neg xi power
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order 0 floor 0 deg 0 { e(1,2,3) }")  # wrong mode length
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order 0 floor -1 deg -2 { r^-2 }")  # below floor
    with pytest.raises(ValidationError):
        parse_symbol("dim 2 order -3 floor -3 deg -2 { r^-2 }")  # above order


def test_parse_merges_duplicate_degree_blocks():
    s = parse_symbol("dim 2 order 0 floor 0 deg 0 { xi1 * r^-1 } deg 0 { 1 }")
    assert s.component(0) == HomogeneousComponent(
        2, 0, [(1, (0, 0), (1, 0), -1), (1, (0, 0), (0, 0), 0)]
    )


def test_parse_unary_minus_and_parens():
    s = parse_symbol("dim 2 order 0 floor 0 deg 0 { -1/2 * (1 + i) * xi1 * r^-1 }")
    assert s.component(0) == HomogeneousComponent(
        2,
        0,
        [(ComplexRational(Fraction(-1, 2), Fraction(-1, 2)), (0, 0), (1, 0), -1)],
    )


def test_parse_zero_symbol_no_blocks():
    s = parse_symbol("dim 2 order 0 floor 0")
    assert s.is_zero()
    assert format_symbol(s) == "dim 2 order 0 floor 0"


# -- formatting -------------------------------------------------------------------


def test_format_parse_roundtrip_on_examples():
    texts = [
        "dim 2 order 0 floor -2 deg -2 { xi1^2 * r^-4 }",
        "dim 2 order -2 floor -2 theta 1/4 deg -2 { r^-2 * U * V }",
        "dim 3 order 1 floor -1 deg 1 { xi3 } deg -1 { e(1,0,-1) * r^-1 }",
    ]
    for text in texts:
        s = parse_symbol(text)
        assert parse_symbol(format_symbol(s)) == s


def test_format_is_idempotent_on_noncanonical_input():
    text = "dim 2 order 0 floor 0 deg 0 { xi1^2 * r^-2 + xi2^2 * r^-2 }"
    s = parse_symbol(text)
    out = format_symbol(s)
    assert out == "dim 2 order 0 floor 0\ndeg 0 { 1 }"
    assert format_symbol(parse_symbol(out)) == out


def test_golden_random_symbol():
    want = (GOLDEN / "random_seed42.txt").read_text().strip()
    s = random_symbol(42, dim=2, order=1, depth=4, max_mode=3, max_alpha=3)
    assert format_symbol(s) == want


def test_golden_random_nc_symbol():
    want = (GOLDEN / "random_nc_seed42.txt").read_text().strip()
    s = random_symbol(42, dim=2, order=0, depth=2, max_mode=2, max_alpha=2,
                      theta=Fraction(1, 4))
    assert format_symbol(s) == want


def test_roundtrip_randomized_suite():
    idx = 0
    for seed in range(40):
        dim = 2 + (seed % 2)
        s = random_symbol(seed, dim=dim, order=(seed % 4) - 2, depth=seed % 4,
                          max_mode=2, max_alpha=3)
        text = format_symbol(s)
        assert parse_symbol(text) == s
        assert format_symbol(parse_symbol(text)) == text
        idx += 1
    for seed in range(20):
        theta = THETAS[seed % len(THETAS)]
        s = random_symbol(1000 + seed, dim=2, order=(seed % 3) - 1, depth=seed % 3,
                          max_mode=2, max_alpha=2, theta=theta)
        text = format_symbol(s)
        assert parse_symbol(text) == s
        assert format_symbol(parse_symbol(text)) == text


def test_roundtrip_of_computed_twisted_output():
    # compositions introduce genuine root-of-unity coefficients
    for theta in (Fraction(1, 3), Fraction(2, 5)):
        a = random_symbol(7, dim=2, order=0, depth=1, max_mode=2, max_alpha=1,
                          theta=theta)
        b = random_symbol(8, dim=2, order=0, depth=1, max_mode=2, max_alpha=1,
                          theta=theta)
        c = nc_compose(a, b)
        text = format_symbol(c)
        assert parse_symbol(text) == c


def test_format_rejects_float_theta_text():
    s = random_symbol(3, dim=2, order=0, depth=0, max_mode=1, max_alpha=1, theta=0.25)
    with pytest.raises(ValidationError):
        format_symbol(s)
    # but the JSON mirror carries it
    data = symbol_to_json(s)
    assert symbol_from_json(data) == s


# -- JSON --------------------------------------------------------------------------


def test_json_roundtrip_classical():
    s = random_symbol(11, dim=3, order=1, depth=3, max_mode=2, max_alpha=3)
    data = json.loads(json.dumps(symbol_to_json(s)))
    assert symbol_from_json(data) == s


def test_json_roundtrip_twisted_with_phases():
    a = random_symbol(21, dim=2, order=0, depth=1, max_mode=2, max_alpha=1,
                      theta=Fraction(2, 5))
    b = random_symbol(22, dim=2, order=0, depth=1, max_mode=2, max_alpha=1,
                      theta=Fraction(2, 5))
    c = nc_compose(a, b)
    data = json.loads(json.dumps(symbol_to_json(c)))
    assert symbol_from_json(data) == c


def test_json_validation():
    with pytest.raises(ValidationError):
        symbol_from_json({"dim": 2, "order": 0})
    with pytest.raises(ValidationError):
        symbol_from_json(
            {
                "dim": 2,
                "order": 0,
                "floor": 0,
                "blocks": [
                    {"deg": 0, "terms": [{"coeff": {"re": "1", "im": "0"},
                                          "nc": [1, 0], "alpha": [0, 0], "npow": 0}]}
                ],
            }
        )
    with pytest.raises(ValidationError):
        symbol_from_json(
            {
                "dim": 2,
                "order": 0,
                "floor": 0,
                "theta": "1/4",
                "blocks": [
                    {"deg": 0, "terms": [{"coeff": {"re": 0.5, "im": 0.0},
                                          "nc": [1, 0], "alpha": [0, 0], "npow": 0}]}
                ],
            }
        )


# -- random generation ----------------------------------------------------------------


def test_random_symbol_is_deterministic():
    a = random_symbol(99, dim=2, order=1, depth=3, max_mode=2, max_alpha=2)
    b = random_symbol(99, dim=2, order=1, depth=3, max_mode=2, max_alpha=2)
    assert a == b
    assert format_symbol(a) == format_symbol(b)


def test_random_symbol_depth_zero_single_component():
    s = random_symbol(5, dim=2, order=1, depth=0, max_mode=2, max_alpha=2)
    assert list(s.components) == [1]
    assert s.trusted_floor == 1


def test_random_symbol_validation():
    with pytest.raises(ValidationError):
        random_symbol(1, dim=1, order=0, depth=0, max_mode=1, max_alpha=1)
    with pytest.raises(ValidationError):
        random_symbol(1, dim=2, order=0, depth=-1, max_mode=1, max_alpha=1)
    with pytest.raises(ValidationError):
        random_symbol(1, dim=3, order=0, depth=0, max_mode=1, max_alpha=1,
                      theta=Fraction(1, 2))


def test_random_symbol_theta_does_not_change_draws():
    base = random_symbol(77, dim=2, order=0, depth=2, max_mode=2, max_alpha=2,
                         theta=Fraction(0))
    other = random_symbol(77, dim=2, order=0, depth=2, max_mode=2, max_alpha=2,
                          theta=Fraction(1, 3))
    assert {d: set(t) for d, t in base.components.items()} == {
        d: set(t) for d, t in other.components.items()
    }


# -- bare algebra elements ----------------------------------------------------------


def test_parse_nc_element_nested_too_deeply():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_nc_element("(" * 5000 + "U" + ")" * 5000, Theta.from_rational(Fraction(1, 3)))


def test_parse_nc_element():
    th = Theta.from_rational(Fraction(1, 4))
    el = parse_nc_element("U*V + 2", th)
    assert el == NCPolynomial(th, {(1, 1): 1, (0, 0): 2})
    with pytest.raises(ValidationError):
        parse_nc_element("xi1", th)
    assert "U" in format_nc_element(el)


def test_exponent_limit_at_the_input_boundary():
    assert MAX_EXPONENT == 64
    ok = parse_symbol("dim 2 order 0 floor -64\ndeg 0 { xi1^64 * r^-64 }\ndeg -64 { r^-64 }")
    assert symbol_from_json(symbol_to_json(ok)) == ok
    for text in ("dim 2 order 0 floor 0\ndeg 0 { xi2^65 * r^-65 }",
                 "dim 2 order 0 floor 0\ndeg 0 { xi1^40 * xi1^40 * r^-64 * r^-16 }",
                 "dim 2 order 65 floor 65\ndeg 65 { r^65 }"):
        with pytest.raises(ValidationError, match="limit 64"):
            parse_symbol(text)
    data = symbol_to_json(ok)
    data["blocks"][0]["terms"][0].update(alpha=[65, 0], npow=-65)
    with pytest.raises(ValidationError, match="limit 64"):
        symbol_from_json(data)


def test_cyclotomic_order_limit_keeps_theta_1_9973():
    text = "dim 2 order 0 floor 0 theta 1/9973\ndeg 0 { i * U + V }"
    sym = parse_symbol(text)
    assert symbol_from_json(symbol_to_json(sym)) == sym
    assert 4 * 9973 <= MAX_CYCLOTOMIC_ORDER < 4 * 10007
    with pytest.raises(ValidationError, match="theta 1/10007 needs cyclotomic order 40028"):
        parse_symbol(text.replace("9973", "10007"))
    doc = symbol_to_json(sym)
    doc["blocks"][0]["terms"][0]["phase"] = [10007, 1]
    with pytest.raises(ValidationError, match=r"phase \[10007, 1\] needs cyclotomic order"):
        symbol_from_json(doc)
