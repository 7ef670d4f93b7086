import cmath
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncresidue.dsl as dsl
import ncresidue.nctorus as N
import ncresidue.symbols as S
import ncresidue.terms as T
from ncresidue.errors import CalculusError, DomainError, ParseError, ValidationError
from ncresidue.nctorus import NCPolynomial, NCSymbol, Theta, _system_for, nc_compose
from ncresidue.scalars import ComplexRational
from ncresidue.symbols import ClassicalSymbol, HomogeneousComponent
from ncresidue.dsl import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_DIGITS,
    MAX_DIMENSION,
    MAX_DOCUMENT_TERMS,
    MAX_EXPONENT,
    MAX_TERM_PRODUCTS,
    _Parser,
    format_nc_element,
    format_symbol,
    format_terms,
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


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        # a character no token starts with, found by the scan
        ("dim 2 order 0 floor 0\r\n\r\n\tdeg 0 {\t1 *\r\n\t\t@ }", 4, 3, "unexpected character"),
        # a token the reader refuses, after a tab on a CRLF line
        ("dim 2 order 0 floor 0\r\n\tdeg 0 { xi1 *\r\n\t}", 3, 2, "unexpected token '}'"),
        # running out of input is reported at the last token
        ("dim 2 order 0 floor 0\r\n\n\t\tdeg 0 {\t(1", 3, 12, "unexpected end of input"),
    ],
)
def test_parse_reports_positions_after_tabs_and_crlf(text, line, column, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_symbol(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_validation_errors_name_positions_after_tabs_and_crlf():
    with pytest.raises(ValidationError, match=r"expected 2 \(line 3, column 10\)"):
        parse_symbol("dim 2 order 0 floor 0\r\n\r\n\tdeg 0 { e(1)\t}")


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


def test_random_symbol_builds_one_theta_per_twist(monkeypatch):
    """A twist given as a number becomes a ``Theta`` once per distinct value and
    type, and the symbols are those drawn at that ``Theta`` itself."""
    twists = [Fraction(2, 5), Fraction(5, 12), Fraction(7, 30), 0, 0.0, 0.3]
    kw = dict(dim=2, order=0, depth=2, max_mode=2, max_alpha=2)
    want = {(seed, i): random_symbol(seed, theta=N.Theta.from_rational(theta)
                                     if isinstance(theta, (int, Fraction))
                                     else N.Theta.from_float(theta), **kw)
            for seed in range(12) for i, theta in enumerate(twists)}
    built = []
    init = N.Theta.__init__

    def counting(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    dsl._twist_of.cache_clear()
    monkeypatch.setattr(N.Theta, "__init__", counting)
    for seed in range(12):
        for i, theta in enumerate(twists):
            got = random_symbol(seed, theta=theta, **kw)
            assert got.theta == want[(seed, i)].theta
            assert repr(got._term_bags()) == repr(want[(seed, i)]._term_bags())
    assert len(built) == len(twists)
    assert built[3:5] == [{"exact": Fraction(0)}, {"approximate": 0.0}]


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
    with pytest.raises(ValidationError):
        format_terms(s.component_raw(0), s.theta)
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


def _with_phase_seven(sym, rng):
    """sym read back from its JSON document with a zeta_7 phase on about half its terms."""
    data = symbol_to_json(sym)
    for block in data["blocks"]:
        for term in block["terms"]:
            if rng.random() < 0.5:
                term["phase"] = [7, rng.randint(1, 6)]
    return symbol_from_json(data)


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(5, 12)])
def test_json_round_trip_of_roots_outside_the_twist(theta):
    # a composed coefficient such as zeta_140 at theta 2/5 is no i^a zeta_5^b;
    # the JSON mirror writes it as a phase at its own order, the text format refuses
    rng = random.Random(theta.denominator)
    foreign = 0
    for _ in range(6):
        a, b = (_with_phase_seven(random_symbol(rng.getrandbits(32), dim=2, order=0, depth=2,
                                                max_mode=2, max_alpha=2, theta=theta), rng)
                for _ in range(2))
        for c in (nc_compose(a, b), nc_compose(b, a)):
            data = json.loads(json.dumps(symbol_to_json(c)))
            back = symbol_from_json(data)
            assert back == c and repr(back) == repr(c)
            orders = [t["phase"][0] for block in data["blocks"] for t in block["terms"]
                      if "phase" in t and t["phase"][0] != theta.denominator]
            if orders:
                with pytest.raises(DomainError, match="is not an i-times-zeta"):
                    format_symbol(c)
            foreign += len(orders)
    assert foreign >= 20


def test_json_phase_at_float_theta():
    doc = {"dim": 2, "order": 0, "floor": 0, "theta": 0.25, "blocks": [{"deg": 0, "terms": [
        {"coeff": {"re": 2.0, "im": 0.0}, "nc": [1, 0], "alpha": [0, 0], "npow": 0}]}]}
    plain = symbol_from_json(doc)
    doc["blocks"][0]["terms"][0]["phase"] = [7, 1]
    phased = symbol_from_json(doc)
    assert phased != plain
    [value] = phased.component_raw(0).values()
    assert abs(value - 2 * cmath.exp(2j * cmath.pi / 7)) < 1e-15
    for bad in ([7, 1, 2], [0, 1], [-7, 1], ["7", 1], 7):
        doc["blocks"][0]["terms"][0]["phase"] = bad
        with pytest.raises(ValidationError):
            symbol_from_json(doc)


def test_json_float_phase_of_a_root_order_past_the_float_range():
    """A float twist takes a phase's angle from the exact fraction (b mod q)/q,
    so a root order or an exponent past the float range reads."""
    def doc(phase):
        term = {"coeff": {"re": 2.0, "im": 0.0}, "nc": [1, 0], "alpha": [0, 0], "npow": 0}
        if phase is not None:
            term["phase"] = phase
        return {"dim": 2, "order": 0, "floor": 0, "theta": 0.3,
                "blocks": [{"deg": 0, "terms": [term]}]}

    plain = symbol_from_json(doc(None))
    assert symbol_from_json(doc([10**400, 1])) == plain  # the angle 2 pi / 10^400 rounds to 0
    [value] = symbol_from_json(doc([10**400, 10**400 - 1])).component_raw(0).values()
    assert abs(value - 2) < 1e-15
    [value] = symbol_from_json(doc([7, 10**400])).component_raw(0).values()
    assert abs(value - 2 * cmath.exp(2j * cmath.pi * (10**400 % 7) / 7)) < 1e-15


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
    # a field the reader does not know is refused by name, not dropped
    misspelt = [
        ("term", {"dim": 2, "order": 0, "floor": 0, "theta": "1/4", "blocks": [
            {"deg": 0, "terms": [{"coeff": {"re": "1", "im": "0"}, "nc": [1, 0],
                                  "phaze": [4, 1]}]}]}, "phaze"),
        ("header", {"dim": 2, "order": 0, "floor": 0, "thetta": "1/4", "blocks": [
            {"deg": 0, "terms": [{"coeff": {"re": "1", "im": "0"}, "modes": [1, 0]}]}]}, "thetta"),
        ("block", {"dim": 2, "order": 0, "floor": 0, "blocks": [{"deg": 0, "trems": []}]},
         "trems"),
    ]
    for what, data, field in misspelt:
        with pytest.raises(ValidationError, match=f"^unknown {what} field '{field}'$"):
            symbol_from_json(data)
    # a phase needs a theta, as nc does; it is not dropped
    with pytest.raises(ValidationError, match="^phase terms require a theta field$"):
        symbol_from_json(
            {
                "dim": 2,
                "order": 0,
                "floor": 0,
                "blocks": [
                    {"deg": 0, "terms": [{"coeff": {"re": "1", "im": "0"},
                                          "alpha": [0, 0], "npow": 0, "phase": [4, 1]}]}
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


class _Drawn(Exception):
    """Raised in place of the first draw: the arguments were accepted."""


def _no_draw(_seed):
    raise _Drawn


@pytest.mark.parametrize("kw, message", [
    (dict(dim=MAX_DIMENSION + 1), f"dimension {MAX_DIMENSION + 1} is beyond the limit"),
    (dict(dim=10**6), "dimension 1000000 is beyond the limit"),
    (dict(dim=2.0), "dim must be an integer, got 2.0"),
    (dict(order=1.5), "order must be an integer, got 1.5"),
    (dict(order=True), "order must be an integer, got True"),
    (dict(depth=Fraction(2)), "depth must be an integer"),
    (dict(max_mode="1"), "max_mode must be an integer"),
    (dict(max_alpha=None), "max_alpha must be an integer"),
    (dict(depth=MAX_DOCUMENT_TERMS // 2), f"more than {MAX_DOCUMENT_TERMS} terms"),
    (dict(depth=10**6), f"more than {MAX_DOCUMENT_TERMS} terms"),
    (dict(max_alpha=MAX_EXPONENT + 1), f"beyond the limit {MAX_EXPONENT}"),
    (dict(theta=Fraction(1, 10**9)), f"beyond the limit {MAX_CYCLOTOMIC_ORDER}"),
    (dict(theta=Theta.from_rational(Fraction(3, 40_001))), "cyclotomic order 160004"),
])
def test_random_symbol_refuses_what_a_document_may_not_hold(monkeypatch, kw, message):
    """Each limit a document reader applies is applied before anything is drawn."""
    monkeypatch.setattr(dsl.random, "Random", _no_draw)
    with pytest.raises(ValidationError, match=re.escape(message)):
        random_symbol(1, **dict(dim=2, order=0, depth=2, max_mode=1, max_alpha=1) | kw)


@pytest.mark.parametrize("kw", [
    dict(dim=MAX_DIMENSION), dict(depth=MAX_DOCUMENT_TERMS // 2 - 1),
    dict(max_alpha=MAX_EXPONENT), dict(theta=Fraction(1, MAX_CYCLOTOMIC_ORDER)),
    dict(theta=1e-9)])
def test_random_symbol_draws_just_inside_the_limits(monkeypatch, kw):
    monkeypatch.setattr(dsl.random, "Random", _no_draw)
    with pytest.raises(_Drawn):
        random_symbol(1, **dict(dim=2, order=0, depth=2, max_mode=1, max_alpha=1) | kw)


def test_random_symbol_theta_does_not_change_draws():
    base = random_symbol(77, dim=2, order=0, depth=2, max_mode=2, max_alpha=2,
                         theta=Fraction(0))
    other = random_symbol(77, dim=2, order=0, depth=2, max_mode=2, max_alpha=2,
                          theta=Fraction(1, 3))
    assert {d: set(t) for d, t in base.components.items()} == {
        d: set(t) for d, t in other.components.items()
    }


def test_the_sampler_draws_what_random_draws():
    # every range size 1 .. 70, which holds 1, each power of two up to 64 and
    # the size one past it: the sampler takes the bits randint, randrange and
    # choice take, gives their values and leaves the generator where they do
    sizes = range(1, 71)
    assert {1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65} <= set(sizes)
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in sizes:
            low = seed % 7 - 3
            assert low + dsl._below(ours.getrandbits, n) == theirs.randint(low, low + n - 1)
            assert dsl._below(ours.getrandbits, n) == theirs.randrange(n)
            seq = tuple(range(-n, 0))
            assert seq[dsl._below(ours.getrandbits, n)] == theirs.choice(seq)
            assert ours.getstate() == theirs.getstate()


def test_the_readers_build_symbols_without_checking_their_terms_again(monkeypatch):
    # the parser, the JSON reader and random_symbol check keys as they read or
    # draw them, and hand their blocks to the construction path directly
    def checked_again(*args):
        pytest.fail("terms checked again")

    monkeypatch.setattr(S, "_checked_terms", checked_again)
    monkeypatch.setattr(N, "_checked_terms", checked_again)
    for theta in (None, Fraction(2, 5), 0.3):
        sym = random_symbol(5, dim=2, order=1, depth=3, max_mode=2, max_alpha=2, theta=theta)
        assert sym.degrees()
        assert symbol_from_json(json.loads(json.dumps(symbol_to_json(sym)))) == sym
        if not isinstance(theta, float):
            assert parse_symbol(format_symbol(sym)) == sym


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


def test_dimension_and_digit_limits_at_the_input_boundary():
    assert (MAX_DIMENSION, MAX_DIGITS) == (64, 1000)
    big = 10**20  # too large for a tuple length, so no attempt allocates
    for text, error, match in (
        (f"dim {big} order 0 floor 0\ndeg 0 {{ 1 }}", ValidationError, "beyond the limit 64"),
        ("dim 65 order 0 floor 0\ndeg 0 { 1 }", ValidationError, "dimension 65 is beyond"),
        ("dim 2 order 0 floor 0\ndeg 0 { " + "7" * 1001 + " }", ParseError, "more than 1000 digits"),
        ("dim 2 order 0 floor 0\ndeg 0 { xi" + "1" * 5000 + " }", ValidationError, "out of range"),
    ):
        with pytest.raises(error, match=match):
            parse_symbol(text)
    assert parse_symbol("dim 64 order 0 floor 0\ndeg 0 { xi64 * r^-1 }").n == 64
    assert parse_symbol("dim 2 order 0 floor 0\ndeg 0 { " + "7" * 1000 + " }")
    term = {"coeff": {"re": "1", "im": "0"}, "alpha": [0, 0], "npow": 0}
    doc = {"dim": 2, "order": 0, "floor": 0, "blocks": [{"deg": 0, "terms": [term]}]}
    for patch, match in (
        ({"dim": big}, "beyond the limit 64"),
        ({"order": 10**5000}, "order has more than 1000 digits"),
        ({"theta": "1e999999999"}, "bad theta '1e999999999': exponent beyond 1000"),
        ({"theta": "1/" + "3" * 1001}, "more than 1000 digits"),
        ({"blocks": [{"deg": 0, "terms": [dict(term, coeff={"re": "1e-1001", "im": "0"})]}]},
         "exponent beyond 1000"),
        ({"blocks": [{"deg": 0, "terms": [dict(term, coeff={"re": 10**5000, "im": "0"})]}]},
         "bad coefficient <a value with a very long integer>"),
        ({"theta": 0.25, "blocks": [{"deg": 0, "terms": [dict(term, nc=[1, 0],
                                                            coeff={"re": "1e400", "im": "0"})]}]},
         "too large for a float"),
    ):
        with pytest.raises(ValidationError, match=match):
            symbol_from_json({**doc, **patch})
    assert symbol_from_json({**doc, "theta": "2/5", "blocks": [
        {"deg": 0, "terms": [dict(term, nc=[1, 0], coeff={"re": "1e999", "im": "1e-999"})]}]})


# JSON-shaped values: wrong types, out-of-range and huge integers (none of a size
# that could allocate much if a limit were lost), odd theta and phase values
_ints = st.one_of(st.integers(-3, 70), st.sampled_from([-(10**20), 2**62]),
                  st.sampled_from([20, 1000, 5000]).map(lambda k: 10**k))
_strings = st.one_of(st.sampled_from(["1", "-3/4", "2/5", "5/12", "0", "1/0", "x", "1e5",
                                      "1e-3", "1e99999", "nan", "inf", "1_000", " 1 ",
                                      "1/100000007", "0.3", ""]),
                     st.text(max_size=4))
_leaves = st.one_of(st.none(), st.booleans(), _ints, st.floats(), _strings)
_json_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
_MISSING = object()  # an odd value that drops its key
_odd_values = st.one_of(_json_values, st.lists(_ints, max_size=4), st.just(_MISSING))
_numbers = st.sampled_from(["1", "-3/4", "0", "1/3", 2, "1e5", "1e-3", "0.5"])


@st.composite
def _documents(draw):
    """Symbol documents whose fields are each replaced, one time in eight, by an
    odd value; one document in eight is any JSON value."""
    def odd(value):
        return draw(_odd_values) if draw(st.integers(0, 7)) == 0 else value

    def obj(**fields):
        return {k: v for k, v in fields.items() if v is not _MISSING}

    if draw(st.integers(0, 7)) == 0:
        return draw(_json_values)
    theta = draw(st.sampled_from([None, None, "2/5", "5/12", "0", 0.25]))
    dim = 2 if theta is not None else draw(st.sampled_from([2, 3]))
    order = draw(st.integers(-2, 2))
    floor = order - draw(st.integers(0, 3))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(floor, order))
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            alpha = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
            mode = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
            fields = {"nc" if theta is not None else "mode": odd(mode)}
            if theta is not None and draw(st.booleans()):
                fields["phase"] = odd([draw(st.sampled_from([5, 7, 12])), draw(st.integers(0, 6))])
            coeff = obj(re=odd(draw(_numbers)), im=odd(draw(_numbers)))
            terms.append(odd(obj(coeff=odd(coeff), alpha=odd(alpha),
                                 npow=odd(deg - sum(alpha)), **fields)))
        blocks.append(odd(obj(deg=odd(deg), terms=odd(terms))))
    theta = _MISSING if theta is None else odd(theta)
    return obj(dim=odd(dim), order=odd(order), floor=odd(floor), blocks=odd(blocks), theta=theta)


@settings(max_examples=150, deadline=500, derandomize=True)
@given(_documents())
def test_symbol_from_json_gives_a_symbol_or_a_calculus_error(data):
    try:
        sym = symbol_from_json(data)
    except CalculusError:
        return
    assert isinstance(sym, (ClassicalSymbol, NCSymbol))


# -- mutated text documents ----------------------------------------------------------

_SEED_DOCUMENTS = [
    format_symbol(random_symbol(seed, dim=dim, order=order, depth=2, max_mode=2, max_alpha=3,
                                theta=theta))
    for seed, dim, order, theta in ((1, 2, 1, None), (2, 3, 0, None), (3, 2, -1, None),
                                    (4, 2, 0, Fraction(2, 5)), (5, 2, 1, Fraction(7, 30)),
                                    (6, 2, 0, Fraction(0)))
] + [
    "dim 2 order 0 floor -2 deg -2 { xi1^2 * r^-4 - 1/3 * i * e(1,-2) * r^-2 }",
    "dim 3 order 1 floor -1 deg 1 { 3/2 * xi3 * e(0,1,-1) + xi2 } deg 0 { 2 - i } deg -1 { r^-1 }",
    "dim 2 order 0 floor -1 theta 5/12 deg 0 { U^-1 * V^2 * xi1 * r^-1 + (1 + i) * V }",
]
_PIECES = ["", " ", "\n", "0", "1", "7", "-", "+", "*", "/", "^", "(", ")", "{", "}", ",", "i",
           "xi1", "xi2", "xi3", "xi0", "r", "e(", "U", "V", "deg", "dim", "order", "floor",
           "theta", "2/5", "1/0", "^-64", "^65", "9" * 40, "e(" + "9" * 30 + ",-1)"]


@st.composite
def _mutated_documents(draw):
    """A seed document, classical or twisted, after one to four random edits:
    a piece inserted or written over a span, a span deleted or doubled."""
    text = draw(st.sampled_from(_SEED_DOCUMENTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "double"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(_PIECES)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "replace":
            text = text[:i] + draw(st.sampled_from(_PIECES)) + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


@settings(max_examples=300, deadline=1000, derandomize=True)
@given(_mutated_documents())
def test_parse_symbol_of_a_mutated_document_gives_a_symbol_or_a_one_line_error(text):
    """Each example must finish within the one-second deadline."""
    try:
        sym = parse_symbol(text)
    except CalculusError as exc:
        assert "\n" not in str(exc)
        return
    assert isinstance(sym, (ClassicalSymbol, NCSymbol))
    written = format_symbol(sym)
    again = parse_symbol(written)
    assert again == sym
    assert format_symbol(again) == written


# -- the term fold against the factor-by-factor rule ---------------------------------


def _reference(text: str, dim: int, twist):
    """The bag of an expression by the factor-by-factor rule: each factor a
    one-term bag (a parenthesized one the bag of its sum), multiplied in
    token order with ``mul_terms``, and terms added with ``bag_add``."""
    system = _system_for(twist)
    tokens = re.findall(r"\d+|\w+|\S", text) + [""]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def integer():
        negative = tokens[pos] == "-" and take()
        return -int(take()) if negative else int(take())

    def exponent():
        return integer() if tokens[pos] == "^" and take() else 1

    def factor():
        tok = take()
        if tok == "(":
            value = expr()
            take()
            return value
        zeros = (0,) * dim
        key, value = (zeros, zeros, 0), ComplexRational(1)
        if tok.isdigit():
            value = ComplexRational(Fraction(int(tok), int(take()) if tokens[pos] == "/" and take() else 1))
        elif tok == "i":
            value = ComplexRational(0, 1)
        elif tok == "e":
            take()
            entries = [integer()]
            while take() == ",":
                entries.append(integer())
            key = (tuple(entries), zeros, 0)
        elif tok in ("U", "V"):
            c = exponent()
            key = ((c, 0) if tok == "U" else (0, c), zeros, 0)
        elif tok == "r":
            key = (zeros, zeros, exponent())
        else:  # xi
            j, a = int(tok[2:]), exponent()
            key = (zeros, tuple(a if k == j - 1 else 0 for k in range(dim)), 0)
        return {key: system.coerce(value)}

    def term():
        value = factor()
        while tokens[pos] == "*" and take():
            value = T.mul_terms(system, dim, value, factor())
        return value

    def expr():
        negative = tokens[pos] == "-" and take()
        value = term()
        if negative:
            value = {key: -s for key, s in value.items()}
        while tokens[pos] in ("+", "-"):
            negative = take() == "-"
            for key, s in term().items():
                T.bag_add(value, key, -s if negative else s)
        return value

    return expr()


def _assert_folds_like_the_reference(text: str, dim: int, theta):
    """The reader's bag equals the reference's, every coefficient at the same
    cyclotomic order (its repr shows it) and zero coefficients kept alike."""
    twist = None if theta is None else Theta.from_rational(theta)
    got = _Parser(text, dim, twist).parse_expr()
    want = _reference(text, dim, twist)
    assert sorted(map(repr, got.items())) == sorted(map(repr, want.items())), text


def _text(expr) -> str:
    out = []
    for k, (negative, factors) in enumerate(expr):
        out.append(("- " if negative else "+ " if k else "") + " * ".join(map(_factor_text, factors)))
    return " ".join(out)


def _factor_text(factor) -> str:
    kind, *args = factor
    if kind == "(":
        return "(" + _text(args[0]) + ")"
    if kind == "num":
        p, q = args
        return str(p) if q == 1 else f"{p}/{q}"
    if kind == "e":
        return "e(" + ",".join(map(str, args[0])) + ")"
    if kind == "xi":
        j, a = args
        return f"xi{j}" if a == 1 else f"xi{j}^{a}"
    if kind == "i" or args[0] == 1 and kind != "r":
        return kind
    return f"{kind}^{args[0]}"


def _expressions(dim: int, twisted: bool):
    """Expression trees: lists of (negative, factors) terms."""
    atoms = [
        st.tuples(st.just("num"), st.integers(0, 12), st.integers(1, 6)),
        st.tuples(st.just("i")),
        st.tuples(st.just("xi"), st.integers(1, dim), st.integers(0, 3)),
        st.tuples(st.just("r"), st.integers(-4, 4)),
    ]
    if twisted:  # words weigh more, so phase steps meet sums and each other
        atoms = [st.tuples(st.sampled_from(["U", "V"]), st.integers(-3, 3))] * 4 + atoms
    else:
        atoms.append(st.tuples(st.just("e"), st.tuples(*[st.integers(-2, 2)] * dim)))

    def sums(factor):
        term = st.tuples(st.booleans(), st.lists(factor, min_size=1, max_size=5))
        return st.lists(term, min_size=1, max_size=3)

    factor = st.one_of(atoms)
    for _depth in range(3):  # parentheses nest up to three deep
        factor = st.one_of(*atoms, st.tuples(st.just("("), sums(factor)))
    return sums(factor)


# (dim, theta, expression): twisted at 2/5 and 7/30, and at 1/2, where phase
# steps cancel most often; commutative in dimensions 2 and 3
_CASES = st.one_of(
    st.tuples(st.just(2), st.sampled_from([Fraction(2, 5), Fraction(7, 30), Fraction(1, 2)]),
              _expressions(2, True)),
    st.tuples(st.just(2), st.none(), _expressions(2, False)),
    st.tuples(st.just(3), st.none(), _expressions(3, False)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_CASES)
def test_each_term_folds_to_the_bag_of_its_factors_multiplied_in_order(case):
    """Fractions, i, e(...), xi, r, nested parentheses and U/V words."""
    dim, theta, expr = case
    _assert_folds_like_the_reference(_text(expr), dim, theta)


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2, 5), Fraction(7, 30)])
@pytest.mark.parametrize("text", [
    "V * U * V^-2 * U",  # phase steps that cancel
    "i * i * V * U + i * i",  # an even power of i
    "(U * V + 1) * V * U",  # a word after a sum: the step is per term of the sum
    "(U * V + 1) * V * U^2 * V^-1 * U",
    "(U * V + 1) * V * (U)",  # one-term parentheses after a sum
    "(U + V^2) * V^3 * (U) * V * (2 * U^-1)",
    "(U - V) * (V^2 + U^3) * U^4 * (V + i)",
    "V^5 * (3 * U^2 * V) * U^-3 * (V^-1 * i) * U",  # one-term parentheses in a word
])
def test_words_fold_to_the_bag_of_their_factors(text, theta):
    _assert_folds_like_the_reference(text, 2, theta)


def test_document_terms_are_counted_as_written(monkeypatch):
    """Terms inside parentheses count, and JSON terms count over all blocks;
    no test, golden file or benchmark document holds 500 terms."""
    assert MAX_DOCUMENT_TERMS == 10_000
    text = "dim 2 order 1 floor 0\ndeg 1 { xi1 + (xi1 + 2 * xi2) }\ndeg 0 { 3 }"
    doc = symbol_to_json(parse_symbol(text))
    assert [len(block["terms"]) for block in doc["blocks"]] == [2, 1]
    monkeypatch.setattr(dsl, "MAX_DOCUMENT_TERMS", 5)
    assert parse_symbol(text) == symbol_from_json(doc)
    monkeypatch.setattr(dsl, "MAX_DOCUMENT_TERMS", 4)
    with pytest.raises(ValidationError, match="^a document may hold at most 4 terms$"):
        parse_symbol(text)
    monkeypatch.setattr(dsl, "MAX_DOCUMENT_TERMS", 2)
    with pytest.raises(ValidationError, match="at most 2 terms"):
        symbol_from_json(doc)
    with pytest.raises(ValidationError, match="at most 2 terms"):
        parse_nc_element("1 + U + V", Theta.from_rational(Fraction(2, 5)))


def test_products_of_sums_past_the_limit_are_refused():
    """Eight sums of ten terms multiply out in 194,470 term products, past the
    limit, which no test, golden file or benchmark document comes near."""
    assert MAX_TERM_PRODUCTS == 50_000
    sum10 = "(" + " + ".join(f"xi{j}" for j in range(1, 11)) + ")"
    text = "dim 10 order 8 floor 8\ndeg 8 { " + " * ".join([sum10] * 8) + " }"
    with pytest.raises(ValidationError, match="at least 80070 term products, beyond the limit 50000"):
        parse_symbol(text)
    four = "dim 10 order 4 floor 4\ndeg 4 { " + " * ".join([sum10] * 4) + " }"
    assert len(parse_symbol(four).component(4).raw_terms()) > 0


@pytest.mark.parametrize("theta", [None, Fraction(2, 5), 0.4])
def test_each_reader_coerces_a_coefficient_at_most_once(monkeypatch, theta):
    """``random_symbol`` has its twist's system take each summed draw once,
    the text reader coerces each written term's coefficient once, the
    JSON reader a twisted one once and a classical one not at all (it is
    read as the system's own scalar), and the element reader each term's
    coefficient once; every symbol and element is as built before."""
    th = None if theta is None else (
        Theta.from_float(theta) if type(theta) is float else Theta.from_rational(theta))
    system = _system_for(th)
    drawn = random_symbol(11, dim=2, order=1, depth=3, max_mode=2, max_alpha=2, theta=th)
    terms = sum(len(bag) for bag in drawn._term_bags().values())
    doc = symbol_to_json(drawn)
    text = None if type(theta) is float else format_symbol(drawn)
    plain = random_symbol(11, dim=2, order=1, depth=3, max_mode=2, max_alpha=2)
    element = None if th is None else parse_nc_element("U*V + 2 - 3*i*V^2", th)
    calls, coerce = [], system.coerce  # a float twist builds its system afresh

    def counting(*args):  # (self, value) or (value,)
        calls.append(args[-1])
        return coerce(args[-1])

    monkeypatch.setattr(type(system), "coerce", counting)
    again = random_symbol(11, dim=2, order=1, depth=3, max_mode=2, max_alpha=2, theta=th)
    assert repr(again) == repr(drawn)
    # the draws are exact: each summed one is coerced, in the classical bags' order
    assert len(calls) == (0 if th is None else terms)
    assert calls == [s for bag in plain._term_bags().values() for s in bag.values()][:len(calls)]
    del calls[:]
    assert repr(symbol_from_json(doc)) == repr(drawn)
    assert len(calls) == (0 if th is None else terms)
    if text is not None:
        del calls[:]
        assert repr(parse_symbol(text)) == repr(drawn)
        assert len(calls) == terms
    if element is not None:
        del calls[:]
        assert parse_nc_element("U*V + 2 - 3*i*V^2", th) == element
        assert len(calls) == 3
