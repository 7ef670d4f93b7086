"""Textual and JSON representations of symbols, plus a seeded generator.

Grammar (whitespace-insensitive; ``INT`` admits a leading minus)::

    document := header block*
    header   := "dim" INT "order" INT "floor" INT ["theta" RAT]
    block    := "deg" INT "{" expr "}"
    expr     := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := RAT | "i" | "e(" INT ("," INT)* ")" | "U" ["^" INT]
              | "V" ["^" INT] | "xi" INT ["^" INT] | "r" "^" INT
              | "(" expr ")"

Documents with a ``theta`` header describe twisted symbols and must use the
U/V generators; documents without it describe commutative symbols and must
use ``e(...)`` modes.  Root-of-unity coefficients of twisted symbols are
rendered grammar-purely as commutator words ``V * U^t * V^-1 * U^-t``,
which evaluate back to the same phase.

Formatting a symbol whose expansion is complete (``trusted_floor=None``)
materializes the floor as the lowest stored degree; the text format cannot
state completeness.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import terms as T
from .cyclotomic import CyclotomicScalar, decompose_root
from .errors import DomainError, ParseError, ValidationError
from .nctorus import NCPolynomial, NCSymbol, Theta, _coerce_scalar, _system_for
from .scalars import ComplexRational
from .symbols import ClassicalSymbol, HomogeneousComponent


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"\s+|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(){},])")


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup == "num":
            if len(chunk) > MAX_DIGITS:
                raise ParseError(f"number with more than {MAX_DIGITS} digits", line, col)
            tokens.append(Token("NUMBER", chunk, line, col))
        elif m.lastgroup == "name":
            tokens.append(Token("NAME", chunk, line, col))
        elif m.lastgroup == "op":
            tokens.append(Token(chunk, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


_XI_RE = re.compile(r"^xi(\d+)$")

# Canonical form expands (xi_1^2 + ... + xi_n^2)^k, with k up to half the
# spread of the |xi| powers in one mode, so a short document with huge
# exponents would cost unbounded time; documents are held to this limit.
MAX_EXPONENT = 64

# Every xi multi-index and mode of a document is a tuple of ``dim`` entries,
# so a 40-byte document with a huge dim would allocate gigabytes.
MAX_DIMENSION = 64

# An integer is written out in full, and a decimal exponent ("1e999999999")
# is expanded, so a short number could cost unbounded time and memory to
# read, and one past the interpreter's digit limit could not be printed back;
# a document's numbers are held to this many digits.
MAX_DIGITS = 1000
_DIGIT_BOUND = 10**MAX_DIGITS
_DECIMAL_EXPONENT = re.compile(r"e\s*([-+]?[\d_]+)", re.IGNORECASE)


# A cyclotomic coefficient is stored densely, one integer per power of a
# root of unity over one denominator; the root's order is the lcm of 4, the
# theta denominator and the phase orders a document names, so a short
# document with a large denominator would cost unbounded memory; documents
# are held to this limit.
MAX_CYCLOTOMIC_ORDER = 40_000


def _check_cyclotomic_order(order: int, what: str) -> int:
    if order > MAX_CYCLOTOMIC_ORDER:
        raise ValidationError(
            f"{what} needs cyclotomic order {order}, beyond the limit {MAX_CYCLOTOMIC_ORDER}"
        )
    return order


def _check_dimension(dim: int) -> None:
    if dim < 2:
        raise ValidationError(f"dimension must be at least 2, got {dim}")
    if dim > MAX_DIMENSION:
        raise ValidationError(f"dimension {dim} is beyond the limit {MAX_DIMENSION}")


def _check_exponents(alpha: tuple[int, ...], npow: int, where: str = "") -> None:
    if max(map(abs, alpha), default=0) > MAX_EXPONENT or abs(npow) > MAX_EXPONENT:
        raise ValidationError(
            f"term xi^{list(alpha)} |xi|^{npow} has an exponent beyond the "
            f"limit {MAX_EXPONENT}{where}"
        )


class _Parser:
    def __init__(self, text: str, dim: int = 2, theta: Theta | None = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.saw_uv = False
        self.saw_mode = False
        self.set_kind(dim, theta)

    def set_kind(self, dim: int, theta: Theta | None) -> None:
        """Fix the dimension and twist that expressions are read in."""
        self.dim = dim
        self.theta = theta
        self.system = _system_for(theta)

    def scalar(self, value: ComplexRational):
        return value if self.theta is None else _coerce_scalar(self.theta, value)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_name(self, name: str) -> Token:
        tok = self.next()
        if tok.kind != "NAME" or tok.text != name:
            raise ParseError(f"expected {name!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at_name(self, name: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "NAME" and tok.text == name

    # -- numeric atoms -------------------------------------------------------

    def parse_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            sign = -1
        num = self.expect("NUMBER")
        return sign * int(num.text)

    def parse_rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            sign = -1
        num = self.expect("NUMBER")
        value = Fraction(int(num.text))
        tok = self.peek()
        if tok is not None and tok.kind == "/":
            self.next()
            den = self.expect("NUMBER")
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.line, den.col)
            value = Fraction(int(num.text), int(den.text))
        return sign * value

    # -- document ------------------------------------------------------------

    def parse_document(self):
        self.expect_name("dim")
        dim = self.parse_int()
        _check_dimension(dim)
        self.expect_name("order")
        order = self.parse_int()
        self.expect_name("floor")
        floor = self.parse_int()
        theta = None
        if self.at_name("theta"):
            self.next()
            theta = Theta.from_rational(self.parse_rational())
            if dim != 2:
                raise ValidationError("twisted symbols require dim 2")
            _check_cyclotomic_order(
                math.lcm(4, theta.exact.denominator), f"theta {theta.exact}"
            )
        self.set_kind(dim, theta)
        blocks: dict[int, dict] = {}
        while self.peek() is not None:
            tok = self.peek()
            if not (tok.kind == "NAME" and tok.text == "deg"):
                raise ParseError(f"expected 'deg', found {tok.text!r}", tok.line, tok.col)
            self.next()
            deg_tok = self.peek()
            deg = self.parse_int()
            self.expect("{")
            value = self.parse_expr()
            self.expect("}")
            for (mode, alpha, npow), _s in value.items():
                _check_exponents(
                    alpha, npow, f" (line {deg_tok.line}, column {deg_tok.col})"
                )
                if sum(alpha) + npow != deg:
                    raise ValidationError(
                        f"term of degree {sum(alpha) + npow} in a block declared "
                        f"deg {deg} (line {deg_tok.line}, column {deg_tok.col})"
                    )
            bucket = blocks.setdefault(deg, {})
            for key, s in value.items():
                T.bag_add(bucket, key, s)
        if theta is not None and not self.saw_uv:
            raise ValidationError("a theta header requires U/V generators")
        if theta is None and self.saw_uv:
            raise ValidationError("U/V generators require a theta header")
        return _build_symbol(dim, order, floor, theta, blocks)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> dict:
        tok = self.peek()
        negate = False
        if tok is not None and tok.kind == "-":
            self.next()
            negate = True
        value = self.parse_term()
        if negate:
            value = {k: -s for k, s in value.items()}
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                break
            self.next()
            rhs = self.parse_term()
            if tok.kind == "-":
                rhs = {k: -s for k, s in rhs.items()}
            value = T.add_terms(value, rhs)
        return value

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "*":
                break
            self.next()
            rhs = self.parse_factor()
            value = T.mul_terms(self.system, value, rhs)
        return value

    def parse_factor(self) -> dict:
        dim, theta = self.dim, self.theta
        tok = self.next()
        unit_key = ((0,) * dim, (0,) * dim, 0)
        if tok.kind == "NUMBER":
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.next()
                den = self.expect("NUMBER")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value = Fraction(int(tok.text), int(den.text))
            return {unit_key: self.scalar(ComplexRational(value))}
        if tok.kind == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind == "NAME":
            if tok.text == "i":
                return {unit_key: self.scalar(ComplexRational(0, 1))}
            if tok.text == "e":
                self.expect("(")
                entries = [self.parse_int()]
                while self.peek() is not None and self.peek().kind == ",":
                    self.next()
                    entries.append(self.parse_int())
                self.expect(")")
                if len(entries) != dim:
                    raise ValidationError(
                        f"mode e({', '.join(map(str, entries))}) has length "
                        f"{len(entries)}, expected {dim} "
                        f"(line {tok.line}, column {tok.col})"
                    )
                if theta is not None:
                    raise ValidationError(
                        "e(...) modes cannot appear in a twisted document "
                        f"(line {tok.line}, column {tok.col})"
                    )
                self.saw_mode = True
                key = (tuple(entries), (0,) * dim, 0)
                return {key: self.scalar(ComplexRational(1))}
            if tok.text in ("U", "V"):
                self.saw_uv = True
                exponent = 1
                if self.peek() is not None and self.peek().kind == "^":
                    self.next()
                    exponent = self.parse_int()
                mode = (exponent, 0) if tok.text == "U" else (0, exponent)
                if theta is None:
                    # recorded; the document-level check reports the error
                    mode = mode + (0,) * (dim - 2) if dim > 2 else mode
                key = (mode, (0,) * dim, 0)
                return {key: self.scalar(ComplexRational(1))}
            m = _XI_RE.match(tok.text)
            if m:
                digits = m.group(1)
                idx = int(digits) if len(digits) <= MAX_DIGITS else 0
                if not 1 <= idx <= dim:
                    raise ValidationError(
                        f"{tok.text} is out of range for dim {dim} "
                        f"(line {tok.line}, column {tok.col})"
                    )
                exponent = 1
                if self.peek() is not None and self.peek().kind == "^":
                    self.next()
                    exponent = self.parse_int()
                if exponent < 0:
                    raise ValidationError(
                        f"xi exponents must be nonnegative, got {exponent} "
                        f"(line {tok.line}, column {tok.col})"
                    )
                alpha = tuple(exponent if i == idx - 1 else 0 for i in range(dim))
                key = ((0,) * dim, alpha, 0)
                return {key: self.scalar(ComplexRational(1))}
            if tok.text == "r":
                self.expect("^")
                exponent = self.parse_int()
                key = ((0,) * dim, (0,) * dim, exponent)
                return {key: self.scalar(ComplexRational(1))}
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _build_symbol(dim: int, order: int, floor: int, theta: Theta | None, blocks: dict):
    """The symbol of ``(mode, alpha, npow) -> coeff`` degree blocks, after
    checking them against the header."""
    for deg in blocks:
        if deg > order:
            raise ValidationError(f"block degree {deg} exceeds order {order}")
        if deg < floor:
            raise ValidationError(f"block degree {deg} lies below floor {floor}")
    if theta is None:
        comps = {
            deg: HomogeneousComponent.from_raw(dim, deg, raw)
            for deg, raw in blocks.items()
        }
        return ClassicalSymbol(dim, order, comps, floor)
    return NCSymbol(theta, order, blocks, floor)


def parse_symbol(text: str):
    """Parse a symbol document; returns a ClassicalSymbol or NCSymbol."""
    parser = _Parser(text)
    try:
        return parser.parse_document()
    except RecursionError:
        raise ParseError("nested too deeply") from None


def parse_nc_element(text: str, theta: Theta) -> NCPolynomial:
    """Parse a bare algebra element (rationals, i, U, V) at the given twist."""
    parser = _Parser(text, 2, theta)
    try:
        value = parser.parse_expr()
    except RecursionError:
        raise ParseError("nested too deeply") from None
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"unexpected trailing token {tok.text!r}", tok.line, tok.col)
    for _mode, alpha, npow in value:
        if any(alpha) or npow:
            raise ValidationError("algebra elements cannot contain xi or r factors")
    # the keys of one bag are distinct, so each mode occurs once
    return NCPolynomial(theta, {mode: s for (mode, _a, _p), s in value.items()})


# -- formatting ---------------------------------------------------------------


def _coeff_pieces(coeff: ComplexRational) -> tuple[str, list[str]]:
    """Sign and leading factor strings for an exact coefficient."""
    if coeff.im == 0:
        sign = "-" if coeff.re < 0 else "+"
        mag = abs(coeff.re)
        return sign, [] if mag == 1 else [str(mag)]
    if coeff.re == 0:
        sign = "-" if coeff.im < 0 else "+"
        mag = abs(coeff.im)
        factors = [] if mag == 1 else [str(mag)]
        return sign, factors + ["i"]
    im_mag = abs(coeff.im)
    im_txt = "i" if im_mag == 1 else f"{im_mag} * i"
    op = "+" if coeff.im > 0 else "-"
    return "+", [f"({coeff.re} {op} {im_txt})"]


def _power(base: str, exponent: int) -> str:
    return base if exponent == 1 else f"{base}^{exponent}"


_POWERS_OF_I = (ComplexRational(1), ComplexRational(0, 1), ComplexRational(-1), ComplexRational(0, -1))


# str() of an int past the interpreter's digit limit (4300 digits by
# default) raises ValueError; both writers refuse a coefficient holding an
# integer of more bits than this (at most 4215 digits) instead.
MAX_OUTPUT_BITS = 14_000


def _check_printable(coeff) -> None:
    if isinstance(coeff, ComplexRational):
        ints = (coeff.den, coeff.num.re, coeff.num.im)
    elif isinstance(coeff, CyclotomicScalar):
        ints = (coeff.den, *coeff.num.coeffs)
    else:
        return  # a float coefficient
    if max(x.bit_length() for x in ints) > MAX_OUTPUT_BITS:
        raise ValidationError(
            f"a result coefficient holds an integer of more than {MAX_OUTPUT_BITS} bits, "
            "too long to write"
        )


def _unit_pieces(theta: Theta | None, coeff, *, any_root: bool = False) -> list[tuple]:
    """Split a coefficient into (Q(i) part, root order, exponent) pieces.

    Each piece denotes coeff * zeta_order^exponent.  A complex-rational or
    float coefficient is one piece with exponent 0.  The root of a piece
    of a cyclotomic coefficient is written as i^a * zeta_q^b with q the
    theta denominator, i^a going into the Q(i) part, so the order is q.  A
    root outside that group raises ``DomainError``; with ``any_root`` its
    piece keeps the coefficient's own root zeta_(coeff.order)^j instead.
    """
    _check_printable(coeff)
    if not isinstance(coeff, CyclotomicScalar):
        return [(coeff, 1, 0)]
    q = theta.exact.denominator
    pieces = []
    for j, c in enumerate(coeff.coeffs):
        if c == 0:
            continue
        try:
            a, b = decompose_root(coeff.order, j, q)
        except DomainError:
            if not any_root:
                raise
            pieces.append((ComplexRational(c), coeff.order, j))
        else:
            pieces.append((_POWERS_OF_I[a] * c, q, b))
    return pieces


def _phase_word_factors(theta: Theta, b: int) -> list[str]:
    # zeta_q^b as the group commutator V U^t V^-1 U^-t with p*t == b (mod q)
    q = theta.exact.denominator
    p = theta.exact.numerator % q
    t = (b * pow(p, -1, q)) % q
    return ["V", _power("U", t), "V^-1", f"U^-{t}"]


def _mode_factors(theta: Theta | None, mode, b: int) -> list[str]:
    """The factors of a mode: ``e(...)``, or the phase word of zeta_q^b and U^m V^n."""
    if theta is None:
        return ["e(" + ",".join(map(str, mode)) + ")"] if any(mode) else []
    m, n = mode
    factors = _phase_word_factors(theta, b) if b else []
    if m:
        factors.append(_power("U", m))
    if n:
        factors.append(_power("V", n))
    # a twisted term always names a word, so the document reads as twisted
    return factors or ["U^0", "V^0"]


def _term_texts(theta: Theta | None, mode, alpha, npow, coeff) -> list[tuple[str, str]]:
    """Sign and text of each term written for one stored term."""
    out = []
    for c, _order, b in _unit_pieces(theta, coeff):
        sign, factors = _coeff_pieces(c)
        factors += _mode_factors(theta, mode, b)
        factors += [_power(f"xi{i + 1}", a) for i, a in enumerate(alpha) if a]
        if npow:
            factors.append(f"r^{npow}")
        out.append((sign, " * ".join(factors or ["1"])))
    return out


def _check_text_twist(theta: Theta | None) -> None:
    if theta is not None and not theta.is_exact:
        raise ValidationError("the text format requires an exact theta; use the JSON form")


def format_terms(terms: dict, theta: Theta | None = None) -> str:
    """Render a ``(mode, alpha, npow) -> coeff`` bag of exact coefficients.

    The terms appear in sorted key order with the factors of the text
    format: ``e(...)`` modes, or U/V words at the exact twist ``theta``;
    an empty bag renders as ``0``.
    """
    _check_text_twist(theta)
    pieces = [
        piece
        for (mode, alpha, npow), coeff in sorted(terms.items())
        for piece in _term_texts(theta, mode, alpha, npow, coeff)
    ]
    if not pieces:
        return "0"
    (sign, text), rest = pieces[0], pieces[1:]
    head = "-" + text if sign == "-" else text
    return head + "".join(f" {s} {t}" for s, t in rest)


def _materialized_floor(sym) -> int:
    if sym.trusted_floor is not None:
        return sym.trusted_floor
    degs = sym.degrees()
    return min(degs) if degs else sym.order


def _twist(sym, verb: str) -> Theta | None:
    """The twist of a symbol, None for a commutative one."""
    if isinstance(sym, NCSymbol):
        return sym.theta
    if isinstance(sym, ClassicalSymbol):
        return None
    raise TypeError(f"cannot {verb} {type(sym).__name__}")


def _theta_text(theta: Theta) -> str:
    return f"{theta.exact.numerator}/{theta.exact.denominator}"


def format_symbol(sym) -> str:
    """Deterministic canonical rendering; parse(format(s)) == s on DSL symbols."""
    theta = _twist(sym, "format")
    _check_text_twist(theta)
    header = f"dim {sym.n} order {sym.order} floor {_materialized_floor(sym)}"
    if theta is not None:
        header += f" theta {_theta_text(theta)}"
    lines = [header]
    for deg, bag in sorted(sym._term_bags().items(), reverse=True):
        lines.append(f"deg {deg} {{ {format_terms(bag, theta)} }}")
    return "\n".join(lines)


# -- JSON mirror ---------------------------------------------------------------


def _coeff_to_json(coeff) -> dict:
    if isinstance(coeff, ComplexRational):
        return {"re": str(coeff.re), "im": str(coeff.im)}
    return {"re": coeff.real, "im": coeff.imag}


def _brief(value) -> str:
    """repr(value) for a message, cut to 60 characters."""
    try:
        text = repr(value)
    except ValueError:  # holds an integer past the interpreter's digit limit
        return "<a value with a very long integer>"
    return text if len(text) <= 60 else text[:57] + "..."


def _json_fraction(value) -> Fraction:
    """The rational a JSON number or string such as "-3/4" or "1e-3" denotes.

    Raises ``ValueError`` for anything else, and for a numerator or
    denominator of more than ``MAX_DIGITS`` digits; a decimal exponent is
    checked before it is expanded.
    """
    text = value if isinstance(value, str) else str(value)
    m = _DECIMAL_EXPONENT.search(text)
    if m and abs(int(m.group(1))) > MAX_DIGITS:
        raise ValueError(f"exponent beyond {MAX_DIGITS}")
    f = Fraction(text)
    if max(abs(f.numerator), f.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    return f


def _coeff_from_json(data, exact: bool):
    if not isinstance(data, dict) or "re" not in data or "im" not in data:
        raise ValidationError("coeff must be an object with re and im fields")
    re_v, im_v = data["re"], data["im"]
    if exact and (isinstance(re_v, float) or isinstance(im_v, float)):
        raise ValidationError("exact symbols require string or integer coefficients")
    try:
        re_f, im_f = _json_fraction(re_v), _json_fraction(im_v)
        if exact:
            return ComplexRational(re_f, im_f)
        return complex(float(re_f), float(im_f))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad coefficient {_brief(re_v)}, {_brief(im_v)}: {exc}") from None


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false is no degree or exponent
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {_brief(value)}")
    if abs(value) >= _DIGIT_BOUND:
        raise ValidationError(f"{what} has more than {MAX_DIGITS} digits")
    return value


def _json_ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list of integers, got {_brief(value)}")
    return tuple(_json_int(v, what) for v in value)


def _json_phase(value) -> tuple[int, int]:
    """The root order q and exponent b of a term's ``"phase": [q, b]``."""
    phase = _json_ints(value, "phase")
    if len(phase) != 2:
        raise ValidationError(f"bad phase {value}")
    if phase[0] < 1:
        raise DomainError(f"root order must be positive, got {phase[0]}")
    return phase


def symbol_to_json(sym) -> dict:
    """The JSON mirror of the text format, one object per degree block."""
    theta = _twist(sym, "serialize")
    blocks = []
    for deg, bag in sorted(sym._term_bags().items(), reverse=True):
        terms = []
        for (mode, alpha, npow), coeff in sorted(bag.items()):
            for c, root_order, b in _unit_pieces(theta, coeff, any_root=True):
                entry = {"coeff": _coeff_to_json(c)}
                if theta is not None:
                    entry["nc"] = list(mode)
                entry["alpha"] = list(alpha)
                entry["npow"] = npow
                if theta is None and any(mode):
                    entry["mode"] = list(mode)
                if b:
                    entry["phase"] = [root_order, b]
                terms.append(entry)
        blocks.append({"deg": deg, "terms": terms})
    out = {"dim": sym.n, "order": sym.order, "floor": _materialized_floor(sym), "blocks": blocks}
    if theta is not None:
        out["theta"] = _theta_text(theta) if theta.is_exact else theta.approximate
    return out


def symbol_from_json(data: dict):
    """Inverse of symbol_to_json; validates the same rules as the text parser."""
    if not isinstance(data, dict):
        raise ValidationError("symbol JSON must be an object")
    try:
        dim, order, floor = (_json_int(data[key], key) for key in ("dim", "order", "floor"))
    except KeyError as exc:
        raise ValidationError(f"bad or missing header field: {exc}") from None
    _check_dimension(dim)
    theta = None
    if "theta" in data and data["theta"] is not None:
        raw = data["theta"]
        if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
            raise ValidationError(f"bad theta {_brief(raw)}: not a number")
        if isinstance(raw, (str, int)):
            try:
                theta = Theta.from_rational(_json_fraction(raw))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad theta {_brief(raw)}: {exc}") from None
        else:
            theta = Theta.from_float(raw)
        if dim != 2:
            raise ValidationError("twisted symbols require dim 2")
        if theta.is_exact:
            cyclotomic_order = _check_cyclotomic_order(
                math.lcm(4, theta.exact.denominator), f"theta {theta.exact}"
            )
    blocks: dict[int, dict] = {}
    block_list = data.get("blocks", [])
    if not isinstance(block_list, list):
        raise ValidationError("blocks must be a list")
    for block in block_list:
        if not isinstance(block, dict) or "deg" not in block:
            raise ValidationError("each block must be an object with a deg field")
        deg = _json_int(block["deg"], "block deg")
        bucket = blocks.setdefault(deg, {})
        term_list = block.get("terms", [])
        if not isinstance(term_list, list):
            raise ValidationError(f"terms of block deg {deg} must be a list")
        for term in term_list:
            if not isinstance(term, dict) or "coeff" not in term:
                raise ValidationError("each term must be an object with a coeff field")
            alpha = _json_ints(term.get("alpha", (0,) * dim), "alpha")
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise ValidationError(f"bad xi multi-index {list(alpha)}")
            npow = _json_int(term.get("npow", 0), "npow")
            _check_exponents(alpha, npow)
            if sum(alpha) + npow != deg:
                raise ValidationError(
                    f"term of degree {sum(alpha) + npow} in a block declared deg {deg}"
                )
            has_mode = "mode" in term
            has_nc = "nc" in term
            if theta is None:
                if has_nc:
                    raise ValidationError("nc terms require a theta field")
                mode = _json_ints(term.get("mode", (0,) * dim), "mode")
                if len(mode) != dim:
                    raise ValidationError(f"bad Fourier mode {term.get('mode')}")
                coeff = _coeff_from_json(term["coeff"], exact=True)
                T.bag_add(bucket, (mode, alpha, npow), coeff)
            else:
                if has_mode:
                    raise ValidationError("e-modes cannot appear in a twisted symbol")
                mode = _json_ints(term.get("nc", (0, 0)), "nc")
                if len(mode) != 2:
                    raise ValidationError(f"bad U/V exponents {term.get('nc')}")
                scalar = _coerce_scalar(
                    theta, _coeff_from_json(term["coeff"], exact=theta.is_exact)
                )
                if "phase" in term:
                    q, b = _json_phase(term["phase"])
                    if theta.is_exact:
                        cyclotomic_order = _check_cyclotomic_order(
                            math.lcm(cyclotomic_order, q), f"phase {[q, b]}"
                        )
                        scalar = scalar * CyclotomicScalar.root_of_unity(q, b)
                    else:
                        scalar = scalar * cmath.exp(2j * cmath.pi * (b % q) / q)
                T.bag_add(bucket, (mode, alpha, npow), scalar)
    return _build_symbol(dim, order, floor, theta, blocks)


# -- random generation ----------------------------------------------------------


# A random symbol draws its coefficients from 36 values and its modes and
# multi-indices from a few hundred, and all three are immutable, so equal
# ones share one object: the 512 pairs of the trace-n3 benchmark's set-up
# take about 1.2 MB less memory.
@lru_cache(maxsize=None)
def _drawn_coefficient(num: int, den: int, imaginary: bool) -> ComplexRational:
    f = Fraction(num, den)
    return ComplexRational(0, f) if imaginary else ComplexRational(f)


@lru_cache(maxsize=4096)
def _shared_index(index: tuple[int, ...]) -> tuple[int, ...]:
    return index


def random_symbol(
    seed: int,
    *,
    dim: int,
    order: int,
    depth: int,
    max_mode: int,
    max_alpha: int,
    theta=None,
):
    """A deterministic pseudo-random symbol with small rational coefficients.

    Components run from ``order`` down through ``depth`` further degrees, so
    the trusted floor is ``order - depth``.  The draw sequence does not
    depend on ``theta``, which keeps the integer data fixed when the same
    seed is instantiated at several twists.
    """
    if dim < 2:
        raise ValidationError(f"dim must be at least 2, got {dim}")
    if depth < 0 or max_mode < 0 or max_alpha < 0:
        raise ValidationError("depth, max_mode and max_alpha must be nonnegative")
    if theta is not None:
        if not isinstance(theta, Theta):
            theta = (
                Theta.from_rational(theta)
                if isinstance(theta, (int, Fraction))
                else Theta.from_float(theta)
            )
        if dim != 2:
            raise ValidationError("twisted symbols require dim 2")
    rng = random.Random(seed)
    floor = order - depth
    blocks: dict[int, dict] = {}
    for deg in range(order, floor - 1, -1):
        if deg != order and rng.random() < 0.2:
            continue
        bag = blocks[deg] = {}
        for _ in range(rng.randint(1, 2)):
            mode = tuple(rng.randint(-max_mode, max_mode) for _ in range(dim))
            total = rng.randint(0, max_alpha)
            alpha = [0] * dim
            for _ in range(total):
                alpha[rng.randrange(dim)] += 1
            npow = deg - total
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            den = rng.randint(1, 3)
            coeff = _drawn_coefficient(num, den, rng.random() < 0.25)
            T.bag_add(bag, (_shared_index(mode), _shared_index(tuple(alpha)), npow), coeff)
    return _build_symbol(dim, order, floor, theta, blocks)


def format_nc_element(poly: NCPolynomial) -> str:
    """Human-readable rendering of an algebra element."""
    if not poly.coeffs:
        return "0"
    parts = []
    for (m, n), s in sorted(poly.coeffs.items()):
        word = "*".join(_power(g, e) for g, e in (("U", m), ("V", n)) if e)
        parts.append(f"({s}) * {word or '1'}")
    return " + ".join(parts)
