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

Reading is one pass.  One ``finditer`` scan tokenizes a document, an
unexpected character included; a token keeps its kind, text and offset,
and the line and column of an error are worked out from the offset when
it is raised.  Each term's factors are then folded left to right into one
monomial: a rational, a power of i, the mode, alpha and |xi| power summed,
and one phase exponent, to which U^c read after a V exponent v adds v*c
(the phase(v, c) of ``terms.mul_terms``; nothing is reordered).  Its
coefficient is built once.  A parenthesized factor of one term folds in
alike; one of several terms is multiplied in with ``mul_terms``, and the
document's products of such factors are held to ``MAX_TERM_PRODUCTS``
term products.  An exact twisted coefficient is stored at the cyclotomic
order the factor-by-factor product gives it, which the text writer's
pieces follow, so the result is the factor-by-factor product, term for
term and order for order.

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

from . import terms as T
from .cyclotomic import CyclotomicInteger, CyclotomicScalar, decompose_root
from .errors import DomainError, ParseError, ValidationError
from .nctorus import NCPolynomial, NCSymbol, Theta, _system_for
from .scalars import ComplexRational
from .symbols import ClassicalSymbol


# One scan reads a document: every match is optional whitespace followed by
# a number, a name, an operator, a character no token starts with, or the end.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<NUMBER>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(){},])"
    r"|(?P<bad>\S)|\Z)"
)


def _position(text: str, pos: int) -> tuple[int, int]:
    """Line and column, from 1, of an offset; no token holds a newline."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, its kind "NUMBER", "NAME" or the
    operator itself, then an end token of kind "" at the last one's offset."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # only whitespace was left
            break
        chunk, pos = m[kind], m.start(kind)
        if kind == "op":
            kind = chunk
        elif kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", *_position(text, pos))
        elif kind == "NUMBER" and len(chunk) > MAX_DIGITS:
            raise ParseError(f"number with more than {MAX_DIGITS} digits", *_position(text, pos))
        tokens.append((kind, chunk, pos))
    tokens.append(("", "", tokens[-1][2] if tokens else 0))
    return tokens


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

# Parenthesized sums multiply out term by term, so a 1.3 kB document of
# twelve sums of sixteen terms would build 17 million terms; the term
# products (pairs of terms multiplied) of one document are held to this many.
MAX_TERM_PRODUCTS = 50_000

# A document written out term by term costs time in proportion to its terms;
# its terms as written (inside parentheses too) are held to this many.
MAX_DOCUMENT_TERMS = 10_000


def _count_terms(count: int) -> int:
    if count > MAX_DOCUMENT_TERMS:
        raise ValidationError(f"a document may hold at most {MAX_DOCUMENT_TERMS} terms")
    return count


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


@lru_cache(maxsize=256)
def _root_at(q: int, e: int, order: int) -> CyclotomicInteger:
    """zeta_q^e stored at ``order``, a multiple of its primitive order."""
    root = CyclotomicInteger.root_of_unity(q, e)
    return root if root.order == order else CyclotomicInteger(order, root._at(order))


class _Parser:
    def __init__(self, text: str, dim: int = 2, theta: Theta | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.saw_uv = False
        self.products = self.terms = 0
        self.set_kind(dim, theta)

    def set_kind(self, dim: int, theta: Theta | None) -> None:
        """Fix the dimension and twist that expressions are read in."""
        self.dim = dim
        self.theta = theta
        self.system = _system_for(theta)
        self.cyclotomic = isinstance(self.system, T.CyclotomicSystem)

    # -- token plumbing ----------------------------------------------------

    def at(self, tok) -> str:
        """The " (line L, column C)" of a token, for a message."""
        return " (line {}, column {})".format(*_position(self.text, tok[2]))

    def error(self, message: str, tok) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def peek(self) -> str:
        """The kind of the next token, "" past the last one."""
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        if not tok[0]:
            raise self.error("unexpected end of input", tok)
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, text: str | None = None):
        """The next token, which must be of this kind (and text, if given)."""
        tok = self.next()
        if tok[0] != kind or text is not None and tok[1] != text:
            raise self.error(f"expected {text or kind!r}, found {tok[1]!r}", tok)
        return tok

    # -- numeric atoms -------------------------------------------------------

    def parse_int(self) -> int:
        negative = self.accept("-")
        value = int(self.expect("NUMBER")[1])
        return -value if negative else value

    def ratio(self, num: str, negative: bool = False) -> int | Fraction:
        """The number, negated if asked, over the NUMBER after a "/" if one follows."""
        value = -int(num) if negative else int(num)
        if not self.accept("/"):
            return value
        den = self.expect("NUMBER")
        if int(den[1]) == 0:
            raise self.error("zero denominator", den)
        return Fraction(value, int(den[1]))

    # -- document ------------------------------------------------------------

    def parse_document(self):
        self.expect("NAME", "dim")
        dim = self.parse_int()
        _check_dimension(dim)
        self.expect("NAME", "order")
        order = self.parse_int()
        self.expect("NAME", "floor")
        floor = self.parse_int()
        theta = None
        if self.tokens[self.pos][:2] == ("NAME", "theta"):
            self.pos += 1
            negative = self.accept("-")
            theta = Theta.from_rational(self.ratio(self.expect("NUMBER")[1], negative))
            if dim != 2:
                raise ValidationError("twisted symbols require dim 2")
            _check_cyclotomic_order(
                math.lcm(4, theta.exact.denominator), f"theta {theta.exact}"
            )
        self.set_kind(dim, theta)
        blocks: dict[int, dict] = {}
        while self.peek():
            self.expect("NAME", "deg")
            deg_tok = self.tokens[self.pos]
            deg = self.parse_int()
            self.expect("{")
            value = self.parse_expr()
            self.expect("}")
            for _m, alpha, npow in value:
                if max(*alpha, abs(npow)) > MAX_EXPONENT or sum(alpha) + npow != deg:
                    where = self.at(deg_tok)
                    _check_exponents(alpha, npow, where)
                    raise ValidationError(
                        f"term of degree {sum(alpha) + npow} in a block declared deg {deg}{where}"
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
        value = self.parse_term(self.accept("-"))
        while self.peek() in ("+", "-"):
            for key, s in self.parse_term(self.next()[0] == "-").items():
                T.bag_add(value, key, s)
        return value

    def parse_term(self, negative: bool) -> dict:
        """A term, its factors folded left to right into one monomial.

        The monomial is a rational num times i^ipow, the summed mode, alpha
        and |xi| power, the phase q^t (U^c read after a V exponent v adds
        v*c to t, the phase(v, c) of ``mul_terms``) and ``scale``, the
        coefficients of one-term parenthesized factors.  A factor of several
        terms is the only product: the running product becomes
        (bag * monomial) * factor and a new monomial starts.  After one, a
        twisted term multiplies each U and parenthesized factor in as
        ``mul_terms`` would, one phase step per term of the bag.  A term of
        one factor is that factor's bag, a zero coefficient kept.
        """
        dim, twisted = self.dim, self.theta is not None
        bag, count = None, 0
        self.terms = _count_terms(self.terms + 1)
        while True:
            num, ipow, t, steps, scale = 1, 0, 0, 0, None
            mode, alpha, npow = [0] * dim, [0] * dim, 0
            folded, sub, done = False, None, False
            while True:
                kind, name, _pos = tok = self.next()
                count += 1
                if kind == "NUMBER":
                    num *= self.ratio(name)
                elif kind == "(":
                    sub = self.parse_expr()
                    self.expect(")")
                    if count == 1 and self.peek() != "*":
                        bag, sub, done = sub, None, True
                        break
                    if len(sub) > 1 or sub and twisted and bag is not None:
                        break
                    if sub:
                        ((m, a, p), s), = sub.items()
                        t, steps = t + mode[1] * m[0], math.gcd(steps, mode[1] * m[0])
                        mode = [x + y for x, y in zip(mode, m)]
                        alpha = [x + y for x, y in zip(alpha, a)]
                        npow, scale = npow + p, s if scale is None else scale * s
                    else:  # a sum that cancelled
                        num = 0
                    sub = None
                elif kind != "NAME":
                    raise self.error(f"unexpected token {name!r}", tok)
                elif name == "i":
                    ipow += 1
                elif name == "U" or name == "V":
                    if name == "U" and twisted and bag is not None and folded:
                        self.pos, count = self.pos - 1, count - 1  # close the monomial first
                        break
                    self.saw_uv = True
                    c = self.parse_int() if self.accept("^") else 1
                    if name == "U":
                        t, steps = t + mode[1] * c, math.gcd(steps, mode[1] * c)
                    mode[0 if name == "U" else 1] += c
                elif name[:2] == "xi" and name[2:].isdigit():
                    idx = int(name[2:]) if len(name) <= MAX_DIGITS + 2 else 0
                    if not 1 <= idx <= dim:
                        raise ValidationError(f"{name} is out of range for dim {dim}{self.at(tok)}")
                    c = self.parse_int() if self.accept("^") else 1
                    if c < 0:
                        raise ValidationError(f"xi exponents must be nonnegative, got {c}"
                                              + self.at(tok))
                    alpha[idx - 1] += c
                elif name == "r":
                    self.expect("^")
                    npow += self.parse_int()
                elif name == "e":
                    self.expect("(")
                    entries = [self.parse_int()]
                    while self.accept(","):
                        entries.append(self.parse_int())
                    self.expect(")")
                    if len(entries) != dim:
                        raise ValidationError(f"mode e({', '.join(map(str, entries))}) has length "
                                              f"{len(entries)}, expected {dim}{self.at(tok)}")
                    if twisted:
                        raise ValidationError("e(...) modes cannot appear in a twisted document"
                                              + self.at(tok))
                    mode = [x + y for x, y in zip(mode, entries)]
                else:
                    raise self.error(f"unexpected token {name!r}", tok)
                folded = True
                if not self.accept("*"):
                    done = True
                    break
            if folded:
                coeff = self.coefficient(num, ipow, t, steps, scale)
                left = {(tuple(mode), tuple(alpha), npow): coeff} if coeff or count == 1 else {}
                bag = left if bag is None else self.multiply(bag, left)
            if sub is not None:
                bag = sub if bag is None else self.multiply(bag, sub)
                done = not self.accept("*")
            if done:
                return {key: -s for key, s in bag.items()} if negative else bag

    def coefficient(self, num, ipow: int, t: int, steps: int, scale):
        """num * i^ipow * q^t * scale, built once.  An exact cyclotomic one is
        stored at the order the factor-by-factor product has: the lcm of 4 if
        an ``i`` was read, of the orders of the phase steps (the theta
        denominator over its gcd with ``steps``) and of the orders in ``scale``.
        """
        p = -num.numerator if ipow & 2 else num.numerator  # num is in lowest terms
        re, im = (0, p) if ipow & 1 else (p, 0)
        system = self.system
        c = system.coerce(ComplexRational._make(re, im, num.denominator))
        if self.cyclotomic:
            q = system.theta_den
            order = q // math.gcd(q, steps)
            if ipow:
                order = math.lcm(order, 4)
            e = system.theta_num * t % q
            if num and (e or order > (4 if ipow & 1 else 1)):
                c = c * _root_at(q, e, order)
        elif t and system.phase is not None:  # a float twist
            c = c * system.phase(t, 1)
        return c if scale is None else c * scale

    def multiply(self, left: dict, right: dict) -> dict:
        """``mul_terms`` of two bags, within the document's term products."""
        self.products += len(left) * len(right)
        if self.products > MAX_TERM_PRODUCTS:
            raise ValidationError(
                f"multiplying out parenthesized sums needs at least {self.products} "
                f"term products, beyond the limit {MAX_TERM_PRODUCTS}"
            )
        return T.mul_terms(self.system, self.dim, left, right)


def _build_symbol(dim: int, order: int, floor: int, theta: Theta | None, blocks: dict):
    """The symbol of ``(mode, alpha, npow) -> coeff`` degree blocks, whose
    coefficients are already the system's, after checking them against the
    header."""
    for deg in blocks:
        if deg > order:
            raise ValidationError(f"block degree {deg} exceeds order {order}")
        if deg < floor:
            raise ValidationError(f"block degree {deg} lies below floor {floor}")
    sym = object.__new__(ClassicalSymbol if theta is None else NCSymbol)
    sym._init_raw(dim if theta is None else theta, order, blocks.items(), floor)
    return sym


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
    tok = parser.tokens[parser.pos]
    if tok[0]:
        raise parser.error(f"unexpected trailing token {tok[1]!r}", tok)
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
        ints = (coeff.den, coeff.a, coeff.b)
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
    system = _system_for(theta)
    blocks: dict[int, dict] = {}
    count = 0
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
        count = _count_terms(count + len(term_list))
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
                scalar = system.coerce(_coeff_from_json(term["coeff"], exact=theta.is_exact))
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


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), n > 0, as CPython's ``Random._randbelow_with_getrandbits``
    makes it for ``randrange``, ``randint`` and ``choice``: the same bits, the same value."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# the Theta of an int or Fraction (exact) or float twist, once per value and type
_twist_of = lru_cache(maxsize=64, typed=True)(lambda value: (
    Theta.from_rational(value) if isinstance(value, (int, Fraction)) else Theta.from_float(value)))


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
    seed is instantiated at several twists, and is that of ``random.Random(seed)``.
    """
    if dim < 2:
        raise ValidationError(f"dim must be at least 2, got {dim}")
    if depth < 0 or max_mode < 0 or max_alpha < 0:
        raise ValidationError("depth, max_mode and max_alpha must be nonnegative")
    if theta is not None:
        if not isinstance(theta, Theta):
            theta = (_twist_of(theta) if isinstance(theta, (int, Fraction, float))
                     else Theta.from_float(theta))
        if dim != 2:
            raise ValidationError("twisted symbols require dim 2")
    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random
    floor = order - depth
    blocks: dict[int, dict] = {}
    for deg in range(order, floor - 1, -1):
        if deg != order and uniform() < 0.2:
            continue
        bag = blocks[deg] = {}
        for _ in range(1 + _below(bits, 2)):  # randint(1, 2)
            # randint(-max_mode, max_mode) per entry
            mode = tuple([_below(bits, 2 * max_mode + 1) - max_mode for _ in range(dim)])
            total = _below(bits, max_alpha + 1)  # randint(0, max_alpha)
            alpha = [0] * dim
            for _ in range(total):
                alpha[_below(bits, dim)] += 1  # randrange(dim)
            num = (-3, -2, -1, 1, 2, 3)[_below(bits, 6)]  # choice of the six
            den = 1 + _below(bits, 3)  # randint(1, 3)
            coeff = _drawn_coefficient(num, den, uniform() < 0.25)
            T.bag_add(bag, (_shared_index(mode), _shared_index(tuple(alpha)), deg - total), coeff)
    if theta is not None:  # the twist's system takes each summed exact draw once
        coerce = _system_for(theta).coerce
        blocks = {deg: {key: coerce(s) for key, s in bag.items()} for deg, bag in blocks.items()}
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
