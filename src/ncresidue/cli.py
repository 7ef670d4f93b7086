"""Command-line interface exposing the calculus.

Exit codes: 0 success, 1 parse error or unreadable input file,
2 validation/domain error, 3 insufficient expansion depth,
4 property-check failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .calculus import (
    commutator_exp,
    commutator_xi,
    compose,
    residue,
    trace_defect,
    uniqueness_decompose,
)
from .cyclotomic import CyclotomicScalar
from .dsl import (
    _coeff_to_json,
    format_nc_element,
    format_symbol,
    format_terms,
    parse_nc_element,
    parse_symbol,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
)
from .errors import (
    InsufficientExpansionError,
    ParseError,
    ValidationError,
)
from .nctorus import (
    NCSymbol,
    Theta,
    nc_apply,
    nc_residue,
    nc_trace_defect,
    semiclassical_check,
)
from .scalars import PiGradedScalar

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_INSUFFICIENT = 3
EXIT_PROPERTY = 4


class _UnreadableInput(Exception):
    """A document file that could not be read; exits like a parse error."""


def _read_document(path: str, stdin_used: list[bool]):
    if path == "-":
        if stdin_used[0]:
            raise ValidationError("standard input can supply only one document")
        stdin_used[0] = True
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise _UnreadableInput(f"cannot read {path}: {reason}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise ParseError(f"invalid JSON: {exc}") from None
        return symbol_from_json(data)
    return parse_symbol(text)


def _expect(sym, twisted: bool):
    """The symbol, if it is of the calculus a command works in."""
    if isinstance(sym, NCSymbol) != twisted:
        raise ValidationError(
            "this command expects a twisted symbol (theta header required)"
            if twisted
            else "this command expects a commutative symbol; use the nc- variant"
        )
    return sym


def _pi_value_json(value: PiGradedScalar) -> dict:
    out: dict = {"pi_exponent": str(value.pi_exponent)}
    c = value.coeff
    if isinstance(c, CyclotomicScalar):
        out["order"] = c.order
        out["coeffs"] = [str(x) for x in c.coeffs]
    else:
        out.update(_coeff_to_json(c))
    return out


def _emit_value(value: PiGradedScalar, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"value": _pi_value_json(value)}))
    else:
        print(str(value))


def _emit_symbol(sym, as_json: bool) -> None:
    if as_json:
        print(json.dumps(symbol_to_json(sym)))
    else:
        print(format_symbol(sym))


def _cmd_residue(args) -> int:
    """``residue`` and ``nc-residue``."""
    twisted = args.command == "nc-residue"
    sym = _expect(_read_document(args.input, args._stdin_used), twisted)
    _emit_value((nc_residue if twisted else residue)(sym), args.json)
    return EXIT_OK


def _cmd_compose(args) -> int:
    """``compose`` and ``nc-compose``."""
    twisted = args.command == "nc-compose"
    left = _read_document(args.left, args._stdin_used)
    right = _read_document(args.right, args._stdin_used)
    _emit_symbol(compose(_expect(left, twisted), _expect(right, twisted)), args.json)
    return EXIT_OK


def _random_pair(rng: random.Random, dim: int, theta: Fraction | None):
    """A seeded pair of symbols whose composition reaches degree -dim."""
    top, size = (2, 3) if theta is None else (1, 2)
    m1 = rng.randint(-1, top)
    m2 = rng.randint(-1, top)
    return tuple(
        random_symbol(rng.getrandbits(32), dim=dim, order=m, depth=m1 + dim + m2,
                      max_mode=size, max_alpha=size, theta=theta)
        for m in (m1, m2)
    )


def _cmd_trace_check(args) -> int:
    """``trace-check`` and ``nc-trace-check``: the trace defect of random pairs."""
    if args.command == "trace-check":
        dim, theta, defect_of = args.dim, None, trace_defect
        key, value = "dim", args.dim
    else:
        theta = Theta.from_rational(args.theta).exact
        dim, defect_of = 2, nc_trace_defect
        key, value = "theta", str(theta)
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        defect = defect_of(*_random_pair(rng, dim, theta))
        if not defect.is_zero():
            failures += 1
            print(f"trial {trial}: nonzero defect {defect}", file=sys.stderr)
    if args.json:
        print(json.dumps({"trials": args.trials, key: value, "seed": args.seed,
                          "failures": failures}))
    else:
        status = "ok" if failures == 0 else "FAILED"
        print(
            f"{args.command}: {args.trials} trials, {key} {value}, "
            f"{failures} failures [{status}]"
        )
    return EXIT_OK if failures == 0 else EXIT_PROPERTY


def _cmd_decompose(args) -> int:
    sym = _expect(_read_document(args.input, args._stdin_used), False)
    cert = uniqueness_decompose(sym)
    direct = residue(sym)
    implied = cert.implied_residue()
    if args.json:
        payload = {
            "sphere_mean": {
                ",".join(map(str, mode)): {"re": str(c.re), "im": str(c.im)}
                for mode, c in sorted(cert.sphere_mean.coeffs.items())
            },
            "antiderivative_degrees": sorted(cert.antiderivative_families),
            "remainder_terms": len(cert.remainder.raw_terms()),
            "residue": _pi_value_json(direct),
            "implied_residue": _pi_value_json(implied),
            "consistent": direct == implied,
        }
        print(json.dumps(payload))
    else:
        mean = cert.sphere_mean
        mean_terms = {(mode, (0,) * mean.n, 0): c for mode, c in mean.coeffs.items()}
        print(f"sphere mean r(x) = {format_terms(mean_terms)}")
        for deg in sorted(cert.antiderivative_families, reverse=True):
            fam = cert.antiderivative_families[deg]
            print(f"degree {deg}: divergence of {len(fam)} antiderivatives")
        print(f"remainder = {format_terms(cert.remainder.raw_terms())}")
        print(f"residue = {direct}")
        print(f"implied residue = {implied}")
        print(f"consistent: {direct == implied}")
    return EXIT_OK


def _cmd_commutator(args) -> int:
    sym = _expect(_read_document(args.input, args._stdin_used), False)
    if args.with_kind == "xi":
        result = commutator_xi(sym, args.dir)
    else:
        depth = args.depth
        if depth is None:
            if sym.trusted_floor is None:
                raise ValidationError(
                    "--depth is required for a symbol with a complete expansion"
                )
            top = max(sym.degrees(), default=sym.order)
            depth = max(0, top - sym.trusted_floor + 1)
        result = commutator_exp(sym, args.dir, depth)
    _emit_symbol(result, args.json)
    return EXIT_OK


def _cmd_apply(args) -> int:
    sym = _expect(_read_document(args.input, args._stdin_used), True)
    element = parse_nc_element(args.element, sym.theta)
    out = nc_apply(sym, element)
    if args.json:
        payload = [
            {"nc": [m, n], "re": s.real, "im": s.imag}
            for (m, n), s in sorted(out.coeffs.items())
        ]
        print(json.dumps({"result": payload}))
    else:
        print(format_nc_element(out))
    return EXIT_OK


def _cmd_semiclassical(args) -> int:
    sym = _expect(_read_document(args.input, args._stdin_used), True)
    report = semiclassical_check(sym)
    if args.json:
        print(
            json.dumps(
                {
                    "lhs": _pi_value_json(report.lhs),
                    "rhs": _pi_value_json(report.rhs),
                    "equal": report.equal,
                }
            )
        )
    else:
        print(f"euclidean residue = {report.lhs}")
        print(f"(2*pi)^2 * twisted residue = {report.rhs}")
        print(f"equal: {report.equal}")
    return EXIT_OK if report.equal else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncres",
        description="Exact residue calculus for symbols on ordinary and quantum tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    p = add("residue", _cmd_residue, help="residue of a commutative symbol")
    p.add_argument("input", help="symbol file, or - for stdin")

    p = add("compose", _cmd_compose, help="compose two commutative symbols")
    p.add_argument("left")
    p.add_argument("right")

    p = add("nc-residue", _cmd_residue, help="residue of a twisted symbol")
    p.add_argument("input")

    p = add("nc-compose", _cmd_compose, help="compose two twisted symbols")
    p.add_argument("left")
    p.add_argument("right")

    p = add("trace-check", _cmd_trace_check, help="randomized trace-property check")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)

    p = add(
        "nc-trace-check",
        _cmd_trace_check,
        help="randomized twisted trace-property check",
    )
    p.add_argument("--theta", required=True, help="rational twist p/q")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("decompose", _cmd_decompose, help="uniqueness-proof decomposition")
    p.add_argument("input")

    p = add("commutator", _cmd_commutator, help="commutator with xi_l or e^(i x_l)")
    p.add_argument("--with", dest="with_kind", choices=["xi", "exp"], required=True)
    p.add_argument("--dir", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("input")

    p = add("apply", _cmd_apply, help="apply a twisted symbol to an algebra element")
    p.add_argument("--element", required=True, help="e.g. 'U*V + 2'")
    p.add_argument("input")

    p = add(
        "semiclassical-check",
        _cmd_semiclassical,
        help="compare euclidean and twisted residues at theta 0",
    )
    p.add_argument("input")

    return parser


_TEXT_OPTIONS = ("--element", "--theta")


def _attach_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Write ``--element X`` as ``--element=X``, and likewise ``--theta``.

    As with getopt, an option that needs a value takes the next word even
    when it starts with a minus sign (an element such as ``-U``, a twist
    such as ``-1/3``); argparse alone would read that word as an unknown
    option.  A prefix that argparse expands to one of these options within
    the command (``--elem``, ``--the``) is written the same way; an
    ambiguous one (``--t``: ``--theta`` or ``--trials``) is left for
    argparse to refuse.
    """
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    # the command's option strings, once it is named: argparse expands a
    # prefix against these same strings
    options: tuple = ()
    out = []
    words = iter(argv)
    for word in words:
        if not options and word in commands:
            options = tuple(commands[word]._option_string_actions)
        elif word.startswith("--") and "=" not in word:
            matches = [o for o in options if o.startswith(word)]
            if word in options:
                matches = [word]
            if len(matches) == 1 and matches[0] in _TEXT_OPTIONS:
                value = next(words, None)
                if value is not None:
                    word = f"{word}={value}"
        out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_values(parser, sys.argv[1:] if argv is None else list(argv)))
    args._stdin_used = [False]
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _UnreadableInput as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except InsufficientExpansionError as exc:
        print(f"insufficient expansion: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
