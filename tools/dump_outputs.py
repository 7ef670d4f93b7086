"""Print the exact outputs of a checkout of ncresidue, one entry per line.

    python3 tools/dump_outputs.py PATH > outputs.txt

PATH is the root of a checkout; the package is imported from its ``src/``.
Run it on two checkouts and compare the two files with ``diff``: an empty
diff shows that a change keeps every exact output byte-identical.  The
script uses the standard library only and writes nothing outside a
temporary directory, which it removes.

It prints, on seeded inputs:

- ``format_symbol``, ``symbol_to_json`` and ``repr`` of ``compose`` in both
  orders for classical pairs in dimensions 2 and 3, and of ``nc_compose``
  in both orders for twisted pairs at theta 2/5, 5/12, 7/30, 0 and 1/2
  (the ``repr`` of a twisted coefficient shows its cyclotomic order);
- the residue of each composition without composing, in both orders, and
  the trace defect;
- stdout, stderr and the exit code of ``ncres residue``, ``nc-residue``,
  ``compose``, ``nc-compose``, ``decompose``, ``commutator --with xi|exp``,
  ``apply``, ``semiclassical-check``, ``trace-check`` and
  ``nc-trace-check``, with and without ``--json``, every document command
  also fed a document of the other calculus;
- ``format_terms`` of each classical component bag and of the empty bag;
- symbols at the float twists 0.3 and 0.4: the ``format_symbol`` refusal,
  ``symbol_to_json``, the symbol its JSON reads back as with and without a
  ``phase`` of order 7, and ``nc-residue``, ``nc-compose`` and ``apply`` on
  their JSON documents;
- the symbol layer on its own: ``repr`` of both symbol classes and of
  their components; ``+``, ``-``, ``scale``, ``partial_xi`` and ``deriv_x``
  of classical symbols and components, with directions 0..n+1 so the
  refusals show; ``component`` across the floor, ``components``,
  ``blocks`` and ``component_raw``; ``euler_antiderivatives``,
  ``sphere_average``, ``uniqueness_decompose``, ``commutator_xi``,
  ``commutator_exp``, ``to_euclidean`` and ``semiclassical_check``;
- twisted symbol arithmetic at theta 0, 2/5 and 5/12: ``+``, ``-``, unary
  ``-``, ``scale`` by rational, Gaussian and cyclotomic scalars, and
  ``partial_xi`` and ``deriv_x`` with directions 0..3, each result shown
  with its coefficients' ``repr`` (which shows their cyclotomic order);
- the exact scalars on their own: ``repr``, ``str``, ``to_complex``, the
  parts, ``conjugate``, ``abs_squared``, ``hash`` and its agreement with
  ``Fraction``'s, ``+``, ``-``, ``*`` and ``/`` both ways by ``int``,
  ``Fraction`` and scalar, and ``==``, of ``ComplexRational`` values;
  ``CyclotomicScalar`` values at orders 1, 4, 5, 12 and 20, built from long
  unreduced vectors, with ``coeffs``, ``conjugate``, the same value at
  order 60 and equality across orders; and sums, products and quotients
  of ``PiGradedScalar`` values over both coefficient rings.

Half of the pairs have part of the right factor moved onto the reflected
modes of the left one, so most residues are nonzero, and some twisted
coefficients carry a JSON ``phase`` of order 7, an order that divides no
lcm(4, theta denominator).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

TWISTS = [Fraction(2, 5), Fraction(5, 12), Fraction(7, 30), Fraction(0), Fraction(1, 2)]
PAIRS_PER_CASE = 12


def _reflect(rng, left_bags, right_bags):
    """Blocks of the right factor, about half its terms moved onto (-mode, alpha)
    of a left term."""
    spots = sorted({(m, a) for bag in left_bags.values() for (m, a, _p) in bag})
    blocks = {}
    for deg, bag in sorted(right_bags.items()):
        terms = []
        for (mode, alpha, _p), s in sorted(bag.items()):
            if spots and rng.random() < 0.5:
                mode, alpha = rng.choice(spots)
                mode = tuple(-x for x in mode)
            terms.append((s, mode, alpha, deg - sum(alpha)))
        blocks[deg] = terms
    return blocks


def _with_phases(lib, sym, rng):
    """The JSON document of a twisted symbol with a phase zeta_7 on about a third
    of its terms, and the symbol it reads back as."""
    doc = lib.dsl.symbol_to_json(sym)
    for block in doc["blocks"]:
        for term in block["terms"]:
            if rng.random() < 0.35:
                term["phase"] = [7, rng.randint(1, 6)]
    return doc, lib.dsl.symbol_from_json(doc)


def classical_pairs(lib, n, rng):
    for i in range(PAIRS_PER_CASE):
        m1, m2 = rng.randint(-1, 2), rng.randint(-1, 2)
        a, b = (lib.dsl.random_symbol(rng.getrandbits(32), dim=n, order=m, depth=m1 + n + m2,
                                      max_mode=2, max_alpha=3) for m in (m1, m2))
        if i % 2:
            blocks = _reflect(rng, a._term_bags(), b._term_bags())
            comps = {d: lib.symbols.HomogeneousComponent(n, d, t) for d, t in blocks.items()}
            b = lib.symbols.ClassicalSymbol(
                n, m2, {d: c for d, c in comps.items() if not c.is_zero()}, b.trusted_floor)
        yield a, b, None


def twisted_pairs(lib, theta, rng):
    for i in range(PAIRS_PER_CASE):
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        a, b = (lib.dsl.random_symbol(rng.getrandbits(32), dim=2, order=m, depth=m1 + 2 + m2,
                                      max_mode=2, max_alpha=2, theta=theta) for m in (m1, m2))
        if i % 4 == 2:
            # symbols with a zeta_7 phase: the text format cannot write them, so
            # the command line reads them from their JSON documents
            (doc_a, a), (doc_b, b) = _with_phases(lib, a, rng), _with_phases(lib, b, rng)
            yield a, b, (doc_a, doc_b)
            continue
        if i % 2:
            b = lib.nctorus.NCSymbol(b.theta, m2, _reflect(rng, a._term_bags(), b._term_bags()),
                                     b.trusted_floor)
        yield a, b, None


def _components_repr(sym) -> str:
    return repr(sorted((d, sorted(bag.items())) for d, bag in sym._term_bags().items()))


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


def dump_symbol(lib, out, label, sym):
    out(f"{label} format: {_outcome(lib.dsl.format_symbol, sym)}")
    # unsorted, so the key order of the document shows
    out(f"{label} json: {_outcome(lambda: json.dumps(lib.dsl.symbol_to_json(sym)))}")
    out(f"{label} repr: {_components_repr(sym)}")


def dump_api(lib, out):
    cases = [(f"n={n}", lib.calculus.compose, lib.calculus._residue_of_composition,
              lib.calculus.trace_defect, classical_pairs(lib, n, random.Random(10 + n)))
             for n in (2, 3)]
    cases += [(f"theta={th}", lib.nctorus.nc_compose, lib.nctorus._nc_residue_of_composition,
               lib.nctorus.nc_trace_defect, twisted_pairs(lib, th, random.Random(20 + i)))
              for i, th in enumerate(TWISTS)]
    docs = []
    for name, compose, res_of_comp, defect, pairs in cases:
        for k, (a, b, json_docs) in enumerate(pairs):
            label = f"{name} pair {k}"
            for tag, s, t in (("ab", a, b), ("ba", b, a)):
                try:
                    composed = compose(s, t)
                except Exception as exc:  # a refusal is an output too
                    out(f"{label} {tag} compose: {type(exc).__name__}: {exc}")
                else:
                    dump_symbol(lib, out, f"{label} {tag} compose", composed)
                out(f"{label} {tag} residue of composition: {_outcome(res_of_comp, s, t)}")
            out(f"{label} trace defect: {_outcome(defect, a, b)}")
            for tag, s in (("a", a), ("b", b)):
                dump_symbol(lib, out, f"{label} {tag}", s)
            if k < 4:
                docs.append((name, k, a, b, json_docs))
    return docs


def _classical_symbols(lib, n, rng):
    S = lib.symbols
    syms = [lib.dsl.random_symbol(rng.getrandbits(32), dim=n, order=rng.randint(-1, 2),
                                  depth=rng.randint(0, n + 2), max_mode=2, max_alpha=3)
            for _ in range(6)]
    syms.append(syms[0].scale(3) - syms[0].scale(2))  # rebuilds the first one by arithmetic
    # xi_1^2 |xi|^-2 and 1 minus it, whose sum is 1 only after canonical form
    square = S.monomial_symbol(n, 1, alpha=(2,) + (0,) * (n - 1), npow=-2)
    syms += [square, S.one_symbol(n) - square]
    return syms + [S.xi_symbol(n, 1), S.exp_symbol(n, (1,) + (0,) * (n - 1)),
                   S.one_symbol(n), S.ClassicalSymbol(n, 0)]


def dump_component(lib, out, label, comp, other):
    """One component on its own and against ``other`` (a component of the same n)."""
    S = lib.symbols
    out(f"{label}: {comp!r} terms {_outcome(comp.terms)} zero {comp.is_zero()} "
        f"canonicalize-equal {S.canonicalize(comp) == comp}")
    for tag, fn in (("+", lambda: comp + other), ("-", lambda: comp - other),
                    ("*", lambda: comp * other), ("neg", lambda: -comp),
                    ("scale 1/2+i", lambda: comp.scale(lib.scalars.ComplexRational(Fraction(1, 2), 1))),
                    ("scale 0", lambda: comp.scale(0)), ("==", lambda: comp == other),
                    ("euler", lambda: S.euler_antiderivatives(comp)),
                    ("sphere average", lambda: S.sphere_average(comp))):
        out(f"{label} {tag}: {_outcome(fn)}")
    for j in range(comp.n + 2):
        out(f"{label} partial_xi {j}: {_outcome(comp.partial_xi, j)}")
        out(f"{label} deriv_x {j}: {_outcome(comp.deriv_x, j)}")


def dump_classical_layer(lib, out):
    C = lib.calculus
    out(f"format_terms of the empty bag: {_outcome(lib.dsl.format_terms, {})}")
    scalars = [0, 2, Fraction(-1, 3), lib.scalars.ComplexRational(0, Fraction(3, 2)), 0.5]
    by_dim = {n: _classical_symbols(lib, n, random.Random(30 + n)) for n in (2, 3)}
    for n, syms in by_dim.items():
        for k, sym in enumerate(syms):
            label = f"n={n} symbol {k}"
            other = syms[(k + 1) % len(syms)]
            out(f"{label}: {sym!r}")
            out(f"{label} degrees {sym.degrees()} zero {sym.is_zero()} components "
                f"{sorted(sym.components.items())!r}")
            top = sym.order
            low = sym.trusted_floor if sym.trusted_floor is not None else top - 3
            for d in range(top + 1, low - 2, -1):
                out(f"{label} component {d}: {_outcome(sym.component, d)}")
            for tag, fn in (("+", lambda: sym + other), ("-", lambda: sym - other),
                            ("neg", lambda: -sym), ("== self", lambda: sym == sym),
                            ("==", lambda: sym == other), ("- self", lambda: sym - sym)):
                out(f"{label} {tag}: {_outcome(fn)}")
            for c in scalars:
                out(f"{label} scale {c!r}: {_outcome(sym.scale, c)}")
            # a zero symbol is left out: it has no component to check a direction on
            directions = range(n + 2) if not sym.is_zero() else range(1, n + 1)
            for j in directions:
                out(f"{label} partial_xi {j}: {_outcome(sym.partial_xi, j)}")
                out(f"{label} deriv_x {j}: {_outcome(sym.deriv_x, j)}")
            for j in range(n + 2):
                out(f"{label} commutator_xi {j}: {_outcome(C.commutator_xi, sym, j)}")
            for j, depth in ((1, 0), (n, 2), (n + 1, 1), (1, -1)):
                out(f"{label} commutator_exp {j} {depth}: "
                    f"{_outcome(C.commutator_exp, sym, j, depth)}")
            out(f"{label} decompose: {_outcome(C.uniqueness_decompose, sym)}")
            for d in sym.degrees():
                out(f"{label} format_terms {d}: "
                    f"{_outcome(lib.dsl.format_terms, sym.components[d].raw_terms())}")
            comps = [sym.components[d] for d in sym.degrees()]
            for i, comp in enumerate(comps):
                partner = comps[(i + 1) % len(comps)]
                dump_component(lib, out, f"{label} component {comp.degree}", comp, partner)
            out(f"{label} + n={5 - n}: {_outcome(lambda: sym + by_dim[5 - n][0])}")


def _nc_outcome(fn) -> str:
    try:
        sym = fn()
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"
    return f"{sym!r} {_components_repr(sym)}"


def dump_twisted_arithmetic(lib, out, label, sym, other):
    scalars = [0, 2, Fraction(-1, 3), lib.scalars.ComplexRational(Fraction(1, 2), 1),
               lib.cyclotomic.CyclotomicScalar.root_of_unity(5, 2), 0.5]
    for tag, fn in (("+", lambda: sym + other), ("-", lambda: sym - other),
                    ("neg", lambda: -sym), ("- self", lambda: sym - sym)):
        out(f"{label} {tag}: {_nc_outcome(fn)}")
    for c in scalars:
        out(f"{label} scale {c!r}: {_nc_outcome(lambda: sym.scale(c))}")
    for j in range(4):
        out(f"{label} partial_xi {j}: {_nc_outcome(lambda: sym.partial_xi(j))}")
        out(f"{label} deriv_x {j}: {_nc_outcome(lambda: sym.deriv_x(j))}")


def dump_twisted_layer(lib, out):
    N = lib.nctorus
    for i, th in enumerate((Fraction(0), Fraction(2, 5), Fraction(5, 12))):
        rng = random.Random(50 + i)
        theta = N.Theta.from_rational(th)
        syms = [lib.dsl.random_symbol(rng.getrandbits(32), dim=2, order=rng.randint(-1, 1),
                                      depth=rng.randint(0, 4), max_mode=2, max_alpha=2,
                                      theta=theta)
                for _ in range(5)]
        # the same terms once more, as term lists
        syms.append(N.NCSymbol(theta, syms[0].order,
                               {d: [(s, *key) for key, s in bag.items()]
                                for d, bag in syms[0].components.items()},
                               syms[0].trusted_floor))
        syms.append(N.NCSymbol(theta, 0))
        for k, sym in enumerate(syms):
            label = f"theta={th} symbol {k}"
            out(f"{label}: {sym!r} degrees {sym.degrees()} zero {sym.is_zero()}")
            out(f"{label} components: {sorted((d, sorted(b.items())) for d, b in sym.components.items())!r}")
            out(f"{label} blocks: {sorted(sym.blocks().items())!r}")
            out(f"{label} == first: {sym == syms[0]}")
            top = sym.order
            low = sym.trusted_floor if sym.trusted_floor is not None else top - 3
            for d in range(top + 1, low - 2, -1):
                out(f"{label} component_raw {d}: "
                    f"{_outcome(lambda: sorted(sym.component_raw(d).items()))}")
            out(f"{label} to_euclidean: {_outcome(N.to_euclidean, sym)}")
            out(f"{label} semiclassical: {_outcome(N.semiclassical_check, sym)}")
            out(f"{label} residue: {_outcome(N.nc_residue, sym)}")
            dump_twisted_arithmetic(lib, out, label, sym, syms[(k + 1) % len(syms)])


def _seeded_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def dump_complex_rationals(lib, out):
    CR = lib.scalars.ComplexRational
    rng = random.Random(80)
    values = [CR(0), CR(1), CR(0, 1), CR(Fraction(-3, 4), Fraction(5, 6)), CR("7/21", "-0")]
    values += [CR(_seeded_fraction(rng), _seeded_fraction(rng) * rng.randint(0, 1))
               for _ in range(8)]
    factors = [0, 1, -3, Fraction(2, 3), Fraction(-7, 4), 0.5]
    for k, x in enumerate(values):
        y = values[(k + 3) % len(values)]
        label = f"complex rational {k}"
        out(f"{label}: {x!r} str {x} complex {x.to_complex()!r} zero {x.is_zero()} "
            f"bool {bool(x)} parts {x.re!r} {x.im!r}")
        out(f"{label} conjugate {x.conjugate()!r} abs_squared {x.abs_squared()!r} "
            f"neg {-x!r} hash {hash(x)} hash as Fraction "
            f"{x.im != 0 or hash(x) == hash(Fraction(x.re))}")
        for tag, fn in (("+", lambda: x + y), ("-", lambda: x - y), ("*", lambda: x * y),
                        ("/", lambda: x / y), ("== other", lambda: x == y),
                        ("== self", lambda: x == CR(x.re, x.im)),
                        ("== re", lambda: x == x.re), ("== 0.5", lambda: x == 0.5)):
            out(f"{label} {tag} {y!r}: {_outcome(fn)}")
        for f in factors:
            for tag, fn in (("+", lambda: x + f), ("r+", lambda: f + x), ("-", lambda: x - f),
                            ("r-", lambda: f - x), ("*", lambda: x * f), ("r*", lambda: f * x),
                            ("/", lambda: x / f), ("r/", lambda: f / x)):
                out(f"{label} {tag} {f!r}: {_outcome(fn)}")


def dump_cyclotomic_scalars(lib, out):
    CS = lib.cyclotomic.CyclotomicScalar
    CR = lib.scalars.ComplexRational
    rng = random.Random(81)
    values = []
    for q in (1, 4, 5, 12, 20):
        for length in (1, q + 3, 2 * q + 5):
            # long unreduced vectors, some entries zero, so construction reduces
            values.append(CS(q, [_seeded_fraction(rng) * (rng.random() < 0.6)
                                 for _ in range(length)]))
        values.append(CS.root_of_unity(q, rng.randint(-q, 2 * q)))
    values += [CS.from_rational(Fraction(-5, 6)), CS.from_complex_rational(CR(1, Fraction(1, 3))),
               CS(20, [0] * 45), CS(12, [2, 0, 0, 0, 0, 0, -2])]
    factors = [0, 1, -3, Fraction(2, 3), CR(Fraction(1, 2), -1), 0.5]
    for k, x in enumerate(values):
        y = values[(k + 5) % len(values)]
        label = f"cyclotomic {k}"
        out(f"{label}: {x!r} str {x} complex {x.to_complex()!r} order {x.order} "
            f"coeffs {x.coeffs!r} zero {x.is_zero()} rational {x.is_rational()}")
        out(f"{label} conjugate {x.conjugate()!r} neg {-x!r} "
            f"as Q(i): {_outcome(x.to_complex_rational)}")
        # the same value stored at a larger order
        wide = x + (CS.root_of_unity(60, 7) - CS.root_of_unity(60, 7))
        out(f"{label} at order 60: {wide!r} equal {wide == x} {x == wide}")
        for tag, fn in (("+", lambda: x + y), ("-", lambda: x - y), ("*", lambda: x * y),
                        ("== other", lambda: x == y), ("== self", lambda: x == CS(x.order, x.coeffs))):
            out(f"{label} {tag} {y!r}: {_outcome(fn)}")
        for f in factors:
            for tag, fn in (("+", lambda: x + f), ("r+", lambda: f + x), ("-", lambda: x - f),
                            ("r-", lambda: f - x), ("*", lambda: x * f), ("r*", lambda: f * x),
                            ("==", lambda: x == f)):
                out(f"{label} {tag} {f!r}: {_outcome(fn)}")


def dump_pi_graded(lib, out):
    PG = lib.scalars.PiGradedScalar
    CR = lib.scalars.ComplexRational
    CS = lib.cyclotomic.CyclotomicScalar
    values = [PG(0), PG(Fraction(3, 4)), PG(2, Fraction(1, 2)), PG(CR(Fraction(-1, 3), 2), 2),
              PG(CR(0, Fraction(5, 7)), 2), PG(CS.root_of_unity(5, 2) * Fraction(3, 2), 1),
              PG(CS(12, [1, 0, Fraction(-1, 2)]), 1), PG(Fraction(-9, 8), 1)]
    for k, x in enumerate(values):
        label = f"pi graded {k}"
        out(f"{label}: {x!r} str {x} complex {x.to_complex()!r} zero {x.is_zero()}")
        for j, y in enumerate(values):
            for tag, fn in (("+", lambda: x + y), ("-", lambda: x - y), ("*", lambda: x * y),
                            ("/", lambda: x / y), ("==", lambda: x == y)):
                out(f"{label} {tag} {j}: {_outcome(fn)}")
        for f in (0, -2, Fraction(5, 3), CR(1, -1)):
            out(f"{label} * {f!r}: {_outcome(lambda: x * f)} r* {_outcome(lambda: f * x)}")


def _run_cli(lib, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def dump_float_documents(lib, out, workdir):
    """Symbols at float twists and their JSON documents; returns the commands
    that run on those documents."""
    commands = []
    for i, th in enumerate((0.3, 0.4)):
        rng = random.Random(70 + i)
        paths = []
        for k in range(3):
            sym = lib.dsl.random_symbol(rng.getrandbits(32), dim=2, order=rng.randint(-1, 1),
                                        depth=rng.randint(1, 4), max_mode=2, max_alpha=2,
                                        theta=th)
            label = f"theta={th} float symbol {k}"
            dump_symbol(lib, out, label, sym)
            doc = lib.dsl.symbol_to_json(sym)
            out(f"{label} json read back: "
                f"{_nc_outcome(lambda: lib.dsl.symbol_from_json(doc))}")
            phased = json.loads(json.dumps(doc))
            for block in phased["blocks"]:
                for term in block["terms"][::2]:
                    term["phase"] = [7, 1 + k]
            out(f"{label} json with phase read back: "
                f"{_nc_outcome(lambda: lib.dsl.symbol_from_json(phased))}")
            path = os.path.join(workdir, f"float{i}_{k}.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(json.dumps(doc))
            paths.append(path)
        commands += [["nc-residue", paths[0]], ["nc-compose", paths[0], paths[1]],
                     ["apply", "--element", "U - 2*V", paths[2]], ["residue", paths[1]]]
    return commands


def dump_cli(lib, out, docs, workdir):
    commands = []
    for name, k, a, b, json_docs in docs:
        paths = []
        for i, (tag, sym) in enumerate((("a", a), ("b", b))):
            path = os.path.join(workdir, f"{name.replace('=', '').replace('/', '_')}_{k}{tag}")
            if json_docs is not None:
                path, text = path + ".json", json.dumps(json_docs[i])
            elif k % 2:
                path, text = path + ".json", json.dumps(lib.dsl.symbol_to_json(sym))
            else:
                path, text = path + ".sym", lib.dsl.format_symbol(sym)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            paths.append(path)
        twisted = name.startswith("theta")
        commands.append(["nc-residue" if twisted else "residue", paths[0]])
        commands.append(["nc-compose" if twisted else "compose", paths[0], paths[1]])
        commands.append(["nc-compose" if twisted else "compose", paths[1], paths[0]])
        # the commands of both calculi, so each one's refusal of the other shows
        commands += [
            ["residue" if twisted else "nc-residue", paths[0]],
            ["compose" if twisted else "nc-compose", paths[0], paths[1]],
            ["decompose", paths[1]],
            ["commutator", "--with", "xi", "--dir", str(1 + k % 2), paths[0]],
            ["commutator", "--with", "exp", "--dir", "1", paths[1]],
            ["commutator", "--with", "exp", "--dir", "2", "--depth", "1", paths[0]],
            ["apply", "--element", "-U*V + 1/2*V^-2 + i", paths[0]],
            ["semiclassical-check", paths[1]],
        ]
    commands += dump_float_documents(lib, out, workdir)
    for n in (2, 3):
        commands.append(["trace-check", "--dim", str(n), "--trials", "6", "--seed", str(n)])
    for th in TWISTS:
        commands.append(["nc-trace-check", "--theta", str(th), "--trials", "6", "--seed", "5"])
    for argv in commands:
        for extra in ([], ["--json"]):
            full = argv[:1] + extra + argv[1:]
            code, stdout, stderr = _run_cli(lib, full)
            shown = [os.path.basename(w) if w.startswith(workdir) else w for w in full]
            out(f"ncres {' '.join(shown)}: exit {code}")
            out(f"  stdout: {stdout!r}")
            out(f"  stderr: {stderr.replace(workdir, '<dir>')!r}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/dump_outputs.py CHECKOUT", file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(args[0]), "src")
    if not os.path.isdir(os.path.join(src, "ncresidue")):
        print(f"no package at {src}/ncresidue", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import ncresidue.calculus
    import ncresidue.cli
    import ncresidue.cyclotomic
    import ncresidue.dsl
    import ncresidue.nctorus
    import ncresidue.scalars
    import ncresidue.symbols

    lib = ncresidue
    lines = []
    docs = dump_api(lib, lines.append)
    dump_classical_layer(lib, lines.append)
    dump_twisted_layer(lib, lines.append)
    dump_complex_rationals(lib, lines.append)
    dump_cyclotomic_scalars(lib, lines.append)
    dump_pi_graded(lib, lines.append)
    with tempfile.TemporaryDirectory() as workdir:
        dump_cli(lib, lines.append, docs, workdir)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
