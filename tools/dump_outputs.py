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
  the trace defect; the same, with no ``compose``, for classical pairs in
  dimensions 4 and 5 and for twisted pairs at the float twists 0.3 and 0.4
  (as ``repr``, so a changed bit of a float shows);
- stdout, stderr and the exit code of ``ncres residue``, ``nc-residue``,
  ``compose``, ``nc-compose``, ``decompose``, ``commutator --with xi|exp``,
  ``apply``, ``semiclassical-check``, ``trace-check`` and
  ``nc-trace-check``, with and without ``--json``, every document command
  also fed a document of the other calculus, and the check commands also
  at a dimension, a twist and a trial count beyond their limits;
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
- twisted symbol arithmetic at the float twists 0.3 and 0.4: unary ``-``,
  ``scale(0.5)``, ``-`` of a symbol from itself and ``+`` of two seeded
  symbols, and ``scale(1e-200)`` of a symbol holding a 1e-200
  coefficient, with its equality to the symbol built without that term,
  and of one whose other terms are left as a multiple of |xi|^2, each
  result shown with its coefficients' ``repr`` (which shows the sign
  of a zero part);
- algebra elements at theta 0, 2/5, 5/12 and 7/30: ``NCPolynomial``
  products both ways, ``adjoint``, ``delta`` with indices 0..3, ``trace``
  and scalar multiples, each shown with its coefficients' ``repr``;
- twisted symbol arithmetic at theta 0, 2/5 and 5/12: ``+``, ``-``, unary
  ``-``, ``scale`` by rational, Gaussian and cyclotomic scalars, and
  ``partial_xi`` and ``deriv_x`` with directions 0..3, each result shown
  with its coefficients' ``repr`` (which shows their cyclotomic order);
- the exact scalars on their own: ``repr``, ``str``, ``to_complex``, the
  parts, ``conjugate``, ``abs_squared``, ``hash`` and its agreement with
  ``Fraction``'s, ``+``, ``-``, ``*`` and ``/`` both ways by ``int``,
  ``Fraction`` and scalar, and ``==``, of ``ComplexRational`` values;
  for values with parts of up to 200 digits over equal and unequal
  denominators, ``/`` both ways by scalar, ``int`` and ``Fraction`` (zero
  included), ``abs_squared``, ``conjugate``, ``hash``, and ``==`` both ways
  with ``int``, ``Fraction`` and ``CyclotomicScalar`` values, equal and not;
  ``CyclotomicScalar`` values at orders 1, 4, 5, 12 and 20, built from long
  unreduced vectors, with ``coeffs``, ``conjugate``, the same value at
  order 60 and equality across orders; and sums, products and quotients
  of ``PiGradedScalar`` values over both coefficient rings;
- compositions at the edges of the engine's term keys: ``compose``, the
  residue of the composition and the trace defect for one-term pairs with
  negative and 301-digit modes (n = 2, 3), in dimensions 8 and 64 at the
  deepest derivative order ``terms.MAX_GAMMA_COUNT`` admits there, and at
  the deepest orders it admits at n = 2 and 3 (43 and 16, with the refusal
  one order deeper); and ``nc_compose`` and ``NCPolynomial`` products with
  such modes at theta 2/5 and 7/30;
- the residue of the composition, without composing, in both orders and
  the trace defect for every pair of monomials e^(i u.x) xi^alpha |xi|^p
  (U^a V^b xi^alpha |xi|^p at theta 2/5, the float 0.4, 5/12 and 7/30),
  |alpha| <= 1, of modes u and -u in small boxes (n = 2, 3) whose products
  reach degree -n, mode zero and polynomial monomials included, every
  third pair also with a term on each side whose mode faces nothing, in
  order;
- ``compose`` in both orders of seeded classical pairs in dimensions 2 and
  3 whose coefficients have parts of about 200 digits over mixed
  denominators, so the numerators the engine forms are as long as its
  width rule allows;
- ``terms.compose_components`` in both calculi (dimensions 2 and 3, theta
  2/5 and 7/30) on right factors whose components hold several terms of
  one mode and terms of mode zero: down to the composed floor, and
  complete with a polynomial left factor or a mode-free right one; and a
  left term xi_1 |xi|^(2^20) of mode (1, 0) against a small partner, in
  both orders, down to a floor four orders below the top pair;
- ``compose`` in both orders of classical pairs (n = 2, 3) whose products
  hold multiples of xi_1^2 + ... + xi_n^2, or shells that vanish at the
  point canonical form's certificate evaluates at without being multiples,
  and ``nc_compose`` of the n = 2 ones at theta 2/5; and canonical form of
  one raw group at, just below and well below the bound within which the
  certificate is taken;
- the order of terms, which the sections above sort away: unsorted
  ``raw_terms()`` of seeded components whose (mode, parity) groups mostly
  hold one monomial, and of components whose groups share terms or hold
  multiples of xi_1^2 + ... + xi_n^2, with their sums and multiples; and
  unsorted term bags of seeded random symbols and of their ``compose``
  (n = 2, 3) and ``nc_compose`` (theta 2/5) in both orders;
- unsorted term bags of ``random_symbol`` over a grid of its arguments:
  dimensions 2 to 5, orders -2 to 2, depths 0 to 6, ``max_mode`` and
  ``max_alpha`` 0 to 4, in the classical calculus and at theta 2/5, 5/12,
  7/30 and the float 0.3, the twisted ones also as read back from their
  text (exact twists) and JSON documents, so the draws, the term order
  and both calculi's construction show;
- text documents read by ``parse_symbol``: ``format_symbol`` and the
  ``repr`` of the term bags (which shows each twisted coefficient's
  cyclotomic order), or the exception class and message, for seeded
  random expressions in both calculi (fractions, ``i``, ``e(...)``, ``xi``,
  ``r``, nested parentheses and U/V words at theta 2/5, 7/30, 1/2 and 0),
  for hand-written documents with every factor kind, parentheses inside
  twisted words and zero products, and for every error the reader
  raises, also placed after tabs, blank lines and CRLF line ends so the
  line and column show; and ``parse_nc_element`` of seeded and
  hand-written elements, trailing tokens included.  The twists of this
  section are exact ones;
- JSON documents read by ``symbol_from_json``: the ``repr`` of the symbol
  and its term bags, or the exception class and message, for valid
  documents of both calculi (exact, float, and with a ``phase``) and one
  document for each refusal of the header and the terms.

Half of the pairs have part of the right factor moved onto the reflected
modes of the left one, so most residues are nonzero, and some twisted
coefficients carry a JSON ``phase`` of order 7, an order that divides no
lcm(4, theta denominator).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
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
    return _bags_repr(sym._term_bags())


def _bags_repr(bags) -> str:
    return repr(sorted((d, sorted(bag.items())) for d, bag in bags.items()))


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


def dump_residues_without_composing(lib, out):
    """The residue of each composition in both orders and the trace defect,
    on classical pairs at n = 4 and 5 and twisted pairs at the float twists
    0.3 and 0.4."""
    C, N = lib.calculus, lib.nctorus
    cases = [(f"n={n}", C._residue_of_composition, C.trace_defect,
              classical_pairs(lib, n, random.Random(30 + n))) for n in (4, 5)]
    cases += [(f"theta={th}", N._nc_residue_of_composition, N.nc_trace_defect,
               twisted_pairs(lib, th, random.Random(40 + i))) for i, th in enumerate((0.3, 0.4))]
    for name, res_of_comp, defect, pairs in cases:
        for k, (a, b, _docs) in enumerate(pairs):
            label = f"{name} residue pair {k}"
            for tag, s, t in (("ab", a, b), ("ba", b, a)):
                out(f"{label} {tag} residue of composition: {_outcome(res_of_comp, s, t)}")
            out(f"{label} trace defect: {_outcome(defect, a, b)}")


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


def dump_float_arithmetic(lib, out):
    N = lib.nctorus
    for i, th in enumerate((0.3, 0.4)):
        rng = random.Random(80 + i)
        theta = N.Theta.from_float(th)
        sym, other = (lib.dsl.random_symbol(rng.getrandbits(32), dim=2,
                                            order=rng.randint(-1, 1), depth=rng.randint(1, 4),
                                            max_mode=2, max_alpha=2, theta=theta)
                      for _ in range(2))
        # 1e-200 * 1e-200 rounds to zero
        tiny = N.NCSymbol(theta, 0, {0: {((1, 0), (0, 0), 0): 1e-200,
                                         ((0, 1), (0, 0), 0): 1.0}}, 0)
        without = N.NCSymbol(theta, 0, {0: {((0, 1), (0, 0), 0): 1e-200}}, 0)
        # what is left of it is 1e-200 (xi_1^2 + xi_2^2) |xi|^-2, that is 1e-200
        square = N.NCSymbol(theta, 0, {0: {((0, 0), (2, 0), -2): 1.0,
                                           ((0, 0), (0, 2), -2): 1.0,
                                           ((0, 0), (1, 1), -2): 1e-200}})
        label = f"theta={th} float arithmetic"
        for tag, fn in (("symbol", lambda: sym), ("other", lambda: other),
                        ("neg", lambda: -sym), ("scale 0.5", lambda: sym.scale(0.5)),
                        ("- self", lambda: sym - sym), ("+", lambda: sym + other),
                        ("tiny scale 1e-200", lambda: tiny.scale(1e-200)),
                        ("square scale 1e-200", lambda: square.scale(1e-200))):
            out(f"{label} {tag}: {_nc_outcome(fn)}")
        out(f"{label} tiny scale 1e-200 == built without the term: "
            f"{_outcome(lambda: tiny.scale(1e-200) == without)}")


def _nc_poly_repr(poly) -> str:
    return f"{poly!r} {sorted(poly.coeffs.items())!r}"


def dump_nc_polynomials(lib, out):
    N = lib.nctorus
    CR = lib.scalars.ComplexRational
    CS = lib.cyclotomic.CyclotomicScalar
    for i, th in enumerate((Fraction(0), Fraction(2, 5), Fraction(5, 12), Fraction(7, 30))):
        rng = random.Random(60 + i)
        theta = N.Theta.from_rational(th)
        coeffs = [CR(_seeded_fraction(rng), _seeded_fraction(rng)), CR(_seeded_fraction(rng)),
                  CS.root_of_unity(th.denominator, rng.randint(1, 9)) * _seeded_fraction(rng),
                  CS.root_of_unity(7, rng.randint(1, 6))]
        polys = [N.nc_u(theta), N.nc_v(theta), N.NCPolynomial.one(theta)]
        for _ in range(4):
            polys.append(N.NCPolynomial(theta, {
                (rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice(coeffs)
                for _ in range(rng.randint(1, 4))}))
        for k, x in enumerate(polys):
            y = polys[(k + 3) % len(polys)]
            label = f"theta={th} ncpoly {k}"
            out(f"{label}: {_nc_poly_repr(x)} trace {x.trace()!r}")
            for tag, fn in (("*", lambda: x * y), ("r*", lambda: y * x), ("* self", lambda: x * x),
                            ("adjoint", x.adjoint),
                            ("adjoint adjoint", lambda: x.adjoint().adjoint()),
                            ("* adjoint", lambda: x * x.adjoint())):
                out(f"{label} {tag}: {_outcome(lambda: _nc_poly_repr(fn()))}")
            for j in range(4):
                out(f"{label} delta {j}: {_outcome(lambda: _nc_poly_repr(x.delta(j)))}")
            for c in (2, Fraction(-1, 3), CR(0, 1), coeffs[2], 0.5):
                out(f"{label} scale {c!r}: {_outcome(lambda: _nc_poly_repr(x * c))}")


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


def dump_long_complex_rationals(lib, out):
    CR = lib.scalars.ComplexRational
    CS = lib.cyclotomic.CyclotomicScalar
    rng = random.Random(82)

    def part():
        return Fraction(rng.randint(-10**200, 10**200), rng.choice([1, 6, rng.randint(1, 10**200)]))

    values = [CR(part(), part()) for _ in range(6)] + [CR(part()) for _ in range(3)]
    den = rng.randint(1, 10**200)
    values += [CR(Fraction(rng.randint(-10**200, 10**200), den),
                  Fraction(rng.randint(-10**200, 10**200), den)) for _ in range(2)]
    values += [CR(10**200), CR(0, Fraction(1, 10**200 + 1)), CR(0)]
    for k, x in enumerate(values):
        y = values[(k + 4) % len(values)]
        label = f"long complex rational {k}"
        out(f"{label}: {x!r} str {x} bool {bool(x)} hash {hash(x)}")
        out(f"{label} conjugate {x.conjugate()!r} abs_squared {x.abs_squared()!r}")
        re = x.re
        others = [("int", int(re)), ("Fraction", re), ("other", y), ("i", CR(0, 1)),
                  ("cyclotomic", CS.from_complex_rational(x)),
                  ("cyclotomic + zeta5", CS.from_complex_rational(x) + CS.root_of_unity(5, 1)),
                  ("0", 0), ("-7", -7), ("1/3", Fraction(1, 3))]
        for tag, z in others:
            out(f"{label} {tag}: == {_outcome(lambda: x == z)} r== {_outcome(lambda: z == x)} "
                f"/ {_outcome(lambda: x / z)} r/ {_outcome(lambda: z / x)}")


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


BIG = 10**300 + 7  # a 301-digit mode entry


def _single(lib, n, order, mode, alpha, npow, coeff, floor=None):
    """The classical symbol with the one term coeff e^(i mode.x) xi^alpha |xi|^npow."""
    S = lib.symbols
    deg = sum(alpha) + npow
    comp = S.HomogeneousComponent(n, deg, [(coeff, mode, alpha, npow)])
    return S.ClassicalSymbol(n, order, {deg: comp}, floor)


def _dump_pair(lib, out, label, a, b, compose, res_of_comp, defect):
    for tag, s, t in (("ab", a, b), ("ba", b, a)):
        out(f"{label} {tag} compose: {_outcome(lambda: _components_repr(compose(s, t)))}")
        out(f"{label} {tag} residue of composition: {_outcome(res_of_comp, s, t)}")
    out(f"{label} trace defect: {_outcome(defect, a, b)}")


def _deepest_pair(lib, n, k):
    """(a, b): a complete one-term left factor and a right factor trusted down to
    the floor that makes the composition reach derivative order k.  Its degree -n
    part sits at order k or k - 1, whichever is even, and the |xi| power of the
    left term (odd for even n, even for odd n) keeps its residue from vanishing."""
    npow = 1 if n % 2 == 0 else -2  # not a polynomial, so the tower does not vanish
    alpha = (2 * (k // 4),) + (0,) * (n - 1)
    a_deg = alpha[0] + npow
    b_deg = k - k % 2 - n - a_deg
    mode = tuple((-1) ** j * (j + 1) for j in range(n))
    CR = lib.scalars.ComplexRational
    a = _single(lib, n, a_deg, mode, alpha, npow, CR(Fraction(3, 7), -1))
    b = _single(lib, n, b_deg, tuple(-x for x in mode), (0,) * (n - 1) + (2,), b_deg - 2,
                CR(Fraction(-5, 2)), floor=b_deg - k)
    return a, b


def dump_packing_edges(lib, out):
    """Compositions at the edges of the term keys: negative and 300-digit modes,
    one-term pairs in dimensions 8 and 64 at the deepest order the gamma bound
    allows there, residues of compositions at the deepest order allowed at n = 2
    and 3, and twisted products with such modes."""
    C, N = lib.calculus, lib.nctorus
    CR = lib.scalars.ComplexRational
    classical = (C.compose, C._residue_of_composition, C.trace_defect)
    for n in (2, 3):
        modes = [(-3,) + (5,) * (n - 1), (-BIG,) + (2,) * (n - 1), (BIG, -BIG) + (0,) * (n - 2)]
        for i, mode in enumerate(modes):
            alpha = (1 + i,) + (0,) * (n - 2) + (1,)
            a = _single(lib, n, 0, mode, alpha, -sum(alpha), CR(Fraction(2, 3), 1), floor=-n - 1)
            b = _single(lib, n, -1, tuple(-x for x in mode), (0,) * n, -1, CR(-1, Fraction(1, 5)),
                        floor=-n - 1)
            _dump_pair(lib, out, f"edge n={n} mode {i}", a, b, *classical)
    for n in (8, 64):
        # the deepest order whose multi-indices the gamma bound admits
        k = max(j for j in range(50) if math.comb(j + n, n) <= lib.terms.MAX_GAMMA_COUNT)
        mode = (1,) + (0,) * (n - 2) + (-2,)
        b_deg = k - n - 2
        a = _single(lib, n, 2, mode, (1,) + (0,) * (n - 1), 1, CR(1, 1))
        b = _single(lib, n, b_deg, tuple(-x for x in mode), (0,) * (n - 1) + (1,), b_deg - 1,
                    CR(Fraction(1, 3)), floor=-n - 2)
        out(f"edge n={n} deepest order {k}")
        _dump_pair(lib, out, f"edge n={n} one-term", a, b, *classical)
    for n, k in ((2, 43), (3, 16)):
        a, b = _deepest_pair(lib, n, k)
        label = f"edge n={n} order {k}"
        for tag, s, t in (("ab", a, b), ("ba", b, a)):
            out(f"{label} {tag} compose: {_outcome(lambda: _components_repr(C.compose(s, t)))}")
            out(f"{label} {tag} residue of composition: {_outcome(C._residue_of_composition, s, t)}")
            out(f"{label} {tag} residue of compose: "
                f"{_outcome(lambda: C.residue(C.compose(s, t)))}")
        deeper = lib.symbols.ClassicalSymbol(n, b.order, b.components, b.trusted_floor - 1)
        out(f"{label} one deeper: {_outcome(C.compose, a, deeper)}")
    twisted = (N.nc_compose, N._nc_residue_of_composition, N.nc_trace_defect)
    for th in (Fraction(2, 5), Fraction(7, 30)):
        theta = N.Theta.from_rational(th)
        for i, (m, v) in enumerate(((-3, 2), (-BIG, 1), (BIG, -BIG))):
            a = N.NCSymbol(theta, 0, {0: [(CR(1, Fraction(1, 2)), (m, v), (1, 1), -2)]}, -3)
            b = N.NCSymbol(theta, -1, {-1: [(CR(Fraction(-2, 3)), (-m, 1 - v), (0, 0), -1),
                                            (CR(0, 1), (v, m), (0, 1), -2)]}, -3)
            _dump_pair(lib, out, f"edge theta={th} mode {i}", a, b, *twisted)
            x = N.NCPolynomial(theta, {(m, v): CR(2, -1), (-v, m): 3, (1, -1): CR(0, 1)})
            y = N.NCPolynomial(theta, {(-m, 1): 1, (v, -m): CR(Fraction(1, 2)), (0, 0): -1})
            for tag, fn in (("*", lambda: x * y), ("r*", lambda: y * x),
                            ("* adjoint", lambda: x * x.adjoint())):
                out(f"edge theta={th} ncpoly {i} {tag}: {_outcome(lambda: _nc_poly_repr(fn()))}")


# (label, n, twist, modes, degrees): monomial boxes; each holds every mode u
# and -u, every degree and every alpha with |alpha| <= 1
_MONOMIAL_BOXES = [
    ("n=2", 2, None, [(0, 0), (1, 0), (1, -1), (0, 2)], [-2, -1, 0, 1]),
    ("n=3", 3, None, [(0, 0, 0), (1, 0, -1), (0, 1, 1)], [-3, -2, -1, 0]),
    ("theta=2/5", 2, Fraction(2, 5), [(0, 0), (1, 0), (1, 1), (0, 2)], [-2, -1, 0, 1]),
    ("theta=0.4", 2, 0.4, [(0, 0), (1, 0), (1, 1)], [-2, -1, 0]),
    ("theta=5/12", 2, Fraction(5, 12), [(0, 0), (1, 0), (1, 1), (2, 1)], [-2, -1, 0, 1]),
    ("theta=7/30", 2, Fraction(7, 30), [(0, 0), (0, 1), (1, 2), (2, 1)], [-2, -1, 0, 1]),
]


def _monomial_symbol(lib, n, theta, terms, floor):
    """The symbol of terms (coeff, mode, alpha, npow) of one degree, classical or
    at ``theta``, trusted down to ``floor``."""
    deg = sum(terms[0][2]) + terms[0][3]
    if theta is not None:
        return lib.nctorus.NCSymbol(theta, deg, {deg: terms}, floor)
    S = lib.symbols
    return S.ClassicalSymbol(n, deg, {deg: S.HomogeneousComponent(n, deg, terms)}, floor)


def dump_monomial_pairs(lib, out):
    """Both orderings' residue of the composition, without composing, and the
    trace defect for every pair of monomials of modes u and -u in small boxes
    whose products reach degree -n, each factor trusted just deep enough for
    its partner; every third pair also with a term of its own degree added to
    each factor whose mode faces nothing in the other.  The boxes hold mode
    zero and polynomial monomials (xi_j, 1)."""
    C, N = lib.calculus, lib.nctorus
    CR = lib.scalars.ComplexRational
    coeffs = [CR(Fraction(3, 7), -1), CR(Fraction(-5, 2)), CR(0, Fraction(1, 3))]
    for label, n, th, modes, degrees in _MONOMIAL_BOXES:
        theta = None
        if th is not None:
            theta = N.Theta.from_rational(th) if isinstance(th, Fraction) else N.Theta.from_float(th)
        single, defect = ((C._residue_of_composition, C.trace_defect) if th is None
                          else (N._nc_residue_of_composition, N.nc_trace_defect))
        modes = list(dict.fromkeys([*modes, *[tuple(-x for x in m) for m in modes]]))
        alphas = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
        box = [(m, al, d - sum(al)) for m in modes for d in degrees for al in alphas]
        k = 0
        for i, (mode, alpha, npow) in enumerate(box):
            for j, (mode_b, beta, qpow) in enumerate(box):
                a_deg, b_deg = sum(alpha) + npow, sum(beta) + qpow
                if mode_b != tuple(-x for x in mode) or a_deg + b_deg < -n:
                    continue
                a_terms = [(coeffs[i % 3], mode, alpha, npow)]
                b_terms = [(coeffs[j % 3], mode_b, beta, qpow)]
                if k % 3 == 2:
                    a_terms.append((coeffs[j % 3], (5,) + (0,) * (n - 1), alpha, npow))
                    b_terms.append((coeffs[i % 3], (0,) * (n - 1) + (7,), beta, qpow))
                a = _monomial_symbol(lib, n, theta, a_terms, -n - b_deg)
                b = _monomial_symbol(lib, n, theta, b_terms, -n - a_deg)
                name = f"monomial {label} pair {k} {mode}{alpha}{npow} {mode_b}{beta}{qpow}"
                for tag, s, t in (("ab", a, b), ("ba", b, a)):
                    out(f"{name} {tag} residue of composition: {_outcome(single, s, t)}")
                out(f"{name} trace defect: {_outcome(defect, a, b)}")
                k += 1


def _regrouped(rng, bags, n):
    """The bags with each term moved onto the least mode of its component or
    onto mode zero, next to twice the term times xi_1 |xi|^-1, so that a
    component holds several terms of one mode and often some of mode zero."""
    out = {}
    for d, bag in sorted(bags.items()):
        choices = [min(m for (m, _a, _p) in bag), (0,) * n]
        moved = {}
        for (_mode, alpha, p), s in sorted(bag.items(), key=lambda item: item[0]):
            mode = rng.choice(choices)
            for key, x in (((mode, alpha, p), s), ((mode, (alpha[0] + 1,) + alpha[1:], p - 1), s * 2)):
                total = moved.pop(key, 0) + x
                if total:
                    moved[key] = total
        if moved:
            out[d] = moved
    return out


def _polynomial(rng, coerce, n, top):
    """A complete polynomial factor: |xi| powers even and nonnegative, modes mixed."""
    comps = {}
    for deg in range(top, -1, -1):
        bag = {}
        for _ in range(3):
            p = 2 * rng.randint(0, deg // 2)
            alpha = [0] * n
            for _ in range(deg - p):
                alpha[rng.randrange(n)] += 1
            key = (tuple(rng.randint(-1, 1) for _ in range(n)), tuple(alpha), p)
            total = bag.pop(key, 0) + coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            if total:
                bag[key] = total
        if bag:
            comps[deg] = bag
    return comps


def dump_compositions_by_mode(lib, out):
    """``terms.compose_components`` in both calculi on right factors whose
    components hold several terms of one mode and terms of mode zero: down to
    the composed floor, and complete (no floor) with a polynomial left factor
    or a mode-free right one; and a left term xi_1 |xi|^(2^20) of mode (1, 0)
    against a small partner."""
    T = lib.terms
    CR = lib.scalars.ComplexRational
    cases = [(f"n={n}", n, T.RATIONAL_SYSTEM, None) for n in (2, 3)]
    cases += [(f"theta={th}", 2, T.CyclotomicSystem(th.numerator, th.denominator),
               lib.nctorus.Theta.from_rational(th)) for th in (Fraction(2, 5), Fraction(7, 30))]
    for name, n, system, theta in cases:
        rng = random.Random(f"by mode {name}")
        for k in range(4):
            m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
            a, b = (lib.dsl.random_symbol(rng.getrandbits(32), dim=n, order=m, depth=m1 + n + m2,
                                          max_mode=2, max_alpha=2, theta=theta)
                    for m in (m1, m2))
            ca, cb = a._term_bags(), _regrouped(rng, b._term_bags(), n)
            floor = max(a.trusted_floor + m2, m1 + b.trusted_floor)
            free = {d: {((0,) * n, al, p): s for (_m, al, p), s in bag.items()}
                    for d, bag in cb.items()}
            poly = _polynomial(rng, system.coerce, n, 1 + k % 3)
            runs = [("floor", ca, cb, floor), ("complete polynomial left", poly, cb, None),
                    ("complete mode-free right", ca, free, None)]
            for tag, s, t, fl in runs:
                got = _outcome(lambda: _bags_repr(T.compose_components(system, n, s, t, fl)))
                out(f"by mode {name} pair {k} {tag}: {got}")
        big = 2**20
        one = system.coerce(CR(1))
        a = {big + 1: {((1, 0), (1, 0), big): system.coerce(CR(3, -1))}}
        b = {0: {((-1, 0), (0, 0), 0): one, ((-1, 0), (0, 2), -2): system.coerce(CR(0, 2)),
                 ((0, 0), (1, 1), -2): one},
             -1: {((0, 1), (1, 0), -2): system.coerce(CR(Fraction(1, 2)))}}
        a, b = ({d: {(m + (0,) * (n - 2), al + (0,) * (n - 2), p): s for (m, al, p), s in bag.items()}
                 for d, bag in f.items()} for f in (a, b))
        for tag, s, t in (("ab", a, b), ("ba", b, a)):
            got = _outcome(lambda: _bags_repr(T.compose_components(system, n, s, t, big - 3)))
            # "cap None" keeps these lines as older dumps print them
            out(f"by mode {name} |xi|^(2^20) {tag} floor {big - 3} cap None: {got}")


# (label, n, sigma, tau): each factor (order, trusted floor, terms (re, im, mode,
# alpha, npow)).  Products whose canonical groups are multiples of xi_1^2 + ... +
# xi_n^2, or vanish at the null point canonical form evaluates at, (-1, i) and
# (4, 3, 5i), without being multiples
_CERTIFICATE_PAIRS = [
    ("(xi1 + i xi2) o (xi1 - i xi2)", 2,
     (1, None, [(1, 0, (0, 0), (1, 0), 0), (0, 1, (0, 0), (0, 1), 0)]),
     (1, None, [(1, 0, (0, 0), (1, 0), 0), (0, -1, (0, 0), (0, 1), 0)])),
    ("one at mode (1, 1)", 2, (1, None, [(1, 0, (1, 0), (1, 0), 0), (0, 1, (1, 0), (0, 1), 0)]),
     (-1, -4, [(1, 0, (0, 1), (1, 0), -2), (0, -1, (0, 1), (0, 1), -2)])),
    ("one at mode (1, 1, 0)", 3,
     (1, None, [(1, 0, (1, 0, 0), (1, 0, 0), 0), (0, 1, (1, 0, 0), (0, 1, 0), 0),
                (1, 0, (0, 1, 0), (0, 0, 1), 0)]),
     (-1, -4, [(1, 0, (0, 1, 0), (1, 0, 0), -2), (0, -1, (0, 1, 0), (0, 1, 0), -2),
               (1, 0, (1, 0, 0), (0, 0, 1), -2)])),
    ("i xi1 + xi2 through (-1, i)", 2,
     (1, None, [(0, 1, (1, 0), (3, 0), -2), (1, 0, (1, 0), (2, 1), -2), (2, 0, (1, 0), (0, 1), 0)]),
     (0, -2, [(1, 0, (0, 0), (0, 0), 0), (0, 3, (0, -1), (1, 0), -1)])),
    ("3 xi1 - 4 xi2 through (4, 3, 5i)", 3,
     (1, None, [(3, 0, (0, 1, 1), (3, 0, 0), -2), (-4, 0, (0, 1, 1), (2, 1, 0), -2),
                (2, -1, (0, 1, 1), (0, 1, 0), 0)]),
     (0, -2, [(1, 0, (0, 0, 0), (0, 0, 0), 0), (0, 3, (0, -1, 0), (1, 0, 0), -1)])),
]


def _certificate_symbol(lib, n, order, floor, terms, theta=None):
    """The classical symbol, or the twisted one at ``theta``, of the terms."""
    CR = lib.scalars.ComplexRational
    blocks = {}
    for re, im, mode, alpha, npow in terms:
        blocks.setdefault(sum(alpha) + npow, []).append((CR(re, im), mode, alpha, npow))
    if theta is not None:
        return lib.nctorus.NCSymbol(theta, order, blocks, floor)
    S = lib.symbols
    return S.ClassicalSymbol(n, order, {d: S.HomogeneousComponent(n, d, t)
                                        for d, t in blocks.items()}, floor)


def dump_canonical_certificates(lib, out):
    """``compose`` in both orders of ``_CERTIFICATE_PAIRS``, ``nc_compose`` of
    those in dimension 2 at theta 2/5, and ``terms.compose_components`` of
    the raw bag xi_1^2 |xi|^-2 + 1 by 1 with ``MAX_CANONICAL_MONOMIALS`` at
    12, 11, 4 and 3 (canonical form at n = 2, degree 0, span 2 and two
    shells: the bound its certificate is taken within is 12, trial division
    makes 4 updates)."""
    theta = lib.nctorus.Theta.from_rational(Fraction(2, 5))
    for label, n, left, right in _CERTIFICATE_PAIRS:
        a, b = (_certificate_symbol(lib, n, *factor) for factor in (left, right))
        for tag, s, t in (("ab", a, b), ("ba", b, a)):
            got = _outcome(lambda: _components_repr(lib.calculus.compose(s, t)))
            out(f"certificate {label} {tag} compose: {got}")
        if n == 2:
            a, b = (_certificate_symbol(lib, n, *factor, theta) for factor in (left, right))
            for tag, s, t in (("ab", a, b), ("ba", b, a)):
                out(f"certificate {label} {tag} nc_compose theta=2/5: "
                    f"{_nc_outcome(lambda: lib.nctorus.nc_compose(s, t))}")
    T = lib.terms
    CR = lib.scalars.ComplexRational
    raw = {0: {((0, 0), (2, 0), -2): CR(1), ((0, 0), (0, 0), 0): CR(1)}}
    one = {0: {((0, 0), (0, 0), 0): CR(1)}}
    limit = T.MAX_CANONICAL_MONOMIALS
    try:
        for cap in (12, 11, 4, 3):
            T.MAX_CANONICAL_MONOMIALS = cap
            got = _outcome(lambda: _bags_repr(
                T.compose_components(T.RATIONAL_SYSTEM, 2, raw, one, None)))
            out(f"certificate bound, limit {cap}: {got}")
    finally:
        T.MAX_CANONICAL_MONOMIALS = limit


def _raw_order(bags) -> str:
    """The bags' degrees and terms unsorted, in the order they are handed out."""
    return repr([(d, list(bag.items())) for d, bag in bags.items()])


def _order_terms(rng, CR, n, degree, shared):
    """One to four seeded terms of one degree; with ``shared``, each term after
    the first may join the (mode, parity) group of the one before, or bring
    its multiple by xi_1^2 + ... + xi_n^2 along."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        if shared and terms and rng.random() < 0.6:
            _c, mode, alpha, npow = terms[-1]
        else:
            mode = tuple(rng.randint(-2, 2) for _ in range(n))
            alpha, npow = None, None
        coeff = CR(rng.randint(-2, 2), rng.randint(-1, 1))
        if alpha is not None and rng.random() < 0.5:
            # coeff R e^(i mode.x) xi^alpha |xi|^(npow - 2): canonical form peels it back
            for j in range(n):
                terms.append((coeff, mode, tuple(a + 2 * (i == j) for i, a in enumerate(alpha)),
                              npow - 2))
            continue
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        terms.append((coeff, mode, alpha, degree - sum(alpha)))
    return terms


def dump_term_order(lib, out):
    """Unsorted ``raw_terms()`` of seeded components in dimensions 2, 3 and 4:
    bags of terms at random modes, so mostly one term per (mode, parity)
    group, some of them zero, and bags whose groups share terms or hold
    multiples of xi_1^2 + ... + xi_n^2; of their sums and scalar
    multiples; and unsorted term
    bags of ``random_symbol`` and of ``compose`` in both orders for seeded
    classical pairs in dimensions 2 and 3, and of ``nc_compose`` at theta
    2/5."""
    S, CR = lib.symbols, lib.scalars.ComplexRational
    for n in (2, 3, 4):
        rng = random.Random(40 + n)
        for i in range(16):
            degree = rng.randint(-3, 3)
            comps = []
            for kind, shared in (("lone", False), ("shared", True)):
                terms = _order_terms(rng, CR, n, degree, shared)
                comp = S.HomogeneousComponent(n, degree, terms)
                comps.append(comp)
                out(f"term order n={n} {i} {kind}: {list(comp.raw_terms().items())!r}")
            total = comps[0] + comps[1]
            half = comps[1].scale(Fraction(1, 2))
            out(f"term order n={n} {i} sum: {list(total.raw_terms().items())!r}")
            out(f"term order n={n} {i} scale: {list(half.raw_terms().items())!r}")
    cases = [(f"n={n}", lib.calculus.compose, classical_pairs(lib, n, random.Random(50 + n)))
             for n in (2, 3)]
    theta = Fraction(2, 5)
    cases.append((f"theta={theta}", lib.nctorus.nc_compose,
                  twisted_pairs(lib, theta, random.Random(52))))
    for label, compose, pairs in cases:
        for i, (a, b, _docs) in enumerate(pairs):
            out(f"term order {label} {i} a: {_raw_order(a._term_bags())}")
            out(f"term order {label} {i} b: {_raw_order(b._term_bags())}")
            for tag, s, t in (("ab", a, b), ("ba", b, a)):
                got = _outcome(lambda: _raw_order(compose(s, t)._term_bags()))
                out(f"term order {label} {i} {tag} compose: {got}")


# random_symbol's (order, depth, max_mode, max_alpha) grid
RANDOM_GRID = [(order, depth, max_mode, max_alpha) for order in range(-2, 3)
               for depth in range(7) for max_mode in range(5) for max_alpha in range(5)]


def dump_random_symbols(lib, out):
    """Unsorted term bags of ``random_symbol`` at every ``RANDOM_GRID`` point,
    in dimensions 2 to 5 and at theta 2/5, 5/12, 7/30 and 0.3; each twisted
    symbol also read back from its text (exact twists) and JSON documents."""
    D = lib.dsl
    rng = random.Random(90)
    cases = [(dim, None) for dim in (2, 3, 4, 5)]
    cases += [(2, theta) for theta in (Fraction(2, 5), Fraction(5, 12), Fraction(7, 30), 0.3)]
    for dim, theta in cases:
        for order, depth, max_mode, max_alpha in RANDOM_GRID:
            seed = rng.getrandbits(32)
            sym = D.random_symbol(seed, dim=dim, order=order, depth=depth, max_mode=max_mode,
                                  max_alpha=max_alpha, theta=theta)
            out(f"random dim={dim} theta={theta} order={order} depth={depth} mode={max_mode} "
                f"alpha={max_alpha} seed={seed}: {_raw_order(sym._term_bags())}")
            if theta is None:
                continue
            if isinstance(theta, Fraction):
                text = D.format_symbol(sym)
                out(f"  text read back: {_outcome(lambda: D.parse_symbol(text)._term_bags())}")
            doc = json.loads(json.dumps(D.symbol_to_json(sym)))
            out(f"  JSON read back: {_outcome(lambda: D.symbol_from_json(doc)._term_bags())}")


# denominators of the large coefficients: 1, small, and of 20 and 41 digits
_LARGE_DENOMINATORS = [1, 3, 77, 2**64 + 13, 10**40 + 9]


def _large_coefficients(lib, sym, rng):
    """``sym`` with every coefficient replaced by one whose parts have about 200
    digits over one of ``_LARGE_DENOMINATORS``; about a quarter are real."""
    S = lib.symbols
    CR = lib.scalars.ComplexRational
    comps = {}
    for d, bag in sorted(sym._term_bags().items()):
        terms = []
        for mode, alpha, npow in sorted(bag):
            parts = [Fraction(rng.choice((-1, 1)) * rng.randrange(10**199, 10**200),
                              rng.choice(_LARGE_DENOMINATORS)) for _ in range(2)]
            if rng.random() < 0.25:
                parts[1] = 0
            terms.append((CR(*parts), mode, alpha, npow))
        comps[d] = S.HomogeneousComponent(sym.n, d, terms)
    return S.ClassicalSymbol(sym.n, sym.order, comps, sym.trusted_floor)


def dump_large_coefficients(lib, out):
    compose = lib.calculus.compose
    for n in (2, 3):
        rng = random.Random(90 + n)
        for k, (a, b, _docs) in enumerate(classical_pairs(lib, n, rng)):
            if k == 8:
                break
            a, b = _large_coefficients(lib, a, rng), _large_coefficients(lib, b, rng)
            for tag, s, t in (("ab", a, b), ("ba", b, a)):
                out(f"large n={n} pair {k} {tag} compose: "
                    f"{_outcome(lambda: _components_repr(compose(s, t)))}")


def _random_expr(rng, twisted, dim, deg, depth, xi=True):
    """A random expression whose terms all have |xi| degree ``deg``; without
    ``xi``, an algebra element with neither xi nor r factors."""
    kinds = ["num", "num", "i", "(", "mode"] + ["mode"] * twisted + ["xi", "xi"] * xi
    terms = []
    for k in range(rng.randint(1, 3)):
        factors, left = [], deg
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(kinds)
            if kind == "num":
                factors.append(rng.choice(["2", "3", "1/2", "7/3", "10", "0", "5/4"]))
            elif kind == "i":
                factors.append("i")
            elif kind == "xi":
                a = rng.randint(0, 3)
                factors.append(f"xi{rng.randint(1, dim)}" + (f"^{a}" if a != 1 else ""))
                left -= a
            elif kind == "mode" and twisted:
                c = rng.randint(-3, 3)
                factors.append(rng.choice("UV") + (f"^{c}" if c != 1 else ""))
            elif kind == "mode":
                factors.append("e(" + ",".join(str(rng.randint(-2, 2)) for _ in range(dim)) + ")")
            elif depth > 0:
                d = rng.randint(-2, 2) if xi else 0
                factors.append("(" + _random_expr(rng, twisted, dim, d, depth - 1, xi) + ")")
                left -= d
        if xi:
            factors.insert(rng.randint(0, len(factors)), f"r^{left}")
        elif not factors:
            factors.append("1")
        sign = rng.choice(["", "-"]) if k == 0 else rng.choice(["+ ", "- "])
        terms.append(sign + " * ".join(factors))
    return " ".join(terms)


def _random_document(rng, theta):
    twisted = theta is not None
    dim = 2 if twisted else rng.randint(2, 3)
    order = rng.randint(-1, 2)
    floor = order - rng.randint(0, 3)
    head = f"dim {dim} order {order} floor {floor}" + (f" theta {theta}" if twisted else "")
    blocks = [f"deg {d} {{ {_random_expr(rng, twisted, dim, d, 2)} }}"
              for d in range(order, floor - 1, -1) if rng.random() < 0.7]
    return "\n".join([head] + blocks)


def _parsed(lib, text) -> str:
    try:
        sym = lib.dsl.parse_symbol(text)
        return f"{lib.dsl.format_symbol(sym)!r} {_components_repr(sym)}"
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


# (label, document) pairs, read by parse_symbol
DOCUMENTS = [
    ("classical factors", "dim 3 order 1 floor -1\ndeg 1 { -3/4 * i * e(1,-2,0) * xi1^2 * xi3 * r^-2 "
     "+ 2 * e(0,0,1) * xi2 * e(1,0,0) * i * i + (1/2 + 2*i) * xi1 }\ndeg -1 { 5 * r^-1 }"),
    ("twisted factors", "dim 2 order 0 floor -2 theta 2/5\ndeg 0 { -3/4 * i * U^2 * V^-1 * xi1 * r^-1 "
     "+ V * U + U^0 * V^0 + (2 - i) * V^3 * U^-2 }\ndeg -2 { U * r^-2 * V }"),
    ("parenthesis inside a word", "dim 2 order 0 floor 0 theta 2/5\ndeg 0 { U * (V + 1) * U^2 }"),
    ("product of sums", "dim 2 order 0 floor 0 theta 7/30\ndeg 0 { (U + V) * (U - V) }"),
    ("word after a sum", "dim 2 order 0 floor 0 theta 1/2\ndeg 0 { (U + V) * V * U * U + (1 + V) * U^2 }"),
    ("one-term parenthesis after a sum", "dim 2 order 0 floor 0 theta 1/2\n"
     "deg 0 { (U * V + 1) * V * (U) + (U * V + 1) * V * (i * U) * V }"),
    ("sums at theta 7/30", "dim 2 order 0 floor 0 theta 7/30\n"
     "deg 0 { V^2 * (U^3 + i * V) * U^5 * (V * U - 1) * U^-1 * V^4 * U^3 }"),
    ("i squared in a word", "dim 2 order 0 floor 0 theta 2/5\ndeg 0 { i * i * V * U }"),
    ("phase steps that cancel", "dim 2 order 0 floor 0 theta 2/5\ndeg 0 { V * U * V^-2 * U }"),
    ("half-turn steps", "dim 2 order 0 floor 0 theta 1/2\ndeg 0 { V * U * V * U + V * U^2 + i * i }"),
    ("one-term parentheses", "dim 2 order 0 floor 0 theta 5/12\n"
     "deg 0 { (V * U) * (2 * i) * (V^-1 * U^3) * (1/3) + ((U)) * (V - V) * U }"),
    ("nested sums", "dim 2 order 2 floor 0\ndeg 2 { ((xi1 + xi2) * (xi1 - xi2) + 2 * (xi1 * xi2)) "
     "* (1 + i) } deg 1 { -(xi1 + e(1,1) * xi2) * (3 + e(0,-1)) }"),
    ("zero product past the exponent limit", "dim 2 order 0 floor 0\ndeg 0 { 0 * xi1^100 }"),
    ("zero product, zero last", "dim 2 order 0 floor 0\ndeg 0 { xi1^100 * r^-300 * 0 }"),
    ("zero sum times a high power", "dim 2 order 0 floor 0\ndeg 0 { (xi1 - xi1) * r^-200 + 1 }"),
    ("zero times a sum", "dim 2 order 0 floor 0\ndeg 0 { 0 * (xi1^70 + r^70) }"),
    ("zero factor of a wrong degree", "dim 2 order 1 floor 0\ndeg 1 { 0 }"),
    ("negated zero of a wrong degree", "dim 2 order 1 floor 0\ndeg 1 { -0 + xi1 }"),
    ("zero inside a lone sum", "dim 2 order 1 floor 0\ndeg 1 { -(0 + xi1) }"),
    ("zero inside a multiplied sum", "dim 2 order 1 floor 0\ndeg 1 { (0 + xi1) * 2 }"),
    ("lone zero parenthesis", "dim 2 order 1 floor 0\ndeg 1 { (0) }"),
    ("empty parenthesis sum", "dim 2 order 1 floor 0\ndeg 1 { (xi1 - xi1) }"),
    ("cancelling terms", "dim 2 order 0 floor 0\ndeg 0 { xi1 * r^-1 - xi1 * r^-1 + 0 }"),
    ("unexpected character", "dim 2 order 0 floor 0\ndeg 0 { xi1 * r^-1 @ }"),
    ("zero denominator", "dim 2 order 0 floor 0\ndeg 0 { 3/0 }"),
    ("zero theta denominator", "dim 2 order 0 floor 0 theta 1/0 deg 0 { U }"),
    ("mode of the wrong length", "dim 3 order 0 floor 0\ndeg 0 { e(1,2) }"),
    ("xi out of range", "dim 2 order 1 floor 0\ndeg 1 { xi3 }"),
    ("xi zero", "dim 2 order 1 floor 0\ndeg 1 { xi0 }"),
    ("xi with a long index", "dim 2 order 1 floor 0\ndeg 1 { xi" + "9" * 1200 + " }"),
    ("negative xi exponent", "dim 2 order 0 floor -2\ndeg -2 { xi1^-2 }"),
    ("mode in a twisted document", "dim 2 order 0 floor 0 theta 1/3\ndeg 0 { U * e(1,0) }"),
    ("U without theta", "dim 2 order 0 floor 0\ndeg 0 { U * V^-1 }"),
    ("U without theta in dim 3", "dim 3 order 0 floor 0\ndeg 0 { U^2 * xi3 * r^-1 }"),
    ("theta without U", "dim 2 order 0 floor 0 theta 1/3\ndeg 0 { 1 }"),
    ("twist in dim 3", "dim 3 order 0 floor 0 theta 1/3\ndeg 0 { U }"),
    ("twist beyond the order limit", "dim 2 order 0 floor 0 theta 1/10007\ndeg 0 { U }"),
    ("block degree mismatch", "dim 2 order 0 floor -2\ndeg -1 { xi1 * r^-1 }"),
    ("block above the order", "dim 2 order -1 floor -2\ndeg 0 { 1 }"),
    ("block below the floor", "dim 2 order 0 floor -1\ndeg -2 { r^-2 }"),
    ("xi exponent beyond the limit", "dim 2 order 0 floor 0\ndeg 0 { xi1^65 * r^-65 }"),
    ("r power beyond the limit", "dim 2 order 0 floor -70\ndeg -65 { r^-65 }"),
    ("exponent in a sum beyond the limit", "dim 2 order 0 floor 0\ndeg 0 { (xi1^40 + xi2^40) * xi1^30 * r^-70 }"),
    ("too many digits", "dim 2 order 0 floor 0\ndeg 0 { " + "7" * 1001 + " }"),
    ("digits at the limit", "dim 2 order 0 floor 0\ndeg 0 { " + "7" * 1000 + "/" + "3" * 1000 + " }"),
    ("empty document", ""),
    ("blank document", " \n\t "),
    ("header cut short", "dim 2 order 0"),
    ("unclosed block", "dim 2 order 0 floor 0\ndeg 0 { 1 "),
    ("unclosed parenthesis", "dim 2 order 0 floor 0\ndeg 0 { (1 + xi1 * r^-1 }"),
    ("dangling product", "dim 2 order 0 floor 0\ndeg 0 { xi1 * }"),
    ("r without exponent", "dim 2 order 0 floor 0\ndeg 0 { r }"),
    ("unknown name", "dim 2 order 0 floor 0\ndeg 0 { x }"),
    ("operator as a factor", "dim 2 order 0 floor 0\ndeg 0 { ) }"),
    ("missing deg", "dim 2 order 0 floor 0\n{ 1 }"),
    ("wrong header word", "dim 2 degree 0 floor 0"),
    ("dimension 1", "dim 1 order 0 floor 0"),
    ("dimension 65", "dim 65 order 0 floor 0"),
    ("nested too deeply", "dim 2 order 0 floor 0\ndeg 0 { " + "(" * 5000 + "1" + ")" * 5000 + " }"),
]


def _spaced(text):
    """The document's later tokens after a tab, blank lines and CRLF line ends."""
    return text.replace("\n", "\r\n\r\n\t").replace(" {", "\t{\r\n ")


# (label, element) pairs, read by parse_nc_element at theta 2/5
ELEMENTS = [
    ("word", "U*V + 2"), ("phase word", "V * U^3 * V^-1 * U^-3"), ("sum product", "(U + i) * (V - 1) * U"),
    ("nested", "-(U * (1/2 + V)) * V^2 - 3"), ("zero", "U - U"), ("lone zero", "0"),
    ("trailing token", "U * V )"), ("trailing number", "U 2"), ("xi", "U * xi1"),
    ("r", "r^2 * U"), ("mode", "e(1,0)"), ("end", "U *"), ("bad character", "U\n\t* $"),
]


def dump_documents(lib, out):
    rng = random.Random(80)
    for k in range(40):
        text = _random_document(rng, None)
        out(f"document classical {k}: {text!r}")
        out(f"  read: {_parsed(lib, text)}")
    for th in (Fraction(2, 5), Fraction(7, 30), Fraction(1, 2), Fraction(0)):
        for k in range(15):
            text = _random_document(rng, th)
            out(f"document theta={th} {k}: {text!r}")
            out(f"  read: {_parsed(lib, text)}")
    for label, text in DOCUMENTS:
        out(f"document {label}: {_parsed(lib, text)}")
        out(f"document {label}, spaced: {_parsed(lib, _spaced(text))}")
    N = lib.nctorus
    for th in (Fraction(2, 5), Fraction(7, 30)):
        theta = N.Theta.from_rational(th)
        read = lambda text: _nc_poly_repr(lib.dsl.parse_nc_element(text, theta))  # noqa: E731
        for k in range(15):
            text = _random_expr(rng, True, 2, 0, 2, xi=False)
            out(f"element theta={th} {k} {text!r}: {_outcome(read, text)}")
        for label, text in ELEMENTS:
            out(f"element theta={th} {label}: {_outcome(read, text)}")


def _json_doc(terms, *, dim=2, order=0, floor=0, deg=0, theta=None):
    """A JSON document of one block of ``(re, im, fields)`` terms."""
    doc = {"dim": dim, "order": order, "floor": floor, "blocks": [{"deg": deg, "terms": [
        {"coeff": {"re": re, "im": im}, **fields} for re, im, fields in terms]}]}
    if theta is not None:
        doc["theta"] = theta
    return doc


# (label, document) pairs, read by symbol_from_json
JSON_DOCUMENTS = [
    ("classical exact", {"dim": 3, "order": 1, "floor": -1, "blocks": [
        {"deg": 1, "terms": [
            {"coeff": {"re": "-3/4", "im": "1/2"}, "mode": [1, -2, 0], "alpha": [2, 0, 1], "npow": -2},
            {"coeff": {"re": 2, "im": "0"}, "alpha": [0, 1, 0], "npow": 0},
            {"coeff": {"re": "1e-3", "im": "-7"}, "mode": [1, -2, 0], "alpha": [2, 0, 1], "npow": -2}]},
        {"deg": -1, "terms": [{"coeff": {"re": "5", "im": "0"}, "npow": -1}]}]}),
    ("twisted exact", {"dim": 2, "order": 0, "floor": -2, "theta": "2/5", "blocks": [
        {"deg": 0, "terms": [
            {"coeff": {"re": "1", "im": "-2"}, "nc": [2, -1], "alpha": [1, 0], "npow": -1},
            {"coeff": {"re": "3", "im": "0"}, "nc": [0, 0], "alpha": [0, 0], "npow": 0}]},
        {"deg": -2, "terms": [{"coeff": {"re": "1/2", "im": "0"}, "nc": [1, 1], "npow": -2}]}]}),
    ("twisted exact with phases", _json_doc(
        [("1", "0", {"nc": [1, 0], "phase": [12, 5]}), ("0", "2", {"nc": [0, 1], "phase": [7, 3]}),
         ("-1", "1", {"nc": [1, 0], "phase": [4, 1]})], theta="5/12")),
    ("twisted float", _json_doc(
        [(0.5, -1.25, {"nc": [1, -1], "alpha": [0, 1], "npow": -1}),
         (1.0, 0.0, {"nc": [0, 0]})], theta=0.3)),
    ("twisted float with a phase", _json_doc(
        [(1.0, 0.0, {"nc": [2, 0], "phase": [7, 2]}), (0.0, -0.5, {"nc": [0, 1], "phase": [4, 3]})],
        theta=0.4)),
    ("nc without a theta", _json_doc([("1", "0", {"nc": [1, 0]})])),
    ("mode in a twisted document", _json_doc([("1", "0", {"mode": [1, 0]})], theta="1/3")),
    ("phase without a theta", _json_doc([("1", "0", {"mode": [1, 0], "phase": [4, 1]})])),
    ("mode of the wrong length, classical", _json_doc([("1", "0", {"mode": [1, 2]})], dim=3)),
    ("mode of the wrong length, twisted", _json_doc([("1", "0", {"nc": [1, 2, 3]})], theta="1/3")),
    ("exponent past the limit", _json_doc([("1", "0", {"alpha": [65, 0], "npow": -65})])),
    ("degree mismatch", _json_doc([("1", "0", {"alpha": [1, 0], "npow": -1})], floor=-1, deg=-1)),
    ("block above the order", _json_doc([("1", "0", {})], order=-1, floor=-2)),
    ("block below the floor", _json_doc([("1", "0", {"npow": -2})], floor=-1, deg=-2)),
    ("dimension 1", _json_doc([], dim=1)),
    ("dimension 65", _json_doc([], dim=65)),
    ("twist in dimension 3", _json_doc([("1", "0", {"nc": [1, 0]})], dim=3, theta="1/3")),
    ("theta 1/10007", _json_doc([("1", "0", {"nc": [1, 0]})], theta="1/10007")),
    ("phase past the cyclotomic-order limit",
     _json_doc([("1", "0", {"nc": [1, 0], "phase": [40001, 1]})], theta="1/4")),
    ("float phase of a root order past the float range",
     _json_doc([(1.0, 0.0, {"nc": [1, 0], "phase": [10**400, 1]})], theta=0.3)),
    ("float phase of an exponent past the float range",
     _json_doc([(1.0, 0.0, {"nc": [1, 0], "phase": [7, 10**400]})], theta=0.3)),
    ("misspelt term field", _json_doc([("1", "0", {"nc": [1, 0], "phaze": [4, 1]})], theta="1/4")),
    ("misspelt header field", {**_json_doc([("1", "0", {"modes": [1, 0]})]), "thetta": "1/4"}),
    ("misspelt block field", {"dim": 2, "order": 0, "floor": 0, "blocks": [{"deg": 0, "trems": []}]}),
]


def dump_json_documents(lib, out):
    for label, doc in JSON_DOCUMENTS:
        out(f"json document {label}: {_nc_outcome(lambda: lib.dsl.symbol_from_json(doc))}")


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
    # each value beyond the limit a document is held to, and one just inside it
    for dim in ("1", "64", "65"):
        commands.append(["trace-check", "--dim", dim, "--trials", "0"])
    commands += [["trace-check", "--dim", "1", "--trials", "1"],
                 ["trace-check", "--dim", "65", "--trials", "1"],
                 ["trace-check", "--trials", "-1"],
                 ["nc-trace-check", "--theta", "1/3", "--trials", "-1"],
                 ["nc-trace-check", "--theta", "1/10007", "--trials", "1"],
                 ["nc-trace-check", "--theta", "1/10000", "--trials", "0"]]
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
    dump_residues_without_composing(lib, lines.append)
    dump_classical_layer(lib, lines.append)
    dump_twisted_layer(lib, lines.append)
    dump_float_arithmetic(lib, lines.append)
    dump_nc_polynomials(lib, lines.append)
    dump_complex_rationals(lib, lines.append)
    dump_long_complex_rationals(lib, lines.append)
    dump_cyclotomic_scalars(lib, lines.append)
    dump_pi_graded(lib, lines.append)
    dump_packing_edges(lib, lines.append)
    dump_monomial_pairs(lib, lines.append)
    dump_large_coefficients(lib, lines.append)
    dump_compositions_by_mode(lib, lines.append)
    dump_canonical_certificates(lib, lines.append)
    dump_term_order(lib, lines.append)
    dump_random_symbols(lib, lines.append)
    dump_documents(lib, lines.append)
    dump_json_documents(lib, lines.append)
    with tempfile.TemporaryDirectory() as workdir:
        dump_cli(lib, lines.append, docs, workdir)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
