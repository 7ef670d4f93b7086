"""The four workloads: seeded inputs, the operation each one times, and its checks.

Every workload builds its inputs from the library modules handed to it
(``lib``), so a fresh import can be timed as part of set-up.  The inputs
end up as one *round*: a fixed list of operations that a run repeats whole
until its time is up.  Every run of a seed thus times the same operations,
however fast the machine or the library is.

Results are checked between timed rounds, the first time each op is run.  No check compares against stored output: each uses the float oracle
in ``oracle.py``, or a property the method must have.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import random
import re
from fractions import Fraction

import oracle


class Op:
    """One timed call: ``fn()``; ``key`` identifies the input it runs on."""

    __slots__ = ("key", "fn", "expect_exit")

    def __init__(self, key, fn, expect_exit=None):
        self.key = key
        self.fn = fn
        self.expect_exit = expect_exit


# -- seeded pair generation ------------------------------------------------------


def _x_dependent_signatures(components: dict) -> list:
    return sorted(
        {(mode, alpha) for raw in components.values() for (mode, alpha, _p) in raw if any(mode)}
    )


def _reflected_blocks(sigma_components: dict, tau_components: dict, rng: random.Random) -> dict:
    """tau's terms moved onto the reflections (-mode, alpha) of sigma's x-dependent terms.

    Each product of a sigma term with its reflection lands on Fourier mode
    zero with even xi exponents, which is what a nonzero residue needs; a
    draw as in the trace-check command almost never lines up like that.
    tau keeps its coefficients, degrees and floor and still depends on x.
    """
    sigs = _x_dependent_signatures(sigma_components)
    if not sigs:
        return None
    blocks = {}
    for deg, raw in sorted(tau_components.items()):
        terms = []
        for _key, s in sorted(raw.items()):
            mode, alpha = rng.choice(sigs)
            terms.append((s, tuple(-k for k in mode), alpha, deg - sum(alpha)))
        blocks[deg] = terms
    return blocks


def classical_pair(lib, rng: random.Random, n: int, m1: int, m2: int):
    """A criterion-1 pair of orders (m1, m2) in dimension n, tau reflected onto sigma."""
    depth = m1 + n + m2
    kw = dict(dim=n, depth=depth, max_mode=3, max_alpha=3)
    sigma = lib.dsl.random_symbol(rng.getrandbits(32), order=m1, **kw)
    tau = lib.dsl.random_symbol(rng.getrandbits(32), order=m2, **kw)
    sc = {d: c.raw_terms() for d, c in sigma.components.items()}
    tc = {d: c.raw_terms() for d, c in tau.components.items()}
    blocks = _reflected_blocks(sc, tc, rng)
    if blocks is not None:
        comps = {}
        for deg, terms in blocks.items():
            comp = lib.symbols.HomogeneousComponent(n, deg, terms)
            if not comp.is_zero():
                comps[deg] = comp
        tau = lib.symbols.ClassicalSymbol(n, tau.order, comps, tau.trusted_floor)
    return sigma, tau


def twisted_pair(lib, rng: random.Random, theta: Fraction, m1: int, m2: int):
    """A twisted pair as in nc-trace-check (orders -1..1, |mode|, |alpha| <= 2), reflected."""
    depth = m1 + 2 + m2
    kw = dict(dim=2, depth=depth, max_mode=2, max_alpha=2, theta=theta)
    sigma = lib.dsl.random_symbol(rng.getrandbits(32), order=m1, **kw)
    tau = lib.dsl.random_symbol(rng.getrandbits(32), order=m2, **kw)
    blocks = _reflected_blocks(sigma.components, tau.components, rng)
    if blocks is not None:
        tau = lib.nctorus.NCSymbol(tau.theta, tau.order, blocks, tau.trusted_floor)
    return sigma, tau


def classical_terms(sym) -> dict:
    return oracle.terms_of({d: c.raw_terms() for d, c in sym.components.items()})


def twisted_terms(sym) -> dict:
    return oracle.terms_of(sym.components)


def random_points(rng: random.Random, n: int, count: int):
    pts = []
    for _ in range(count):
        x = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(n))
        raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(t * t for t in raw)) or 1.0
        scale = rng.uniform(0.7, 1.5)
        pts.append((x, tuple(scale * t / norm for t in raw)))
    return pts


# -- calculus workloads -------------------------------------------------------------

ORDERS_N3 = [(m1, m2) for m1 in range(-1, 3) for m2 in range(-1, 3)]
TWISTS = [Fraction(2, 5), Fraction(5, 12), Fraction(7, 30)]
ORDERS_NC = [(m1, m2) for m1 in range(-1, 2) for m2 in range(-1, 2)]


def _tally(inputs) -> dict:
    return inputs.setdefault("tally", collections.Counter())


def _mostly_nonzero(inputs) -> tuple[bool, dict]:
    """More than half of the checked pairs must have a nonzero Res(sigma o tau)."""
    tally = _tally(inputs)
    return 2 * tally["nonzero_residues"] > tally["pairs"], dict(tally)


class _PairWorkload:
    """Shared shape of the three calculus workloads: one round chosen from a larger pool.

    Set-up draws ``draws_per_stratum`` pairs in every stratum (symbol
    orders, and the twist on the torus).  ``arrange`` then ranks the pool by
    ``cost_hint`` and keeps every ``keep_every``-th pair of the ranking,
    starting mid-way into the first step, as the round.  The cost of a pair
    spans three orders of magnitude, and the heavy tail sets most of a
    round's time; this systematic sample over the ranking holds each seed's
    round closer to the generator's cost profile than a plain draw of the
    same size.  The hint is the number of raw terms in the oracle's
    xi-derivative towers for the op; across n = 3 pairs its log correlates
    with the log of the measured op time at about 0.98.
    """

    draws_per_stratum = 32
    keep_every = 4
    trace_rounds = 1
    sample_size = 16  # pairs of the round, spread over the ranking, whose residues are checked

    def make_pair(self, lib, rng, stratum):
        raise NotImplementedError

    def strata(self):
        raise NotImplementedError

    def cost_hint(self, sigma, tau, stratum) -> int:
        raise NotImplementedError

    def op_fn(self, lib):
        """A maker of the timed call for one pair."""
        raise NotImplementedError

    finish = staticmethod(_mostly_nonzero)

    @staticmethod
    def failed(op, result) -> bool:
        return isinstance(result, BaseException)

    def setup(self, lib, seed: int, workdir: str):
        rng = random.Random(seed)
        pairs = [
            (stratum, *self.make_pair(lib, rng, stratum))
            for _ in range(self.draws_per_stratum)
            for stratum in self.strata()
        ]
        return {"lib": lib, "pairs": pairs, "seed": seed}

    def arrange(self, inputs) -> None:
        pairs = inputs["pairs"]
        hints = [self.cost_hint(sigma, tau, stratum) for stratum, sigma, tau in pairs]
        ranked = sorted(range(len(pairs)), key=lambda i: (hints[i], i))
        chosen = ranked[self.keep_every // 2 :: self.keep_every]
        op_fn = self.op_fn(inputs["lib"])
        inputs["round"] = [Op(k, op_fn(pairs[k][1], pairs[k][2])) for k in sorted(chosen)]
        inputs["sampled"] = set(chosen[:: max(1, len(chosen) // self.sample_size)])


class TraceN3(_PairWorkload):
    name = "trace-n3"
    n = 3

    def strata(self):
        return ORDERS_N3

    def make_pair(self, lib, rng, stratum):
        return classical_pair(lib, rng, self.n, *stratum)

    def cost_hint(self, sigma, tau, stratum):
        m1, m2 = stratum
        return oracle.tower_term_count(classical_terms(sigma), self.n, m2) + (
            oracle.tower_term_count(classical_terms(tau), self.n, m1)
        )

    def op_fn(self, lib):
        trace_defect = lib.calculus.trace_defect
        return lambda sigma, tau: lambda: trace_defect(sigma, tau)

    def check(self, inputs, results) -> bool:
        lib = inputs["lib"]
        tally = _tally(inputs)
        ok = True
        for key, defect in results.items():
            ok &= not isinstance(defect, BaseException) and defect.is_zero()
            _st, sigma, tau = inputs["pairs"][key]
            a, b = classical_terms(sigma), classical_terms(tau)
            v_st, s_st = oracle.residue_of_product(a, b, self.n)
            tally["pairs"] += 1
            tally["nonzero_residues"] += abs(v_st) > 1e-6 * s_st
            if key in inputs["sampled"]:
                v_ts, s_ts = oracle.residue_of_product(b, a, self.n)
                r_st = lib.calculus._residue_of_composition(sigma, tau)
                r_ts = lib.calculus._residue_of_composition(tau, sigma)
                ok &= oracle.agree(pi_graded_value(r_st), v_st, s_st)
                ok &= oracle.agree(pi_graded_value(r_ts), v_ts, s_ts)
        return ok


class ComposeFull(_PairWorkload):
    name = "compose-full"
    n = 3
    points = 2
    draws_per_stratum = 64  # a round of 256: the median op sits among pairs of widely varying cost

    def strata(self):
        return ORDERS_N3

    def make_pair(self, lib, rng, stratum):
        return classical_pair(lib, rng, self.n, *stratum)

    def cost_hint(self, sigma, tau, stratum):
        return oracle.tower_term_count(classical_terms(sigma), self.n, stratum[1])

    def op_fn(self, lib):
        compose = lib.calculus.compose
        return lambda sigma, tau: lambda: compose(sigma, tau)

    def check(self, inputs, results) -> bool:
        tally = _tally(inputs)
        rng = random.Random(inputs["seed"] ^ 0x5EED)
        ok = True
        for key, product in results.items():
            if isinstance(product, BaseException):
                return False
            _st, sigma, tau = inputs["pairs"][key]
            floor = max(sigma.trusted_floor + tau.order, sigma.order + tau.trusted_floor)
            top = sigma.order + tau.order
            ok &= product.trusted_floor == floor
            emitted = product.components
            ok &= all(floor <= d <= top for d in emitted)
            wanted = list(range(floor, top + 1))
            pts = random_points(rng, self.n, self.points)
            ref = oracle.evaluate_composition(
                classical_terms(sigma), classical_terms(tau), self.n, wanted, pts
            )
            got = classical_terms(product)
            for d in wanted:
                for (x, xi), (v, scale) in zip(pts, ref[d]):
                    w, wscale = oracle.evaluate(got.get(d, []), x, xi)
                    ok &= oracle.agree(w, v, max(scale, wscale))
            tally["pairs"] += 1
            tally["degrees_emitted"] += len(emitted)
        return ok

    @staticmethod
    def finish(inputs) -> tuple[bool, dict]:
        return True, dict(_tally(inputs))


class NCTrace(_PairWorkload):
    name = "nc-trace"
    keep_every = 2
    sample_size = 27

    def strata(self):
        return [(th, m1, m2) for th in TWISTS for (m1, m2) in ORDERS_NC]

    def make_pair(self, lib, rng, stratum):
        theta, m1, m2 = stratum
        return twisted_pair(lib, rng, theta, m1, m2)

    def cost_hint(self, sigma, tau, stratum):
        _theta, m1, m2 = stratum
        return oracle.tower_term_count(twisted_terms(sigma), 2, m2) + (
            oracle.tower_term_count(twisted_terms(tau), 2, m1)
        )

    def op_fn(self, lib):
        nc_trace_defect = lib.nctorus.nc_trace_defect
        return lambda sigma, tau: lambda: nc_trace_defect(sigma, tau)

    def check(self, inputs, results) -> bool:
        nct = inputs["lib"].nctorus
        tally = _tally(inputs)
        ok = True
        for key, defect in results.items():
            ok &= not isinstance(defect, BaseException) and defect.is_zero()
            (theta, _m1, _m2), sigma, tau = inputs["pairs"][key]
            a, b = twisted_terms(sigma), twisted_terms(tau)
            v_st, s_st = oracle.residue_of_product(a, b, 2, theta=float(theta))
            tally["pairs"] += 1
            tally["nonzero_residues"] += abs(v_st) > 1e-6 * s_st
            if key not in inputs["sampled"]:
                continue
            v_ts, s_ts = oracle.residue_of_product(b, a, 2, theta=float(theta))
            exact_st = nct._nc_residue_of_composition(sigma, tau).to_complex()
            exact_ts = nct._nc_residue_of_composition(tau, sigma).to_complex()
            ok &= oracle.agree(exact_st, v_st, s_st)
            ok &= oracle.agree(exact_ts, v_ts, s_ts)
            fsig, ftau = _floating(inputs["lib"], sigma), _floating(inputs["lib"], tau)
            ok &= oracle.agree(nct._nc_residue_of_composition(fsig, ftau).to_complex(), exact_st, s_st)
            ok &= oracle.agree(nct._nc_residue_of_composition(ftau, fsig).to_complex(), exact_ts, s_ts)
        return ok


def _floating(lib, sym):
    """The same symbol at the float value of its twist, on the floating backend."""
    nct = lib.nctorus
    theta = nct.Theta.from_float(sym.theta.as_float())
    return nct.NCSymbol(theta, sym.order, sym.components, sym.trusted_floor)


def pi_graded_value(value) -> complex:
    """A PiGradedScalar as a complex number, read from its coefficient and grade."""
    return oracle.exact_to_complex(value.coeff) * math.pi ** float(value.pi_exponent)


# -- cli-docs ----------------------------------------------------------------------------

# Malformed documents, the same for every seed.  Each must end in the
# documented exit code with a one-line message; today each escapes
# ``cli.main`` as a traceback and counts as a failed operation.
MALFORMED = [
    # truncated JSON: documented exit 1 (parse error); raises JSONDecodeError
    (
        "truncated.json",
        '{"dim": 2, "order": 0, "floor": -2, "blocks": [{"deg": -2, "terms": '
        '[{"coeff": {"re": "1", "im": "0"}, "alpha": [0, 0], "np',
        1,
    ),
    # wrong-typed term field: documented exit 2; raises ValueError
    (
        "npow_text.json",
        json.dumps({"dim": 2, "order": 0, "floor": -2, "blocks": [{"deg": -2, "terms": [
            {"coeff": {"re": "1", "im": "0"}, "alpha": [0, 0], "npow": "x"}]}]}),
        2,
    ),
    # wrong-typed block field: documented exit 2; raises TypeError
    (
        "deg_null.json",
        json.dumps({"dim": 2, "order": 0, "floor": -2, "blocks": [{"deg": None, "terms": [
            {"coeff": {"re": "1", "im": "0"}, "alpha": [0, 0], "npow": -2}]}]}),
        2,
    ),
]


def _with_zero_mode(doc: dict, n: int, twisted: bool) -> dict:
    """Move the first term of the degree -n block to Fourier mode zero.

    Random modes almost never vanish, which would make every residue 0;
    one zero-mode term keeps the residue checks meaningful.
    """
    for block in doc["blocks"]:
        if block["deg"] == -n and block["terms"]:
            term = block["terms"][0]
            if twisted:
                term["nc"] = [0, 0]
            else:
                term.pop("mode", None)
    return doc


class CliDocs:
    name = "cli-docs"
    trace_rounds = 5
    points = 2

    def setup(self, lib, seed: int, workdir: str):
        dsl = lib.dsl
        rng = random.Random(seed)
        docs = {}  # file name -> (JSON form, theta or None, dimension, text or None)

        def add_doc(name, sym, n, theta, as_text):
            doc = _with_zero_mode(dsl.symbol_to_json(sym), n, theta is not None)
            sym = dsl.symbol_from_json(doc)
            doc = dsl.symbol_to_json(sym)
            text = dsl.format_symbol(sym) if as_text else json.dumps(doc)
            fname = name + (".sym" if as_text else ".json")
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
            docs[fname] = (doc, theta, n, text if as_text else None)
            return fname

        ops = []

        def cli_op(argv, kind, files, expect_exit=0, direction=None):
            paths = [os.path.join(workdir, f) for f in files]
            full = [argv[0]] + argv[1:] + paths
            key = (kind, tuple(files), "--json" in argv, direction)
            ops.append(Op(key, _cli_call(lib.cli.main, full), expect_exit))

        for i in range(6):
            n = 2 + i % 2
            order = rng.randint(-1, 1)
            sym = dsl.random_symbol(rng.getrandbits(32), dim=n, order=order,
                                    depth=order + n + 1, max_mode=2, max_alpha=3)
            f = add_doc(f"classical{i}", sym, n, None, as_text=i % 3 != 2)
            direction = 1 + rng.randrange(n)
            for js in ([], ["--json"]):
                cli_op(["residue"] + js, "residue", [f])
                cli_op(["decompose"] + js, "decompose", [f])
                cli_op(["commutator", "--with", "xi", "--dir", str(direction)] + js,
                       "commutator", [f], direction=direction)
        for i in range(4):
            theta = TWISTS[i % len(TWISTS)]
            order = rng.randint(-1, 0)
            sym = dsl.random_symbol(rng.getrandbits(32), dim=2, order=order, depth=order + 3,
                                    max_mode=2, max_alpha=2, theta=theta)
            f = add_doc(f"twisted{i}", sym, 2, theta, as_text=i % 2 == 0)
            for js in ([], ["--json"]):
                cli_op(["nc-residue"] + js, "nc-residue", [f])
        for i in range(2):
            order = rng.randint(-1, 0)
            sym = dsl.random_symbol(rng.getrandbits(32), dim=2, order=order, depth=order + 3,
                                    max_mode=2, max_alpha=2, theta=Fraction(0))
            f = add_doc(f"untwisted{i}", sym, 2, Fraction(0), as_text=i == 0)
            for js in ([], ["--json"]):
                cli_op(["semiclassical-check"] + js, "semiclassical", [f])
        for i in range(3):
            left = dsl.random_symbol(rng.getrandbits(32), dim=2, order=0, depth=2,
                                     max_mode=2, max_alpha=2)
            right = dsl.random_symbol(rng.getrandbits(32), dim=2, order=-1, depth=2,
                                      max_mode=2, max_alpha=2)
            fl = add_doc(f"left{i}", left, 2, None, as_text=True)
            fr = add_doc(f"right{i}", right, 2, None, as_text=i != 1)
            for js in ([], ["--json"]):
                cli_op(["compose"] + js, "compose", [fl, fr])
        for fname, text, code in MALFORMED:
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
            cli_op(["residue"], "malformed", [fname], expect_exit=code)
        for idx, op in enumerate(ops):
            op.key = (idx,) + op.key
        return {"lib": lib, "docs": docs, "round": ops, "seed": seed, "ops": ops,
                "by_key": {op.key: op for op in ops}}

    @staticmethod
    def arrange(inputs) -> None:
        """The round is built at set-up."""

    @staticmethod
    def failed(op, result) -> bool:
        """A failed operation: not the documented exit code with a one-line message."""
        if isinstance(result, BaseException):
            return True
        code, _out, err = result
        if code != op.expect_exit:
            return True
        return code != 0 and err.count("\n") != 1

    def check(self, inputs, results) -> bool:
        rng = random.Random(inputs["seed"] ^ 0xD0C)
        ok = True
        for key, result in results.items():
            op = inputs["by_key"][key]
            if op.expect_exit != 0:
                continue
            if self.failed(op, result):
                ok = False
                continue
            ok &= self._check_output(inputs["lib"], inputs["docs"], key, result[1], rng)
        return ok

    @staticmethod
    def finish(inputs) -> tuple[bool, dict]:
        dsl = inputs["lib"].dsl
        texts = [text for _doc, _theta, _n, text in inputs["docs"].values() if text is not None]
        ok = all(dsl.format_symbol(dsl.parse_symbol(text)) == text for text in texts)
        return ok, {"documents": len(inputs["docs"]), "commands": len(inputs["ops"])}

    def _check_output(self, lib, docs, key, out: str, rng) -> bool:
        _idx, kind, files, as_json, direction = key
        doc, theta, n, _text = docs[files[0]]
        terms = doc_terms(doc)
        if kind == "residue":
            v, scale = oracle.residue_of_symbol(terms, n)
            got = json_value(json.loads(out)["value"]) if as_json else text_value(out.strip())
            return oracle.agree(got, v, scale)
        if kind == "decompose":
            v, scale = oracle.residue_of_symbol(terms, n)
            if as_json:
                payload = json.loads(out)
                return payload["consistent"] is True and oracle.agree(
                    json_value(payload["residue"]), v, scale
                )
            lines = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
            return "consistent: True" in out.splitlines() and oracle.agree(
                text_value(lines["residue"]), v, scale
            )
        if kind == "nc-residue":
            v, scale = oracle.residue_of_symbol(terms, 2, theta=float(theta))
            got = json_value(json.loads(out)["value"]) if as_json else text_value(out.strip())
            return oracle.agree(got, v, scale)
        if kind == "semiclassical":
            v, scale = oracle.residue_of_symbol(terms, 2)
            if as_json:
                payload = json.loads(out)
                return payload["equal"] is True and oracle.agree(json_value(payload["lhs"]), v, scale)
            lines = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
            return "equal: True" in out.splitlines() and oracle.agree(
                text_value(lines["euclidean residue"]), v, scale
            )
        got = doc_terms(json.loads(out)) if as_json else text_symbol_terms(out)
        if not as_json and lib.dsl.format_symbol(lib.dsl.parse_symbol(out.strip())) != out.strip():
            return False
        if kind == "commutator":
            axis = direction - 1
            expected = {
                d: [(c * m[axis], m, a, p) for c, m, a, p in ts if m[axis]] for d, ts in terms.items()
            }
            return _same_at_points(expected, got, n, rng)
        if kind == "compose":
            right = docs[files[1]][0]
            floor = max(doc["floor"] + right["order"], doc["order"] + right["floor"])
            degs = range(floor, doc["order"] + right["order"] + 1)
            pts = random_points(rng, n, self.points)
            ref = oracle.evaluate_composition(terms, doc_terms(right), n, degs, pts)
            ok = set(got) <= set(degs)
            for d in degs:
                for (x, xi), (v, scale) in zip(pts, ref[d]):
                    w, wscale = oracle.evaluate(got.get(d, []), x, xi)
                    ok &= oracle.agree(w, v, max(scale, wscale))
            return ok
        raise ValueError(f"unknown command kind {kind}")


def _same_at_points(expected: dict, got: dict, n: int, rng) -> bool:
    ok = True
    for d in set(expected) | set(got):
        for x, xi in random_points(rng, n, 2):
            v, s1 = oracle.evaluate(expected.get(d, []), x, xi)
            w, s2 = oracle.evaluate(got.get(d, []), x, xi)
            ok &= oracle.agree(w, v, max(s1, s2))
    return ok


def _cli_call(main, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


# -- independent readers of documents and CLI output --------------------------------


def _rational(text: str) -> Fraction:
    return Fraction(text)


def doc_terms(doc: dict) -> dict:
    """Oracle terms of a symbol JSON document, read straight from its fields."""
    n = doc["dim"]
    out = {}
    for block in doc["blocks"]:
        ts = []
        for t in block["terms"]:
            c = complex(float(_rational(str(t["coeff"]["re"]))), float(_rational(str(t["coeff"]["im"]))))
            if "phase" in t:
                q, b = t["phase"]
                c *= complex(math.cos(2 * math.pi * b / q), math.sin(2 * math.pi * b / q))
            mode = tuple(t.get("nc", t.get("mode", [0] * n)))
            ts.append((c, mode, tuple(t["alpha"]), int(t["npow"])))
        out[int(block["deg"])] = ts
    return out


def json_value(v: dict) -> complex:
    """The ``--json`` form of a pi-graded value as a complex number."""
    k = float(Fraction(v["pi_exponent"]))
    if "coeffs" in v:
        q = v["order"]
        base = sum(
            (float(Fraction(c)) * complex(math.cos(2 * math.pi * j / q), math.sin(2 * math.pi * j / q))
             for j, c in enumerate(v["coeffs"])),
            0j,
        )
    else:
        base = complex(float(Fraction(v["re"])), float(Fraction(v["im"])))
    return base * math.pi ** k


_ZETA = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?zeta(\d+)(?:\^(\d+))?$")
_CR = re.compile(r"^(-?\d+(?:/\d+)?) ([+-]) (\d+(?:/\d+)?)\*i$")
_CR_IM = re.compile(r"^(-?\d+(?:/\d+)?)\*i$")


def text_value(text: str) -> complex:
    """A printed pi-graded value such as ``(1/2 - 3*i) * pi^(3/2)`` or ``8 * pi^3``."""
    if text == "0":
        return 0j
    k = 0.0
    if " * pi^" in text:
        text, power = text.rsplit(" * pi^", 1)
        k = float(Fraction(power.strip("()")))
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return _text_coeff(text) * math.pi ** k


def _text_coeff(text: str) -> complex:
    if "zeta" in text:
        total = 0j
        for piece in text.split(" + "):
            m = _ZETA.match(piece)
            if m is None:
                total += float(Fraction(piece))
                continue
            c = float(Fraction(m.group(1))) if m.group(1) else 1.0
            q, j = int(m.group(2)), int(m.group(3) or 1)
            total += c * complex(math.cos(2 * math.pi * j / q), math.sin(2 * math.pi * j / q))
        return total
    m = _CR.match(text)
    if m:
        im = float(Fraction(m.group(3)))
        return complex(float(Fraction(m.group(1))), im if m.group(2) == "+" else -im)
    m = _CR_IM.match(text)
    if m:
        return complex(0.0, float(Fraction(m.group(1))))
    return complex(float(Fraction(text)))


_BLOCK = re.compile(r"^deg (-?\d+) \{ (.*) \}$")


def text_symbol_terms(text: str) -> dict:
    """Oracle terms of a printed commutative symbol document."""
    lines = text.strip().splitlines()
    n = int(lines[0].split()[1])
    out = {}
    for line in lines[1:]:
        m = _BLOCK.match(line)
        if m is None:
            raise ValueError(f"unreadable block line {line!r}")
        out[int(m.group(1))] = [_text_term(sign, body, n) for sign, body in _split_terms(m.group(2))]
    return out


def _split_terms(body: str):
    pieces, depth, start, sign = [], 0, 0, 1
    if body.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(body):
        ch = body[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and body.startswith((" + ", " - "), i):
            pieces.append((sign, body[start:i]))
            sign = 1 if body[i + 1] == "+" else -1
            start = i = i + 3
            continue
        i += 1
    pieces.append((sign, body[start:]))
    return pieces


_XI = re.compile(r"^xi(\d+)(?:\^(\d+))?$")


def _text_term(sign: int, body: str, n: int):
    coeff = complex(sign)
    mode = [0] * n
    alpha = [0] * n
    npow = 0
    for factor in body.split(" * ") if not body.startswith("(") else _factors_with_paren(body):
        if factor == "i":
            coeff *= 1j
        elif factor.startswith("("):
            inner = factor[1:-1]
            re_txt, op, im_txt = inner.split(" ", 2)
            im_txt = "1" if im_txt == "i" else im_txt.removesuffix(" * i")
            im = float(Fraction(im_txt))
            coeff *= complex(float(Fraction(re_txt)), im if op == "+" else -im)
        elif factor.startswith("e("):
            mode = [int(k) for k in factor[2:-1].split(",")]
        elif factor.startswith("r^"):
            npow = int(factor[2:])
        elif _XI.match(factor):
            m = _XI.match(factor)
            alpha[int(m.group(1)) - 1] = int(m.group(2) or 1)
        else:
            coeff *= float(Fraction(factor))
    return (coeff, tuple(mode), tuple(alpha), npow)


def _factors_with_paren(body: str):
    close = body.index(")")
    head, rest = body[: close + 1], body[close + 1 :]
    return [head] + [f for f in rest.split(" * ") if f]


WORKLOADS = {w.name: w for w in (TraceN3(), ComposeFull(), NCTrace(), CliDocs())}
