"""Tests of the benchmark itself: every oracle rejects a wrong answer, names match.

Run from the root of a checkout with::

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

LIB = run.import_library()


def _pair(seed=3, m1=1, m2=0):
    rng = random.Random(seed)
    return workloads.classical_pair(LIB, rng, 3, m1, m2)


class OracleRejectsWrongAnswers(unittest.TestCase):
    def test_residue_scaled_by_two_is_rejected(self):
        for seed in range(4):
            sigma, tau = _pair(seed)
            exact = workloads.pi_graded_value(LIB.calculus._residue_of_composition(sigma, tau))
            v, scale = oracle.residue_of_product(
                workloads.classical_terms(sigma), workloads.classical_terms(tau), 3
            )
            self.assertTrue(oracle.agree(exact, v, scale))
            if abs(v) > 1e-6 * scale:
                self.assertFalse(oracle.agree(2 * exact, v, scale))
                return
        self.fail("no pair with a nonzero residue among the seeds tried")

    def test_twisted_residue_scaled_by_two_is_rejected(self):
        rng = random.Random(5)
        theta = workloads.TWISTS[2]
        for _ in range(6):
            sigma, tau = workloads.twisted_pair(LIB, rng, theta, 1, 0)
            exact = LIB.nctorus._nc_residue_of_composition(sigma, tau).to_complex()
            v, scale = oracle.residue_of_product(
                workloads.twisted_terms(sigma), workloads.twisted_terms(tau), 2, theta=float(theta)
            )
            self.assertTrue(oracle.agree(exact, v, scale))
            if abs(v) > 1e-6 * scale:
                self.assertFalse(oracle.agree(2 * exact, v, scale))
                return
        self.fail("no twisted pair with a nonzero residue among the draws")

    def test_dropped_output_term_is_rejected(self):
        sigma, tau = _pair(7, 1, 1)
        product = LIB.calculus.compose(sigma, tau)
        got = workloads.classical_terms(product)
        degree = max(got, key=lambda d: len(got[d]))
        pts = workloads.random_points(random.Random(1), 3, 2)
        ref = oracle.evaluate_composition(
            workloads.classical_terms(sigma), workloads.classical_terms(tau), 3, [degree], pts
        )

        def matches(terms):
            return all(
                oracle.agree(oracle.evaluate(terms, x, xi)[0], v, s)
                for (x, xi), (v, s) in zip(pts, ref[degree])
            )

        self.assertTrue(matches(got[degree]))
        self.assertFalse(matches(got[degree][1:]))

    def test_compose_check_catches_a_dropped_term(self):
        wl = workloads.ComposeFull()
        sigma, tau = _pair(9, 1, 1)
        inputs = {"pairs": [((1, 1), sigma, tau)], "seed": 1}
        product = LIB.calculus.compose(sigma, tau)
        self.assertTrue(wl.check(inputs, {0: product}))
        comps = product.components
        degree = max(comps, key=lambda d: len(comps[d].raw_terms()))
        raw = comps[degree].raw_terms()
        raw.pop(next(iter(raw)))
        comps[degree] = LIB.symbols.HomogeneousComponent.from_raw(3, degree, raw)
        broken = LIB.symbols.ClassicalSymbol(3, product.order, comps, product.trusted_floor)
        self.assertFalse(wl.check(inputs, {0: broken}))

    def test_trace_check_rejects_a_nonzero_defect(self):
        wl = workloads.TraceN3()
        sigma, tau = _pair(3)
        inputs = {"lib": LIB, "pairs": [((1, 0), sigma, tau)] * 3, "seed": 1, "sampled": {0}}
        defect = LIB.calculus.trace_defect(sigma, tau)
        residue = LIB.calculus._residue_of_composition(sigma, tau)
        self.assertTrue(wl.check(dict(inputs), {0: defect, 1: defect, 2: defect}))
        self.assertFalse(wl.check(dict(inputs), {0: defect, 1: residue, 2: defect}))

    def test_mostly_zero_residues_fail_the_run(self):
        wl = workloads.TraceN3()
        zero = LIB.symbols.exp_symbol(3, (1, 0, 0))  # Res(zero o zero) = 0
        sigma, tau = _pair(3)
        defect = LIB.calculus.trace_defect(sigma, tau)
        inputs = {"lib": LIB, "pairs": [((1, 0), sigma, tau), ((0, 0), zero, zero)],
                  "sampled": set()}
        self.assertTrue(wl.check(inputs, {0: defect, 1: LIB.calculus.trace_defect(zero, zero)}))
        self.assertFalse(wl.finish(inputs)[0])

    def test_wrong_exit_code_is_a_failure(self):
        wl = workloads.CliDocs()
        op = Op(("malformed",), None, expect_exit=2)
        self.assertFalse(wl.failed(op, (2, "", "validation error: bad field\n")))
        self.assertTrue(wl.failed(op, (1, "", "parse error: bad field\n")))
        self.assertTrue(wl.failed(op, (2, "", "line one\nline two\n")))
        self.assertTrue(wl.failed(op, ValueError("escaped")))
        ok = Op(("residue",), None, expect_exit=0)
        self.assertFalse(wl.failed(ok, (0, "8 * pi^3\n", "")))
        self.assertTrue(wl.failed(ok, (2, "", "validation error: x\n")))

    def test_cli_residue_output_scaled_by_two_is_rejected(self):
        wl = workloads.CliDocs()
        with tempfile.TemporaryDirectory() as tmp:
            inputs = wl.setup(LIB, 4, tmp)
            results = {op.key: op.fn() for op in inputs["ops"] if op.expect_exit == 0}
            self.assertTrue(wl.check(inputs, results))
            self.assertTrue(wl.finish(inputs)[0])
            for op in inputs["ops"]:
                _idx, kind, _files, as_json, _dir = op.key
                if kind != "residue" or not as_json:
                    continue
                code, out, err = results[op.key]
                payload = json.loads(out)
                if workloads.json_value(payload["value"]) == 0:
                    continue
                for part in ("re", "im"):
                    payload["value"][part] = str(2 * Fraction(payload["value"][part]))
                bad = dict(results)
                bad[op.key] = (code, json.dumps(payload), err)
                self.assertFalse(wl.check(inputs, bad))
                return
        self.fail("no nonzero residue among the documents of this seed")


def _rounded(terms: dict) -> dict:
    return {
        d: sorted((m, a, p, round(c.real, 12), round(c.imag, 12)) for c, m, a, p in ts)
        for d, ts in terms.items()
    }


class ReadersMatchTheLibrary(unittest.TestCase):
    def test_text_symbol_reader_agrees_with_json(self):
        for seed in range(5):
            sym = LIB.dsl.random_symbol(seed, dim=2, order=1, depth=3, max_mode=2, max_alpha=3)
            text = LIB.dsl.format_symbol(sym)
            self.assertEqual(
                _rounded(workloads.text_symbol_terms(text)),
                _rounded(workloads.doc_terms(LIB.dsl.symbol_to_json(sym))),
            )


class SpeedScale(unittest.TestCase):
    def test_times_scale_by_the_kernel_time_around_them(self):
        ref = speed.REFERENCE_S
        probe = speed.SpeedProbe()
        probe.starts = [0.0, 0.5, 5.0]
        probe.seconds = [ref, ref, 2 * ref]
        self.assertAlmostEqual(probe.factor(0.2), 1.0)
        self.assertAlmostEqual(probe.factor(5.1), 0.5)
        # no kernel run within the window: the neighbours on either side
        self.assertAlmostEqual(probe.factor(3.0), 2 / 3)
        ops = [(0.2, 0.010, False), (5.1, 0.040, False), (5.2, 0.030, True)]
        metrics = run.summarize(ops, probe.factor)
        self.assertAlmostEqual(metrics["ops_per_s"], 2 / (0.010 + 0.020 + 0.015))
        self.assertAlmostEqual(metrics["op_p50_ms"], 20.0)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_declared_metrics_match_the_harness(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
            [(n, u) for n, u in run.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            [(n, u) for n, u, _w in run.PER_LAYER],
        )
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def _run(self, trace):
        cmd = self.spec["command"] + ["--workload", "cli-docs", "--seed", "1",
                                      "--seconds", "0.2", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_printed_metrics_match_the_declaration(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = self._run(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(
                [(k, v["unit"]) for k, v in result["metrics"].items()],
                [(m["name"], m["unit"]) for m in self.spec[section]],
            )


if __name__ == "__main__":
    unittest.main()
