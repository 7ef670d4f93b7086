"""Compare the peak resident memory of two checkouts at an equal op count.

    python3 tools/rss_at_equal_ops.py PARENT CHANGE --workload W --rounds N --seed S --repeats R

``bench/run.py`` times a run for a fixed number of seconds and keeps a
record per operation, so its ``peak_rss_mib`` grows with the throughput.
This tool runs the same number of rounds on both sides instead, so the
two peaks differ only by what the library holds.  Each of the R repeats
runs one fresh process per side, the side that runs first alternating
from repeat to repeat.  A process imports that checkout's own
``bench/run.py`` and ``bench/workloads.py``, unchanged, and the package
from its ``src``.  It sets the workload up once for seed S, in a temporary
directory outside both checkouts, arranges its round and runs it N times
(``run_rounds(count=N)``).  It then prints ``peak_rss_mib()``, the
operations attempted and whether the checks passed.  The tool prints each
run and then each side's median peak and median op count, and their
ratio.  Only the standard library is used, and nothing under ``bench/`` is
touched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def measure(checkout: str, workload: str, seed: int, rounds: int) -> dict:
    """One side's run, in this process: set up, arrange, N rounds, peak RSS."""
    sys.path[:0] = [os.path.join(checkout, "bench"), os.path.join(checkout, "src")]
    import run  # the checkout's bench/run.py, which imports its workloads.py

    chosen = run.workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        inputs = run.set_up(chosen, seed, workdir)
        chosen.arrange(inputs)
        ops, _rounds, correct = run.run_rounds(chosen, inputs, count=rounds)
        rss = run.peak_rss_mib()
        finished, _details = chosen.finish(inputs)
    return {"peak_rss_mib": rss, "attempted": len(ops), "correct": bool(correct and finished)}


def run_child(checkout: str, workload: str, seed: int, rounds: int) -> dict:
    """``measure`` in a fresh Python process; its last line of output."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", checkout,
            "--workload", workload, "--seed", str(seed), "--rounds", str(rounds)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"no result from {checkout}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summarize(parent: list[dict], change: list[dict]) -> str:
    """Each side's median peak and op count, the ratio of the peaks, and
    whether every run passed its checks."""
    medians = {side: (statistics.median(r["peak_rss_mib"] for r in runs),
                      statistics.median(r["attempted"] for r in runs))
               for side, runs in (("parent", parent), ("change", change))}
    (p_rss, p_ops), (c_rss, c_ops) = medians["parent"], medians["change"]
    correct = all(r["correct"] for r in parent + change)
    return (f"peak_rss_mib median: parent {p_rss:.2f} at {p_ops:.0f} ops, "
            f"change {c_rss:.2f} at {c_ops:.0f} ops, x{c_rss / p_rss:.3f}; "
            f"all correct: {'yes' if correct else 'NO'}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=_positive, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=_positive, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if len(args.checkouts) != 1:
            parser.error("--child takes one checkout")
        print(json.dumps(measure(args.checkouts[0], args.workload, args.seed, args.rounds)))
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkouts: PARENT CHANGE")
    sides = dict(zip(("parent", "change"), map(os.path.abspath, args.checkouts)))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.repeats):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_child(sides[side], args.workload, args.seed, args.rounds)
            runs[side].append(result)
            print(f"repeat {i} {side}: peak_rss_mib={result['peak_rss_mib']:.2f} "
                  f"attempted={result['attempted']} correct={result['correct']}", flush=True)
    print(summarize(runs["parent"], runs["change"]))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
