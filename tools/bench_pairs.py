"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE [--workload W] --pairs N --seed0 S

PARENT and CHANGE are roots of two checkouts.  Each run reads no bytecode
cache and writes none, as in a fresh checkout with bytecode writing off:
it runs with ``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPYCACHEPREFIX`` set
to a new empty temporary directory, so the caches in the tree are ignored
(and left as they are), and every set-up repeat of ``bench/run.py``, which
imports the package afresh, compiles it from source on both sides, as
``setup_s`` is timed in such a checkout.  Pair i runs
``bench/run.py --workload W --seed S+i --trace 0`` in each checkout, one
after the other; the side that runs first alternates from pair to pair.
Without ``--workload`` it does this for every workload that
``BENCHMARK.json`` (read from PARENT) lists, one after another, and prints
one table per workload, so one command gives a whole no-regression report.

For every end-to-end metric of ``BENCHMARK.json`` (read from PARENT) it
prints each side's median and quartiles, the number of pairs the change
wins, and the ratio of the change's median to its base, the parent's
median, with the parent's quartile spread beside it, and two verdicts:
``gain`` when the change wins at least nine pairs in ten and its median
beats the parent's by more than the parent's interquartile range (the
rule a claimed gain must meet), and ``in bound`` when the change's median
is worse than the parent's by no more than the metric's ``bound`` in
``BENCHMARK.json``, a share of the parent's median.  Beside
``peak_rss_mib`` it prints each side's median count of operations
attempted: ``bench/run.py`` keeps a record per operation, so the peak
grows with the throughput, and the count tells that growth from a change
in what the library holds; beside the counts it prints how much of the
change in the peak the records explain, the change in the median count
times the size of one record (``record_bytes``), and the headroom: the
largest ratio of operations attempted that the metric's bound admits
from the records alone, at the parent's median peak and count
(``headroom``), so a gain in throughput can be told from a reading past
the bound before the runs are made.  Below that it
prints each side's median unscaled ``ops_per_s``, the throughput as timed,
before ``bench/run.py`` scales it to its reference machine speed, read from
the record line a run prints before its metrics, and below that each side's
median probe factor, a run's scaled over its unscaled ``ops_per_s``, so a
scaled ratio (the one a claim is judged on) that drifts from the timed one
shows.  Only the standard
library is used, and nothing under ``bench/`` is touched; the runs write
only what ``bench/run.py`` itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def _benchmark(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def end_to_end_metrics(checkout: str) -> list[dict]:
    """The end-to-end metrics a checkout's ``BENCHMARK.json`` declares."""
    return _benchmark(checkout)["end_to_end"]


def workload_names(checkout: str) -> list[str]:
    """The names of the workloads a checkout's ``BENCHMARK.json`` lists, in order."""
    return [w["name"] for w in _benchmark(checkout)["workloads"]]


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """The metric values of one untraced run, its unscaled ``ops_per_s``, the
    operations it attempted and whether it was correct.  The run uses no
    bytecode cache: none is written, and the cache prefix is an empty
    directory of its own."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=prefix)
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from {checkout}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    unscaled = json.loads(lines[-2])["unscaled"]["ops_per_s"]
    return {"values": values, "unscaled": unscaled, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric from the paired runs: ``parent[i]`` and ``change[i]``
    are the metric values of pair i.

    A row holds each side's quartiles, ``wins`` (the pairs where the change
    is better, by the metric's ``better`` direction), ``ratio`` (the
    change's median over the parent's, its base), ``spread`` (the
    parent's interquartile range over its median), ``gain`` (at least 9
    wins in 10 pairs, and the change's median better than the parent's by
    more than the parent's interquartile range) and ``in_bound`` (the
    change's median worse than the parent's by at most ``bound`` times the
    parent's median; None when the metric declares no bound), and the
    ``bound`` itself.
    """
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        better_by = cq[1] - pq[1] if higher else pq[1] - cq[1]
        bound = metric.get("bound")
        rows.append({
            "metric": name,
            "better": metric["better"],
            "parent": pq,
            "change": cq,
            "wins": wins,
            "pairs": len(p),
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "spread": (pq[2] - pq[0]) / pq[1] if pq[1] else float("nan"),
            "gain": 10 * wins >= 9 * len(p) and better_by > pq[2] - pq[0],
            "in_bound": None if bound is None else -better_by <= bound * abs(pq[1]),
            "bound": bound,
        })
    return rows


def record_bytes() -> int:
    """The bytes ``bench/run.py`` keeps per operation attempted: one (start,
    seconds, failed) tuple, its two floats (the ``bool`` is shared) and its
    slot in the list of records, as ``sys.getsizeof`` gives them."""
    return (sys.getsizeof((0.5, 0.5, False)) + 2 * sys.getsizeof(0.5)
            + sys.getsizeof([None]) - sys.getsizeof([]))


def headroom(bound: float, peak_mib: float, attempted: float) -> float:
    """The largest ratio of operations attempted that keeps ``peak_rss_mib``
    within ``bound`` when only the per-op records grow: at a parent peak of
    ``peak_mib`` over ``attempted`` operations, 1 + bound peak / (record
    bytes x attempted)."""
    return 1 + bound * peak_mib * 2**20 / (record_bytes() * attempted)


def format_rows(workload: str, rows: list[dict],
                attempted: tuple[float, float] | None = None) -> str:
    """The rows, one line each; ``attempted`` is each side's median count of
    operations attempted, (parent, change), shown beside ``peak_rss_mib``
    after the MiB of its change that the per-op records explain and, for a
    metric with a bound, the ``headroom`` at the parent's medians."""
    lines = [f"{workload}: metric, parent median [q1, q3], change median [q1, q3], "
             "change wins, ratio change/parent (parent spread), verdicts"]
    for r in rows:
        p, c = r["parent"], r["change"]
        line = (f"  {r['metric']:13s} {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
                f"{c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]  {r['wins']}/{r['pairs']}  "
                f"x{r['ratio']:.3f} ({r['spread']:.1%}, {r['better']} is better)  "
                f"gain {'yes' if r['gain'] else 'no'}")
        if r["in_bound"] is not None:
            line += f", in bound {'yes' if r['in_bound'] else 'NO'}"
        if r["metric"] == "peak_rss_mib" and attempted is not None:
            explained = (attempted[1] - attempted[0]) * record_bytes() / 2**20
            line += f"  per-op records explain {explained:+.2f} of {c[1] - p[1]:+.2f} MiB"
            if r["bound"] is not None:
                line += f"  headroom x{headroom(r['bound'], p[1], attempted[0]):.3f} ops"
            line += (f"  ops attempted median: parent {attempted[0]:.0f}, "
                     f"change {attempted[1]:.0f}")
        lines.append(line)
    return "\n".join(lines)


def format_unscaled(parent: list[float], change: list[float]) -> str:
    """Each side's median unscaled ``ops_per_s`` over the pairs, and their ratio."""
    p, c = statistics.median(parent), statistics.median(change)
    return (f"  unscaled ops_per_s median: parent {p:.4g}, change {c:.4g}, "
            f"x{c / p if p else float('nan'):.3f}")


def format_factors(parent: list[float], change: list[float]) -> str:
    """Each side's median probe factor (a run's scaled over its unscaled
    ``ops_per_s``) over the pairs, and their ratio."""
    p, c = statistics.median(parent), statistics.median(change)
    return (f"  probe factor (scaled / unscaled ops_per_s) median: parent {p:.4g}, "
            f"change {c:.4g}, x{c / p if p else float('nan'):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(sides["parent"])
    correct = True
    for workload in [args.workload] if args.workload else workload_names(sides["parent"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                run = run_once(sides[side], workload, args.seed0 + i)
                runs[side].append(run)
                print(f"{workload} pair {i} seed {args.seed0 + i} {side}: "
                      f"correct {run['correct']} failed {run['failed']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["values"].items())
                      + f" unscaled ops_per_s={run['unscaled']:.4g} "
                      f"attempted={run['attempted']}", flush=True)
        rows = summarize([r["values"] for r in runs["parent"]],
                         [r["values"] for r in runs["change"]], metrics)
        attempted = tuple(statistics.median(r["attempted"] for r in runs[side])
                          for side in ("parent", "change"))
        print(format_rows(workload, rows, attempted))
        print(format_unscaled([r["unscaled"] for r in runs["parent"]],
                              [r["unscaled"] for r in runs["change"]]))
        print(format_factors(*[[r["values"]["ops_per_s"] / r["unscaled"] for r in runs[side]]
                               for side in ("parent", "change")]))
        correct = correct and all(r["correct"] for side in runs.values() for r in side)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
