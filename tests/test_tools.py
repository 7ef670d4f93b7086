"""The command-line tools under tools/: the summaries of tools/bench_pairs.py and
tools/rss_at_equal_ops.py, the line counts of tools/code_size.py and the stage
timers of tools/stage_times.py."""

import importlib.util
import json
import os
import pathlib
import sys

import pytest



def _load(name):
    path = pathlib.Path(__file__).parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
code_size = _load("code_size")
rss_at_equal_ops = _load("rss_at_equal_ops")
stage_times = _load("stage_times")

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]


def test_summary_of_fixed_pairs():
    parent = [{"ops_per_s": v, "setup_s": s}
              for v, s in ((100, 0.20), (110, 0.22), (90, 0.18), (105, 0.21), (95, 0.25))]
    change = [{"ops_per_s": v, "setup_s": s}
              for v, s in ((130, 0.21), (125, 0.20), (120, 0.19), (90, 0.23), (140, 0.22))]
    ops, setup = bench_pairs.summarize(parent, change, METRICS)
    assert ops["metric"] == "ops_per_s" and setup["metric"] == "setup_s"
    # quartiles, inclusive method: 90 95 100 105 110 and 90 120 125 130 140
    assert ops["parent"] == (95, 100, 105)
    assert ops["change"] == (120, 125, 130)
    # higher is better: the change wins pairs 0, 1, 2 and 4
    assert ops["wins"] == 4 and ops["pairs"] == 5
    assert ops["ratio"] == pytest.approx(1.25)
    assert ops["spread"] == pytest.approx(0.10)
    # lower is better: 0.20 0.22 0.18 0.21 0.25 against 0.21 0.20 0.19 0.23 0.22
    assert setup["wins"] == 2
    assert setup["parent"] == pytest.approx((0.20, 0.21, 0.22))
    assert setup["ratio"] == pytest.approx(0.21 / 0.21)
    text = bench_pairs.format_rows("compose-full", [ops, setup])
    assert "4/5" in text and "x1.250" in text and "2/5" in text


def test_summary_of_one_pair():
    [row] = bench_pairs.summarize([{"ops_per_s": 10.0}], [{"ops_per_s": 8.0}], METRICS[:1])
    assert row["parent"] == (10.0, 10.0, 10.0) and row["wins"] == 0
    assert row["ratio"] == pytest.approx(0.8) and row["spread"] == 0


def test_metrics_come_from_benchmark_json(tmp_path):
    root = pathlib.Path(__file__).parent.parent
    names = [m["name"] for m in bench_pairs.end_to_end_metrics(str(root))]
    assert names[0] == "ops_per_s" and "setup_s" in names
    with pytest.raises(FileNotFoundError):
        bench_pairs.end_to_end_metrics(str(tmp_path))


def test_unscaled_throughput_is_read_from_the_record_line(monkeypatch):
    record = {"workload": "compose-full", "unscaled": {"ops_per_s": 612.5, "setup_s": 0.3}}
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"ops_per_s": {"value": 540.0, "unit": "op/s"}}}

    class Done:
        stdout = json.dumps(record) + "\n" + json.dumps(result) + "\n"
        stderr = ""

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done)
    run = bench_pairs.run_once(".", "compose-full", 3)
    assert run == {"values": {"ops_per_s": 540.0}, "unscaled": 612.5, "correct": True,
                   "failed": 0, "attempted": 9}
    text = bench_pairs.format_unscaled([500.0, 520.0, 510.0], [600.0, 640.0, 630.0])
    assert text == "  unscaled ops_per_s median: parent 510, change 630, x1.235"


def test_each_run_compiles_the_package_from_source(monkeypatch, tmp_path):
    # as in a fresh checkout with bytecode writing off: no cache is read or
    # written, and the caches already in the tree are left as they are
    cache = tmp_path / "src" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "stale.pyc").write_bytes(b"")
    record = {"unscaled": {"ops_per_s": 1.0}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    seen = []

    def stub(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], prefix, os.listdir(prefix)))

        class Done:
            stdout = json.dumps(record) + "\n" + json.dumps(result) + "\n"
            stderr = ""
        return Done

    monkeypatch.setattr(bench_pairs.subprocess, "run", stub)
    bench_pairs.run_once(str(tmp_path), "cli-docs", 1)
    bench_pairs.run_once(str(tmp_path), "cli-docs", 2)
    (cwd, dont_write, prefix, listed), second = seen
    assert cwd == str(tmp_path) and dont_write == "1" and listed == []
    assert not prefix.startswith(str(tmp_path)) and not os.path.exists(prefix)
    assert second[2] != prefix and second[3] == []
    assert os.listdir(cache) == ["stale.pyc"]


def test_pairs_alternate_with_no_step_before_the_runs(monkeypatch, capsys, tmp_path):
    # nothing but the runs themselves, each side first in every other pair
    root = pathlib.Path(__file__).parent.parent
    for side in ("p", "c"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: pytest.fail("ran"))
    calls = []

    def stub(checkout, workload, seed):
        calls.append((os.path.basename(checkout), seed))
        values = {m["name"]: 1.0 for m in bench_pairs.end_to_end_metrics(str(root))}
        return {"values": values, "unscaled": 1.0, "correct": True, "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    assert bench_pairs.main([str(tmp_path / "p"), str(tmp_path / "c"), "--workload",
                             "cli-docs", "--pairs", "3", "--seed0", "5"]) == 0
    assert calls == [("p", 5), ("c", 5), ("c", 6), ("p", 6), ("p", 7), ("c", 7)]
    assert "gain" in capsys.readouterr().out


def test_probe_factors_are_shown_under_the_unscaled_throughput(monkeypatch, capsys, tmp_path):
    # a run's probe factor is its scaled over its unscaled ops_per_s
    root = pathlib.Path(__file__).parent.parent
    runs = {"p": iter([(110.0, 100.0), (300.0, 250.0), (90.0, 100.0)]),
            "c": iter([(130.0, 130.0), (105.0, 150.0), (140.0, 140.0)])}

    def stub(checkout, workload, seed):
        scaled, unscaled = next(runs[os.path.basename(checkout)])
        values = {m["name"]: 1.0 for m in bench_pairs.end_to_end_metrics(str(root))}
        values["ops_per_s"] = scaled
        return {"values": values, "unscaled": unscaled, "correct": True, "failed": 0,
                "attempted": 1}

    for side in ("p", "c"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "run_once", stub)
    assert bench_pairs.main([str(tmp_path / "p"), str(tmp_path / "c"), "--workload",
                             "trace-n3", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "  unscaled ops_per_s median: parent 100, change 140, x1.400"
    # factors 1.1, 1.2, 0.9 against 1.0, 0.7, 1.0
    assert lines[-1] == ("  probe factor (scaled / unscaled ops_per_s) median: "
                         "parent 1.1, change 1, x0.909")
    assert bench_pairs.format_factors([1.07, 1.0], [0.5]) == (
        "  probe factor (scaled / unscaled ops_per_s) median: parent 1.035, change 0.5, x0.483")


def test_without_a_workload_every_listed_workload_gets_its_table(monkeypatch, capsys, tmp_path):
    root = pathlib.Path(__file__).parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    assert bench_pairs.workload_names(str(root)) == names and len(names) >= 2
    for side in ("p", "c"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def stub(checkout, workload, seed):
        calls.append((os.path.basename(checkout), workload, seed))
        values = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        correct = (workload, seed) != (names[-1], 4)
        return {"values": values, "unscaled": 1.0, "correct": correct, "failed": 0,
                "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    code = bench_pairs.main([str(tmp_path / "p"), str(tmp_path / "c"), "--pairs", "2",
                             "--seed0", "3"])
    # each workload in turn, its pairs alternating, and one table each
    assert calls == [(side, name, seed) for name in names
                     for side, seed in (("p", 3), ("c", 3), ("c", 4), ("p", 4))]
    out = capsys.readouterr().out
    headers = [line.split(":")[0] for line in out.splitlines() if ": metric," in line]
    assert headers == names and out.count("unscaled ops_per_s median") == len(names)
    # one incorrect run in the last workload fails the whole report
    assert code == 1


def test_attempted_ops_are_shown_beside_peak_rss():
    metrics = METRICS[:1] + [{"name": "peak_rss_mib", "better": "lower"}]
    rows = bench_pairs.summarize([{"ops_per_s": 100, "peak_rss_mib": 30.0}],
                                 [{"ops_per_s": 130, "peak_rss_mib": 31.5}], metrics)
    ops, rss = bench_pairs.format_rows("trace-n3", rows, (45000, 58500.5)).splitlines()[1:]
    assert "attempted" not in ops
    assert rss.endswith("ops attempted median: parent 45000, change 58500")
    assert "attempted" not in bench_pairs.format_rows("trace-n3", rows)


def test_per_op_records_explain_part_of_the_peak_rss_change():
    # one (float, float, bool) tuple, two floats and a list slot: 64 + 48 + 8
    # bytes on a 64-bit CPython
    size = bench_pairs.record_bytes()
    assert size == (sys.getsizeof((1.0, 2.0, True)) + 2 * sys.getsizeof(1.0)
                    + sys.getsizeof([None]) - sys.getsizeof([]))
    if sys.maxsize > 2**32:
        assert size == 120
    metrics = [{"name": "peak_rss_mib", "better": "lower"}]
    [row] = bench_pairs.summarize([{"peak_rss_mib": 40.0}], [{"peak_rss_mib": 44.5}], metrics)
    line = bench_pairs.format_rows("nc-trace", [row], (100_000, 131_457)).splitlines()[1]
    explained = 31_457 * size / 2**20
    assert f"per-op records explain {explained:+.2f} of +4.50 MiB" in line
    assert line.endswith("ops attempted median: parent 100000, change 131457")
    [row] = bench_pairs.summarize([{"peak_rss_mib": 40.0}], [{"peak_rss_mib": 39.0}], metrics)
    line = bench_pairs.format_rows("nc-trace", [row], (100_000, 90_000)).splitlines()[1]
    assert f"explain {-10_000 * size / 2**20:+.2f} of -1.00 MiB" in line


def test_headroom_is_the_op_ratio_the_peak_rss_bound_admits():
    size = bench_pairs.record_bytes()
    # 10 % of 42 MiB holds 4.2 MiB of records more: 4.2 MiB / size more ops
    want = 1 + 0.1 * 42 * 2**20 / (size * 137_000)
    assert bench_pairs.headroom(0.1, 42.0, 137_000) == pytest.approx(want)
    if sys.maxsize > 2**32:
        assert bench_pairs.headroom(0.1, 42.0, 137_000) == pytest.approx(1.2679, abs=1e-4)
    # at the headroom the records fill the bound exactly
    ops = 137_000 * (bench_pairs.headroom(0.1, 42.0, 137_000) - 1)
    assert ops * size / 2**20 == pytest.approx(4.2)
    metrics = [{"name": "peak_rss_mib", "better": "lower", "bound": 0.1}]
    [row] = bench_pairs.summarize([{"peak_rss_mib": 42.0}], [{"peak_rss_mib": 45.0}], metrics)
    assert row["bound"] == 0.1
    line = bench_pairs.format_rows("nc-trace", [row], (137_000, 160_000)).splitlines()[1]
    assert f"headroom x{want:.3f} ops  ops attempted median: parent 137000" in line
    assert line.index("explain") < line.index("headroom")
    # no bound, no headroom; no counts, neither
    [row] = bench_pairs.summarize([{"peak_rss_mib": 42.0}], [{"peak_rss_mib": 45.0}],
                                  [{"name": "peak_rss_mib", "better": "lower"}])
    assert "headroom" not in bench_pairs.format_rows("nc-trace", [row], (137_000, 160_000))
    [row] = bench_pairs.summarize([{"peak_rss_mib": 42.0}], [{"peak_rss_mib": 45.0}], metrics)
    assert "headroom" not in bench_pairs.format_rows("nc-trace", [row])


def test_gain_and_bound_verdicts_of_fixed_pairs():
    metrics = [{"name": "setup_s", "better": "lower", "bound": 0.25},
               {"name": "ops_per_s", "better": "higher", "bound": 0.2}]
    # setup_s: the change wins 9 of 10 pairs; the parent's quartiles are 0.3025
    # and 0.32 around 0.31, so a median of 0.28 beats it by 0.03 > 0.0175
    parent = [{"setup_s": v, "ops_per_s": 100.0}
              for v in (0.30, 0.31, 0.32, 0.29, 0.33, 0.31, 0.30, 0.32, 0.31, 0.34)]
    change = [{"setup_s": v, "ops_per_s": o}
              for v, o in zip((0.28, 0.28, 0.27, 0.30, 0.28, 0.29, 0.27, 0.28, 0.29, 0.28),
                              (81, 80, 79, 80, 82, 80, 80, 78, 81, 80))]
    setup, ops = bench_pairs.summarize(parent, change, metrics)
    assert setup["wins"] == 9 and setup["parent"] == pytest.approx((0.3025, 0.31, 0.32))
    assert setup["gain"] and setup["in_bound"]
    # ops_per_s: 80 against 100 is 20 % worse, just inside its bound; no wins
    assert not ops["gain"] and ops["in_bound"]
    text = bench_pairs.format_rows("compose-full", [setup, ops])
    assert text.count("gain yes, in bound yes") == 1 and text.count("gain no, in bound yes") == 1
    # eight wins in ten are not a gain, however large the gap
    change[1]["setup_s"] = change[3]["setup_s"] = 0.40
    [setup] = bench_pairs.summarize(parent, change, metrics[:1])
    assert setup["wins"] == 8 and not setup["gain"]
    # nine wins with a median gap inside the parent's quartiles are not one either
    close = [{"setup_s": v - 0.005} for v in (0.30, 0.31, 0.32, 0.29, 0.33, 0.31, 0.30,
                                                0.32, 0.31, 0.405)]
    [setup] = bench_pairs.summarize(parent, close, metrics[:1])
    assert setup["wins"] == 9 and not setup["gain"]
    # past the bound: 79 against 100, and setup_s 0.39 against 0.31 (x1.26)
    [ops] = bench_pairs.summarize(parent, [{"ops_per_s": 79.0}] * 10, metrics[1:])
    assert not ops["in_bound"]
    [setup] = bench_pairs.summarize(parent, [{"setup_s": 0.39}] * 10, metrics[:1])
    assert not setup["in_bound"] and "in bound NO" in bench_pairs.format_rows("w", [setup])
    # a metric without a bound gets no bound verdict
    [row] = bench_pairs.summarize(parent, change, [{"name": "setup_s", "better": "lower"}])
    assert row["in_bound"] is None and "in bound" not in bench_pairs.format_rows("w", [row])


@pytest.mark.parametrize("argv", [
    [],  # no checkout, no workload
    ["p", "c", "--rounds", "3"],  # no workload
    ["p", "c", "--workload", "trace-n3"],  # no rounds
    ["p", "--workload", "trace-n3", "--rounds", "3"],  # one checkout
    ["p", "c", "x", "--workload", "trace-n3", "--rounds", "3"],  # three
    ["p", "c", "--workload", "trace-n3", "--rounds", "0"],
    ["p", "c", "--workload", "trace-n3", "--rounds", "3", "--repeats", "0"],
    ["p", "c", "--workload", "trace-n3", "--rounds", "x"],
    ["p", "c", "--child", "--workload", "trace-n3", "--rounds", "3"],  # a child runs one side
])
def test_rss_at_equal_ops_refuses_bad_arguments(argv, monkeypatch, capsys):
    monkeypatch.setattr(rss_at_equal_ops, "run_child", lambda *a: pytest.fail("ran"))
    with pytest.raises(SystemExit) as info:
        rss_at_equal_ops.main(argv)
    assert info.value.code == 2 and "error" in capsys.readouterr().err


def test_rss_at_equal_ops_alternates_sides_and_reports_medians(monkeypatch, capsys, tmp_path):
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    peaks = {parent: iter([30.0, 31.0, 29.0]), change: iter([30.5, 33.5, 30.0])}
    calls = []

    def stub(checkout, workload, seed, rounds):
        calls.append((checkout, workload, seed, rounds))
        return {"peak_rss_mib": next(peaks[checkout]), "attempted": 640, "correct": True}

    monkeypatch.setattr(rss_at_equal_ops, "run_child", stub)
    code = rss_at_equal_ops.main([parent, change, "--workload", "nc-trace", "--rounds", "10",
                                  "--seed", "7", "--repeats", "3"])
    assert code == 0
    # the side that runs first alternates; every run gets the same workload, seed and rounds
    assert [c[0] for c in calls] == [parent, change, change, parent, parent, change]
    assert {c[1:] for c in calls} == {("nc-trace", 7, 10)}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "repeat 0 parent: peak_rss_mib=30.00 attempted=640 correct=True"
    assert lines[2] == "repeat 1 change: peak_rss_mib=33.50 attempted=640 correct=True"
    assert lines[-1] == ("peak_rss_mib median: parent 30.00 at 640 ops, change 30.50 at 640 ops, "
                         "x1.017; all correct: yes")


def test_rss_at_equal_ops_summary_flags_a_failed_check():
    ok = {"peak_rss_mib": 20.0, "attempted": 100, "correct": True}
    bad = {"peak_rss_mib": 22.0, "attempted": 101, "correct": False}
    text = rss_at_equal_ops.summarize([ok, ok], [ok, bad])
    assert text == ("peak_rss_mib median: parent 20.00 at 100 ops, change 21.00 at 100 ops, "
                    "x1.050; all correct: NO")



_MODULE = '''"""A module."""

import os


def f(x):
    """Twice x."""
    # a comment
    y = 2 * x

    return y
'''


def test_code_size_counts_no_docstring_and_each_deleted_statement(tmp_path, capsys):
    trees = {}
    for side, (a, b) in {"parent": (_MODULE, _MODULE),
                         "change": (_MODULE.replace('"""Twice x."""', '"""Twice\n    x."""'),
                                    _MODULE.replace("import os\n", ""))}.items():
        package = tmp_path / side / "src" / "ncresidue"
        package.mkdir(parents=True)
        (package / "a.py").write_text(a)
        (package / "b.py").write_text(b)
        trees[side] = str(tmp_path / side)
    assert code_size.count_lines(_MODULE) == (11, 4)
    rows = code_size.compare(trees["parent"], trees["change"])
    # a: a docstring grew by a line; b: one statement went
    assert rows == [("a.py", 11, 4, 12, 4, 1, 0), ("b.py", 11, 4, 10, 3, -1, -1),
                    ("all", 22, 8, 22, 7, 0, -1)]
    assert code_size.main([trees["parent"], trees["change"]]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last == ["all", "22", "8", "22", "7", "+0", "-1"]


# a stand-in for ncresidue.terms: stages reached through the module and a class
_STUB_TERMS = '''
class RationalSystem:
    @staticmethod
    def numerator_map(x):
        return x


class PackedGaussians:
    def lower(self, x):
        return x + 1


def _plan(x):
    return x


def _chain(x):
    return _plan(x) + 1


def _pairing_pass(x):
    return _chain(x) + PackedGaussians().lower(RationalSystem.numerator_map(x))
'''

_STUB_RUN = '''
import workloads


def set_up(workload, seed, workdir):
    return workload.setup(None, seed, workdir)
'''

_STUB_WORKLOADS = '''
import types

TERMS = types.ModuleType("stub_terms")
exec(SOURCE, TERMS.__dict__)


class Op:
    def __init__(self, fn):
        self.fn = fn


class Stub:
    def setup(self, lib, seed, workdir):
        return {"lib": types.SimpleNamespace(terms=TERMS), "seed": seed}

    def arrange(self, inputs):
        inputs["round"] = [Op(lambda: TERMS._pairing_pass(inputs["seed"]))] * 3


WORKLOADS = {"stub": Stub()}
'''


def test_stage_times_counts_and_restores_each_stage(monkeypatch):
    terms = type(sys)("stub_terms")
    exec(_STUB_TERMS, terms.__dict__)
    before = {name: terms.__dict__[name] for name in ("_plan", "_chain", "_pairing_pass")}
    static = vars(terms.RationalSystem)["numerator_map"]
    ops = [lambda: terms._pairing_pass(2)] * 4
    stages = ("_plan", "_chain", "_walks", "RationalSystem.numerator_map",
              "PackedGaussians.lower", "CyclotomicSystem.numerator_map", "_pairing_pass")
    monkeypatch.setattr(stage_times, "ROUNDS", 3)
    monkeypatch.setattr(stage_times, "STAGES", stages)
    result = stage_times.measure(terms, ops)
    assert len(result["bare"]) == len(result["wrapped"]) == 3
    assert result["absent"] == ["_walks", "CyclotomicSystem.numerator_map"]
    for stage in ("_plan", "_chain", "RationalSystem.numerator_map", "PackedGaussians.lower",
                  "_pairing_pass"):
        runs = result["stages"][stage]
        assert len(runs) == 3 and all(calls == 4 and seconds >= 0 for seconds, calls in runs)
    # nested stages time inclusively: the pass holds the chain, which holds the plan
    total = {stage: sum(s for s, _c in runs) for stage, runs in result["stages"].items()}
    assert total["_pairing_pass"] >= total["_chain"] >= total["_plan"]
    # every wrapper is taken out again, the staticmethod included
    assert all(terms.__dict__[name] is fn for name, fn in before.items())
    assert vars(terms.RationalSystem)["numerator_map"] is static
    assert terms._pairing_pass(2) == 6
    text = stage_times.report(result, "stub")
    lines = text.splitlines()
    assert lines[0] == "stub" and lines[1].startswith("bare round: median ")
    assert "wrapper overhead" in lines[2]
    rows = {line.split()[0]: line.split()[1:] for line in lines[4:]}
    assert list(rows) == list(stages)
    assert rows["_walks"] == ["absent"] and rows["_plan"][0] == "4"


def test_stage_times_runs_a_checkout_round(tmp_path, monkeypatch, capsys):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(_STUB_RUN)
    (bench / "workloads.py").write_text(f"SOURCE = {_STUB_TERMS!r}\n" + _STUB_WORKLOADS)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(stage_times, "ROUNDS", 2)
    # a session that also collected bench/ holds the repo's modules by these
    # names: set them aside so the stubs load, and have them put back after
    for name in ("run", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        assert stage_times.main([str(tmp_path), "--workload", "stub", "--seed", "5"]) == 0
    finally:
        for name in ("run", "workloads"):
            sys.modules.pop(name, None)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"stub seed 5, 3 ops per round, {tmp_path}"
    rows = {line.split()[0]: line.split()[1:] for line in lines[4:]}
    assert list(rows) == list(stage_times.STAGES)
    assert rows["_plan"][0] == rows["_chain"][0] == rows["PackedGaussians.lower"][0] == "3"
    assert rows["canonical_terms"] == ["absent"] and rows["_walks"] == ["absent"]


def test_stage_times_refuses_bad_arguments(capsys):
    for argv in (["c", "--seed", "1"],  # no workload
                 ["c", "--workload", "w"],  # no seed
                 ["--workload", "w", "--seed", "1"],  # no checkout
                 ["c", "--workload", "w", "--seed", "1", "--rounds", "2"]):  # no such option
        with pytest.raises(SystemExit) as info:
            stage_times.main(argv)
        assert info.value.code == 2
    assert "error" in capsys.readouterr().err
