import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncresidue.cli as cli
from ncresidue.dsl import format_symbol, random_symbol, symbol_from_json, symbol_to_json
from ncresidue.nctorus import nc_compose
from ncresidue.scalars import PiGradedScalar


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "inv2": write("inv2.sym", "dim 2 order -2 floor -2\ndeg -2 { r^-2 }\n"),
        "xi_sq": write("xi_sq.sym", "dim 2 order -2 floor -2\ndeg -2 { xi1^2 * r^-4 }\n"),
        "xi1": write("xi1.sym", "dim 2 order 1 floor -1\ndeg 1 { xi1 }\n"),
        "osc": write("osc.sym", "dim 2 order -2 floor -3\ndeg -2 { e(1,0) * r^-2 }\n"),
        "nc0": write("nc0.sym",
                     "dim 2 order -2 floor -2 theta 0/1\ndeg -2 { U^0 * V^0 * r^-2 }\n"),
        "nc14": write("nc14.sym",
                      "dim 2 order -2 floor -2 theta 1/4\ndeg -2 { U * V * r^-2 }\n"),
        "syntax": write("syntax.sym", "dim 2 order 0 floor 0 deg 0 { xi1 "),
        "homog": write("homog.sym", "dim 2 order 0 floor 0\ndeg 0 { xi1 }\n"),
        "shallow": write("shallow.sym", "dim 2 order 0 floor 0\ndeg 0 { 1 }\n"),
    }


def test_residue_worked_values(files, capsys):
    code, out, _ = run(capsys, "residue", files["inv2"])
    assert code == 0
    assert out.strip() == "8 * pi^3"
    code, out, _ = run(capsys, "residue", files["xi_sq"])
    assert code == 0
    assert out.strip() == "4 * pi^3"


def test_residue_json(files, capsys):
    code, out, _ = run(capsys, "residue", files["xi_sq"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == {"pi_exponent": "3", "re": "4", "im": "0"}


def test_residue_from_stdin(files, capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("dim 2 order -2 floor -2\ndeg -2 { r^-2 }\n")
    )
    code, out, _ = run(capsys, "residue", "-")
    assert code == 0
    assert out.strip() == "8 * pi^3"


def test_compose_text_and_json(files, capsys):
    code, out, _ = run(capsys, "compose", files["xi1"], files["osc"])
    assert code == 0
    assert out.splitlines()[0] == "dim 2 order -1 floor -2"
    code, out, _ = run(capsys, "compose", files["xi1"], files["osc"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == -1 and data["floor"] == -2


def test_nc_residue_and_compose(files, capsys):
    code, out, _ = run(capsys, "nc-residue", files["nc0"])
    assert code == 0
    assert out.strip() == "2 * pi^1"
    code, out, _ = run(capsys, "nc-compose", files["nc14"], files["nc14"])
    assert code == 0
    assert out.splitlines()[0] == "dim 2 order -4 floor -4 theta 1/4"


def test_nc_residue_json_with_cyclotomic_value(tmp_path, capsys):
    # a residue whose exact value leaves Q(i): coefficient zeta_3 * r^-2
    p = tmp_path / "twist.sym"
    p.write_text(
        "dim 2 order -2 floor -2 theta 1/3\n"
        "deg -2 { V * U * V^-1 * U^-1 * U^0 * V^0 * r^-2 }\n"
    )
    code = cli.main(["nc-residue", str(p), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["value"]["pi_exponent"] == "1"
    assert data["value"]["order"] == 3
    assert data["value"]["coeffs"] == ["0", "2"]  # 2 * zeta_3 * pi


_ZETA7_DOC = {
    "dim": 2, "order": 0, "floor": -2, "theta": "2/5",
    "blocks": [
        {"deg": 0, "terms": [{"coeff": {"re": "1", "im": "0"}, "nc": [1, 0],
                              "alpha": [0, 0], "npow": 0}]},
        {"deg": -2, "terms": [{"coeff": {"re": "2", "im": "0"}, "nc": [0, 0], "alpha": [0, 0],
                               "npow": -2, "phase": [7, 1]},
                              {"coeff": {"re": "1", "im": "0"}, "nc": [-1, 1], "alpha": [0, 0],
                               "npow": -2}]},
    ],
}


def test_nc_compose_json_writes_a_root_outside_the_twist(tmp_path, capsys):
    # zeta_7 is no i^a zeta_5^b: the text format cannot write it, the JSON one can
    p = tmp_path / "zeta7.json"
    p.write_text(json.dumps(_ZETA7_DOC))
    code, out, _ = run(capsys, "nc-residue", str(p))
    assert (code, out) == (0, "(4*zeta7) * pi^1\n")
    code, out, err = run(capsys, "nc-compose", str(p), str(p))
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == "validation error: zeta_7^1 is not an i-times-zeta_5 root\n"
    code, out, err = run(capsys, "nc-compose", "--json", str(p), str(p))
    assert (code, err) == (0, "")
    sym = symbol_from_json(_ZETA7_DOC)
    data = json.loads(out)
    assert symbol_from_json(data) == nc_compose(sym, sym)
    assert [7, 1] in [t.get("phase") for block in data["blocks"] for t in block["terms"]]


def test_semiclassical_check(files, capsys):
    code, out, _ = run(capsys, "semiclassical-check", files["nc0"])
    assert code == 0
    assert "equal: True" in out
    code, out, _ = run(capsys, "semiclassical-check", files["nc0"], "--json")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_semiclassical_rejects_nonzero_theta(files, capsys):
    code, _, err = run(capsys, "semiclassical-check", files["nc14"])
    assert code == cli.EXIT_VALIDATION
    assert "theta" in err


def test_decompose(files, capsys):
    code, out, _ = run(capsys, "decompose", files["xi_sq"])
    assert code == 0
    assert "r(x) = 1/2" in out
    assert "consistent: True" in out
    code, out, _ = run(capsys, "decompose", files["xi_sq"], "--json")
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["residue"] == {"pi_exponent": "3", "re": "4", "im": "0"}


def test_commutator_xi(files, capsys):
    code, out, _ = run(capsys, "commutator", "--with", "xi", "--dir", "1", files["osc"])
    assert code == 0
    assert "deg -2 { e(1,0) * r^-2 }" in out


def test_commutator_exp_default_depth(files, capsys):
    code, out, _ = run(capsys, "commutator", "--with", "exp", "--dir", "1", files["inv2"])
    assert code == 0
    assert "deg -3" in out


def test_apply(files, capsys):
    # sigma carries U*V, the argument mode (1,1) evaluates |xi|^-2 to 1/2 and
    # the product picks up the quarter twist i
    code, out, _ = run(capsys, "apply", "--element", "U*V + 2", files["nc14"])
    assert code == 0
    assert "U^2*V^2" in out
    code, out, _ = run(capsys, "apply", "--element", "U*V", files["nc14"], "--json")
    data = json.loads(out)
    assert data["result"][0]["nc"] == [2, 2]
    assert abs(data["result"][0]["im"] - 0.5) < 1e-12
    assert abs(data["result"][0]["re"]) < 1e-12


@pytest.mark.parametrize("element", ["-U", "-U*V", "-U*V + 2", "-2"])
def test_apply_element_with_leading_minus(files, capsys, element):
    want = run(capsys, "apply", f"--element={element}", files["nc14"])
    assert want[0] == 0
    code, out, err = run(capsys, "apply", "--element", element, files["nc14"])
    assert (code, out) == want[:2]
    assert "usage" not in err
    code, out, err = run(capsys, "apply", files["nc14"], "--element", element, "--json")
    assert (code, out) == run(capsys, "apply", files["nc14"], f"--element={element}", "--json")[:2]
    assert code == 0 and "usage" not in err


def test_nc_trace_check_negative_theta_spaced_like_equals_form(capsys):
    want = run(capsys, "nc-trace-check", "--theta=-1/3", "--trials", "2", "--seed", "1")
    assert want[0] == 0
    code, out, err = run(capsys, "nc-trace-check", "--theta", "-1/3", "--trials", "2",
                         "--seed", "1")
    assert (code, out) == want[:2]
    assert "usage" not in err


@pytest.mark.parametrize("option", ["--e", "--elem", "--elemen"])
def test_apply_element_prefix_with_leading_minus(files, capsys, option):
    want = run(capsys, "apply", "--element=-U*V", files["nc14"])
    assert want[0] == 0
    code, out, err = run(capsys, "apply", option, "-U*V", files["nc14"])
    assert (code, out) == want[:2]
    assert "usage" not in err


@pytest.mark.parametrize("option", ["--th", "--the", "--thet"])
def test_nc_trace_check_theta_prefix_with_leading_minus(capsys, option):
    want = run(capsys, "nc-trace-check", "--theta=-1/3", "--trials", "2", "--seed", "1")
    assert want[0] == 0
    code, out, err = run(capsys, "nc-trace-check", option, "-1/3", "--trials", "2",
                         "--seed", "1")
    assert (code, out) == want[:2]
    assert "usage" not in err


def test_ambiguous_prefix_still_gets_argparse_error(capsys):
    # --t could be --theta or --trials
    with pytest.raises(SystemExit) as exc:
        cli.main(["nc-trace-check", "--t", "-1/3", "--trials", "1"])
    assert exc.value.code == 2
    assert "ambiguous option: --t" in capsys.readouterr().err


def test_trace_checks(files, capsys):
    code, out, _ = run(capsys, "trace-check", "--trials", "4", "--seed", "3", "--dim", "2")
    assert code == 0
    assert "[ok]" in out
    code, out, _ = run(capsys, "trace-check", "--trials", "2", "--seed", "3",
                       "--dim", "3", "--json")
    assert json.loads(out)["failures"] == 0
    code, out, _ = run(capsys, "nc-trace-check", "--theta", "2/5", "--trials", "3",
                       "--seed", "4")
    assert code == 0
    assert "[ok]" in out


def test_exit_code_parse_error(files, capsys):
    code, _, err = run(capsys, "residue", files["syntax"])
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


def test_exit_code_validation_error(files, capsys):
    code, _, err = run(capsys, "residue", files["homog"])
    assert code == cli.EXIT_VALIDATION
    assert "validation error" in err
    # wrong symbol family is a validation error too
    code, _, err = run(capsys, "residue", files["nc0"])
    assert code == cli.EXIT_VALIDATION


_WANTS_CLASSICAL = "validation error: this command expects a commutative symbol; use the nc- variant\n"
_WANTS_TWISTED = "validation error: this command expects a twisted symbol (theta header required)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["residue", "nc14"], _WANTS_CLASSICAL),
        (["compose", "inv2", "nc14"], _WANTS_CLASSICAL),
        (["compose", "nc14", "inv2"], _WANTS_CLASSICAL),
        (["decompose", "nc14"], _WANTS_CLASSICAL),
        (["commutator", "--with", "xi", "--dir", "1", "nc0"], _WANTS_CLASSICAL),
        (["commutator", "--with", "exp", "--dir", "2", "nc0"], _WANTS_CLASSICAL),
        (["nc-residue", "inv2"], _WANTS_TWISTED),
        (["nc-compose", "nc0", "inv2"], _WANTS_TWISTED),
        (["nc-compose", "inv2", "nc0"], _WANTS_TWISTED),
        (["apply", "--element", "U", "inv2"], _WANTS_TWISTED),
        (["semiclassical-check", "osc"], _WANTS_TWISTED),
    ],
)
def test_command_refuses_a_document_of_the_other_calculus(files, capsys, argv, message):
    argv = [files.get(word, word) for word in argv]
    for extra in ([], ["--json"]):
        assert run(capsys, argv[0], *extra, *argv[1:]) == (cli.EXIT_VALIDATION, "", message)


def test_exit_code_insufficient_expansion(files, capsys):
    code, _, err = run(capsys, "residue", files["shallow"])
    assert code == cli.EXIT_INSUFFICIENT
    assert "insufficient" in err


def test_exit_code_property_failure_with_injected_defect(files, capsys, monkeypatch):
    # the trace property cannot fail on honest inputs, so the failure branch
    # is exercised by injecting a broken defect computation
    monkeypatch.setattr(cli, "trace_defect", lambda a, b: PiGradedScalar(1, 3))
    code, out, err = run(capsys, "trace-check", "--trials", "1", "--seed", "0",
                         "--dim", "2")
    assert code == cli.EXIT_PROPERTY
    assert "FAILED" in out
    assert "nonzero defect" in err


def test_stdin_cannot_feed_two_documents(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("dim 2 order 0 floor 0"))
    code, _, err = run(capsys, "compose", "-", "-")
    assert code == cli.EXIT_VALIDATION


_TERM = {"coeff": {"re": "1", "im": "0"}, "alpha": [0, 0], "npow": 0}


@pytest.mark.parametrize(
    "text, code, prefix",
    [
        ('{"dim": 2, "order": 0, "floor": 0, "blocks": [{"deg": 0, "ter',
         cli.EXIT_PARSE, "parse error: invalid JSON"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0,
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, npow="x")]}]}),
         cli.EXIT_VALIDATION, "validation error: npow"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0,
                     "blocks": [{"deg": None, "terms": [_TERM]}]}),
         cli.EXIT_VALIDATION, "validation error: block deg"),
        ('{"blocks": ' + "[" * 100000 + "]" * 100000 + "}",
         cli.EXIT_PARSE, "parse error: invalid JSON"),
        (None, cli.EXIT_PARSE, "cannot read "),
        ("dim 2 order 0 floor 0\ndeg 0 { " + "(" * 5000 + "1" + ")" * 5000 + " }",
         cli.EXIT_PARSE, "parse error: nested too deeply"),
        (json.dumps({"dim": 2.9, "order": 0, "floor": 0, "blocks": []}),
         cli.EXIT_VALIDATION, "validation error: dim must be an integer"),
        (json.dumps({"dim": "2", "order": 0, "floor": 0, "blocks": []}),
         cli.EXIT_VALIDATION, "validation error: dim must be an integer"),
        (json.dumps({"dim": 2, "order": True, "floor": 0, "blocks": []}),
         cli.EXIT_VALIDATION, "validation error: order must be an integer"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0, "theta": True, "blocks": []}),
         cli.EXIT_VALIDATION, "validation error: bad theta"),
        ("dim 3 order 0 floor -4\ndeg 0 { r^-3000 * xi1^3000 + r^-100 * xi1^100 }\n",
         cli.EXIT_VALIDATION, "validation error: term xi^[3000, 0, 0] |xi|^-3000"),
        (json.dumps({"dim": 2, "order": 0, "floor": -65,
                     "blocks": [{"deg": -65, "terms": [dict(_TERM, npow=-65)]}]}),
         cli.EXIT_VALIDATION, "validation error: term xi^[0, 0] |xi|^-65"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0,
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, alpha=[65, 0], npow=-65)]}]}),
         cli.EXIT_VALIDATION, "validation error: term xi^[65, 0] |xi|^-65"),
        ("dim 8 order 0 floor -4\ndeg 0 { r^-64 * xi1^64 + 1 }\n",
         cli.EXIT_VALIDATION,
         "validation error: canonical form of a degree 64 polynomial in 8 variables"),
        ("dim 8 order 0 floor 0\ndeg 0 { r^-64 * xi2^64 }\n",
         cli.EXIT_INSUFFICIENT,
         "insufficient expansion: residue needs the expansion down to degree -8"),
        ("dim 2 order 0 floor 0 theta 1/100000007\ndeg 0 { i * U + V }\n",
         cli.EXIT_VALIDATION,
         "validation error: theta 1/100000007 needs cyclotomic order 400000028"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0, "theta": "2/5",
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, nc=[1, 0],
                                                          phase=[100000007, 1])]}]}),
         cli.EXIT_VALIDATION, "validation error: phase [100000007, 1] needs cyclotomic order"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0, "theta": 0.25,
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, nc=[1, 0], phase=[0, 1])]}]}),
         cli.EXIT_VALIDATION, "validation error: root order must be positive, got 0"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0, "theta": 0.25,
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, nc=[1, 0], phase=[7])]}]}),
         cli.EXIT_VALIDATION, "validation error: bad phase [7]"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0, "theta": float("nan"),
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, nc=[1, 0])]}]}),
         cli.EXIT_VALIDATION, "validation error: bad theta nan: not finite"),
        (json.dumps({"dim": 2, "order": 0, "floor": 0, "theta": float("-inf"),
                     "blocks": [{"deg": 0, "terms": [dict(_TERM, nc=[1, 0])]}]}),
         cli.EXIT_VALIDATION, "validation error: bad theta -inf: not finite"),
    ],
    ids=["truncated-json", "npow-text", "deg-null", "deep-json", "missing-file",
         "deep-text", "dim-float", "dim-string", "order-bool", "theta-bool",
         "huge-exponent-text", "huge-npow-json", "huge-alpha-json", "dim8-expansion",
         "dim8-cheap", "theta-order-text", "phase-order-json", "phase-zero-float-theta",
         "phase-short-float-theta", "theta-nan", "theta-inf"],
)
def test_malformed_or_missing_document_gives_one_line(tmp_path, capsys, text, code, prefix):
    p = tmp_path / "doc.json"
    if text is not None:
        p.write_text(text)
    start = time.perf_counter()
    got, out, err = run(capsys, "residue", str(p))
    assert time.perf_counter() - start < 2
    assert got == code
    assert out == ""
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("theta", ["abc", "1/0"])
def test_nc_trace_check_bad_theta_gives_one_line(capsys, theta):
    code, out, err = run(capsys, "nc-trace-check", "--theta", theta, "--trials", "1")
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"validation error: bad theta {theta!r}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["trace-check", "--dim", "65", "--trials", "1"],
     "validation error: dimension 65 is beyond the limit 64\n"),
    (["nc-trace-check", "--theta", "1/10007", "--trials", "1"],
     "validation error: theta 1/10007 needs cyclotomic order 40028, beyond the limit 40000\n"),
    (["trace-check", "--trials", "-1"], "validation error: --trials must be nonnegative, got -1\n"),
    (["nc-trace-check", "--theta", "2/5", "--trials", "-1"],
     "validation error: --trials must be nonnegative, got -1\n"),
])
def test_check_commands_hold_their_flags_to_the_document_limits(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_random_pair", no_work)
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, argv[0], *extra, *argv[1:])
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == message


def test_check_commands_just_inside_the_limits_still_run(capsys):
    code, out, _ = run(capsys, "trace-check", "--dim", "64", "--trials", "0")
    assert code == 0 and out == "trace-check: 0 trials, dim 64, 0 failures [ok]\n"
    code, out, _ = run(capsys, "nc-trace-check", "--theta", "1/10000", "--trials", "0")
    assert code == 0 and out == "nc-trace-check: 0 trials, theta 1/10000, 0 failures [ok]\n"
    # a dimension below 2 is refused by the symbols, as before
    code, out, err = run(capsys, "trace-check", "--dim", "1", "--trials", "1")
    assert code == cli.EXIT_VALIDATION
    assert err == "validation error: dim must be at least 2, got 1\n"


def test_main_builds_its_parser_once_and_not_at_import(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    for _ in range(3):
        assert run(capsys, "trace-check", "--trials", "0")[0] == 0
    assert built == [] and cli._parser() is cli._parser()
    probe = ("import ncresidue.cli as c; n = c._parser.cache_info().currsize; "
             "c.main(['trace-check', '--trials', '0']); "
             "print(n, c._parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.stdout.splitlines()[-1] == "0 1"


def _deep_floor_pair(tmp_path, floor):
    """Two 60-byte documents whose composition's tower is as deep as the floor."""
    a, b = tmp_path / "a.sym", tmp_path / "b.sym"
    a.write_text(f"dim 2 order 0 floor {floor}\n"
                 "deg 0 { e(1,0) * r^0 }\ndeg -1 { e(0,1) * xi1 * r^-2 }\n")
    b.write_text(f"dim 2 order 0 floor {floor}\n"
                 "deg 0 { e(-1,0) * xi2^2 * r^-2 }\n")
    return str(a), str(b)


def test_compose_refuses_a_tower_past_the_gamma_limit(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "compose", *_deep_floor_pair(tmp_path, -100000))
    assert time.perf_counter() - start < 0.5
    assert code == cli.EXIT_VALIDATION and out == ""
    assert err.startswith("validation error: composition needs xi-derivatives up to order 99999")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_compose_just_inside_the_gamma_limit_still_runs(tmp_path, capsys):
    # floor -44 reaches order K = 43, and C(45, 2) = 990 multi-indices
    code, out, err = run(capsys, "compose", *_deep_floor_pair(tmp_path, -44))
    assert code == 0 and err == ""
    assert out.startswith("dim 2 order 0 floor -44\n")


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_compose_refuses_an_output_integer_too_long_to_write(tmp_path, capsys, extra):
    # the weights N^gamma of a 999-digit mode N reach about 7000 digits
    a, b = tmp_path / "a.sym", tmp_path / "b.sym"
    a.write_text("dim 2 order -1 floor -10\ndeg -1 { e(1,0) * r^-1 }\n")
    b.write_text("dim 2 order -2 floor -10\ndeg -2 { e(" + "9" * 999 + ",0) * r^-2 }\n")
    code, out, err = run(capsys, "compose", *extra, str(a), str(b))
    assert code == cli.EXIT_VALIDATION and out == ""
    assert err.startswith("validation error: a result coefficient holds an integer of more "
                          "than 14000 bits")
    assert err.count("\n") == 1 and "Traceback" not in err


# -- mutated documents through cli.main ------------------------------------------------

_FUZZ_SYMBOLS = [
    random_symbol(seed, dim=dim, order=order, depth=2, max_mode=2, max_alpha=3, theta=theta)
    for seed, dim, order, theta in ((1, 2, 1, None), (2, 3, 0, None), (3, 2, -2, None),
                                    (4, 2, 0, Fraction(2, 5)), (5, 2, -1, Fraction(7, 30)),
                                    (6, 2, -2, Fraction(0)))
]
_FUZZ_TEXTS = [format_symbol(sym) for sym in _FUZZ_SYMBOLS] + [
    "dim 2 order 0 floor -2 deg -2 { xi1^2 * r^-4 - 1/3 * i * e(1,-2) * r^-2 }",
    "dim 2 order 0 floor -1 theta 5/12 deg 0 { U^-1 * V^2 * xi1 * r^-1 + (1 + i) * V }",
]
_FUZZ_JSONS = [symbol_to_json(sym) for sym in _FUZZ_SYMBOLS]
_FUZZ_PIECES = ["", " ", "\n", "0", "1", "-", "*", "/", "^", "(", ")", "{", "}", ",", "[", "]",
                '"', ":", "i", "xi1", "xi3", "r", "e(", "U", "V", "deg", "floor", "theta",
                "2/5", "1/0", "^-64", "^65", "9" * 40, "true", "null", "-1e999"]
# JSON values written over a field of a JSON document
_FUZZ_VALUES = [None, True, 0, -1, 7, -100, 10**40, 1.5, "3", "1/0", "x", [], {}, [0, 0, 0],
                [1, -1], {"re": "1", "im": "2/3"}, {"re": 1}]


def _json_slots(data):
    """The (container, key) of every value inside a JSON document."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in list(items):
        yield data, key
        if isinstance(value, (dict, list)):
            yield from _json_slots(value)


@st.composite
def _fuzz_documents(draw):
    """(text, suffix): a text or JSON seed document after a few random edits.

    A JSON document has up to three of its values written over, deleted or
    doubled; either kind then has up to two text edits, as in the parser's
    fuzz: a piece inserted or written over a span, a span deleted or doubled."""
    if draw(st.booleans()):
        text, suffix = draw(st.sampled_from(_FUZZ_TEXTS)), ".sym"
    else:
        data = copy.deepcopy(draw(st.sampled_from(_FUZZ_JSONS)))
        for _ in range(draw(st.integers(0, 3))):
            container, key = draw(st.sampled_from(list(_json_slots(data))))
            edit = draw(st.sampled_from(["set", "delete", "double"]))
            if edit == "set":
                container[key] = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
            elif edit == "delete":
                del container[key]
            elif isinstance(container, list):
                container.insert(key, copy.deepcopy(container[key]))
        text, suffix = json.dumps(data), ".json"
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "double"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(_FUZZ_PIECES)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "replace":
            text = text[:i] + draw(st.sampled_from(_FUZZ_PIECES)) + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text, suffix


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_documents(), st.booleans())
def test_cli_on_a_mutated_document_exits_cleanly_with_one_line(tmp_path, doc, as_json):
    """residue, nc-residue, compose and decompose each exit 0-4 within a second,
    with at most one line on stderr."""
    text, suffix = doc
    path = tmp_path / f"doc{suffix}"
    path.write_text(text)
    flag = ["--json"] if as_json else []
    for argv in (["residue", str(path)], ["nc-residue", str(path)],
                 ["compose", str(path), str(path)], ["decompose", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + flag)
        assert time.perf_counter() - start < 1, argv
        assert code in range(5), (argv, err.getvalue())
        assert err.getvalue().count("\n") <= 1, err.getvalue()
