"""Descriptor grammar, report content, exit codes, determinism."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kmu

from kmu.cli import (
    build_report,
    load_descriptor,
    main,
    parse_descriptor,
    sweep_report,
)
from kmu.errors import DescriptorError, KmuError, ParameterError
from kmu.linalg import rat
from kmu.report import LAMBDA_NOTE


def write_descriptor(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(args, stdout=subprocess.PIPE):
    """``python -m kmu.cli`` in a fresh interpreter, so a traceback would show."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(kmu.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "kmu.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
    )


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------


def test_descriptor_parses_rational_strings():
    desc = parse_descriptor({"n": 3, "alpha": "1/2", "beta": "5/2"})
    assert desc.n == 3
    assert str(desc.alpha) == "1/2"


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2, "alpha": 0.5, "beta": "2"},
        {"n": 2, "alpha": "1.5", "beta": "2"},
        {"n": 2.0, "alpha": "1", "beta": "2"},
        {"n": 2, "alpha": "1", "beta": "2", "extra": 1},
        {"n": 2, "alpha": "1"},
        {"n": 2, "alpha": "1", "beta": "2", "submanifolds": [{"kind": "x", "q": 1}]},
        {"n": 3, "alpha": "1", "beta": "2", "submanifolds": 5},
        {"n": 3, "alpha": "1", "beta": "2",
         "submanifolds": [{"kind": "mixed", "z_choices": 5}]},
        {"n": 3, "alpha": "1", "beta": "2", "submanifolds": [{"kind": "mixed", "k": "2"}]},
        {"n": 3, "alpha": "1", "beta": "2", "submanifolds": [{"kind": "mixed", "k": True}]},
        {"n": 4, "alpha": "1", "beta": "2",
         "submanifolds": [{"kind": "mixed", "z_choices": "xy"}]},
        {"n": 3, "alpha": "1", "beta": "3",
         "submanifolds": [{"kind": "x", "k": 7, "c": "2", "d": "0"}]},
        {"n": 3, "alpha": "1", "beta": "3",
         "submanifolds": [{"kind": "mixed", "k": 1, "z_choices": ["x"]}]},
        {"n": 3, "alpha": "1", "beta": "3",
         "submanifolds": [{"kind": "mixed", "k": 2, "z_choices": ["x"]}]},
        {"n": 3, "alpha": "1", "beta": "3", "submanifolds": [{"kind": "diag", "c": "1"}]},
        {"n": 3, "alpha": "1", "beta": "3", "submanifolds": [{"k": 1}]},
        {"n": 3, "alpha": "1", "beta": "3", "submanifolds": [{"kind": ["x"]}]},
        {"n": 3, "alpha": "1", "beta": "3", "submanifolds": [{"kind": "mixed", "k": 1.0}]},
    ],
)
def test_descriptor_rejects_bad_grammar(payload):
    with pytest.raises((DescriptorError, KmuError)):
        parse_descriptor(payload)


def test_malformed_leaf_descriptor_is_a_parse_error(tmp_path):
    # a leaf block of the wrong type must come out as a typed parse
    # error on stderr, never as a traceback
    path = write_descriptor(tmp_path, {
        "n": 3, "alpha": "1", "beta": "2",
        "submanifolds": [{"kind": "mixed", "k": "2"}],
    })
    done = run_cli_process(["verify", path])
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["stage"] == "parse"
    assert "k must be an integer" in error["message"]


@pytest.mark.parametrize("leaf,message", [
    ({"kind": "mixed", "k": "2"}, "submanifolds[0].k must be an integer, got '2'"),
    ({"kind": "mixed", "k": 1.0},
     "floating-point literal 1.0 in descriptor.submanifolds[0].k; use exact 'p/q' strings"),
    ({"kind": "mixed", "k": True}, "submanifolds[0].k must be an integer, got True"),
    ({"kind": "mixed", "z_choices": 5},
     "submanifolds[0].z_choices must be a list of strings, got 5"),
])
def test_mistyped_mixed_keys_are_parse_errors(tmp_path, capsys, leaf, message):
    path = write_descriptor(tmp_path, {
        "n": 3, "alpha": "1", "beta": "3", "submanifolds": [leaf],
    })
    code, out, err = run_cli(capsys, ["verify", path])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"stage": "parse", "message": message}}


@pytest.mark.parametrize("argv,leaves", [
    # keys a kind does not take, and contradictory keys, in a descriptor
    (["verify"], [{"kind": "x", "k": 7, "c": "2", "d": "0"},
                  {"kind": "mixed", "k": 1, "z_choices": ["x"]}]),
    # the same key schema on the submanifold subcommand's flags
    (["submanifold", "--kind", "x", "--k", "2"], None),
], ids=["verify", "submanifold"])
def test_leaf_keys_outside_the_kind_schema_are_parse_errors(tmp_path, argv, leaves):
    payload = {"n": 3, "alpha": "1", "beta": "3"}
    if leaves is not None:
        payload["submanifolds"] = leaves
    path = write_descriptor(tmp_path, payload)
    done = run_cli_process([argv[0], path, *argv[1:]])
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["stage"] == "parse"
    assert "kind 'x' takes no keys" in error["message"]


def test_load_descriptor_missing_file():
    with pytest.raises(DescriptorError):
        load_descriptor("/nonexistent/path.json")


@pytest.mark.parametrize("content,message", [
    (b'\xff\xfe{"n": 2}', "can't decode byte 0xff"),
    (b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "maximum recursion depth"),
], ids=["not-utf8", "nested-100000"])
def test_unreadable_descriptor_is_a_parse_error(tmp_path, content, message):
    # bytes that are not UTF-8, and nesting deeper than the JSON decoder
    # allows, are a typed parse error on stderr, never a traceback
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(DescriptorError, match=message):
        load_descriptor(str(path))
    done = run_cli_process(["verify", str(path)])
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["stage"] == "parse"
    assert error["message"].startswith(f"cannot read descriptor {path}: ")


@pytest.mark.parametrize("argv,literal", [
    (["deform", "{path}", "--a", "0.5"], "'0.5'"),
    (["sweep", "--n", "2", "--alphas", "0,x", "--betas", "2"], "'x'"),
    (["sweep", "--n", "2", "--alphas", "0", "--betas", "1/0"], "'1/0'"),
], ids=["deform-a", "sweep-alphas", "sweep-betas"])
def test_malformed_rational_flags_are_parse_errors(tmp_path, capsys, argv, literal):
    # the same literal in a descriptor is a parse error, so a flag is too
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, out, err = run_cli(capsys, [arg.format(path=path) for arg in argv])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {"stage": "parse", "message": f"not a rational literal: {literal}"}
    }


@pytest.mark.parametrize("literal", ["x", "2.0", "2_0"])
@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--n", "{literal}", "--alphas", "0", "--betas", "2"], "--n"),
    (["submanifold", "{path}", "--kind", "mixed", "--k", "{literal}"], "--k"),
], ids=["sweep-n", "submanifold-k"])
def test_malformed_integer_flags_are_parse_errors(tmp_path, capsys, argv, flag, literal):
    # int() would read '2_0' as 20, so only [+-]digits are an integer
    path = write_descriptor(tmp_path, {"n": 3, "alpha": "0", "beta": "2"})
    code, out, err = run_cli(
        capsys, [arg.format(path=path, literal=literal) for arg in argv]
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {"stage": "parse", "message": f"{flag} must be an integer, got {literal!r}"}
    }


def report_without_timestamp(text):
    report = json.loads(text)
    report.pop("generated_at", None)
    return report


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "2", "--alphas", "0", "--betas", "-3/2,2"],
    ["sweep", "--n", "2", "--alphas", "-1,0", "--betas", "3"],
    ["sweep", "--n", "2", "--alphas", "0", "--bet", "-3/2,2"],
    ["deform", "{path}", "--a", "-1/2"],
    ["submanifold", "{path}", "--kind", "diag", "--c", "-2/3", "--d", "1"],
    ["submanifold", "{path}", "--kind", "diag", "--c", "2", "--d", "-1/2"],
], ids=[
    "sweep-betas", "sweep-alphas", "sweep-abbreviated", "deform-a", "submanifold-c",
    "submanifold-d",
])
def test_negative_rational_flag_values_read_as_values(tmp_path, capsys, argv):
    # argparse reads a word such as -3/2,2 as an option string; the value
    # given after a space must mean what it means after an '='
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "1", "beta": "3"})
    argv = [arg.format(path=path) for arg in argv]
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    code, out, err = run_cli(capsys, argv)
    joined_code, joined_out, joined_err = run_cli(capsys, joined)
    assert (code, err) == (joined_code, joined_err)
    if code == 0:
        assert report_without_timestamp(out) == report_without_timestamp(joined_out)
    else:
        # refused where the value is used, never by argparse at parse
        assert json.loads(err)["error"]["stage"] in ("deform", "sweep")


def test_negative_flag_values_mean_what_the_descriptor_says(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 3, "alpha": "1", "beta": "3"})
    code, out, _ = run_cli(
        capsys, ["submanifold", path, "--kind", "diag", "--c", "2", "--d", "-1/2"]
    )
    leaf = {"kind": "diag", "c": "2", "d": "-1/2"}
    leaf_path = write_descriptor(
        tmp_path, {"n": 3, "alpha": "1", "beta": "3", "submanifolds": [leaf]}, "leaf.json"
    )
    _, verified, _ = run_cli(capsys, ["verify", leaf_path])
    assert code == 0
    assert json.loads(out)["submanifold"] == json.loads(verified)["submanifolds"][0]
    code, _, err = run_cli(capsys, ["deform", path, "--a", "-1/2"])
    assert code == 1
    assert json.loads(err) == {"error": {
        "stage": "deform", "message": "deformation constant must be positive, got -1/2"
    }}


# ---------------------------------------------------------------------------
# literals longer than the interpreter's int/str digit limit
# ---------------------------------------------------------------------------


def test_verify_prints_a_rational_past_the_digit_limit(tmp_path):
    # 2501 digits: the model is read, and its report printed, exactly
    beta = "2" + "0" * 2500
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": beta})
    done = run_cli_process(["verify", path])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["pass"] is True
    assert report["model"]["beta"] == beta


def test_sweep_reads_a_rational_past_the_digit_limit():
    beta = "1" + "0" * 5000
    done = run_cli_process(["sweep", "--n", "2", "--alphas", "0", "--betas", beta])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["pass"] is True
    assert report["grid"][0]["beta"] == beta


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no digit limit"
)
def test_rat_past_the_default_digit_limit_is_a_parameter_error():
    # main lifts the limit; under the default one a long literal is refused
    # as a bad parameter, not with a ValueError
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParameterError, match="rational literal rejected"):
            rat("1" * 5001)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv,leaf,message", [
    (["verify"], {"kind": "mixed", "k": 5}, "submanifolds[0]: k must be in 1..2, got 5"),
    (["verify"], {"kind": "mixed", "z_choices": ["x", "y"]},
     "submanifolds[0]: z_choices must be 1 entries of 'x'/'y', got ('x', 'y')"),
    (["verify"], {"kind": "diag", "c": "0", "d": "1"},
     "submanifolds[0]: diagonal distribution requires nonzero rationals c and d"),
    (["submanifold", "--kind", "mixed", "--k", "0"], None,
     "submanifold: k must be in 1..2, got 0"),
], ids=["k-range", "z-choices-length", "diag-zero-c", "flag-k-range"])
def test_out_of_range_leaf_values_are_parse_errors(tmp_path, capsys, argv, leaf, message):
    # the kind's block rule runs at parse with the descriptor's n, as
    # the type checks do, so no structure is analysed first
    payload = {"n": 3, "alpha": "1", "beta": "3"}
    if leaf is not None:
        payload["submanifolds"] = [leaf]
    path = write_descriptor(tmp_path, payload)
    code, out, err = run_cli(capsys, [argv[0], path, *argv[1:]])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"stage": "parse", "message": message}}


@pytest.mark.parametrize("argv,leaf", [
    (["verify"], {"kind": "mixed", "k": 1}),
    (["verify"], {"kind": "mixed", "z_choices": []}),
    (["submanifold", "--kind", "mixed", "--k", "1"], None),
], ids=["k", "z-choices", "flag-k"])
def test_leaves_below_n_two_meet_the_dimension_error(tmp_path, capsys, argv, leaf):
    # no block rule runs below n = 2, so the leaf meets the model's own
    # refusal: the error of a leafless descriptor, or of the x leaf on
    # the subcommand
    payload = {"n": 1, "alpha": "1", "beta": "3"}
    plain = write_descriptor(tmp_path, payload, "plain.json")
    if leaf is not None:
        payload["submanifolds"] = [leaf]
    path = write_descriptor(tmp_path, payload)
    expected_argv = ["verify", plain] if leaf else ["submanifold", plain, "--kind", "x"]
    expected = run_cli(capsys, expected_argv)
    assert run_cli(capsys, [argv[0], path, *argv[1:]]) == expected
    code, out, err = expected
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["stage"] == argv[0]
    assert error["message"].startswith("n=1 unsupported: ")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_basic_model(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, out, _ = run_cli(capsys, ["verify", path])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["invariants"] == {
        "kappa": "0",
        "mu": "4",
        "lambda": "1",
        "boeckx_invariant": "-1",
    }
    assert all(r["status"] == "pass" for r in report["identities"])
    assert all(r["residual"] == "0" for r in report["identities"])
    assert LAMBDA_NOTE in report["notes"]


def test_verify_degenerate_model_fails_with_stage(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "1", "beta": "1"})
    code, out, err = run_cli(capsys, ["verify", path])
    assert code == 1
    error = json.loads(err)["error"]
    assert error["stage"] == "verify"
    assert "beta" in error["message"]


def test_verify_with_deformation_block(tmp_path, capsys):
    path = write_descriptor(
        tmp_path, {"n": 3, "alpha": "1", "beta": "3", "deformation_a": "2"}
    )
    code, out, _ = run_cli(capsys, ["verify", path])
    assert code == 0
    block = json.loads(out)["deformation"]
    assert block["after"]["kappa"] == "0"
    assert block["after"]["mu"] == "9/2"
    assert block["after"]["boeckx_invariant"] == "-5/4"
    assert block["kappa_mu_match"] == "pass"
    assert block["boeckx_invariance"] == "pass"


def test_verify_with_submanifold_blocks(tmp_path, capsys):
    path = write_descriptor(
        tmp_path,
        {
            "n": 3,
            "alpha": "0",
            "beta": "2",
            "submanifolds": [
                {"kind": "x"},
                {"kind": "diag", "c": "1", "d": "1"},
            ],
        },
    )
    code, out, _ = run_cli(capsys, ["verify", path])
    assert code == 0
    blocks = json.loads(out)["submanifolds"]
    assert blocks[0]["classification"] == "totally_geodesic"
    assert blocks[1]["classification"] == "totally_umbilical"
    # V = 2 c d lambda / (c^2 + d^2) xi = xi for c = d = lambda = 1
    assert blocks[1]["V"][0] == "1"


def test_leaves_spanning_one_frame_are_certified_once(monkeypatch):
    # k = 2 stands for z_choices x, y, y at n = 5: the same label and
    # spanning vectors, so one analysis serves both blocks
    leaves = [
        {"kind": "mixed", "k": 2},
        {"kind": "mixed", "z_choices": ["x", "y", "y"]},
        {"kind": "diag", "c": "2", "d": "1"},
    ]
    base = {"n": 5, "alpha": "1", "beta": "3"}
    alone = [
        json.dumps(build_report(parse_descriptor({**base, "submanifolds": [leaf]}))
                   ["submanifolds"][0])
        for leaf in leaves
    ]
    calls, analyze = [], kmu.cli.analyze_submanifold

    def counted(analysis, spec):
        calls.append(spec.kind)
        return analyze(analysis, spec)

    monkeypatch.setattr(kmu.cli, "analyze_submanifold", counted)
    report = build_report(parse_descriptor({**base, "submanifolds": leaves}))
    assert calls == ["mixed", "diagonal"]
    blocks = [json.dumps(block) for block in report["submanifolds"]]
    assert blocks[0] == blocks[1]
    assert blocks == alone


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------


def test_deform_command(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, out, _ = run_cli(capsys, ["deform", path, "--a", "1/2"])
    assert code == 0
    block = json.loads(out)["deformation"]
    assert block["a"] == "1/2"
    assert block["before"]["kappa"] == "0"
    # (0 + 1/4 - 1)/(1/4) = -3 and (4 + 1 - 2)/(1/2) = 6
    assert block["after"]["kappa"] == "-3"
    assert block["after"]["mu"] == "6"
    assert block["boeckx_invariance"] == "pass"


@pytest.mark.parametrize("a", ["0", "-1"])
def test_nonpositive_deformation_a_is_a_parse_error(tmp_path, capsys, a):
    # refused before the native analysis runs, as a bad leaf value is
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2", "deformation_a": a})
    for argv in (["verify", path], ["deform", path, "--a", "2"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "stage": "parse", "message": f"deformation_a must be positive, got {a}"
        }}


def test_deform_rejects_nonpositive(tmp_path, capsys):
    # a well-formed a out of range is refused where the deformation runs
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, _, err = run_cli(capsys, ["deform", path, "--a", "0"])
    assert code == 1
    error = json.loads(err)["error"]
    assert error["stage"] == "deform"
    assert "positive" in error["message"]


# ---------------------------------------------------------------------------
# submanifold
# ---------------------------------------------------------------------------


def test_submanifold_command_diag(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 3, "alpha": "1", "beta": "3"})
    code, out, _ = run_cli(
        capsys, ["submanifold", path, "--kind", "diag", "--c", "2", "--d", "1"]
    )
    assert code == 0
    block = json.loads(out)["submanifold"]
    assert block["kind"] == "diagonal"
    assert block["involutive"] is True
    assert block["classification"] == "totally_umbilical"
    assert block["h1_eigenvalue"] == "6/5"
    assert block["h2_eigenvalue"] == "-8/5"
    assert block["leaf_curvature"] == "-13/5"
    assert block["theta"] == {"sin": "3/5", "cos": "-4/5"}
    assert all(r["status"] == "pass" for r in block["identities"])


def test_submanifold_command_mixed_with_z_choices(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 4, "alpha": "0", "beta": "2"})
    code, out, _ = run_cli(
        capsys, ["submanifold", path, "--kind", "mixed", "--z-choices", "xy"]
    )
    assert code == 0
    block = json.loads(out)["submanifold"]
    assert block["classification"] == "totally_geodesic"
    assert block["e_lambda_dim"] == 2
    assert block["e_minus_lambda_dim"] == 2


def test_submanifold_command_rejects_zero_c(tmp_path, capsys):
    # the block rule runs on the flags before any analysis
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, _, err = run_cli(
        capsys, ["submanifold", path, "--kind", "diag", "--c", "0", "--d", "1"]
    )
    assert code == 1
    assert json.loads(err)["error"]["stage"] == "parse"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_and_rejections(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "--n", "2", "--alphas", "0,1,2", "--betas", "1,2,3"]
    )
    assert code == 0
    report = json.loads(out)
    rows = {(r["alpha"], r["beta"]): r for r in report["grid"]}
    assert rows[("0", "1")]["invariants"]["boeckx_invariant"] == "-1"
    assert rows[("1", "2")]["invariants"]["boeckx_invariant"] == "-5/3"
    assert rows[("1", "3")]["invariants"]["boeckx_invariant"] == "-5/4"
    assert rows[("2", "3")]["invariants"]["boeckx_invariant"] == "-13/5"
    assert rows[("1", "1")]["status"] == "rejected"
    assert rows[("2", "2")]["status"] == "rejected"
    assert report["summary"]["points"] == 6
    assert report["summary"]["rejected"] == 3
    assert report["summary"]["max_boeckx_invariant"] == "-1"


@pytest.mark.parametrize("alphas,betas,message", [
    ("0,0", "1", "--alphas repeats the value 0"),
    ("0", "1,2/2", "--betas repeats the value 1"),
    ("1/2,0,2/4", "3", "--alphas repeats the value 1/2"),
])
def test_sweep_refuses_a_repeated_value(capsys, alphas, betas, message):
    # a repeated value would analyse one grid point twice and count it twice
    argv = ["sweep", "--n", "2", "--alphas", alphas, "--betas", betas]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"stage": "parse", "message": message}}


def test_sweep_empty_grid_errors(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--n", "2", "--alphas", "2", "--betas", "1"])
    assert code == 1
    assert "empty" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("flag", ["--alphas", "--betas"])
@pytest.mark.parametrize("text", ["", ","], ids=["empty", "comma"])
def test_sweep_flag_without_a_value_is_a_parse_error(capsys, flag, text):
    # the grid is not empty for want of beta^2 > alpha^2: a flag gave no value
    argv = ["sweep", "--n", "2", "--alphas", "0", "--betas", "2"]
    argv[argv.index(flag) + 1] = text
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"stage": "parse", "message": f"{flag} lists no value"}}


def test_sweep_report_values_match_closed_form():
    from fractions import Fraction

    report = sweep_report(2, [Fraction(0), Fraction(1)], [Fraction(2), Fraction(3)])
    for row in report["grid"]:
        if row["status"] != "ok":
            continue
        a, b = Fraction(row["alpha"]), Fraction(row["beta"])
        expected = -(b * b + a * a) / (b * b - a * a)
        assert Fraction(row["invariants"]["boeckx_invariant"]) == expected
        assert row["boeckx_invariant_range"] == "pass"


# ---------------------------------------------------------------------------
# dump-tables
# ---------------------------------------------------------------------------


def test_dump_connection_omits_zeros(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, out, _ = run_cli(capsys, ["dump-tables", path, "--table", "connection"])
    assert code == 0
    entries = json.loads(out)["entries"]
    assert all(value != "0" for value in entries.values())
    # nabla_{X_1} Y_1 = 2 xi: gamma entry (1, 3, 0)
    assert entries["1,3,0"] == "2"
    assert "1,1,0" not in entries


def test_dump_curvature_entries(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})
    code, out, _ = run_cli(capsys, ["dump-tables", path, "--table", "curvature"])
    assert code == 0
    entries = json.loads(out)["entries"]
    # R(X_1, xi) xi = 4 X_1: indices (1, 0, 0, 1)
    assert entries["1,0,0,1"] == "4"


# ---------------------------------------------------------------------------
# report determinism and files
# ---------------------------------------------------------------------------


def test_reports_deterministic_modulo_timestamp(tmp_path, capsys):
    path = write_descriptor(
        tmp_path,
        {"n": 2, "alpha": "1", "beta": "2", "submanifolds": [{"kind": "y"}]},
    )
    _, out1, _ = run_cli(capsys, ["verify", path])
    _, out2, _ = run_cli(capsys, ["verify", path])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert json.dumps(r1, sort_keys=False) == json.dumps(r2, sort_keys=False)


def test_verify_report_identical_under_optimize_flag(tmp_path):
    # python -O strips assert statements; no check may depend on one, so
    # the report of a model with a diagonal leaf must not change
    path = write_descriptor(
        tmp_path,
        {"n": 2, "alpha": "1", "beta": "3",
         "submanifolds": [{"kind": "diag", "c": "2", "d": "-1/2"}]},
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(kmu.__file__).resolve().parent.parent))

    def run(*flags):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "kmu.cli", "verify", path],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def without_timestamp(text):
        return [line for line in text.splitlines() if '"generated_at"' not in line]

    stripped = subprocess.run([sys.executable, "-O", "-c", "assert False"], env=env)
    assert stripped.returncode == 0
    plain, optimized = run(), run("-O")
    assert without_timestamp(plain) == without_timestamp(optimized)
    assert json.loads(plain)["submanifolds"][0]["theta"] is not None


def test_out_flag_writes_report_file(tmp_path, capsys):
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "1"})
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["verify", path, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "dir"])
def test_out_flag_unwritable_path_is_an_error(tmp_path, target):
    # the report file is written before the report is printed, so a path
    # that cannot be written prints nothing and is named in the error
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "1"})
    out_path = tmp_path / target
    done = run_cli_process(["verify", path, "--out", str(out_path)])
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["stage"] == "verify"
    assert error["message"].startswith(f"cannot write report to {out_path}: ")


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["sweep", "--n", "2", "--alphas", "0,1", "--betas", "2,3"],
], ids=["verify", "sweep"])
def test_closed_stdout_is_a_typed_error(tmp_path, argv):
    # as in `kmu verify d.json | head -1` once head has exited
    if argv == ["verify"]:
        argv = ["verify", write_descriptor(tmp_path, {"n": 2, "alpha": "0", "beta": "2"})]
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_cli_process(argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert json.loads(done.stderr) == {"error": {
        "stage": argv[0], "message": "cannot write report to stdout: [Errno 32] Broken pipe"
    }}


def test_build_report_direct():
    desc = parse_descriptor({"n": 2, "alpha": "0", "beta": "2"})
    report = build_report(desc)
    assert report["pass"] is True
    assert report["model"] == {"n": 2, "alpha": "0", "beta": "2"}


def _load_spans(monkeypatch):
    """perfbench/spans.py, loaded by path without importing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_reads_vec_tables(tmp_path, capsys, monkeypatch):
    # perfbench/spans.py wraps the stage functions by module and name and
    # counts the nonzero entries of levi_civita's gamma and riemann's
    # table; dump-tables exports both tables.  Each entry must stay a Vec,
    # and table must read R(e_j, e_i) = -R(e_i, e_j) with a zero diagonal
    spans = _load_spans(monkeypatch)
    for _, module_name, func_name in spans.STAGES:
        assert callable(getattr(importlib.import_module(module_name), func_name)), func_name
    m = kmu.build_boeckx_model(2, Fraction(1), Fraction(3))
    conn = kmu.levi_civita(m)
    table = kmu.riemann(m, conn).table
    dim = m.dim
    entries = {}
    for i in range(dim):
        for j in range(dim):
            assert isinstance(conn.gamma[i][j], kmu.Vec)
            for k in range(dim):
                entry = table[i][j][k]
                assert isinstance(entry, kmu.Vec) and len(entry) == dim
                assert table[j][i][k] == -entry
                if i == j:
                    assert entry.is_zero()
                entries.update(
                    (f"{i},{j},{k},{t}", kmu.rat_str(x)) for t, x in entry.nonzero_entries()
                )
    assert any(key.startswith("1,0,") for key in entries)
    path = write_descriptor(tmp_path, {"n": 2, "alpha": "1", "beta": "3"})
    code, out, _ = run_cli(capsys, ["dump-tables", path, "--table", "curvature"])
    assert code == 0
    assert json.loads(out)["entries"] == entries


def test_benchmark_stages_resolve_and_run(tmp_path, capsys, monkeypatch):
    # perfbench/spans.py wraps these functions by module and name, and
    # perfbench/run.py swaps cli.analyze_structure; a stage that is
    # renamed or no longer called would drop out of a traced run unseen
    spans = _load_spans(monkeypatch)
    for _, module_name, func_name in spans.STAGES:
        assert callable(getattr(importlib.import_module(module_name), func_name))
    assert callable(kmu.cli.analyze_structure)

    path = write_descriptor(tmp_path, {
        "n": 2, "alpha": "1", "beta": "3", "deformation_a": "2",
        "submanifolds": [{"kind": "x"}, {"kind": "diag", "c": "2", "d": "1"}],
    })
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["verify", path]) == 0
        assert main(["sweep", "--n", "2", "--alphas", "0", "--betas", "1,2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    called = {span.name for span in tracer.spans}
    assert {stem for stem, _, _ in spans.STAGES} <= called
    assert spans.REANALYSIS in called
