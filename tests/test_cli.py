import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

import eqmirror
from eqmirror import pipeline

from eqmirror.cli import (
    ConfigError,
    build_parser,
    geometry_from_config,
    load_config,
    main,
    parse_config_value,
    parse_degree,
    render_text,
    _parse_rat,
)
from eqmirror.exact_core import rat


def test_parse_config_value():
    assert parse_config_value(" 3 ") == 3
    assert parse_config_value("(1, 2)") == (1, 2)
    assert parse_config_value("antidiagonal") == "antidiagonal"
    assert parse_config_value("None") is None


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "geometry = x_k\n"
        "k = 2  # trailing comment\n"
        "degree = 3\n"
        "mori = ((1, 1, 1, -3),)\n"
    )
    cfg = load_config(str(path))
    assert cfg == {
        "geometry": "x_k",
        "k": 2,
        "degree": 3,
        "mori": ((1, 1, 1, -3),),
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


def test_parse_degree():
    assert parse_degree("4", 1) == (4,)
    assert parse_degree("3", 3) == (3, 3, 3)
    assert parse_degree("2,3", 2) == (2, 3)
    assert parse_degree(5) == (5,)
    with pytest.raises(ConfigError):
        parse_degree("2,3", 3)
    with pytest.raises(ConfigError):
        parse_degree("0", 1)
    with pytest.raises(ConfigError):
        parse_degree("two", 1)


def test_geometry_from_config_builtin():
    g = geometry_from_config({"geometry": "x_k", "k": 2})
    assert g.name == "x_k(2,antidiagonal)"
    g2 = geometry_from_config({"family": "a_n", "n": 3})
    assert g2.name == "a_n(3)"
    with pytest.raises(ConfigError):
        geometry_from_config({})


def test_geometry_from_config_explicit():
    cfg = {
        "name": "conifold",
        "family": "x_k",
        "mori": ((1, 1, -1, -1),),
        "weights": (None, None, ("lam1", 1), ("lam2", 1)),
        "generators": ("p",),
        "relations": ({(2,): 1},),
        "lambda_names": ("lam1", "lam2"),
    }
    g = geometry_from_config(cfg)
    assert g.name == "conifold"
    assert g.family == "x_k"
    with pytest.raises(ConfigError):
        geometry_from_config({"mori": ((1, -1),), "weights": (17,)})


def test_parse_rat():
    assert _parse_rat("-7/48") == rat(-7, 48)
    assert _parse_rat("3") == rat(3)
    assert _parse_rat(2) == rat(2)


def test_render_text_sorted():
    lines = render_text({"b": {"y": 1}, "a": [1, 2], "c": "x"})
    assert lines == ["a: 1 2", "b:", "  y: 1", "c: x"]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gw_command_json(capsys):
    rc, out, err = run_cli(
        capsys, "gw", "--geometry", "a_n", "--n", "2", "--degree", "2", "--format", "json"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["invariants"] == {"0,1": "1", "1,0": "1", "1,1": "1"}
    assert report["degree"] == [2, 2]
    assert "elapsed" in err


def test_gw_output_is_deterministic(capsys):
    args = ("gw", "--geometry", "x_k", "--k", "-1", "--degree", "3", "--format", "json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_gw_with_config_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = x_k\nk = 1\ndegree = 2\n")
    rc, out, _ = run_cli(
        capsys, "gw", "--config", str(cfg), "--degree", "3", "--format", "json"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["degree"] == [3]
    assert report["invariants"] == {"1": "-1", "2": "1", "3": "-2"}


def test_gw_explicit_geometry_config(capsys, tmp_path):
    cfg = tmp_path / "conifold.cfg"
    cfg.write_text(
        "name = conifold\n"
        "family = x_k\n"
        "mori = ((1, 1, -1, -1),)\n"
        "weights = (None, None, ('lam1', 1), ('lam2', 1))\n"
        "generators = ('p',)\n"
        "relations = ({(2,): 1},)\n"
        "lambda_names = ('lam1', 'lam2')\n"
        "degree = 3\n"
    )
    rc, out, _ = run_cli(capsys, "gw", "--config", str(cfg), "--format", "json")
    assert rc == 0
    assert json.loads(out)["invariants"] == {"1": "1"}


def test_config_degree_box_matches_the_flag(capsys, tmp_path):
    cfg = tmp_path / "box.cfg"
    cfg.write_text("degree = 2,2\n")
    rc, from_flag, _ = run_cli(capsys, "an", "--n", "2", "--degree", "2,2")
    rc2, from_config, _ = run_cli(capsys, "an", "--n", "2", "--config", str(cfg))
    assert rc == rc2 == 0
    assert from_config == from_flag
    assert parse_degree((2, 3), 2) == parse_degree([2, 3], 2) == (2, 3)


def test_repeated_lambda_names_exit_2(capsys, tmp_path):
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(
        "family = x_k\n"
        "mori = ((1, 1, 1, -3),)\n"
        "weights = (None, None, ('lam', 1), ('lam', -1))\n"
        "generators = ('p',)\n"
        "relations = ({(2,): 1},)\n"
        "lambda_names = ('lam', 'lam')\n"
        "infinity_weights = ('lam',)\n"
    )
    rc, out, err = run_cli(capsys, "gw", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert "repeated lambda names" in err


def test_verification_commands_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify-genus0", "--k", "1", "--degree", "4")
    assert rc == 0
    assert "verdict: pass" in out
    rc, out, _ = run_cli(capsys, "verify-genus1", "--k", "2", "--degree", "4")
    assert rc == 0
    rc, out, _ = run_cli(capsys, "verify-factored", "--k", "1", "--degree", "2")
    assert rc == 0
    rc, out, _ = run_cli(capsys, "verify-fibration", "--degree", "3")
    assert rc == 0
    rc, out, _ = run_cli(capsys, "pf-check", "--k", "2", "--degree", "4")
    assert rc == 0


def test_genus1_fit_command(capsys):
    rc, out, _ = run_cli(capsys, "genus1-fit", "--k", "3", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["log unit"] == "1/4"
    assert report["log shifted unit"] == "11/24"
    assert report["log jacobian"] == "1/2"


def test_genus1_fit_mismatch_exits_1(capsys, monkeypatch):
    from eqmirror import closed_forms

    fit = closed_forms.bundle_genus1_fit(2, 4)
    wrong = closed_forms.Genus1Fit(
        fit.coordinate_exponents, fit.component_exponents, rat(1, 3)
    )
    monkeypatch.setattr(closed_forms, "bundle_genus1_fit", lambda k, degree: wrong)
    rc, out, _ = run_cli(capsys, "verify-genus1", "--k", "2", "--degree", "4", "--format", "json")
    assert rc == 1
    body = json.loads(out)["genus-1 ansatz fit k=2"]
    assert body["verdict"] == "fail"
    assert body["details"]["log jacobian"] == "1/3"


def test_an_command_includes_bracket_check(capsys):
    rc, out, _ = run_cli(capsys, "an", "--n", "2", "--degree", "2", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["invariants"] == {"0,1": "1", "1,0": "1", "1,1": "1"}
    assert any("double bracket" in key for key in report)


def test_trivalent_command_runs_both_actions(capsys):
    rc, out, _ = run_cli(capsys, "trivalent", "--degree", "2", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert len(report) == 2
    assert all(body["verdict"] == "pass" for body in report.values())


def test_a2_genus1_exit_codes(capsys):
    rc, out, _ = run_cli(capsys, "a2-genus1", "--format", "json")
    assert rc == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["measured target exponent"] == "-1/48"
    assert report["delta exponent closing the identity"] == "-7/48"
    rc2, out2, _ = run_cli(
        capsys, "a2-genus1", "--delta-exponent=-7/48", "--format", "json"
    )
    assert rc2 == 0
    assert json.loads(out2)["verdict"] == "pass"


def test_unusable_configuration_exits_2(capsys):
    rc, _, err = run_cli(capsys, "gw", "--geometry", "nope", "--k", "1")
    assert rc == 2
    assert "error:" in err
    rc2, _, err2 = run_cli(capsys, "verify-genus0")
    assert rc2 == 2
    assert "--k" in err2


def write_cubic_config(tmp_path, weights, infinity_weights):
    # a single column of charge -3 next to three of charge 1
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text(
        "family = x_k\n"
        "mori = ((1, 1, 1, -3),)\n"
        "weights = %r\n"
        "generators = ('p',)\n"
        "relations = ({(2,): 1},)\n"
        "lambda_names = %r\n"
        "infinity_weights = %r\n" % (weights, infinity_weights, infinity_weights)
    )
    return str(cfg)


def test_inexact_factorization_exits_3(capsys, tmp_path):
    cfg = write_cubic_config(tmp_path, (None, None, ("lam", 1), ("mu", 1)), ("lam", "mu"))
    rc, out, err = run_cli(capsys, "gw", "--config", cfg, "--degree", "2")
    assert rc == 3
    assert out == ""
    assert "window clipping would not be exact" in err


def test_cubic_weighted_column_gets_a_deep_enough_window(capsys, tmp_path, monkeypatch):
    # the weighted column reaches lam^(3d), past the 2d + 1 of the old default
    monkeypatch.setattr(pipeline, "_PIPELINE_CACHE", {})
    cfg = write_cubic_config(tmp_path, (None, None, None, ("lam", 1)), ("lam",))
    rc, out, _ = run_cli(capsys, "gw", "--config", cfg, "--degree", "3")
    assert rc == 0
    assert "invariants:\n  1: -3\n  2: 15/2\n  3: -39\n" in out


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize(
    "argv, what",
    [
        (("verify-genus0", "--k", "2", "--degree"), "degree"),
        (("verify-genus1", "--k", "3", "--degree"), "degree"),
        (("pf-check", "--k", "2", "--degree"), "degree"),
        (("genus1-fit", "--k", "2", "--degree"), "degree"),
        (("verify-fibration", "--degree"), "degree"),
        (("verify-fibration", "--degree", "2", "--fiber-degree"), "fiber_degree"),
        (("gw", "--geometry", "x_k", "--k", "1", "--degree"), "degree"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_degrees_below_one_exit_2(capsys, argv, what, value):
    rc, out, err = run_cli(capsys, *argv, value)
    assert rc == 2
    assert out == ""
    assert err == "error: %s must be >= 1, got %s\n" % (what, value)


def test_out_file_respects_output_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EQMIRROR_OUT_DIR", str(tmp_path))
    rc, out, _ = run_cli(
        capsys,
        "gw", "--geometry", "x_k", "--k", "-1", "--degree", "2",
        "--format", "json", "--out", "report.json",
    )
    assert rc == 0
    written = (tmp_path / "report.json").read_text()
    assert written == out


def test_explicit_config_reads_infinity_weights(capsys, tmp_path, monkeypatch):
    # a fresh cache, so neither run can be served by an entry of another test
    monkeypatch.setattr(pipeline, "_PIPELINE_CACHE", {})
    cfg = tmp_path / "x1.cfg"
    cfg.write_text(
        "name = x_k(1,antidiagonal)\n"
        "family = x_k\n"
        "mori = ((1, 1, 1, -3),)\n"
        "weights = (None, None, ('lam', 1), ('lam', -1))\n"
        "generators = ('p',)\n"
        "relations = ({(2,): 1},)\n"
        "lambda_names = ('lam',)\n"
        "infinity_weights = ('lam',)\n"
    )
    rc, out, _ = run_cli(capsys, "gw", "--config", str(cfg), "--degree", "3")
    rc2, out2, _ = run_cli(
        capsys, "gw", "--geometry", "x_k", "--k", "1", "--action", "antidiagonal",
        "--degree", "3",
    )
    assert rc == rc2 == 0
    assert out == out2
    assert "invariants:\n  1: -1\n  2: 1\n  3: -2\n" in out


@pytest.mark.parametrize(
    "argv,config",
    [
        (("a2-genus1", "--delta-exponent=-7/4x"), None),
        (("a2-genus1", "--jacobian-exponent=1/0"), None),
        (("verify-genus0",), "k = two\n"),
        (("verify-fibration",), "fiber_degree = 1.5\n"),
        (("gw",), "geometry = a_n\nn = (2,)\n"),
        (("gw",), "mori = ((1, 'a'),)\nweights = (None, None)\ngenerators = ('p',)\n"),
    ],
    ids=[
        "rational", "zero-denominator", "k", "fiber-degree",
        "parameter", "mori",
    ],
)
def test_bad_numbers_exit_2(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv = argv + ("--config", str(path))
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bad_degree_exits_2_without_traceback():
    src = os.path.dirname(os.path.dirname(eqmirror.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "eqmirror.cli", "verify-genus0", "--k", "2", "--degree", "3,3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: degree must be an integer, got '3,3'\n"


# the computation flags each command takes; --config, --out, --format and
# --help are on every command
COMMAND_FLAGS = {
    "gw": {"--geometry", "--k", "--n", "--action", "--degree"},
    "verify-genus0": {"--k", "--degree"},
    "verify-genus1": {"--k", "--degree"},
    "verify-factored": {"--k", "--action", "--degree"},
    "verify-fibration": {"--degree", "--fiber-degree"},
    "pf-check": {"--k", "--degree"},
    "genus1-fit": {"--k", "--degree"},
    "an": {"--n", "--degree"},
    "trivalent": {"--action", "--degree"},
    "a2-genus1": {"--degree", "--delta-exponent", "--jacobian-exponent"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_declared_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == COMMAND_FLAGS[command] | {"--help", "--config", "--out", "--format"}


@pytest.mark.parametrize(
    "argv",
    [
        ("pf-check", "--k", "2", "--lambda-depth", "3"),
        ("an", "--n", "2", "--action", "diagonal"),
        ("verify-fibration", "--degree", "2", "--k", "1"),
        ("pf-check", "--k", "2", "--fiber-degree", "9", "--geometry", "nonsense", "--degree", "4"),
    ],
    ids=["pf-check-lambda-depth", "an-action", "fibration-k", "pf-check-many"],
)
def test_unread_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the command's parser reports it, and its usage lists the command's flags
    usage, _, message = captured.err.partition("\neqmirror %s: error: " % argv[0])
    assert usage.startswith("usage: eqmirror %s " % argv[0])
    listed = set(re.findall(r"--[a-z][a-z-]*", usage))
    assert listed == COMMAND_FLAGS[argv[0]] | {"--config", "--out", "--format"}
    assert message.startswith("unrecognized arguments: %s" % argv[3])
    assert "Traceback" not in captured.err


def test_non_integer_flag_goes_through_config_error(capsys):
    rc, out, err = run_cli(capsys, "verify-genus0", "--k", "two")
    assert rc == 2
    assert out == ""
    assert err == "error: k must be an integer, got 'two'\n"


def test_config_keys_a_command_does_not_read_are_accepted(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("k = 2\ndegree = 4\nfiber_degree = 9\nlambda_depth = 3\ngeometry = nonsense\n")
    rc, out, _ = run_cli(capsys, "pf-check", "--config", str(cfg))
    assert rc == 0
    assert "annihilated" in out


def _benchmark_commands():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_COMMANDS["full"]


def _readme_commands():
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        return [line[len("$ eqmirror "):].split() for line in fh if line.startswith("$ eqmirror ")]


def test_documented_command_lines_parse():
    commands = [cmd.split() for cmd in _benchmark_commands()] + _readme_commands()
    assert len(commands) >= 12
    assert {argv[0] for argv in commands} == set(COMMAND_FLAGS)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
