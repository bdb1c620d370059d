import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ndlham as nh
from ndlham.cli import build_parser, main
from conftest import complement

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_certify(tmp_path, capsys):
    path = str(tmp_path / "g.el")
    code, _, _ = run(capsys, ["gen", "paley", "--q", "13", "-o", path])
    assert code == 0
    code, out, _ = run(capsys, ["certify", path, "--epsilon", "0.1"])
    assert code == 0
    cert = json.loads(out)
    assert cert["lambda"] == pytest.approx(2.302776, abs=1e-5)
    assert cert["d"] == 6


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, ["gen", "complete", "--n", "3"])
    assert code == 0
    assert out == "3 3\n0 1\n0 2\n1 2\n"


def test_count_hamilton_k5(tmp_path, capsys):
    path = str(tmp_path / "k5.el")
    run(capsys, ["gen", "complete", "--n", "5", "-o", path])
    code, out, _ = run(capsys, ["count", "hamilton", path])
    assert code == 0
    assert json.loads(out)["hamilton_cycles"] == "12"


def test_count_factors_csv(tmp_path, capsys):
    path = str(tmp_path / "k4.el")
    run(capsys, ["gen", "complete", "--n", "4", "-o", path])
    code, out, _ = run(capsys, ["count", "factors", path, "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["s,count", "1,3", "2,3"]


def test_permanent_subcommand(tmp_path, capsys):
    path = str(tmp_path / "k4.el")
    run(capsys, ["gen", "complete", "--n", "4", "-o", path])
    code, out, _ = run(capsys, ["permanent", path])
    assert code == 0
    assert json.loads(out)["permanent"] == "9"


def test_permanent_of_a_zero_regular_graph(tmp_path, capsys):
    # the regular bounds need d >= 1; the permanent and Bregman's bound do not
    path = tmp_path / "e3.el"
    path.write_text("3 0\n")
    code, out, _ = run(capsys, ["permanent", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["permanent"] == "0"
    assert payload["bregman_upper"]["is_zero"] is True
    assert "vdw_lower" not in payload and "regular_upper" not in payload
    assert run(capsys, ["report", str(path)])[0] == 2


def _strict_json(text):
    """json.loads that refuses the non-standard tokens Infinity, -Infinity
    and NaN."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_floats_as_strings(tmp_path, capsys):
    # a 0-regular graph has lambda = 0, so d/lambda and the condition-1
    # margin are inf: JSON has no token for it, and the text and CSV
    # formats print it as inf
    path = tmp_path / "e4.el"
    path.write_text("4 0\n")
    code, out, _ = run(capsys, ["certify", str(path)])
    assert code == 0
    payload = _strict_json(out)
    assert payload["eigenvalue_ratio"] == payload["cond1_margin"] == "inf"
    assert payload["lambda"] == 0.0 and payload["eigenvalues"] == [0.0] * 4
    _, text, _ = run(capsys, ["certify", str(path), "--format", "text"])
    assert {"eigenvalue_ratio: inf", "cond1_margin: inf"} <= set(text.splitlines())
    nested = {"a": [-math.inf, math.nan, 1.5], "b": (math.inf, 2)}
    assert nh.cli._finite_json(nested) == {"a": ["-inf", "nan", 1.5], "b": ["inf", 2]}


def test_mixing_exit_codes(tmp_path, capsys):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, _ = run(capsys, ["mixing", path, "--samples", "50", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_hamiltonize_failure_is_exit_zero(tmp_path, capsys):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, _ = run(capsys, ["hamiltonize", path, "--factor-seed", "3"])
    assert code == 0
    assert json.loads(out)["success"] is False


def test_hamiltonize_success(tmp_path, capsys):
    path = str(tmp_path / "k6.el")
    run(capsys, ["gen", "complete", "--n", "6", "-o", path])
    code, out, _ = run(
        capsys, ["hamiltonize", path, "--factor-seed", "3", "--budget-constant", "10"]
    )
    assert code == 0
    assert json.loads(out)["success"] is True


def test_report(tmp_path, capsys):
    path = str(tmp_path / "k6.el")
    run(capsys, ["gen", "complete", "--n", "6", "-o", path])
    code, out, _ = run(capsys, ["report", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"]["h"] == "60"
    assert all(rep["ok"].values())


def test_report_in_the_theorem_regime(tmp_path, capsys):
    # complement(rr(20,4,0)) is 15-regular with cond1_margin 1.13 >= 1; its
    # permanent takes a pass mod 2^64 and one mod a prime
    path = tmp_path / "dense.el"
    path.write_text(nh.write_edge_list(complement(nh.random_regular(20, 4, 0))))
    code, out, _ = run(capsys, ["report", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["d"] == 15
    assert all(rep["ok"].values())
    code, out, _ = run(capsys, ["certify", str(path)])
    assert json.loads(out)["cond1_margin"] == pytest.approx(1.13, abs=0.005)


def test_report_text_nests_by_indent(tmp_path, capsys):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, _ = run(capsys, ["report", path, "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    i = lines.index("exact:")
    assert lines[i + 1] == "  permanent: 60"
    j = lines.index("  f_histogram:")
    assert i < j and lines[j + 1] == "    2: 21"


def test_count_matchings(tmp_path, capsys):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, _ = run(capsys, ["count", "matchings", path])
    assert code == 0
    assert json.loads(out) == {"perfect_matchings": "6"}


def test_hamiltonize_without_two_factor_exit_0(tmp_path, capsys):
    path = tmp_path / "edgeless.el"
    path.write_text("4 0\n")
    code, out, _ = run(capsys, ["hamiltonize", str(path)])
    assert code == 0
    assert json.loads(out) == {"error": "graph has no 2-factor"}


def test_phi_subcommand(tmp_path, capsys):
    path = str(tmp_path / "k4.el")
    run(capsys, ["gen", "complete", "--n", "4", "-o", path])
    code, out, _ = run(capsys, ["phi", path, "--k", "3"])
    assert code == 0
    assert json.loads(out)["phi"] == "1"


def test_experiment_subcommands(capsys):
    code, out, _ = run(capsys, ["experiment", "gnp", "--n", "4", "--p", "1.0"])
    assert code == 0
    code, out, _ = run(capsys, ["experiment", "gnm", "--n", "4", "--m", "6"])
    assert code == 0
    code, out, _ = run(
        capsys, ["experiment", "mc", "--n", "6", "--p", "0.7", "--trials", "20"]
    )
    assert code == 0
    assert "ratio" in json.loads(out)


def test_byte_identical_output(tmp_path, capsys):
    path = str(tmp_path / "g.el")
    run(capsys, ["gen", "random-regular", "--n", "10", "--d", "3",
                 "--seed", "7", "-o", path])
    _, out1, _ = run(capsys, ["mixing", path, "--samples", "100", "--seed", "5"])
    _, out2, _ = run(capsys, ["mixing", path, "--samples", "100", "--seed", "5"])
    assert out1 == out2


def test_mixing_negative_seed_exit_2(tmp_path, capsys):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, err = run(capsys, ["mixing", path, "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err


def test_hamiltonize_negative_factor_seed_exit_2(tmp_path, capsys):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, err = run(capsys, ["hamiltonize", path, "--factor-seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "factor-seed" in err


def test_python_m_ndlham(tmp_path, capsys):
    path = str(tmp_path / "p13.el")
    run(capsys, ["gen", "paley", "--q", "13", "-o", path])
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ndlham", "certify", path],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["d"] == 6


def test_python_m_ndlham_exit_codes(tmp_path, capsys):
    # the module entry point passes main's exit code on, argparse's 2 included
    path = str(tmp_path / "petersen.el")
    run(capsys, ["gen", "petersen", "-o", path])
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "ndlham", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)

    proc = python_m("count", "hamilton", path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"hamilton_cycles": "0"}
    proc = python_m("nonsense", path)
    assert proc.returncode == 2
    assert proc.stdout == "" and "invalid choice" in proc.stderr


def test_usage_error_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "nonsense", "x"])
    assert exc.value.code == 2
    code, _, err = run(capsys, ["certify", str(tmp_path / "missing.el")])
    assert code == 2
    assert "error" in err


def test_domain_error_exit_2(tmp_path, capsys):
    path = str(tmp_path / "irregular.el")
    with open(path, "w") as fh:
        fh.write("3 2\n0 1\n1 2\n")
    code, _, err = run(capsys, ["certify", path])
    assert code == 2
    assert "regular" in err


# a valid argv for each subcommand that takes --format; G stands for the graph file
OPTION_TARGETS = {
    "certify": ["certify", "G"],
    "mixing": ["mixing", "G", "--samples", "10"],
    "permanent": ["permanent", "G"],
    "count": ["count", "hamilton", "G"],
    "phi": ["phi", "G", "--k", "3"],
    "hamiltonize": ["hamiltonize", "G"],
    "report": ["report", "G"],
    "experiment": ["experiment", "gnp"],
}


def test_option_targets_name_every_subcommand_but_gen():
    # a subcommand added or removed must enter or leave the table above
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(OPTION_TARGETS) == set(sub.choices) - {"gen"}


@pytest.mark.parametrize("option, accepted", [
    (["--epsilon", "0.2"], {"certify"}),
    (["--format", "csv"], {"certify", "count", "report"}),
    (["--format", "text"], set(OPTION_TARGETS)),
])
def test_options_only_where_they_act(tmp_path, capsys, option, accepted):
    path = str(tmp_path / "k4.el")
    run(capsys, ["gen", "complete", "--n", "4", "-o", path])
    for cmd, argv in OPTION_TARGETS.items():
        argv = [path if a == "G" else a for a in argv]
        if cmd in accepted:
            code, out, _ = run(capsys, argv + option)
            assert code == 0 and out, cmd
            # an accepted option must act: without it the output differs
            code, default_out, _ = run(capsys, argv)
            assert code == 0 and default_out != out, cmd
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv + option)
            assert exc.value.code == 2, cmd
            assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["certify", "G", "--epsilon", "nan"],
    ["certify", "G", "--epsilon", "0"],
    ["hamiltonize", "G", "--budget-constant", "inf"],
])
def test_malformed_constant_exit_2(tmp_path, capsys, argv):
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    code, out, err = run(capsys, [path if a == "G" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite and > 0" in err


# the options each gen family and experiment kind reads, with a valid value
READS = {
    ("gen", "paley"): {"--q": "13"},
    ("gen", "random-regular"): {"--n": "10", "--d": "3", "--seed": "7"},
    ("gen", "complete"): {"--n": "4"},
    ("gen", "cycle"): {"--n": "5"},
    ("gen", "petersen"): {},
    ("gen", "circulant"): {"--n": "6", "--connection-set": "1"},
    ("experiment", "gnp"): {"--n": "6", "--p": "0.5"},
    ("experiment", "gnm"): {"--n": "6", "--m": "9"},
    ("experiment", "mc"): {"--n": "6", "--p": "0.5", "--trials": "3", "--seed": "1"},
    ("experiment", "trend"): {"--seed": "1"},
}
FIVE_OPTIONS = {
    "gen": {"--q": "13", "--n": "6", "--d": "3", "--connection-set": "1", "--seed": "1"},
    "experiment": {"--n": "6", "--p": "0.5", "--m": "9", "--trials": "3", "--seed": "1"},
}


def test_family_and_kind_options_only_where_read(capsys):
    rejected = 0
    for (cmd, name), reads in READS.items():
        argv = [cmd, name] + [x for kv in reads.items() for x in kv]
        build_parser().parse_args(argv)  # every option it reads is accepted
        for opt, value in FIVE_OPTIONS[cmd].items():
            if opt in reads:
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv + [opt, value])
            assert exc.value.code == 2, (name, opt)
            assert capsys.readouterr().out == ""
            rejected += 1
    assert rejected == 33


@pytest.mark.parametrize("argv", [
    ["gen", "nope"],
    ["gen", "--family", "paley", "--q", "13"],
    ["gen", "paley"],
    ["experiment", "nope"],
])
def test_unknown_family_or_kind_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "random-regular", "--n", "10", "--d", "3", "--seed", "-1"],
    ["experiment", "mc", "--n", "6", "--trials", "3", "--seed", "-1"],
    ["experiment", "trend", "--seed", "-1"],
])
def test_negative_seed_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err


def test_readme_command_lines_parse():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("ndlham ")]
    assert len(lines) >= 10
    parser = build_parser()
    for ln in lines:
        try:
            parser.parse_args(shlex.split(ln)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {ln}")


def test_main_repeats_identically_in_one_process(tmp_path, capsys):
    # one process, one parser: every repeat, run in reverse order, prints and
    # exits exactly as its first run did
    path = str(tmp_path / "p.el")
    run(capsys, ["gen", "petersen", "-o", path])
    irregular = tmp_path / "irregular.el"
    irregular.write_text("3 2\n0 1\n1 2\n")
    argvs = [
        ["report", path],
        ["count", "factors", path, "--format", "csv"],
        ["count", "hamilton", path, "--no-such-option"],
        ["certify", str(irregular)],
        ["certify", "--help"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    first = [outcome(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0]
    assert first[3][2].startswith("error:")
    assert [outcome(argv) for argv in reversed(argvs)] == first[::-1]


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    main(["gen", "complete", "--n", "3"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["gen", "complete", "--n", "3"]) == 0
    assert main(["gen", "cycle", "--n", "4"]) == 0
    assert built == []
    # build_parser itself still returns a fresh parser
    assert build_parser() is not build_parser() and built
    capsys.readouterr()
