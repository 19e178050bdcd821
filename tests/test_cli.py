from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conbreak
from conbreak.cli import build_parser, main, resolve_out
from conbreak.harness import CSV_HEADER, TrialConfig


def write_graph(path, n, edges):
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    return write_graph(tmp_path / "tri.edges", 3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def fan_file(tmp_path):
    return write_graph(
        tmp_path / "fan.edges", 5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)]
    )


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_play_streams_jsonl_transcript(capsys):
    argv = [
        "play",
        "--n",
        "12",
        "--p",
        "0.5",
        "--seed",
        "3",
        "--connector",
        "random",
        "--breaker",
        "random",
    ]
    rc, out, err = run_main(capsys, argv)
    assert rc == 0 and err == ""
    lines = out.strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert set(records[-1]) == {"winner", "reason"}
    for rec in records[:-1]:
        assert set(rec) == {"round", "player", "edges"}
        assert rec["player"] in ("C", "B")
    rc2, out2, _ = run_main(capsys, argv)
    assert rc2 == 0 and out2 == out


def test_play_reads_graph_file(capsys, triangle_file):
    rc, out, _ = run_main(
        capsys,
        ["play", "--graph", triangle_file, "--connector", "minimax",
         "--breaker", "minimax", "--m", "1", "--b", "1"],
    )
    assert rc == 0
    tail = json.loads(out.strip().split("\n")[-1])
    assert tail == {"winner": "C", "reason": "spanned"}


@pytest.mark.parametrize("command", ["play", "verify", "solve"])
@pytest.mark.parametrize("extra", [["--n", "3"], ["--p", "0.001"], ["--n", "3", "--p", "0.5"]])
def test_graph_file_refuses_n_and_p(capsys, triangle_file, command, extra):
    # n and p would describe a board other than the file's; play handed p
    # to the paper Connector as its density hint
    argv = [command, "--graph", triangle_file] + extra
    if command == "verify":
        argv += ["--family", "b", "--x", "0"]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("conbreak:") and "--graph" in err


@pytest.mark.parametrize("seed", ["-5", str(10**23)])
def test_play_graph_file_checks_the_seed(capsys, triangle_file, seed):
    # the same seed with --n/--p fails in the board generator
    for source in (["--graph", triangle_file], ["--n", "3", "--p", "1.0"]):
        rc, out, err = run_main(capsys, ["play", *source, f"--seed={seed}"])
        assert rc == 2 and out == ""
        assert err.startswith("conbreak:") and "seed" in err


def test_play_errors_exit_2(capsys):
    rc, _, err = run_main(capsys, ["play", "--n", "5", "--p", "0.5", "--start", "9"])
    assert rc == 2 and err.startswith("conbreak:")
    rc2, _, err2 = run_main(capsys, ["play", "--connector", "random"])
    assert rc2 == 2 and "conbreak:" in err2
    rc3, _, err3 = run_main(capsys, ["play", "--n", "5", "--p", "0.5", "--connector", "bogus"])
    assert rc3 == 2 and "bogus" in err3


def sweep_argv(extra=()):
    return [
        "sweep",
        "--ns",
        "10",
        "--ps",
        "0.3,0.8",
        "--trials",
        "2",
        "--connector",
        "random",
        "--breaker",
        "random",
        *extra,
    ]


def test_sweep_writes_csv(capsys, tmp_path):
    out_csv = tmp_path / "sum.csv"
    rc, out, _ = run_main(capsys, sweep_argv(["--out", str(out_csv)]))
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert out_csv.read_text() == out

    first_bytes = out_csv.read_bytes()
    rc2, out2, _ = run_main(capsys, sweep_argv(["--out", str(out_csv)]))
    assert rc2 == 0 and out2 == out
    assert out_csv.read_bytes() == first_bytes


def test_sweep_scan_appends_estimates(capsys):
    rc, out, _ = run_main(capsys, sweep_argv(["--scan"]))
    assert rc == 0
    assert "# threshold n=10:" in out
    rc2, out2, _ = run_main(capsys, sweep_argv())
    assert "# threshold" not in out2


def test_sweep_eps_mapping(capsys):
    rc, out, _ = run_main(
        capsys,
        ["sweep", "--ns", "100", "--eps", "0.1", "--trials", "1",
         "--connector", "random", "--breaker", "random"],
    )
    assert rc == 0
    p = 100 ** (-2 / 3 + 0.1)
    assert out.strip().split("\n")[1].startswith(f"100,{p!r},1,")


@pytest.mark.parametrize(
    "bad",
    [
        ["--start", "-1"],
        ["--trials", "0"],
        ["--ns", "0"],
        ["--start", "50"],
        ["--connector", "paper-connector", "--m", "1"],
        ["--connector", "paper-breaker"],
        ["--breaker", "paper-connector"],
        # the records path, relative to the working directory, names the
        # summary's file
        ["--records", "x.csv"],
        ["--records", "sub/../x.csv"],
    ],
)
def test_sweep_bad_config_keeps_existing_outputs(capsys, tmp_path, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    out_csv = tmp_path / "x.csv"
    records = tmp_path / "x.jsonl"
    out_csv.write_text("keep me\n")
    records.write_text("keep me too\n")
    rc, out, err = run_main(
        capsys, sweep_argv(["--out", str(out_csv), "--records", str(records)] + bad)
    )
    assert rc == 2 and out == "" and err.startswith("conbreak:")
    assert out_csv.read_text() == "keep me\n"
    assert records.read_text() == "keep me too\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.jsonl"]


def test_sweep_skips_stale_temporary_outputs(capsys, tmp_path, monkeypatch):
    # a killed run leaves its temporary output behind, and a later run
    # may get the same pid
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    stale = ["x.csv.4242.tmp", "x.csv.4242.0.tmp", "x.csv.4242.1.tmp"]
    for name in stale:
        (tmp_path / name).write_text("stale\n")
    out_csv = tmp_path / "x.csv"
    argv = ["sweep", "--ns", "20", "--ps", "0.5", "--trials", "1", "--connector", "random",
            "--breaker", "random", "--out", str(out_csv)]
    rc, out, err = run_main(capsys, argv)
    assert rc == 0 and err == "" and out_csv.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["x.csv"] + stale)
    assert all((tmp_path / name).read_text() == "stale\n" for name in stale)
    # the output keeps the mode a plain open gives it
    umask = os.umask(0)
    os.umask(umask)
    assert out_csv.stat().st_mode & 0o777 == 0o666 & ~umask


def test_sweep_failing_in_a_game_keeps_existing_outputs(capsys, tmp_path):
    # the solver refuses the 20-vertex board only when the first game
    # starts, after the outputs are open
    out_csv = tmp_path / "x.csv"
    records = tmp_path / "x.jsonl"
    out_csv.write_text("keep me\n")
    records.write_text("keep me too\n")
    argv = ["sweep", "--ns", "20", "--ps", "0.5", "--trials", "1", "--connector", "minimax",
            "--breaker", "random", "--out", str(out_csv), "--records", str(records)]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2 and out == "" and "solver allows" in err
    assert out_csv.read_text() == "keep me\n"
    assert records.read_text() == "keep me too\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.jsonl"]
    # a run that completes replaces both
    rc, out, _ = run_main(capsys, sweep_argv(["--out", str(out_csv), "--records", str(records)]))
    assert rc == 0 and out_csv.read_text() == out
    assert len(records.read_text().splitlines()) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.jsonl"]


@pytest.mark.parametrize("flag", ["k-cap", "expansion-cap"])
def test_sweep_refuses_the_retired_k_cap(capsys, tmp_path, flag):
    # the tree depth cap and the search budget are constants: their flags
    # are refused, not ignored
    out_csv = tmp_path / "x.csv"
    records = tmp_path / "x.jsonl"
    out_csv.write_text("keep me\n")
    records.write_text("keep me too\n")
    argv = sweep_argv(["--out", str(out_csv), "--records", str(records), f"--{flag}", "3"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err
    assert out_csv.read_text() == "keep me\n"
    assert records.read_text() == "keep me too\n"


@pytest.mark.parametrize(
    "command, retired",
    [
        (["play", "--n", "8", "--p", "0.5"], ["--config", "run.cfg"]),
        (sweep_argv(), ["--config", "run.cfg"]),
        (["verify", "--n", "8", "--p", "0.5", "--family", "b", "--x", "0"],
         ["--config", "run.cfg"]),
        (["solve", "--n", "3", "--p", "1.0"], ["--config", "run.cfg"]),
        (sweep_argv(), ["--no-scan"]),
        (sweep_argv(), ["--no-verify-degree-bound"]),
        (sweep_argv(), ["--no-verify-isolation"]),
    ],
    ids=["play-config", "sweep-config", "verify-config", "solve-config", "no-scan",
         "no-verify-degree-bound", "no-verify-isolation"],
)
def test_retired_config_and_negation_flags_are_refused(
    capsys, tmp_path, monkeypatch, command, retired
):
    # flags are the one way to set a run: no config file, and a switch is
    # off unless given
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("trials=3\nscan=yes\n")
    out_csv = tmp_path / "x.csv"
    records = tmp_path / "x.jsonl"
    out_csv.write_text("keep me\n")
    records.write_text("keep me too\n")
    argv = command + retired
    if command[0] == "sweep":
        argv += ["--out", str(out_csv), "--records", str(records)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and retired[0] in captured.err
    assert out_csv.read_text() == "keep me\n"
    assert records.read_text() == "keep me too\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "x.csv", "x.jsonl"]


@pytest.mark.parametrize(
    "grid",
    [
        ["--ns", "20", "--eps", "nan"],
        ["--ns", "20", "--eps=-inf"],
        ["--ns", "20", "--eps", "inf"],
        ["--ns", "20", "--ps", "0.5,0.5"],
        ["--ns", "20,20", "--ps", "0.5"],
        # both exponents put p above 1 at n=20, so both cells are p=1.0
        ["--ns", "20", "--eps", "0.7,0.9"],
    ],
    ids=["eps-nan", "eps-minus-inf", "eps-inf", "ps-repeated", "ns-repeated", "p-clamped-twice"],
)
def test_sweep_refuses_a_bad_grid(capsys, tmp_path, grid):
    # no density is made up from a non-finite exponent, and no cell plays
    # the same seeded games twice
    out_csv = tmp_path / "x.csv"
    records = tmp_path / "x.jsonl"
    out_csv.write_text("keep me\n")
    records.write_text("keep me too\n")
    argv = ["sweep", *grid, "--trials", "2", "--connector", "random", "--breaker", "random",
            "--out", str(out_csv), "--records", str(records)]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("conbreak:")
    assert out_csv.read_text() == "keep me\n"
    assert records.read_text() == "keep me too\n"


# sweep flags whose TrialConfig field has another name, as cmd_sweep passes them
SWEEP_RENAMES = {
    "eps": "eps_list",
    "seed": "seed_base",
    "connector": "connector_id",
    "breaker": "breaker_id",
    "start": "start_vertex",
    "out": "out_csv",
    "records": "out_records",
}


def test_sweep_flags_map_one_to_one_onto_trial_config():
    # a flag that reaches no field, or a field no flag sets, fails here
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = [
        a.dest
        for a in subs.choices["sweep"]._actions
        if a.dest not in ("help", "scan")
    ]
    mapped = [SWEEP_RENAMES.get(d, d) for d in dests]
    assert len(set(mapped)) == len(mapped)
    assert set(mapped) == {f.name for f in dataclasses.fields(TrialConfig)}


# named in README as refused; test_sweep_refuses_the_retired_k_cap checks that
RETIRED_FLAGS = {"--k-cap", "--expansion-cap"}


def test_readme_cli_section_names_every_parser_option():
    # an option README does not document, or a documented flag the parser
    # does not know, fails here
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for sub in subs.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z0-9]+(?:-[a-z0-9]+)*", section))
    assert sorted(options - named) == []
    assert sorted(named - options - RETIRED_FLAGS) == []


@pytest.mark.parametrize("command", ["play", "verify", "solve"])
def test_non_ascii_edge_list_exits_2(capsys, tmp_path, command):
    path = tmp_path / "latin1.edges"
    path.write_bytes(b"n 3\n0 1\n1 2 \xe9\n")
    argv = [command, "--graph", str(path)]
    if command == "verify":
        argv += ["--family", "b", "--x", "0"]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"conbreak: {path}: edge-list file holds a non-ASCII byte\n"


def test_outdir_env_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CONBREAK_OUTDIR", str(tmp_path))
    rc, _, _ = run_main(capsys, sweep_argv(["--out", "rel.csv"]))
    assert rc == 0
    assert (tmp_path / "rel.csv").exists()

    abs_target = tmp_path / "sub"
    abs_target.mkdir()
    rc2, _, _ = run_main(capsys, sweep_argv(["--out", str(abs_target / "abs.csv")]))
    assert rc2 == 0
    assert (abs_target / "abs.csv").exists()

    assert resolve_out(None) is None
    monkeypatch.delenv("CONBREAK_OUTDIR")
    assert resolve_out("plain.csv") == "plain.csv"


def test_verify_family_b(capsys, fan_file, tmp_path):
    rc, out, _ = run_main(capsys, ["verify", "--graph", fan_file, "--family", "b", "--x", "0"])
    assert rc == 0
    report = json.loads(out)
    assert report["family"] == "B" and report["all_passed"] is True

    tri_pendant = write_graph(
        tmp_path / "tp.edges", 4, [(0, 1), (0, 2), (1, 2), (0, 3)]
    )
    rc2, out2, _ = run_main(capsys, ["verify", "--graph", tri_pendant, "--family", "b", "--x", "0"])
    assert rc2 == 1
    report2 = json.loads(out2)
    assert report2["all_passed"] is False
    assert report2["clauses"]["B1"]["witness"]["edge"] == [1, 2]

    rc3, _, err3 = run_main(capsys, ["verify", "--graph", fan_file, "--family", "b"])
    assert rc3 == 2 and "--x" in err3


B_ARGS = ["verify", "--n", "64", "--p", "0.2", "--seed", "3", "--family", "b", "--x", "5"]


@pytest.mark.parametrize(
    "extra", [["--m-set", "0,1,999"], ["--m-set=-1"], ["--exclude", "999"], ["--exclude=-1"]]
)
def test_verify_family_b_rejects_off_board_vertex_lists(capsys, extra):
    # an input error, not a crash and not a silently wrapped or dropped vertex
    rc, out, err = run_main(capsys, B_ARGS + extra)
    assert rc == 2 and out == ""
    assert err.startswith("conbreak:") and "out of range" in err


@pytest.mark.parametrize(
    "command, retired",
    [
        (["verify", "--x", "0"], ("--family", "p")),
        (["solve"], ("--depth-cap", "1")),
    ],
    ids=["verify-family-p", "solve-depth-cap"],
)
def test_retired_verify_and_solve_flags_are_refused(capsys, fan_file, command, retired):
    # verify has no family p and solve no depth cap: refused, not ignored
    argv = command + ["--graph", fan_file, *retired]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and retired[0] in captured.err


def test_verify_family_d(capsys):
    rc, out, _ = run_main(
        capsys,
        ["verify", "--n", "128", "--p", "0.9", "--seed", "1", "--family", "d",
         "--x", "0", "--k", "2"],
    )
    assert rc == 0
    report = json.loads(out)
    assert report["family"] == "D" and report["all_passed"] is True

    rc2, out2, _ = run_main(
        capsys,
        ["verify", "--n", "128", "--p", "0.0", "--family", "d", "--x", "0", "--k", "2"],
    )
    assert rc2 == 1
    assert json.loads(out2) == {"family": "D", "decomposed": False}

    rc3, _, err3 = run_main(capsys, ["verify", "--n", "128", "--p", "0.9", "--family", "d"])
    assert rc3 == 2 and "--x" in err3


def test_verify_family_d_rejects_a_deep_tree_at_once(capsys, monkeypatch):
    def no_keys(k):
        raise AssertionError("cell_keys called before the size checks")

    monkeypatch.setattr(conbreak.connector, "cell_keys", no_keys)
    rc, _, err = run_main(
        capsys,
        ["verify", "--family", "d", "--n", "64", "--p", "0.2", "--seed", "3",
         "--x", "0", "--k", "30"],
    )
    assert rc == 2 and "cell size 0 is not positive" in err


D_ARGS = ["verify", "--n", "256", "--p", "0.8", "--seed", "1", "--family", "d", "--k", "2"]


@pytest.mark.parametrize("x", ["256", "-1"])
def test_verify_family_d_rejects_an_off_board_center(capsys, x):
    # an input error, not a board too sparse to decompose
    rc, out, err = run_main(capsys, D_ARGS + ["--x", x])
    assert rc == 2 and out == ""
    assert f"center vertex {x} is not on the 256-vertex board" in err


def test_verify_family_d_eps_sets_the_degree_bound(capsys):
    rc, out, _ = run_main(capsys, D_ARGS + ["--x", "0", "--eps", "0.3"])
    report = json.loads(out)
    assert report["family"] == "D" and report["params"]["eps"] == 0.3
    assert "D4" in report["clauses"] and "D2" not in report["clauses"]
    assert rc == (0 if report["all_passed"] else 1)


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_verify_family_d_refuses_a_non_finite_eps(capsys, eps):
    # nan would pass D4 against a nan bound and print a NaN the JSON
    # standard does not have
    rc, out, err = run_main(capsys, D_ARGS + ["--x", "0", f"--eps={eps}"])
    assert rc == 2 and out == ""
    assert err.startswith("conbreak:") and "--eps must be finite" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (B_ARGS + ["--eps", "0.3", "--k", "3"], "--k"),
        (B_ARGS + ["--eps", "0.3"], "--eps"),
        (B_ARGS + ["--k", "3"], "--k"),
        (D_ARGS + ["--x", "0", "--m-set", "1,2"], "--m-set"),
        (D_ARGS + ["--x", "0", "--exclude", "3"], "--exclude"),
    ],
    ids=["b-eps-and-k", "b-eps", "b-k", "d-m-set", "d-exclude"],
)
def test_verify_refuses_flags_its_family_does_not_read(capsys, argv, flag):
    # a flag the family ignores is a mistake in the call, not a default
    rc, out, err = run_main(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("conbreak:") and flag in err


def test_solve_subcommand(capsys, triangle_file, tmp_path):
    rc, out, _ = run_main(capsys, ["solve", "--graph", triangle_file])
    assert rc == 0 and out == "C\n"

    path_file = write_graph(tmp_path / "p3.edges", 3, [(0, 1), (1, 2)])
    rc2, out2, _ = run_main(capsys, ["solve", "--graph", path_file])
    assert rc2 == 0 and out2 == "B\n"

    rc3, out3, _ = run_main(
        capsys, ["solve", "--graph", triangle_file, "--goal", "reach:2", "--start", "0"]
    )
    assert rc3 == 0 and out3 == "C\n"

    rc4, _, err4 = run_main(capsys, ["solve", "--graph", triangle_file, "--goal", "reach-2"])
    assert rc4 == 2 and "goal" in err4
    rc5, _, err5 = run_main(capsys, ["solve", "--graph", triangle_file, "--goal", "reach:xyz"])
    assert rc5 == 2 and "integer" in err5


def test_module_entry_point():
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(conbreak.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conbreak.cli", "solve", "--n", "3", "--p", "1.0",
         "--m", "1", "--b", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "C\n"
