import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import treecenter
import treecenter.cli as cli
import treecenter.solver as solver_mod
from treecenter import Tree, oracle_solve
from treecenter.solver import SolveResult


@pytest.fixture
def path2(tmp_path):
    f = tmp_path / "p2.tree"
    f.write_text("2 1\n1 3\n1 2 4\n")
    return str(f)


def test_solve_text(path2, capsys):
    assert cli.main(["solve", "--input", path2]) == 0
    out = capsys.readouterr().out
    assert "lambda* = 3/1" in out


def test_solve_discrete_json(path2, capsys):
    assert cli.main(["solve", "--input", path2, "--mode", "discrete", "--out", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda_star"] == "4/1"
    assert data["lambda_star_decimal"] == "4"
    assert data["centers"] == [{"vertex": 2}]


def test_json_schema_stable(path2, capsys):
    assert cli.main(["solve", "--input", path2, "--out", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data.keys()) == [
        "centers",
        "k",
        "lambda_star",
        "lambda_star_decimal",
        "mode",
        "n",
        "tests",
        "wall_ms",
    ]
    assert sorted(data["tests"].keys()) == ["phase0", "phase1", "phase2", "pre"]


def test_solve_missing_file():
    assert cli.main(["solve", "--input", "/nonexistent/x.tree"]) == 2


def test_solve_bad_content(tmp_path, capsys):
    f = tmp_path / "bad.tree"
    f.write_text("2 1\n1 1\n1 2 0\n")
    assert cli.main(["solve", "--input", str(f)]) == 2


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_solve_float_rejects_non_finite(token, tmp_path, capsys):
    f = tmp_path / "nonfinite.tree"
    f.write_text(f"2 1\n{token} 1\n1 2 1\n")
    assert cli.main(["solve", "--input", str(f), "--scalar", "float"]) == cli.EXIT_INPUT == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("parse error: ")
    assert captured.out == ""


def test_solve_float_input_is_solved_exactly(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n38 15\n2 1 5526\n"))
    assert cli.main(["solve", "--stdin", "--scalar", "float", "--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda_star"] == "3149820/53"


def _float_instance(rng):
    n = rng.randint(2, 30)
    weights = [rng.uniform(0.0, 1000.0) for _ in range(n)]
    edges = [(rng.randrange(v), v, rng.uniform(0.5, 100.0)) for v in range(1, n)]
    k = rng.randint(1, max(1, n // 3))
    text = "\n".join(
        [f"{n} {k}", " ".join(repr(w) for w in weights)]
        + [f"{u + 1} {v + 1} {length!r}" for u, v, length in edges]
    ) + "\n"
    exact = Tree(
        n=n,
        weights=tuple(Fraction(w) for w in weights),
        edges=tuple((u, v, Fraction(length)) for u, v, length in edges),
    )
    return text, exact, k


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_solve_float_input_matches_the_exact_oracle(mode, tmp_path, capsys):
    rng = random.Random(4242 if mode == "continuous" else 4343)
    f = tmp_path / "float.tree"
    for _ in range(25):
        text, exact, k = _float_instance(rng)
        f.write_text(text)
        argv = ["solve", "--input", str(f), "--scalar", "float", "--mode", mode, "--out", "json"]
        assert cli.main(argv) == 0
        want = oracle_solve(exact, k, mode)
        assert json.loads(capsys.readouterr().out)["lambda_star"] == cli._fraction_str(want)


def test_solve_k_zero(path2):
    assert cli.main(["solve", "--input", path2, "--k", "0"]) == 3


def test_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n5\n"))
    assert cli.main(["solve", "--stdin"]) == 0
    assert "lambda* = 0/1" in capsys.readouterr().out


def test_verify_ok(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--seeds", "1..6", "--nmax", "30", "--quiet"]) == 0
    assert "all 6 seeds match" in capsys.readouterr().out


def test_verify_discrete_ok(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(
        ["verify", "--seeds", "3..7", "--nmax", "25", "--mode", "discrete", "--quiet"]
    ) == 0


def _inject_wrong_solve(monkeypatch):
    real_solve = cli.solve

    def broken(tree, k, config=None):
        res = real_solve(tree, k, config)
        return SolveResult(res.lambda_star + 1, res.centers, res.stats)

    monkeypatch.setattr(cli, "solve", broken)


def test_verify_detects_injected_bug(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _inject_wrong_solve(monkeypatch)
    assert cli.main(["verify", "--seeds", "1..3", "--nmax", "20", "--quiet"]) == 1
    dumps = list(tmp_path.glob("verify_fail_seed*.tree"))
    assert dumps


def test_verify_mismatch_survives_a_failed_dump(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "verify_fail_seed1.tree").mkdir()
    _inject_wrong_solve(monkeypatch)
    assert cli.main(["verify", "--seeds", "1..2", "--nmax", "10", "--quiet"]) == cli.EXIT_MISMATCH
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["seed 1", "seed 2"]
    assert all("MISMATCH" in line for line in lines)
    assert "; instance not dumped: " in lines[0]
    assert lines[1].endswith("; instance dumped to verify_fail_seed2.tree")
    assert (tmp_path / "verify_fail_seed2.tree").is_file()
    assert captured.err.splitlines() == ["2 mismatches"]



@pytest.mark.parametrize("argv", [
    ["solve", "--input", "{path2}"],
    ["verify", "--seeds", "1..2", "--nmax", "10", "--quiet"],
])
def test_internal_fault_has_its_own_exit_code(argv, path2, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)

    def faulty(tree, k, config=None):
        raise AssertionError("solver produced an infeasible optimum")

    monkeypatch.setattr(cli, "solve", faulty)
    argv = [a.format(path2=path2) for a in argv]
    assert cli.main(argv) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: AssertionError: solver produced an infeasible optimum"]
    assert not list(tmp_path.glob("verify_fail_seed*.tree"))


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.tree"
    assert cli.main(["gen", "--n", "12", "--seed", "4", "--out", str(out)]) == 0
    assert cli.main(["solve", "--input", str(out)]) == 0


def test_usage_error():
    assert cli.main(["solve"]) == 3


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", "0"], "error: n must be at least 1"),
    (["gen", "--n", "3", "--k", "0"], "error: k must be at least 1"),
    (["verify", "--seeds", "1..2", "--nmax", "1"], "error: nmax must be at least 2"),
    (["verify", "--seeds", "3..1"], "error: empty seed range"),
], ids=["gen-n-0", "gen-k-0", "verify-nmax-1", "verify-seeds-3..1"])
def test_bad_parameters_exit_usage(argv, message, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(treecenter.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "treecenter.cli", "gen", "--n", "3", "--k", "1"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "3 1"
