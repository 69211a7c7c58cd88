import os
import subprocess
import sys

import pytest

import cubictsp.search as search
from cubictsp.analysis import AuditViolation
from cubictsp.cli import main
from cubictsp.generators import GeneratorSpec, generate
from cubictsp.graph import GraphError, format_instance


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.ftsp"
    path.write_text(format_instance(generate(GeneratorSpec(kind="named", name="petersen"))))
    return str(path)


@pytest.fixture
def prism_file(tmp_path):
    path = tmp_path / "prism.ftsp"
    path.write_text(format_instance(generate(GeneratorSpec(kind="named", name="prism"))))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_optimal_output(capsys, prism_file):
    code, out, _ = run_cli(capsys, "solve", prism_file)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "OPTIMAL 6"
    assert len(lines) == 7  # six tour edges
    pairs = [tuple(map(int, l.split())) for l in lines[1:]]
    assert pairs == sorted(pairs)


def test_solve_infeasible_exit_code(capsys, petersen_file):
    code, out, _ = run_cli(capsys, "solve", petersen_file)
    assert code == 1
    assert out.strip().splitlines()[0] == "INFEASIBLE"


def test_solve_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.ftsp"))
    assert code == 2
    assert "error" in err


def test_solve_bad_instance_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.ftsp"
    path.write_text("p ftsp 2 1\ne 1 1 1\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        "p ftsp 2 3\ne 1 2 1\ne 1 2 1\ne 1 2 1/0\n",
        "p ftsp x 3\ne 1 2 1\ne 1 2 1\ne 1 2 1\n",
        "p ftsp 2 3\ne 1 2 1\ne 1 2 1\ne 1 2 x\n",
        "p ftsp 2 3\ne 1 2 1\ne 1 2 1\ne 1 2 1.5\n",
    ],
)
def test_solve_bad_number_exit_code(capsys, tmp_path, text):
    path = tmp_path / "bad.ftsp"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line ") and err.count("\n") == 1


def test_solve_simple_strategy(capsys, prism_file):
    code, out, _ = run_cli(capsys, "solve", prism_file, "--strategy", "simple")
    assert code == 0 and out.startswith("OPTIMAL 6")


def test_solve_stats_dump(capsys, prism_file):
    code, out, _ = run_cli(capsys, "solve", prism_file, "--stats")
    assert code == 0
    assert "component" in out


def test_audit_report_keys(capsys, prism_file):
    code, out, _ = run_cli(capsys, "audit", prism_file)
    assert code == 0
    for key in ("mu0:", "nodes:", "leaves:", "leaf_bound:", "violations: 0"):
        assert key in out


def test_trace_reductions(capsys, prism_file):
    code, out, _ = run_cli(capsys, "solve", prism_file, "--trace-reductions")
    assert code == 0
    assert "reduction" in out and "delta_mu=" in out


def test_oracle_methods(capsys, prism_file):
    code, out, _ = run_cli(capsys, "oracle", prism_file, "--method", "exhaustive")
    assert code == 0 and out.startswith("OPTIMAL 6")
    code, out, _ = run_cli(capsys, "oracle", prism_file, "--method", "dp")
    assert code == 0 and out.startswith("OPTIMAL 6")


def test_gen_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "gen.ftsp"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "random_cubic", "--n", "12", "--seed", "4",
        "--random-weights", "--out", str(out_file),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", str(out_file))
    assert code in (0, 1)


def test_gen_env_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBIC_TSP_SEED", "99")
    a = tmp_path / "a.ftsp"
    b = tmp_path / "b.ftsp"
    run_cli(capsys, "gen", "--kind", "random_cubic", "--n", "10", "--out", str(a))
    run_cli(capsys, "gen", "--kind", "random_cubic", "--n", "10", "--out", str(b))
    assert a.read_text() == b.read_text()
    monkeypatch.setenv("CUBIC_TSP_SEED", "100")
    c = tmp_path / "c.ftsp"
    run_cli(capsys, "gen", "--kind", "random_cubic", "--n", "10", "--out", str(c))
    assert a.read_text() != c.read_text()


def test_gen_forced_edges(capsys, tmp_path):
    out_file = tmp_path / "forced.ftsp"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "random_cubic", "--n", "10", "--seed", "3",
        "--force-edges", "3", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text().count(" F") == 3


def test_gen_named(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "named", "--name", "k4")
    assert code == 0
    assert "p ftsp 4 6" in out


def test_bench_directory(capsys, tmp_path):
    for name, kind in [("a", "k4"), ("b", "petersen")]:
        p = tmp_path / f"{name}.ftsp"
        p.write_text(format_instance(generate(GeneratorSpec(kind="named", name=kind))))
    (tmp_path / "broken.ftsp").write_text("p ftsp 1 0\n")
    code, out, _ = run_cli(capsys, "bench", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance\t")
    assert any("optimal" in l for l in lines)
    assert any("infeasible" in l for l in lines)
    assert any("error" in l for l in lines)
    assert lines[-1].startswith("aggregate max leaves")


def test_bench_empty_directory(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run_cli(capsys, "bench", str(empty))
    assert code == 0


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_unreadable_directory(capsys, tmp_path, kind):
    target = tmp_path / "nope"
    if kind == "file":
        target.write_text("")
    code, out, err = run_cli(capsys, "bench", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [GraphError, AuditViolation])
def test_bench_solver_error_is_one_row(capsys, tmp_path, monkeypatch, exc):
    for name, kind in [("a", "k4"), ("b", "prism")]:
        p = tmp_path / f"{name}.ftsp"
        p.write_text(format_instance(generate(GeneratorSpec(kind="named", name=kind))))
    real_solve = search.solve

    def solve(inst, **kwargs):
        if inst.n_alive() == 6:
            raise exc("boom")
        return real_solve(inst, **kwargs)

    monkeypatch.setattr(search, "solve", solve)
    code, out, _ = run_cli(capsys, "bench", str(tmp_path))
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[1].startswith("a.ftsp\t4\toptimal\t4\t")
    assert rows[2].startswith("b.ftsp\t-\terror: boom\t")
    assert rows[3].startswith("aggregate max leaves")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cubictsp.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
