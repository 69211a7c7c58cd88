import os
import subprocess
import sys

import pytest

import cubictsp.cli as cli
import cubictsp.search as search
from cubictsp.analysis import AuditViolation
from cubictsp.cli import main
from cubictsp.generators import GeneratorSpec, generate
from cubictsp.graph import GraphError, format_instance

from conftest import src_env


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


def test_solve_huge_vertex_count_is_one_error(capsys, tmp_path, vertex_budget):
    path = tmp_path / "huge.ftsp"
    path.write_text("p ftsp 2000000 0\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: p line declares 2000000 vertices but only 0 edges\n"


@pytest.mark.parametrize("command", ["solve", "audit", "oracle", "bench"])
def test_non_utf8_file_is_one_error(capsys, tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe p ftsp\n")
    if command == "bench":
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 0 and err == ""
        rows = out.strip().splitlines()
        assert rows[1].startswith("bad.txt\t-\terror: cannot read ")
        assert rows[2].startswith("aggregate max leaves")
        return
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


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
    for method in ("exhaustive", "dp"):
        code, out, _ = run_cli(capsys, "oracle", prism_file, "--method", method)
        assert code == 0 and out.startswith("OPTIMAL 6")
        pairs = [tuple(map(int, line.split())) for line in out.splitlines()[1:]]
        assert all(len(p) == 2 and p[0] < p[1] for p in pairs), out
        assert pairs == sorted(pairs) and len(pairs) == 6  # one edge per vertex


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


@pytest.mark.parametrize("fault", ["env_seed", "out_dir", "force_edges"])
def test_gen_bad_seed_or_output_is_one_error(capsys, tmp_path, monkeypatch, fault):
    args = ["gen", "--n", "10"]
    if fault == "env_seed":
        monkeypatch.setenv("CUBIC_TSP_SEED", "abc")
    elif fault == "out_dir":
        args += ["--out", str(tmp_path / "missing" / "x.ftsp")]
    else:
        args += ["--force-edges", "-1"]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def _fake_pool(made):
    """A stand-in for ProcessPoolExecutor that records its worker count and
    maps in this process."""

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    return FakePool


@pytest.mark.parametrize(
    "jobs, files, cpus, workers",
    [
        (5000, 3, 8, 3),  # capped by the files
        (5000, 3, 2, 2),  # capped by the processors
        (2, 3, 8, 2),
        (5000, 1, 8, None),  # one worker: serial
        (5000, 0, 8, None),  # empty directory: serial
        (1, 3, 8, None),
        (5000, 3, None, None),  # processor count unknown: serial
    ],
)
def test_bench_worker_count_is_capped(capsys, tmp_path, monkeypatch, jobs, files, cpus, workers):
    for i in range(files):
        path = tmp_path / f"k4_{i}.ftsp"
        path.write_text(format_instance(generate(GeneratorSpec(kind="named", name="k4"))))
    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _fake_pool(made))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(capsys, "bench", str(tmp_path), "--jobs", str(jobs))
    assert code == 0
    assert made == ([] if workers is None else [workers])
    rows = out.strip().splitlines()
    assert len(rows) == files + 2
    assert all(row.startswith(f"k4_{i}.ftsp\t4\toptimal\t4\t") for i, row in enumerate(rows[1:-1]))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_is_one_error(capsys, tmp_path, monkeypatch, jobs):
    (tmp_path / "k4.ftsp").write_text(
        format_instance(generate(GeneratorSpec(kind="named", name="k4")))
    )
    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _fake_pool(made))
    code, out, err = run_cli(capsys, "bench", str(tmp_path), "--jobs", jobs)
    assert code == 2
    assert out == "" and made == []
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


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
        env=src_env(),
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_closed_output_pipe_exits_2_without_traceback(tmp_path):
    # the reader is gone before the solver writes a line, so every run hits
    # the broken pipe; exit 1 would read as INFEASIBLE
    path = tmp_path / "g.ftsp"
    spec = GeneratorSpec(kind="random_cubic", n=12, seed=1, weights="random")
    path.write_text(format_instance(generate(spec)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubictsp.cli", "solve", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=src_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: stdout closed before all output was written\n"


# Graph 5 of perfbench's audit-n30 corpus at seed 103 (unit weights): one
# bridge-normalisation step of its solve raises the measure by 19/300.
AUDIT_FAILURE = "p ftsp 30 45\n" + "".join(
    f"e {u} {v} 1\n"
    for u, v in [
        (2, 12), (7, 30), (10, 19), (6, 8), (17, 19), (28, 29), (4, 15), (20, 23),
        (13, 14), (25, 26), (9, 11), (5, 11), (16, 30), (1, 17), (9, 12), (3, 24),
        (22, 28), (10, 22), (1, 27), (6, 10), (3, 18), (2, 3), (4, 21), (15, 27),
        (16, 20), (4, 29), (2, 5), (7, 9), (8, 19), (14, 26), (8, 15), (13, 21),
        (23, 29), (7, 21), (20, 25), (5, 30), (12, 17), (14, 22), (6, 26), (11, 23),
        (13, 18), (24, 28), (24, 27), (16, 18), (1, 25),
    ]
)


@pytest.fixture
def audit_failure_file(tmp_path):
    path = tmp_path / "audit_failure.ftsp"
    path.write_text(AUDIT_FAILURE)
    return str(path)


def test_stats_runs_no_audit(capsys, audit_failure_file):
    code, plain, _ = run_cli(capsys, "solve", audit_failure_file)
    assert code == 0 and plain.startswith("OPTIMAL 30\n")
    code, out, err = run_cli(capsys, "solve", audit_failure_file, "--stats")
    assert code == 0 and err == ""
    assert out.endswith(plain)
    assert "mu0:" not in out


@pytest.mark.parametrize(
    "args", [("solve", "--audit"), ("solve", "--trace-reductions"), ("audit",)]
)
def test_audit_violation_is_one_error_line(capsys, audit_failure_file, args):
    code, _, err = run_cli(capsys, args[0], audit_failure_file, *args[1:])
    assert code == 2
    assert err == "error: step normalize: measure rose by 19/300 (from 1981/300)\n"
