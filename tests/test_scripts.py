"""Smoke runs of the scripts under scripts/, so an API change that breaks
them fails here."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )


def test_leaf_bound_experiment_runs():
    proc = run_script("leaf_bound_experiment.py", "--sizes", "10", "--per-size", "1")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.strip().splitlines()
    assert header.startswith("n\truns\tmax_leaves")
    assert row.startswith("10\t1\t")


def test_make_corpus_writes_instances(tmp_path):
    out = tmp_path / "corpus"
    proc = run_script("make_corpus.py", str(out), "--sizes", "10", "--per-size", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"wrote 1 instances to {out}"
    (written,) = out.iterdir()
    assert written.name.endswith(".ftsp") and written.read_text().strip()


@pytest.mark.parametrize(
    "name, args",
    [
        ("leaf_bound_experiment.py", ["--sizes", "5"]),
        ("make_corpus.py", ["corpus", "--sizes", "7"]),
        ("make_corpus.py", ["corpus", "--sizes", "10", "--forced", "-2"]),
        ("make_corpus.py", ["a_file/corpus", "--sizes", "10", "--per-size", "1"]),
    ],
    ids=["leaf_bound_odd_size", "corpus_odd_size", "corpus_negative_forced", "corpus_unwritable"],
)
def test_script_input_error_is_one_line(tmp_path, name, args):
    # bad input exits 2 with one error line, as the CLI does, and writes
    # no corpus
    (tmp_path / "a_file").write_text("")
    args = [str(tmp_path / a) if a.endswith("corpus") else a for a in args]
    proc = run_script(name, *args)
    assert proc.returncode == 2
    (line,) = proc.stderr.strip().splitlines()
    assert line.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "corpus").exists()
