"""Smoke runs of the scripts under scripts/, so an API change that breaks
them fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
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
