"""Smoke runs of the scripts under scripts/ at tiny sizes: they call the library
API directly, so an API change that breaks them shows here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_make_synthetic_data(tmp_path):
    done = run_script("make_synthetic_data.py", "--out-dir", str(tmp_path), "--drugs", "10", "--proteins", "8")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "planted.nt").stat().st_size > 0
    assert (tmp_path / "affinity.tsv").stat().st_size > 0


def test_run_planted_experiment(tmp_path):
    out = tmp_path / "report"
    done = run_script(
        "run_planted_experiment.py", "--drugs", "10", "--proteins", "8", "--epochs", "2",
        "--steps", "5", "--seeds", "1", "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    assert "ensemble vs best member" in done.stdout
    assert out.with_suffix(".jsonl").stat().st_size > 0


def test_run_planted_experiment_world_seed_sets_only_the_world(tmp_path):
    out = tmp_path / "report"
    done = run_script(
        "run_planted_experiment.py", "--drugs", "10", "--proteins", "8", "--epochs", "1",
        "--steps", "2", "--seeds", "1", "--world-seed", "1", "--seed", "0", "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    first_line = out.with_suffix(".txt").read_text(encoding="utf-8").splitlines()[0]
    assert first_line.startswith("dataset: planted-10x8-seed1 ")
