"""The command as the benchmark driver runs it: repeatable counts, and refusal without src."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent


def _run(cwd: Path, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "meshbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_two_short_runs_repeat_their_counts():
    args = ("--workload", "culling-sweep", "--seed", "7", "--seconds", "1")
    first, second = (json.loads(_run(ROOT, *args).stdout.splitlines()[-1]) for _ in range(2))
    assert first["correct"] and second["correct"]
    for key in ("attempted", "failed"):
        assert first[key] == second[key]
    for key in ("profile_queries", "mean_abs_error", "mesh_bytes"):
        assert first["metrics"][key] == second["metrics"][key]


def _bench_only_copy(tmp_path: Path) -> Path:
    """The benchmark's own files without the repository's src."""
    shutil.copytree(HERE, tmp_path / "meshbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_runs", "_traces"))
    return tmp_path


def test_refuses_to_run_without_src(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(_bench_only_copy(tmp_path), "--workload", "analytic-builds", env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "meshprof" in proc.stderr


def test_refuses_a_meshprof_from_elsewhere(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = _run(_bench_only_copy(tmp_path), "--workload", "analytic-builds", env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "refusing to time another copy" in proc.stderr
