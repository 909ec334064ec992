"""Smoke tests of the benchmark: every workload at m_bar = 2 for one rotation.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work_dir(request):
    """An empty directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_build" / "perfbench" / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--mbar", "2",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert result["correct"]
    if workload == "decompose":
        # 4 of every 24 ladder inputs get today's wrong verdict.
        assert 6 * result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_decompose_failed_share_is_the_same_on_two_seeds():
    first, second = (result_of(run_bench("decompose", 0, seed)) for seed in (5, 6))
    assert first["failed"] / first["attempted"] == second["failed"] / second["attempted"] == 1 / 6


def test_corrupted_realized_field_counts_as_failed(monkeypatch, work_dir):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run as bench

    import affine_kahler
    from affine_kahler.connections import ThetaField
    from affine_kahler.polynomials import ComplexPoly

    original = affine_kahler.realize

    def corrupted(tensor, mode="joint"):
        result = original(tensor, mode=mode)
        m_bar = tensor.config.m_bar
        nudge = ThetaField(m_bar, {(1, 1, 2): ComplexPoly.z_bar(m_bar, 2).scale(1e-3)})
        return dataclasses.replace(result, theta=result.theta + nudge)

    monkeypatch.setattr(affine_kahler, "realize", corrupted)
    args = bench.parse_args(["--workload", "realize", "--seed", "3", "--seconds", "0", "--mbar", "2"])
    result, _lines = bench.measure(args, work_dir)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_fails_without_the_program(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(HERE, work_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("realize", 0, cwd=work_dir)
    assert done.returncode != 0
    assert "correct" not in done.stdout
