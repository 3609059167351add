"""Smoke test of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/test_bench.py -q``
(about a minute: every workload runs one untraced and one traced batch).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace))  # fmt: skip
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
            assert f"metric {name} = " in done.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = bench("--workload", "compare", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def csv_rows(offline: float, **profits: float) -> list[dict[str, str]]:
    profits = dict(dict.fromkeys(run.STRATEGIES, 0.0), **profits)
    rows = [{"run": "0", "strategy": "offline", "profit": repr(offline)}]
    rows += [{"run": "0", "strategy": s, "profit": repr(p)} for s, p in profits.items()]
    return rows


def test_compare_check_flags_a_profit_above_the_optimum_plus_slack():
    assert run.SLACK == 40.0 * (20.0 / 400) * 360
    honest = csv_rows(1000.0, socs=900.0, ocsmb=1000.0 + run.SLACK)
    assert run.compare_violations(honest, runs=1) == set()
    doctored = csv_rows(1000.0, socs=1000.0 + run.SLACK + 1e-6)
    assert run.compare_violations(doctored, runs=1) == {0}
    assert run.compare_violations(honest[1:], runs=1) == {0}  # no optimum to compare with
    assert run.compare_violations(honest, runs=2) == {1}  # a run is missing


def test_sweep_check_flags_a_mean_above_the_optimum_plus_slack():
    row = {"offers": 3, "ocsmb_mean_profit": 10.0, "socs_mean_profit": 11.0,
           "offline_mean_profit": 12.0}  # fmt: skip
    assert run.sweep_ok([row], [3])
    assert not run.sweep_ok([dict(row, ocsmb_mean_profit=12.0 + run.SLACK + 1.0)], [3])
    assert not run.sweep_ok([row], [3, 4])


def test_adversary_check_applies_criterion_5():
    good = {
        "instances": run.ADVERSARY_INSTANCES,
        "max_ratio": 3.0,
        "theoretical_bound": 3.0,
        "bucket_ratios": {"0": 3.0, "1": 2.0},
    }
    assert run.adversary_ok(good)
    assert run.adversary_ok(dict(good, max_ratio=3.15, bucket_ratios={"0": 3.15}))
    assert not run.adversary_ok(dict(good, max_ratio=3.2, bucket_ratios={"0": 3.2}))
    assert not run.adversary_ok(dict(good, bucket_ratios={"0": 2.9}))
    assert not run.adversary_ok(dict(good, bucket_ratios={"0": 3.0, "1": "unbounded"}))
    assert not run.adversary_ok(dict(good, instances=1))
