"""Self-tests of the benchmark, on the tiny variant of each workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root; each test starts run.py in a subprocess.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, script=os.path.join(HERE, "run.py"), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, script, "--tiny", "--seconds", "0.1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, result, proc = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = dict(run.PER_LAYER) if trace == "1" else dict(run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert "failed_fraction 0" in proc.stdout


def test_corrupted_reference_is_counted_as_failed(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("results", "__pycache__"))
    ref_path = copy / "reference.json"
    reference = json.loads(ref_path.read_text())
    job = sorted(reference["tiny"]["verify_cli"])[0]
    reference["tiny"]["verify_cli"][job]["stdout"] += "tampered\n"
    ref_path.write_text(json.dumps(reference))

    code, result, proc = bench(
        "--workload", "verify_cli", "--seed", "1", "--trace", "0", script=str(copy / "run.py")
    )
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert "differs from the reference" in proc.stdout


def test_exact_counts_repeat_across_traced_runs():
    counts = []
    for seed in ("1", "2"):
        code, result, proc = bench("--workload", "verify_cli", "--seed", seed, "--trace", "1")
        assert code == 0, proc.stderr
        metrics = result["metrics"]
        counts.append((metrics["exact_core.term_pairs"]["value"], metrics["pipeline.cache_hits"]["value"]))
    assert counts[0] == counts[1]
    assert counts[0][1] == workloads.CACHE_COUNTS[("verify_cli", "tiny")][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    code, result, proc = bench(
        "--workload", "verify_cli", "--seed", "1", "--trace", "0",
        script=str(tmp_path / "perfbench" / "run.py"), cwd=tmp_path,
    )
    assert code != 0
    assert result is None
