"""Smoke test of the benchmark at tiny sizes, with every output check and the
traced run. Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"dense-c8": 1000, "sparse-defaults": 300, "many-disciplines": 1}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    assert sorted(TINY) == sorted(WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run(workload, trace, tmp_path):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
        "--size", str(TINY[workload]), "--work-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == (3 if trace else 2)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["pipeline.rerun_skipped_stages"] == 3
        if workload == "many-disciplines":
            assert metrics["classify.gap_openers"] == 100 * TINY[workload]
            assert metrics["topology.triangles"] == 0


@pytest.mark.parametrize("workload", ["sparse-defaults", "many-disciplines"])
def test_discipline_pool_gives_the_same_outputs(workload, tmp_path):
    """The workloads run threads=1; the pool path must pass the same checks."""
    records = {}
    for threads in (1, 2):
        work = tmp_path / f"threads{threads}"
        proc = _run(
            ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
            "--size", str(TINY[workload]), "--threads", str(threads), "--work-dir", str(work),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0, proc.stderr
        provenance = json.loads((work / workload / "provenance.json").read_text(encoding="utf-8"))
        assert provenance["threads"] == threads
        records[threads] = (provenance["cold"], provenance["rerun"])
    assert records[1] == records[2]


def test_checks_catch_a_wrong_category(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import COLD_STATUSES, inspect_run
    from gapminer import pipeline, synth

    corpus = synth.planted_cycle(
        tmp_path / "corpus.jsonl", 1, disciplines=3, cycles=2, cycle_len=6, filler_fresh=6, filler_dup=2
    )
    out = tmp_path / "out"
    config = pipeline.PipelineConfig(corpus_path=corpus, output_dir=out, null_replicates=1, n_rand=1)
    statuses = pipeline.run(config).statuses
    assert inspect_run(out, statuses, rerun=False, gap_openers=6)[0] == []
    assert statuses == COLD_STATUSES
    path = out / "classification.csv"
    path.write_text(path.read_text().replace("D0K0P005,GapOpener", "D0K0P005,NovelPairNonGap"))
    problems = inspect_run(out, statuses, rerun=False, gap_openers=6)[0]
    assert any("verify_manifest" in p for p in problems)
    assert any("ground truth" in p for p in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "dense-c8", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
