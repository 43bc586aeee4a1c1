"""gapminer benchmark: cold runs and seed-change reruns on synthetic corpora.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-c8 --seed 1 --seconds 60 --trace 0

The corpus is generated with gapminer.synth from --seed. Each repetition
launches a fresh child process (child.py) for a cold run into an empty
output directory with pipeline seed=1, then another for a rerun in the same
directory with seed=2, which re-executes classify, metrics and report and
skips ingest, network and persist after checking their digests. Repetitions
continue while the next one fits in --seconds. Every run's outputs are
checked (checks.py); a run that exits non-zero, raises or fails a check
counts as failed, and so does one whose digests or counts differ from the
first run of the same pipeline seed.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 instead runs, per repetition, an untraced cold run and a traced
cold run and rerun, all with threads=1, and prints the per-layer metrics
(layertrace.py). The last line of output is one JSON object.

--size overrides the workload's corpus size (papers for random-pairs, cycles
per discipline for planted-cycle), for smoke tests and reference runs; a
reference run at a large size also needs a larger --limit than the default,
which keeps an invocation under 180 s. Every workload runs threads=1;
--threads 2 runs the discipline pool instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    generator: str
    size: int
    corpus: Callable[[int], dict]
    null_replicates: int
    n_rand: int
    # Planted-cycle ground truth: gap openers per unit of size, else None.
    gap_openers_per_size: int | None = None


WORKLOADS = {
    # The c8 acceptance shape: dense networks, topology-bound, single-threaded.
    "dense-c8": Workload(
        "random-pairs",
        4000,
        lambda n: dict(
            papers=n, concepts=n // 10, disciplines=20, venues=500,
            author_pool=int(0.3 * n), max_refs=6,
        ),
        null_replicates=2, n_rand=2,
    ),
    # The paper's defaults on a sparse corpus: null model and novelty rewiring.
    "sparse-defaults": Workload(
        "random-pairs",
        500,
        lambda n: dict(papers=n, concepts=n),
        null_replicates=10, n_rand=10,
    ),
    # 100 disciplines without triangles: per-discipline overhead, exact truth.
    # Not in BENCHMARK.json: its timings swing too far between runs on a small
    # shared machine; the smoke test runs it for its ground-truth checks.
    "many-disciplines": Workload(
        "planted-cycle",
        1,
        lambda c: dict(
            disciplines=100, cycles=c, cycle_len=6, filler_fresh=600 * c, filler_dup=200 * c,
        ),
        null_replicates=10, n_rand=2,
        gap_openers_per_size=100,
    ),
}


def _listed_units(trace: bool) -> dict[str, str]:
    """Name and unit of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time of the whole machine so far, from /proc/stat."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return None
    user, nice, system, idle, iowait, irq, softirq, steal = (int(v) for v in line.split()[1:9])
    return steal, user + nice + system + idle + iowait + irq + softirq + steal


class Runner:
    """Launches child runs, checks them and keeps the tallies of one invocation."""

    def __init__(
        self, workload: Workload, size: int, threads: int, corpus: Path, work: Path, deadline: float
    ):
        self.workload = workload
        self.size = size
        self.threads = threads
        self.corpus = corpus
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.first_record: dict[int, dict] = {}

    def run(self, out: Path, *, seed: int, trace: bool, threads: int, rerun: bool = False) -> dict | None:
        """One child run; returns its result, or None when it failed."""
        from checks import inspect_run

        self.attempted += 1
        spec = {
            "corpus": str(self.corpus), "out": str(out), "seed": seed, "trace": trace,
            "null_replicates": self.workload.null_replicates, "n_rand": self.workload.n_rand,
            "threads": threads,
        }
        result_path = self.work / "child-result.json"
        result_path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        timeout = max(self.deadline - time.monotonic(), 1.0)
        label = f"{'rerun' if rerun else 'cold'} seed={seed} trace={int(trace)} threads={threads}"
        launched = time.monotonic()
        # Its own process group, so that a timeout also ends its pool workers.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(result_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return self._fail(label, [f"timed out after {timeout:.0f} s"])
        if proc.returncode != 0:
            return self._fail(label, [f"exit {proc.returncode}: {stderr.strip()[-2000:]}"])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["setup_done"] - launched
        gap_openers = self.workload.gap_openers_per_size
        try:
            problems, record = inspect_run(
                out, result["statuses"], rerun=rerun,
                gap_openers=None if gap_openers is None else gap_openers * self.size,
            )
        except Exception as exc:  # unreadable outputs fail this run, not the benchmark
            return self._fail(label, [f"outputs unreadable: {exc!r}"])
        first = self.first_record.get(seed)
        if first is not None and record != first:
            problems.append(f"digests or counts differ from the first seed={seed} run: {record} vs {first}")
        if problems:
            return self._fail(label, problems)
        self.first_record.setdefault(seed, record)
        result["record"] = record
        return result

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {label}:", *problems, sep="\n  ", file=sys.stderr)
        return None


def _median(values: list[float]) -> float:
    """The median, or the common value itself when every sample agrees (counts)."""
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


def _plain_repetition(runner: Runner, out: Path, keep: Callable) -> tuple[dict | None, dict | None]:
    """A cold run and a seed-change rerun with the chosen thread count."""
    cold = runner.run(out, seed=1, trace=False, threads=runner.threads)
    rerun = runner.run(out, seed=2, trace=False, threads=runner.threads, rerun=True) if cold else None
    for result in (cold, rerun):
        if result:
            keep("setup_s", result["setup_s"])
    if cold:
        keep("run_s", cold["run_s"])
    if rerun:
        keep("rerun_s", rerun["run_s"])
        keep("peak_rss_mb", max(cold["peak_rss_mb"], rerun["peak_rss_mb"]))
    return cold, rerun


def _traced_repetition(runner: Runner, out: Path, keep: Callable) -> tuple[dict | None, dict | None]:
    """An untraced cold run, then a traced cold run and rerun, all threads=1."""
    from layertrace import layer_metrics

    untraced = out.with_name(out.name + "-untraced")
    base = runner.run(untraced, seed=1, trace=False, threads=1)
    shutil.rmtree(untraced, ignore_errors=True)
    cold = runner.run(out, seed=1, trace=True, threads=1)
    rerun = runner.run(out, seed=2, trace=True, threads=1, rerun=True) if cold else None
    if base and cold and rerun:
        for name, value in layer_metrics(cold["spans"], runner.workload.null_replicates).items():
            keep(name, value)
        counts = cold["record"]["counts"]
        keep("pipeline.artifact_files", counts["artifact_files"])
        keep("pipeline.artifact_bytes", counts["artifact_bytes"])
        keep("pipeline.rerun_skipped_stages", sum(1 for s in rerun["statuses"].values() if s == "skipped"))
        keep("trace.overhead_s", cold["run_s"] - base["run_s"])
        (runner.work / "spans.json").write_text(json.dumps(cold["spans"]), encoding="utf-8")
    return cold, rerun


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus generator seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="override the workload's corpus size")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="pipeline threads; 2 or more runs the discipline pool, which on a small "
        "shared machine times the scheduler more than the program",
    )
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench_work")
    parser.add_argument(
        "--limit", type=float, default=170.0,
        help="seconds after start at which a child still running is killed and counted failed",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    jiffies = _cpu_jiffies()

    if not (SRC / "gapminer" / "__init__.py").is_file():
        print(f"error: no gapminer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Importing the pipeline here compiles every gapminer module once, so that
    # no child's setup_s includes writing the bytecode cache.
    from gapminer import pipeline, synth  # noqa: F401

    workload = WORKLOADS[args.workload]
    size = args.size or workload.size
    work = args.work_dir / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = synth.make_synthetic(
        workload.generator, work / "corpus.jsonl", args.seed, **workload.corpus(size)
    )
    provenance = {
        "workload": args.workload, "seed": args.seed, "size": size, "threads": args.threads,
        "corpus_sha256": hashlib.sha256(corpus.read_bytes()).hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": _git_sha(),
    }
    runner = Runner(workload, size, args.threads, corpus, work, started + args.limit)
    deadline = started + args.seconds
    rep_times: list[float] = []
    samples: dict[str, list] = {}

    def keep(name: str, value) -> None:
        samples.setdefault(name, []).append(value)

    if args.trace:
        print("note: traced runs use threads=1; spans recorded in pool workers would be lost")
    rep = 0
    while True:
        rep_start = time.monotonic()
        out = work / f"rep{rep}"
        repetition = _traced_repetition if args.trace else _plain_repetition
        cold, rerun = repetition(runner, out, keep)
        if cold:
            provenance.setdefault("cold", cold["record"])
        if rerun:
            provenance.setdefault("rerun", rerun["record"])
        shutil.rmtree(out, ignore_errors=True)
        rep += 1
        rep_times.append(time.monotonic() - rep_start)
        if time.monotonic() + max(rep_times) > deadline:
            break

    provenance["repetitions"] = rep
    # Time the hypervisor gave to other guests; a large share inflates timings.
    now = _cpu_jiffies()
    if jiffies and now and now[1] > jiffies[1]:
        provenance["host_steal_share"] = (now[0] - jiffies[0]) / (now[1] - jiffies[1])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    (work / "provenance.json").write_text(json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    if not args.trace:
        samples["ok_ratio"] = [1.0 - runner.failed / runner.attempted]
    units = _listed_units(args.trace)
    missing = sorted(units.keys() - samples.keys())
    if missing:
        print(f"error: no successful run measured {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        metrics[name] = {"value": _median(values), "unit": unit}
        spread = f"median of {len(values)}, range {min(values):.6g}..{max(values):.6g}"
        print(f"{name:40s} {metrics[name]['value']!r:>24} {unit}  ({spread})")
    print(f"{'fail_ratio':40s} {runner.failed / runner.attempted!r:>24} ratio"
          f"  ({runner.failed} of {runner.attempted} runs failed)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
