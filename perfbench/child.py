"""One pipeline run in a fresh process, as run.py launches it.

Usage: child.py SPEC_JSON RESULT_PATH

SPEC_JSON holds corpus, out, seed, null_replicates, n_rand, threads and
trace. The child imports gapminer, validates the PipelineConfig, notes the
monotonic clock (the end of set-up), then calls the public
gapminer.pipeline.run and writes a JSON result to RESULT_PATH: the set-up
timestamp, the run's wall time, the stage statuses, the peak resident set of
this process and its reaped children (pool workers), and, when traced, the
spans. Any exception exits non-zero with its traceback on stderr.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    from gapminer import pipeline

    config = pipeline.PipelineConfig(
        corpus_path=Path(spec["corpus"]),
        output_dir=Path(spec["out"]),
        seed=spec["seed"],
        null_replicates=spec["null_replicates"],
        n_rand=spec["n_rand"],
        threads=spec["threads"],
    )
    config.validate()
    setup_done = time.monotonic()

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin()
    start = time.perf_counter()
    result = pipeline.run(config)
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    payload = {
        "setup_done": setup_done,
        "run_s": run_s,
        "statuses": result.statuses,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
