"""Regenerate the frozen golden outputs for the planted-structure fixture.

Run from the repository root after any intentional change to output formats:

    python3 tests/make_golden.py

The script verifies the fixture's planted structure against the dense Betti
oracle before freezing, so a regression cannot be baked into the goldens.
"""

from __future__ import annotations

import csv
import shutil
import sys
import tempfile
from pathlib import Path

from gapminer.classify import Category, classify_all
from gapminer.corpus import load_corpus
from gapminer.pipeline import PipelineConfig, run
from gapminer.synth import make_synthetic
from gapminer.topology import build_flag_filtration

from helpers import analyze_discipline, betti_oracle

GOLDEN_DIR = Path(__file__).parent / "golden" / "planted"
GOLDEN_FILES = ("classification.csv", "shares.csv", "metrics.csv")

FIXTURE_SEED = 20260810
CYCLE_LEN = 5
CYCLES = 10
DISCIPLINES = 3
FILLER_FRESH = 300


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="golden-"))
    corpus = make_synthetic(
        "planted-cycle",
        tmp / "planted.jsonl",
        FIXTURE_SEED,
        cycle_len=CYCLE_LEN,
        cycles=CYCLES,
        disciplines=DISCIPLINES,
        filler_fresh=FILLER_FRESH,
    )
    store = load_corpus(corpus)

    # Oracle verification of the planted structure: each cycle appears only
    # when its closing edge arrives, so every discipline carries exactly
    # CYCLES essential one-dimensional classes and each closing paper is a
    # gap opener.
    for d in sorted(store.disciplines()):
        topo = analyze_discipline(store, d)
        filtration = build_flag_filtration(topo.network)
        close_year = 2000 + CYCLE_LEN - 1
        assert betti_oracle(filtration, close_year - 1)[1] == 0
        assert betti_oracle(filtration, close_year)[1] == CYCLES
        assert len(topo.gap_pairs) == CYCLES
    classifications = classify_all(store, 1)
    openers = sorted(
        pid for pid, c in classifications.items() if c.category is Category.GAP_OPENER
    )
    expected = sorted(
        f"D{d}K{k}P{CYCLE_LEN - 1:03d}" for d in range(DISCIPLINES) for k in range(CYCLES)
    )
    assert openers == expected, f"unexpected gap openers: {openers}"
    print(f"fixture verified: {len(expected)} planted gap openers confirmed by oracle")

    config = PipelineConfig(
        corpus_path=corpus,
        output_dir=tmp / "out",
        null_replicates=10,
        n_rand=2,
        seed=FIXTURE_SEED,
    )
    run(config)

    with open(config.output_dir / "shares.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["grouping"] == "overall"]
    real = next(
        float(r["fraction"])
        for r in rows
        if r["category"] == "GapOpener" and r["source"] == "real"
    )
    rand = next(
        float(r["fraction"])
        for r in rows
        if r["category"] == "GapOpener" and r["source"] == "random"
    )
    assert real > rand, (real, rand)
    print(f"directional check: real share {real:.4f} > random mean {rand:.4f}")

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_FILES:
        shutil.copyfile(config.output_dir / name, GOLDEN_DIR / name)
        print(f"froze {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
