"""Regenerate the frozen golden outputs for the planted-structure fixture.

Run from the repository root after any intentional change to output formats:

    python3 tests/make_golden.py

The script verifies the fixture's planted structure against the dense Betti
oracle before freezing, so a regression cannot be baked into the goldens.
Acceptance criterion 9 runs the same verification and run through
`run_fixture` and compares its output with the frozen files.
"""

from __future__ import annotations

import csv
import shutil
import sys
import tempfile
from pathlib import Path

from gapminer.classify import Category, classify_all
from gapminer.corpus import load_corpus
from gapminer.pipeline import run
from gapminer.topology import build_flag_filtration

from helpers import (
    PLANTED_CYCLE_LEN,
    PLANTED_CYCLES,
    PLANTED_DISCIPLINES,
    analyze_discipline,
    betti_oracle,
    planted_config,
    planted_corpus,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "planted"
GOLDEN_FILES = ("classification.csv", "shares.csv", "metrics.csv")


def run_fixture(directory: Path) -> tuple[Path, float, float]:
    """Write the planted corpus into `directory`, verify its structure, run
    the pipeline on it into `directory / "out"`, and check that the real
    gap-opener share exceeds the random mean. Returns the output directory,
    the real share and the random mean."""
    corpus = planted_corpus(directory)
    store = load_corpus(corpus)

    # Oracle verification of the planted structure: each cycle appears only
    # when its closing edge arrives, so every discipline carries exactly
    # PLANTED_CYCLES essential one-dimensional classes and each closing
    # paper is a gap opener.
    for d in sorted(store.disciplines()):
        topo = analyze_discipline(store, d)
        filtration = build_flag_filtration(topo.network)
        close_year = 2000 + PLANTED_CYCLE_LEN - 1
        assert betti_oracle(filtration, close_year - 1)[1] == 0
        assert betti_oracle(filtration, close_year)[1] == PLANTED_CYCLES
        assert len(topo.gap_pairs) == PLANTED_CYCLES
    classifications = classify_all(store, 1)
    openers = sorted(
        pid for pid, c in classifications.items() if c.category is Category.GAP_OPENER
    )
    expected = sorted(
        f"D{d}K{k}P{PLANTED_CYCLE_LEN - 1:03d}"
        for d in range(PLANTED_DISCIPLINES)
        for k in range(PLANTED_CYCLES)
    )
    assert openers == expected, f"unexpected gap openers: {openers}"
    print(f"fixture verified: {len(expected)} planted gap openers confirmed by oracle")

    out = directory / "out"
    run(planted_config(corpus, out))

    with open(out / "shares.csv", newline="") as fh:
        shares = {
            r["source"]: float(r["fraction"])
            for r in csv.DictReader(fh)
            if r["grouping"] == "overall" and r["category"] == "GapOpener"
        }
    real, rand = shares["real"], shares["random"]
    assert real > rand, (real, rand)
    print(f"directional check: real share {real:.4f} > random mean {rand:.4f}")
    return out, real, rand


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        out, _, _ = run_fixture(Path(tmp))
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name in GOLDEN_FILES:
            shutil.copyfile(out / name, GOLDEN_DIR / name)
            print(f"froze {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
