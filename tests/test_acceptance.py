"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The scale test (criterion 8) builds a 100k-paper corpus and takes a
couple of minutes; everything else is fast.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter
from pathlib import Path

from gapminer.classify import Category, classify_all
from gapminer.concept_net import label_pools, randomize_labels
from gapminer.corpus import build_citation_index, load_corpus
from gapminer.metrics import cd_index, sleeping_beauty
from gapminer.pipeline import PipelineConfig, run, verify_manifest
from gapminer.synth import make_synthetic
from gapminer.topology import build_flag_filtration, compute_persistence

from helpers import (
    C1_INSTANCES,
    apply_boundary,
    betti_oracle,
    boundary_chain,
    build_store,
    c1_instances,
    check_label_conservation,
    engine_dim1_profile,
    full_reduction,
    raw_record,
    step_boundaries,
    switch_named_citations,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "planted"
GOLDEN_FILES = ("classification.csv", "shares.csv", "metrics.csv")

def test_c1_oracle_equivalence():
    started = time.monotonic()
    checked_years = 0
    for network in c1_instances():
        filtration = build_flag_filtration(network)
        diagram = compute_persistence(filtration)
        years = list(step_boundaries(filtration))
        profile = engine_dim1_profile(diagram.records(), years)
        for year in years:
            assert profile[year] == betti_oracle(filtration, year)[1]
            checked_years += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    print(
        f"\n[acceptance] criterion 1 PASS: engine dim-1 profile equals the dense "
        f"oracle on {C1_INSTANCES} random graphs ({checked_years} year checks, "
        f"{elapsed:.1f}s)"
    )


def test_c2_planted_cycle_detection(tmp_path):
    started = time.monotonic()
    for n in (4, 5, 8, 20):
        path = make_synthetic("planted-cycle", tmp_path / f"cycle{n}.jsonl", 1, cycle_len=n)
        store = load_corpus(path)
        classifications = classify_all(store, 1)
        openers = sorted(
            pid for pid, c in classifications.items() if c.category is Category.GAP_OPENER
        )
        assert openers == [f"D0K0P{n - 1:03d}"], f"n={n}: {openers}"
    triangle = make_synthetic("planted-cycle", tmp_path / "triangle.jsonl", 1, cycle_len=3)
    store = load_corpus(triangle)
    classifications = classify_all(store, 1)
    assert not [c for c in classifications.values() if c.category is Category.GAP_OPENER]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"planted-cycle detection took {elapsed:.2f}s"
    print(
        f"\n[acceptance] criterion 2 PASS: unique gap opener for n in (4,5,8,20), "
        f"none for the filled triangle ({elapsed:.2f}s)"
    )


def test_c3_positivity_shortcut_agreement():
    instances = 0
    for network in c1_instances():
        filtration = build_flag_filtration(network)
        naive_pairs, naive_essentials = full_reduction(filtration)
        reduction_births = {b for b, _ in naive_pairs} | naive_essentials
        reduction_positive = {
            i for i in reduction_births if filtration.simplices[i].dim == 1
        }
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        union_find_positive = set()
        for s in filtration.simplices:
            if s.dim == 0:
                parent[s.vertices[0]] = s.vertices[0]
            elif s.dim == 1:
                ru, rv = find(s.vertices[0]), find(s.vertices[1])
                if ru == rv:
                    union_find_positive.add(s.order_index)
                else:
                    parent[ru] = rv
        assert union_find_positive == reduction_positive
        instances += 1
    print(
        f"\n[acceptance] criterion 3 PASS: union-find positivity matches reduction "
        f"birth edges on all {instances} instances"
    )


def test_c4_boundary_squared_zero():
    simplex_count = 0
    for network in c1_instances():
        filtration = build_flag_filtration(network)
        for s in filtration.simplices:
            assert apply_boundary(boundary_chain(s.vertices)) == {}
            simplex_count += 1
    print(
        f"\n[acceptance] criterion 4 PASS: boundary-of-boundary vanished for "
        f"{simplex_count} simplices"
    )


def test_c5_formula_fidelity():
    def disruption_fixture(n_i, n_j, n_k):
        raws = [
            raw_record("R", 1990, ("a", "b")),
            raw_record("F", 2000, ("a", "b"), refs=("R",)),
        ]
        raws += [raw_record(f"i{x}", 2005, ("a", "b"), refs=("F",)) for x in range(n_i)]
        raws += [raw_record(f"j{x}", 2005, ("a", "b"), refs=("F", "R")) for x in range(n_j)]
        raws += [raw_record(f"k{x}", 2005, ("a", "b"), refs=("R",)) for x in range(n_k)]
        store = build_store(raws)
        return store.papers["F"], build_citation_index(store)

    for partition, expected in (((3, 1, 1), 0.4), ((5, 0, 0), 1.0), ((0, 4, 0), -1.0)):
        focal, index = disruption_fixture(*partition)
        assert cd_index(focal, index) == expected

    assert sleeping_beauty((7, 1)) == 0.0  # peak at age 0
    assert sleeping_beauty((0, 5, 10)) == 0.0  # exactly linear
    assert sleeping_beauty((2, 3, 4, 5)) == 0.0
    assert abs(sleeping_beauty((0, 0, 0, 9)) - 9.0) <= 1e-12
    print(
        "\n[acceptance] criterion 5 PASS: disruption values (0.4, 1, -1) and "
        "beauty coefficients (0, 0, 9.0) exact"
    )


def test_c6_null_model_conservation(tmp_path):
    corpus = make_synthetic(
        "random-pairs", tmp_path / "null.jsonl", 6, papers=500, concepts=120, disciplines=4
    )
    store = load_corpus(corpus)
    assert len(store) == 500
    pools = label_pools(store)
    for replicate in range(50):
        check_label_conservation(store, randomize_labels(pools, replicate))

    # Citation-switch rewiring: both degree sequences exact per swap batch.
    index = build_citation_index(store)
    venue_of = {pid: r.venue_id for pid, r in store.papers.items() if r.venue_id}
    batches = 0
    for year in store.years():
        edges = [
            (pid, ref)
            for pid in store.by_year[year]
            for ref in store.papers[pid].references
            if ref in venue_of
        ]
        if len(edges) < 2:
            continue
        out_degree = Counter(p for p, _ in edges)
        in_degree = Counter(r for _, r in edges)
        rewired = switch_named_citations(edges, random.Random(year), factor=10)
        assert Counter(p for p, _ in rewired) == out_degree
        assert Counter(r for _, r in rewired) == in_degree
        batches += 1
    assert batches > 0
    print(
        f"\n[acceptance] criterion 6 PASS: 50 label randomizations conserved counts "
        f"and multisets exactly; {batches} rewiring batches preserved both degree "
        f"sequences"
    )


def _planted_fixture_corpus(tmp_path: Path) -> Path:
    return make_synthetic(
        "planted-cycle",
        tmp_path / "planted.jsonl",
        20260810,
        cycle_len=5,
        cycles=10,
        disciplines=3,
        filler_fresh=300,
    )


def _planted_config(corpus: Path, out: Path, null_replicates: int) -> PipelineConfig:
    return PipelineConfig(
        corpus_path=corpus,
        output_dir=out,
        null_replicates=null_replicates,
        n_rand=2,
        seed=20260810,
    )


def test_c7_run_determinism(tmp_path):
    corpus = _planted_fixture_corpus(tmp_path)
    run(_planted_config(corpus, tmp_path / "run_a", null_replicates=2))
    run(_planted_config(corpus, tmp_path / "run_b", null_replicates=2))
    for name in ("classification.csv", "shares.csv", "metrics.csv", "manifest.json"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"
    assert verify_manifest(tmp_path / "run_a")
    assert verify_manifest(tmp_path / "run_b")
    print(
        "\n[acceptance] criterion 7 PASS: identically seeded runs byte-identical; "
        "manifest digests verify"
    )


def test_c8_scale_smoke(tmp_path):
    corpus = make_synthetic(
        "random-pairs",
        tmp_path / "big.jsonl",
        99,
        papers=100_000,
        concepts=10_000,
        disciplines=20,
        venues=500,
        author_pool=30_000,
        max_refs=6,
    )
    # Sequential on purpose: the budget is stated for a 4-core desktop, and a
    # single-threaded pass within it is the stronger result. threads > 1 is
    # covered functionally by the pipeline equivalence test.
    config = PipelineConfig(
        corpus_path=corpus,
        output_dir=tmp_path / "out",
        null_replicates=2,
        n_rand=2,
        seed=1,
        threads=1,
    )
    started = time.monotonic()
    result = run(config)
    elapsed = time.monotonic() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    assert all(status == "ok" for status in result.statuses.values())
    metrics_lines = sum(1 for _ in open(config.output_dir / "metrics.csv"))
    assert metrics_lines == 100_001
    assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
    assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
    print(
        f"\n[acceptance] criterion 8 PASS: 100k papers / 10k concepts pipeline in "
        f"{elapsed:.0f}s, peak RSS {peak_gb:.2f} GB"
    )


def test_c9_directional_null_contrast_and_golden(tmp_path):
    corpus = _planted_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    run(_planted_config(corpus, out, null_replicates=10))

    import csv

    real_share = random_share = None
    with open(out / "shares.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["grouping"] == "overall" and row["category"] == "GapOpener":
                if row["source"] == "real":
                    real_share = float(row["fraction"])
                else:
                    random_share = float(row["fraction"])
    assert real_share is not None and random_share is not None
    assert real_share > random_share, (real_share, random_share)

    assert GOLDEN_DIR.exists(), (
        "golden files missing; regenerate via tests/make_golden.py after "
        "verifying the fixture"
    )
    for name in GOLDEN_FILES:
        produced = (out / name).read_bytes()
        frozen = (GOLDEN_DIR / name).read_bytes()
        assert produced == frozen, f"{name} deviates from the frozen golden file"
    print(
        f"\n[acceptance] criterion 9 PASS: real gap-opener share {real_share:.4f} > "
        f"random mean {random_share:.4f} over 10 replicates; outputs match the "
        f"golden files"
    )
