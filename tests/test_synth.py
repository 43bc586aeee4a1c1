"""Synthetic corpus generators: determinism, validity, planted structure."""

from __future__ import annotations

import pytest

from gapminer.classify import Category, classify_all
from gapminer.corpus import load_corpus
from gapminer.errors import ConfigError
from gapminer.synth import make_synthetic


def test_same_seed_byte_identical(tmp_path):
    a = make_synthetic("planted-cycle", tmp_path / "a.jsonl", 7, cycle_len=6, filler_fresh=5)
    b = make_synthetic("planted-cycle", tmp_path / "b.jsonl", 7, cycle_len=6, filler_fresh=5)
    assert a.read_bytes() == b.read_bytes()
    c = make_synthetic("planted-cycle", tmp_path / "c.jsonl", 8, cycle_len=6, filler_fresh=5)
    assert a.read_bytes() != c.read_bytes()


def test_zero_papers_random_pairs_valid(tmp_path):
    path = make_synthetic("random-pairs", tmp_path / "z.jsonl", 1, papers=0)
    store = load_corpus(path)
    assert len(store) == 0
    assert store.ingest_report.malformed == 0


def test_unknown_generator(tmp_path):
    with pytest.raises(ConfigError):
        make_synthetic("planted-torus", tmp_path / "x.jsonl", 0)


def test_planted_cycle_structure(tmp_path):
    path = make_synthetic("planted-cycle", tmp_path / "c.jsonl", 3, cycle_len=5)
    store = load_corpus(path)
    assert len(store) == 5
    assert store.years() == [2000, 2001, 2002, 2003, 2004]
    classifications = classify_all(store, 1)
    openers = [p for p, c in classifications.items() if c.category is Category.GAP_OPENER]
    assert openers == ["D0K0P004"]


def test_planted_cycle_fillers_do_not_open_gaps(tmp_path):
    path = make_synthetic(
        "planted-cycle",
        tmp_path / "c.jsonl",
        3,
        cycle_len=5,
        disciplines=3,
        filler_fresh=25,
        filler_dup=25,
    )
    store = load_corpus(path)
    assert len(store) == 5 * 3 + 50
    classifications = classify_all(store, 1)
    openers = sorted(
        p for p, c in classifications.items() if c.category is Category.GAP_OPENER
    )
    assert openers == ["D0K0P004", "D1K0P004", "D2K0P004"]
    by_cat = {c: 0 for c in Category}
    for cls in classifications.values():
        by_cat[cls.category] += 1
    assert by_cat[Category.NO_NOVEL_PAIR] >= 25  # duplicate fillers


def test_generated_corpora_round_trip(tmp_path):
    from gapminer.corpus import save_corpus

    for generator, params in (
        ("planted-cycle", dict(cycle_len=5, disciplines=2, filler_fresh=8, filler_dup=4)),
        ("random-pairs", dict(papers=120, concepts=60)),
    ):
        path = make_synthetic(generator, tmp_path / f"{generator}.jsonl", 5, **params)
        store = load_corpus(path)
        out = tmp_path / f"{generator}.norm.jsonl"
        save_corpus(store, out)
        assert load_corpus(out) == store


def test_random_pairs_valid_and_deterministic(tmp_path):
    a = make_synthetic("random-pairs", tmp_path / "r1.jsonl", 11, papers=300, concepts=80)
    b = make_synthetic("random-pairs", tmp_path / "r2.jsonl", 11, papers=300, concepts=80)
    assert a.read_bytes() == b.read_bytes()
    store = load_corpus(a)
    assert len(store) == 300
    assert store.ingest_report.malformed == 0
    assert store.ingest_report.rejections == []
    for rec in store.iter_papers():
        assert 2 <= len(rec.level3_ids) <= 4
