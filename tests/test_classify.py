"""Category assignment, share tables, and the null-model comparison."""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapminer.classify import (
    CATEGORIES,
    Category,
    classify_all,
    group_keys,
    null_comparison,
    share_table,
)
from gapminer.errors import DataError
from gapminer.topology import build_flag_filtration

from helpers import (
    analyze_store,
    betti_oracle,
    build_store,
    random_store,
    raw_record,
    reference_classify_all,
    reference_null_comparison,
    reference_share_table,
)


def real_shares(classifications, store, grouping):
    """share_table over classify_all's verdicts, as the classify stage calls it."""
    categories = {pid: cls.category for pid, cls in classifications.items()}
    return share_table(categories, group_keys(store, grouping), grouping)


def cycle_corpus(n=4, discipline="D", start=2000, prefix="P"):
    """Papers introducing an n-cycle one edge per year; last paper closes it."""
    concepts = [f"{discipline}c{i}" for i in range(n)]
    return [
        raw_record(
            f"{prefix}{i:02d}",
            start + i,
            (concepts[i], concepts[(i + 1) % n]),
            l0=(discipline,),
        )
        for i in range(n)
    ]


def test_cycle_closer_is_gap_opener():
    store = build_store(cycle_corpus(4))
    topo = analyze_store(store)
    # Construction check via the oracle: the cycle exists only after the last edge.
    filt = build_flag_filtration(topo["D"].network)
    assert betti_oracle(filt, 2002)[1] == 0
    assert betti_oracle(filt, 2003)[1] == 1
    classifications = classify_all(store, 1)
    assert classifications["P03"].category is Category.GAP_OPENER
    for pid in ("P00", "P01", "P02"):
        assert classifications[pid].category is Category.NOVEL_PAIR_NON_GAP


def test_tree_edge_and_duplicate_categories():
    raws = cycle_corpus(4) + [
        raw_record("leaf", 2010, ("Dc0", "fresh")),        # tree edge: novel, no gap
        raw_record("copy", 2010, ("Dc0", "Dc1")),          # pre-existing pair
    ]
    store = build_store(raws)
    classifications = classify_all(store, 1)
    assert classifications["leaf"].category is Category.NOVEL_PAIR_NON_GAP
    assert classifications["copy"] == (Category.NO_NOVEL_PAIR, 0, 0)


def test_same_year_co_introducers_all_open_the_gap():
    raws = cycle_corpus(4)
    raws.append(raw_record("twin", 2003, ("Dc0", "Dc3")))  # same year as the closer
    store = build_store(raws)
    classifications = classify_all(store, 1)
    assert classifications["P03"].category is Category.GAP_OPENER
    assert classifications["twin"].category is Category.GAP_OPENER


def test_gap_anywhere_wins_across_disciplines():
    # The paper closes a cycle in D but only adds a tree edge in E.
    raws = cycle_corpus(4, discipline="D")
    raws[-1]["l0"] = [["D", 1.0], ["E", 1.0]]
    raws.append(raw_record("e1", 1999, ("Ec0", "Ec1"), l0=("E",)))
    store = build_store(raws)
    topologies = analyze_store(store)
    closing = ("Dc0", "Dc3")
    assert closing in topologies["D"].gap_pairs
    assert closing in topologies["E"].network.edges and not topologies["E"].gap_pairs
    # One gap edge, in D; the same pair in E is a tree edge and no second novel pair.
    assert classify_all(store, 1)["P03"] == (Category.GAP_OPENER, 1, 1)


def test_partition_property():
    rng = random.Random(12)
    raws = []
    for i in range(80):
        d = f"D{i % 3}"
        concepts = rng.sample([f"{d}x{j}" for j in range(10)], rng.randrange(2, 5))
        raws.append(raw_record(f"P{i:03d}", 2000 + rng.randrange(6), concepts, l0=(d,)))
    store = build_store(raws)
    classifications = classify_all(store, 1)
    assert len(classifications) == len(store)
    by_category = {c: 0 for c in CATEGORIES}
    for cls in classifications.values():
        by_category[cls.category] += 1
    assert sum(by_category.values()) == len(store)


def test_share_table_overall():
    raws = cycle_corpus(4) + [
        raw_record(f"dup{i}", 2010, ("Dc0", "Dc1")) for i in range(6)
    ]
    store = build_store(raws)
    rows = real_shares(classify_all(store, 1), store, "overall")
    shares = {r.category: r for r in rows}
    assert shares[Category.GAP_OPENER].count == 1
    assert shares[Category.GAP_OPENER].fraction == pytest.approx(0.10)
    assert sum(r.fraction for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_share_table_all_no_novel():
    raws = [raw_record("p1", 2000, ("a", "b"))] + [
        raw_record(f"q{i}", 2001, ("a", "b")) for i in range(4)
    ]
    store = build_store(raws)
    classifications = classify_all(store, 1)
    rows = real_shares(
        {pid: c for pid, c in classifications.items() if pid != "p1"}, store, "overall"
    )
    shares = {r.category: r.fraction for r in rows}
    assert shares[Category.NO_NOVEL_PAIR] == 1.0
    assert shares[Category.GAP_OPENER] == 0.0


def test_share_table_groupings_sum_to_one():
    rng = random.Random(8)
    raws = []
    for i in range(60):
        d = f"D{i % 2}"
        concepts = rng.sample([f"{d}x{j}" for j in range(8)], 2)
        l0 = (d,) if i % 5 else ("D0", "D1")
        raws.append(raw_record(f"P{i:03d}", 2000 + i % 4, concepts, l0=l0))
    store = build_store(raws)
    classifications = classify_all(store, 1)
    for grouping in ("overall", "discipline", "year"):
        rows = real_shares(classifications, store, grouping)
        groups = {r.group for r in rows}
        for group in groups:
            total = sum(r.fraction for r in rows if r.group == group)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_planted_cycles_three_disciplines_with_fillers():
    raws = []
    for d in range(3):
        raws.extend(cycle_corpus(5, discipline=f"D{d}", prefix=f"D{d}P"))
    for j in range(50):
        d = j % 3
        kind = j % 2
        if kind:
            raws.append(
                raw_record(f"F{j:03d}", 2006, (f"D{d}f{j}a", f"D{d}f{j}b"), l0=(f"D{d}",))
            )
        else:
            raws.append(
                raw_record(f"F{j:03d}", 2006, (f"D{d}c0", f"D{d}c1"), l0=(f"D{d}",))
            )
    store = build_store(raws)
    classifications = classify_all(store, 1)
    openers = [pid for pid, c in classifications.items() if c.category is Category.GAP_OPENER]
    assert sorted(openers) == ["D0P04", "D1P04", "D2P04"]


def test_classification_invariant_under_within_year_order():
    raws = cycle_corpus(5)
    store_fwd = build_store(raws)
    store_rev = build_store(list(reversed(raws)))
    a = classify_all(store_fwd, 1)
    b = classify_all(store_rev, 1)
    assert {p: c.category for p, c in a.items()} == {p: c.category for p, c in b.items()}


def test_null_comparison_deterministic():
    raws = cycle_corpus(5) + [
        raw_record(f"F{j}", 2006, (f"f{j}a", f"f{j}b")) for j in range(10)
    ]
    store = build_store(raws)
    rows_a = null_comparison(store, seed=9, replicates=2)
    rows_b = null_comparison(store, seed=9, replicates=2)
    assert rows_a == rows_b
    assert all(r.source == "random" for r in rows_a)


def test_null_comparison_singleton_corpus_equals_real():
    store = build_store([raw_record("only", 2000, ("a", "b", "c"))])
    real = real_shares(classify_all(store, 1), store, "overall")
    rand = [r for r in null_comparison(store, seed=1, replicates=3) if r.grouping == "overall"]
    real_fracs = {r.category: r.fraction for r in real}
    rand_fracs = {r.category: r.fraction for r in rand}
    assert real_fracs == rand_fracs
    assert all(r.stderr == 0.0 for r in rand)


def test_null_comparison_directional_on_planted_structure():
    # Many planted cycles plus fresh-pair fillers: shuffled labels give near
    # tree-like graphs, so the real gap share must exceed the random mean.
    raws = []
    for d in range(2):
        for k in range(4):
            concepts = [f"D{d}K{k}c{i}" for i in range(5)]
            for i in range(5):
                raws.append(
                    raw_record(
                        f"D{d}K{k}P{i}",
                        2000 + i,
                        (concepts[i], concepts[(i + 1) % 5]),
                        l0=(f"D{d}",),
                    )
                )
        for j in range(40):
            raws.append(
                raw_record(f"D{d}F{j:02d}", 2000 + j % 5, (f"D{d}f{j}a", f"D{d}f{j}b"), l0=(f"D{d}",))
            )
    store = build_store(raws)
    classifications = classify_all(store, 1)
    real = {
        r.category: r.fraction
        for r in real_shares(classifications, store, "overall")
    }
    rand = {
        r.category: r.fraction
        for r in null_comparison(store, seed=4, replicates=5)
        if r.grouping == "overall"
    }
    assert real[Category.GAP_OPENER] > rand[Category.GAP_OPENER]


def test_null_comparison_one_spawn_pool_for_all_replicates(monkeypatch):
    # The pool must work without fork: spawn is the default on macOS and
    # Windows, and Linux defaults to forkserver from Python 3.14. Workers get
    # their discipline's rows as arguments, not from the parent's memory.
    raws = []
    for d in ("D0", "D1", "D2"):
        raws += cycle_corpus(5, discipline=d, prefix=f"{d}P")
        raws += [
            raw_record(f"{d}F{j}", 2001 + j % 4, (f"{d}c{j % 5}", f"{d}f{j}"), l0=(d,))
            for j in range(8)
        ]
    raws.append(raw_record("both", 2003, ("D0c0", "D1c2"), l0=("D0", "D1")))
    store = build_store(raws)
    pools = []
    real_executor = concurrent.futures.ProcessPoolExecutor

    def spawn_executor(*args, **kwargs):
        pools.append(kwargs)
        return real_executor(*args, mp_context=multiprocessing.get_context("spawn"), **kwargs)

    # parallel_map imports the pool class from concurrent.futures when it
    # first needs one, so the spy replaces it there.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_executor)
    serial = null_comparison(store, seed=6, replicates=3)
    assert pools == []
    parallel = null_comparison(store, seed=6, replicates=3, threads=2)
    assert len(pools) == 1
    assert parallel == serial


def null_rows(compare, *args, **kwargs):
    """The rows of a null comparison, or the message it gives up with."""
    try:
        return compare(*args, **kwargs)
    except DataError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    store_seed=st.integers(0, 2**32),
    papers=st.integers(1, 40),
    vocabulary=st.integers(2, 12),
    disciplines=st.integers(1, 3),
    years=st.integers(1, 5),
    replicates=st.integers(1, 3),
    min_persistence=st.integers(0, 2),
)
def test_null_comparison_equals_reference(
    seed, store_seed, papers, vocabulary, disciplines, years, replicates, min_persistence
):
    # Small vocabularies make dense networks with many cycles and send the
    # dealing through its collision repair.
    store = random_store(random.Random(store_seed), papers, vocabulary, disciplines, years)
    assert null_rows(
        null_comparison, store, seed, replicates, min_persistence=min_persistence
    ) == null_rows(
        reference_null_comparison, store, seed, replicates, min_persistence=min_persistence
    )


@settings(max_examples=100, deadline=None)
@given(
    store_seed=st.integers(0, 2**32),
    papers=st.integers(1, 40),
    vocabulary=st.integers(2, 12),
    years=st.integers(1, 8),
    min_persistence=st.integers(0, 5),
)
def test_real_classification_and_shares_equal_reference(
    store_seed, papers, vocabulary, years, min_persistence
):
    # The windowed reduction against gap edges filtered from full diagrams.
    store = random_store(random.Random(store_seed), papers, vocabulary, 3, years)
    classifications = classify_all(store, min_persistence)
    assert classifications == reference_classify_all(
        store, analyze_store(store, min_persistence=min_persistence)
    )
    for grouping in ("overall", "discipline", "year"):
        assert real_shares(classifications, store, grouping) == reference_share_table(
            classifications, store, grouping
        )
