"""Temporal network construction, novel-pair attribution, and the label null model."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapminer.concept_net import (
    build_network,
    discipline_rows,
    label_pools,
    load_network,
    memberships,
    randomize_labels,
    save_network,
)
from gapminer.errors import DataError
from gapminer.topology import network_diagram
from gapminer.util import REMEDY

from helpers import (
    build_store,
    check_label_conservation,
    network_from_edge_times,
    network_of,
    novel_pairs,
    random_store,
    raw_record,
    reference_build_network,
    reference_discipline_rows,
    reference_randomize_labels,
    store_rows,
)


def test_first_occurrence_wins():
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P2", 2001, ("a", "b")),
        ]
    )
    net = network_of(store, "D")
    assert net.edges[("a", "b")].time == 2000
    assert net.edges[("a", "b")].introducers == ("P1",)


def test_same_year_tie_records_all_introducers():
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P2", 2000, ("a", "b")),
        ]
    )
    net = network_of(store, "D")
    assert net.edges[("a", "b")].introducers == ("P1", "P2")


def test_pairwise_expansion():
    store = build_store([raw_record("P1", 2000, ("a", "b", "c"))])
    net = network_of(store, "D")
    assert set(net.edges) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert all(e.time == 2000 and e.introducers == ("P1",) for e in net.edges.values())


def test_unknown_discipline_raises():
    store = build_store([raw_record("P1", 2000, ("a", "b"))])
    with pytest.raises(DataError, match="unknown discipline id 'NOPE'"):
        network_of(store, "NOPE")


def test_novel_pairs_cases():
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P2", 2001, ("a", "b")),
            raw_record("P3", 2002, ("a", "b", "c")),
        ]
    )
    net = network_of(store, "D")
    assert novel_pairs(store.papers["P2"], net) == set()
    assert novel_pairs(store.papers["P3"], net) == {("a", "c"), ("b", "c")}
    solo = build_store([raw_record("P1", 2000, ("a", "b", "c"))])
    assert len(novel_pairs(solo.papers["P1"], network_of(solo, "D"))) == 3


def test_novel_pairs_rejects_foreign_paper():
    store = build_store([raw_record("P1", 2000, ("a", "b"))])
    other = build_store([raw_record("Q1", 2000, ("a", "b"), l0=("E",))])
    net = network_of(store, "D")
    with pytest.raises(DataError, match="paper Q1 is not assigned to discipline 'D'"):
        novel_pairs(other.papers["Q1"], net)


def test_temporal_monotonicity_replay():
    rng = random.Random(11)
    for _ in range(20):
        raws = []
        for i in range(rng.randrange(2, 25)):
            year = 2000 + rng.randrange(6)
            concepts = rng.sample("abcdefgh", rng.randrange(2, 5))
            raws.append(raw_record(f"P{i:03d}", year, concepts))
        store = build_store(raws)
        net = network_of(store, "D")
        for year in store.years():
            partial = build_store([r for r in raws if r["year"] <= year])
            replayed = network_of(partial, "D")
            expected = {p for p, e in net.edges.items() if e.time <= year}
            assert set(replayed.edges) == expected


def test_insensitive_to_within_year_input_order():
    raws = [
        raw_record("P1", 2000, ("a", "b")),
        raw_record("P2", 2000, ("b", "c")),
        raw_record("P3", 2000, ("a", "c")),
        raw_record("P4", 2001, ("a", "d")),
    ]
    net1 = network_of(build_store(raws), "D")
    net2 = network_of(build_store(list(reversed(raws))), "D")
    assert net1 == net2  # times, introducers, and tie ranks all id-derived


def test_tie_rank_total_order():
    store = build_store(
        [
            raw_record("P2", 2000, ("c", "d")),
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P3", 1999, ("e", "f")),
        ]
    )
    net = network_of(store, "D")
    ranked = sorted(net.edges.values(), key=lambda e: e.tie_rank)
    assert [e.tie_rank for e in ranked] == [0, 1, 2]
    assert ranked[0].time == 1999
    assert min(ranked[1].introducers) == "P1"


def test_network_dump_round_trip(tmp_path):
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b", "c")),
            raw_record("P2", 2001, ("a", "d")),
        ]
    )
    net = network_of(store, "D")
    path = tmp_path / "net.csv"
    save_network(net, path)
    assert load_network(path, "D") == net


def test_plain_introducers_are_written_semicolon_joined(tmp_path):
    store = build_store([raw_record("P2", 2000, ("a", "b")), raw_record("P1", 2000, ("a", "b"))])
    path = tmp_path / "net.csv"
    save_network(network_of(store, "D"), path)
    assert path.read_bytes() == b"u,v,time,introducers\na,b,2000,P1;P2\n"


@pytest.mark.parametrize("ids", [
    ("P;x", "P"),
    ("a\\", "a\\;", ";", "\\;"),
    ("x\\;y", "x\\", "y"),
    ("back\\slash", "semi;colon", ' "q",\nz '),
])
def test_introducers_holding_separators_round_trip(tmp_path, ids):
    store = build_store([raw_record(pid, 2000, ("a", "b")) for pid in ids])
    net = network_of(store, "D")
    path = tmp_path / "net.csv"
    save_network(net, path)
    assert load_network(path, "D") == net
    assert net.edges[("a", "b")].introducers == tuple(sorted(ids))


@pytest.mark.parametrize("field", ["", "P1;", ";P1", "P1;;P2", "P1\\", "P\\x", "P2;P1", "P1;P1"])
def test_introducers_not_as_written_are_data_error(tmp_path, field):
    path = tmp_path / "net.csv"
    path.write_text(f"u,v,time,introducers\na,b,2000,{field}\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"net\.csv, line 2: .*; {REMEDY}$"):
        load_network(path, "D")


def test_network_from_edge_times_keeps_earliest():
    net = network_from_edge_times("T", [("a", "b", 2003), ("b", "a", 2001)])
    assert net.edges[("a", "b")].time == 2001


def test_randomize_singleton_store_identical():
    store = build_store([raw_record("P1", 2000, ("a", "b", "c"))])
    assert randomize_labels(label_pools(store), 5) == {"P1": ("a", "b", "c")}


def test_randomize_preserves_counts_and_multiset():
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P2", 2001, ("c", "d")),
        ]
    )
    check_label_conservation(store, randomize_labels(label_pools(store), 123))


def test_randomize_same_seed_identical():
    rng = random.Random(3)
    raws = []
    for i in range(40):
        concepts = rng.sample("abcdefghijkl", rng.randrange(2, 5))
        raws.append(raw_record(f"P{i:03d}", 2000 + i % 5, concepts, l0=(f"D{i % 2}",)))
    store = build_store(raws)
    assert randomize_labels(label_pools(store), 42) == randomize_labels(label_pools(store), 42)


def test_randomize_respects_discipline_boundaries():
    rng = random.Random(9)
    raws = []
    for i in range(60):
        d = f"D{i % 3}"
        concepts = rng.sample([f"{d}c{j}" for j in range(9)], rng.randrange(2, 5))
        raws.append(raw_record(f"P{i:03d}", 2000 + i % 4, concepts, l0=(d,)))
    store = build_store(raws)
    check_label_conservation(store, randomize_labels(label_pools(store), 7))


def test_randomize_multi_discipline_papers_consistent():
    raws = [
        raw_record("P1", 2000, ("a", "b"), l0=("D", "E")),
        raw_record("P2", 2000, ("c", "d"), l0=("D", "E")),
        raw_record("P3", 2000, ("e", "f"), l0=("D",)),
    ]
    store = build_store(raws)
    check_label_conservation(store, randomize_labels(label_pools(store), 17))


def test_randomized_rows_keep_everything_but_labels():
    raws = [
        raw_record("P1", 2000, ("a", "b"), l0=("D", "E")),
        raw_record("P2", 2001, ("c", "d", "g"), l0=("D",)),
        raw_record("P3", 2000, ("e", "f"), l0=("E",)),
    ]
    store = build_store(raws)
    labels = randomize_labels(label_pools(store), 4)
    real, shuffled = store_rows(store), store_rows(store, labels)
    assert list(real) == list(shuffled) == ["D", "E"]
    assert real["D"] == [(2000, "P1", ("a", "b")), (2001, "P2", ("c", "d", "g"))]
    for d in real:
        assert [row[:2] for row in shuffled[d]] == [row[:2] for row in real[d]]
        assert [ids for _, pid, ids in shuffled[d]] == [labels[pid] for _, pid, _ in real[d]]


def test_randomize_infeasible_raises():
    # Validation always dedupes labels, so infeasibility can only arise from
    # hand-built records; the guard still has to fire with a diagnostic.
    from gapminer.corpus import CorpusStore, PaperRecord

    degenerate = CorpusStore.from_records(
        [PaperRecord("P1", 2000, ("D",), (1.0,), ("a", "a"), (1.0, 0.5), ())]
    )
    with pytest.raises(DataError, match="a paper needs 2 distinct labels but the group has 1"):
        randomize_labels(label_pools(degenerate), 3)


def dealt(deal, *args):
    """The labels a dealing returns, or the message it gives up with."""
    try:
        return deal(*args)
    except DataError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    store_seed=st.integers(0, 2**32),
    papers=st.integers(1, 40),
    vocabulary=st.integers(2, 12),
    disciplines=st.integers(1, 3),
)
def test_randomize_labels_equals_reference_dealing(seed, store_seed, papers, vocabulary, disciplines):
    # Small vocabularies deal hands with repeated labels, which sends the
    # dealing through the collision repair and its randrange draws.
    store = random_store(random.Random(store_seed), papers, vocabulary, disciplines, 4)
    assert dealt(randomize_labels, label_pools(store), seed) == dealt(
        reference_randomize_labels, store, seed
    )


def test_randomize_labels_equals_reference_on_a_benchmark_sized_corpus(tmp_path):
    from gapminer.corpus import load_corpus
    from gapminer.synth import make_synthetic

    store = load_corpus(make_synthetic("random-pairs", tmp_path / "c.jsonl", 3, papers=500, concepts=500))
    pools = label_pools(store)
    for seed in range(5):
        assert randomize_labels(pools, seed) == reference_randomize_labels(store, seed)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    papers=st.integers(1, 60),
    vocabulary=st.integers(2, 15),
    years=st.integers(1, 4),
)
def test_build_network_equals_sorted_construction(seed, papers, vocabulary, years):
    # Tie ranks and the order of the edge dict, for the store's own labels
    # and for dealt ones: every year holds several papers, so most ranks are
    # decided by the min introducer and the pair.
    store = random_store(random.Random(seed), papers, vocabulary, 2, years)
    for labels in (None, randomize_labels(label_pools(store), seed)):
        for discipline, rows in store_rows(store, labels).items():
            net = build_network(discipline, rows)
            ref = reference_build_network(discipline, rows)
            assert list(net.edges.items()) == list(ref.edges.items())
            assert [b.tie_rank for b in net.edges.values()] == list(range(len(net.edges)))
            assert net.discipline == ref.discipline


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    papers=st.integers(1, 60),
    vocabulary=st.integers(2, 15),
    disciplines=st.integers(1, 3),
    years=st.integers(1, 4),
)
def test_built_network_equals_the_loaded_network_file(seed, papers, vocabulary, disciplines, years):
    # The persist and classify stages build each network from the store's
    # rows where they once loaded the network stage's file: the edges, in
    # their order (which the filtration follows), and the diagrams agree.
    store = random_store(random.Random(seed), papers, vocabulary, disciplines, years)
    with tempfile.TemporaryDirectory() as tmp:
        for discipline, rows in store_rows(store).items():
            built = build_network(discipline, rows)
            path = Path(tmp) / f"{discipline}.csv"
            save_network(built, path)
            loaded = load_network(path, discipline)
            assert list(built.edges.items()) == list(loaded.edges.items())
            assert network_diagram(built) == network_diagram(loaded)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    papers=st.integers(1, 60),
    disciplines=st.integers(1, 4),
    years=st.integers(1, 4),
)
def test_discipline_rows_equal_store_loop(seed, papers, disciplines, years):
    # One builder serves the network stage (the store's own labels) and each
    # null replicate (dealt labels): rows, their order and the dict order.
    store = random_store(random.Random(seed), papers, 8, disciplines, years)
    own = {pid: rec.level3_ids for pid, rec in store.papers.items()}
    dealt_labels = randomize_labels(label_pools(store), seed)
    for labels, reference_labels in ((own, None), (dealt_labels, dealt_labels)):
        rows = discipline_rows(memberships(store), labels)
        assert list(rows.items()) == list(reference_discipline_rows(store, reference_labels).items())
