"""Temporal network construction, novel-pair attribution, and the label null model."""

from __future__ import annotations

import random
import pytest

from gapminer.concept_net import (
    discipline_rows,
    load_network,
    randomize_labels,
    save_network,
)
from gapminer.errors import InfeasibleResamplingError, UnknownDisciplineError

from helpers import (
    build_store,
    check_label_conservation,
    network_from_edge_times,
    network_of,
    novel_pairs,
    raw_record,
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
    assert net.edges[("a", "b")].introducers == frozenset({"P1"})
    assert net.tau_max == 2000


def test_same_year_tie_records_all_introducers():
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P2", 2000, ("a", "b")),
        ]
    )
    net = network_of(store, "D")
    assert net.edges[("a", "b")].introducers == frozenset({"P1", "P2"})


def test_pairwise_expansion():
    store = build_store([raw_record("P1", 2000, ("a", "b", "c"))])
    net = network_of(store, "D")
    assert set(net.edges) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert all(e.time == 2000 and e.introducers == frozenset({"P1"}) for e in net.edges.values())


def test_unknown_discipline_raises():
    store = build_store([raw_record("P1", 2000, ("a", "b"))])
    with pytest.raises(UnknownDisciplineError):
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
    with pytest.raises(UnknownDisciplineError):
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


def test_network_from_edge_times_keeps_earliest():
    net = network_from_edge_times("T", [("a", "b", 2003), ("b", "a", 2001)])
    assert net.edges[("a", "b")].time == 2001


def test_randomize_singleton_store_identical():
    store = build_store([raw_record("P1", 2000, ("a", "b", "c"))])
    assert randomize_labels(store, 5) == {"P1": ("a", "b", "c")}


def test_randomize_preserves_counts_and_multiset():
    store = build_store(
        [
            raw_record("P1", 2000, ("a", "b")),
            raw_record("P2", 2001, ("c", "d")),
        ]
    )
    check_label_conservation(store, randomize_labels(store, 123))


def test_randomize_same_seed_identical():
    rng = random.Random(3)
    raws = []
    for i in range(40):
        concepts = rng.sample("abcdefghijkl", rng.randrange(2, 5))
        raws.append(raw_record(f"P{i:03d}", 2000 + i % 5, concepts, l0=(f"D{i % 2}",)))
    store = build_store(raws)
    assert randomize_labels(store, 42) == randomize_labels(store, 42)


def test_randomize_respects_discipline_boundaries():
    rng = random.Random(9)
    raws = []
    for i in range(60):
        d = f"D{i % 3}"
        concepts = rng.sample([f"{d}c{j}" for j in range(9)], rng.randrange(2, 5))
        raws.append(raw_record(f"P{i:03d}", 2000 + i % 4, concepts, l0=(d,)))
    store = build_store(raws)
    check_label_conservation(store, randomize_labels(store, 7))


def test_randomize_multi_discipline_papers_consistent():
    raws = [
        raw_record("P1", 2000, ("a", "b"), l0=("D", "E")),
        raw_record("P2", 2000, ("c", "d"), l0=("D", "E")),
        raw_record("P3", 2000, ("e", "f"), l0=("D",)),
    ]
    store = build_store(raws)
    check_label_conservation(store, randomize_labels(store, 17))


def test_randomized_rows_keep_everything_but_labels():
    raws = [
        raw_record("P1", 2000, ("a", "b"), l0=("D", "E")),
        raw_record("P2", 2001, ("c", "d", "g"), l0=("D",)),
        raw_record("P3", 2000, ("e", "f"), l0=("E",)),
    ]
    store = build_store(raws)
    labels = randomize_labels(store, 4)
    real, shuffled = discipline_rows(store), discipline_rows(store, labels)
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
        [PaperRecord("P1", 2000, (("D", 1.0),), (("a", 1.0), ("a", 0.5)), ())]
    )
    with pytest.raises(InfeasibleResamplingError):
        randomize_labels(degenerate, 3)
