"""Ingestion, validation, serialization round trip, and citation indexing."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapminer.corpus import (
    REASON_LEVEL0,
    REASON_LEVEL3,
    REASON_YEAR,
    CorpusStore,
    PaperRecord,
    Rejection,
    build_citation_index,
    load_corpus,
    save_corpus,
    validate_record,
)
from gapminer.errors import DataError
from gapminer.metrics import ConceptOccurrences

from helpers import build_store, random_store, raw_record, reference_concept_registry, write_corpus


def test_load_three_valid_records(tmp_path):
    raws = [
        raw_record("p2", 2001, ("a", "b")),
        raw_record("p1", 2000, ("a", "c")),
        raw_record("p3", 2000, ("b", "c")),
    ]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert len(store) == 3
    assert store.by_year == {2000: ["p1", "p3"], 2001: ["p2"]}
    assert store.ingest_report.malformed == 0
    assert store.ingest_report.rejections == []


def test_load_counts_single_level3_rejection(tmp_path):
    raws = [
        raw_record("ok", 2000, ("a", "b")),
        raw_record("thin", 2000, ("a",)),
    ]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert len(store) == 1
    assert store.ingest_report.rejections == [Rejection("thin", REASON_LEVEL3)]


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    store = load_corpus(path)
    assert len(store) == 0
    assert store.ingest_report.rejections == []


def test_validate_rejects_zero_confidence_level0():
    raw = raw_record("p", 2000, ("a", "b"))
    raw["l0"] = [["D", 0.0]]
    assert validate_record(raw) == Rejection("p", REASON_LEVEL0)


def test_validate_rejects_out_of_range_year():
    assert validate_record(raw_record("p", 1899, ("a", "b"))) == Rejection("p", REASON_YEAR)
    assert validate_record(raw_record("p", 2021, ("a", "b"))) == Rejection("p", REASON_YEAR)
    custom = validate_record(raw_record("p", 1899, ("a", "b")), year_min=1850)
    assert isinstance(custom, PaperRecord)


def test_validate_accepts_full_record_unchanged():
    raw = raw_record(
        "p",
        2000,
        ("b", "a"),
        refs=("r2", "r1", "r1", "p"),
        title="A title",
        venue="V1",
        authors=["x", "y"],
        affil=[["x", 1.5, -2.25]],
    )
    rec = validate_record(raw)
    assert isinstance(rec, PaperRecord)
    assert rec.level3_ids == ("a", "b")
    assert rec.references == ("r1", "r2")  # deduplicated, self-reference dropped
    assert rec.title == "A title"
    assert rec.venue_id == "V1"
    assert rec.authors == ("x", "y")
    assert rec.affiliations == (("x", 1.5, -2.25),)


def test_validation_monotone_optional_fields_never_reject():
    base = raw_record("p", 2000, ("a", "b"))
    assert isinstance(validate_record(base), PaperRecord)
    for extra in (
        {"title": "t"},
        {"venue": "v"},
        {"authors": ["a1"]},
        {"affil": [["a1", 0.0, 0.0]]},
    ):
        raw = raw_record("p", 2000, ("a", "b"), **extra)
        assert isinstance(validate_record(raw), PaperRecord)


def test_dropped_zero_confidence_level3_entries():
    raw = raw_record("p", 2000, ())
    raw["l3"] = [["a", 1.0], ["b", 0.0], ["c", 0.5]]
    rec = validate_record(raw)
    assert isinstance(rec, PaperRecord)
    assert rec.level3_ids == ("a", "c")


def test_malformed_lines_counted_and_skipped(tmp_path):
    raws = [
        raw_record("p1", 2000, ("a", "b")),
        "{not json",
        json.dumps({"id": "p2", "year": "nope", "l0": [], "l3": [], "refs": []}),
        raw_record("p3", 2000, ("a", "c")),
    ]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert len(store) == 2
    assert store.ingest_report.malformed == 2


def test_majority_malformed_aborts(tmp_path):
    raws = [raw_record("p1", 2000, ("a", "b")), "oops", "also bad", "bad too"]
    with pytest.raises(DataError, match=r"3 of 4 lines malformed \(>50%\)"):
        load_corpus(write_corpus(tmp_path / "c.jsonl", raws))


def test_schema_version_mismatch(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"schema_version": 99}\n')
    with pytest.raises(DataError):
        load_corpus(path)


def test_unreadable_path():
    with pytest.raises(DataError):
        load_corpus("/nonexistent/corpus.jsonl")


def test_duplicate_paper_id_keeps_first(tmp_path):
    raws = [
        raw_record("p1", 2000, ("a", "b")),
        raw_record("p1", 2001, ("a", "c")),
    ]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert len(store) == 1
    assert store.papers["p1"].year == 2000
    assert store.ingest_report.duplicate_ids == 1


def test_round_trip_is_bit_exact(tmp_path):
    raws = [
        raw_record(
            "p1",
            2000,
            ("b", "a"),
            refs=("x", "y"),
            title="t",
            venue="v",
            authors=["a2", "a1"],
            affil=[["a1", 10.123456, -20.654321]],
        ),
        raw_record("p2", 2001, ("c", "d")),
    ]
    raws[0]["l3"] = [["a", 0.123456789012345], ["b", 1.0]]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    out = tmp_path / "canonical.jsonl"
    save_corpus(store, out)
    reloaded = load_corpus(out)
    assert reloaded == store
    save_corpus(reloaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == out.read_bytes()


def test_load_holds_each_id_once(tmp_path):
    # Multi-character ids: CPython shares one-character strings anyway.
    raws = [
        raw_record(
            "paper-1", 2000, ("alpha", "beta"), l0=("Disc",), venue="venue-1",
            authors=["author-x", "author-y"], affil=[["author-x", 1.0, 2.0]],
        ),
        raw_record(
            "paper-2", 2001, ("beta", "gamma"), l0=("Disc",), refs=("paper-1", "outside"),
            venue="venue-1", authors=["author-y"],
        ),
        raw_record(
            "paper-3", 2001, ("alpha", "gamma"), l0=("Disc", "Other"),
            refs=("paper-1", "paper-2", "outside"), affil=[["author-x", 3.0, 4.0]],
        ),
    ]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    p1, p2, p3 = (store.papers[pid] for pid in ("paper-1", "paper-2", "paper-3"))
    for rec in (p2, p3):
        for ref in rec.references:
            if ref in store.papers:
                assert ref is store.papers[ref].paper_id
    assert p2.references[0] == "outside"  # references are sorted
    assert p2.references[0] is p3.references[0]
    assert p1.level3_ids[0] is p3.level3_ids[0]  # "alpha"
    assert p1.level3_ids[1] is p2.level3_ids[0]  # "beta"
    assert p2.level3_ids[1] is p3.level3_ids[1]  # "gamma"
    assert p1.level0_ids[0] is p2.level0_ids[0] is p3.level0_ids[0]
    assert p1.venue_id is p2.venue_id
    assert p1.authors[1] is p2.authors[0]
    assert p1.authors[0] is p1.affiliations[0][0] is p3.affiliations[0][0]
    for pid, rec in store.papers.items():
        assert pid is rec.paper_id
    confidences = [
        c for rec in (p1, p2, p3) for c in (*rec.level0_confidences, *rec.level3_confidences)
    ]
    assert len(confidences) == 10
    assert all(c is confidences[0] for c in confidences)  # every 1.0 is one float object


def test_load_is_deterministic(tmp_path):
    raws = [raw_record(f"p{i}", 2000 + i % 3, ("a", "b", "c")) for i in range(20)]
    path = write_corpus(tmp_path / "c.jsonl", raws)
    first = load_corpus(path)
    second = load_corpus(path)
    assert first == second
    assert list(first.by_year) == list(second.by_year)


def test_citation_index_forward_backward():
    store = build_store(
        [
            raw_record("A", 2001, ("a", "b"), refs=("B", "X")),
            raw_record("B", 2000, ("a", "c")),
        ]
    )
    index = build_citation_index(store)
    assert index.citers("B") == frozenset({"A"})
    assert store.papers["A"].references == ("B", "X")
    assert "X" not in index.forward
    assert index.external_references == 1


def test_citation_index_empty_store():
    index = build_citation_index(CorpusStore.from_records([]))
    assert index.forward == {}


def test_citation_index_mutual_consistency_and_anomalies():
    store = build_store(
        [
            raw_record("old", 2005, ("a", "b"), refs=("new",)),
            raw_record("new", 2010, ("a", "c"), refs=("old",)),
        ]
    )
    index = build_citation_index(store)
    for cited, citers in index.forward.items():
        for citer in citers:
            assert cited in store.papers[citer].references
    for citer, rec in store.papers.items():
        for ref in rec.references:
            if ref in store.papers:
                assert citer in index.forward[ref]
    assert index.year_anomalies == 1  # "old" (2005) cites "new" (2010)


def test_registry_levels_and_first_year():
    store = build_store(
        [
            raw_record("p1", 2000, ("a", "b"), l0=("D",)),
            raw_record("p2", 1995, ("a", "c"), l0=("D",)),
        ]
    )
    first_year = ConceptOccurrences(store).first_year
    assert (first_year("a"), first_year("b"), first_year("c")) == (1995, 2000, 1995)
    assert store.disciplines() == ["D"]  # "a" is a level-3 concept only


def test_first_year_counts_level3_uses_only():
    """A concept's first year is that of its first level-3 use, even when a
    paper assigned it at level 0 earlier; it is still a discipline."""
    store = build_store(
        [
            raw_record("p1", 1990, ("a", "b"), l0=("X",)),
            raw_record("p2", 1995, ("X", "c"), l0=("D",)),
        ]
    )
    assert ConceptOccurrences(store).first_year("X") == 1995
    assert store.disciplines() == ["D", "X"]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    papers=st.integers(0, 40),
    vocabulary=st.integers(2, 8),
    disciplines=st.integers(1, 4),
    years=st.integers(1, 6),
)
def test_store_order_disciplines_and_first_years_equal_the_references(
    seed, papers, vocabulary, disciplines, years
):
    # random_store draws level-0 ids D* and level-3 ids c*, never one id at
    # both levels, where the registry's first year is the level-3 one.
    store = random_store(random.Random(seed), papers, vocabulary, disciplines, years)
    order = sorted(store.papers, key=lambda pid: (store.papers[pid].year, pid))
    assert list(store.papers) == order
    assert [pid for pids in store.by_year.values() for pid in pids] == order
    assert list(store.by_year) == sorted(store.by_year)
    registry = reference_concept_registry(store)
    assert store.disciplines() == [c for c, info in registry.items() if info.level == 0]
    first_year = ConceptOccurrences(store).first_year
    for concept, info in registry.items():
        if info.level == 3:
            assert first_year(concept) == info.first_year_seen


_FIELDS = ["id", "l0", "l3", "refs", "title", "venue", "authors", "affil"]


@pytest.mark.parametrize(
    "field, bad_char",
    [(field, "\ud800") for field in _FIELDS] + [(field, "\x00") for field in _FIELDS],
    ids=_FIELDS + [f"{field}-nul" for field in _FIELDS],
)
def test_lone_surrogate_makes_the_line_malformed(tmp_path, field, bad_char):
    """So does a NUL, which the csv reader refuses before Python 3.11."""
    bad = raw_record("p2", 2000, ("a", "b"), refs=("p1",), title="t", venue="v",
                     authors=["x"], affil=[["x", 1.0, 2.0]])
    if field in ("id", "title", "venue"):
        bad[field] = bad_char
    elif field in ("refs", "authors"):
        bad[field].append(bad_char)
    else:
        bad[field][0][0] = bad_char
    raws = [raw_record("p1", 2000, ("a", "b")), json.dumps(bad)]
    assert json.dumps(bad_char)[1:-1] in raws[1]  # JSON spells it as an escape
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert list(store.papers) == ["p1"]
    assert store.ingest_report.malformed == 1


_NOT_FINITE = {
    "inf": "Infinity", "-inf": "-Infinity", "1e999": "1e999", "nan": "NaN",
    "int-past-float": "1" + "0" * 400, "int-past-digit-limit": "1" * 5000,
}
_OUT_OF_RANGE = [("lat", "90.5"), ("lat", "-90.5"), ("lat", "-1000"), ("lat", "-260.0"),
                 ("lon", "180.5"), ("lon", "-1000")]


@pytest.mark.parametrize(
    "where, number",
    [(where, number) for where in ("lat", "lon") for number in _NOT_FINITE.values()]
    + _OUT_OF_RANGE,
    ids=[f"{where}-{name}" for where in ("lat", "lon") for name in _NOT_FINITE]
    + [f"{where}-{number}" for where, number in _OUT_OF_RANGE],
)
def test_a_coordinate_that_is_not_a_finite_float_makes_the_line_malformed(
    tmp_path, number, where
):
    """json reads Infinity, -Infinity and NaN, and 1e999 as infinity; float()
    cannot hold a 400-digit integer, and int() takes at most 4300 digits. A
    latitude outside [-90, 90] or a longitude outside [-180, 180] is no
    place on Earth."""
    coords = f"{number}, 0" if where == "lat" else f"0, {number}"
    good = json.dumps(raw_record("p2", 2000, ("a", "b"), authors=["u", "v"]))
    bad = good[:-1] + f', "affil": [["u", {coords}], ["v", 10, 10]]}}'
    raws = [raw_record("p1", 2000, ("a", "b")), bad]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert list(store.papers) == ["p1"]
    assert store.ingest_report.malformed == 1


def test_a_coordinate_on_the_edge_of_its_range_is_accepted(tmp_path):
    good = json.dumps(raw_record("p1", 2000, ("a", "b"), authors=["u", "v"]))
    line = good[:-1] + ', "affil": [["u", 90, -180], ["v", -90.0, 180.0]]}'
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", [line]))
    assert store.papers["p1"].affiliations == (("u", 90.0, -180.0), ("v", -90.0, 180.0))
    assert store.ingest_report.malformed == 0


def test_a_confidence_past_float_range_makes_the_line_malformed(tmp_path):
    bad = json.dumps(raw_record("p2", 2000, ("a", "b"))).replace("1.0", "1" + "0" * 400, 1)
    raws = [raw_record("p1", 2000, ("a", "b")), bad]
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", raws))
    assert list(store.papers) == ["p1"]
    assert store.ingest_report.malformed == 1


def test_surrogate_pair_is_one_character_and_accepted(tmp_path):
    raws = [raw_record("p\U0001F600", 2000, ("a", "b"), title="t")]
    line = json.dumps(raws[0])
    assert "\\ud83d\\ude00" in line
    store = load_corpus(write_corpus(tmp_path / "c.jsonl", [line]))
    assert list(store.papers) == ["p\U0001F600"]
    assert store.ingest_report.malformed == 0


def test_bytes_that_are_not_utf8_make_the_line_malformed(tmp_path):
    path = write_corpus(
        tmp_path / "c.jsonl", [raw_record("p1", 2000, ("a", "b")), raw_record("p2", 2000, ("a", "b"))]
    )
    path.write_bytes(path.read_bytes().replace(b'"p2"', b'"p\xff2"'))
    store = load_corpus(path)
    assert list(store.papers) == ["p1"]
    assert store.ingest_report.malformed == 1
