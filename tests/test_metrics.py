"""Formula fidelity and properties for the scientometric measures."""

from __future__ import annotations

import math
import random
import tempfile
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapminer.corpus import build_citation_index
from gapminer.metrics import (
    CITATION_WINDOWS,
    METRICS_HEADER,
    PAPER_STATS_HEADER,
    TOP_K_LEVELS,
    AuthorIndex,
    ConceptOccurrences,
    Z_STD_FLOOR,
    YearCocitationBaseline,
    _percentile,
    _windows,
    cd_index,
    citation_ages,
    compute_metrics_rows,
    compute_novelty_profiles,
    concept_pair_stats,
    disruption_counts,
    haversine_km,
    load_paper_stats,
    paper_stats_rows,
    percentile_rank,
    sleeping_beauty,
    team_stats,
    top_k_flag,
    verb_ratio,
)
from gapminer.util import write_csv

from helpers import (
    ReferenceCocitationBaseline,
    build_store,
    random_metrics_store,
    raw_record,
    reference_metrics_rows,
    reference_rewire,
    reference_top_k_flag,
    reference_z_scores,
    switch_named_citations,
)


# -- disruption ----------------------------------------------------------------

def disruption_fixture(n_focal_only, n_both, n_refs_only):
    """Corpus whose focal paper F has exactly the requested citer partition."""
    raws = [raw_record("R", 1990, ("a", "b")), raw_record("F", 2000, ("a", "b"), refs=("R",))]
    for i in range(n_focal_only):
        raws.append(raw_record(f"i{i}", 2005, ("a", "b"), refs=("F",)))
    for i in range(n_both):
        raws.append(raw_record(f"j{i}", 2005, ("a", "b"), refs=("F", "R")))
    for i in range(n_refs_only):
        raws.append(raw_record(f"k{i}", 2005, ("a", "b"), refs=("R",)))
    store = build_store(raws)
    return store.papers["F"], build_citation_index(store)


@pytest.mark.parametrize(
    "partition,expected",
    [((3, 1, 1), 0.4), ((5, 0, 0), 1.0), ((0, 4, 0), -1.0)],
)
def test_cd_index_exact_values(partition, expected):
    focal, index = disruption_fixture(*partition)
    counts = disruption_counts(focal, index)
    assert (counts.cites_focal_only, counts.cites_both, counts.cites_refs_only) == partition
    assert cd_index(focal, index) == pytest.approx(expected, abs=0)


def test_cd_index_undefined_cases():
    store = build_store([raw_record("F", 2000, ("a", "b"))])
    index = build_citation_index(store)
    assert cd_index(store.papers["F"], index) is None  # no references
    lonely = build_store(
        [raw_record("R", 1990, ("a", "b")), raw_record("F", 2000, ("a", "b"), refs=("R",))]
    )
    # R has one citer: F itself, which is excluded; denominator is zero.
    assert cd_index(lonely.papers["F"], build_citation_index(lonely)) is None


def test_cd_index_bounds_and_extremes():
    rng = random.Random(5)
    for _ in range(30):
        focal, index = disruption_fixture(
            rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5)
        )
        value = cd_index(focal, index)
        if value is None:
            continue
        assert -1.0 <= value <= 1.0
        counts = disruption_counts(focal, index)
        if value == 1.0:
            assert counts.cites_both == counts.cites_refs_only == 0
            assert counts.cites_focal_only > 0
        if value == -1.0:
            assert counts.cites_focal_only == counts.cites_refs_only == 0
            assert counts.cites_both > 0


def test_cd_window_restricts_citers():
    focal, index = disruption_fixture(3, 0, 0)  # citers published in 2005
    assert cd_index(focal, index, window=10) == 1.0
    assert cd_index(focal, index, window=2) is None  # nobody within 2 years


# -- percentile rank -------------------------------------------------------------

def test_percentile_rank_examples():
    year = {"a": 2000, "b": 2000, "c": 2000}
    assert percentile_rank({"a": 1.0, "b": 2.0, "c": 3.0}, year)["b"] == 50.0
    equal = percentile_rank({"a": 7.0, "b": 7.0, "c": 7.0}, year)
    assert set(equal.values()) == {50.0}
    assert percentile_rank({"a": 5.0}, {"a": 2000}) == {"a": 50.0}


def test_percentile_rank_monotone_and_missing():
    rng = random.Random(2)
    values = {f"p{i}": rng.random() for i in range(50)}
    year = {pid: 2000 for pid in values}
    ranks = percentile_rank(values, year)
    ordered = sorted(values, key=values.get)
    for a, b in zip(ordered, ordered[1:]):
        assert ranks[a] <= ranks[b]
    assert "missing" not in ranks


# -- sleeping beauty --------------------------------------------------------------

def test_sleeping_beauty_peak_at_zero():
    assert sleeping_beauty((5, 1, 0)) == 0.0


def test_sleeping_beauty_linear_trajectory():
    assert sleeping_beauty((0, 5, 10)) == 0.0


def test_sleeping_beauty_literal_example():
    value = sleeping_beauty((0, 0, 0, 9))
    assert value == pytest.approx(9.0, abs=1e-12)


def test_sleeping_beauty_formula_oracle():
    rng = random.Random(17)
    for _ in range(100):
        counts = tuple(rng.randrange(0, 30) for _ in range(rng.randrange(1, 22)))
        peak = counts.index(max(counts))
        if peak == 0:
            expected = 0.0
        else:
            slope = (counts[peak] - counts[0]) / peak
            expected = sum(
                (slope * t + counts[0] - counts[t]) / max(1, counts[t])
                for t in range(peak + 1)
            )
        assert sleeping_beauty(counts) == pytest.approx(expected, abs=1e-12)


def test_sleeping_beauty_concave_below_line_positive():
    assert sleeping_beauty((0, 0, 8)) > 0.0


def test_trajectory_peak_ties_break_earliest():
    # The line to the peak at age 1 fits exactly; measured to the tied later
    # peak instead, the two trajectories would give -0.5 and 1.0.
    assert sleeping_beauty((0, 4, 4)) == 0.0
    assert sleeping_beauty((0, 4, 1, 4)) == 0.0


def test_citation_trajectory_censors_at_horizon():
    store = build_store(
        [
            raw_record("F", 2000, ("a", "b")),
            raw_record("c1", 2001, ("a", "b"), refs=("F",)),
            raw_record("c2", 2003, ("a", "b"), refs=("F",)),
        ]
    )
    index = build_citation_index(store)
    assert citation_ages(store.papers["F"], index, horizon_year=2003, max_age=20) == [0, 1, 0, 1]


# -- citation windows --------------------------------------------------------------

def citation_windows(paper, index, *, horizon_year):
    """Each window's count from the paper's age histogram, keyed by window
    length, as paper_stats_rows takes them."""
    ages = citation_ages(paper, index, horizon_year=horizon_year, max_age=CITATION_WINDOWS[-1])
    return dict(zip(CITATION_WINDOWS, _windows(ages, horizon_year - paper.year)))


def test_citation_windows_examples():
    store = build_store(
        [
            raw_record("F", 2000, ("a", "b")),
            raw_record("c1", 2001, ("a", "b"), refs=("F",)),
            raw_record("c2", 2004, ("a", "b"), refs=("F",)),
            raw_record("c3", 2007, ("a", "b"), refs=("F",)),
            raw_record("far", 2020, ("a", "b")),
        ]
    )
    index = build_citation_index(store)
    windows = citation_windows(store.papers["F"], index, horizon_year=2020)
    assert windows[5] == 2
    assert windows[20] == 3
    for lo, hi in zip(range(1, 20), range(2, 21)):
        if windows[lo] is not None and windows[hi] is not None:
            assert windows[lo] <= windows[hi]


def test_citation_windows_zero_citers():
    store = build_store([raw_record("F", 2000, ("a", "b")), raw_record("z", 2020, ("a", "b"))])
    index = build_citation_index(store)
    windows = citation_windows(store.papers["F"], index, horizon_year=2020)
    assert all(windows[k] == 0 for k in range(1, 21))


def test_anomalous_early_citers_ignored_by_age_metrics():
    # Real corpora contain citers dated before the cited paper; trajectories
    # and windows must not count them.
    store = build_store(
        [
            raw_record("F", 2000, ("a", "b")),
            raw_record("early", 1998, ("a", "b"), refs=("F",)),
            raw_record("late", 2001, ("a", "b"), refs=("F",)),
        ]
    )
    index = build_citation_index(store)
    assert index.year_anomalies == 1
    assert citation_ages(store.papers["F"], index, horizon_year=2001, max_age=20) == [0, 1]
    windows = citation_windows(store.papers["F"], index, horizon_year=2001)
    assert windows[1] == 1


def test_citation_windows_censoring():
    store = build_store([raw_record("F", 2017, ("a", "b")), raw_record("z", 2020, ("a", "b"))])
    index = build_citation_index(store)
    windows = citation_windows(store.papers["F"], index, horizon_year=2020)
    assert windows[3] == 0
    assert windows[5] is None


# -- top-k flags ----------------------------------------------------------------------

def test_top_k_distinct_counts():
    counts = {f"p{i}": i for i in range(100)}
    assert top_k_flag(counts, 1, {(2000, "D"): list(counts)}) == {"p99"}


def test_top_k_all_equal_all_flagged():
    counts = {f"p{i}": 7 for i in range(10)}
    assert top_k_flag(counts, 1, {(2000, "D"): list(counts)}) == set(counts)


def test_top_k_small_cohort_tie_rule():
    counts = {f"z{i}": 0 for i in range(10)}
    counts["hit"] = 7
    assert top_k_flag(counts, 10, {(2000, "D"): list(counts)}) == {"hit"}


def test_top_k_multi_cohort_membership_flags_on_any():
    counts = {"a": 5, "b": 1, "c": 9}
    cohorts = {("y", "D"): ["a", "b"], ("y", "E"): ["a", "c"]}  # "a" loses to "c" in E but wins D
    assert top_k_flag(counts, 1, cohorts) == {"a", "c"}


@given(
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=40),
    memberships=st.data(),
    k=st.sampled_from(TOP_K_LEVELS),
)
def test_top_k_flag_equals_the_per_paper_reference(counts, memberships, k):
    """Cohorts grouped once and flags held as a set give the flags of the
    per-paper cohort lists that the reference regroups at every call."""
    citation_counts = {f"p{i}": c for i, c in enumerate(counts)}
    cohort_of = {
        pid: memberships.draw(st.lists(st.sampled_from("ABC"), min_size=1, unique=True))
        for pid in citation_counts
    }
    cohorts = defaultdict(list)
    for pid, keys in cohort_of.items():
        for key in keys:
            cohorts[key].append(pid)
    flagged = top_k_flag(citation_counts, k, cohorts)
    reference = reference_top_k_flag(citation_counts, k, cohort_of)
    assert {pid: int(pid in flagged) for pid in citation_counts} == reference


# -- novelty ---------------------------------------------------------------------------

def novelty_corpus(seed=0, papers=50, venues=4):
    rng = random.Random(seed)
    raws = [
        raw_record(f"R{i}", 1990, ("a", "b"), venue=f"V{i % venues}") for i in range(12)
    ]
    for j in range(papers):
        refs = rng.sample([f"R{i}" for i in range(12)], rng.randrange(2, 6))
        raws.append(raw_record(f"P{j:03d}", 2000, ("a", "b"), refs=refs))
    return build_store(raws)


def test_rewire_preserves_both_degree_sequences():
    store = novelty_corpus()
    venue_of = {
        pid: rec.venue_id for pid, rec in store.papers.items() if rec.venue_id
    }
    edges = [
        (pid, ref)
        for pid in store.by_year[2000]
        for ref in store.papers[pid].references
    ]
    out_degree = Counter(p for p, _ in edges)
    in_degree = Counter(r for _, r in edges)
    for run in range(100):
        rewired = switch_named_citations(edges, random.Random(run), factor=10)
        assert Counter(p for p, _ in rewired) == out_degree
        assert Counter(r for _, r in rewired) == in_degree
        per_paper = Counter(p for p, _ in rewired)
        for pid, k in per_paper.items():
            cited = [r for p, r in rewired if p == pid]
            assert len(set(cited)) == k  # reference sets stay duplicate-free


# Totals where the rejection rate of a bit_length-bit draw changes.
_REWIRE_TOTALS = (2, 3, 7, 8, 9, 31, 32, 33, 127, 128, 129)


def _edge_set(total, pool, rng):
    """`total` distinct (citing, cited) pairs without self-citations over
    `pool` papers; a small pool makes most swaps duplicate a reference or
    create a self-citation, since papers both cite and are cited."""
    papers = [f"W{i}" for i in range(pool)]
    pairs = [(p, r) for p in papers for r in papers if p != r]
    return rng.sample(pairs, total)


def _assert_rewire_matches_reference(edges, seed, factor=10):
    ours, reference = random.Random(seed), random.Random(seed)
    assert switch_named_citations(edges, ours, factor) == reference_rewire(edges, reference, factor)
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("total", _REWIRE_TOTALS)
def test_rewire_equals_randrange_reference(total):
    dense = math.ceil((1 + math.sqrt(1 + 4 * total)) / 2)  # pool * (pool - 1) >= total
    for seed in range(40):
        rng = random.Random(seed * 1000 + total)
        for pool in (dense, dense + 1, 3 * total):
            _assert_rewire_matches_reference(_edge_set(total, pool, rng), seed)


def test_rewire_rejects_self_citations_and_duplicates_like_reference():
    self_citing = [("A", "B"), ("B", "A")]
    duplicating = [("A", "X"), ("A", "Y"), ("B", "X")]
    for seed in range(50):
        _assert_rewire_matches_reference(self_citing, seed)
        assert switch_named_citations(self_citing, random.Random(seed), 10) == self_citing
        _assert_rewire_matches_reference(duplicating, seed)
    for seed in range(20):
        store = novelty_corpus(seed)
        edges = [
            (pid, ref) for pid in store.by_year[2000] for ref in store.papers[pid].references
        ]
        _assert_rewire_matches_reference(edges, seed)
    for edges in ([], [("A", "B")]):
        _assert_rewire_matches_reference(edges, 0)


def test_inline_draw_is_randrange():
    """_switch_citations draws an edge position as getrandbits(total.bit_length()),
    redrawn while out of range. That must be what randrange(total) does, or
    a change to the interpreter's sampler would silently change metrics.csv."""
    for total in _REWIRE_TOTALS + (1000, 4096, 70001):
        for seed in range(20):
            ours, expected = random.Random(seed), random.Random(seed)
            getrandbits = ours.getrandbits
            k = total.bit_length()
            for _ in range(100):
                a = getrandbits(k)
                while a >= total:
                    a = getrandbits(k)
                assert a == expected.randrange(total)
            assert ours.getstate() == expected.getstate()


def _reference_tenths(store, year, *, n_rand, seed):
    """The reference baseline and each eligible paper's z-scores and 10th
    percentile, with numpy's percentile checked equal to _percentile."""
    reference = ReferenceCocitationBaseline(
        store, year, n_rand=n_rand, seed=seed
    )
    z_scores = reference_z_scores(store, year, reference)
    tenths = {pid: _percentile(zs, 10) for pid, zs in z_scores.items()}
    for pid, zs in z_scores.items():
        assert tenths[pid] == float(numpy.percentile(zs, 10))
    return reference, z_scores, tenths


@pytest.mark.parametrize("n_rand", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_baseline_tenths_equal_the_name_keyed_reference(seed, n_rand):
    store = novelty_corpus(seed)
    baseline = YearCocitationBaseline(store, 2000, n_rand=n_rand, seed=seed)
    reference, z_scores, tenths = _reference_tenths(store, 2000, n_rand=n_rand, seed=seed)
    assert tenths
    assert baseline.tenths == tenths
    assert list(baseline.tenths) == [pid for pid in store.by_year[2000] if pid in tenths]
    if n_rand == 1:
        # One replicate has no variance, so every z divides by the floor.
        for pair, count in reference.observed.items():
            mean = reference.sums.get(pair, 0.0)
            assert reference.squares.get(pair, 0.0) == mean * mean
            assert reference.z(pair) == (count - mean) / Z_STD_FLOOR
    assert YearCocitationBaseline(store, 1990, n_rand=n_rand, seed=seed).tenths == {}


def test_baseline_tenths_need_two_distinct_venues():
    raws = [
        raw_record("R1", 1990, ("a", "b"), venue="V0"),
        raw_record("R2", 1990, ("a", "b"), venue="V0"),
        raw_record("R3", 1990, ("a", "b"), venue="V1"),
        raw_record("R4", 1990, ("a", "b")),  # no venue
        raw_record("ONE_VENUE", 2000, ("a", "b"), refs=("R1", "R2")),
        raw_record("ONE_REF", 2000, ("a", "b"), refs=("R3", "R4", "OUTSIDE")),
        raw_record("MIXED", 2000, ("a", "b"), refs=("R1", "R3", "R2")),
        raw_record("OTHER", 2000, ("a", "b"), refs=("R3", "R2")),
    ]
    store = build_store(raws)
    for n_rand in (1, 2):
        baseline = YearCocitationBaseline(store, 2000, n_rand=n_rand, seed=0)
        reference, z_scores, tenths = _reference_tenths(store, 2000, n_rand=n_rand, seed=0)
        assert list(baseline.tenths) == ["MIXED", "OTHER"]
        assert baseline.tenths == tenths
        # The same-venue pair of MIXED's two V0 references enters its list.
        same = reference.z(("V0", "V0"))
        cross = reference.z(("V0", "V1"))
        assert sorted(z_scores["MIXED"]) == sorted([same, cross, cross])
        assert baseline.tenths["MIXED"] == _percentile([same, cross, cross], 10)


def test_novelty_profiles_rank_the_baseline_tenths():
    store = novelty_corpus()
    percentiles = compute_novelty_profiles(store, n_rand=3, seed=2)
    assert percentiles
    tenths = {}
    for year in store.years():
        tenths.update(YearCocitationBaseline(store, year, n_rand=3, seed=2).tenths)
    assert all(0.0 <= percentile <= 100.0 for percentile in percentiles.values())
    year_of = {pid: store.papers[pid].year for pid in tenths}
    assert percentiles == percentile_rank(tenths, year_of)


_FLOATS = st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)


@settings(max_examples=1000, deadline=None)
@given(
    values=st.one_of(
        st.lists(_FLOATS, min_size=1, max_size=60),
        # Ties: draws from a pool of at most five values.
        st.lists(_FLOATS, min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
        ),
    ),
    q=st.sampled_from((10, 0, 25, 50, 90, 100)),
)
def test_percentile_equals_numpy_linear(values, q):
    assert _percentile(values, q) == float(numpy.percentile(values, q))


# -- the assembled table -------------------------------------------------------------

def metrics_inputs(store_seed, papers, years):
    """A random store, its index, categories and novel pairs."""
    rng = random.Random(store_seed)
    store = random_metrics_store(rng, papers, years)
    categories = {
        pid: rng.choice(("GapOpener", "NovelPairNonGap", "NoNovelPair")) for pid in store.papers
    }
    novel_pairs = {
        pid: {pair for pair in combinations(rec.level3_ids, 2) if rng.random() < 0.5}
        for pid, rec in store.papers.items()
    }
    return store, build_citation_index(store), categories, novel_pairs


@settings(max_examples=200, deadline=None)
@given(
    store_seed=st.integers(0, 2**32),
    papers=st.integers(1, 40),
    years=st.integers(1, 35),
    seed=st.integers(0, 2**16),
    n_rand=st.integers(1, 3),
    cd_window=st.sampled_from((None, 2, 10)),
    sb_horizon=st.sampled_from((5, 20, 30)),
)
def test_metrics_rows_equal_reference(
    store_seed, papers, years, seed, n_rand, cd_window, sb_horizon
):
    """The two-part table, with paper_stats.csv in between, writes the
    metrics.csv bytes of the one-pass reference."""
    store, index, categories, novel_pairs = metrics_inputs(store_seed, papers, years)
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = Path(tmp) / "paper_stats.csv"
        write_csv(
            stats_path,
            PAPER_STATS_HEADER,
            paper_stats_rows(
                store, index, novel_pairs, cd_window=cd_window, sb_horizon=sb_horizon
            ),
        )
        rows = compute_metrics_rows(
            store, categories, load_paper_stats(stats_path),
            seed=seed, n_rand=n_rand,
        )
        write_csv(Path(tmp) / "metrics.csv", METRICS_HEADER, rows)
        expected = reference_metrics_rows(
            store, index, categories, novel_pairs, seed=seed, n_rand=n_rand,
            cd_window=cd_window, sb_horizon=sb_horizon,
        )
        write_csv(Path(tmp) / "reference.csv", METRICS_HEADER, expected)
        assert (Path(tmp) / "metrics.csv").read_bytes() == (
            Path(tmp) / "reference.csv"
        ).read_bytes()


def test_random_metrics_stores_cover_the_edge_cases():
    """The differential test's stores hold every case the rewritten loops
    must get right, over its first 50 seeds."""
    seen = Counter()
    for store_seed in range(50):
        store, index, _, _ = metrics_inputs(store_seed, 30, 25)
        seen["early citers"] += index.year_anomalies
        seen["outside refs"] += index.external_references
        for year in store.years():
            edges = sum(
                1
                for pid in store.by_year[year]
                for ref in store.papers[pid].references
                if ref in store.papers and store.papers[ref].venue_id is not None
            )
            seen["years under two edges"] += edges < 2
        for rec in store.papers.values():
            seen["no venue"] += rec.venue_id is None
            seen["no authors"] += not rec.authors
            seen["one author"] += len(rec.authors) == 1
            seen["repeated author"] += len(set(rec.authors)) < len(rec.authors)
            seen["repeat collaboration"] += any(
                other.year < rec.year and len(set(other.authors) & set(rec.authors)) >= 2
                for other in store.papers.values()
            )
            seen["located team"] += len(rec.affiliations) >= 2
            seen["references without venue"] += any(
                ref in store.papers and store.papers[ref].venue_id is None
                for ref in rec.references
            )
    assert all(seen[case] >= 20 for case in (
        "early citers", "outside refs", "years under two edges", "no venue", "no authors",
        "one author", "repeated author", "repeat collaboration", "located team",
        "references without venue",
    )), seen


# -- concept pair stats ------------------------------------------------------------------

def test_concept_pair_stats_examples():
    raws = [
        raw_record("old1", 1996, ("u", "x")),
        raw_record("old2", 1998, ("v", "x")),
        raw_record("new", 2000, ("u", "v")),
        raw_record("fresh", 2000, ("p", "q")),
    ]
    store = build_store(raws)
    occurrences = ConceptOccurrences(store)
    # Endpoints first seen in the paper's own year: age 0.
    stats = concept_pair_stats(store.papers["fresh"], [("p", "q")], store, occurrences)
    assert stats.concept_age == 0.0
    # Endpoints aged 4 and 2 years: mean 3.0.
    stats = concept_pair_stats(store.papers["new"], [("u", "v")], store, occurrences)
    assert stats.concept_age == 3.0
    assert stats.concept_popularity == 1.0  # each endpoint occurred once before
    assert concept_pair_stats(store.papers["new"], [], store, occurrences) is None


def test_concept_popularity_ten_priors():
    raws = [raw_record(f"h{i}", 1990 + i, ("u", "z"), l0=("D",)) for i in range(10)]
    raws += [raw_record(f"g{i}", 1990 + i, ("v", "w"), l0=("D",)) for i in range(10)]
    raws.append(raw_record("new", 2005, ("u", "v")))
    store = build_store(raws)
    stats = concept_pair_stats(store.papers["new"], [("u", "v")], store, ConceptOccurrences(store))
    assert stats.concept_popularity == 10.0


# -- team stats ------------------------------------------------------------------------

def test_team_stats_solo_author():
    store = build_store([raw_record("P", 2000, ("a", "b"), authors=["a1"])])
    stats = team_stats(store.papers["P"], AuthorIndex(store))
    assert stats.team_size == 1
    assert stats.mean_career_age == 0.0
    assert stats.freshness is None
    assert stats.mean_geo_distance_km is None


def test_team_stats_fresh_pair():
    raws = [
        raw_record("P", 2000, ("a", "b"), authors=["a1", "a2"]),
    ]
    store = build_store(raws)
    stats = team_stats(store.papers["P"], AuthorIndex(store))
    assert stats.freshness == 1.0


def test_team_stats_repeat_collaboration():
    raws = [
        raw_record("old", 1995, ("a", "b"), authors=["a1", "a2"]),
        raw_record("P", 2000, ("a", "b"), authors=["a1", "a2", "a3"]),
    ]
    store = build_store(raws)
    stats = team_stats(store.papers["P"], AuthorIndex(store))
    assert stats.freshness == pytest.approx(1 / 3)  # only a3 is fresh
    assert stats.mean_career_age == pytest.approx((5 + 5 + 0) / 3)


def test_team_stats_same_year_collaboration_not_prior():
    raws = [
        raw_record("sib", 2000, ("a", "b"), authors=["a1", "a2"]),
        raw_record("P", 2000, ("c", "d"), authors=["a1", "a2"]),
    ]
    store = build_store(raws)
    assert team_stats(store.papers["P"], AuthorIndex(store)).freshness == 1.0


def test_geo_distance_identical_coordinates():
    store = build_store(
        [
            raw_record(
                "P",
                2000,
                ("a", "b"),
                authors=["a1", "a2"],
                affil=[["a1", 10.0, 20.0], ["a2", 10.0, 20.0]],
            )
        ]
    )
    assert team_stats(store.papers["P"], AuthorIndex(store)).mean_geo_distance_km == 0.0


def test_haversine_known_distance():
    # One degree of longitude on the equator.
    expected = math.radians(1.0) * 6371.0088
    assert haversine_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-9)
    assert haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(math.pi * 6371.0088, rel=1e-9)


def test_freshness_requires_team_size_range():
    big_team = [f"a{i}" for i in range(25)]
    store = build_store([raw_record("P", 2000, ("a", "b"), authors=big_team)])
    assert team_stats(store.papers["P"], AuthorIndex(store)).freshness is None


# -- verb ratios -------------------------------------------------------------------------

def test_verb_ratio_examples():
    lexicon = ("launch", "confirm", "improve")
    titles_a = ["We launch and launch again", "filler words here"]  # 2 of 8 tokens
    titles_b = ["launch something new today etc etc ok right"]  # 1 of 8 tokens
    ratios = verb_ratio(titles_a, titles_b, lexicon)
    assert ratios["launch"] == pytest.approx(2.0)
    assert "confirm" not in ratios  # absent from both collections
    ratios = verb_ratio(["nothing here"], ["confirm it"], lexicon)
    assert ratios["confirm"] == 0.0
    same = ["launch confirm improve boats"]
    assert all(r == 1.0 for r in verb_ratio(same, same, lexicon).values())


def test_verb_ratio_infinity_sentinel():
    ratios = verb_ratio(["we confirm"], ["plain words"], ("confirm",))
    assert ratios["confirm"] == math.inf


def test_verb_ratio_rejects_empty():
    # A collection with no token has no frequencies to compare.
    assert verb_ratio([], ["x"], ("confirm",)) is None
    assert verb_ratio(["confirm"], [";", ""], ("confirm",)) is None
