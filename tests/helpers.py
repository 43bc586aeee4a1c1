"""Shared test fixtures: record builders, random temporal graphs, store-level
wrappers over the per-discipline topology and the labelled-row builder,
label checks, the pre-change null model the lean one is checked against
(the store-iterating row loop, random.shuffle dealing, the sort-ranked
network, diagram records, evidence-based categories), the reference
machinery the implicit dimension-1 engine is checked against (a flag
complex of any dimension listed as Simplex objects, the explicit
triangle-column reduction that engine replaced, the naive full column
reduction, and the dense Betti oracle), citation switching over named edges
with the randrange loop it is checked against, and the pre-change metrics
table (per-window citer scans, the windowed CD index, per-pair freshness,
the name-keyed novelty baseline) with its store generator."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from gapminer.classify import CATEGORIES, Category, PaperClassification, ShareRow
from gapminer.concept_net import (
    Pair,
    PaperRow,
    TemporalConceptNetwork,
    _finish_network,
    build_network,
    discipline_rows,
    memberships,
)
from gapminer.corpus import (
    SCHEMA_VERSION,
    CitationIndex,
    CorpusStore,
    PaperRecord,
    validate_record,
)
from gapminer.errors import DataError, InternalError
from gapminer.metrics import (
    CITATION_WINDOWS,
    REWIRE_FACTOR,
    TOP_K_LEVELS,
    AuthorIndex,
    ConceptOccurrences,
    TeamStats,
    _percentile,
    _switch_citations,
    concept_pair_stats,
    haversine_km,
    percentile_rank,
    sleeping_beauty,
)
from gapminer.topology import DiagramRecord, Simplex, gap_edges, network_diagram
from gapminer.util import derive_seed


def raw_record(pid, year, l3, l0=("D",), refs=(), **extra):
    record = {
        "id": pid,
        "year": year,
        "l0": [[c, 1.0] for c in l0],
        "l3": [[c, 1.0] for c in l3],
        "refs": list(refs),
    }
    record.update(extra)
    return record


def build_store(raws) -> CorpusStore:
    records = []
    for raw in raws:
        result = validate_record(raw)
        assert isinstance(result, PaperRecord), f"unexpected rejection: {result}"
        records.append(result)
    return CorpusStore.from_records(records)


def write_corpus(path: Path, raws, header=True) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(json.dumps({"schema_version": SCHEMA_VERSION}) + "\n")
        for raw in raws:
            fh.write((raw if isinstance(raw, str) else json.dumps(raw)) + "\n")
    return path


# -- networks -------------------------------------------------------------------

def _canonical(u: str, v: str) -> Pair:
    return (u, v) if u < v else (v, u)


def network_from_edge_times(
    discipline: str, edges: Iterable[tuple[str, str, int]]
) -> TemporalConceptNetwork:
    """Construct a network directly from (u, v, year) triples.

    Duplicate pairs keep the earliest year. Each edge's one introducer is
    synthesized from its pair.
    """
    raw: dict[Pair, tuple[int, tuple[str, ...]]] = {}
    for u, v, year in edges:
        if u == v:
            raise ValueError(f"self-loop {u!r}")
        pair = _canonical(u, v)
        existing = raw.get(pair)
        if existing is None or year < existing[0]:
            raw[pair] = (year, (f"edge:{pair[0]}|{pair[1]}",))
    return _finish_network(discipline, raw)


def novel_pairs(paper: PaperRecord, network: TemporalConceptNetwork) -> set[Pair]:
    """Concept pairs this paper introduced into the discipline's network."""
    if network.discipline not in paper.level0_ids:
        raise DataError(
            f"paper {paper.paper_id} is not assigned to discipline {network.discipline!r}"
        )
    result: set[Pair] = set()
    for u, v in combinations(paper.level3_ids, 2):
        pair = _canonical(u, v)
        birth = network.edges.get(pair)
        if birth is not None and paper.paper_id in birth.introducers:
            result.add(pair)
    return result


def exit_in_worker(task) -> None:
    """A pool task that kills its worker process, as a crash would."""
    if multiprocessing.parent_process() is None:
        raise RuntimeError("exit_in_worker must run in a pool worker")
    os._exit(1)


# -- store-level views of the per-discipline functions ---------------------------

def store_rows(
    store: CorpusStore, labels: Mapping[str, tuple[str, ...]] | None = None
) -> dict[str, list[PaperRow]]:
    """discipline_rows over the store's papers, with the store's own level-3
    ids unless `labels` (from randomize_labels) is given."""
    if labels is None:
        labels = {pid: rec.level3_ids for pid, rec in store.papers.items()}
    return discipline_rows(memberships(store), labels)


def network_of(store: CorpusStore, discipline: str) -> TemporalConceptNetwork:
    """The discipline's network, built from its rows as the pipeline does."""
    return build_network(discipline, store_rows(store).get(discipline, []))


@dataclass
class DisciplineTopology:
    """One discipline's network together with its gap pairs, as the
    reference path finds them."""

    network: TemporalConceptNetwork
    gap_pairs: frozenset[Pair]


def discipline_topology(task: tuple[str, Sequence[PaperRow], int]) -> DisciplineTopology:
    """Network and gap pairs of one discipline from its labelled rows
    (discipline, rows, min_persistence), with the gap pairs filtered from
    the full diagram's records by `gap_edges`: the reference that the
    windowed `network_gaps` of real and null runs is checked against."""
    discipline, rows, min_persistence = task
    network = build_network(discipline, rows)
    records, _ = network_diagram(network)
    return DisciplineTopology(network, frozenset(gap_edges(records, min_persistence)))


def analyze_discipline(
    store: CorpusStore, discipline: str, *, min_persistence: int = 1
) -> DisciplineTopology:
    """Network and gap pairs of one discipline with the store's own labels."""
    rows = store_rows(store)[discipline]
    return discipline_topology((discipline, rows, min_persistence))


def analyze_store(
    store: CorpusStore, *, min_persistence: int = 1
) -> dict[str, DisciplineTopology]:
    """Networks and gap pairs of every discipline with the store's own labels."""
    return {
        d: discipline_topology((d, rows, min_persistence))
        for d, rows in store_rows(store).items()
    }


def random_store(
    rng: random.Random, papers: int, vocabulary: int, disciplines: int, years: int
) -> CorpusStore:
    """A store of 2-4 label papers over `disciplines` disciplines, about a
    third of the papers in two of them. Every discipline draws its labels
    from one shared vocabulary of `vocabulary` concepts, so a small
    vocabulary makes label dealing collide often."""
    names = [f"D{i}" for i in range(disciplines)]
    vocab = [f"c{i:02d}" for i in range(vocabulary)]
    raws = []
    for i in range(papers):
        l0 = rng.sample(names, 2 if disciplines > 1 and rng.random() < 0.3 else 1)
        l3 = rng.sample(vocab, rng.randint(2, min(4, vocabulary)))
        raws.append(raw_record(f"P{i:03d}", 2000 + rng.randrange(years), l3, l0=l0))
    return build_store(raws)


# -- the pre-change null model ----------------------------------------------------

def reference_discipline_rows(
    store: CorpusStore, labels: Mapping[str, tuple[str, ...]] | None = None
) -> dict[str, list[PaperRow]]:
    """The store-iterating row loop that discipline_rows over memberships
    must equal, dict order included: one pass over the store's records."""
    rows: dict[str, list[PaperRow]] = {d: [] for d in store.disciplines()}
    for rec in store.iter_papers():
        row = (rec.year, rec.paper_id, rec.level3_ids if labels is None else labels[rec.paper_id])
        for discipline in rec.level0_ids:
            rows[discipline].append(row)
    return rows


def reference_build_network(discipline: str, rows: Sequence[PaperRow]) -> TemporalConceptNetwork:
    """The sort-ranked construction that build_network must equal, tie
    ranks and dict order included."""
    if not rows:
        raise DataError(f"unknown discipline id {discipline!r}")
    raw: dict[Pair, tuple[int, tuple[str, ...]]] = {}
    for year, papers in groupby(rows, key=itemgetter(0)):
        batch: dict[Pair, set[str]] = {}
        for _, pid, concepts in papers:
            for u, v in combinations(concepts, 2):
                pair = _canonical(u, v)
                if pair in raw:
                    continue
                batch.setdefault(pair, set()).add(pid)
        for pair, intro in batch.items():
            raw[pair] = (year, tuple(sorted(intro)))
    return _finish_network(discipline, raw)


def _reference_deal_hands(
    pool: list[str], sizes: list[int], rng: random.Random, max_attempts: int = 50
) -> list[list[str]]:
    distinct = len(set(pool))
    if max(sizes) > distinct:
        raise DataError(
            f"a paper needs {max(sizes)} distinct labels but the group has {distinct}"
        )
    for _ in range(max_attempts):
        rng.shuffle(pool)
        hands: list[list[str]] = []
        pos = 0
        for size in sizes:
            hands.append(pool[pos : pos + size])
            pos += size
        if _reference_repair_collisions(hands, rng):
            return hands
    raise DataError("could not resolve duplicate labels after resampling")


def _reference_repair_collisions(hands: list[list[str]], rng: random.Random) -> bool:
    n = len(hands)
    for _ in range(200):
        dirty = False
        for i, hand in enumerate(hands):
            counts = Counter(hand)
            if len(counts) == len(hand):
                continue
            dirty = True
            dup = next(label for label, c in counts.items() if c > 1)
            slot = max(k for k, label in enumerate(hand) if label == dup)
            start = rng.randrange(n)
            done = False
            for off in range(n):
                j = (start + off) % n
                if j == i:
                    continue
                other = hands[j]
                if dup in other:
                    continue
                hand_set = set(hand)
                for m, candidate in enumerate(other):
                    if candidate not in hand_set:
                        hand[slot], other[m] = candidate, dup
                        done = True
                        break
                if done:
                    break
            if not done:
                return False
        if not dirty:
            return True
    return False


def reference_randomize_labels(store: CorpusStore, seed: int) -> dict[str, tuple[str, ...]]:
    """The store-regrouping, random.shuffle dealing that randomize_labels
    must equal label for label."""
    groups: dict[tuple[str, ...], list[PaperRecord]] = {}
    for rec in store.iter_papers():
        groups.setdefault(rec.level0_ids, []).append(rec)
    labels: dict[str, tuple[str, ...]] = {}
    for key in sorted(groups):
        members = groups[key]
        rng = random.Random(derive_seed(seed, "labels", *key))
        pool = [c for rec in members for c in rec.level3_ids]
        sizes = [len(rec.level3_ids) for rec in members]
        hands = _reference_deal_hands(pool, sizes, rng)
        for rec, hand in zip(members, hands):
            labels[rec.paper_id] = tuple(sorted(hand))
    return labels


KIND_GAP = "gap"
KIND_NOVEL = "novel"

Evidence = tuple[str, Pair, str]  # (discipline, concept pair, gap|novel)


def reference_classify_all(
    store: CorpusStore, topologies: Mapping[str, DisciplineTopology]
) -> dict[str, PaperClassification]:
    """Categories and counts decided from each paper's evidence tuples: the
    gap edges are its gap tuples, the novel pairs its distinct pairs."""
    evidence: dict[str, list[Evidence]] = defaultdict(list)
    for discipline in sorted(topologies):
        topo = topologies[discipline]
        for pair in sorted(topo.network.edges):
            birth = topo.network.edges[pair]
            kind = KIND_GAP if pair in topo.gap_pairs else KIND_NOVEL
            for pid in sorted(birth.introducers):
                evidence[pid].append((discipline, pair, kind))
    result: dict[str, PaperClassification] = {}
    for rec in store.iter_papers():
        entries = tuple(evidence.get(rec.paper_id, ()))
        if any(kind == KIND_GAP for _, _, kind in entries):
            category = Category.GAP_OPENER
        elif entries:
            category = Category.NOVEL_PAIR_NON_GAP
        else:
            category = Category.NO_NOVEL_PAIR
        n_gap = sum(1 for _, _, kind in entries if kind == KIND_GAP)
        n_novel = len({pair for _, pair, _ in entries})
        result[rec.paper_id] = PaperClassification(category, n_gap, n_novel)
    return result


def reference_share_table(
    classifications: Mapping[str, PaperClassification],
    store: CorpusStore,
    grouping: str,
) -> list[ShareRow]:
    """Shares counted from the store's records, paper by paper."""
    counts: dict[str, dict[Category, int]] = defaultdict(lambda: defaultdict(int))
    for pid, cls in classifications.items():
        rec = store.papers[pid]
        keys = {"overall": [""], "year": [str(rec.year)], "discipline": list(rec.level0_ids)}
        for key in keys[grouping]:
            counts[key][cls.category] += 1
    rows: list[ShareRow] = []
    for group in sorted(counts):
        total = sum(counts[group].values())
        for category in CATEGORIES:
            n = counts[group][category]
            rows.append(ShareRow(grouping, group, category, n, n / total, "real"))
    return rows


def reference_null_comparison(
    store: CorpusStore,
    seed: int,
    replicates: int,
    *,
    min_persistence: int = 1,
) -> list[ShareRow]:
    """Every replicate rebuilt in full: labels dealt from the store, rows
    regrouped, diagram records built and sorted, evidence collected, and
    shares counted row by row; the same means and standard errors."""
    acc: dict[tuple[str, str, Category], list[tuple[float, float]]] = defaultdict(list)
    for replicate in range(replicates):
        labels = reference_randomize_labels(store, derive_seed(seed, "null", replicate))
        topologies = {
            d: discipline_topology((d, rows, min_persistence))
            for d, rows in reference_discipline_rows(store, labels).items()
        }
        classifications = reference_classify_all(store, topologies)
        for grouping in ("overall", "discipline", "year"):
            for row in reference_share_table(classifications, store, grouping):
                acc[(row.grouping, row.group, row.category)].append((row.count, row.fraction))
    rows: list[ShareRow] = []
    for (grouping, group, category), samples in sorted(
        acc.items(), key=lambda kv: (kv[0][0], kv[0][1], CATEGORIES.index(kv[0][2]))
    ):
        fractions = [f for _, f in samples]
        mean_count = sum(c for c, _ in samples) / len(samples)
        mean_fraction = sum(fractions) / len(fractions)
        if len(fractions) > 1:
            var = sum((f - mean_fraction) ** 2 for f in fractions) / (len(fractions) - 1)
            stderr = math.sqrt(var / len(fractions))
        else:
            stderr = 0.0
        rows.append(
            ShareRow(grouping, group, category, mean_count, mean_fraction, "random", stderr)
        )
    return rows


def label_multiset(
    store: CorpusStore, discipline: str, labels: Mapping[str, tuple[str, ...]] | None = None
) -> Counter:
    """Multiset of level-3 labels over the discipline's papers; labels from
    randomize_labels replace the store's when given."""
    counts: Counter = Counter()
    for pid, rec in store.papers.items():
        if discipline in rec.level0_ids:
            counts.update(rec.level3_ids if labels is None else labels[pid])
    return counts


def check_label_conservation(store: CorpusStore, labels: Mapping[str, tuple[str, ...]]) -> None:
    """The null model's conservation laws: every paper keeps its label count
    with distinct labels, and every discipline keeps its label multiset."""
    assert set(labels) == set(store.papers)
    for pid, rec in store.papers.items():
        assert len(labels[pid]) == len(rec.level3_ids)
        assert len(set(labels[pid])) == len(labels[pid])
    for d in store.disciplines():
        assert label_multiset(store, d, labels) == label_multiset(store, d)


# The instance set of acceptance criteria 1, 3 and 4.
C1_INSTANCE_SEED = 424242
C1_INSTANCES = 200


def c1_instances():
    rng = random.Random(C1_INSTANCE_SEED)
    for _ in range(C1_INSTANCES):
        yield random_temporal_network(rng, max_nodes=12, max_edges=30)


def random_temporal_network(
    rng: random.Random,
    max_nodes: int = 12,
    max_edges: int = 30,
    year_lo: int = 2000,
    year_hi: int = 2006,
) -> TemporalConceptNetwork:
    n = rng.randrange(2, max_nodes + 1)
    nodes = [f"n{i:02d}" for i in range(n)]
    all_pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    rng.shuffle(all_pairs)
    m = rng.randrange(1, min(max_edges, len(all_pairs)) + 1)
    edges = [
        (u, v, rng.randrange(year_lo, year_hi + 1)) for u, v in all_pairs[:m]
    ]
    return network_from_edge_times("T", edges)


# -- citation switching over named edges -------------------------------------------

def switch_named_citations(
    edges: list[tuple[str, str]], rng: random.Random, factor: int
) -> list[tuple[str, str]]:
    """Citation switching on named edges: _switch_citations over the edges'
    integer ids, mapped back to names."""
    ids: dict[str, int] = {}
    citing = [ids.setdefault(p, len(ids)) for p, _ in edges]
    cited = [ids.setdefault(r, len(ids)) for _, r in edges]
    _switch_citations(citing, cited, len(ids), rng, factor)
    names = list(ids)
    return [(names[p], names[r]) for p, r in zip(citing, cited)]


def reference_rewire(
    edges: Sequence[tuple[str, str]], rng: random.Random, factor: int
) -> list[tuple[str, str]]:
    """The per-paper-set randrange loop that switch_named_citations must
    equal: same output list and same final rng state."""
    edges = list(edges)
    total = len(edges)
    if total < 2:
        return edges
    ref_sets: dict[str, set[str]] = defaultdict(set)
    for citing, cited in edges:
        ref_sets[citing].add(cited)
    for _ in range(factor * total):
        a = rng.randrange(total)
        b = rng.randrange(total)
        if a == b:
            continue
        p1, r1 = edges[a]
        p2, r2 = edges[b]
        if p1 == p2 or r1 == r2:
            continue
        if r2 in ref_sets[p1] or r1 in ref_sets[p2]:
            continue
        if r2 == p1 or r1 == p2:
            continue
        ref_sets[p1].remove(r1)
        ref_sets[p1].add(r2)
        ref_sets[p2].remove(r2)
        ref_sets[p2].add(r1)
        edges[a] = (p1, r2)
        edges[b] = (p2, r1)
    return edges


# -- the pre-change metrics table -------------------------------------------------

def reference_disruption_counts(
    paper: PaperRecord, index: CitationIndex, *, window: int | None = None
) -> tuple[int, int, int]:
    """(focal only, both, references only), through a window test per citer."""

    def in_window(pid: str) -> bool:
        if window is None:
            return True
        return paper.year <= index.year_of[pid] <= paper.year + window

    citers = {c for c in index.citers(paper.paper_id) if in_window(c)}
    ref_citers: set[str] = set()
    for ref in paper.references:
        ref_citers.update(c for c in index.citers(ref) if in_window(c))
    ref_citers.discard(paper.paper_id)
    return len(citers - ref_citers), len(citers & ref_citers), len(ref_citers - citers)


def reference_cd_index(
    paper: PaperRecord, index: CitationIndex, *, window: int | None = None
) -> float | None:
    if not paper.references:
        return None
    focal, both, refs = reference_disruption_counts(paper, index, window=window)
    if focal + both + refs == 0:
        return None
    return (focal - both) / (focal + both + refs)


def reference_citation_windows(
    paper: PaperRecord, index: CitationIndex, *, horizon_year: int
) -> dict[int, int | None]:
    """Each window counted by its own scan of the citers."""
    citer_years = [index.year_of[c] for c in index.citers(paper.paper_id)]
    out: dict[int, int | None] = {}
    for k in CITATION_WINDOWS:
        if paper.year + k > horizon_year:
            out[k] = None
        else:
            out[k] = sum(1 for y in citer_years if paper.year <= y <= paper.year + k)
    return out


def reference_citation_trajectory(
    paper: PaperRecord, index: CitationIndex, *, horizon_year: int, max_age: int
) -> tuple[int, ...]:
    last_age = min(max_age, horizon_year - paper.year)
    counts = [0] * (last_age + 1)
    for citer in index.citers(paper.paper_id):
        age = index.year_of[citer] - paper.year
        if 0 <= age <= last_age:
            counts[age] += 1
    return tuple(counts)


def reference_team_stats(paper: PaperRecord, authors: AuthorIndex) -> TeamStats:
    """Team statistics with freshness tested per ordered author pair."""

    def collaborated_before(a: str, b: str, year: int) -> bool:
        joint = authors._joint.get((a, b) if a < b else (b, a))
        return joint is not None and joint < year

    size = len(paper.authors)
    career = None
    if size:
        first_years = [authors.first_year(a) for a in paper.authors]
        career = sum(paper.year - (fy if fy is not None else paper.year) for fy in first_years) / size
    freshness = None
    if 2 <= size <= 20:
        fresh = 0
        for a in paper.authors:
            teammates = [b for b in paper.authors if b != a]
            if not any(collaborated_before(a, b, paper.year) for b in teammates):
                fresh += 1
        freshness = fresh / size
    geo = None
    located = [(lat, lon) for _, lat, lon in paper.affiliations]
    if len(located) >= 2:
        distances = [
            haversine_km(lat1, lon1, lat2, lon2)
            for (lat1, lon1), (lat2, lon2) in combinations(located, 2)
        ]
        geo = sum(distances) / len(distances)
    return TeamStats(size, career, freshness, geo)


def reference_pair_counts(
    edges: Sequence[tuple[str, str]], venue_of: Mapping[str, str]
) -> Counter:
    """Journal co-citation counts over named edges: per citing paper, the set
    of its unordered venue pairs."""
    per_paper: dict[str, list[str]] = defaultdict(list)
    for citing, cited in edges:
        per_paper[citing].append(venue_of[cited])
    counts: Counter = Counter()
    for venues in per_paper.values():
        pairs = set()
        for i in range(len(venues)):
            for j in range(i + 1, len(venues)):
                vi, vj = venues[i], venues[j]
                pairs.add((vi, vj) if vi <= vj else (vj, vi))
        counts.update(pairs)
    return counts


class ReferenceCocitationBaseline:
    """The name-keyed baseline: named edges rewired by the randrange loop,
    sums and squares kept for every pair any replicate produces."""

    def __init__(self, store: CorpusStore, year: int, *, n_rand: int, seed: int):
        self.n_rand = n_rand
        venue_of: dict[str, str] = {}
        edges: list[tuple[str, str]] = []
        for pid in store.by_year.get(year, ()):
            for ref in store.papers[pid].references:
                cited = store.papers.get(ref)
                if cited is None or cited.venue_id is None:
                    continue
                venue_of[ref] = cited.venue_id
                edges.append((pid, ref))
        self.venue_of = venue_of
        self.observed = reference_pair_counts(edges, venue_of)
        self.sums: dict[tuple[str, str], float] = defaultdict(float)
        self.squares: dict[tuple[str, str], float] = defaultdict(float)
        for replicate in range(n_rand):
            rng = random.Random(derive_seed(seed, "rewire", year, replicate))
            counts = reference_pair_counts(reference_rewire(edges, rng, REWIRE_FACTOR), venue_of)
            for pair, c in counts.items():
                self.sums[pair] += c
                self.squares[pair] += c * c

    def z(self, pair: tuple[str, str]) -> float:
        observed = self.observed.get(pair, 0)
        mean = self.sums.get(pair, 0.0) / self.n_rand
        variance = max(self.squares.get(pair, 0.0) / self.n_rand - mean * mean, 0.0)
        return (observed - mean) / max(math.sqrt(variance), 1e-6)


def reference_z_scores(
    store: CorpusStore, year: int, baseline: ReferenceCocitationBaseline
) -> dict[str, list[float]]:
    """Each paper of `year` whose references resolve to at least two distinct
    venues, to the z-scores of its reference pairs' journal pairs."""
    z_scores: dict[str, list[float]] = {}
    for pid in store.by_year.get(year, ()):
        refs = [r for r in store.papers[pid].references if r in baseline.venue_of]
        venues = [baseline.venue_of[r] for r in refs]
        if len(refs) < 2 or len(set(venues)) < 2:
            continue
        z_scores[pid] = [
            baseline.z((vi, vj) if vi <= vj else (vj, vi)) for vi, vj in combinations(venues, 2)
        ]
    return z_scores


def reference_novelty_percentiles(
    store: CorpusStore, *, n_rand: int, seed: int
) -> dict[str, float]:
    """Each eligible paper's yearly percentile of its 10th-percentile z."""
    tenths: dict[str, float] = {}
    for year in store.years():
        baseline = ReferenceCocitationBaseline(store, year, n_rand=n_rand, seed=seed)
        for pid, z_scores in reference_z_scores(store, year, baseline).items():
            tenths[pid] = _percentile(z_scores, 10)
    return percentile_rank(tenths, {pid: store.papers[pid].year for pid in tenths})


def reference_top_k_flag(
    citation_counts: Mapping[str, int],
    k: float,
    cohort_of: Mapping[str, Sequence[object]],
) -> dict[str, int]:
    """The top-k flag of every paper, from a list of cohorts per paper,
    regrouped at each call: 1 among the top k% by citations in any of its
    cohorts, ties at the threshold included."""
    cohorts: dict[object, list[str]] = defaultdict(list)
    for pid in citation_counts:
        for key in cohort_of[pid]:
            cohorts[key].append(pid)
    flags = {pid: 0 for pid in citation_counts}
    for members in cohorts.values():
        counts = sorted((citation_counts[pid] for pid in members), reverse=True)
        threshold = counts[max(1, math.floor(k * len(members) / 100.0)) - 1]
        for pid in members:
            if citation_counts[pid] >= threshold:
                flags[pid] = 1
    return flags


def reference_metrics_rows(
    store: CorpusStore,
    index: CitationIndex,
    categories: Mapping[str, str],
    novel_pairs_by_paper: Mapping[str, Iterable[Pair]],
    *,
    seed: int,
    n_rand: int,
    cd_window: int | None,
    sb_horizon: int,
) -> list[tuple]:
    """The metrics table in one function, from the per-paper loops above:
    one scan of the citers per window, a window test per citer for the CD
    index, a look-up per ordered author pair, and the name-keyed novelty
    baseline."""
    horizon = store.year_max()
    if horizon is None:
        return []
    occurrences = ConceptOccurrences(store)
    authors = AuthorIndex(store)
    novelty_pct = reference_novelty_percentiles(store, n_rand=n_rand, seed=seed)
    cd_values = {}
    for rec in store.iter_papers():
        value = reference_cd_index(rec, index, window=cd_window)
        if value is not None:
            cd_values[rec.paper_id] = value
    year_of = {pid: rec.year for pid, rec in store.papers.items()}
    cd_percentiles = percentile_rank(cd_values, year_of)
    citation_counts = {pid: index.citation_count(pid) for pid in store.papers}
    cohort_of = {pid: [(rec.year, d) for d in rec.level0_ids] for pid, rec in store.papers.items()}
    top_flags = {k: reference_top_k_flag(citation_counts, k, cohort_of) for k in TOP_K_LEVELS}
    rows = []
    for rec in store.iter_papers():
        pid = rec.paper_id
        trajectory = reference_citation_trajectory(
            rec, index, horizon_year=horizon, max_age=sb_horizon
        )
        windows = reference_citation_windows(rec, index, horizon_year=horizon)
        pair_stats = concept_pair_stats(rec, novel_pairs_by_paper.get(pid, ()), store, occurrences)
        team = reference_team_stats(rec, authors)
        rows.append((
            pid,
            categories[pid],
            cd_values.get(pid),
            cd_percentiles.get(pid),
            sleeping_beauty(trajectory),
            novelty_pct.get(pid),
            *(windows[k] for k in CITATION_WINDOWS),
            *(top_flags[k][pid] for k in TOP_K_LEVELS),
            pair_stats.concept_age if pair_stats else None,
            pair_stats.concept_popularity if pair_stats else None,
            team.team_size if rec.authors else None,
            team.mean_career_age,
            team.freshness,
            team.mean_geo_distance_km,
        ))
    return rows


def random_metrics_store(rng: random.Random, papers: int, years: int) -> CorpusStore:
    """A store for the metrics table: references to any paper, earlier or
    later (so some citers predate what they cite), and to ids outside the
    store; papers with and without a venue out of three; teams drawn with
    repeats from a pool of five authors, some empty or of one author, some
    located; level-3 concepts from a vocabulary of six."""
    ids = [f"P{i:03d}" for i in range(papers)]
    raws = []
    for pid in ids:
        extra: dict = {}
        if rng.random() < 0.8:
            extra["venue"] = f"V{rng.randrange(3)}"
        team = [f"a{rng.randrange(5)}" for _ in range(rng.choice((0, 1, 1, 2, 3, 4)))]
        if team:
            extra["authors"] = team
            extra["affil"] = [
                [a, rng.uniform(-60, 60), rng.uniform(-180, 180)] for a in team if rng.random() < 0.5
            ]
        refs = rng.sample(ids, rng.randint(0, min(5, papers)))
        refs += [f"X{rng.randrange(3)}" for _ in range(rng.randint(0, 2))]
        l3 = rng.sample([f"c{i}" for i in range(6)], rng.randint(2, 4))
        l0 = rng.sample(("D0", "D1"), rng.randint(1, 2))
        raws.append(raw_record(pid, 1980 + rng.randrange(years), l3, l0=l0, refs=refs, **extra))
    return build_store(raws)


# -- simplicial complexes of any dimension --------------------------------------

def facets(vertices: tuple[str, ...]) -> list[tuple[str, ...]]:
    """All faces of codimension one (the boundary over Z2)."""
    if len(vertices) == 1:
        return []
    return [vertices[:i] + vertices[i + 1 :] for i in range(len(vertices))]


def boundary_chain(vertices: tuple[str, ...]) -> dict[tuple[str, ...], int]:
    """Boundary of a simplex as a Z2 chain (face -> coefficient)."""
    return {face: 1 for face in facets(vertices)}


def apply_boundary(chain: dict[tuple[str, ...], int]) -> dict[tuple[str, ...], int]:
    """Apply the boundary operator to a Z2 chain."""
    out: dict[tuple[str, ...], int] = defaultdict(int)
    for vertices, coeff in chain.items():
        if coeff % 2 == 0:
            continue
        for face in facets(vertices):
            out[face] += 1
    return {face: c % 2 for face, c in out.items() if c % 2}


@dataclass
class ListedFiltration:
    """A filtration given as its totally ordered simplices."""

    simplices: list[Simplex]

    def __len__(self) -> int:
        return len(self.simplices)


def listed_filtration(
    entries: Iterable[tuple[tuple[str, ...], int, object]]
) -> ListedFiltration:
    """Order (vertices, value, tie-key) triples by (value, dimension, tie
    key); the caller guarantees face closure and sorted vertex tuples."""
    ordered = sorted(entries, key=lambda e: (e[1], len(e[0]), e[2]))
    return ListedFiltration(
        [Simplex(vertices, value, index) for index, (vertices, value, _) in enumerate(ordered)]
    )


def step_boundaries(filtration) -> dict[int, tuple[int, int]]:
    """Each filtration value (year) with the [start, end) index span of its
    simplices, in ascending order."""
    spans: dict[int, tuple[int, int]] = {}
    for i, s in enumerate(filtration.simplices):
        start = spans.get(s.filtration_value, (i, i))[0]
        spans[s.filtration_value] = (start, i + 1)
    return spans


def check_filtration(filtration) -> None:
    """Raise ValueError unless vertex tuples are strictly sorted and every
    face precedes its cofaces no later than they enter."""
    present: dict[tuple[str, ...], int] = {}
    for s in filtration.simplices:
        if len(set(s.vertices)) != len(s.vertices) or tuple(sorted(s.vertices)) != s.vertices:
            raise ValueError(f"vertices must be strictly sorted: {s.vertices}")
        for face in facets(s.vertices):
            face_value = present.get(face)
            if face_value is None or face_value > s.filtration_value:
                raise ValueError(f"face {face} missing or later than {s.vertices}")
        present[s.vertices] = s.filtration_value


def filtration_from_simplices(
    entries: Iterable[tuple[tuple[str, ...], int]]
) -> ListedFiltration:
    """Validated filtration from (vertices, value) pairs; ties break on the
    vertex tuple."""
    filtration = listed_filtration((v, t, v) for v, t in entries)
    check_filtration(filtration)
    return filtration


def clique_filtration(network: TemporalConceptNetwork, max_dim: int) -> ListedFiltration:
    """Every clique of up to max_dim + 1 vertices, by recursive expansion.

    The same total order as build_flag_filtration's listing, extended above
    dimension 2: a clique's value is the latest of its edges' birth years
    and ties order by the descending tuple of its edges' tie ranks. At
    max_dim=2 this is the reference engine's explicit complex.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    edge_time = {pair: birth.time for pair, birth in network.edges.items()}
    edge_rank = {pair: birth.tie_rank for pair, birth in network.edges.items()}
    vertex_time: dict[str, int] = {}
    adjacency: dict[str, set[str]] = defaultdict(set)
    for (u, v), t in edge_time.items():
        adjacency[u].add(v)
        adjacency[v].add(u)
        for x in (u, v):
            vertex_time[x] = min(t, vertex_time.get(x, t))

    entries: list[tuple[tuple[str, ...], int, object]] = []
    for vertex, t in vertex_time.items():
        entries.append(((vertex,), t, vertex))
    for pair in network.edges:
        entries.append((pair, edge_time[pair], edge_rank[pair]))

    def expand(clique: tuple[str, ...], candidates: set[str], value: int, ranks: tuple[int, ...]) -> None:
        for w in sorted(candidates):
            new_ranks = ranks
            new_value = value
            for x in clique:
                pair = (x, w) if x < w else (w, x)
                new_ranks = new_ranks + (edge_rank[pair],)
                new_value = max(new_value, edge_time[pair])
            bigger = clique + (w,)
            entries.append(
                (tuple(sorted(bigger)), new_value, tuple(sorted(new_ranks, reverse=True)))
            )
            if len(bigger) < max_dim + 1:
                expand(bigger, {x for x in candidates if x > w and x in adjacency[w]}, new_value, new_ranks)

    if max_dim >= 2:
        for u, v in network.edges:
            above = {w for w in adjacency[u] & adjacency[v] if w > v}
            expand((u, v), above, edge_time[(u, v)], (edge_rank[(u, v)],))
    return listed_filtration(entries)


# -- reference persistence and homology -----------------------------------------

def _xor_sorted(a: list[int], b: list[int]) -> list[int]:
    """Symmetric difference of two ascending index lists."""
    out: list[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif x > y:
            out.append(y)
            j += 1
        else:
            i += 1
            j += 1
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(b[j:])
    return out


def full_reduction(filtration):
    """Standard left-to-right column reduction of the full boundary matrix.

    No clearing, no union-find shortcut; returns ({(birth, death)}, {essential})
    as order-index sets. Independent of compute_persistence.
    """
    simplices = filtration.simplices
    index_of = {s.vertices: s.order_index for s in simplices}
    columns = [sorted(index_of[f] for f in facets(s.vertices)) for s in simplices]
    low_owner: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for j in range(len(columns)):
        col = columns[j]
        while col:
            owner = low_owner.get(col[-1])
            if owner is None:
                break
            col = _xor_sorted(col, columns[owner])
        columns[j] = col
        if col:
            low_owner[col[-1]] = j
            pairs.add((col[-1], j))
    births = {b for b, _ in pairs}
    essentials = {j for j in range(len(columns)) if not columns[j] and j not in births}
    return pairs, essentials


def reduction_records(filtration, pairs, essentials) -> list[DiagramRecord]:
    """full_reduction's features born in dimension 1 as sorted diagram
    records, the form the engine emits."""
    simplices = filtration.simplices
    out = [
        DiagramRecord(
            1, simplices[b].vertices, simplices[b].filtration_value, simplices[d].filtration_value
        )
        for b, d in pairs
        if simplices[b].dim == 1
    ]
    out.extend(
        DiagramRecord(1, simplices[i].vertices, simplices[i].filtration_value, None)
        for i in essentials
        if simplices[i].dim == 1
    )
    out.sort(key=lambda r: (r.birth_year, r.birth_vertices))
    return out


def engine_dim1_profile(records: Iterable[DiagramRecord], years) -> dict[int, int]:
    """Net dimension-1 class count per year from diagram records."""
    records = list(records)
    return {year: betti(records, 1, year) for year in years}


def betti(records: Iterable[DiagramRecord], dim: int, year: int) -> int:
    """Number of dim-dimensional classes alive just after the given year."""
    return sum(
        1
        for r in records
        if r.dim == dim
        and r.birth_year <= year
        and (r.death_year is None or r.death_year > year)
    )


# -- the explicit engine the implicit one replaced ------------------------------

@dataclass(frozen=True, slots=True)
class PersistencePair:
    birth: Simplex
    death: Simplex


@dataclass
class ReferenceDiagram:
    """Dimension-1 features: pairs (birth edge, death triangle) and the
    essential birth edges."""

    pairs: tuple[PersistencePair, ...]
    essentials: tuple[Simplex, ...]

    def records(self) -> list[DiagramRecord]:
        out = [
            DiagramRecord(1, p.birth.vertices, p.birth.filtration_value, p.death.filtration_value)
            for p in self.pairs
        ]
        out.extend(DiagramRecord(1, e.vertices, e.filtration_value, None) for e in self.essentials)
        out.sort(key=lambda r: (r.birth_year, r.birth_vertices))
        return out


def reference_persistence(filtration) -> ReferenceDiagram:
    """The explicit engine: union-find over the listed vertices and edges for
    the edges that close cycles, then every triangle column of the listing
    reduced in order, with compression and the rank-saturation stop, but no
    apparent pairs."""
    simplices = filtration.simplices
    edges = [s for s in simplices if len(s.vertices) == 2]
    triangles = [s for s in simplices if len(s.vertices) == 3]

    parent = {s.vertices[0]: s.vertices[0] for s in simplices if len(s.vertices) == 1}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    positive_edges: set[int] = set()
    for edge in edges:
        root_u, root_v = map(find, edge.vertices)
        if root_u == root_v:
            positive_edges.add(edge.order_index)
        else:
            parent[root_v] = root_u
    pairs_idx: list[tuple[int, int]] = []

    row_of = {s.vertices: i for i, s in enumerate(edges)}
    pivot_col: dict[int, int] = {}
    for s in triangles:
        if len(pivot_col) == len(positive_edges):
            break
        u, v, w = s.vertices
        column = (1 << row_of[(u, v)]) | (1 << row_of[(u, w)]) | (1 << row_of[(v, w)])
        while column:
            low = column.bit_length() - 1
            other = pivot_col.get(low)
            if other is None:
                break
            column ^= other
        if not column:
            continue
        low = column.bit_length() - 1
        remainder = column ^ (1 << low)
        while remainder:
            row = remainder.bit_length() - 1
            other = pivot_col.get(row)
            if other is None:
                remainder ^= 1 << row
            else:
                column ^= other
                remainder = column & ((1 << row) - 1)
        pivot_col[low] = column
        pairs_idx.append((edges[low].order_index, s.order_index))

    paired_dim1 = {edges[low].order_index for low in pivot_col}
    if not paired_dim1 <= positive_edges:
        raise InternalError(
            "reduction paired a component-merging edge as a cycle birth"
        )
    pairs = tuple(PersistencePair(simplices[b], simplices[d]) for b, d in sorted(pairs_idx))
    essentials = tuple(simplices[i] for i in sorted(positive_edges - paired_dim1))
    return ReferenceDiagram(pairs, essentials)


def _gf2_rank(matrix: np.ndarray) -> int:
    a = matrix.copy()
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivots = np.flatnonzero(a[rank:, c])
        if pivots.size == 0:
            continue
        p = rank + int(pivots[0])
        if p != rank:
            a[[rank, p]] = a[[p, rank]]
        hits = np.flatnonzero(a[:, c])
        hits = hits[hits != rank]
        if hits.size:
            a[hits] ^= a[rank]
        rank += 1
    return rank


def betti_oracle(
    filtration, year: int, *, max_dim: int = 2, max_simplices: int = 2000
) -> tuple[int, ...]:
    """Betti numbers 0..max_dim of the complex at the given year, by dense
    elimination.

    Intentionally naive and independent of compute_persistence: builds the
    full boundary matrices over Z2 and takes ranks, so
    beta_k = nullity(boundary_k) - rank(boundary_{k+1}). max_dim is the top
    dimension of the filtration; 2 for build_flag_filtration.
    """
    sub = [s for s in filtration.simplices if s.filtration_value <= year]
    if len(sub) > max_simplices:
        raise ValueError(
            f"oracle limited to {max_simplices} simplices, got {len(sub)}"
        )
    by_dim: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    for s in sub:
        by_dim[s.dim].append(s.vertices)
    local_index: dict[int, dict[tuple[str, ...], int]] = {
        d: {v: i for i, v in enumerate(vs)} for d, vs in by_dim.items()
    }
    ranks: dict[int, int] = {}
    for d in range(1, max_dim + 1):
        cols = by_dim.get(d, [])
        rows = by_dim.get(d - 1, [])
        if not cols or not rows:
            ranks[d] = 0
            continue
        m = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        row_index = local_index[d - 1]
        for j, vertices in enumerate(cols):
            for face in facets(vertices):
                m[row_index[face], j] = 1
        ranks[d] = _gf2_rank(m)
    result = []
    for k in range(max_dim + 1):
        n_k = len(by_dim.get(k, []))
        rank_k = ranks.get(k, 0)
        rank_k1 = ranks.get(k + 1, 0)
        result.append(n_k - rank_k - rank_k1)
    return tuple(result)
