"""Per-paper categories, category share tables, and the null-model comparison.

A paper is a gap opener if it introduced any gap edge in any of its
disciplines; otherwise a novel-pair paper if it introduced any first-time
concept pair anywhere; otherwise it made no novel pairing.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Container, Iterable, Mapping, NamedTuple, Sequence

from .concept_net import (
    Pair,
    PaperRow,
    TemporalConceptNetwork,
    build_network,
    discipline_rows,
    label_pools,
    memberships,
    randomize_labels,
    store_rows,
)
from .corpus import CorpusStore
from .topology import network_gaps
from .util import derive_seed, parallel_map, read_csv, write_csv

class Category(str, Enum):
    GAP_OPENER = "GapOpener"
    NOVEL_PAIR_NON_GAP = "NovelPairNonGap"
    NO_NOVEL_PAIR = "NoNovelPair"


CATEGORIES = (Category.GAP_OPENER, Category.NOVEL_PAIR_NON_GAP, Category.NO_NOVEL_PAIR)

CLASSIFICATION_HEADER = ("paper_id", "category", "n_gap_edges", "n_novel_pairs")


class PaperClassification(NamedTuple):
    """A paper's category, the gap edges it introduced summed over its
    disciplines, and the distinct concept pairs it introduced anywhere,
    gap-opening ones included."""

    category: Category
    n_gap_edges: int
    n_novel_pairs: int


def _introducers(
    network: TemporalConceptNetwork, gap_pairs: AbstractSet[Pair]
) -> tuple[set[str], set[str]]:
    """The papers that introduced a gap edge of the network, and those that
    introduced any of its edges."""
    gap: set[str] = set()
    novel: set[str] = set()
    for pair, birth in network.edges.items():
        novel.update(birth.introducers)
        if pair in gap_pairs:
            gap.update(birth.introducers)
    return gap, novel


def _categorize(
    paper_ids: Iterable[str], gap: Container[str], novel: Container[str]
) -> dict[str, Category]:
    """The category rule, for real and null runs alike: gap openers
    introduced a gap edge in some discipline, novel-pair papers some other
    first-time pair, and the rest no new pair."""
    return {
        pid: Category.GAP_OPENER
        if pid in gap
        else Category.NOVEL_PAIR_NON_GAP
        if pid in novel
        else Category.NO_NOVEL_PAIR
        for pid in paper_ids
    }


def classify_all(store: CorpusStore, min_persistence: int) -> dict[str, PaperClassification]:
    """Classify every paper in the store exactly once, in the store's paper
    order, counting the gap edges and concept pairs it introduced. Each
    discipline's network is built from the store's own rows and its gap
    edges taken from `network_gaps`, as a null replicate takes them from
    dealt labels."""
    n_gap: Counter[str] = Counter()
    pairs: defaultdict[str, set[Pair]] = defaultdict(set)
    for discipline, rows in store_rows(store).items():
        network = build_network(discipline, rows)
        gap_pairs = network_gaps(network, min_persistence)
        for pair, birth in network.edges.items():
            for pid in birth.introducers:
                pairs[pid].add(pair)
            if pair in gap_pairs:
                n_gap.update(birth.introducers)
    categories = _categorize((rec.paper_id for rec in store.iter_papers()), n_gap, pairs)
    return {
        pid: PaperClassification(category, n_gap[pid], len(pairs.get(pid, ())))
        for pid, category in categories.items()
    }


@dataclass(frozen=True)
class ShareRow:
    grouping: str  # overall | discipline | year
    group: str
    category: Category
    count: float
    fraction: float
    source: str  # real | random
    stderr: float | None = None


GROUPINGS = ("overall", "discipline", "year")


def group_keys(store: CorpusStore, grouping: str) -> dict[str, tuple[str, ...]]:
    """Each paper's groups under one grouping."""
    if grouping == "overall":
        return {pid: ("",) for pid in store.papers}
    if grouping == "year":
        return {pid: (str(rec.year),) for pid, rec in store.papers.items()}
    if grouping == "discipline":
        # Multi-discipline papers count once per discipline; the overall
        # grouping counts each paper once, so the double-counting is confined
        # here and reported by the pipeline.
        return {pid: rec.level0_ids for pid, rec in store.papers.items()}
    raise ValueError(f"unknown grouping {grouping!r}")


def _shares(
    categories: Mapping[str, Category], keys: Mapping[str, Sequence[str]]
) -> list[tuple[str, Category, int, float]]:
    """(group, category, count, fraction) for every group, in sorted order,
    and every category: the one share count of real and null runs."""
    counts: dict[str, dict[Category, int]] = {}
    for pid, category in categories.items():
        for key in keys[pid]:
            tally = counts.get(key)
            if tally is None:
                tally = counts[key] = dict.fromkeys(CATEGORIES, 0)
            tally[category] += 1
    shares: list[tuple[str, Category, int, float]] = []
    for group in sorted(counts):
        tally = counts[group]
        total = sum(tally.values())
        shares.extend((group, category, n, n / total) for category, n in tally.items())
    return shares


def share_table(
    categories: Mapping[str, Category], keys: Mapping[str, Sequence[str]], grouping: str
) -> list[ShareRow]:
    """The real run's category shares per group; `keys` is `group_keys` of
    the grouping."""
    return [
        ShareRow(grouping, group, category, n, fraction, "real")
        for group, category, n, fraction in _shares(categories, keys)
    ]


def _null_task(task: tuple[str, Sequence[PaperRow], int]) -> tuple[set[str], set[str]]:
    """One discipline of one null replicate, from its labelled rows
    (discipline, rows, min_persistence): the papers that introduced a gap
    edge and those that introduced any edge. The null model's pool task."""
    discipline, rows, min_persistence = task
    network = build_network(discipline, rows)
    return _introducers(network, network_gaps(network, min_persistence))


def null_comparison(
    store: CorpusStore,
    seed: int,
    replicates: int,
    *,
    min_persistence: int = 1,
    threads: int = 1,
) -> list[ShareRow]:
    """Mean category shares over label-randomized replicates.

    The label groups, the paper order and each paper's group keys are
    computed once. Each replicate deals labels with a derived sub-seed,
    rebuilds every discipline network and takes its gap edges straight from
    the reduction; one pool runs the (replicate, discipline) tasks, each of
    which returns only the introducer sets that classification reads.
    Randomization leaves years and disciplines alone, so the real store's
    papers and groups serve every replicate. Rows report the mean count and
    mean fraction with the standard error of the fraction.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    pools = label_pools(store)
    papers = memberships(store)
    n_disciplines = len(store.disciplines())
    keys = {grouping: group_keys(store, grouping) for grouping in GROUPINGS}

    def tasks():
        for replicate in range(replicates):
            labels = randomize_labels(pools, derive_seed(seed, "null", replicate))
            for discipline, rows in discipline_rows(papers, labels).items():
                yield discipline, rows, min_persistence

    acc: dict[tuple[str, str, Category], list[tuple[float, float]]] = defaultdict(list)
    gap: set[str] = set()
    novel: set[str] = set()
    for done, (gap_d, novel_d) in enumerate(parallel_map(_null_task, tasks(), threads), 1):
        gap |= gap_d
        novel |= novel_d
        if done % n_disciplines:
            continue  # the replicate's other disciplines are still to come
        categories = _categorize((pid for _, pid, _ in papers), gap, novel)
        gap, novel = set(), set()
        for grouping in GROUPINGS:
            for group, category, n, fraction in _shares(categories, keys[grouping]):
                acc[(grouping, group, category)].append((n, fraction))
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


def write_classification_csv(
    classifications: Mapping[str, PaperClassification], path: Path
) -> None:
    """One row per paper, in the order of `classifications`: the store's, from
    classify_all."""
    rows = ((pid, cat.value, gap, novel) for pid, (cat, gap, novel) in classifications.items())
    write_csv(path, CLASSIFICATION_HEADER, rows)


def _category_row(row: list[str]) -> tuple[str, Category]:
    paper_id, category, _, _ = row
    return paper_id, Category(category)


def load_classification_csv(path: Path) -> dict[str, Category]:
    """Read the per-paper categories; a malformed row raises DataError."""
    return dict(read_csv(path, CLASSIFICATION_HEADER, _category_row))


def write_shares_csv(rows: Iterable[ShareRow], path: Path) -> None:
    write_csv(
        path,
        ("grouping", "group", "category", "count", "fraction", "source", "stderr"),
        (
            (r.grouping, r.group, r.category.value, r.count, r.fraction, r.source, r.stderr)
            for r in rows
        ),
    )
