"""Per-paper categories, category share tables, and the null-model comparison.

A paper is a gap opener if it introduced any gap edge in any of its
disciplines; otherwise a novel-pair paper if it introduced any first-time
concept pair anywhere; otherwise it made no novel pairing.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .concept_net import (
    Pair,
    PaperRow,
    TemporalConceptNetwork,
    build_network,
    discipline_rows,
    randomize_labels,
)
from .corpus import CorpusStore
from .errors import DataError, MissingDependencyError
from .topology import gap_edges, network_diagram
from .util import derive_seed, parallel_map, write_csv

logger = logging.getLogger(__name__)


class Category(str, Enum):
    GAP_OPENER = "GapOpener"
    NOVEL_PAIR_NON_GAP = "NovelPairNonGap"
    NO_NOVEL_PAIR = "NoNovelPair"


CATEGORIES = (Category.GAP_OPENER, Category.NOVEL_PAIR_NON_GAP, Category.NO_NOVEL_PAIR)

CLASSIFICATION_HEADER = ("paper_id", "category", "n_gap_edges", "n_novel_pairs")

KIND_GAP = "gap"
KIND_NOVEL = "novel"

Evidence = tuple[str, Pair, str]  # (discipline, concept pair, gap|novel)


@dataclass(frozen=True)
class PaperClassification:
    paper_id: str
    category: Category
    evidence: tuple[Evidence, ...]

    @property
    def gap_pair_count(self) -> int:
        return sum(1 for _, _, kind in self.evidence if kind == KIND_GAP)

    @property
    def novel_pair_count(self) -> int:
        """All first-introduced pairs, gap-opening ones included."""
        return len({pair for _, pair, _ in self.evidence})


@dataclass
class DisciplineTopology:
    """One discipline's network together with its extracted gap pairs."""

    discipline: str
    network: TemporalConceptNetwork
    gap_pairs: frozenset[Pair]


def discipline_topology(task: tuple[str, Sequence[PaperRow], int]) -> DisciplineTopology:
    """Network and gap pairs of one discipline from its labelled rows
    (discipline, rows, min_persistence): the null model's pool task."""
    discipline, rows, min_persistence = task
    network = build_network(discipline, rows)
    records, _ = network_diagram(network)
    return DisciplineTopology(discipline, network, frozenset(gap_edges(records, min_persistence)))


def classify_all(
    store: CorpusStore, topologies: Mapping[str, DisciplineTopology]
) -> dict[str, PaperClassification]:
    """Classify every paper in the store exactly once."""
    needed = {d for rec in store.papers.values() for d in rec.level0_ids}
    missing = sorted(needed - set(topologies))
    if missing:
        raise MissingDependencyError(
            f"no diagram available for disciplines containing papers: {missing}"
        )
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
        result[rec.paper_id] = PaperClassification(rec.paper_id, category, entries)
    return result


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


def _group_keys(store: CorpusStore, paper_id: str, grouping: str) -> list[str]:
    rec = store.papers[paper_id]
    if grouping == "overall":
        return [""]
    if grouping == "year":
        return [str(rec.year)]
    if grouping == "discipline":
        # Multi-discipline papers count once per discipline; the overall
        # grouping counts each paper once, so the double-counting is confined
        # here and reported by the pipeline.
        return list(rec.level0_ids)
    raise ValueError(f"unknown grouping {grouping!r}")


def share_table(
    classifications: Mapping[str, PaperClassification],
    store: CorpusStore,
    grouping: str,
    *,
    source: str = "real",
) -> list[ShareRow]:
    counts: dict[str, dict[Category, int]] = defaultdict(lambda: defaultdict(int))
    for pid, cls in classifications.items():
        for key in _group_keys(store, pid, grouping):
            counts[key][cls.category] += 1
    rows: list[ShareRow] = []
    for group in sorted(counts):
        total = sum(counts[group].values())
        for category in CATEGORIES:
            n = counts[group][category]
            rows.append(ShareRow(grouping, group, category, n, n / total, source))
    return rows


def null_comparison(
    store: CorpusStore,
    seed: int,
    replicates: int,
    *,
    min_persistence: int = 1,
    groupings: Sequence[str] = GROUPINGS,
    threads: int = 1,
) -> list[ShareRow]:
    """Mean category shares over label-randomized replicates.

    Each replicate randomizes labels with a derived sub-seed, rebuilds every
    discipline network, recomputes persistence, and classifies. One pool runs
    the (replicate, discipline) tasks; randomization leaves years and
    disciplines alone, so the real store classifies and groups every
    replicate. Rows report the mean count and mean fraction with the standard
    error of the fraction.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    n_disciplines = len(store.disciplines())

    def tasks():
        for replicate in range(replicates):
            labels = randomize_labels(store, derive_seed(seed, "null", replicate))
            for discipline, rows in discipline_rows(store, labels).items():
                yield discipline, rows, min_persistence

    acc: dict[tuple[str, str, Category], list[tuple[float, float]]] = defaultdict(list)
    topologies: dict[str, DisciplineTopology] = {}
    for topology in parallel_map(discipline_topology, tasks(), threads):
        topologies[topology.discipline] = topology
        if len(topologies) < n_disciplines:
            continue  # the replicate's other disciplines are still to come
        classifications = classify_all(store, topologies)
        topologies = {}
        for grouping in groupings:
            for row in share_table(classifications, store, grouping):
                acc[(row.grouping, row.group, row.category)].append(
                    (row.count, row.fraction)
                )
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
    classifications: Mapping[str, PaperClassification], store: CorpusStore, path: Path
) -> None:
    rows = []
    for rec in store.iter_papers():
        cls = classifications[rec.paper_id]
        rows.append(
            (rec.paper_id, cls.category.value, cls.gap_pair_count, cls.novel_pair_count)
        )
    write_csv(path, CLASSIFICATION_HEADER, rows)


def load_classification_csv(path: Path) -> dict[str, Category]:
    """Read the per-paper categories; a malformed row raises DataError naming
    the file, the line and the stage that writes the file."""
    categories: dict[str, Category] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(CLASSIFICATION_HEADER):
            raise DataError(f"{path}: missing classification header; rerun stage classify")
        for row in reader:
            try:
                paper_id, category, _, _ = row
                categories[paper_id] = Category(category)
            except ValueError as exc:
                raise DataError(
                    f"{path}, line {reader.line_num}: malformed classification row {row!r} "
                    f"({exc}); rerun stage classify"
                ) from exc
    return categories


def write_shares_csv(rows: Iterable[ShareRow], path: Path) -> None:
    write_csv(
        path,
        ("grouping", "group", "category", "count", "fraction", "source", "stderr"),
        [
            (r.grouping, r.group, r.category.value, r.count, r.fraction, r.source, r.stderr)
            for r in rows
        ],
    )
