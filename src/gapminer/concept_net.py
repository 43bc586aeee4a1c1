"""Per-discipline temporal concept co-occurrence networks and the label null model.

A network's nodes are fine-grained (level-3) concepts; an undirected edge
appears the first year any paper of the discipline co-assigns the two
concepts, and never leaves. All papers of that earliest year containing the
pair are recorded as introducers.
"""

from __future__ import annotations

import csv
import logging
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import CorpusStore, PaperRecord
from .errors import DataError, InfeasibleResamplingError, UnknownDisciplineError
from .util import derive_seed

logger = logging.getLogger(__name__)

Pair = tuple[str, str]
PaperRow = tuple[int, str, tuple[str, ...]]  # (year, paper_id, level-3 ids)

NETWORK_HEADER = ("u", "v", "time", "introducers")


@dataclass(frozen=True, slots=True)
class EdgeBirth:
    """First occurrence of a concept pair: the year, who introduced it, and a
    deterministic ordinal among edges sharing the year."""

    time: int
    introducers: frozenset[str]
    tie_rank: int


@dataclass
class TemporalConceptNetwork:
    discipline: str
    nodes: set[str]
    edges: dict[Pair, EdgeBirth]
    tau_max: int | None


def _canonical(u: str, v: str) -> Pair:
    return (u, v) if u < v else (v, u)


def _finish_network(discipline: str, raw: dict[Pair, tuple[int, frozenset[str]]]) -> TemporalConceptNetwork:
    """Assign tie ranks (ascending time, min introducer id, pair) and freeze."""
    ordered = sorted(raw.items(), key=lambda kv: (kv[1][0], min(kv[1][1]), kv[0]))
    edges = {
        pair: EdgeBirth(time, intro, rank)
        for rank, (pair, (time, intro)) in enumerate(ordered)
    }
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    tau_max = max((eb.time for eb in edges.values()), default=None)
    return TemporalConceptNetwork(discipline, nodes, edges, tau_max)


def discipline_rows(
    store: CorpusStore, labels: Mapping[str, tuple[str, ...]] | None = None
) -> dict[str, list[PaperRow]]:
    """Every discipline's papers as (year, paper_id, level-3 ids) rows, in
    (year, paper_id) order and by sorted discipline id, from one pass over
    the store. Labels from randomize_labels replace the level-3 ids when given.
    """
    rows: dict[str, list[PaperRow]] = {d: [] for d in store.disciplines()}
    for rec in store.iter_papers():
        row = (rec.year, rec.paper_id, rec.level3_ids if labels is None else labels[rec.paper_id])
        for discipline in rec.level0_ids:
            rows[discipline].append(row)
    return rows


def build_network(discipline: str, rows: Sequence[PaperRow]) -> TemporalConceptNetwork:
    """Build the discipline's cumulative co-occurrence network from its rows.

    Rows come in the deterministic (year, paper_id) order of discipline_rows;
    an edge's introducers are all papers of its first year that contain the
    pair. A discipline with no paper is unknown.
    """
    if not rows:
        raise UnknownDisciplineError(f"unknown discipline id {discipline!r}")
    raw: dict[Pair, tuple[int, frozenset[str]]] = {}
    for year, papers in groupby(rows, key=itemgetter(0)):
        batch: dict[Pair, set[str]] = {}
        for _, pid, concepts in papers:
            for u, v in combinations(concepts, 2):
                pair = _canonical(u, v)
                if pair in raw:
                    continue
                batch.setdefault(pair, set()).add(pid)
        for pair, intro in batch.items():
            raw[pair] = (year, frozenset(intro))
    return _finish_network(discipline, raw)


def save_network(network: TemporalConceptNetwork, path: str | Path) -> None:
    """Dump edges as delimited text: u, v, time, introducers (';'-joined)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(NETWORK_HEADER)
        for pair in sorted(network.edges):
            birth = network.edges[pair]
            writer.writerow(
                (pair[0], pair[1], birth.time, ";".join(sorted(birth.introducers)))
            )


def load_network(path: str | Path, discipline: str) -> TemporalConceptNetwork:
    """Read an edge dump; a malformed row raises DataError naming the file,
    the line and the stage that writes the file."""
    raw: dict[Pair, tuple[int, frozenset[str]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(NETWORK_HEADER):
            raise DataError(f"{path}: missing network header; rerun stage network")
        for row in reader:
            try:
                u, v, time, introducers = row
                raw[(u, v)] = (int(time), frozenset(introducers.split(";")))
            except ValueError as exc:
                raise DataError(
                    f"{path}, line {reader.line_num}: malformed network row {row!r} "
                    f"({exc}); rerun stage network"
                ) from exc
    return _finish_network(discipline, raw)


def _deal_hands(
    pool: list[str], sizes: list[int], rng: random.Random, max_attempts: int = 50
) -> list[list[str]]:
    """Deal the shuffled label pool into hands of the given sizes so that no
    hand contains a duplicate label; collisions are repaired by swapping."""
    distinct = len(set(pool))
    if max(sizes) > distinct:
        raise InfeasibleResamplingError(
            f"a paper needs {max(sizes)} distinct labels but the group has {distinct}"
        )
    for _ in range(max_attempts):
        rng.shuffle(pool)
        hands: list[list[str]] = []
        pos = 0
        for size in sizes:
            hands.append(pool[pos : pos + size])
            pos += size
        if _repair_collisions(hands, rng):
            return hands
    raise InfeasibleResamplingError("could not resolve duplicate labels after resampling")


def _repair_collisions(hands: list[list[str]], rng: random.Random) -> bool:
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


def randomize_labels(store: CorpusStore, seed: int) -> dict[str, tuple[str, ...]]:
    """Null model: permute level-3 labels across papers, per discipline.

    Returns each paper's new sorted level-3 ids. Each paper keeps its label
    count; the label multiset of every discipline is preserved exactly.
    Papers sharing the same set of discipline memberships are shuffled
    together, which keeps the multiset invariant exact even for
    multi-discipline papers. Labels within a paper stay distinct (collisions
    are resampled).
    """
    groups: dict[tuple[str, ...], list[PaperRecord]] = {}
    for rec in store.iter_papers():
        groups.setdefault(rec.level0_ids, []).append(rec)
    labels: dict[str, tuple[str, ...]] = {}
    for key in sorted(groups):
        members = groups[key]  # already in (year, paper_id) order
        rng = random.Random(derive_seed(seed, "labels", *key))
        pool = [c for rec in members for c in rec.level3_ids]
        sizes = [len(rec.level3_ids) for rec in members]
        hands = _deal_hands(pool, sizes, rng)
        for rec, hand in zip(members, hands):
            labels[rec.paper_id] = tuple(sorted(hand))
    return labels
