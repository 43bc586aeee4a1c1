"""Per-discipline temporal concept co-occurrence networks and the label null model.

A network's nodes are fine-grained (level-3) concepts; an undirected edge
appears the first year any paper of the discipline co-assigns the two
concepts, and never leaves. All papers of that earliest year containing the
pair are recorded as introducers, in ascending id order. In a network file
they are one field, joined by ';', with each '\\' and ';' inside an id
escaped by a '\\'.
"""

from __future__ import annotations

import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import CorpusStore, PaperRecord
from .errors import DataError
from .util import derive_seed, read_csv, write_csv

Pair = tuple[str, str]
PaperRow = tuple[int, str, tuple[str, ...]]  # (year, paper_id, level-3 ids)
Membership = tuple[int, str, tuple[str, ...]]  # (year, paper_id, level-0 ids)

NETWORK_HEADER = ("u", "v", "time", "introducers")
_INTRODUCER = re.compile(r"(?:[^\\;]|\\.)+", re.S)  # one escaped id
_ESCAPED = re.compile(r"\\(.)", re.S)


class EdgeBirth(NamedTuple):
    """First occurrence of a concept pair: the year, who introduced it (ids
    in ascending order), and its tie rank, the edge's position in the (time,
    min introducer id, pair) order of its network, which holds its edges in
    that order."""

    time: int
    introducers: tuple[str, ...]
    tie_rank: int


@dataclass
class TemporalConceptNetwork:
    """A discipline's edges, held in tie-rank order."""

    discipline: str
    edges: dict[Pair, EdgeBirth]


def _finish_network(discipline: str, raw: dict[Pair, tuple[int, tuple[str, ...]]]) -> TemporalConceptNetwork:
    """Assign tie ranks (ascending time, min introducer id, pair) and freeze."""
    ordered = sorted(raw.items(), key=lambda kv: (kv[1][0], kv[1][1][0], kv[0]))
    return TemporalConceptNetwork(
        discipline,
        {pair: EdgeBirth(time, intro, rank) for rank, (pair, (time, intro)) in enumerate(ordered)},
    )


def memberships(store: CorpusStore) -> list[Membership]:
    """Every paper's disciplines, in (year, paper_id) order: the part of
    discipline_rows that relabelling leaves alone."""
    return [(rec.year, rec.paper_id, rec.level0_ids) for rec in store.iter_papers()]


def discipline_rows(
    papers: Sequence[Membership], labels: Mapping[str, tuple[str, ...]]
) -> dict[str, list[PaperRow]]:
    """Every discipline's papers as (year, paper_id, level-3 ids) rows, in
    the order of `papers` and by sorted discipline id, with each paper's
    level-3 ids from `labels`: the store's own for the real networks, those
    of randomize_labels for a null replicate."""
    rows: defaultdict[str, list[PaperRow]] = defaultdict(list)
    for year, pid, disciplines in papers:
        row = (year, pid, labels[pid])
        for discipline in disciplines:
            rows[discipline].append(row)
    return {d: rows[d] for d in sorted(rows)}


def store_rows(store: CorpusStore) -> dict[str, list[PaperRow]]:
    """discipline_rows with the store's own labels: the rows every real
    network is built from."""
    labels = {pid: rec.level3_ids for pid, rec in store.papers.items()}
    return discipline_rows(memberships(store), labels)


def build_network(discipline: str, rows: Sequence[PaperRow]) -> TemporalConceptNetwork:
    """Build the discipline's cumulative co-occurrence network from its rows.

    Rows come in the deterministic (year, paper_id) order of discipline_rows,
    each with its concept ids sorted; an edge's introducers are all papers
    of its first year that contain the pair, met in ascending id order.
    Within a year a pair is first met at its smallest introducer, and one
    paper's pairs come in pair order, so the order edges are first met in is
    the tie-rank order (ascending time, min introducer id, pair) with no
    sort. A discipline with no paper is unknown.
    """
    if not rows:
        raise DataError(f"unknown discipline id {discipline!r}")
    edges: dict[Pair, EdgeBirth] = {}
    for year, papers in groupby(rows, key=itemgetter(0)):
        batch: dict[Pair, list[str]] = {}
        for _, pid, concepts in papers:
            for pair in combinations(concepts, 2):
                if pair in edges:
                    continue
                introducers = batch.get(pair)
                if introducers is None:
                    batch[pair] = [pid]
                else:
                    introducers.append(pid)
        rank = len(edges)
        for pair, introducers in batch.items():
            edges[pair] = EdgeBirth(year, tuple(introducers), rank)
            rank += 1
    return TemporalConceptNetwork(discipline, edges)


def _join_ids(ids: tuple[str, ...]) -> str:
    """The introducers field: the ids, escaped, ';'-joined."""
    return ";".join(pid.replace("\\", "\\\\").replace(";", "\\;") for pid in ids)


def _split_ids(field: str) -> tuple[str, ...]:
    """The ids of an introducers field; one _join_ids would not write, or
    one whose ids are not strictly ascending, is a ValueError."""
    ids = tuple(_ESCAPED.sub(itemgetter(1), pid) for pid in _INTRODUCER.findall(field))
    if not ids or _join_ids(ids) != field or any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError(f"malformed introducers {field!r}")
    return ids


def _edge_row(row: list[str]) -> tuple[Pair, tuple[int, tuple[str, ...]]]:
    u, v, time, introducers = row
    return (u, v), (int(time), _split_ids(introducers))


def save_network(network: TemporalConceptNetwork, path: str | Path) -> None:
    """Dump edges as delimited text: u, v, time, introducers."""
    rows = ((u, v, b.time, _join_ids(b.introducers)) for (u, v), b in sorted(network.edges.items()))
    write_csv(path, NETWORK_HEADER, rows)


def load_network(path: str | Path, discipline: str) -> TemporalConceptNetwork:
    """Read an edge dump; a malformed row raises DataError (see read_csv)."""
    return _finish_network(discipline, dict(read_csv(path, NETWORK_HEADER, _edge_row)))


class LabelPool(NamedTuple):
    """One group of the label null model: the papers sharing one set of
    discipline memberships, in (year, paper_id) order, with their level-3
    labels concatenated in that order and each paper's label count."""

    key: tuple[str, ...]
    paper_ids: tuple[str, ...]
    labels: tuple[str, ...]
    sizes: tuple[int, ...]


def label_pools(store: CorpusStore) -> list[LabelPool]:
    """The store's label groups, by sorted membership key: the part of the
    null model that no replicate changes. A paper needing more distinct
    labels than its group holds makes every dealing infeasible."""
    groups: dict[tuple[str, ...], list[PaperRecord]] = {}
    for rec in store.iter_papers():
        groups.setdefault(rec.level0_ids, []).append(rec)
    pools: list[LabelPool] = []
    for key in sorted(groups):
        members = groups[key]
        hands = [rec.level3_ids for rec in members]
        labels = tuple(c for hand in hands for c in hand)
        sizes = tuple(map(len, hands))
        distinct = len(set(labels))
        if max(sizes) > distinct:
            raise DataError(
                f"a paper needs {max(sizes)} distinct labels but the group has {distinct}"
            )
        pools.append(LabelPool(key, tuple(rec.paper_id for rec in members), labels, sizes))
    return pools


def _deal_hands(pool: list[str], sizes: Sequence[int], rng: random.Random) -> list[list[str]]:
    """Deal the shuffled label pool into hands of the given sizes so that no
    hand contains a duplicate label; collisions are repaired by swapping, and
    a dealing beyond repair is shuffled again, up to 50 times.

    The shuffle is `rng.shuffle(pool)` inlined: each swap index is drawn as
    getrandbits of (i + 1).bit_length() bits, redrawn while out of range, so
    the random stream and every hand are those of `random.shuffle`.
    """
    getrandbits = rng.getrandbits
    for _ in range(50):
        for i in range(len(pool) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            pool[i], pool[j] = pool[j], pool[i]
        hands: list[list[str]] = []
        pos = 0
        for size in sizes:
            hands.append(pool[pos : pos + size])
            pos += size
        if _repair_collisions(hands, rng):
            return hands
    raise DataError("could not resolve duplicate labels after resampling")


def _repair_collisions(hands: list[list[str]], rng: random.Random) -> bool:
    n = len(hands)
    for _ in range(200):
        dirty = False
        for i, hand in enumerate(hands):
            if len(set(hand)) == len(hand):
                continue
            counts = Counter(hand)
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


def randomize_labels(pools: Sequence[LabelPool], seed: int) -> dict[str, tuple[str, ...]]:
    """Null model: permute level-3 labels across papers, per discipline.

    Deals each group of `label_pools(store)` with its own sub-seed and
    returns each paper's new sorted level-3 ids. Each paper keeps its label
    count; the label multiset of every discipline is preserved exactly.
    Papers sharing the same set of discipline memberships are shuffled
    together, which keeps the multiset invariant exact even for
    multi-discipline papers. Labels within a paper stay distinct (collisions
    are resampled).
    """
    labels: dict[str, tuple[str, ...]] = {}
    for pool in pools:
        rng = random.Random(derive_seed(seed, "labels", *pool.key))
        hands = _deal_hands(list(pool.labels), pool.sizes, rng)
        for pid, hand in zip(pool.paper_ids, hands):
            hand.sort()
            labels[pid] = tuple(hand)
    return labels
