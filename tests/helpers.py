"""Shared test fixtures: record builders, random temporal graphs, store-level
wrappers over the null model's per-discipline task, label checks, the
reference machinery the dimension-0/1 engine is checked against (a flag
complex of any dimension, the naive full column reduction, and the dense
Betti oracle), and the randrange citation-switching loop the novelty
baseline's rewiring is checked against."""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from gapminer.classify import DisciplineTopology, discipline_topology
from gapminer.concept_net import (
    TemporalConceptNetwork,
    build_network,
    discipline_rows,
    network_from_edge_times,
)
from gapminer.corpus import SCHEMA_VERSION, CorpusStore, PaperRecord, validate_record
from gapminer.topology import FlagFiltration, PersistenceDiagram, save_diagram_records


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


# -- store-level views of the per-discipline functions ---------------------------

def network_of(store: CorpusStore, discipline: str) -> TemporalConceptNetwork:
    """The discipline's network, built from its rows as the pipeline does."""
    return build_network(discipline, discipline_rows(store).get(discipline, []))


def analyze_discipline(
    store: CorpusStore, discipline: str, *, min_persistence: int = 1
) -> DisciplineTopology:
    """Network and gap pairs of one discipline with the store's own labels."""
    rows = discipline_rows(store)[discipline]
    return discipline_topology((discipline, rows, min_persistence))


def analyze_store(
    store: CorpusStore, *, min_persistence: int = 1
) -> dict[str, DisciplineTopology]:
    """Networks and gap pairs of every discipline, through the null model's task."""
    return {
        d: discipline_topology((d, rows, min_persistence))
        for d, rows in discipline_rows(store).items()
    }


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


# -- reference citation switching -------------------------------------------------

def reference_rewire(
    edges: Sequence[tuple[str, str]], rng: random.Random, factor: int
) -> list[tuple[str, str]]:
    """The per-paper-set randrange loop that metrics._rewire must equal: same
    output list and same final rng state."""
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


def step_boundaries(filtration: FlagFiltration) -> dict[int, tuple[int, int]]:
    """Each filtration value (year) with the [start, end) index span of its
    simplices, in ascending order."""
    spans: dict[int, tuple[int, int]] = {}
    for i, s in enumerate(filtration.simplices):
        start = spans.get(s.filtration_value, (i, i))[0]
        spans[s.filtration_value] = (start, i + 1)
    return spans


def check_filtration(filtration: FlagFiltration) -> None:
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
) -> FlagFiltration:
    """Validated filtration from (vertices, value) pairs; ties break on the
    vertex tuple."""
    filtration = FlagFiltration.from_entries((v, t, v) for v, t in entries)
    check_filtration(filtration)
    return filtration


def clique_filtration(network: TemporalConceptNetwork, max_dim: int) -> FlagFiltration:
    """Every clique of up to max_dim + 1 vertices, by recursive expansion.

    The same total order as build_flag_filtration, extended above dimension
    2: a clique's value is the latest of its edges' birth years and ties
    order by the descending tuple of its edges' tie ranks.
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
    return FlagFiltration.from_entries(entries)


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


def full_reduction(filtration: FlagFiltration):
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


def engine_dim1_profile(diagram, years):
    """Net dimension-1 class count per year from the engine's diagram."""
    profile = {}
    for year in years:
        births = sum(
            1
            for p in diagram.pairs
            if p.dim == 1 and p.birth.filtration_value <= year
        ) + sum(
            1
            for e in diagram.essentials
            if e.dim == 1 and e.birth.filtration_value <= year
        )
        deaths = sum(
            1
            for p in diagram.pairs
            if p.dim == 1 and p.death.filtration_value <= year
        )
        profile[year] = births - deaths
    return profile


def betti(diagram: PersistenceDiagram, dim: int, year: int) -> int:
    """Number of dim-dimensional classes alive just after the given year."""
    alive = sum(
        1
        for p in diagram.pairs
        if p.dim == dim
        and p.birth.filtration_value <= year
        and p.death.filtration_value > year
    )
    alive += sum(
        1
        for e in diagram.essentials
        if e.dim == dim and e.birth.filtration_value <= year
    )
    return alive


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
    filtration: FlagFiltration, year: int, *, max_dim: int = 2, max_simplices: int = 2000
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


def save_diagram(diagram: PersistenceDiagram, path) -> None:
    save_diagram_records(diagram.records(), path)
