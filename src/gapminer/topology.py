"""Flag-complex filtrations and persistent homology over Z2 in dimensions 0 and 1.

Gaps are dimension-1 classes, and H1 of a flag complex depends only on its
2-skeleton, so the filtration stops at triangles. The complex is implicit:
edge tie ranks are global and ascend in time, so one walk over the edges in
rank order meets them in filtration order. On the way, union-find pairs
dimension 0 and marks the edges that close cycles, and every triangle is
listed at its youngest edge, which always closes a cycle. The first
triangle listed at an edge kills that edge's cycle with no column work (an
apparent pair); one pass over the other triangle columns finds the
remaining cycle deaths.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable

from .concept_net import TemporalConceptNetwork
from .errors import DataError, InternalError

Pair = tuple[str, str]

DIAGRAM_HEADER = ("dim", "birth_u", "birth_v", "birth_year", "death_year")


@dataclass(frozen=True, slots=True)
class Simplex:
    vertices: tuple[str, ...]
    filtration_value: int
    order_index: int

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True, slots=True)
class DiagramRecord:
    """Flat form of one feature, as written to diagram dumps."""

    dim: int
    birth_vertices: tuple[str, ...]
    birth_year: int
    death_year: int | None


@dataclass
class FlagFiltration:
    """The 2-skeleton of a network's filtered flag complex, held implicitly.

    edges[r] is the edge of tie rank r as (u, v, year). cofaces holds, in
    ascending r, each edge r that is the youngest edge of some triangles,
    with the (higher, lower) ranks of those triangles' other two edges in
    ascending order: since ranks ascend in time, that is the triangles'
    filtration order, (value, descending rank triple). dim0 holds the
    dimension-0 features and cycle_edges the ranks of the edges that closed
    a cycle, both found by the walk that built the complex.
    """

    vertex_year: dict[str, int]
    edges: list[tuple[str, str, int]]
    cofaces: list[tuple[int, list[tuple[int, int]]]]
    n_triangles: int
    dim0: list[DiagramRecord]
    cycle_edges: list[int]

    def __len__(self) -> int:
        return len(self.vertex_year) + len(self.edges) + self.n_triangles

    @cached_property
    def simplices(self) -> list[Simplex]:
        """Every simplex in filtration order, built on first use: ascending
        (value, dimension, tie key), so within a year vertices (by name)
        precede edges (by rank) precede triangles (by descending rank
        triple), and faces always precede cofaces."""
        entries: list[tuple[tuple[str, ...], int, int, object]] = [
            ((x,), t, 0, x) for x, t in self.vertex_year.items()
        ]
        entries.extend(((u, v), t, 1, r) for r, (u, v, t) in enumerate(self.edges))
        for r, group in self.cofaces:
            u, v, t = self.edges[r]
            for hi, lo in group:
                a, b, _ = self.edges[hi]
                w = b if a in (u, v) else a
                entries.append((tuple(sorted((u, v, w))), t, 2, (r, hi, lo)))
        entries.sort(key=lambda e: e[1:])
        return [Simplex(vertices, t, i) for i, (vertices, t, _, _) in enumerate(entries)]


def _find(parent: dict[str, str], x: str) -> str:
    root = x
    while parent[root] != root:
        parent[root] = parent[parent[root]]
        root = parent[root]
    return root


def build_flag_filtration(network: TemporalConceptNetwork) -> FlagFiltration:
    """Walk a temporal network's edges once in rank order into its flag complex.

    A vertex enters with its first edge, and a simplex's value is the latest
    of its edges' birth years; isolated concepts never appear. Union-find
    over the vertices, ordered by (year, name), applies the elder rule: an
    edge joining two components kills the younger one. An edge whose ends
    are already connected closes a cycle, and the neighbours its ends
    already share give exactly the triangles it is the youngest edge of.
    """
    vertex_year: dict[str, int] = {}
    neighbours: dict[str, dict[str, int]] = {}  # vertex -> {neighbour: edge rank}
    parent: dict[str, str] = {}
    oldest: dict[str, tuple[int, str]] = {}  # root -> (year, name) of its oldest vertex
    edges: list[tuple[str, str, int]] = []
    cofaces: list[tuple[int, list[tuple[int, int]]]] = []
    n_triangles = 0
    dim0: list[DiagramRecord] = []
    cycle_edges: list[int] = []
    ordered = sorted(network.edges.items(), key=lambda item: item[1].tie_rank)
    for r, ((u, v), birth) in enumerate(ordered):
        year = birth.time
        edges.append((u, v, year))
        for x in (u, v):
            if x not in vertex_year:
                vertex_year[x] = year
                neighbours[x] = {}
                parent[x] = x
                oldest[x] = (year, x)
        root_u, root_v = _find(parent, u), _find(parent, v)
        near_u, near_v = neighbours[u], neighbours[v]
        if root_u != root_v:
            old, young = oldest[root_u], oldest[root_v]
            if young < old:
                old, young = young, old
            parent[root_v] = root_u
            oldest[root_u] = old
            dim0.append(DiagramRecord(0, (young[1],), young[0], year))
        else:
            cycle_edges.append(r)
            common = near_u.keys() & near_v.keys()
            if common:
                n_triangles += len(common)
                group = sorted(
                    (a, b) if a > b else (b, a)
                    for a, b in ((near_u[w], near_v[w]) for w in common)
                )
                cofaces.append((r, group))
        near_u[v] = r
        near_v[u] = r
    dim0.extend(
        DiagramRecord(0, (name,), t, None)
        for x, (t, name) in oldest.items()
        if parent[x] == x
    )
    return FlagFiltration(vertex_year, edges, cofaces, n_triangles, dim0, cycle_edges)


@dataclass
class PersistenceDiagram:
    """Features in dimensions 0 and 1: pairs die, essentials never do."""

    pairs: tuple[DiagramRecord, ...]
    essentials: tuple[DiagramRecord, ...]

    def records(self) -> list[DiagramRecord]:
        out = [*self.pairs, *self.essentials]
        out.sort(key=lambda r: (r.dim, r.birth_year, r.birth_vertices))
        return out


def compute_persistence(filtration: FlagFiltration) -> PersistenceDiagram:
    """Persistent homology of the 2-skeleton filtration over Z2, in
    dimensions 0 and 1.

    Dimension 0 and the cycle-closing edges come from the filtration's
    union-find. The triangle columns are reduced in filtration order; each
    edge's first triangle has that edge as its pivot and no older column can
    share it, so it is stored as the pivot column as it stands.
    """
    edges = filtration.edges
    n_cycles = len(filtration.cycle_edges)
    # Columns are bitmask integers over edge ranks; XOR and bit_length run at
    # word speed, which is what makes 10^5-triangle disciplines tractable.
    # Reduced pivot columns are compressed (pivot rows below their own low
    # eliminated), which shortens the chains that grind dependent columns
    # down to zero. The boundary rank cannot exceed the number of
    # cycle-closing edges; once reached, every remaining column provably
    # reduces to zero, so the pass stops.
    pivot_col: dict[int, int] = {}
    deaths: list[tuple[int, int]] = []  # (killed edge rank, youngest edge rank of the killer)
    for r, group in filtration.cofaces:
        if len(pivot_col) == n_cycles:
            break
        hi, lo = group[0]
        pivot_col[r] = (1 << r) | (1 << hi) | (1 << lo)
        deaths.append((r, r))
        for hi, lo in islice(group, 1, None):
            if len(pivot_col) == n_cycles:
                break
            column = (1 << r) | (1 << hi) | (1 << lo)
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
            deaths.append((low, r))

    if not pivot_col.keys() <= set(filtration.cycle_edges):
        raise InternalError(
            "reduction paired a component-merging edge as a cycle birth"
        )
    pairs = [rec for rec in filtration.dim0 if rec.death_year is not None]
    pairs.extend(
        DiagramRecord(1, edges[b][:2], edges[b][2], edges[d][2]) for b, d in deaths
    )
    essentials = [rec for rec in filtration.dim0 if rec.death_year is None]
    essentials.extend(
        DiagramRecord(1, edges[b][:2], edges[b][2], None)
        for b in filtration.cycle_edges
        if b not in pivot_col
    )
    return PersistenceDiagram(tuple(pairs), tuple(essentials))


def network_diagram(network: TemporalConceptNetwork) -> tuple[list[DiagramRecord], int]:
    """The diagram rows of a network's flag complex, sorted as dumped, and
    the complex's simplex count. The one topology path of real and null runs."""
    filtration = build_flag_filtration(network)
    return compute_persistence(filtration).records(), len(filtration)


def gap_edges(records: Iterable[DiagramRecord], min_persistence: int = 1) -> set[Pair]:
    """Dimension-1 birth edges: essential, or persisting at least the given
    number of years. These concept pairs are the detected gaps."""
    if min_persistence < 0:
        raise ValueError("min_persistence must be non-negative")
    result: set[Pair] = set()
    for rec in records:
        if rec.dim != 1:
            continue
        if rec.death_year is None or rec.death_year - rec.birth_year >= min_persistence:
            u, v = rec.birth_vertices
            result.add((u, v))
    return result


def save_diagram_records(records: Iterable[DiagramRecord], path: str | Path) -> None:
    """Dump features as: dim, birth_u, birth_v, birth_year, death_year|inf.

    Dimension-0 births are vertices (birth_v empty); dimension-1 births are
    edges.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DIAGRAM_HEADER)
        for rec in records:
            death = "inf" if rec.death_year is None else rec.death_year
            birth_u, birth_v = (*rec.birth_vertices, "")[:2]
            writer.writerow((rec.dim, birth_u, birth_v, rec.birth_year, death))


def load_diagram_records(path: str | Path) -> list[DiagramRecord]:
    """Read a diagram dump; a malformed row raises DataError naming the file,
    the line and the stage that writes the file."""
    records: list[DiagramRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(DIAGRAM_HEADER):
            raise DataError(f"{path}: missing diagram header; rerun stage persist")
        for row in reader:
            try:
                dim, birth_u, birth_v, birth_year, death_year = row
                records.append(
                    DiagramRecord(
                        int(dim),
                        (birth_u, birth_v) if birth_v else (birth_u,),
                        int(birth_year),
                        None if death_year == "inf" else int(death_year),
                    )
                )
            except ValueError as exc:
                raise DataError(
                    f"{path}, line {reader.line_num}: malformed diagram row {row!r} "
                    f"({exc}); rerun stage persist"
                ) from exc
    return records
