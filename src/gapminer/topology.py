"""Flag-complex filtrations and persistent homology over Z2 in dimensions 0 and 1.

Gaps are dimension-1 classes, and H1 of a flag complex depends only on its
2-skeleton, so the filtration stops at triangles. Union-find pairs
dimension 0 and marks the edges that create cycles; one pass over the
triangle columns finds the deaths of those cycles.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
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


@dataclass
class FlagFiltration:
    """Totally ordered simplices of a flag complex.

    Order is ascending (filtration value, dimension, tie key), so within a
    year vertices precede edges precede triangles and faces always precede
    cofaces.
    """

    simplices: list[Simplex]

    def __len__(self) -> int:
        return len(self.simplices)

    @classmethod
    def from_entries(
        cls, entries: Iterable[tuple[tuple[str, ...], int, object]]
    ) -> "FlagFiltration":
        """Build from (vertices, value, tie-key) triples; the caller
        guarantees face closure and sorted vertex tuples."""
        ordered = sorted(entries, key=lambda e: (e[1], len(e[0]), e[2]))
        return cls(
            [Simplex(vertices, value, index) for index, (vertices, value, _) in enumerate(ordered)]
        )


def build_flag_filtration(network: TemporalConceptNetwork) -> FlagFiltration:
    """Expand a temporal network into the 2-skeleton of its filtered flag complex.

    Every vertex, edge and triangle becomes a simplex whose value is the
    latest of its edges' birth years. Vertices enter with their first edge;
    isolated concepts never appear. Edge ties within a year follow the
    network's tie ranks; triangles order by their edges' ranks (latest first).
    """
    edges = network.edges
    vertex_time: dict[str, int] = {}
    adjacency: dict[str, set[str]] = defaultdict(set)
    for (u, v), birth in edges.items():
        adjacency[u].add(v)
        adjacency[v].add(u)
        for x in (u, v):
            t = vertex_time.get(x)
            if t is None or birth.time < t:
                vertex_time[x] = birth.time

    entries: list[tuple[tuple[str, ...], int, object]] = [
        ((vertex,), t, vertex) for vertex, t in vertex_time.items()
    ]
    for pair, birth in edges.items():
        entries.append((pair, birth.time, birth.tie_rank))
    for (u, v), uv in edges.items():
        for w in adjacency[u] & adjacency[v]:
            if w > v:
                uw, vw = edges[(u, w)], edges[(v, w)]
                entries.append(
                    (
                        (u, v, w),
                        max(uv.time, uw.time, vw.time),
                        tuple(sorted((uv.tie_rank, uw.tie_rank, vw.tie_rank), reverse=True)),
                    )
                )
    return FlagFiltration.from_entries(entries)


@dataclass(frozen=True, slots=True)
class PersistencePair:
    birth: Simplex
    death: Simplex
    dim: int


@dataclass(frozen=True, slots=True)
class EssentialClass:
    birth: Simplex
    dim: int


@dataclass(frozen=True, slots=True)
class DiagramRecord:
    """Flat form of one feature, as written to diagram dumps."""

    dim: int
    birth_vertices: tuple[str, ...]
    birth_year: int
    death_year: int | None


@dataclass
class PersistenceDiagram:
    pairs: tuple[PersistencePair, ...]
    essentials: tuple[EssentialClass, ...]

    def records(self) -> list[DiagramRecord]:
        out = [
            DiagramRecord(p.dim, p.birth.vertices, p.birth.filtration_value, p.death.filtration_value)
            for p in self.pairs
        ]
        out.extend(
            DiagramRecord(e.dim, e.birth.vertices, e.birth.filtration_value, None)
            for e in self.essentials
        )
        out.sort(key=lambda r: (r.dim, r.birth_year, r.birth_vertices))
        return out


class _BirthUnionFind:
    """Union-find over vertex order indices, tracking each component's oldest
    (minimum-index) vertex."""

    __slots__ = ("_parent", "_birth")

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._birth: dict[int, int] = {}

    def add(self, index: int) -> None:
        self._parent[index] = index
        self._birth[index] = index

    def find(self, index: int) -> int:
        parent = self._parent
        root = index
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    def merge(self, root_a: int, root_b: int) -> int:
        """Merge two distinct roots; returns the younger birth index, which is
        the class the connecting edge kills (elder rule)."""
        birth_a, birth_b = self._birth[root_a], self._birth[root_b]
        old, young = (birth_a, birth_b) if birth_a < birth_b else (birth_b, birth_a)
        self._parent[root_b] = root_a
        self._birth[root_a] = old
        return young

    def component_births(self) -> list[int]:
        return sorted(
            self._birth[i] for i in self._parent if self._parent[i] == i
        )


def compute_persistence(filtration: FlagFiltration) -> PersistenceDiagram:
    """Persistent homology of the 2-skeleton filtration over Z2, in
    dimensions 0 and 1.

    Dimension 0 runs on union-find (edges that merge components are deaths),
    which matches the standard column reduction outcome exactly. The edges
    that join already-connected vertices give birth to dimension-1 classes;
    reducing the triangle columns in filtration order pairs them with the
    triangles that kill them.
    """
    simplices = filtration.simplices
    vertex_index: dict[str, int] = {}
    edges: list[Simplex] = []
    triangles: list[Simplex] = []
    for s in simplices:
        if len(s.vertices) == 1:
            vertex_index[s.vertices[0]] = s.order_index
        elif len(s.vertices) == 2:
            edges.append(s)
        else:
            triangles.append(s)

    pairs_idx: list[tuple[int, int]] = []
    uf = _BirthUnionFind()
    for index in vertex_index.values():
        uf.add(index)
    positive_edges: set[int] = set()
    for edge in edges:
        u, v = edge.vertices
        root_u = uf.find(vertex_index[u])
        root_v = uf.find(vertex_index[v])
        if root_u == root_v:
            positive_edges.add(edge.order_index)
        else:
            young = uf.merge(root_u, root_v)
            pairs_idx.append((young, edge.order_index))
    essentials_idx = uf.component_births()

    # Columns are bitmask integers over edge row indices; XOR and bit_length
    # run at word speed, which is what makes 10^5-triangle disciplines
    # tractable. Stored pivot columns are compressed (pivot rows below their
    # own low eliminated), which shortens the chains that grind dependent
    # columns down to zero. The boundary rank cannot exceed the number of
    # cycle-creating edges; once reached, every remaining column provably
    # reduces to zero, so the pass stops.
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
    essentials_idx.extend(positive_edges - paired_dim1)

    pairs = tuple(
        PersistencePair(simplices[b], simplices[d], simplices[b].dim)
        for b, d in sorted(pairs_idx)
    )
    essentials = tuple(
        EssentialClass(simplices[i], simplices[i].dim) for i in sorted(essentials_idx)
    )
    return PersistenceDiagram(pairs, essentials)


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
