"""Flag-complex filtrations and persistent homology over Z2 in dimension 1.

Gaps are dimension-1 classes, and H1 of a flag complex depends only on its
2-skeleton, so the filtration stops at triangles. The complex is implicit:
edge tie ranks are global and ascend in time, so one walk over the edges in
rank order meets them in filtration order. On the way, union-find marks the
edges that close cycles, and every triangle is listed at its youngest edge,
which always closes a cycle. The first triangle listed at an edge kills that
edge's cycle with no column work (an apparent pair); one pass over the other
triangle columns finds the remaining cycle deaths. Windowed at p years,
that pass finds only the deaths of cycles that persist less than p years,
and the cycle edges it leaves unpaired are the gaps. Components are never
paired: nothing reads dimension 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable

from .concept_net import TemporalConceptNetwork
from .errors import InternalError
from .util import read_csv, write_csv

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
    filtration order, (value, descending rank triple). cycle_edges holds
    the ranks of the edges that closed a cycle, found by the walk that built
    the complex.
    """

    n_vertices: int
    edges: list[tuple[str, str, int]]
    cofaces: list[tuple[int, list[tuple[int, int]]]]
    n_triangles: int
    cycle_edges: list[int]

    def __len__(self) -> int:
        return self.n_vertices + len(self.edges) + self.n_triangles

    @cached_property
    def simplices(self) -> list[Simplex]:
        """Every simplex in filtration order, built on first use: ascending
        (value, dimension, tie key), so within a year vertices (by name)
        precede edges (by rank) precede triangles (by descending rank
        triple), and faces always precede cofaces. A vertex's value is its
        first edge's year."""
        vertex_year: dict[str, int] = {}
        for u, v, t in self.edges:
            vertex_year.setdefault(u, t)
            vertex_year.setdefault(v, t)
        entries: list[tuple[tuple[str, ...], int, int, object]] = [
            ((x,), t, 0, x) for x, t in vertex_year.items()
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


def build_flag_filtration(network: TemporalConceptNetwork) -> FlagFiltration:
    """Walk a temporal network's edges once in rank order into its flag complex.

    The network's edges must be held in tie-rank order, as every network
    constructor leaves them; an edge out of that order is an InternalError.
    A vertex enters with its first edge, and a simplex's value is the latest
    of its edges' birth years; isolated concepts never appear. Union-find
    over the vertices finds the edges whose ends are already connected:
    each closes a cycle, and the neighbours its ends already share give
    exactly the triangles it is the youngest edge of.
    """
    neighbours: dict[str, dict[str, int]] = {}  # vertex -> {neighbour: edge rank}
    parent: dict[str, str] = {}
    edges: list[tuple[str, str, int]] = []
    cofaces: list[tuple[int, list[tuple[int, int]]]] = []
    n_triangles = 0
    cycle_edges: list[int] = []
    for r, ((u, v), birth) in enumerate(network.edges.items()):
        if birth.tie_rank != r:
            raise InternalError(
                f"edge {(u, v)} of network {network.discipline!r} has tie rank "
                f"{birth.tie_rank} at position {r}"
            )
        year = birth.time
        edges.append((u, v, year))
        for x in (u, v):
            if x not in neighbours:
                neighbours[x] = {}
                parent[x] = x
        # Find both roots, halving paths on the way.
        root_u = u
        while parent[root_u] != root_u:
            parent[root_u] = parent[parent[root_u]]
            root_u = parent[root_u]
        root_v = v
        while parent[root_v] != root_v:
            parent[root_v] = parent[parent[root_v]]
            root_v = parent[root_v]
        near_u, near_v = neighbours[u], neighbours[v]
        if root_u != root_v:
            parent[root_v] = root_u
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
    return FlagFiltration(len(neighbours), edges, cofaces, n_triangles, cycle_edges)


def _cycle_deaths(filtration: FlagFiltration, window: int | None = None) -> dict[int, int]:
    """Each dimension-1 pair of the filtration as birth edge rank -> rank of
    the youngest edge of the triangle that kills it, in death order; with a
    window of p years, only the pairs that persist less than p years.

    The triangle columns are reduced in filtration order; each edge's first
    triangle has that edge as its pivot and no older column can share it,
    so it is stored as the pivot column as it stands (an apparent pair).
    A window of p years reduces each column of year t modulo the edge rows
    born before year t - p + 1, its floor: the column is done once its low
    is below the floor, and the rows below the floor that older pivot
    columns bring in are never read. By the pairing lemma, the pairs whose
    birth row is at least s come from the rows >= s alone, and floors only
    rise along the pass; so the pivots found are exactly the pairs that
    persist less than p years.
    """
    if window == 0:
        return {}  # no pair persists less than 0 years
    years = [t for _, _, t in filtration.edges]
    n_cycles = len(filtration.cycle_edges)
    # Columns are bitmask integers over edge ranks; XOR and bit_length run at
    # word speed, which is what makes 10^5-triangle disciplines tractable.
    # Reduced pivot columns are compressed (pivot rows below their own low
    # eliminated), which shortens the chains that grind dependent columns
    # down to zero. The boundary rank cannot exceed the number of
    # cycle-closing edges; once reached, every remaining column provably
    # reduces to zero, so the pass stops.
    pivot_col: dict[int, int] = {}
    deaths: dict[int, int] = {}
    floor = 0
    for r, group in filtration.cofaces:
        if len(pivot_col) == n_cycles:
            break
        if window is not None:
            floor = bisect_left(years, years[r] - window + 1)
        hi, lo = group[0]
        pivot_col[r] = (1 << r) | (1 << hi) | (1 << lo)
        deaths[r] = r
        for hi, lo in islice(group, 1, None):
            if len(pivot_col) == n_cycles:
                break
            column = (1 << r) | (1 << hi) | (1 << lo)
            low = r
            while low >= floor:
                other = pivot_col.get(low)
                if other is None:
                    break
                column ^= other
                low = column.bit_length() - 1
            if low < floor:
                continue  # zero modulo the rows below the floor
            remainder = column ^ (1 << low)
            while remainder:
                row = remainder.bit_length() - 1
                if row < floor:
                    break
                other = pivot_col.get(row)
                if other is None:
                    remainder ^= 1 << row
                else:
                    column ^= other
                    remainder = column & ((1 << row) - 1)
            pivot_col[low] = column
            deaths[low] = r

    if not deaths.keys() <= set(filtration.cycle_edges):
        raise InternalError(
            "reduction paired a component-merging edge as a cycle birth"
        )
    return deaths


@dataclass
class PersistenceDiagram:
    """Dimension-1 features: pairs die, essentials never do."""

    pairs: tuple[DiagramRecord, ...]
    essentials: tuple[DiagramRecord, ...]

    def records(self) -> list[DiagramRecord]:
        out = [*self.pairs, *self.essentials]
        out.sort(key=lambda r: (r.birth_year, r.birth_vertices))
        return out


def compute_persistence(filtration: FlagFiltration) -> PersistenceDiagram:
    """Persistent homology of the 2-skeleton filtration over Z2, in
    dimension 1, as diagram records: the cycle-closing edges come from the
    filtration's union-find, their deaths from its triangle columns.
    """
    edges = filtration.edges
    deaths = _cycle_deaths(filtration)
    pairs = tuple(
        DiagramRecord(1, edges[b][:2], edges[b][2], edges[d][2]) for b, d in deaths.items()
    )
    essentials = tuple(
        DiagramRecord(1, edges[b][:2], edges[b][2], None)
        for b in filtration.cycle_edges
        if b not in deaths
    )
    return PersistenceDiagram(pairs, essentials)


def network_diagram(network: TemporalConceptNetwork) -> tuple[list[DiagramRecord], int]:
    """The diagram rows of a network's flag complex, sorted as dumped, and
    the complex's simplex count: the persist stage's topology path."""
    filtration = build_flag_filtration(network)
    return compute_persistence(filtration).records(), len(filtration)


def gap_edges(records: Iterable[DiagramRecord], min_persistence: int = 1) -> set[Pair]:
    """The birth edges of dimension-1 `records`: essential, or persisting at
    least the given number of years. These concept pairs are the detected gaps."""
    if min_persistence < 0:
        raise ValueError("min_persistence must be non-negative")
    result: set[Pair] = set()
    for rec in records:
        if rec.death_year is None or rec.death_year - rec.birth_year >= min_persistence:
            u, v = rec.birth_vertices
            result.add((u, v))
    return result


def network_gaps(network: TemporalConceptNetwork, min_persistence: int = 1) -> set[Pair]:
    """The gap edges of a network: its cycle edges that the reduction windowed
    at `min_persistence` years leaves unpaired, which are those `gap_edges`
    finds in its diagram. No diagram record is built. The topology path of
    classification, real and null."""
    if min_persistence < 0:
        raise ValueError("min_persistence must be non-negative")
    filtration = build_flag_filtration(network)
    deaths = _cycle_deaths(filtration, min_persistence)
    edges = filtration.edges
    return {edges[b][:2] for b in filtration.cycle_edges if b not in deaths}


def save_diagram_records(records: Iterable[DiagramRecord], path: str | Path) -> None:
    """Dump dimension-1 features as: dim, birth_u, birth_v, birth_year,
    death_year|inf."""
    rows = (
        (r.dim, *r.birth_vertices, r.birth_year, "inf" if r.death_year is None else r.death_year)
        for r in records
    )
    write_csv(path, DIAGRAM_HEADER, rows)


def _diagram_row(row: list[str]) -> DiagramRecord:
    dim, birth_u, birth_v, birth_year, death_year = row
    if int(dim) != 1 or not birth_u or not birth_v:
        raise ValueError("expected dimension 1 with two birth vertices")
    return DiagramRecord(
        1, (birth_u, birth_v), int(birth_year), None if death_year == "inf" else int(death_year)
    )


def load_diagram_records(path: str | Path) -> list[DiagramRecord]:
    """Read a diagram dump; a malformed row raises DataError (see read_csv)."""
    return list(read_csv(path, DIAGRAM_HEADER, _diagram_row))
