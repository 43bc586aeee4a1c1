"""Filtration construction, the persistence engine, the dense Betti oracle,
and the cross-checks between them. The oracle, the any-dimension reference
complex and the explicit engine the implicit one replaced live in
helpers.py."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapminer.concept_net import EdgeBirth, TemporalConceptNetwork
from gapminer.errors import DataError, InternalError
from gapminer.topology import (
    DIAGRAM_HEADER,
    DiagramRecord,
    _cycle_deaths,
    build_flag_filtration,
    compute_persistence,
    gap_edges,
    load_diagram_records,
    network_diagram,
    network_gaps,
    save_diagram_records,
)
from gapminer.util import REMEDY

from helpers import (
    apply_boundary,
    betti,
    betti_oracle,
    boundary_chain,
    c1_instances,
    clique_filtration,
    engine_dim1_profile,
    facets,
    filtration_from_simplices,
    full_reduction,
    network_from_edge_times,
    random_temporal_network,
    reduction_records,
    reference_persistence,
    step_boundaries,
)


def cycle_network(n=4, start=1):
    """n-cycle with edge i at year start + i; the wrap edge closes it last."""
    nodes = [f"v{i}" for i in range(n)]
    edges = [(nodes[i], nodes[(i + 1) % n], start + i) for i in range(n)]
    return network_from_edge_times("T", edges)


# -- filtration construction -------------------------------------------------

def test_triangle_value_is_max_of_edge_times():
    net = network_from_edge_times("T", [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    filt = build_flag_filtration(net)
    triangle = [s for s in filt.simplices if s.dim == 2]
    assert len(triangle) == 1
    assert triangle[0].vertices == ("a", "b", "c")
    assert triangle[0].filtration_value == 3


def test_chordless_square_has_no_triangles():
    filt = build_flag_filtration(cycle_network(4))
    dims = [s.dim for s in filt.simplices]
    assert dims.count(0) == 4 and dims.count(1) == 4 and dims.count(2) == 0


def test_k4_clique_counts():
    nodes = ["a", "b", "c", "d"]
    edges = [(u, v, 1) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    filt = build_flag_filtration(network_from_edge_times("T", edges))
    dims = [s.dim for s in filt.simplices]
    assert dims.count(0) == 4 and dims.count(1) == 6 and dims.count(2) == 4


def test_filtration_order_invariants():
    rng = random.Random(5)
    for _ in range(25):
        filt = build_flag_filtration(random_temporal_network(rng))
        seen = {}
        previous = None
        for s in filt.simplices:
            key = (s.filtration_value, s.dim)
            if previous is not None:
                assert key >= previous  # value ascending, dims ascending within
            previous = key
            for face in facets(s.vertices):
                assert face in seen and seen[face] <= s.filtration_value
            seen[s.vertices] = s.filtration_value
        assert [s.order_index for s in filt.simplices] == list(range(len(filt)))


def test_step_boundaries_cover_filtration():
    filt = build_flag_filtration(cycle_network(5))
    boundaries = step_boundaries(filt)
    spans = list(boundaries.values())
    assert spans[0][0] == 0 and spans[-1][1] == len(filt)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c
    for year, (a, b) in boundaries.items():
        assert all(s.filtration_value == year for s in filt.simplices[a:b])


def test_vertices_enter_with_first_edge():
    net = network_from_edge_times("T", [("a", "b", 3), ("b", "c", 1)])
    filt = build_flag_filtration(net)
    values = {s.vertices: s.filtration_value for s in filt.simplices if s.dim == 0}
    assert values == {("a",): 3, ("b",): 1, ("c",): 1}


def test_empty_network_empty_filtration():
    filt = build_flag_filtration(network_from_edge_times("T", []))
    assert len(filt) == 0
    assert compute_persistence(filt).pairs == ()


# -- persistence engine -------------------------------------------------------

def test_square_cycle_is_essential_at_closing_edge():
    filt = build_flag_filtration(cycle_network(4, start=1))
    diagram = compute_persistence(filt)
    ess1 = [e for e in diagram.essentials if e.dim == 1]
    assert len(ess1) == 1
    assert ess1[0].birth_year == 4  # the year-4 closing edge
    assert betti(diagram.records(), 1, 4) == 1
    assert betti_oracle(filt, 4)[1] == 1


def test_filled_triangle_zero_persistence_pair():
    net = network_from_edge_times("T", [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    filt = build_flag_filtration(net)
    diagram = compute_persistence(filt)
    dim1 = [p for p in diagram.pairs if p.dim == 1]
    assert len(dim1) == 1
    assert dim1[0].birth_year == 3
    assert dim1[0].death_year == 3
    assert not [e for e in diagram.essentials if e.dim == 1]
    for year in (1, 2, 3):
        assert betti_oracle(filt, year)[1] == 0


def test_two_disjoint_edges_two_components():
    # Two components and no cycle: the engine emits no feature at all.
    net = network_from_edge_times("T", [("a", "b", 1), ("c", "d", 2)])
    filt = build_flag_filtration(net)
    assert len(filt) == 6 and filt.cycle_edges == []
    diagram = compute_persistence(filt)
    assert diagram.pairs == () and diagram.essentials == ()


def test_engine_deterministic():
    rng = random.Random(21)
    net = random_temporal_network(rng)
    filt = build_flag_filtration(net)
    assert compute_persistence(filt) == compute_persistence(filt)


# -- gap edge extraction ------------------------------------------------------

def test_gap_edges_filters_zero_persistence():
    net = network_from_edge_times("T", [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    diagram = compute_persistence(build_flag_filtration(net))
    assert gap_edges(diagram.records(), 1) == set()
    assert gap_edges(diagram.records(), 0) == {("a", "c")}


def test_gap_edges_keeps_essential_cycle():
    diagram = compute_persistence(build_flag_filtration(cycle_network(4)))
    for min_persistence in (0, 1, 5, 100):
        assert gap_edges(diagram.records(), min_persistence) == {("v0", "v3")}


def test_gap_edges_persistence_threshold():
    # Square closed in year 4, both filling triangles arrive with the year-6
    # chord: persistence 2 for the original cycle, 0 for the chord cycle.
    net = network_from_edge_times(
        "T",
        [("a", "b", 1), ("b", "c", 2), ("c", "d", 3), ("a", "d", 4), ("a", "c", 6)],
    )
    diagram = compute_persistence(build_flag_filtration(net))
    assert gap_edges(diagram.records(), 1) == {("a", "d")}
    assert gap_edges(diagram.records(), 2) == {("a", "d")}
    assert gap_edges(diagram.records(), 3) == set()


def test_windowed_reduction_pairs_a_cycle_only_once_the_window_exceeds_it():
    # The network above: the square (rank 3, a-d) persists 2 years, the
    # chord cycle (rank 4, a-c) 0 years. A window of p years pairs exactly
    # those that persist less than p, so the square is a gap up to p = 2.
    net = network_from_edge_times(
        "T",
        [("a", "b", 1), ("b", "c", 2), ("c", "d", 3), ("a", "d", 4), ("a", "c", 6)],
    )
    filt = build_flag_filtration(net)
    assert _cycle_deaths(filt) == {4: 4, 3: 4}
    expected = {
        0: ({}, {("a", "d"), ("a", "c")}),
        1: ({4: 4}, {("a", "d")}),
        2: ({4: 4}, {("a", "d")}),
        3: ({4: 4, 3: 4}, set()),
    }
    for window, (deaths, gaps) in expected.items():
        assert _cycle_deaths(filt, window) == deaths, window
        assert network_gaps(net, window) == gaps, window


# -- dense oracle -------------------------------------------------------------

def test_oracle_single_vertex():
    filt = filtration_from_simplices([(("a",), 1)])
    assert betti_oracle(filt, 1, max_dim=1) == (1, 0)


def test_oracle_square_circle_homology():
    filt = build_flag_filtration(cycle_network(4))
    assert betti_oracle(filt, 10) == (1, 1, 0)


def test_oracle_k4_two_skeleton_has_beta2():
    nodes = ["a", "b", "c", "d"]
    edges = [(u, v, 1) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    net = network_from_edge_times("T", edges)
    assert betti_oracle(build_flag_filtration(net), 1) == (1, 0, 1)
    # Filling the solid tetrahedron kills the 2-sphere class.
    assert betti_oracle(clique_filtration(net, 3), 1, max_dim=3) == (1, 0, 0, 0)


def test_oracle_size_limit():
    filt = build_flag_filtration(cycle_network(8))
    with pytest.raises(ValueError):
        betti_oracle(filt, 10, max_simplices=3)


# -- boundary operator ---------------------------------------------------------

def test_boundary_squared_is_zero():
    rng = random.Random(33)
    for _ in range(30):
        filt = clique_filtration(random_temporal_network(rng), 3)
        for s in filt.simplices:
            assert apply_boundary(boundary_chain(s.vertices)) == {}


# -- cross-checks engine vs oracle vs naive reduction --------------------------

def test_oracle_equivalence_random_graphs():
    rng = random.Random(101)
    for _ in range(60):
        net = random_temporal_network(rng)
        filt = build_flag_filtration(net)
        diagram = compute_persistence(filt)
        years = list(step_boundaries(filt))
        profile = engine_dim1_profile(diagram.records(), years)
        for year in years:
            assert profile[year] == betti_oracle(filt, year)[1]


def test_oracle_equivalence_all_dimensions():
    # The engine computes dimension 1 only: every record it emits is a
    # dimension-1 feature, and they give the oracle's cycle count.
    rng = random.Random(505)
    for _ in range(25):
        filt = build_flag_filtration(random_temporal_network(rng))
        records = compute_persistence(filt).records()
        assert all(r.dim == 1 and len(r.birth_vertices) == 2 for r in records)
        for year in step_boundaries(filt):
            assert betti(records, 1, year) == betti_oracle(filt, year)[1]


def check_against_references(net):
    """The implicit engine against the explicit one and full_reduction: the
    triangle listing in order, the diagram records, the simplex count, and
    the gaps that `network_gaps` finds without a diagram."""
    filt = clique_filtration(net, 2)
    records = reference_persistence(filt).records()
    assert build_flag_filtration(net).simplices == filt.simplices
    assert network_diagram(net) == (records, len(filt))
    assert records == reduction_records(filt, *full_reduction(filt))
    assert_gaps_match(net, records)


def assert_gaps_match(net, records):
    """network_gaps against gap_edges of the diagram, and the windowed
    reduction's pairs against the full one's that persist less than the
    window."""
    filt = build_flag_filtration(net)
    years = [t for _, _, t in filt.edges]
    deaths = _cycle_deaths(filt)
    for min_persistence in range(6):
        assert network_gaps(net, min_persistence) == gap_edges(records, min_persistence)
        assert _cycle_deaths(filt, min_persistence) == {
            b: d for b, d in deaths.items() if years[d] - years[b] < min_persistence
        }


def test_engine_matches_naive_full_reduction():
    rng = random.Random(202)
    for net in [random_temporal_network(rng) for _ in range(40)] + list(c1_instances()):
        check_against_references(net)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_engine_matches_references_on_dense_years(data):
    # Many edges per year: most ties within a year are broken by tie rank
    # alone, which is where the triangle order, the apparent pairs and a
    # year-windowed reduction could go wrong.
    n = data.draw(st.integers(2, 15), label="nodes")
    pairs = [(f"n{i:02d}", f"n{j:02d}") for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=60, unique=True), label="edges"
    )
    n_years = data.draw(st.integers(1, 9), label="years")
    years = data.draw(
        st.lists(st.integers(2000, 2000 + n_years - 1), min_size=len(chosen), max_size=len(chosen)),
        label="edge years",
    )
    check_against_references(
        network_from_edge_times("T", [(u, v, t) for (u, v), t in zip(chosen, years)])
    )


def test_network_gaps_equal_gap_edges_of_the_diagram():
    rng = random.Random(909)
    networks = list(c1_instances())
    networks += [random_temporal_network(rng, max_nodes=14, max_edges=50) for _ in range(300)]
    networks += [
        random_temporal_network(rng, max_nodes=10, max_edges=40, year_hi=2001) for _ in range(200)
    ]
    for net in networks:
        assert_gaps_match(net, network_diagram(net)[0])
    with pytest.raises(ValueError):
        network_gaps(cycle_network(4), -1)


def test_edges_out_of_rank_order_are_internal_error():
    net = cycle_network(4)
    swapped = list(net.edges.items())
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(InternalError, match="tie rank 2 at position 1"):
        build_flag_filtration(TemporalConceptNetwork("T", dict(swapped)))
    # A rank missing from the sequence is out of order too.
    gapped = {
        pair: EdgeBirth(birth.time, birth.introducers, birth.tie_rank + (birth.tie_rank > 0))
        for pair, birth in net.edges.items()
    }
    with pytest.raises(InternalError):
        network_gaps(TemporalConceptNetwork("T", gapped))


def test_non_apparent_column_reduces_past_an_apparent_pivot():
    # The square a-b, b-c, c-d (ranks 0-2, year 1) closed by a-d (rank 3,
    # year 2) has no triangle. The year-3 chord a-c (rank 4) is the youngest
    # edge of abc and acd. abc = {0, 1, 4} comes first and kills a-c as an
    # apparent pair. acd = {2, 3, 4} shares that pivot: adding abc leaves
    # {0, 1, 2, 3}, whose low is a-d, so the square dies in year 3.
    net = network_from_edge_times(
        "T", [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 2), ("a", "c", 3)]
    )
    filt = build_flag_filtration(net)
    assert filt.cycle_edges == [3, 4]
    assert filt.cofaces == [(4, [(1, 0), (3, 2)])]
    diagram = compute_persistence(filt)
    assert diagram.records() == [
        DiagramRecord(1, ("a", "d"), 2, 3),
        DiagramRecord(1, ("a", "c"), 3, 3),
    ]
    check_against_references(net)


def test_higher_cliques_do_not_change_low_dimensions():
    # H1 of a flag complex depends only on its 2-skeleton: filling the
    # tetrahedra changes no dimension-1 feature.
    rng = random.Random(606)
    for _ in range(15):
        net = random_temporal_network(rng, max_nodes=8, max_edges=20)
        full = clique_filtration(net, 3)
        assert network_diagram(net)[0] == reduction_records(full, *full_reduction(full))


def test_positivity_union_find_agrees_with_reduction():
    # An edge is a cycle birth iff its endpoints were already connected; the
    # naive reduction's zero columns are the independent source of truth.
    rng = random.Random(303)
    for _ in range(40):
        filt = build_flag_filtration(random_temporal_network(rng))
        naive_pairs, naive_essentials = full_reduction(filt)
        naive_births = {b for b, _ in naive_pairs} | naive_essentials
        reduction_positive_edges = {
            i for i in naive_births if filt.simplices[i].dim == 1
        }
        connected: dict[str, str] = {}

        def find(x: str) -> str:
            while connected.get(x, x) != x:
                connected[x] = connected.get(connected[x], connected[x])
                x = connected[x]
            return x

        union_find_positive = set()
        for s in filt.simplices:
            if s.dim == 0:
                connected[s.vertices[0]] = s.vertices[0]
            elif s.dim == 1:
                ru, rv = find(s.vertices[0]), find(s.vertices[1])
                if ru == rv:
                    union_find_positive.add(s.order_index)
                else:
                    connected[ru] = rv
        assert union_find_positive == reduction_positive_edges


def test_diagram_value_multiset_invariant_under_tie_permutation():
    # Same-year edges with permuted tie ranks (via renamed introducers) must
    # give the same (birth, death, dim) value multiset.
    rng = random.Random(404)
    for _ in range(15):
        net = random_temporal_network(rng, max_nodes=8, max_edges=16, year_hi=2002)
        base = [(u, v, e.time) for (u, v), e in net.edges.items()]
        filt_a = build_flag_filtration(network_from_edge_times("T", base))

        def multiset(diagram):
            values = [(r.birth_year, r.death_year, r.dim) for r in diagram.records()]
            return sorted(values, key=lambda t: (t[0], t[1] is None, t[1] or 0, t[2]))

        # Renaming vertices permutes canonical pair order and hence tie ranks
        # among same-year edges.
        names = sorted({x for u, v, _ in base for x in (u, v)})
        permuted_names = list(names)
        rng.shuffle(permuted_names)
        mapping = dict(zip(names, permuted_names))
        renamed = [(mapping[u], mapping[v], t) for u, v, t in base]
        filt_b = build_flag_filtration(network_from_edge_times("T", renamed))
        assert multiset(compute_persistence(filt_a)) == multiset(compute_persistence(filt_b))


# -- diagram dump ---------------------------------------------------------------

def test_diagram_dump_round_trip(tmp_path):
    net = network_from_edge_times(
        "T", [("a", "b", 1), ("b", "c", 2), ("a", "c", 3), ("c", "d", 4), ("b", "d", 5)]
    )
    diagram = compute_persistence(build_flag_filtration(net))
    path = tmp_path / "diag.csv"
    save_diagram_records(diagram.records(), path)
    records = load_diagram_records(path)
    assert records == diagram.records()


@pytest.mark.parametrize(
    "row",
    ["1,a,,2000,inf", "1,,b,2000,inf", "0,a,b,2000,2001", "0,a,,2000,inf", "2,a,b,2000,inf",
     "-1,a,,2000,inf"],
)
def test_diagram_row_whose_vertices_do_not_fit_its_dimension_is_data_error(tmp_path, row):
    # Diagrams hold dimension-1 rows only, so a dimension-0 row is malformed.
    path = tmp_path / "diag.csv"
    path.write_text(",".join(DIAGRAM_HEADER) + "\n1,a,b,2000,inf\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"diag\.csv, line 3: malformed row .*; {REMEDY}$"):
        load_diagram_records(path)


def test_every_simplex_is_birth_death_or_essential():
    rng = random.Random(77)
    for _ in range(20):
        filt = build_flag_filtration(random_temporal_network(rng))
        records = compute_persistence(filt).records()
        vertices = [s.vertices for s in filt.simplices if s.dim == 0]
        edges = [s.vertices for s in filt.simplices if s.dim == 1]
        # Every edge either merges two components or is born as a cycle, so
        # the vertices less the final components are the merging edges.
        # Triangles that kill no cycle are dimension-2 features the engine
        # does not emit.
        components = betti_oracle(filt, max(s.filtration_value for s in filt.simplices))[0]
        cycles = [r.birth_vertices for r in records]
        assert all(r.dim == 1 for r in records)
        assert len(set(cycles)) == len(cycles) and set(cycles) <= set(edges)
        assert len(vertices) - components + len(cycles) == len(edges)
        for r in records:
            assert r.death_year is None or r.death_year >= r.birth_year
