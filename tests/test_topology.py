"""Filtration construction, the persistence engine, the dense Betti oracle,
and the cross-checks between them. The oracle and the any-dimension
reference complex live in helpers.py."""

from __future__ import annotations

import random

import pytest

from gapminer.concept_net import network_from_edge_times
from gapminer.topology import (
    build_flag_filtration,
    compute_persistence,
    gap_edges,
    load_diagram_records,
)

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
    random_temporal_network,
    save_diagram,
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
    assert ess1[0].birth.filtration_value == 4  # the year-4 closing edge
    assert betti(diagram, 1, 4) == 1
    assert betti_oracle(filt, 4)[1] == 1


def test_filled_triangle_zero_persistence_pair():
    net = network_from_edge_times("T", [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    filt = build_flag_filtration(net)
    diagram = compute_persistence(filt)
    dim1 = [p for p in diagram.pairs if p.dim == 1]
    assert len(dim1) == 1
    assert dim1[0].birth.filtration_value == 3
    assert dim1[0].death.filtration_value == 3
    assert not [e for e in diagram.essentials if e.dim == 1]
    for year in (1, 2, 3):
        assert betti_oracle(filt, year)[1] == 0


def test_two_disjoint_edges_two_components():
    net = network_from_edge_times("T", [("a", "b", 1), ("c", "d", 2)])
    diagram = compute_persistence(build_flag_filtration(net))
    assert len([e for e in diagram.essentials if e.dim == 0]) == 2
    assert not [p for p in diagram.pairs if p.dim == 1]
    assert not [e for e in diagram.essentials if e.dim == 1]


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
        profile = engine_dim1_profile(diagram, years)
        for year in years:
            assert profile[year] == betti_oracle(filt, year)[1]


def test_oracle_equivalence_all_dimensions():
    # Both Betti numbers the engine computes: components and cycles.
    rng = random.Random(505)
    for _ in range(25):
        filt = build_flag_filtration(random_temporal_network(rng))
        diagram = compute_persistence(filt)
        for year in step_boundaries(filt):
            expected = betti_oracle(filt, year)[:2]
            got = tuple(betti(diagram, dim, year) for dim in (0, 1))
            assert got == expected


def _low_dim_reduction(filt):
    """full_reduction's pairs and essentials born in dimension 0 or 1."""
    pairs, essentials = full_reduction(filt)
    low = {i for i, s in enumerate(filt.simplices) if s.dim <= 1}
    return {(b, d) for b, d in pairs if b in low}, essentials & low


def test_engine_matches_naive_full_reduction():
    rng = random.Random(202)
    networks = [random_temporal_network(rng) for _ in range(40)] + list(c1_instances())
    for net in networks:
        filt = build_flag_filtration(net)
        # The triangle listing reproduces the recursive clique expansion.
        assert filt.simplices == clique_filtration(net, 2).simplices
        diagram = compute_persistence(filt)
        assert all(p.dim <= 1 for p in diagram.pairs)
        assert all(e.dim <= 1 for e in diagram.essentials)
        engine_pairs = {
            (p.birth.order_index, p.death.order_index) for p in diagram.pairs
        }
        engine_essentials = {e.birth.order_index for e in diagram.essentials}
        naive_pairs, naive_essentials = _low_dim_reduction(filt)
        assert engine_pairs == naive_pairs
        assert engine_essentials == naive_essentials


def test_higher_cliques_do_not_change_low_dimensions():
    # H0 and H1 of a flag complex depend only on its 2-skeleton: filling the
    # tetrahedra changes no dimension-0 or dimension-1 feature.
    def features(filt, pairs, essentials):
        v = [s.vertices for s in filt.simplices]
        return {(v[b], v[d]) for b, d in pairs}, {v[i] for i in essentials}

    rng = random.Random(606)
    for _ in range(15):
        net = random_temporal_network(rng, max_nodes=8, max_edges=20)
        skeleton = build_flag_filtration(net)
        diagram = compute_persistence(skeleton)
        engine = features(
            skeleton,
            [(p.birth.order_index, p.death.order_index) for p in diagram.pairs],
            [e.birth.order_index for e in diagram.essentials],
        )
        full = clique_filtration(net, 3)
        assert engine == features(full, *_low_dim_reduction(full))


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
            values = [
                (p.birth.filtration_value, p.death.filtration_value, p.dim)
                for p in diagram.pairs
            ]
            values += [
                (e.birth.filtration_value, None, e.dim) for e in diagram.essentials
            ]
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
    save_diagram(diagram, path)
    records = load_diagram_records(path)
    assert records == diagram.records()


def test_every_simplex_is_birth_death_or_essential():
    rng = random.Random(77)
    for _ in range(20):
        filt = build_flag_filtration(random_temporal_network(rng))
        diagram = compute_persistence(filt)
        births = {p.birth.order_index for p in diagram.pairs}
        deaths = {p.death.order_index for p in diagram.pairs}
        essentials = {e.birth.order_index for e in diagram.essentials}
        # Triangles that kill no cycle are dimension-2 features the engine
        # does not emit; every vertex and edge is accounted for.
        low = {s.order_index for s in filt.simplices if s.dim <= 1}
        assert low <= births | deaths | essentials
        assert births | essentials <= low
        assert not births & deaths
        assert not (births | deaths) & essentials
        for p in diagram.pairs:
            assert p.death.dim == p.birth.dim + 1
            assert p.death.order_index > p.birth.order_index
