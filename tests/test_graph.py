import numpy as np
import pytest

from graphscatter import (
    DanglingVertexReference,
    DisconnectedGraph,
    GraphSpec,
    NonPositiveLength,
    ValidationError,
    build_graph,
    mode_index,
)
from _helpers import random_graph


def triangle_spec():
    return GraphSpec(3, ((0, 1, 1.0), (0, 2, 1.5), (1, 2, 2.0)), (0, 1, 2))


def test_build_graph_counts():
    g = build_graph(triangle_spec())
    assert g.vertex_count == 3
    assert g.n_internal == 3
    assert g.n_external == 3
    assert sum(e.length for e in g.internal_edges) == pytest.approx(4.5)
    assert [g.degree(v) for v in range(3)] == [3, 3, 3]


def test_parallel_edges_get_distinct_j():
    g = build_graph(GraphSpec(2, ((0, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0)), (0,)))
    assert [e.j for e in g.internal_edges] == [0, 1, 2]
    # orientation does not matter for the parallel class
    assert g.internal_edges[1].u == 1 and g.internal_edges[1].j == 1


def test_loop_edge():
    g = build_graph(GraphSpec(1, ((0, 0, 0.7),), (0,)))
    assert g.internal_edges[0].is_loop
    assert g.internal_degree(0) == 2
    assert g.degree(0) == 3


def test_single_vertex_no_edges():
    g = build_graph(GraphSpec(1, (), (0, 0)))
    assert g.n_internal == 0
    assert g.n_external == 2
    idx = mode_index(g)
    assert idx.n_internal_slots == 0
    assert idx.vertex_slot_count(0) == 2


def test_build_graph_rejects_disconnected():
    # too few edges to connect the vertices: refused before the search
    with pytest.raises(DisconnectedGraph, match="4 vertices cannot be connected by 2 internal"):
        build_graph(GraphSpec(4, ((0, 1, 1.0), (2, 3, 1.0)), (0,)))
    with pytest.raises(DisconnectedGraph, match=r"vertices \[2, 3\] are not reachable"):
        build_graph(GraphSpec(4, ((0, 1, 1.0), (2, 3, 1.0), (2, 3, 2.0)), (0,)))


def test_build_graph_rejects_bad_lengths():
    with pytest.raises(NonPositiveLength):
        build_graph(GraphSpec(2, ((0, 1, 0.0),), (0,)))
    with pytest.raises(NonPositiveLength):
        build_graph(GraphSpec(2, ((0, 1, -2.0),), (0,)))


@pytest.mark.parametrize("length", [np.inf, -np.inf, np.nan])
def test_build_graph_refuses_non_finite_length(length):
    with pytest.raises(ValidationError, match="internal edge 1 has non-finite length"):
        build_graph(GraphSpec(2, ((0, 1, 1.0), (0, 1, length)), (0,)))


def test_build_graph_rejects_dangling_references():
    with pytest.raises(DanglingVertexReference):
        build_graph(GraphSpec(2, ((0, 2, 1.0),), (0,)))
    with pytest.raises(DanglingVertexReference):
        build_graph(GraphSpec(2, ((0, 1, 1.0),), (5,)))
    with pytest.raises(ValidationError):
        build_graph(GraphSpec(0, (), ()))


def test_slot_count_invariants_random():
    rng = np.random.default_rng(1001)
    for _ in range(50):
        g = random_graph(rng)
        idx = mode_index(g)
        assert idx.n_internal_slots == 2 * g.n_internal
        assert sum(len(v) for v in idx.vertex_internal) == 2 * g.n_internal
        assert sum(len(v) for v in idx.vertex_external) == g.n_external
        # every slot is owned by its tail vertex
        for vtx, slots in enumerate(idx.vertex_internal):
            for s in slots:
                assert idx.internal_order[s][0] == vtx


def test_mode_index_is_deterministic():
    g = build_graph(triangle_spec())
    a = mode_index(g)
    b = mode_index(build_graph(triangle_spec()))
    assert a.internal_order == b.internal_order
    assert a.external_order == b.external_order
    assert a.partner == b.partner
    assert a.slot_length == b.slot_length


def test_internal_order_sorted_and_partner_involution():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_graph(rng)
        idx = mode_index(g)
        assert list(idx.internal_order) == sorted(idx.internal_order)
        for s in range(idx.n_internal_slots):
            assert idx.partner[idx.partner[s]] == s
            assert idx.slot_length[s] == idx.slot_length[idx.partner[s]]
            assert idx.slot_edge[s] == idx.slot_edge[idx.partner[s]]


def test_loop_slots_consecutive():
    g = build_graph(GraphSpec(2, ((0, 1, 1.0), (1, 1, 0.5), (1, 1, 0.8)), (0,)))
    idx = mode_index(g)
    for e in g.internal_edges:
        if not e.is_loop:
            continue
        s1 = idx.internal_slots[(e.u, e.u, e.j, 1)]
        s2 = idx.internal_slots[(e.u, e.u, e.j, 2)]
        assert s2 == s1 + 1
        assert idx.partner[s1] == s2 and idx.partner[s2] == s1


def test_external_order_by_vertex_then_attachment():
    g = build_graph(GraphSpec(2, ((0, 1, 1.0),), (1, 0, 1)))
    idx = mode_index(g)
    # ext ids 1 (vertex 0), then 0 and 2 (vertex 1, in attachment order)
    assert idx.external_order == (1, 0, 2)
    assert idx.vertex_external[0] == (0,)
    assert idx.vertex_external[1] == (1, 2)

