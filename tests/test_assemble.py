import numpy as np
import pytest

from graphscatter import (
    GraphSpec,
    MissingVertexMatrix,
    SizeMismatch,
    ValidationError,
    build_graph,
    constant_local,
    kirchhoff_local,
    mode_index,
)
from graphscatter.assemble import (
    assemble_blocks,
    assemble_propagation,
    resolve_locals,
)
from _helpers import block_diag, random_graph, random_locals, scatter_order_permutation


def test_block_shapes():
    g = build_graph(GraphSpec(2, ((0, 1, 1.0), (1, 1, 0.5)), (0, 0, 1)))
    idx = mode_index(g)
    locs = random_locals(np.random.default_rng(3), g, idx)
    blocks = assemble_blocks(g, locs, idx, 0.7)
    assert blocks.ext_ext.shape == (3, 3)
    assert blocks.ext_int.shape == (3, 4)
    assert blocks.int_ext.shape == (4, 3)
    assert blocks.int_int.shape == (4, 4)


def test_blocks_are_permuted_direct_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng)
        idx = mode_index(g)
        locs = random_locals(rng, g, idx)
        p = 1.3
        blocks = assemble_blocks(g, locs, idx, p)
        stacked = np.block(
            [[blocks.ext_ext, blocks.ext_int], [blocks.int_ext, blocks.int_int]]
        )
        direct_sum = block_diag(*(loc.matrix(p) for loc in locs))
        perm = scatter_order_permutation(g, idx)
        assert np.max(np.abs(perm @ direct_sum @ perm.T - stacked)) == 0.0


def test_entries_outside_vertex_blocks_are_zero():
    g = build_graph(GraphSpec(3, ((0, 1, 1.0), (1, 2, 1.0)), (0, 2)))
    idx = mode_index(g)
    locs = [constant_local(v, np.eye(idx.vertex_slot_count(v))) for v in range(3)]
    blocks = assemble_blocks(g, locs, idx, 0.0)
    # slots of different vertices never couple in the direct sum
    for s in range(idx.n_internal_slots):
        for t in range(idx.n_internal_slots):
            if idx.internal_order[s][0] != idx.internal_order[t][0]:
                assert blocks.int_int[s, t] == 0.0


def test_resolve_locals_errors():
    g = build_graph(GraphSpec(2, ((0, 1, 1.0),), (0,)))
    idx = mode_index(g)
    good0 = kirchhoff_local(0, 2)
    good1 = kirchhoff_local(1, 1)
    with pytest.raises(MissingVertexMatrix):
        resolve_locals(g, [good0], idx)
    with pytest.raises(ValidationError):
        resolve_locals(g, [good0, good0], idx)
    with pytest.raises(ValidationError):
        resolve_locals(g, [good0, kirchhoff_local(5, 1)], idx)
    with pytest.raises(SizeMismatch):
        resolve_locals(g, [good0, kirchhoff_local(1, 3)], idx)
    assert [loc.vertex for loc in resolve_locals(g, [good1, good0], idx)] == [0, 1]


def test_propagation_is_symmetric_generalized_permutation():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_graph(rng)
        idx = mode_index(g)
        if idx.n_internal_slots == 0:
            continue
        e = assemble_propagation(g, idx, 0.9 + 0.2j).matrix
        assert np.max(np.abs(e - e.T)) == 0.0
        assert np.all((np.abs(e) > 0).sum(axis=0) == 1)
        assert np.all((np.abs(e) > 0).sum(axis=1) == 1)


def test_propagation_involution_and_phase_split():
    g = build_graph(GraphSpec(2, ((0, 1, 1.2), (1, 1, 0.6)), (0,)))
    idx = mode_index(g)
    n = idx.n_internal_slots
    p, q = 0.8, -1.7
    e_p = assemble_propagation(g, idx, p).matrix
    e_m = assemble_propagation(g, idx, -p).matrix
    assert np.max(np.abs(e_p @ e_m - np.eye(n))) < 1e-14
    e_0 = assemble_propagation(g, idx, 0.0).matrix
    d_p = np.diag(np.exp(-1j * p * np.asarray(idx.slot_length)))
    assert np.max(np.abs(d_p @ e_0 - e_p)) < 1e-14
    assert np.max(np.abs(e_0 @ d_p - e_p)) < 1e-14
    # E(0) E(p) = D(p), so E(p) E(0) E(q) = D(p + q) E(0) = E(p + q)
    assert np.max(np.abs(e_0 @ e_p - d_p)) < 1e-14
    e_q = assemble_propagation(g, idx, q).matrix
    assert np.max(np.abs(e_p @ e_0 @ e_q - assemble_propagation(g, idx, p + q).matrix)) < 1e-14


def test_loop_block_is_swap_times_phase():
    d = 0.6
    g = build_graph(GraphSpec(1, ((0, 0, d),), (0,)))
    idx = mode_index(g)
    p = 1.1
    e = assemble_propagation(g, idx, p).matrix
    want = np.exp(-1j * p * d) * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(e - want)) < 1e-15


def test_edge_phase_sits_on_partner_entry():
    g = build_graph(GraphSpec(2, ((0, 1, 1.4),), (0,)))
    idx = mode_index(g)
    p = 0.5
    e = assemble_propagation(g, idx, p).matrix
    s01 = idx.internal_slots[(0, 1, 0, 0)]
    s10 = idx.internal_slots[(1, 0, 0, 0)]
    assert e[s10, s01] == np.exp(-1j * p * 1.4)
    assert e[s01, s10] == np.exp(-1j * p * 1.4)
    assert e[s01, s01] == 0.0
