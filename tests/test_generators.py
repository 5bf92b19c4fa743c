import numpy as np
import pytest

from graphscatter import (
    Colouring,
    NotInvolutive,
    SizeMismatch,
    UnknownFixture,
    UnknownSolid,
    ValidationError,
    canonical,
    commuting_colour_matrices,
    constant_local,
    kirchhoff_local,
    mode_index,
    momentum_local,
    platonic,
    total_scattering,
    triangle_and_star_pair,
)
from graphscatter.assemble import assemble_blocks
from _helpers import random_involutive

SOLID_COUNTS = {
    "tetrahedron": (4, 6),
    "cube": (8, 12),
    "octahedron": (6, 12),
    "dodecahedron": (20, 30),
    "icosahedron": (12, 30),
}

# star slot -> (triangle vertex, slot at that vertex); fixed contract
STAR_MAP = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 2), (2, 1)]


def test_platonic_counts_and_regularity():
    for name, (n, m) in SOLID_COUNTS.items():
        g, col = platonic(name, edge_length=0.8)
        assert g.vertex_count == n
        assert g.n_internal == m
        assert g.n_external == n
        assert all(e.length == 0.8 for e in g.internal_edges)
        assert not any(e.is_loop for e in g.internal_edges)
        degree = 2 * m // n
        assert all(g.internal_degree(v) == degree for v in range(n))
        assert col.vertex_count == n
        assert col.colour_count == degree
        assert col.is_regular()


def test_platonic_adjacency_is_simple():
    # no loops, no parallel edges: each neighbor appears once
    for name in SOLID_COUNTS:
        g, _ = platonic(name)
        for v in range(g.vertex_count):
            neighbors = [e.v if e.u == v else e.u for e in g.internal_edges if v in (e.u, e.v)]
            assert v not in neighbors
            assert len(set(neighbors)) == len(neighbors)


def test_octahedron_complement_is_perfect_matching():
    g, _ = platonic("octahedron")
    non_adjacent = []
    for v in range(6):
        neighbors = {e.v if e.u == v else e.u for e in g.internal_edges if v in (e.u, e.v)}
        others = set(range(6)) - neighbors - {v}
        assert len(others) == 1
        non_adjacent.append((v, others.pop()))
    assert all(dict(non_adjacent)[b] == a for a, b in non_adjacent)


def test_tetrahedron_colour_matrices_frozen():
    _, col = platonic("tetrahedron")
    mats, commute = commuting_colour_matrices(col)
    assert commute
    pairs = [((0, 3), (1, 2)), ((0, 1), (2, 3)), ((0, 2), (1, 3))]
    for mat, matching in zip(mats, pairs):
        want = np.zeros((4, 4))
        for a, b in matching:
            want[a, b] = want[b, a] = 1.0
        assert np.array_equal(mat, want)


def test_cube_colour_matrices_frozen():
    _, col = platonic("cube")
    mats, commute = commuting_colour_matrices(col)
    assert commute
    pairs = [
        ((0, 1), (2, 3), (4, 5), (6, 7)),
        ((0, 3), (1, 2), (4, 7), (5, 6)),
        ((0, 4), (1, 5), (2, 6), (3, 7)),
    ]
    for mat, matching in zip(mats, pairs):
        want = np.zeros((8, 8))
        for a, b in matching:
            want[a, b] = want[b, a] = 1.0
        assert np.array_equal(mat, want)


def test_unknown_solid():
    with pytest.raises(UnknownSolid):
        platonic("pyramid")


def test_colouring_validation():
    with pytest.raises(ValidationError):
        Colouring(((1,), (0,), (2,)))  # vertex 2 points at itself
    with pytest.raises(ValidationError):
        Colouring(((1,), (2,)))  # not reciprocal
    with pytest.raises(ValidationError):
        Colouring(((1, 1), (0, 0)))  # same neighbor through two colours
    partial = Colouring(((1, -1), (0, -1)))
    assert not partial.is_regular()
    with pytest.raises(ValidationError):
        commuting_colour_matrices(partial)


def test_colouring_refuses_empty_and_ragged_tables():
    with pytest.raises(ValidationError, match="empty colouring"):
        Colouring(())
    # reciprocal where both rows have the colour
    with pytest.raises(ValidationError, match="unequal colour counts"):
        Colouring(((1, -1), (0,)))


def test_triangle_and_star_shapes():
    tri, star = triangle_and_star_pair(0.7, 1.1, 1.3)
    assert tri.graph.vertex_count == 3
    assert tri.graph.n_internal == 3 and tri.graph.n_external == 3
    assert star.graph.vertex_count == 1
    assert star.graph.n_internal == 3 and star.graph.n_external == 3
    assert all(e.is_loop for e in star.graph.internal_edges)
    # loop lengths follow the (d12, d23, d13) order
    assert [e.length for e in star.graph.internal_edges] == [0.7, 1.3, 1.1]
    assert star.locals[0].size == 9


def test_star_matrix_sparsity_and_entries():
    rng = np.random.default_rng(71)
    locs = [random_involutive(rng, v, 3) for v in range(3)]
    tri, star = triangle_and_star_pair(1.0, 1.0, 1.0, locs)
    t = star.locals[0].constant
    for r, (rv, ri) in enumerate(STAR_MAP):
        for c, (cv, ci) in enumerate(STAR_MAP):
            if rv == cv:
                assert t[r, c] == locs[rv].constant[ri, ci]
            else:
                assert t[r, c] == 0.0


def test_triangle_star_same_total_scattering():
    rng = np.random.default_rng(72)
    locs = [random_involutive(rng, v, 3) for v in range(3)]
    tri, star = triangle_and_star_pair(0.9, 1.7, 1.2, locs)
    it, ist = mode_index(tri.graph), mode_index(star.graph)
    for p in (0.3, 1.4, 2.8, 5.1):
        a = total_scattering(tri.graph, tri.locals, it, p).matrix
        b = total_scattering(star.graph, star.locals, ist, p).matrix
        assert np.max(np.abs(a - b)) < 1e-10


def test_triangle_star_momentum_dependent_locals():
    def phase_mixer(p):
        u = np.exp(1j * p)
        return np.array(
            [[0.0, u, 0.0], [u, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )

    locs = [
        momentum_local(0, 3, phase_mixer),
        kirchhoff_local(1, 3),
        kirchhoff_local(2, 3),
    ]
    tri, star = triangle_and_star_pair(1.0, 1.3, 0.8, locs)
    assert not star.locals[0].is_constant
    it, ist = mode_index(tri.graph), mode_index(star.graph)
    for p in (0.6, 2.1):
        a = total_scattering(tri.graph, tri.locals, it, p).matrix
        b = total_scattering(star.graph, star.locals, ist, p).matrix
        assert np.max(np.abs(a - b)) < 1e-10


def test_triangle_star_permutation_matrix():
    # star internal slot k corresponds to triangle internal slot pick[k]
    pick = (0, 2, 3, 5, 1, 4)
    perm = np.zeros((6, 6))
    perm[range(6), pick] = 1.0
    assert perm.shape == (6, 6)
    assert np.array_equal(perm @ perm.T, np.eye(6))
    rng = np.random.default_rng(73)
    locs = [random_involutive(rng, v, 3) for v in range(3)]
    tri, star = triangle_and_star_pair(1.0, 1.0, 1.0, locs)
    it, ist = mode_index(tri.graph), mode_index(star.graph)
    tri_s22 = assemble_blocks(tri.graph, tri.locals, it, 0.0).int_int
    star_s22 = assemble_blocks(star.graph, star.locals, ist, 0.0).int_int
    assert np.max(np.abs(perm @ tri_s22 @ perm.T - star_s22)) == 0.0


def test_triangle_locals_refuse_a_matrix_of_another_vertex():
    locs = [kirchhoff_local(0, 3), kirchhoff_local(2, 3), kirchhoff_local(2, 3)]
    with pytest.raises(ValidationError, match="matrix 1 is labeled for vertex 2"):
        triangle_and_star_pair(1.0, 1.0, 1.0, locs)


def test_triangle_locals_validated():
    bad = np.eye(3) * 2.0
    with pytest.raises(NotInvolutive):
        triangle_and_star_pair(1.0, 1.0, 1.0, [bad, np.eye(3), np.eye(3)])
    with pytest.raises(SizeMismatch):
        triangle_and_star_pair(
            1.0, 1.0, 1.0,
            [constant_local(0, np.eye(4)), constant_local(1, np.eye(3)), constant_local(2, np.eye(3))],
        )


def test_canonical_fixtures():
    line = canonical("line2", d=2.0)
    assert line.graph.n_internal == 1 and line.graph.n_external == 2
    assert line.graph.internal_edges[0].length == 2.0

    box = canonical("interval_compact", L=3.0, r1=1.0)
    assert box.graph.n_external == 0
    assert box.locals[0].constant[0, 0] == 1.0
    assert box.locals[1].constant[0, 0] == -1.0

    tad = canonical("tadpole", d=0.5)
    assert tad.graph.internal_edges[0].is_loop
    assert tad.locals[0].family == "kirchhoff"

    fab = canonical("fabry_perot", r=0.25, d=1.5)
    mirror = fab.locals[0].constant
    assert mirror[0, 0] == 0.25 and mirror[1, 1] == -0.25
    assert abs(mirror[0, 1] ** 2 + mirror[0, 0] ** 2 - 1.0) < 1e-12


def test_canonical_validates():
    with pytest.raises(UnknownFixture):
        canonical("moebius")
    with pytest.raises(ValidationError):
        canonical("fabry_perot", r=1.5)
    with pytest.raises(ValidationError):
        canonical("fabry_perot", r=0.3 + 0.2j)
    with pytest.raises(ValidationError):
        canonical("line2", wavelength=3.0)
