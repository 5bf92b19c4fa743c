"""Metric graph data model and deterministic mode ordering.

A graph has a finite vertex set, internal edges of positive length
(endpoints may coincide, giving a loop) and external edges attached to
single vertices. Every directed internal half-edge and every external
edge is assigned a fixed matrix slot; all block matrices in the package
are written in these slot orderings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingVertexReference,
    DisconnectedGraph,
    NonPositiveLength,
    SizeMismatch,
    ValidationError,
)

__all__ = [
    "LocalSpec",
    "GraphSpec",
    "InternalEdge",
    "ExternalEdge",
    "Graph",
    "ModeIndex",
    "build_graph",
    "mode_index",
    "external_permutation",
    "internal_permutation",
]


@dataclass(frozen=True)
class LocalSpec:
    """Declarative description of one vertex matrix in a spec file.

    Exactly one of ``family`` or ``matrix`` is set. Known families are
    the keys of local.FAMILIES.
    """

    family: str | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None


@dataclass(frozen=True)
class GraphSpec:
    """Parsed graph description. Vertex indices are 0-based here;
    the file format is 1-based and converted by the specfile module."""

    vertices: int
    internal_edges: tuple[tuple[int, int, float], ...]
    external_edges: tuple[int, ...]
    lengths_unit: float | None = None
    vertex_locals: tuple[LocalSpec | None, ...] | None = None


@dataclass(frozen=True)
class InternalEdge:
    edge_id: int
    u: int
    v: int
    length: float
    j: int  # index among parallel edges with the same endpoint pair

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class ExternalEdge:
    ext_id: int
    vertex: int
    j: int  # index among external edges at this vertex


@dataclass(frozen=True)
class Graph:
    """Validated immutable metric graph."""

    vertex_count: int
    internal_edges: tuple[InternalEdge, ...]
    external_edges: tuple[ExternalEdge, ...]

    @property
    def n_external(self) -> int:
        return len(self.external_edges)

    @property
    def n_internal(self) -> int:
        return len(self.internal_edges)

    def external_degree(self, vertex: int) -> int:
        return sum(1 for e in self.external_edges if e.vertex == vertex)

    def internal_degree(self, vertex: int) -> int:
        # a loop contributes both of its half-edges
        deg = 0
        for e in self.internal_edges:
            if e.u == vertex:
                deg += 1
            if e.v == vertex:
                deg += 1
        return deg

    def degree(self, vertex: int) -> int:
        return self.external_degree(vertex) + self.internal_degree(vertex)

    @property
    def total_internal_length(self) -> float:
        return sum(e.length for e in self.internal_edges)


@dataclass(frozen=True)
class ModeIndex:
    """Deterministic slot assignment for a graph.

    External slots are ordered by (vertex, attachment order). Directed
    internal slots are ordered lexicographically by key
    (tail, head, j, half); a non-loop edge (u, v) yields the two keys
    (u, v, j, 0) and (v, u, j, 0), a loop at vertex a yields
    (a, a, j, 1) and (a, a, j, 2), which always land on consecutive
    positions. The slot owned by vertex alpha is the one whose tail is
    alpha; per-vertex orderings list external slots first.
    """

    external_order: tuple[int, ...]
    external_slots: dict[int, int]
    internal_order: tuple[tuple[int, int, int, int], ...]
    internal_slots: dict[tuple[int, int, int, int], int]
    slot_edge: tuple[int, ...]
    slot_length: tuple[float, ...]
    partner: tuple[int, ...]
    vertex_external: tuple[tuple[int, ...], ...]
    vertex_internal: tuple[tuple[int, ...], ...]

    @property
    def n_external(self) -> int:
        return len(self.external_order)

    @property
    def n_internal_slots(self) -> int:
        return len(self.internal_order)

    def vertex_slot_count(self, vertex: int) -> int:
        return len(self.vertex_external[vertex]) + len(self.vertex_internal[vertex])


def build_graph(spec: GraphSpec) -> Graph:
    """Validate a GraphSpec and return the immutable Graph.

    Raises DanglingVertexReference for out of range vertex indices,
    ValidationError for a non-finite edge length, NonPositiveLength
    for a zero or negative one and
    DisconnectedGraph when the internal edges do not connect all
    vertices.
    """
    n = spec.vertices
    if n < 1:
        raise ValidationError("vertex count must be at least 1, got %d" % n)

    pair_count: dict[tuple[int, int], int] = {}
    internal = []
    for eid, (u, v, length) in enumerate(spec.internal_edges):
        if not (0 <= u < n) or not (0 <= v < n):
            raise DanglingVertexReference(
                "internal edge %d references vertex outside 0..%d" % (eid, n - 1)
            )
        if not math.isfinite(length):
            raise ValidationError("internal edge %d has non-finite length %r" % (eid, length))
        if not (length > 0):
            raise NonPositiveLength(
                "internal edge %d has non-positive length %r" % (eid, length)
            )
        pair = (min(u, v), max(u, v))
        j = pair_count.get(pair, 0)
        pair_count[pair] = j + 1
        internal.append(InternalEdge(eid, u, v, float(length), j))

    per_vertex_ext: dict[int, int] = {}
    external = []
    for xid, vertex in enumerate(spec.external_edges):
        if not (0 <= vertex < n):
            raise DanglingVertexReference(
                "external edge %d references vertex outside 0..%d" % (xid, n - 1)
            )
        j = per_vertex_ext.get(vertex, 0)
        per_vertex_ext[vertex] = j + 1
        external.append(ExternalEdge(xid, vertex, j))

    _check_connected(n, internal)
    return Graph(n, tuple(internal), tuple(external))


def _check_connected(n: int, internal: list[InternalEdge]) -> None:
    if n == 1:
        return
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for e in internal:
        adjacency[e.u].append(e.v)
        adjacency[e.v].append(e.u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b in adjacency[a]:
            if not seen[b]:
                seen[b] = True
                queue.append(b)
    if not all(seen):
        missing = [i for i, s in enumerate(seen) if not s]
        raise DisconnectedGraph("vertices %r are not reachable from vertex 0" % missing)


def mode_index(g: Graph) -> ModeIndex:
    """Compute the slot assignment for a graph.

    Pure function of the graph content; calling it twice yields
    identical maps.
    """
    ext_sorted = sorted(g.external_edges, key=lambda e: (e.vertex, e.j))
    external_order = tuple(e.ext_id for e in ext_sorted)
    external_slots = {xid: pos for pos, xid in enumerate(external_order)}

    keyed: list[tuple[tuple[int, int, int, int], int, float]] = []
    for e in g.internal_edges:
        if e.is_loop:
            keyed.append(((e.u, e.u, e.j, 1), e.edge_id, e.length))
            keyed.append(((e.u, e.u, e.j, 2), e.edge_id, e.length))
        else:
            keyed.append(((e.u, e.v, e.j, 0), e.edge_id, e.length))
            keyed.append(((e.v, e.u, e.j, 0), e.edge_id, e.length))
    keyed.sort(key=lambda item: item[0])

    internal_order = tuple(item[0] for item in keyed)
    internal_slots = {key: pos for pos, key in enumerate(internal_order)}
    slot_edge = tuple(item[1] for item in keyed)
    slot_length = tuple(item[2] for item in keyed)

    partner = []
    for tail, head, j, half in internal_order:
        if half == 0:
            partner.append(internal_slots[(head, tail, j, 0)])
        else:
            partner.append(internal_slots[(tail, head, j, 3 - half)])
    partner_t = tuple(partner)

    vertex_external = tuple(
        tuple(
            external_slots[e.ext_id]
            for e in sorted(g.external_edges, key=lambda e: e.j)
            if e.vertex == vtx
        )
        for vtx in range(g.vertex_count)
    )
    vertex_internal = tuple(
        tuple(pos for pos, key in enumerate(internal_order) if key[0] == vtx)
        for vtx in range(g.vertex_count)
    )

    return ModeIndex(
        external_order=external_order,
        external_slots=external_slots,
        internal_order=internal_order,
        internal_slots=internal_slots,
        slot_edge=slot_edge,
        slot_length=slot_length,
        partner=partner_t,
        vertex_external=vertex_external,
        vertex_internal=vertex_internal,
    )


def _permutation_matrix(perm, expected_size: int, what: str) -> np.ndarray:
    perm = list(perm)
    if len(perm) != expected_size:
        raise SizeMismatch(
            "%s permutation has %d entries, expected %d"
            % (what, len(perm), expected_size)
        )
    if sorted(perm) != list(range(expected_size)):
        raise ValidationError("%s permutation is not a bijection" % what)
    mat = np.zeros((expected_size, expected_size))
    for old, new in enumerate(perm):
        mat[new, old] = 1.0
    return mat


def external_permutation(g: Graph, pi) -> np.ndarray:
    """Permutation matrix on external slots; pi[i] is the new position
    of slot i, so a relabeled matrix is P S P^T."""
    return _permutation_matrix(pi, g.n_external, "external")


def internal_permutation(g: Graph, rho) -> np.ndarray:
    """Permutation matrix on directed internal slots, same convention
    as external_permutation."""
    return _permutation_matrix(rho, 2 * g.n_internal, "internal")
