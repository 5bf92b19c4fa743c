"""Shared test utilities: randomized graphs and vertex matrices, and
slot bookkeeping for relabeling tests."""

from __future__ import annotations

import numpy as np

from graphscatter import (
    GraphSpec,
    NearPole,
    build_graph,
    constant_local,
    kirchhoff_local,
    mode_index,
    total_scattering,
)


def random_graph(rng, max_vertices=6, max_extra=4, allow_loops=True, max_external=3):
    """Connected random graph: spanning tree plus extra edges, possibly
    loops and parallel edges, with 1..max_external external edges."""
    n = int(rng.integers(1, max_vertices + 1))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.5))))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        if len(edges) >= 8:
            break
        if allow_loops and rng.random() < 0.35:
            a = int(rng.integers(0, n))
            edges.append((a, a, float(rng.uniform(0.5, 2.5))))
        else:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n))
            if a == b and not allow_loops:
                continue
            edges.append((a, b, float(rng.uniform(0.5, 2.5))))
    externals = tuple(int(rng.integers(0, n)) for _ in range(int(rng.integers(1, max_external + 1))))
    return build_graph(GraphSpec(n, tuple(edges), externals))


def random_involutive(rng, vertex, size, unitary=False):
    """Random matrix with S S = I; optionally exactly unitary
    (hermitian built from an orthonormal eigenbasis)."""
    if unitary:
        z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        q, _ = np.linalg.qr(z)
        d = np.where(rng.random(size) < 0.5, 1.0, -1.0)
        return constant_local(vertex, (q * d) @ q.conj().T)
    while True:
        q = np.eye(size) + 0.3 * rng.normal(size=(size, size))
        if np.linalg.cond(q) < 20.0:
            break
    d = np.where(rng.random(size) < 0.5, 1.0, -1.0)
    return constant_local(vertex, q @ np.diag(d) @ np.linalg.inv(q))


def random_locals(rng, g, idx, unitary=False):
    return [
        random_involutive(rng, v, idx.vertex_slot_count(v), unitary=unitary)
        for v in range(g.vertex_count)
    ]


def compact_rational_ring(seed, n=20, chords=10):
    """Compact Kirchhoff ring of n edges plus random chords, lengths
    k/10 with k in 5..15: the benchmark's compact spectrum recipe."""
    rng = np.random.default_rng(seed + 1_000_003)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(chords):
        a, b = rng.choice(n, 2, replace=False)
        pairs.append((int(a), int(b)))
    tenths = rng.integers(5, 16, size=len(pairs))
    edges = tuple((a, b, k / 10.0) for (a, b), k in zip(pairs, tenths))
    g = build_graph(GraphSpec(n, edges, ()))
    return g, [kirchhoff_local(v, g.degree(v)) for v in range(n)], mode_index(g)


def block_diag(*mats):
    """Block-diagonal matrix with the given square blocks in order."""
    out = np.zeros((sum(len(m) for m in mats),) * 2, dtype=complex)
    start = 0
    for m in mats:
        out[start:start + len(m), start:start + len(m)] = m
        start += len(m)
    return out


def nonpole_momentum(rng, g, locals_, idx, guard=1e-5, lo=0.1, hi=7.0):
    """Real momentum where the resolvent is comfortably nonsingular."""
    for _ in range(500):
        p = float(rng.uniform(lo, hi))
        if g.n_internal == 0:
            return p
        try:
            res = total_scattering(g, locals_, idx, p)
        except NearPole:
            continue
        if res.sigma_min > guard * res.sigma_max:
            return p
    raise AssertionError("no momentum away from poles found")


def slot_transport(g1, idx1, g2, idx2, tau, edge_map, ext_map):
    """Position maps between the slot spaces of two graphs related by
    a relabeling.

    tau: vertex bijection (g1 vertex -> g2 vertex). edge_map maps g1
    edge ids to g2 edge ids of the same physical edge; ext_map the
    same for external edge ids. Returns (ext_perm, int_perm) with
    ext_perm[old slot] = new slot and likewise for internal slots.
    """
    ext_perm = [0] * idx1.n_external
    for old_pos, xid in enumerate(idx1.external_order):
        ext_perm[old_pos] = idx2.external_slots[ext_map[xid]]

    int_perm = [0] * idx1.n_internal_slots
    for old_pos, (tail, head, _j, half) in enumerate(idx1.internal_order):
        e2 = g2.internal_edges[edge_map[idx1.slot_edge[old_pos]]]
        if half == 0:
            key = (tau[tail], tau[head], e2.j, 0)
        else:
            key = (tau[tail], tau[tail], e2.j, half)
        int_perm[old_pos] = idx2.internal_slots[key]
    return ext_perm, int_perm


def transport_locals(g1, idx1, g2, idx2, tau, ext_perm, int_perm, locals1):
    """Conjugate each constant vertex matrix into the relabeled graph's
    per-vertex slot ordering."""
    n_e1 = idx1.n_external

    def combined_old(v):
        return [*idx1.vertex_external[v], *(n_e1 + s for s in idx1.vertex_internal[v])]

    n_e2 = idx2.n_external

    def combined_new(v):
        return [*idx2.vertex_external[v], *(n_e2 + s for s in idx2.vertex_internal[v])]

    out = []
    for v in range(g1.vertex_count):
        old_slots = combined_old(v)
        mapped = [
            ext_perm[s] if s < n_e1 else n_e2 + int_perm[s - n_e1] for s in old_slots
        ]
        new_slots = combined_new(tau[v])
        size = len(old_slots)
        q = np.zeros((size, size))
        for old_local, target in enumerate(mapped):
            q[new_slots.index(target), old_local] = 1.0
        out.append(constant_local(tau[v], q @ locals1[v].constant @ q.T))
    return out


def permutation_matrix(perm):
    mat = np.zeros((len(perm), len(perm)))
    for src, dst in enumerate(perm):
        mat[dst, src] = 1.0
    return mat


def _combined_positions(g, idx):
    # combined slot space: externals 0..N_e-1, then internal slots
    n_e = idx.n_external
    positions = []
    for vtx in range(g.vertex_count):
        positions.extend(idx.vertex_external[vtx])
        positions.extend(n_e + s for s in idx.vertex_internal[vtx])
    return positions


def scatter_order_permutation(g, idx):
    """0/1 matrix P reindexing the vertex-ordered direct sum into
    (external, internal) ordering: P (sum of locals) P^T equals the
    stacked block matrix."""
    return permutation_matrix(_combined_positions(g, idx))


def system(g, rng=None, unitary=False, locals_=None):
    idx = mode_index(g)
    if locals_ is None:
        locals_ = random_locals(rng, g, idx, unitary=unitary)
    return g, locals_, idx


def count_calls(monkeypatch, module, name):
    """A list that gets the arguments of every later call of module.name."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
