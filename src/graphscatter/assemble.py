"""Global block matrices.

The direct sum of the vertex matrices, reindexed from vertex-local
ordering to (external, internal) slot ordering, splits into four
blocks. The propagation matrix pairs the two directed copies of each
internal edge with the phase factor exp(-i p d); a loop contributes an
antidiagonal 2x2 block on its two consecutive slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingVertexMatrix, SizeMismatch, ValidationError
from .graph import Graph, ModeIndex, _permutation_matrix
from .local import LocalScattering

__all__ = [
    "BlockSystem",
    "PropagationMatrix",
    "assemble_blocks",
    "assemble_propagation",
    "phase_diagonal",
    "scatter_order_permutation",
]


@dataclass(frozen=True)
class BlockSystem:
    """The four blocks of the reindexed direct sum at one momentum.

    ext_ext is N_e x N_e, ext_int is N_e x 2N_i, int_ext is 2N_i x N_e
    and int_int is 2N_i x 2N_i.
    """

    ext_ext: np.ndarray
    ext_int: np.ndarray
    int_ext: np.ndarray
    int_int: np.ndarray
    momentum: complex


@dataclass(frozen=True)
class PropagationMatrix:
    matrix: np.ndarray
    momentum: complex


def resolve_locals(g: Graph, locals_, idx: ModeIndex) -> list[LocalScattering]:
    """Arrange one LocalScattering per vertex, checking sizes."""
    by_vertex: dict[int, LocalScattering] = {}
    for loc in locals_:
        if loc.vertex in by_vertex:
            raise ValidationError("duplicate matrix for vertex %d" % loc.vertex)
        if not (0 <= loc.vertex < g.vertex_count):
            raise ValidationError("matrix for unknown vertex %d" % loc.vertex)
        by_vertex[loc.vertex] = loc
    missing = [v for v in range(g.vertex_count) if v not in by_vertex]
    if missing:
        raise MissingVertexMatrix("no matrix for vertices %r" % missing)
    out = []
    for vtx in range(g.vertex_count):
        loc = by_vertex[vtx]
        expected = idx.vertex_slot_count(vtx)
        if loc.size != expected:
            raise SizeMismatch(
                "matrix for vertex %d is %dx%d but the vertex has %d slots"
                % (vtx, loc.size, loc.size, expected)
            )
        out.append(loc)
    return out


def _combined_positions(g: Graph, idx: ModeIndex) -> list[int]:
    # combined slot space: externals 0..N_e-1, then internal slots
    n_e = idx.n_external
    positions = []
    for vtx in range(g.vertex_count):
        positions.extend(idx.vertex_external[vtx])
        positions.extend(n_e + s for s in idx.vertex_internal[vtx])
    return positions


def assemble_blocks(g: Graph, locals_, idx: ModeIndex, p: complex) -> BlockSystem:
    """Evaluate every vertex matrix at p and scatter the entries into
    the four global blocks. Entries outside vertex-local positions are
    exactly zero."""
    resolved = resolve_locals(g, locals_, idx)
    n_e = idx.n_external
    total = n_e + idx.n_internal_slots
    # one scatter of every vertex matrix, each in row-major order
    rows, cols = [], []
    for vtx in range(g.vertex_count):
        slots = [*idx.vertex_external[vtx], *(n_e + s for s in idx.vertex_internal[vtx])]
        rows += [r for r in slots for _ in slots]
        cols += slots * len(slots)
    combined = np.zeros((total, total), dtype=complex)
    combined[rows, cols] = np.concatenate([loc.matrix(p).ravel() for loc in resolved])
    return BlockSystem(
        ext_ext=combined[:n_e, :n_e],
        ext_int=combined[:n_e, n_e:],
        int_ext=combined[n_e:, :n_e],
        int_int=combined[n_e:, n_e:],
        momentum=p,
    )


def assemble_propagation(g: Graph, idx: ModeIndex, p: complex) -> PropagationMatrix:
    """Propagation matrix at momentum p.

    Entry (partner(s), s) carries exp(-i p d_s); all other entries are
    zero. The result is symmetric and satisfies E(p) E(-p) = I.
    """
    n = idx.n_internal_slots
    mat = np.zeros((n, n), dtype=complex)
    mat[list(idx.partner), range(n)] = np.exp(-1j * p * np.asarray(idx.slot_length))
    return PropagationMatrix(matrix=mat, momentum=p)


def phase_diagonal(g: Graph, idx: ModeIndex, p: complex) -> np.ndarray:
    """Diagonal factor D(p) with E(p) = D(p) E(0) = E(0) D(p) and
    D(p) D(q) = D(p + q)."""
    return np.diag(np.exp(-1j * p * np.asarray(idx.slot_length)))


def scatter_order_permutation(g: Graph, idx: ModeIndex) -> np.ndarray:
    """0/1 matrix P reindexing the vertex-ordered direct sum into
    (external, internal) ordering: P (sum of locals) P^T equals the
    stacked block matrix."""
    positions = _combined_positions(g, idx)
    return _permutation_matrix(positions, len(positions), "slot order")
