"""Global block matrices.

The direct sum of the vertex matrices, reindexed from vertex-local
ordering to (external, internal) slot ordering, splits into four
blocks. The propagation matrix pairs the two directed copies of each
internal edge with the phase factor exp(-i p d); a loop contributes an
antidiagonal 2x2 block on its two consecutive slots. The solvers take
the internal rows of the blocks in that pairing's order
(_partner_rows, _bond_blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingVertexMatrix, SizeMismatch, ValidationError
from .graph import Graph, ModeIndex
from .local import LocalScattering

__all__ = [
    "BlockSystem",
    "PropagationMatrix",
    "assemble_blocks",
    "assemble_propagation",
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


def _scatter(g: Graph, resolved, idx: ModeIndex, momenta) -> np.ndarray:
    """The direct sums of the resolved vertex matrices at every momentum,
    reindexed to (external, internal) slot order, as a (P, N_e + 2N_i,
    N_e + 2N_i) stack. Entries outside vertex-local positions are
    exactly zero."""
    n_e = idx.n_external
    total = n_e + idx.n_internal_slots
    # one scatter of every vertex matrix, each in row-major order
    rows, cols = [], []
    for vtx in range(g.vertex_count):
        slots = [*idx.vertex_external[vtx], *(n_e + s for s in idx.vertex_internal[vtx])]
        rows += [r for r in slots for _ in slots]
        cols += slots * len(slots)
    combined = np.zeros((len(momenta), total, total), dtype=complex)
    combined[:, rows, cols] = [np.concatenate([loc.matrix(q).ravel() for loc in resolved])
                               for q in momenta]
    return combined


def _blocks(combined: np.ndarray, n_e: int):
    """(s11, s12, s21, s22) of a combined matrix or of each of a stack."""
    return (combined[..., :n_e, :n_e], combined[..., :n_e, n_e:],
            combined[..., n_e:, :n_e], combined[..., n_e:, n_e:])


def assemble_blocks(g: Graph, locals_, idx: ModeIndex, p: complex) -> BlockSystem:
    """Evaluate every vertex matrix at p and scatter the entries into
    the four global blocks. Entries outside vertex-local positions are
    exactly zero."""
    combined = _scatter(g, resolve_locals(g, locals_, idx), idx, [p])[0]
    return BlockSystem(*_blocks(combined, idx.n_external), momentum=p)


def _partner_rows(idx: ModeIndex, block: np.ndarray) -> np.ndarray:
    """E(0) block: the rows of block, or of every matrix of a stack, in
    partner order. E(0) pairs the two slots of every internal edge and
    E(p) = E(0) D(p), D(p) = diag(exp(-i p d_s)), so E(0) E(p) = D(p)."""
    return block[..., list(idx.partner), :]


def _bond_blocks(g: Graph, resolved, idx: ModeIndex, momenta):
    """(s11, s12, E(0) s21, B = E(0) s22) of the resolved vertex matrices,
    stacked over the momenta. The engines work on
    E(0) (E(p) - s22) = D(p) - B."""
    combined = _scatter(g, resolved, idx, momenta)
    combined[:, idx.n_external:] = _partner_rows(idx, combined[:, idx.n_external:])
    return _blocks(combined, idx.n_external)


def assemble_propagation(g: Graph, idx: ModeIndex, p: complex) -> PropagationMatrix:
    """Propagation matrix at momentum p.

    Entry (partner(s), s) carries exp(-i p d_s); all other entries are
    zero. The result is symmetric and satisfies E(p) E(-p) = I.
    """
    n = idx.n_internal_slots
    mat = np.zeros((n, n), dtype=complex)
    mat[list(idx.partner), range(n)] = np.exp(-1j * p * np.asarray(idx.slot_length))
    return PropagationMatrix(matrix=mat, momentum=p)
