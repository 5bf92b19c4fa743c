"""Per-vertex scattering matrices.

A vertex matrix acts on the vertex's slots (externals first, then the
internal half-edges owned by the vertex) and must satisfy the
involution S(p) S(-p) = I. Constant matrices are checked exactly once;
momentum-dependent ones are checked on a fixed sample of momenta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegreeMismatch, InvalidCycle, NotInvolutive, SizeMismatch
from .graph import _permutation_matrix

__all__ = [
    "LocalScattering",
    "INVOLUTION_TOL",
    "constant_local",
    "momentum_local",
    "kirchhoff_local",
    "tetra2_local",
    "FAMILIES",
    "check_rotation_invariance",
]

INVOLUTION_TOL = 1e-10

# momentum-dependent matrices are validated on these samples and their
# negatives
_SAMPLE_MOMENTA = tuple(np.linspace(0.1, 10.0, 16))


@dataclass(frozen=True)
class LocalScattering:
    """Scattering matrix at one vertex.

    Exactly one of ``constant`` or ``evaluator`` is set. ``unitary``
    records whether the matrix was unitary at every validation point.
    ``family`` is a round-trip tag for spec files.
    """

    vertex: int
    size: int
    constant: np.ndarray | None
    evaluator: Callable[[complex], np.ndarray] | None
    unitary: bool
    family: str | None = None

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def matrix(self, p: complex) -> np.ndarray:
        if self.constant is not None:
            return self.constant
        out = np.asarray(self.evaluator(p), dtype=complex)
        if out.shape != (self.size, self.size):
            raise SizeMismatch(
                "evaluator for vertex %d returned shape %r, expected (%d, %d)"
                % (self.vertex, out.shape, self.size, self.size)
            )
        return out


def _as_square(entries, vertex: int) -> np.ndarray:
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise SizeMismatch(
            "matrix for vertex %d has shape %r, expected nonempty square" % (vertex, mat.shape)
        )
    return mat


# max-norm defects of S S' = I and S^dagger S = I, per matrix of a stack;
# products that overflow give an inf or nan defect, which fails every check
def _involution_defect(s_plus: np.ndarray, s_minus: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(s_plus @ s_minus - np.eye(s_plus.shape[-1])), axis=(-2, -1))


def _unitarity_defect(s: np.ndarray):
    s_dagger = np.swapaxes(s, -2, -1).conj()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(s_dagger @ s - np.eye(s.shape[-1])), axis=(-2, -1))


def constant_local(vertex: int, entries) -> LocalScattering:
    """Wrap a constant matrix, verifying S S = I within 1e-10."""
    mat = _as_square(entries, vertex)
    defect = _involution_defect(mat, mat)
    if not defect < INVOLUTION_TOL:
        raise NotInvolutive(
            "matrix for vertex %d violates S*S = I (defect %.3e)" % (vertex, defect)
        )
    mat.flags.writeable = False
    return LocalScattering(
        vertex=vertex,
        size=mat.shape[0],
        constant=mat,
        evaluator=None,
        unitary=bool(_unitarity_defect(mat) < INVOLUTION_TOL),
    )


def momentum_local(
    vertex: int, size: int, evaluator: Callable[[complex], np.ndarray]
) -> LocalScattering:
    """Wrap a momentum-dependent evaluator.

    The involution S(p) S(-p) = I is checked at each momentum of
    _SAMPLE_MOMENTA; the matrix is flagged unitary when
    S(p)^dagger S(p) = I holds at every one of them as well. The
    evaluator must be pure.
    """
    if size < 1:
        raise SizeMismatch("size must be at least 1, got %d" % size)
    loc = LocalScattering(vertex, size, constant=None, evaluator=evaluator, unitary=False)
    unitary = True
    for p in _SAMPLE_MOMENTA:
        plus, minus = loc.matrix(p), loc.matrix(-p)
        defect = _involution_defect(plus, minus)
        if not defect < INVOLUTION_TOL:
            raise NotInvolutive(
                "evaluator for vertex %d violates S(p)S(-p) = I at p=%r (defect %.3e)"
                % (vertex, p, defect)
            )
        if not _unitarity_defect(plus) < INVOLUTION_TOL:
            unitary = False
    return replace(loc, unitary=unitary)


def kirchhoff_local(vertex: int, degree: int) -> LocalScattering:
    """Scale-invariant matrix (2/n) J - I at a degree-n vertex."""
    if degree < 1:
        raise SizeMismatch("degree must be at least 1, got %d" % degree)
    mat = np.full((degree, degree), 2.0 / degree, dtype=complex) - np.eye(degree)
    return replace(constant_local(vertex, mat), family="kirchhoff")


def tetra2_local(vertex: int, degree: int = 4) -> LocalScattering:
    """The second rotation-invariant matrix at a degree-4 vertex.

    Row 0 is (-1/2, 1/2, 1/2, 1/2); the remaining rows have diagonal
    5/6 and off-diagonal entries 1/2 toward slot 0 and -1/6 otherwise.
    """
    if degree != 4:
        raise DegreeMismatch("this family requires a degree-4 vertex, got %d" % degree)
    mat = np.array(
        [
            [-3, 3, 3, 3],
            [3, 5, -1, -1],
            [3, -1, 5, -1],
            [3, -1, -1, 5],
        ],
        dtype=complex,
    ) / 6.0
    return replace(constant_local(vertex, mat), family="tetra2")


# the named families of spec files: name -> builder(vertex, degree)
FAMILIES = {"kirchhoff": kirchhoff_local, "tetra2": tetra2_local}


def check_rotation_invariance(s: LocalScattering, cycle) -> bool:
    """True when conjugating by the given cyclic permutation of the
    internal slots (slot 0 held fixed) leaves the matrix unchanged
    within 1e-12.

    ``cycle`` permutes the internal slots 0..n-1 of a vertex with one
    external slot and n >= 1 internal slots, and must be a single n-cycle.
    """
    cycle = list(cycle)
    n = s.size - 1
    if n < 1 or len(cycle) != n or sorted(cycle) != list(range(n)):
        raise InvalidCycle(
            "expected a permutation of %d internal slots, at least 1, got %r" % (n, cycle)
        )
    # single-cycle check: the orbit of 0 must have length n
    seen = 0
    pos = 0
    while True:
        pos = cycle[pos]
        seen += 1
        if pos == 0:
            break
    if seen != n:
        raise InvalidCycle("permutation %r is not a single %d-cycle" % (cycle, n))

    rot = _permutation_matrix([0, *(1 + new for new in cycle)], s.size, "rotation")

    if s.is_constant:
        mats = [s.constant]
    else:
        mats = [s.matrix(p) for p in _SAMPLE_MOMENTA]
    return all(float(np.max(np.abs(rot @ m @ rot.T - m))) < 1e-12 for m in mats)
