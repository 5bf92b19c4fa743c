"""Total scattering matrix and internal modes.

Writing the four blocks as s11, s12, s21, s22 and the propagation
matrix as E, the external response is

    S_tot(p) = s11(p) + s12(p) [E(p) - s22(p)]^{-1} s21(p)

and the internal amplitudes driven by an external vector a are

    B(p) = [E(-p) - s22(-p)]^{-1} s21(-p) a.

Every momentum goes through ``scattering_grid``, which inverts the
matrices M(p) = E(0) D(p) - s22 of a whole grid as one stack and takes
exact singular values only where kappa_2 <= |M|_F |M^-1|_F cannot rule
out a pole. A truncated multiple-reflection series is
provided as an independent oracle for testing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf, nan

import numpy as np

from .assemble import assemble_blocks, assemble_propagation
from .errors import NearPole, SeriesDiverges, SizeMismatch, ValidationError
from .graph import Graph, ModeIndex
from .local import _involution_defect, _unitarity_defect

__all__ = [
    "TotalSMatrix",
    "NEAR_POLE_RTOL",
    "scattering_grid",
    "grid_defects",
    "total_scattering",
    "internal_modes",
    "path_sum_oracle",
    "verify_involution",
    "verify_unitarity",
]

# below this singular value ratio the resolvent is treated as singular
NEAR_POLE_RTOL = 1e-12

# resolvent entries per chunk of a grid; bounds a sweep's working memory
_CHUNK_ELEMENTS = 1 << 18

# longest float64 array numpy can index; longer momentum grids raise
# MemoryError instead of numpy's ValueError or IndexError
MAX_GRID_POINTS = sys.maxsize // 8


@dataclass(frozen=True)
class TotalSMatrix:
    """External scattering matrix with a conditioning probe of the
    resolvent matrix E - s22 it was computed from."""

    matrix: np.ndarray
    momentum: complex
    sigma_min: float
    sigma_max: float

    @property
    def condition_report(self) -> tuple[float, float]:
        return (self.sigma_min, self.sigma_max)


def _inverse(m: np.ndarray):
    """Inverse of the stack m and the mask of its exactly singular matrices,
    which fail the batched LU: the stack is then inverted one by one."""
    singular = np.zeros(len(m), dtype=bool)
    try:
        return np.linalg.inv(m), singular
    except np.linalg.LinAlgError:
        minv = np.full_like(m, nan)
    for k, mk in enumerate(m):
        try:
            minv[k] = np.linalg.inv(mk)
        except np.linalg.LinAlgError:
            singular[k] = True
    return minv, singular


def _resolvent_chunks(g: Graph, locals_, idx: ModeIndex, momenta):
    """Solve the grid chunk by chunk, assembling the blocks once (per
    point when a vertex matrix depends on momentum). Yields per chunk
    (chunk, s_tot, m, core, near): its slice of the grid, the S_tot
    stack, the resolvent stack M, core = M^-1 s21 and the near-pole
    mask. Rows of flagged points hold meaningless values. A momentum
    whose product with the longest edge overflows is refused with a
    ValidationError.
    """
    momenta = np.asarray(momenta)
    longest = max(idx.slot_length, default=0.0)
    reach = np.maximum(np.abs(momenta.real), np.abs(momenta.imag))
    if float(reach.max(initial=0.0)) * longest == inf:
        raise ValidationError("momentum p=%r times the longest edge length %r overflows"
                              % (momenta[reach.argmax()].item(), longest))
    constant = all(loc.is_constant for loc in locals_)
    fixed = [assemble_blocks(g, locals_, idx, 0.0)] if constant else None
    e0 = assemble_propagation(g, idx, 0.0).matrix
    lengths = np.asarray(idx.slot_length)
    step = max(1, _CHUNK_ELEMENTS // max(1, idx.n_internal_slots ** 2))
    for start in range(0, len(momenta), step):
        p = momenta[start:start + step]
        blocks = fixed or [assemble_blocks(g, locals_, idx, q) for q in p.tolist()]
        s11, s12, s21, s22 = (np.stack([getattr(b, f) for b in blocks])
                              for f in ("ext_ext", "ext_int", "int_ext", "int_int"))
        # E(p) = E(0) D(p) scales column s of E(0) by exp(-i p d_s)
        m = e0 * np.exp(-1j * p[:, None] * lengths)[:, None, :] - s22
        minv, near = _inverse(m)
        # kappa_2 <= |M|_F |M^-1|_F, squares summed on float views with no
        # stack-sized temporaries; the factor 2 covers the inverse's rounding
        sq = [np.einsum("kij,kij->k", a.view(float), a.view(float)) for a in (m, minv)]
        bound = np.sqrt(sq[0] * sq[1])
        for k in np.flatnonzero(~near & ~(bound < 0.5 / NEAR_POLE_RTOL)):
            sigma = np.linalg.svd(m[k], compute_uv=False)
            near[k] = sigma[-1] <= NEAR_POLE_RTOL * sigma[0]
        core = minv @ s21
        yield slice(start, start + len(p)), s11 + s12 @ core, m, core, near


def scattering_grid(g: Graph, locals_, idx: ModeIndex, momenta):
    """S_tot at every momentum of a grid: (stack, near_pole), the
    (P, N_e, N_e) stack and the boolean (P,) mask of momenta near a
    pole, whose rows of the stack are NaN."""
    stack = np.empty((len(momenta), g.n_external, g.n_external), dtype=complex)
    near = np.zeros(len(momenta), dtype=bool)
    for chunk, s_tot, _, _, flags in _resolvent_chunks(g, locals_, idx, momenta):
        stack[chunk] = s_tot
        near[chunk] = flags
    stack[near] = complex(nan, nan)
    return stack, near


def _one_point(g: Graph, locals_, idx: ModeIndex, p: complex):
    """(S_tot, core, sigma_min, sigma_max) at one momentum, from the
    grid engine; raises NearPole with the exact singular values."""
    ((_, s_tot, m, core, near),) = _resolvent_chunks(g, locals_, idx, [p])
    if g.n_internal == 0:
        return s_tot[0], core[0], nan, nan
    sigma = np.linalg.svd(m[0], compute_uv=False)
    if near[0]:
        raise NearPole(p, float(sigma[-1]), float(sigma[0]))
    return s_tot[0], core[0], float(sigma[-1]), float(sigma[0])


def total_scattering(g: Graph, locals_, idx: ModeIndex, p: complex) -> TotalSMatrix:
    """Evaluate the total scattering matrix at momentum p.

    For a graph with no internal edges this is the external block
    itself and no conditioning probe applies.
    """
    s_tot, _, s_min, s_max = _one_point(g, locals_, idx, p)
    return TotalSMatrix(s_tot, p, s_min, s_max)


def internal_modes(g: Graph, locals_, idx: ModeIndex, p: complex, external) -> np.ndarray:
    """Internal amplitude vector driven by the external vector at p."""
    a = np.asarray(external, dtype=complex)
    if a.shape != (g.n_external,):
        raise SizeMismatch(
            "external vector has shape %r, expected (%d,)" % (a.shape, g.n_external)
        )
    _, core, _, _ = _one_point(g, locals_, idx, -p)
    return core @ a


def path_sum_oracle(
    g: Graph,
    locals_,
    idx: ModeIndex,
    p: complex,
    max_order: int | None = None,
    tol: float = 1e-10,
) -> np.ndarray:
    """Multiple-reflection partial sum

        s11 + s12 (sum_{n=0}^{K} [E(-p) s22]^n) E(-p) s21.

    With max_order=None the truncation order is chosen from the
    geometric tail bound so the dropped remainder is below tol. Raises
    SeriesDiverges when the spectral radius of E(-p) s22 reaches 1.
    Intended as a slow independent check of total_scattering.
    """
    blocks = assemble_blocks(g, locals_, idx, p)
    if g.n_internal == 0:
        return blocks.ext_ext.copy()
    e_neg = assemble_propagation(g, idx, -p).matrix
    bounce = e_neg @ blocks.int_int
    rho = float(np.max(np.abs(np.linalg.eigvals(bounce))))
    if rho >= 1.0:
        raise SeriesDiverges("bounce spectral radius %.6f is not below 1" % rho)

    term = e_neg @ blocks.int_ext
    acc = term.copy()
    if max_order is not None:
        for _ in range(max_order):
            term = bounce @ term
            acc += term
    else:
        # observed-norm geometric tail: sum_{m>=1} |term| rho^m
        limit = 100000
        for _ in range(limit):
            term = bounce @ term
            acc += term
            tail = float(np.max(np.abs(term))) * rho / (1.0 - rho)
            if tail < tol:
                break
        else:
            raise SeriesDiverges(
                "tail bound %.3e not reached within %d terms" % (tol, limit)
            )
    return blocks.ext_ext + blocks.ext_int @ acc


def grid_defects(g: Graph, locals_, idx: ModeIndex, momenta):
    """(involution, unitarity, near_pole) of S_tot as (P,) arrays, from
    one grid solve over the momenta and their negatives. A point is
    flagged (defects NaN) when p or -p is near a pole; a graph without
    external edges has zero defects and no flags."""
    p = np.asarray(momenta)
    if g.n_external == 0:
        return np.zeros(len(p)), np.zeros(len(p)), np.zeros(len(p), dtype=bool)
    stack, near = scattering_grid(g, locals_, idx, np.concatenate([p, -p]))
    s_plus, s_minus = np.split(stack, 2)
    return (_involution_defect(s_plus, s_minus), _unitarity_defect(s_plus),
            np.logical_or(*np.split(near, 2)))


def verify_involution(g: Graph, locals_, idx: ModeIndex, p: complex) -> float:
    """Max-norm of S_tot(p) S_tot(-p) - I."""
    if g.n_external == 0:
        return 0.0
    s_plus = total_scattering(g, locals_, idx, p).matrix
    s_minus = total_scattering(g, locals_, idx, -p).matrix
    return float(_involution_defect(s_plus, s_minus))


def verify_unitarity(g: Graph, locals_, idx: ModeIndex, p: complex) -> float:
    """Max-norm of S_tot(p)^dagger S_tot(p) - I; meaningful at real p
    with unitary vertex matrices."""
    if g.n_external == 0:
        return 0.0
    return float(_unitarity_defect(total_scattering(g, locals_, idx, p).matrix))
