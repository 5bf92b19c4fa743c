"""Total scattering matrix and internal modes.

Writing the four blocks as s11, s12, s21, s22 and the propagation
matrix as E, the external response is

    S_tot(p) = s11(p) + s12(p) [E(p) - s22(p)]^{-1} s21(p)

and the internal amplitudes driven by an external vector a are

    [E(-p) - s22(-p)]^{-1} s21(-p) a.

Every momentum goes through ``scattering_grid``. E(p) = E(0) D(p) with
D(p) = diag(exp(-i p d_s)) and E(0) the permutation that pairs the two
slots of every internal edge, so the rows of E(p) - s22 in partner
order are M(p) = D(p) - B, B = E(0) s22: the one matrix that the
sweeps and the spectral engine solve with (_resolvent_stack). The
sweep solves M(p) X = E(0) [s21 | Omega] for a whole grid as one
stack, so X = (E(p) - s22)^-1 [s21 | Omega]. Omega is a fixed, seeded
block of random probe columns whose solutions bound |M^-1|_2 (Dixon's
estimator), so exact singular values are taken only where the bound
cannot rule out a pole. With real momenta and real constant vertex
data, M(-p) = conj M(p) and S_tot(-p) = conj S_tot(p), so a grid that
holds both p and -p factors only p and mirrors the row of -p. A
truncated multiple-reflection series is provided as an independent
oracle for testing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import isfinite, isnan, nan, pi, sqrt

import numpy as np

from .assemble import (_bond_blocks, _partner_rows, assemble_blocks, assemble_propagation,
                       resolve_locals)
from .errors import EmptyInterval, NearPole, SeriesDiverges, SizeMismatch, ValidationError
from .graph import Graph, ModeIndex
from .local import _involution_defect, _unitarity_defect

__all__ = [
    "TotalSMatrix",
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

# random probe columns of the conditioning certificate; each divides the
# chance that |M^-1|_2 > _PROBE_FACTOR max_i |M^-1 w_i| by ten
_PROBES = 8
_PROBE_FACTOR = 10.0 * sqrt(2.0 / pi)

# longest float64 array numpy can index; longer momentum grids raise
# MemoryError instead of numpy's ValueError or IndexError
MAX_GRID_POINTS = sys.maxsize // 8


@dataclass(frozen=True)
class TotalSMatrix:
    """External scattering matrix with a conditioning probe of the
    resolvent matrix E - s22 it was computed from."""

    matrix: np.ndarray
    sigma_min: float
    sigma_max: float


def _solve(m: np.ndarray, b: np.ndarray):
    """M^-1 B for each matrix M of the stack m and the matching B of the
    stack b, and the mask of the exactly singular matrices. These fail
    the batched LU: the stack is then done one by one and their rows
    are NaN."""
    singular = np.zeros(len(m), dtype=bool)
    try:
        return np.linalg.solve(m, b), singular
    except np.linalg.LinAlgError:
        out = np.full_like(b, nan)
    for k in range(len(m)):
        try:
            out[k] = np.linalg.solve(m[k], b[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return out, singular


def _probe_block(n: int, columns: int = _PROBES) -> np.ndarray:
    """The fixed n-by-columns probe block Omega, whose entries have
    independent standard normal real and imaginary parts: a splitmix64
    hash of a counter gives uniforms in (0, 1], Box-Muller turns each
    pair into r e^{i theta}. It leaves numpy.random unimported."""
    z = np.arange(1, 2 * n * columns + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = ((z >> np.uint64(11)) + np.uint64(1)).astype(float) * 2.0 ** -53
    radius, turn = u.reshape(2, n, columns)
    return np.sqrt(-2.0 * np.log(radius)) * np.exp(2j * pi * turn)


def _chunks(n: int, count: int) -> list[slice]:
    """Slices that cut a stack of count n-by-n matrices into chunks of
    about _CHUNK_ELEMENTS entries each."""
    step = max(1, _CHUNK_ELEMENTS // max(1, n ** 2))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _refuse_phase_overflow(idx: ModeIndex, momenta: np.ndarray) -> None:
    """ValidationError when some momentum's product with the longest edge
    length is not finite, so that its phase factor exp(-i p d) is undefined."""
    longest = max(idx.slot_length, default=0.0)
    reach = np.maximum(np.abs(momenta.real), np.abs(momenta.imag))
    if not isfinite(float(reach.max(initial=0.0)) * longest):
        raise ValidationError("momentum p=%r times the longest edge length %r is not finite"
                              % (momenta[reach.argmax()].item(), longest))


def _refuse_range(p_min: float, p_max: float) -> None:
    """ValidationError unless p_min, p_max and the width p_max - p_min
    are finite; EmptyInterval unless p_min < p_max."""
    if not (isfinite(p_min) and isfinite(p_max)):
        raise ValidationError("need finite p_min and p_max, got [%r, %r]" % (p_min, p_max))
    if not p_min < p_max:
        raise EmptyInterval("need p_min < p_max, got [%r, %r]" % (p_min, p_max))
    if not isfinite(p_max - p_min):
        raise ValidationError("need a finite width p_max - p_min, got [%r, %r]" % (p_min, p_max))


def _resolvent_stack(idx: ModeIndex, bond: np.ndarray, p: np.ndarray) -> np.ndarray:
    """M(p) = D(p) - B, D(p) = diag(exp(-i p d_s)), at every momentum of
    p, for one bond block B = E(0) s22 or one per momentum.

    M(p) = E(0) (E(p) - s22) is the resolvent matrix with its rows in
    partner order, so it has the same singular values and Frobenius
    norm, and M^-1 E(0) = (E(p) - s22)^-1. Its derivative is
    -i diag(d) D(p).
    """
    m = np.negative(bond, out=np.empty((len(p), *bond.shape[-2:]), dtype=complex))
    diagonal = np.arange(len(idx.slot_length))
    m[:, diagonal, diagonal] += np.exp(-1j * p[:, None] * np.asarray(idx.slot_length))
    return m


def _resolvent_chunks(g: Graph, locals_, idx: ModeIndex, momenta):
    """Solve the grid chunk by chunk, validating the vertex data once and
    evaluating it once (per point when a vertex matrix depends on
    momentum). Yields per chunk (chunk, s_tot, m, core, bound, near,
    sigma): its slice of the grid, the S_tot stack, the resolvent stack
    M = D(p) - B (_resolvent_stack), core = (E(p) - s22)^-1 s21, the
    conditioning bound, the near-pole mask and the (sigma_min,
    sigma_max) of M where they were taken, NaN elsewhere. Rows of
    flagged points hold meaningless values. A momentum whose product
    with the longest edge is not finite is refused with a ValidationError.

    One stacked solve gives M^-1 E(0) [s21 | Omega], Omega the fixed
    _probe_block, so the output is deterministic. kappa_2 <= |M|_F
    |M^-1|_2, and |M^-1|_2 <= _PROBE_FACTOR max_i |M^-1 w_i| except with
    probability 10^-_PROBES (Dixon 1983; Halko, Martinsson & Tropp 2011,
    sec. 4.3). A point whose bound |M|_F _PROBE_FACTOR max_i |M^-1 w_i|
    is below 0.5 / NEAR_POLE_RTOL is cleared; the factor 2 covers the
    solve's rounding. The other points, exactly singular ones (bound
    NaN) included, get the exact singular values.
    """
    momenta = np.asarray(momenta)
    _refuse_phase_overflow(idx, momenta)
    resolved = resolve_locals(g, locals_, idx)
    fixed = _bond_blocks(g, resolved, idx, [0.0]) if all(
        loc.is_constant for loc in resolved) else None
    omega = _partner_rows(idx, _probe_block(idx.n_internal_slots))
    for chunk in _chunks(idx.n_internal_slots, len(momenta)):
        p = momenta[chunk]
        s11, s12, s21, bond = fixed or _bond_blocks(g, resolved, idx, p.tolist())
        m = _resolvent_stack(idx, bond, p)
        rhs = np.empty((len(p), len(omega), g.n_external + _PROBES), dtype=complex)
        rhs[..., :g.n_external], rhs[..., g.n_external:] = s21, omega
        x, near = _solve(m, rhs)
        core, probed = np.split(x, [g.n_external], axis=2)
        # |M|_F^2 summed on a float view with no stack-sized temporary; a
        # bound that overflows clears nothing
        with np.errstate(over="ignore"):
            m_sq = np.einsum("kij,kij->k", m.view(float), m.view(float))
            probe_sq = (probed.real ** 2 + probed.imag ** 2).sum(axis=1).max(axis=1)
            bound = _PROBE_FACTOR * np.sqrt(m_sq * probe_sq)
        sigma = np.full((len(p), 2), nan)
        for k in np.flatnonzero(~(bound < 0.5 / NEAR_POLE_RTOL)):
            values = np.linalg.svd(m[k], compute_uv=False)
            sigma[k] = values[-1], values[0]
            near[k] |= values[-1] <= NEAR_POLE_RTOL * values[0]
        # an overflowing S_tot is left inf or nan for the caller to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            s_tot = s11 + s12 @ core
        yield chunk, s_tot, m, core, bound, near, sigma


def _real_unsigned(c: np.ndarray) -> bool:
    """Whether the complex array c is real and holds no -0.0. S_tot is
    s11 + s12 core, and a -0.0 in s11 is the one term that can carry a
    zero's sign from the solve into S_tot, where the signs at p and -p
    need not mirror; with +0.0 every zero of S_tot comes out +0.0."""
    return not (c.imag.any() or np.signbit(c.imag).any()
                or np.signbit(c.real[c.real == 0.0]).any())


def scattering_grid(g: Graph, locals_, idx: ModeIndex, momenta):
    """S_tot at every momentum of a grid: (stack, near_pole), the
    (P, N_e, N_e) stack and the boolean (P,) mask of momenta near a
    pole, whose rows of the stack are NaN.

    With real momenta and constant vertex matrices that are real and
    hold no -0.0 (_real_unsigned), M(-p) = conj M(p), so S_tot(-p) =
    conj S_tot(p) bit for bit: a negative momentum whose negation is
    also in the grid is not solved. Its row is the conjugate of that
    partner's row, with an exact-zero imaginary part kept +0.0 as the
    solve leaves it, and it takes the partner's flag. M(-p) has the singular values of M(p), so the exact
    SVD gives both the same verdict; only the probe's realisation would
    differ, which could change which points get an exact SVD with
    probability at most 10^-_PROBES per point. Zero, unpaired momenta,
    complex momenta and complex or momentum-dependent vertex data are
    solved point by point. Phase overflow is refused on the whole grid
    before any row is mirrored, so the message names the momentum that
    solving every point would name.
    """
    momenta = np.asarray(momenta)
    _refuse_phase_overflow(idx, momenta)
    locals_ = list(locals_)
    pairs = []
    if np.isrealobj(momenta) and all(loc.is_constant and _real_unsigned(loc.constant)
                                     for loc in locals_):
        values = momenta.tolist()
        positive = {p: k for k, p in enumerate(values) if p > 0}
        pairs = [(k, positive[-p]) for k, p in enumerate(values) if p < 0 and -p in positive]
    mirrored, source = np.array(pairs, dtype=int).reshape(-1, 2).T
    solved = np.ones(len(momenta), dtype=bool)
    solved[mirrored] = False
    at = np.flatnonzero(solved)
    stack = np.empty((len(momenta), g.n_external, g.n_external), dtype=complex)
    near = np.zeros(len(momenta), dtype=bool)
    for chunk, s_tot, _, _, _, flags, _ in _resolvent_chunks(g, locals_, idx, momenta[solved]):
        stack[at[chunk]] = s_tot
        near[at[chunk]] = flags
    stack[mirrored] = stack[source].conj()
    stack.imag[mirrored] += 0.0
    near[mirrored] = near[source]
    stack[near] = complex(nan, nan)
    return stack, near


def _one_point(g: Graph, locals_, idx: ModeIndex, p: complex, sigmas: bool = True):
    """(S_tot, core, sigma_min, sigma_max) at one momentum, from the
    grid engine; raises NearPole with the exact singular values the
    engine took. The singular values are NaN for a graph without
    internal edges, and at a point the probe cleared they are computed
    only if sigmas is set."""
    ((_, s_tot, m, core, _, near, sigma),) = _resolvent_chunks(g, locals_, idx, [p])
    s_min, s_max = sigma[0].tolist()
    if near[0]:
        raise NearPole(p, s_min, s_max)
    if sigmas and g.n_internal and isnan(s_min):
        values = np.linalg.svd(m[0], compute_uv=False)
        s_min, s_max = float(values[-1]), float(values[0])
    return s_tot[0], core[0], s_min, s_max


def total_scattering(g: Graph, locals_, idx: ModeIndex, p: complex) -> TotalSMatrix:
    """Evaluate the total scattering matrix at momentum p.

    For a graph with no internal edges this is the external block
    itself and no conditioning probe applies.
    """
    s_tot, _, s_min, s_max = _one_point(g, locals_, idx, p)
    return TotalSMatrix(s_tot, s_min, s_max)


def internal_modes(g: Graph, locals_, idx: ModeIndex, p: complex, external) -> np.ndarray:
    """Internal amplitude vector driven by the external vector at p."""
    a = np.asarray(external, dtype=complex)
    if a.shape != (g.n_external,):
        raise SizeMismatch(
            "external vector has shape %r, expected (%d,)" % (a.shape, g.n_external)
        )
    _, core, _, _ = _one_point(g, locals_, idx, -p, sigmas=False)
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
    _refuse_phase_overflow(idx, np.asarray([p]))
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
    external edges has zero defects and no flags. Where scattering_grid
    mirrors -p (real p, real constant vertex data), the involution
    defect is that of S_tot(p) conj S_tot(p), the same numbers a solve
    at -p gives."""
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
    s_plus = _one_point(g, locals_, idx, p, sigmas=False)[0]
    s_minus = _one_point(g, locals_, idx, -p, sigmas=False)[0]
    return float(_involution_defect(s_plus, s_minus))


def verify_unitarity(g: Graph, locals_, idx: ModeIndex, p: complex) -> float:
    """Max-norm of S_tot(p)^dagger S_tot(p) - I; meaningful at real p
    with unitary vertex matrices."""
    if g.n_external == 0:
        return 0.0
    return float(_unitarity_defect(_one_point(g, locals_, idx, p, sigmas=False)[0]))
