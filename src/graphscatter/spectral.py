"""Secular determinant, its polynomial form, pole extraction and
compact-graph spectra.

For commensurable edge lengths (all integer multiples of a declared
unit) with constant vertex matrices the secular determinant
det(E - s22) is a polynomial in zeta = exp(-i p unit). It is the
characteristic polynomial of the unit bond matrix U (Kottos &
Smilansky, Ann. Phys. 274, 76, 1999): every directed internal slot of
length m * unit owns m bonds, each bond hands its amplitude on to the
next one, and the last bond of slot s applies row partner(s) of s22.
Then det(E(zeta) - s22) = det(E(0)) det(zeta I - U), so one
eigendecomposition of U gives the polynomial, the poles with their
multiplicities and the residues that tell genuine poles from
removable determinant zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .assemble import assemble_blocks, assemble_propagation, resolve_locals
from .errors import (
    DegenerateConstantPolynomial,
    EmptyInterval,
    FitResidualTooLarge,
    FixtureUnknown,
    IncommensurableLengths,
    NonConstantLocals,
    NotCompact,
    ValidationError,
)
from .graph import Graph, ModeIndex

__all__ = [
    "SecularPolynomial",
    "PoleRecord",
    "secular_determinant",
    "secular_polynomial",
    "find_poles",
    "compact_spectrum",
    "symmetry_factor_check",
]

# the polynomial must reproduce held-out determinant samples this well
FIT_RTOL = 1e-9
ROOT_DEDUP_TOL = 1e-8
# a root whose residue in S_tot has at most this norm is removable; for
# unitary vertex data that includes resonances with 1 - |zeta| below
# about 5e-9
RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class SecularPolynomial:
    """det(E - s22) as a polynomial in zeta = exp(-i p unit_length).

    coefficients[k] multiplies zeta**k; degree_bound is the sum of
    length/unit over all directed internal slots, which is also the
    size of the unit bond matrix whose characteristic polynomial this
    is. The source system is kept so that find_poles can rebuild the
    bond matrix.
    """

    unit_length: float
    coefficients: np.ndarray
    degree_bound: int
    slot_powers: tuple[int, ...]
    graph: Graph
    vertex_locals: tuple
    index: ModeIndex

    def __call__(self, zeta: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(zeta, self.coefficients))


@dataclass(frozen=True)
class PoleRecord:
    """One distinct nonzero eigenvalue of the unit bond matrix.

    p_representative is the principal momentum with
    exp(-i p unit_length) = zeta; the zeta value itself is the
    authoritative location, and it is exactly real when its imaginary
    part is below 1e-8. multiplicity is the number of eigenvalues in
    the group, so a Jordan block counts once with its full size.
    removable marks groups whose residue in the total scattering
    matrix vanishes; they are only reported on request.
    """

    zeta: complex
    p_representative: complex
    multiplicity: int
    removable: bool = False


def secular_determinant(g: Graph, locals_, idx: ModeIndex, p: complex) -> complex:
    """det(E(p) - s22(p)); the empty determinant is 1."""
    if g.n_internal == 0:
        return 1.0 + 0.0j
    blocks = assemble_blocks(g, locals_, idx, p)
    prop = assemble_propagation(g, idx, p)
    return complex(np.linalg.det(prop.matrix - blocks.int_int))


def _slot_powers(idx: ModeIndex, unit: float) -> tuple[int, ...]:
    if not (unit > 0):
        raise ValidationError("unit length must be positive, got %r" % unit)
    powers = []
    for length in idx.slot_length:
        m = round(length / unit)
        if m < 1 or abs(length - m * unit) > 1e-9 * unit:
            raise IncommensurableLengths(
                "edge length %r is not an integer multiple of unit %r" % (length, unit)
            )
        powers.append(m)
    return tuple(powers)


def _bond_matrix(idx: ModeIndex, powers, s22: np.ndarray):
    """Unit bond matrix U with det(E(zeta) - s22) = det(E(0)) det(zeta I - U).

    Bond k of slot s carries zeta**k times the slot amplitude, so the
    bonds of a slot form a shift chain and the last one closes it with
    row partner(s) of s22. Returns U and the first and last bond
    index of every slot.
    """
    last = np.cumsum(powers) - 1
    first = last - np.asarray(powers) + 1
    chain = np.setdiff1d(np.arange(last[-1]), last)
    u = np.zeros((last[-1] + 1, last[-1] + 1), dtype=complex)
    u[chain, chain + 1] = 1.0
    u[np.ix_(last, first)] = s22[list(idx.partner)]
    return u, first, last


def secular_polynomial(g: Graph, locals_, idx: ModeIndex, unit: float) -> SecularPolynomial:
    """Polynomial form of the secular determinant.

    Requires constant vertex matrices and all edge lengths integer
    multiples of the unit. The coefficients are det(E(0)) times the
    inverse discrete Fourier transform of prod_k (nu - lambda_k) over
    the D + 1 roots of unity nu, where lambda_k are the eigenvalues of
    the unit bond matrix and D is the degree bound. The result is
    checked against secular_determinant at 8 held-out momenta.
    """
    resolved = resolve_locals(g, locals_, idx)
    if not all(loc.is_constant for loc in resolved):
        raise NonConstantLocals(
            "polynomial form requires constant vertex matrices"
        )
    powers = _slot_powers(idx, unit)
    degree = sum(powers)
    if degree == 0:
        return SecularPolynomial(
            unit_length=unit,
            coefficients=np.ones(1, dtype=complex),
            degree_bound=0,
            slot_powers=powers,
            graph=g,
            vertex_locals=tuple(resolved),
            index=idx,
        )

    s22 = assemble_blocks(g, resolved, idx, 0.0).int_int
    u, _, _ = _bond_matrix(idx, powers, s22)
    eigs = np.linalg.eigvals(u)
    n_nodes = degree + 1
    nodes = np.exp(-2j * np.pi * np.arange(n_nodes) / n_nodes)
    values = np.prod(nodes[:, None] - eigs[None, :], axis=1)
    # E(0) pairs the slots of every edge, one transposition per edge
    coeffs = (-1) ** g.n_internal * np.fft.ifft(values)

    scale = float(np.max(np.abs(coeffs)))
    # lengths within the commensurability tolerance are taken as exact
    snapped = replace(idx, slot_length=tuple(m * unit for m in powers))
    for j in range(8):
        p = 2.0 * np.pi * (j + 0.5) / (n_nodes * unit)
        fitted = np.polynomial.polynomial.polyval(np.exp(-1j * p * unit), coeffs)
        direct = secular_determinant(g, resolved, snapped, p)
        if not abs(fitted - direct) <= FIT_RTOL * scale:  # also catches NaN
            raise FitResidualTooLarge(
                "polynomial residual %.3e at held-out point" % abs(fitted - direct)
            )

    coeffs.flags.writeable = False
    return SecularPolynomial(
        unit_length=unit,
        coefficients=coeffs,
        degree_bound=degree,
        slot_powers=powers,
        graph=g,
        vertex_locals=tuple(resolved),
        index=idx,
    )


def _eigen_groups(u: np.ndarray):
    """Eigenvalues of u grouped into distinct roots.

    Each eigenvalue has the first-order error bound
    eps ||u|| / |w_k^H v_k| (unit left and right eigenvectors). Two
    eigenvalues join a group when they lie within ROOT_DEDUP_TOL of
    each other or within 16 times the smaller of their two bounds,
    which keeps the split copies of a Jordan block together. Returns
    the eigenvalues, the right and left eigenvectors as columns and
    one index array per group. Left eigenvectors come from the same
    LAPACK call rather than from V^-1, which is singular whenever a
    bond chain is exactly nilpotent (a lead vertex of degree 2 at the
    end of an edge longer than the unit).
    """
    lam, left, right = scipy.linalg.eig(u, left=True, right=True)
    overlap = np.abs(np.sum(left.conj() * right, axis=0))
    with np.errstate(divide="ignore"):
        bound = np.finfo(float).eps * np.linalg.norm(u, 2) / overlap
    reach = np.maximum(16.0 * np.minimum.outer(bound, bound), ROOT_DEDUP_TOL)
    linked = np.abs(lam[:, None] - lam[None, :]) <= reach
    group_of = np.arange(len(lam))
    # connected components by repeated minimum-label propagation
    while True:
        merged = np.min(np.where(linked, group_of[None, :], len(lam)), axis=1)
        if np.array_equal(merged, group_of):
            break
        group_of = merged
    groups = [np.flatnonzero(group_of == label) for label in np.unique(group_of)]
    return lam, right, left, groups


def _group_residue(blocks, e0_s21, v_g, w_g, first, last) -> float:
    """Norm of s12 P_g E(0) s21 for the spectral projector
    P_g = V_g (W_g^H V_g)^-1 W_g^H of one eigenvalue group, restricted
    to first-bond rows and last-bond columns. This is the residue of
    S_tot at the group. When W_g^H V_g is exactly singular the
    eigenvectors do not resolve the group; its residue is then taken
    as infinite so that it is never called removable."""
    try:
        coupling = np.linalg.solve(w_g.conj().T @ v_g, w_g[last].conj().T)
    except np.linalg.LinAlgError:
        return math.inf
    return float(np.linalg.norm(blocks.ext_int @ v_g[first] @ coupling @ e0_s21, 2))


def find_poles(poly: SecularPolynomial, include_removable: bool = False) -> list[PoleRecord]:
    """Roots of the secular polynomial in zeta.

    The roots are the nonzero eigenvalues of the unit bond matrix,
    grouped as in _eigen_groups (multiplicity = group size) and sorted
    by modulus then argument. A group is removable when its residue in
    the total scattering matrix is at most RESIDUE_TOL; removable
    groups are dropped unless include_removable is set. For a compact
    graph every root is kept since there is no external block.
    """
    if poly.degree_bound == 0:
        raise DegenerateConstantPolynomial(
            "graph has no internal edges; determinant is constant"
        )
    g, idx = poly.graph, poly.index
    blocks = assemble_blocks(g, poly.vertex_locals, idx, 0.0)
    u, first, last = _bond_matrix(idx, poly.slot_powers, blocks.int_int)
    lam, right, left, groups = _eigen_groups(u)
    e0_s21 = assemble_propagation(g, idx, 0.0).matrix @ blocks.int_ext

    records = []
    for members in groups:
        zeta = complex(np.mean(lam[members]))
        if abs(zeta) <= ROOT_DEDUP_TOL:
            continue
        if abs(zeta.imag) <= ROOT_DEDUP_TOL:
            zeta = complex(zeta.real, 0.0)
        removable = g.n_external > 0 and (
            _group_residue(blocks, e0_s21, right[:, members], left[:, members], first, last)
            <= RESIDUE_TOL
        )
        if removable and not include_removable:
            continue
        records.append(
            PoleRecord(
                zeta=zeta,
                p_representative=1j * cmath.log(zeta) / poly.unit_length,
                multiplicity=len(members),
                removable=removable,
            )
        )
    records.sort(key=lambda r: (abs(r.zeta), cmath.phase(r.zeta)))
    return records


def _momentum_determinant_traces(g, locals_, idx, p, h=1e-6):
    """t = tr(M^-1 M') and t' = tr(M^-1 M'') - tr((M^-1 M')^2) for
    M(p) = E(p) - s22(p); vertex-matrix derivatives fall back to
    central differences when momentum dependent."""
    resolved = locals_
    lengths = np.asarray(idx.slot_length)
    e = assemble_propagation(g, idx, p).matrix
    ep = e @ np.diag(-1j * lengths)
    epp = e @ np.diag(-(lengths**2))
    if all(loc.is_constant for loc in resolved):
        s22 = assemble_blocks(g, resolved, idx, p).int_int
        s22p = 0.0
        s22pp = 0.0
    else:
        s22 = assemble_blocks(g, resolved, idx, p).int_int
        plus = assemble_blocks(g, resolved, idx, p + h).int_int
        minus = assemble_blocks(g, resolved, idx, p - h).int_int
        s22p = (plus - minus) / (2.0 * h)
        s22pp = (plus - 2.0 * s22 + minus) / (h * h)
    m = e - s22
    x = np.linalg.solve(m, ep - s22p)
    y = np.linalg.solve(m, epp - s22pp)
    t = np.trace(x)
    tp = np.trace(y) - np.trace(x @ x)
    return t, tp


def compact_spectrum(g: Graph, locals_, idx: ModeIndex, p_min: float, p_max: float):
    """Real zeros of the secular determinant on [p_min, p_max] for a
    graph without external edges.

    Scans the determinant magnitude on a grid of step
    pi / (8 * total internal length), takes every local minimum
    through a bounded minimizer and Newton polish, and keeps roots
    where the determinant has dropped at least seven orders of
    magnitude below the grid scale.
    """
    if g.n_external > 0:
        raise NotCompact(
            "spectrum is defined for graphs without external edges; found %d"
            % g.n_external
        )
    if not (p_min < p_max):
        raise EmptyInterval("need p_min < p_max, got [%r, %r]" % (p_min, p_max))
    resolved = resolve_locals(g, locals_, idx)

    step = math.pi / (8.0 * g.total_internal_length)
    count = max(int(math.ceil((p_max - p_min) / step)) + 1, 9)
    grid = np.linspace(p_min, p_max, count)
    mags = np.array(
        [abs(secular_determinant(g, resolved, idx, p)) for p in grid]
    )
    scale = float(np.max(mags))
    if scale == 0.0:
        scale = 1.0

    candidates = []
    for i in range(count):
        left = mags[i - 1] if i > 0 else math.inf
        right = mags[i + 1] if i < count - 1 else math.inf
        if mags[i] <= left and mags[i] <= right:
            candidates.append(i)

    roots = []
    for i in candidates:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, count - 1)]
        if lo == hi:
            continue
        result = scipy.optimize.minimize_scalar(
            lambda p: abs(secular_determinant(g, resolved, idx, p)) ** 2,
            bounds=(lo, hi),
            method="bounded",
        )
        p_root = float(result.x)
        for _ in range(5):
            try:
                t, tp = _momentum_determinant_traces(g, resolved, idx, p_root)
            except np.linalg.LinAlgError:
                # the minimizer landed exactly on a root
                break
            if tp == 0:
                break
            step_c = t / tp
            p_root = float((p_root + step_c).real)
            if abs(step_c) < 1e-15 * max(1.0, abs(p_root)):
                break
        if p_root < p_min - 1e-12 or p_root > p_max + 1e-12:
            continue
        if abs(secular_determinant(g, resolved, idx, p_root)) > 1e-7 * scale:
            continue
        roots.append(min(max(p_root, p_min), p_max))

    roots.sort()
    deduped = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > ROOT_DEDUP_TOL:
            deduped.append(r)
    return deduped


def _sign_multiset(colour_matrices) -> list[tuple[tuple[int, ...], int]]:
    """Joint eigenvalue sign patterns with their multiplicities for a
    family of commuting symmetric involutions."""
    mats = [np.asarray(m) for m in colour_matrices]
    nu = len(mats)
    n = mats[0].shape[0]
    traces = []
    for mask in range(2**nu):
        prod = np.eye(n)
        for a in range(nu):
            if (mask >> a) & 1:
                prod = prod @ mats[a]
        traces.append(float(np.trace(prod).real))
    patterns = []
    for bits in range(2**nu):
        sigma = tuple(1 if (bits >> a) & 1 == 0 else -1 for a in range(nu))
        acc = 0.0
        for mask in range(2**nu):
            sign = 1
            for a in range(nu):
                if (mask >> a) & 1:
                    sign *= sigma[a]
            acc += sign * traces[mask]
        count = acc / (2**nu)
        rounded = round(count)
        if abs(count - rounded) > 1e-9:
            raise FixtureUnknown(
                "joint eigenspace dimension %r is not an integer; the "
                "factorization shortcut does not apply" % count
            )
        if rounded < 0:
            raise FixtureUnknown("negative eigenspace dimension %d" % rounded)
        if rounded:
            patterns.append((sigma, rounded))
    total = sum(cnt for _, cnt in patterns)
    if total != n:
        raise FixtureUnknown(
            "eigenspace dimensions sum to %d, expected %d" % (total, n)
        )
    return patterns


def symmetry_factor_check(g: Graph, locals_, idx: ModeIndex, colour_matrices) -> bool:
    """Verify that the product of per-sign-pattern reduced determinants
    matches the assembled secular polynomial coefficientwise within
    1e-9 of its largest coefficient.

    Requires identical constant vertex matrices everywhere, equal edge
    lengths, no loops and a full proper edge colouring given as its
    vertex-pairing matrices. Refuses with FixtureUnknown when the
    reduction does not apply.
    """
    resolved = resolve_locals(g, locals_, idx)
    if not all(loc.is_constant for loc in resolved):
        raise FixtureUnknown("reduction requires constant vertex matrices")
    base = resolved[0].constant
    for loc in resolved[1:]:
        if loc.size != resolved[0].size or np.max(np.abs(loc.constant - base)) > 0:
            raise FixtureUnknown(
                "reduction requires the same matrix at every vertex"
            )
    if any(e.is_loop for e in g.internal_edges):
        raise FixtureUnknown("reduction does not cover loops")

    lengths = {e.length for e in g.internal_edges}
    if len(lengths) != 1:
        raise FixtureUnknown("reduction requires equal edge lengths")
    unit = lengths.pop()

    n_ext = {g.external_degree(v) for v in range(g.vertex_count)}
    n_int = {g.internal_degree(v) for v in range(g.vertex_count)}
    if len(n_ext) != 1 or len(n_int) != 1:
        raise FixtureUnknown("reduction requires a regular fixture")
    k_ext = n_ext.pop()
    nu = n_int.pop()

    mats = [np.asarray(m, dtype=float) for m in colour_matrices]
    if len(mats) != nu:
        raise FixtureUnknown(
            "expected %d colour matrices, got %d" % (nu, len(mats))
        )
    n = g.vertex_count
    for a, mat in enumerate(mats):
        if mat.shape != (n, n):
            raise FixtureUnknown("colour matrix %d has shape %r" % (a, mat.shape))
        if np.max(np.abs(mat - mat.T)) > 0 or np.max(np.abs(mat @ mat - np.eye(n))) > 1e-12:
            raise FixtureUnknown("colour matrix %d is not a symmetric involution" % a)
        if np.max(np.abs(np.diag(mat))) > 0:
            raise FixtureUnknown("colour matrix %d pairs a vertex with itself" % a)
    for a in range(nu):
        for b in range(a + 1, nu):
            if np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) > 0:
                raise FixtureUnknown("colour matrices %d and %d do not commute" % (a, b))

    # per-vertex reduced block in colour order; must come out the same
    # at every vertex for the factorization to make sense
    neighbor_of = []
    for v in range(g.vertex_count):
        row = []
        for mat in mats:
            (partners,) = np.nonzero(mat[v])
            if len(partners) != 1:
                raise FixtureUnknown("colour matrix is not a perfect pairing")
            row.append(int(partners[0]))
        neighbor_of.append(row)

    s_red = None
    for v in range(g.vertex_count):
        heads = [idx.internal_order[s][1] for s in idx.vertex_internal[v]]
        # position of each colour's partner in the vertex's slot order
        try:
            perm = [heads.index(neighbor_of[v][a]) for a in range(nu)]
        except ValueError:
            raise FixtureUnknown(
                "colour pairing at vertex %d does not match the graph" % v
            )
        block = base[k_ext:, k_ext:]
        reduced = block[np.ix_(perm, perm)]
        if s_red is None:
            s_red = reduced
        elif np.max(np.abs(reduced - s_red)) > 1e-12:
            raise FixtureUnknown(
                "reduced block depends on the vertex; colouring and matrix "
                "are not aligned"
            )

    left = np.array([1.0 + 0.0j])
    for sigma, count in _sign_multiset(mats):
        d = np.diag(np.asarray(sigma, dtype=float))
        factor = np.linalg.det(d) * np.poly(d @ s_red)
        for _ in range(count):
            left = np.polymul(left, factor)

    assembled = secular_polynomial(g, resolved, idx, unit)
    right = np.asarray(assembled.coefficients)[::-1]
    if len(left) != len(right):
        width = max(len(left), len(right))
        left = np.pad(left, (width - len(left), 0))
        right = np.pad(right, (width - len(right), 0))
    tol = FIT_RTOL * float(np.max(np.abs(right)))
    return bool(np.max(np.abs(left - right)) <= tol)
