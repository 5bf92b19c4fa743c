"""Secular determinant, its polynomial form, pole extraction and
compact-graph spectra.

For commensurable edge lengths (all integer multiples of a declared
unit) with constant vertex matrices the secular determinant
det(E - s22) is a polynomial in zeta = exp(-i p unit). It is the
characteristic polynomial of the unit bond matrix U (Kottos &
Smilansky, Ann. Phys. 274, 76, 1999): every directed internal slot of
length m * unit owns m bonds, each bond hands its amplitude on to the
next one, and the last bond of slot s applies row partner(s) of s22.
Then det(E(zeta) - s22) = det(E(0)) det(zeta I - U). secular_polynomial
builds U once and keeps it, with its one eigendecomposition
U = V diag(lambda) V^-1, beside the lead couplings. That
eigendecomposition gives the polynomial on first use, and find_poles
reads the poles with their multiplicities from it: the rows of V^-1
are the left eigenvectors (Golub & Van Loan, Matrix Computations,
sec. 7.2), so the error bound of every eigenvalue and the lead
couplings s12 V and V^-1 E(0) s21, whose products are the residues
that tell genuine poles from removable determinant zeros, cost one
inverse. Only where V^-1 V is far from I, on Jordan blocks and
nilpotent bond chains, is U^T decomposed as well.

Compact spectra need no commensurability: for constant unitary vertex
matrices U(p) = E(-p) s22 is unitary, its eigenphases rise with p, and
the eigenmomenta are the momenta where an eigenphase crosses 0 mod
2 pi. The sum of the principal eigenphases counts these crossings
exactly between any two momenta where none is near 0 (Berkolaiko &
Kuchment, Introduction to Quantum Graphs, 2013). Splitting the range
on these counts gives windows of a few eigenmomenta each. In each
window Beyn's contour integral (W.-J. Beyn, Linear Algebra Appl. 436,
3839, 2012) over trapezoid nodes, which converge exponentially
(Trefethen & Weideman, SIAM Rev. 56, 385, 2014), places the
eigenmomenta, and one refinement step polishes them. Both solve with
the sweeps' matrix M(p) = E(0) (E(p) - s22) = D(p) - B,
D(p) = diag(exp(-i p d_s)) and B = E(0) s22, which is D(p) A(p) with
A(p) = I - U(p), so it has the zeros and null vectors of A(p). The
residual of the refined null vectors puts each root within a proven
reach of its momentum, and disjoint reaches inside the window that add
up to its count certify that none is missing. The residual, less its
rounding slack, must prove each momentum to within ROOT_DEDUP_TOL
max(1, |p|), so no reported momentum rests on a fixed step count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assemble import _bond_blocks, assemble_blocks, assemble_propagation, resolve_locals
from .errors import (
    DegenerateConstantPolynomial,
    FitResidualTooLarge,
    IncommensurableLengths,
    NonConstantLocals,
    NotCompact,
    NumericalError,
    ReductionNotApplicable,
    ValidationError,
)
from .graph import Graph, ModeIndex
from .solve import (MAX_GRID_POINTS, _chunks, _probe_block, _refuse_phase_overflow, _refuse_range,
                    _resolvent_stack, _solve)

__all__ = [
    "SecularPolynomial",
    "PoleRecord",
    "secular_determinant",
    "secular_polynomial",
    "find_poles",
    "compact_spectrum",
    "eigenmomenta",
    "symmetry_factor_check",
]

# the secular polynomial must reproduce held-out determinant samples, and
# the symmetry-reduced product its coefficients, within this fraction of
# its largest coefficient
COEFFICIENT_RTOL = 1e-9
# roots closer than this are one root
ROOT_DEDUP_TOL = 1e-8
# V^-1 stands for the left eigenvectors when max |V^-1 V - I| is this small
BIORTHOGONAL_TOL = 1e-8
# a lead coupling of a simple eigenvalue within this factor of its
# rounding noise is zero: on 665 test systems removable ones came within
# 394 times it and genuine ones no nearer than 6.8e5 times
COUPLING_SLACK = 1e4
TWO_PI = 2.0 * math.pi
# trapezoid nodes on the contour around a window of a compact spectrum,
# and its ellipse's height over half-width: a flat ellipse keeps the
# eigenmomenta beyond a window's ends out of its moments
CONTOUR_NODES = 64
CONTOUR_RATIO = 0.1
# probe columns beyond a window's count, for eigenmomenta just outside it
PROBE_EXTRA = 6
# singular values of a window's zeroth moment above this share of the
# largest belong to eigenmomenta, the rest to quadrature error
RANK_RTOL = 1e-6
# a window ends only where every eigenphase is this far from 0, far
# above their error of about n eps (_phase_sampler): no root sits on a
# cut, the counts on either side are exact, and a root on a range end
# (1e-8 inside the first window) moves that end outward
CUT_GAP = 1e-6


@dataclass(frozen=True)
class BondSystem:
    """What find_poles reads of one system: the unit bond matrix u with
    its eigenvalues and right eigenvectors from one np.linalg.eig, its
    2-norm, the first and last bond index of every slot, the lead
    blocks s12 and E(0) s21 (s21 with the two slots of every edge
    swapped) and the largest 2-norm of a vertex matrix."""

    u: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norm: float
    first: np.ndarray
    last: np.ndarray
    s12: np.ndarray
    e0_s21: np.ndarray
    vertex_norm: float


@dataclass(frozen=True)
class SecularPolynomial:
    """det(E - s22) as a polynomial in zeta = exp(-i p unit_length).

    coefficients[k] multiplies zeta**k; degree_bound is the sum of
    length/unit over all directed internal slots, which is also the
    size of the unit bond matrix whose characteristic polynomial this
    is. bond holds that matrix with the lead couplings for find_poles;
    it is None when there are no internal edges. find_poles reads no
    coefficient, and they are computed on first use.
    """

    unit_length: float
    degree_bound: int
    slot_powers: tuple[int, ...]
    bond: BondSystem | None

    @cached_property
    def coefficients(self) -> np.ndarray:
        """det(E(0)) times the inverse DFT of prod_k (nu - lambda_k) over
        the D + 1 roots of unity nu, for the eigenvalues lambda_k of U and
        D = degree_bound, checked at 8 held-out momenta against the LU
        determinant det(E(0)) det(D(p) - B), B read back from U."""
        coeffs, bond = np.ones(1, dtype=complex), self.bond
        if bond is not None:
            n_nodes = self.degree_bound + 1
            nodes = np.exp(-2j * np.pi * np.arange(n_nodes) / n_nodes)
            # E(0) pairs the slots of every edge, one transposition per edge
            sign = (-1) ** (len(self.slot_powers) // 2)
            coeffs = sign * np.fft.ifft(np.prod(nodes[:, None] - bond.eigenvalues, axis=1))
            p = 2.0 * np.pi * (np.arange(8) + 0.5) / (n_nodes * self.unit_length)
            b = bond.u[np.ix_(bond.last, bond.first)]
            # lengths within the commensurability tolerance are taken as exact
            d = np.exp(-1j * p[:, None] * (self.unit_length * np.asarray(self.slot_powers)))
            direct = sign * np.array([np.linalg.det(np.diag(dj) - b) for dj in d])
            residual = np.max(np.abs(np.polyval(coeffs[::-1], np.exp(-1j * p * self.unit_length))
                                     - direct))
            if not residual <= COEFFICIENT_RTOL * np.max(np.abs(coeffs)):  # also catches NaN
                raise FitResidualTooLarge("polynomial residual %.3e at held-out point" % residual)
        coeffs.flags.writeable = False
        return coeffs

    def __call__(self, zeta: complex) -> complex:
        return complex(np.polyval(self.coefficients[::-1], zeta))


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
    """The bond count length / unit of every slot; refuses a ratio that
    is no integer or beyond the float range, and (MemoryError) a total
    that no array can hold, before anything is allocated."""
    if not (unit > 0):
        raise ValidationError("unit length must be positive, got %r" % unit)
    powers = []
    for length in idx.slot_length:
        ratio = length / unit
        if not math.isfinite(ratio):
            raise IncommensurableLengths(
                "edge length %r over unit %r is beyond the float range" % (length, unit)
            )
        m = round(ratio)
        if m < 1 or abs(length - m * unit) > 1e-9 * unit:
            raise IncommensurableLengths(
                "edge length %r is not an integer multiple of unit %r" % (length, unit)
            )
        powers.append(m)
    if not sum(powers) < MAX_GRID_POINTS:
        raise MemoryError("%.3g bonds of unit %r exceed numpy's array size limit"
                          % (sum(powers), unit))
    return tuple(powers)


def _bond_matrix(powers, bond: np.ndarray):
    """Unit bond matrix U with det(E(zeta) - s22) = det(E(0)) det(zeta I - U).

    Bond k of slot s carries zeta**k times the slot amplitude, so the
    bonds of a slot form a shift chain and the last one closes it with
    row s of B = E(0) s22, which is row partner(s) of s22. Returns U
    and the first and last bond index of every slot.
    """
    last = np.cumsum(powers) - 1
    first = last - np.asarray(powers) + 1
    is_chain = np.ones(last[-1] + 1, dtype=bool)
    is_chain[last] = False
    chain = np.flatnonzero(is_chain)
    u = np.zeros((last[-1] + 1, last[-1] + 1), dtype=complex)
    u[chain, chain + 1] = 1.0
    u[np.ix_(last, first)] = bond
    return u, first, last


def _constant_blocks(g: Graph, locals_, idx: ModeIndex, refusal, what: str):
    """The validated vertex matrices and their (s11, s12, E(0) s21,
    B = E(0) s22) at p = 0 (_bond_blocks); raises refusal unless every
    vertex matrix is constant."""
    resolved = resolve_locals(g, locals_, idx)
    if not all(loc.is_constant for loc in resolved):
        raise refusal("%s requires constant vertex matrices" % what)
    return resolved, [block[0] for block in _bond_blocks(g, resolved, idx, [0.0])]


def secular_polynomial(g: Graph, locals_, idx: ModeIndex, unit: float) -> SecularPolynomial:
    """Polynomial form of the secular determinant.

    Requires constant vertex matrices and all edge lengths integer
    multiples of the unit. Builds only the BondSystem; the coefficients
    and their held-out check follow from it on first use.
    """
    resolved, (_, s12, e0_s21, e0_s22) = _constant_blocks(g, locals_, idx, NonConstantLocals,
                                                          "polynomial form")
    powers = _slot_powers(idx, unit)
    degree = sum(powers)
    bond = None
    if degree > 0:
        u, first, last = _bond_matrix(powers, e0_s22)
        # real vertex data (Kirchhoff among them) give a real U, whose
        # real eig costs well under half of the complex one
        eigs, right = np.linalg.eig(u if u.imag.any() else u.real)
        eigs, right = eigs.astype(complex, copy=False), right.astype(complex, copy=False)
        # U is a shift on the chain bonds plus rows of s22 on the last
        # bonds, in disjoint rows and columns, so ||U|| is the larger of 1
        # (with a chain) and ||s22||, the largest 2-norm of the internal
        # block of a vertex matrix (its external slots come first)
        vertex_norm = max(np.linalg.norm(loc.constant, 2) for loc in resolved)
        u_norm = max(float(degree > len(powers)), *(
            np.linalg.norm(loc.constant[len(ext):, len(ext):], 2)
            for loc, ext in zip(resolved, idx.vertex_external)))
        bond = BondSystem(u, eigs, right, float(u_norm), first, last, s12, e0_s21,
                          float(vertex_norm))
    return SecularPolynomial(unit, degree, powers, bond)


def _left_rows(right: np.ndarray):
    """V^-1 for the right eigenvectors V when it passes the certificate
    max |V^-1 V - I| <= BIORTHOGONAL_TOL with finite row norms, else
    None (V singular, as on Jordan blocks and nilpotent bond chains)."""
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        defect = np.max(np.abs(left @ right - np.eye(len(right))), initial=0.0)
        finite = np.all(np.isfinite(np.linalg.norm(left, axis=1)))
    return left if finite and defect <= BIORTHOGONAL_TOL else None


def _eigen_groups(u: np.ndarray, eigen, norm: float):
    """Eigenvalues of u grouped into distinct roots; eigen is the
    (eigenvalues, right eigenvectors) pair of np.linalg.eig(u) and norm
    is ||u||_2.

    The rows w_k^H of V^-1 (_left_rows) are the left eigenvectors with
    w_k^H v_k = 1, so with unit right eigenvectors each eigenvalue has
    the first-order error bound eps ||u|| ||w_k||. Two eigenvalues join
    a group when they lie within ROOT_DEDUP_TOL of each other or within
    16 times the smaller of their two bounds, which keeps the split
    copies of a Jordan block together. When V fails its certificate the
    left eigenvectors come from a second np.linalg.eig, of u^T: since
    w_j^H v_k = 0 for distinct eigenvalues, |w_k^H v_k| of the unit left
    vectors is the largest overlap of v_k with any of them, each one
    joins the group of the nearest eigenvalue, and the rows W_g^H of a
    group are scaled to (W_g^H V_g)^-1 W_g^H. Returns the eigenvalues,
    the right eigenvectors, the rows W^H with W_g^H V_g = I on every
    group (NaN on a group that got more or fewer left than right
    eigenvectors, or a singular W_g^H V_g) and each group's index array.
    """
    lam, right = eigen
    left = _left_rows(right)
    if left is None:
        mu, unit_left = np.linalg.eig(u.T)
        with np.errstate(divide="ignore"):
            spread = 1.0 / np.max(np.abs(unit_left.T @ right), axis=0)
    else:
        spread = np.linalg.norm(left, axis=1)
    bound = np.finfo(float).eps * norm * spread
    reach = np.maximum(16.0 * np.minimum.outer(bound, bound), ROOT_DEDUP_TOL)
    linked = np.abs(lam[:, None] - lam[None, :]) <= reach
    group_of = np.arange(len(lam))
    # connected components by repeated minimum-label propagation
    while True:
        merged = np.min(np.where(linked, group_of[None, :], len(lam)), axis=1)
        if np.array_equal(merged, group_of):
            break
        group_of = merged
    # a group's label is its smallest member
    labels = np.flatnonzero(group_of == np.arange(len(lam)))
    groups = [np.flatnonzero(group_of == label) for label in labels]
    if left is None:
        left = np.full_like(right, np.nan)
        left_group = group_of[np.argmin(np.abs(mu[:, None] - lam[None, :]), axis=1)]
        for members, label in zip(groups, labels):
            rows = unit_left[:, left_group == label].T
            if len(rows) == len(members):
                try:
                    left[members] = np.linalg.solve(rows @ right[:, members], rows)
                except np.linalg.LinAlgError:
                    pass
    return lam, right, left, groups


def _removable(bond: BondSystem, right: np.ndarray, left: np.ndarray, groups) -> list[bool]:
    """Whether each eigenvalue group's residue in S_tot vanishes.

    The residue is R_g L_g with the lead couplings R = s12 V (first-bond
    rows) and L = W^H E(0) s21 (last-bond columns), both divided by s,
    the largest 2-norm of a vertex matrix, so that huge vertex entries
    overflow nothing. Their rounding noise is eps ||U|| and
    eps ||U|| ||w_k|| for a unit right and a left eigenvector w_k with
    w_k^H v_k = 1. A simple eigenvalue's residue is the outer product of
    its two couplings, so it is removable when either one is within
    COUPLING_SLACK of its noise; a product of two small couplings can
    be a genuine pole. In a larger group the couplings of its members
    can cancel, so its residue itself is tested,
    ||R_g L_g||_2 <= eps ||U|| ||W_g||_2. A group without finite left
    rows is not resolved, and never called removable.
    """
    if not len(bond.s12):
        return [False] * len(groups)
    noise = np.finfo(float).eps * bond.norm
    to_leads = (bond.s12 / bond.vertex_norm) @ right[bond.first]
    from_leads = left[:, bond.last] @ (bond.e0_s21 / bond.vertex_norm)
    weaker = np.minimum(np.linalg.norm(to_leads, axis=0),
                        np.linalg.norm(from_leads, axis=1) / np.linalg.norm(left, axis=1))
    removable = []
    for members in groups:
        if len(members) == 1:
            removable.append(bool(weaker[members[0]] <= COUPLING_SLACK * noise))
        else:
            w = left[members]
            residue = to_leads[:, members] @ from_leads[members]
            removable.append(bool(np.all(np.isfinite(w)) and np.linalg.norm(residue, 2)
                                  <= noise * np.linalg.norm(w, 2)))
    return removable


def find_poles(poly: SecularPolynomial, include_removable: bool = False) -> list[PoleRecord]:
    """Roots of the secular polynomial in zeta.

    The roots are the nonzero eigenvalues of the unit bond matrix U
    kept in poly.bond, grouped as in _eigen_groups (multiplicity =
    group size) from the one eigendecomposition that secular_polynomial
    made, and sorted by modulus rounded to 9 places, then by the real
    part of p_representative (decreasing argument). A group is
    removable when its residue in the total scattering matrix vanishes
    to the rounding noise of computing it (_removable); removable groups
    are dropped unless include_removable is set. For a compact graph
    every root is kept since there is no external block.
    """
    if poly.degree_bound == 0:
        raise DegenerateConstantPolynomial("graph has no internal edges; determinant is constant")
    bond = poly.bond
    lam, right, left, groups = _eigen_groups(bond.u, (bond.eigenvalues, bond.eigenvectors),
                                             bond.norm)
    records = []
    for members, removable in zip(groups, _removable(bond, right, left, groups)):
        zeta = complex(np.mean(lam[members]))
        if abs(zeta) <= ROOT_DEDUP_TOL:
            continue
        if abs(zeta.imag) <= ROOT_DEDUP_TOL:
            zeta = complex(zeta.real, 0.0)
        if removable and not include_removable:
            continue
        p = 1j * cmath.log(zeta) / poly.unit_length
        records.append(PoleRecord(zeta, p, multiplicity=len(members), removable=removable))
    # moduli to 9 places, so that a conjugate pair keeps its order when the
    # last bits of its moduli move with the BLAS thread count; then by
    # Re p = -arg(zeta) / unit
    records.sort(key=lambda r: (round(abs(r.zeta), 9), r.p_representative.real))
    return records


def _phase_sampler(bond: np.ndarray, lengths: np.ndarray):
    """sample(p) = (p, p sum(lengths) - sum(phi), min(phi), max(phi))
    for the principal eigenphases phi in [0, 2 pi] of the unitary
    U(p) = diag(exp(i p lengths)) bond, the angles of its eigenvalues
    (np.linalg.eigvals), which are accurate to about n eps."""
    total = float(np.sum(lengths))

    def sample(p):
        u = np.exp(1j * p * lengths)[:, None] * bond
        phi = np.sort(np.angle(np.linalg.eigvals(u)) % TWO_PI)
        # Python floats: a sum beyond the float range is inf, not a warning
        return p, float(p) * total - float(np.sum(phi)), phi[0], phi[-1]

    return sample


def _crossings(lo, hi) -> int:
    """Eigenmomenta, with multiplicity, between two phase samples."""
    return round((hi[1] - lo[1]) / TWO_PI)


def _cut(sample, p: float, step: float):
    """The phase sample at the first of p, p + step, p + 2 step and
    p + 3 step where every eigenphase is at least CUT_GAP from 0; a
    NumericalError when there is none."""
    for k in range(4):
        s = sample(p + k * step)
        if min(s[2], TWO_PI - s[3]) >= CUT_GAP:
            return s
    raise NumericalError("spectrum: no eigenphase sample near p=%r is clear of 0" % p)


def _contour_estimates(system, a: float, b: float, count: int, probe: np.ndarray):
    """Beyn's estimates (momenta, null vectors) of the eigenmomenta in
    the ellipse through a and b, which holds count of them.

    The ellipse z = c + r w, w = cos t + i CONTOUR_RATIO sin t, carries
    CONTOUR_NODES trapezoid nodes t_j = 2 pi (j + 1/2) / N, none of them
    real, so M(z_j) = D(z_j) - B = D(z_j) A(z_j) (_resolvent_stack) is
    never singular; D(z) is invertible, so M has the zeros and right null
    vectors of A. One stacked solve per chunk of nodes gives X_j = M(z_j)^-1 V for
    the first count + PROBE_EXTRA columns V of the probe, and the moments
    C_k = sum_j w_j^k w'(t_j) X_j are (1 / 2 pi i) oint w^k M^-1 V dz up
    to a factor that cancels. With C_0 = Q S W^H truncated to its rank,
    the number of singular values above RANK_RTOL of the largest but at
    least count, the eigenvalues of Q^H C_1 W S^-1 are the w of the
    eigenmomenta and Q maps its eigenvectors to their null vectors. The rank also counts
    eigenmomenta just outside the ellipse, as a root of high
    multiplicity next to an end; when it fills the probe, the integral
    is redone with all n columns. Estimates more than r beyond the
    window are dropped.
    """
    n = len(probe)
    t = TWO_PI * (np.arange(CONTOUR_NODES) + 0.5) / CONTOUR_NODES
    w = np.cos(t) + 1j * CONTOUR_RATIO * np.sin(t)
    weights = np.stack([np.ones_like(w), w]) * (-np.sin(t) + 1j * CONTOUR_RATIO * np.cos(t))
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    z = c + r * w
    for width in (min(n, count + PROBE_EXTRA), n):
        moments = np.zeros((2, n, width), dtype=complex)
        for part in _chunks(n, CONTOUR_NODES):
            m = _resolvent_stack(*system, z[part])
            x = np.linalg.solve(m, np.broadcast_to(probe[:, :width], (len(m), n, width)))
            moments += np.tensordot(weights[:, part], x, axes=1)
        u, sigma, vh = np.linalg.svd(moments[0], full_matrices=False)
        rank = max(count, int(np.sum(sigma > RANK_RTOL * sigma[0])))
        if rank < width or width == n:
            break
    u = u[:, :rank]
    pencil = u.conj().T @ moments[1] @ vh[:rank].conj().T / sigma[:rank]
    mu, vectors = np.linalg.eig(pencil)
    near = np.abs(mu.real) <= 2.0
    return c + r * mu.real[near], (u @ vectors[:, near]).T


def _refine(system, p: np.ndarray, x: np.ndarray):
    """One inverse-iteration and Rayleigh-functional step on every
    estimate at once, chunk by chunk; _certified judges the result.

    A'(p) = -i diag(L) U(p) is -i diag(L) on the null vectors of A(p),
    so a step solves A(p) y = diag(L) x, the constant -i dropped and L
    scaled exactly, by a power of two, into [1/2, 1) so that |y|^2 of
    very short edges cannot underflow to 0, as
    M(p) y = D(p) diag(L) x on M(p) = D(p) A(p) (_resolvent_stack),
    normalises y, and moves p by the Newton step of y^H A(p) y, with
    A(p) y read as D(-p) M(p) y: U(p) is unitary at real p, so the left
    null vector of A(p) is the right one, and the derivative there is
    -i y^H diag(L) y. Returns the moved momenta and the unit vectors y.
    An exactly singular M(p) leaves p and x as they are.
    """
    lengths = np.asarray(system[0].slot_length)
    scaled = np.ldexp(lengths, -np.frexp(lengths.max())[1])
    p, x = p.copy(), x.copy()
    for part in _chunks(len(lengths), len(p)):
        m = _resolvent_stack(*system, p[part])
        phase = np.exp(-1j * p[part, None] * lengths)
        y, singular = _solve(m, (phase * scaled * x[part])[..., None])
        y = np.where(singular[:, None], x[part], y[..., 0])
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        ay = (m @ y[..., None])[..., 0] / phase
        shift = np.sum(y.conj() * ay, axis=1).imag / (np.abs(y) ** 2 @ lengths)
        shift[singular] = 0.0
        p[part] += shift
        x[part] = y
    return p, x


def _certified(system, p: np.ndarray, x: np.ndarray, a: float, b: float, count: int):
    """The refined momenta p in (a, b] with their unit vectors x as
    (momentum, multiplicity) groups, or None unless a residual bound
    proves that they hold all count eigenmomenta there.

    Momenta within ROOT_DEDUP_TOL of each other form one group of k
    members with centre c and Q, an orthonormal basis of their vectors
    (QR). At real c, D(c) is unitary
    and A(c) = I - U(c) is normal with the singular values
    2 |sin(theta / 2)| over the eigenphases theta, so
    r = ||M(c) Q||_2 = ||A(c) Q||_2, with M(c) Q taken as D(c) Q - B Q,
    bounds k of them by 2 asin(r / 2) (Courant-Fischer). Every
    eigenphase rises at a rate of at least min(L) (Berkolaiko &
    Kuchment, Introduction to Quantum Graphs, 2013), so k eigenmomenta
    lie within reach = 2 asin((r + slack) / 2) / min(L) of c, the slack
    4 eps (n + |c| max(L)) covering the rounding of B Q and of the
    phases c L. When these intervals lie
    inside (a, b] and are pairwise disjoint, each holds exactly its
    group's multiplicity, and no eigenmomentum is missed. The residual
    less the slack must prove c to within ROOT_DEDUP_TOL max(1, |c|),
    the resolution at which roots are merged; the slack's own reach is
    left out, as no refinement shrinks it.
    """
    lengths = np.asarray(system[0].slot_length)
    inside = (p > a) & (p <= b)
    if np.count_nonzero(inside) != count or not np.all(np.isfinite(x[inside])):
        return None
    order = np.argsort(p[inside])
    p, x = p[inside][order], x[inside][order]
    groups = np.split(np.arange(count), np.flatnonzero(np.diff(p) > ROOT_DEDUP_TOL) + 1)
    centres = np.array([np.mean(p[members]) for members in groups])
    residual = np.empty(len(groups))
    for k, (c, members) in enumerate(zip(centres, groups)):
        q = np.linalg.qr(x[members].T)[0]
        residual[k] = np.linalg.norm(np.exp(-1j * c * lengths)[:, None] * q - system[1] @ q, 2)
    slack = 4.0 * np.finfo(float).eps * (len(lengths) + np.abs(centres) * np.max(lengths))
    span = 2.0 / np.min(lengths)
    reach = span * np.arcsin(np.minimum(0.5 * (residual + slack), 1.0))
    # the part of the reach that refinement can shrink; rounding leaves the rest
    refined = span * np.arcsin(np.minimum(0.5 * (residual - slack), 1.0))
    if not (centres[0] - reach[0] > a and centres[-1] + reach[-1] <= b
            and np.all(centres[1:] - reach[1:] > centres[:-1] + reach[:-1])
            and np.all(refined <= ROOT_DEDUP_TOL * np.maximum(1.0, np.abs(centres)))):
        return None
    return [(float(c), len(members)) for c, members in zip(centres, groups)]


def eigenmomenta(g: Graph, locals_, idx: ModeIndex, p_min: float, p_max: float):
    """Distinct eigenmomenta in [p_min, p_max] as sorted
    (p, multiplicity) pairs of a graph without external edges, whose
    vertex matrices must be constant and unitary (compact_spectrum
    lists the momenta alone).

    For constant unitary vertex matrices U(p) = E(-p) s22 is unitary
    with det U(p) = exp(i p sum(lengths)) det(E(0) s22), so its
    eigenphases rise with p and each crossing of 0 lowers the sum of
    the principal phases by 2 pi. The eigenmomenta in (a, b], with
    multiplicity, thus number ((b - a) sum(lengths) - sum phi(b)
    + sum phi(a)) / 2 pi for any a < b, from two phase samples. The
    range starts as one window. Beyn's contour integral around a window
    (_contour_estimates) and one refinement step (_refine) place its
    eigenmomenta, and it is kept only when the residuals of their null
    vectors prove them all, with their multiplicities, each to within
    ROOT_DEDUP_TOL max(1, |p|) beyond rounding (_certified); phase
    samples only cut windows. A window is split in two while it holds
    more than n / 2 eigenmomenta (n slots) and is wider than
    pi / (2 max(lengths)), and when its certification fails; both are
    cut by one rule, at the first sample from its centre in steps of a
    sixteenth of its width where no phase is near 0 (_cut). A cut with no
    such sample, or a window no wider than ROOT_DEDUP_TOL that still
    fails, raises a NumericalError,
    and a range holding more eigenmomenta than an array can a
    MemoryError.
    """
    if g.n_external > 0:
        raise NotCompact("spectrum is defined for graphs without external edges; found %d"
                         % g.n_external)
    _refuse_range(p_min, p_max)
    resolved, (_, _, _, bond) = _constant_blocks(g, locals_, idx, NonConstantLocals, "spectrum")
    if not all(loc.unitary for loc in resolved):
        raise ValidationError("spectrum requires unitary vertex matrices")
    if g.n_internal == 0:
        return []

    n = len(bond)
    sample = _phase_sampler(bond, np.asarray(idx.slot_length))
    # the range overhangs both ends so that a root on an end is inside it,
    # and an end with a root on it moves outward
    lo_end, hi_end = p_min - ROOT_DEDUP_TOL, p_max + ROOT_DEDUP_TOL
    _refuse_phase_overflow(idx, np.array([lo_end, hi_end]))
    narrow = 0.5 * math.pi / max(idx.slot_length)
    quarter = 0.25 * min(hi_end - lo_end, narrow)
    lo, hi = _cut(sample, lo_end, -quarter), _cut(sample, hi_end, quarter)
    total = (hi[1] - lo[1]) / TWO_PI
    if not total < MAX_GRID_POINTS:
        raise MemoryError("[%r, %r] holds %.3g eigenmomenta, beyond numpy's array size limit"
                          % (p_min, p_max, total))
    # the result must hold them all; numpy refuses at once to allocate an
    # array of them that the address space or the memory cannot hold
    np.empty(round(total))
    system = (idx, bond)
    probe = _probe_block(n, n)
    cap = max(1, n // 2)
    windows, roots = [(lo, hi)], []
    while windows:
        lo, hi = windows.pop()
        count = _crossings(lo, hi)
        if count == 0:
            continue
        if count <= cap or hi[0] - lo[0] <= narrow:
            p, x = _refine(system, *_contour_estimates(system, lo[0], hi[0], count, probe))
            found = _certified(system, p, x, lo[0], hi[0], count)
            if found is not None:
                roots += found
                continue
        mid = _cut(sample, 0.5 * (lo[0] + hi[0]), (hi[0] - lo[0]) / 16)
        if not (hi[0] - lo[0] > ROOT_DEDUP_TOL and lo[0] < mid[0] < hi[0]):
            raise NumericalError("spectrum: could not place the %d eigenmomenta counted in "
                                 "[%r, %r]" % (count, float(lo[0]), float(hi[0])))
        windows += [(mid, hi), (lo, mid)]
    # roots up to 1e-12 outside the interval move onto its ends
    roots = [[float(min(max(p, p_min), p_max)), k] for p, k in sorted(roots)
             if p_min - 1e-12 <= p <= p_max + 1e-12]
    for i in range(len(roots) - 1, 0, -1):
        if roots[i][0] - roots[i - 1][0] <= ROOT_DEDUP_TOL:
            roots[i - 1][1] += roots.pop(i)[1]
    return [tuple(r) for r in roots]


def compact_spectrum(g: Graph, locals_, idx: ModeIndex, p_min: float, p_max: float):
    """Real zeros of the secular determinant on [p_min, p_max] for a
    graph without external edges, as sorted distinct floats.

    The vertex matrices must be constant and unitary, or a
    ValidationError is raised. The roots are counted exactly on the
    eigenphases of the unitary U(p) = E(-p) s22 and placed by a contour
    integral of (I - U(p))^-1 over windows of the range
    (eigenmomenta); roots within ROOT_DEDUP_TOL of each other are
    reported once. A window whose roots cannot be placed to match its
    count raises a NumericalError.
    """
    return [p for p, _ in eigenmomenta(g, locals_, idx, p_min, p_max)]


def _sign_multiset(colour_matrices) -> list[tuple[tuple[int, ...], int]]:
    """Joint eigenvalue sign patterns with their multiplicities for a
    family of commuting symmetric involutions M_a.

    On the joint eigenspace of sign pattern sigma the matrix
    sum_a 2^a M_a has the eigenvalue sum_a sigma_a 2^a, an odd integer
    that differs for every pattern, so one eigvalsh gives each
    pattern's multiplicity. Patterns are listed by increasing bit mask
    (2^nu - 1 - value) / 2, whose bit a is set where sigma_a = -1.
    """
    weights = 2.0 ** np.arange(len(colour_matrices))
    stacked = np.tensordot(weights, np.asarray(colour_matrices, dtype=float), axes=1)
    values, counts = np.unique(np.rint(np.linalg.eigvalsh(stacked)), return_counts=True)
    top = 2 ** len(colour_matrices) - 1
    return [
        (tuple(-1 if (top - int(v)) // 2 >> a & 1 else 1 for a in range(len(weights))), int(c))
        for v, c in zip(values[::-1], counts[::-1])
    ]


def symmetry_factor_check(g: Graph, locals_, idx: ModeIndex, colour_matrices) -> bool:
    """Verify that the product of per-sign-pattern reduced determinants
    matches the assembled secular polynomial coefficientwise within
    1e-9 of its largest coefficient.

    Requires identical constant vertex matrices everywhere, equal edge
    lengths, no loops and a full proper edge colouring given as its
    vertex-pairing matrices. Refuses with ReductionNotApplicable when the
    reduction does not apply.
    """
    resolved, _ = _constant_blocks(g, locals_, idx, ReductionNotApplicable, "reduction")
    base = resolved[0].constant
    for loc in resolved[1:]:
        if loc.size != resolved[0].size or np.max(np.abs(loc.constant - base)) > 0:
            raise ReductionNotApplicable("reduction requires the same matrix at every vertex")
    if any(e.is_loop for e in g.internal_edges):
        raise ReductionNotApplicable("reduction does not cover loops")

    lengths = {e.length for e in g.internal_edges}
    if len(lengths) != 1:
        raise ReductionNotApplicable("reduction requires equal edge lengths")
    unit = lengths.pop()

    n_ext = {g.external_degree(v) for v in range(g.vertex_count)}
    n_int = {g.internal_degree(v) for v in range(g.vertex_count)}
    if len(n_ext) != 1 or len(n_int) != 1:
        raise ReductionNotApplicable("reduction requires a regular fixture")
    k_ext = n_ext.pop()
    nu = n_int.pop()

    mats = [np.asarray(m, dtype=float) for m in colour_matrices]
    if len(mats) != nu:
        raise ReductionNotApplicable("expected %d colour matrices, got %d" % (nu, len(mats)))
    n = g.vertex_count
    for a, mat in enumerate(mats):
        if mat.shape != (n, n):
            raise ReductionNotApplicable("colour matrix %d has shape %r" % (a, mat.shape))
        if np.max(np.abs(mat - mat.T)) > 0 or np.max(np.abs(mat @ mat - np.eye(n))) > 1e-12:
            raise ReductionNotApplicable("colour matrix %d is not a symmetric involution" % a)
    for a in range(nu):
        for b in range(a + 1, nu):
            if np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) > 0:
                raise ReductionNotApplicable("colour matrices %d and %d do not commute" % (a, b))

    # per-vertex reduced block in colour order; must come out the same
    # at every vertex for the factorization to make sense
    s_red = None
    for v in range(g.vertex_count):
        partners = [np.flatnonzero(mat[v]) for mat in mats]
        if any(len(w) != 1 for w in partners):
            raise ReductionNotApplicable("colour matrix is not a perfect pairing")
        heads = [idx.internal_order[s][1] for s in idx.vertex_internal[v]]
        # position of each colour's partner in the vertex's slot order
        try:
            perm = [heads.index(int(w[0])) for w in partners]
        except ValueError:
            raise ReductionNotApplicable(
                "colour pairing at vertex %d does not match the graph" % v)
        reduced = base[k_ext:, k_ext:][np.ix_(perm, perm)]
        if s_red is None:
            s_red = reduced
        elif np.max(np.abs(reduced - s_red)) > 1e-12:
            raise ReductionNotApplicable(
                "reduced block depends on the vertex; colouring and matrix "
                "are not aligned"
            )

    left = np.array([1.0 + 0.0j])
    for sigma, count in _sign_multiset(mats):
        d = np.diag(np.asarray(sigma, dtype=float))
        factor = np.linalg.det(d) * np.poly(d @ s_red)
        for _ in range(count):
            left = np.polymul(left, factor)

    right = secular_polynomial(g, resolved, idx, unit).coefficients[::-1]
    tol = COEFFICIENT_RTOL * float(np.max(np.abs(right)))
    return bool(np.max(np.abs(np.polysub(left, right))) <= tol)
