"""Independent checks of the CLI's outputs.

Sweeps are checked with the involution and unitarity identities
S(p) S(-p) = I and S(p)^H S(p) = I, computed here from the output file
alone. Poles and compact spectra are checked against the eigenvalues
of the unit-length bond matrix U = E0 s22 (Kottos & Smilansky, Ann.
Phys. 274, 76, 1999): every edge of m units is subdivided into m unit
edges joined by degree-2 Kirchhoff vertices (pure transmission,
[[0, 1], [1, 0]]), after which det(E(zeta) - s22) is
det(E0) det(zeta I - U). The only library calls are the public
``assemble_blocks`` / ``assemble_propagation`` on the subdivided graph
(plus the graph and vertex-matrix constructors they need); the graph
file is read as plain JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from graphscatter import (
    GraphSpec,
    assemble_blocks,
    assemble_propagation,
    build_graph,
    kirchhoff_local,
    mode_index,
)

# sweeps pass when both identities hold to this max-norm
DEFECT_TOL = 1e-8
# eigenvalues below this modulus are the zeta = 0 roots, not poles
ZERO_ROOT_TOL = 1e-9
# a pole is genuine when its residue norm exceeds this
RESIDUE_TOL = 1e-8
# reference and reported roots match within these distances
ZETA_MATCH_TOL = 1e-6
P_MATCH_TOL = 1e-6
# a sweep fails when more than this share of its points is flagged
# near_pole; at random real momenta the probe (sigma_min / sigma_max
# <= 1e-12) should flag almost none
NEAR_POLE_MAX_SHARE = 0.01


@dataclass
class Check:
    """Outcome of one job's oracle. ``ok`` is False on any mismatch;
    ``missing`` and ``spurious`` list the reference roots not reported
    and the reported roots not in the reference; ``max_defect`` is the
    larger sweep identity defect (None when not a sweep)."""

    ok: bool
    detail: str
    points: int = 0
    near_pole: int = 0
    max_defect: float | None = None
    missing: tuple = ()
    spurious: tuple = ()
    roots_out: int = 0

    @property
    def missed_roots(self) -> int:
        return len(self.missing) + len(self.spurious)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- sweeps

def _matrix(rec, k):
    mat = np.array([[complex(re, im) for re, im in row] for row in rec["matrix"]])
    if mat.shape != (k, k):
        raise ValueError("matrix at p=%r has shape %r" % (rec["p"], mat.shape))
    return mat


def _too_many_near_pole(near: int, points: int) -> bool:
    return near > NEAR_POLE_MAX_SHARE * points


def check_stot(path, momenta) -> Check:
    doc = _read_json(path)
    if doc.get("command") != "stot":
        return Check(False, "not a stot document")
    records = doc["results"]
    if [r["p"] for r in records] != list(momenta):
        return Check(False, "momenta differ from the requested list")
    k = doc["external_modes"]
    mats = {}
    near = 0
    for rec in records:
        if rec["near_pole"]:
            near += 1
            continue
        mat = _matrix(rec, k)
        abs2 = np.array(rec["abs2"])
        if np.max(np.abs(abs2 - np.abs(mat) ** 2)) > 1e-12:
            return Check(False, "abs2 disagrees with matrix at p=%r" % rec["p"])
        mats[rec["p"]] = mat
    if _too_many_near_pole(near, len(records)):
        return Check(False, "%d of %d points flagged near_pole" % (near, len(records)))
    eye = np.eye(k)
    worst = 0.0
    for p, s in mats.items():
        worst = max(worst, float(np.max(np.abs(s.conj().T @ s - eye))))
        if -p in mats:
            worst = max(worst, float(np.max(np.abs(s @ mats[-p] - eye))))
    ok = worst <= DEFECT_TOL
    return Check(ok, "max defect %.3e" % worst, points=len(records), near_pole=near,
                 max_defect=worst)


def check_verify(path, momenta, exit_code) -> Check:
    doc = _read_json(path)
    if doc.get("command") != "verify":
        return Check(False, "not a verify document")
    records = doc["results"]
    if [r["p"] for r in records] != list(momenta):
        return Check(False, "momenta differ from the requested list")
    live = [r for r in records if not r["near_pole"]]
    inv = max((r["involution_defect"] for r in live), default=None)
    uni = max((r["unitarity_defect"] for r in live), default=None)
    if inv != doc["max_involution_defect"] or uni != doc["max_unitarity_defect"]:
        return Check(False, "reported maxima disagree with the per-point defects")
    near = len(records) - len(live)
    if inv is None or _too_many_near_pole(near, len(records)):
        return Check(False, "%d of %d points flagged near_pole" % (near, len(records)))
    worst = max(inv, uni)
    passed = worst <= doc["tolerance"]
    if doc["pass"] != passed or (exit_code == 0) != passed:
        return Check(False, "pass flag or exit code disagrees with the maxima")
    return Check(worst <= DEFECT_TOL, "max defect %.3e" % worst, points=len(records),
                 near_pole=near, max_defect=worst)


# ------------------------------------------------------------ bond matrix

def _unit_of(doc) -> float:
    unit = doc["lengths_unit"]
    if isinstance(unit, str):
        num, _, den = unit.partition("/")
        return float(num) / float(den or 1)
    return float(unit)


def bond_system(graph_path):
    """(U, E0 s21, s12) of the graph subdivided into unit edges."""
    doc = _read_json(graph_path)
    for rec in doc.get("vertex_locals", ()):
        if rec["family"] != "kirchhoff":
            raise ValueError("the bond-matrix oracle supports Kirchhoff vertices only")
    unit = _unit_of(doc)
    n = doc["vertices"]
    edges = []
    for rec in doc["internal_edges"]:
        u, v = rec["u"] - 1, rec["v"] - 1
        m = round(rec["length"] / unit)
        if m < 1 or abs(rec["length"] - m * unit) > 1e-9 * unit:
            raise ValueError("length %r is not a multiple of %r" % (rec["length"], unit))
        chain = [u] + list(range(n, n + m - 1)) + [v]
        n += m - 1
        edges.extend((a, b, 1.0) for a, b in zip(chain, chain[1:]))
    leads = tuple(rec["vertex"] - 1 for rec in doc["external_edges"])
    g = build_graph(GraphSpec(n, tuple(edges), leads))
    idx = mode_index(g)
    locs = [kirchhoff_local(v, g.degree(v)) for v in range(n)]
    blocks = assemble_blocks(g, locs, idx, 0.0)
    e0 = assemble_propagation(g, idx, 0.0).matrix
    return e0 @ blocks.int_int, e0 @ blocks.int_ext, blocks.ext_int, unit


def reference_poles(graph_path) -> list[complex]:
    """Nonzero eigenvalues of U whose residue ||s12 v|| ||w^H E0 s21||
    is nonzero, one entry per eigenvalue (so multiplicities repeat)."""
    u, e0_s21, s12, _ = bond_system(graph_path)
    lam, right = np.linalg.eig(u)
    left = np.linalg.inv(right)  # rows are w^H with w^H v = 1
    poles = []
    for k, z in enumerate(lam):
        if abs(z) < ZERO_ROOT_TOL:
            continue
        residue = np.linalg.norm(s12 @ right[:, k]) * np.linalg.norm(left[k] @ e0_s21)
        if residue > RESIDUE_TOL:
            poles.append(complex(z))
    return poles


def reference_spectrum(graph_path, p_min, p_max) -> list[float]:
    """Distinct momenta in [p_min, p_max] where U has eigenvalue
    exp(-i p unit) on the unit circle."""
    u, _, _, unit = bond_system(graph_path)
    lam = np.linalg.eigvals(u)
    period = 2 * math.pi / unit
    momenta = []
    for z in lam[np.abs(np.abs(lam) - 1.0) < 1e-8]:
        base = -np.angle(z) / unit
        k = math.ceil((p_min - P_MATCH_TOL - base) / period)
        while base + k * period <= p_max + P_MATCH_TOL:
            momenta.append(float(base + k * period))
            k += 1
    momenta.sort()
    distinct = []
    for p in momenta:
        if not distinct or p - distinct[-1] > P_MATCH_TOL:
            distinct.append(p)
    return distinct


def match_roots(reference, reported, tol) -> tuple[tuple, tuple]:
    """(missing, spurious): the reference entries and the reported
    entries left unmatched after pairing the closest ones within tol,
    each entry used at most once."""
    pairs = sorted(
        (abs(r - o), i, j)
        for i, r in enumerate(reference)
        for j, o in enumerate(reported)
        if abs(r - o) <= tol
    )
    used_ref, used_out = set(), set()
    for _, i, j in pairs:
        if i not in used_ref and j not in used_out:
            used_ref.add(i)
            used_out.add(j)
    return (tuple(r for i, r in enumerate(reference) if i not in used_ref),
            tuple(o for j, o in enumerate(reported) if j not in used_out))


def _root_check(reference, reported, tol) -> Check:
    missing, spurious = match_roots(reference, reported, tol)
    return Check(not missing and not spurious,
                 "%d reference, %d reported, %d missing, %d spurious"
                 % (len(reference), len(reported), len(missing), len(spurious)),
                 missing=missing, spurious=spurious, roots_out=len(reported))


def check_poles(path, reference) -> Check:
    doc = _read_json(path)
    if doc.get("command") != "poles":
        return Check(False, "not a poles document")
    reported = []
    for rec in doc["poles"]:
        if rec["removable"]:
            return Check(False, "removable root listed without --include-removable")
        reported.extend([complex(*rec["zeta"])] * rec["multiplicity"])
    return _root_check(reference, reported, ZETA_MATCH_TOL)


def check_spectrum(path, reference) -> Check:
    doc = _read_json(path)
    if doc.get("command") != "spectrum":
        return Check(False, "not a spectrum document")
    reported = [float(p) for p in doc["p"]]
    return _root_check(reference, reported, P_MATCH_TOL)


# ---------------------------------------------------------- known defects
#
# A job tagged with a known defect of the baseline is excused only when
# its failure shows exactly that defect's signature; any other outcome
# (a crash, an empty list, roots missing for another reason, spurious
# roots) marks the run incorrect. Each matcher takes the job, its exit
# code and stderr text, its Check and its reference roots.

# find_poles drops the lead ring's lowest resonance, a real pole at
# zeta ~ 0.93 that np.roots merges into the removable cluster at zeta = 1
DROPPED_POLE_WINDOW = (0.90, 0.96)
# compact_spectrum scans |det| on a grid of step pi / (8 L); a root
# within this many steps of another root or of an end of the range can
# share a grid minimum with it and be missed (at most 3.0 seen on seeds
# 0-59 for neighbours, 1.7 for range ends)
CLOSE_ROOT_STEPS = 4.0


def dropped_lowest_resonance(job, exit_code, stderr, check, reference) -> bool:
    lo, hi = DROPPED_POLE_WINDOW
    return (exit_code == 0 and not check.spurious and len(check.missing) <= 1
            and all(abs(z.imag) < 1e-8 and lo <= z.real <= hi for z in check.missing))


def scan_step(graph_path) -> float:
    """compact_spectrum's grid step pi / (8 L), L the total edge length."""
    length = sum(rec["length"] for rec in _read_json(graph_path)["internal_edges"])
    return math.pi / (8.0 * length)


def close_roots_missed(job, exit_code, stderr, check, reference) -> bool:
    if exit_code != 0 or check.spurious:
        return False
    reach = CLOSE_ROOT_STEPS * scan_step(job.graph)
    p_min, p_max = job.p_range
    for p in check.missing:
        near = [p_min, p_max, *(q for q in reference if q != p)]
        if min(abs(p - q) for q in near) > reach:
            return False
    return True


def singular_polish_crash(job, exit_code, stderr, check, reference) -> bool:
    """numpy's raw LinAlgError (exit 1), or the same failure mapped to
    the CLI's numerical-error exit code 3."""
    if exit_code == 1:
        return "LinAlgError: Singular matrix" in stderr
    return exit_code == 3 and "ingular" in stderr


KNOWN_DEFECTS = {
    "dropped-lowest-resonance": dropped_lowest_resonance,
    "close-roots-missed": close_roots_missed,
    "singular-polish-crash": singular_polish_crash,
}
