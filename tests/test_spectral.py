import warnings
from dataclasses import replace

import numpy as np
import pytest

from graphscatter import (
    DegenerateConstantPolynomial,
    EmptyInterval,
    GraphSpec,
    IncommensurableLengths,
    NonConstantLocals,
    NotCompact,
    NumericalError,
    ReductionNotApplicable,
    ValidationError,
    assemble_blocks,
    assemble_propagation,
    build_graph,
    canonical,
    commuting_colour_matrices,
    compact_spectrum,
    constant_local,
    find_poles,
    kirchhoff_local,
    mode_index,
    momentum_local,
    platonic,
    secular_determinant,
    secular_polynomial,
    symmetry_factor_check,
    tetra2_local,
)
from graphscatter import solve, spectral
from _helpers import (compact_rational_ring, count_calls, lead_ring, random_graph,
                      random_involutive, random_locals)


def interval_system(r1=-1.0, r2=-1.0, length=1.0):
    fix = canonical("interval_compact", L=length, r1=r1, r2=r2)
    return fix.graph, list(fix.locals), mode_index(fix.graph)


def test_secular_determinant_empty_graph_is_one():
    g = build_graph(GraphSpec(1, (), (0,)))
    idx = mode_index(g)
    assert secular_determinant(g, [kirchhoff_local(0, 1)], idx, 1.2) == 1.0 + 0.0j


def assert_closed_form(g, locs, idx, coefficients):
    """The polynomial sum_k coefficients[k] zeta**k (unit length 1) is
    (-1)**N_i times the characteristic polynomial of the bond matrix, and
    secular_determinant at real and complex momenta equals it at
    zeta = exp(-i p)."""
    u = secular_polynomial(g, locs, idx, 1.0).bond.u
    from_bond = (-1) ** g.n_internal * np.poly(u)[::-1]
    assert from_bond.shape == coefficients.shape
    assert np.max(np.abs(from_bond - coefficients)) < 1e-12
    for p in (0.3, 1.7, 2.5 - 0.4j, 4.1 + 0.2j):
        want = np.polyval(coefficients[::-1], np.exp(-1j * p))
        assert abs(secular_determinant(g, locs, idx, p) - want) < 1e-12, p


def test_interval_polynomial_coefficients():
    g, locs, idx = interval_system()
    assert secular_polynomial(g, locs, idx, 1.0).degree_bound == 2
    assert_closed_form(g, locs, idx, np.array([1.0, 0.0, -1.0]))


def test_tadpole_polynomial_coefficients():
    fix = canonical("tadpole")
    assert_closed_form(fix.graph, list(fix.locals), mode_index(fix.graph),
                       np.array([-1.0 / 3.0, 4.0 / 3.0, -1.0]))


def test_polynomial_matches_determinant_random():
    # det(E(zeta) - s22) = det(E(0)) det(zeta I - U), det(E(0)) = (-1)**N_i
    rng = np.random.default_rng(601)
    done = 0
    while done < 12:
        g = random_graph(rng, max_vertices=4)
        if g.n_internal == 0:
            continue
        # snap lengths to multiples of 1/4 so a unit exists
        spec = GraphSpec(
            g.vertex_count,
            tuple(
                (e.u, e.v, 0.25 * max(1, round(e.length / 0.25)))
                for e in g.internal_edges
            ),
            tuple(e.vertex for e in g.external_edges),
        )
        g = build_graph(spec)
        idx = mode_index(g)
        locs = random_locals(rng, g, idx)
        lam = secular_polynomial(g, locs, idx, 0.25).bond.eigenvalues
        # the largest coefficient of the polynomial
        scale = max(float(np.max(np.abs(np.poly(lam)))), 1.0)
        for _ in range(5):
            p = float(rng.uniform(0.1, 9.0))
            zeta = np.exp(-1j * p * 0.25)
            direct = secular_determinant(g, locs, idx, p)
            assert abs((-1) ** g.n_internal * np.prod(zeta - lam) - direct) < 1e-9 * scale
        done += 1


def test_polynomial_rejects_incommensurable_lengths():
    g = build_graph(GraphSpec(2, ((0, 1, 1.0), (0, 1, np.sqrt(2.0))), (0,)))
    idx = mode_index(g)
    locs = [kirchhoff_local(0, 3), kirchhoff_local(1, 2)]
    with pytest.raises(IncommensurableLengths):
        secular_polynomial(g, locs, idx, 1.0)
    g2, locs2, idx2 = interval_system(length=0.5)
    with pytest.raises(IncommensurableLengths):
        secular_polynomial(g2, locs2, idx2, 1.0)


def test_polynomial_rejects_momentum_dependent_locals():
    fix = canonical("line2")
    idx = mode_index(fix.graph)
    swap_eval = momentum_local(0, 2, lambda p: np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonConstantLocals):
        secular_polynomial(fix.graph, [swap_eval, fix.locals[1]], idx, 1.0)


def test_polynomial_rejects_bad_unit():
    g, locs, idx = interval_system()
    with pytest.raises(ValidationError):
        secular_polynomial(g, locs, idx, 0.0)
    with pytest.raises(ValidationError):
        secular_polynomial(g, locs, idx, -1.0)


def test_find_poles_tetrahedron_case1():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    locs = [kirchhoff_local(v, 4) for v in range(4)]
    poles = find_poles(secular_polynomial(g, locs, idx, 1.0))
    got = sorted((z.zeta for z in poles), key=lambda z: (abs(z), np.angle(z)))
    want = sorted(
        [0.5 + 0j, (-1 + 1j * np.sqrt(7)) / 4, (-1 - 1j * np.sqrt(7)) / 4],
        key=lambda z: (abs(z), np.angle(z)),
    )
    assert len(got) == 3
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
    # e^{-i p ell} reproduces zeta for every returned record
    for rec in poles:
        assert abs(np.exp(-1j * rec.p_representative * 1.0) - rec.zeta) < 1e-9


def test_find_poles_reports_removable_on_request():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    locs = [kirchhoff_local(v, 4) for v in range(4)]
    poly = secular_polynomial(g, locs, idx, 1.0)
    keep = find_poles(poly)
    everything = find_poles(poly, include_removable=True)
    assert len(everything) == 5
    removable = {
        (round(rec.zeta.real), rec.multiplicity)
        for rec in everything
        if rec.removable
    }
    assert removable == {(1, 3), (-1, 2)}
    genuine = [rec for rec in everything if not rec.removable]
    assert len(genuine) == len(keep) == 3
    # total root count with multiplicity equals the polynomial degree
    assert sum(rec.multiplicity for rec in everything) == 12


def test_find_poles_rejects_degenerate_polynomial():
    g = build_graph(GraphSpec(1, (), (0,)))
    idx = mode_index(g)
    poly = secular_polynomial(g, [kirchhoff_local(0, 1)], idx, 1.0)
    assert poly.degree_bound == 0
    with pytest.raises(DegenerateConstantPolynomial):
        find_poles(poly)


def singular_ratio(g, locs, idx, p):
    """sigma_min / sigma_max of E(p) - s22 from the assembly alone, with
    no use of the bond matrix or its eigenvalues."""
    m = assemble_propagation(g, idx, p).matrix - assemble_blocks(g, locs, idx, p).int_int
    sigma = np.linalg.svd(m, compute_uv=False)
    return sigma[-1] / sigma[0]


def test_pole_residual_small():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    locs = [tetra2_local(v) for v in range(4)]
    for rec in find_poles(secular_polynomial(g, locs, idx, 1.0)):
        assert singular_ratio(g, locs, idx, rec.p_representative) <= 1e-10, rec


def test_compact_spectrum_box_variants():
    length = 1.0
    cases = [
        (-1.0, -1.0, [n * np.pi for n in range(1, 11)]),
        (1.0, 1.0, [n * np.pi for n in range(1, 11)]),
        (-1.0, 1.0, [(n + 0.5) * np.pi for n in range(0, 10)]),
    ]
    for r1, r2, want in cases:
        g, locs, idx = interval_system(r1=r1, r2=r2, length=length)
        got = compact_spectrum(g, locs, idx, 1e-6, max(want) + 0.1)
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_compact_spectrum_scaled_interval():
    length = 0.75
    g, locs, idx = interval_system(length=length)
    got = compact_spectrum(g, locs, idx, 1e-6, 5 * np.pi / length + 0.01)
    want = [n * np.pi / length for n in range(1, 6)]
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_compact_spectrum_of_very_short_loops_matches_the_scaled_graph():
    # lengths near 1e-300 would underflow |y|^2 in the refinement step;
    # eigenmomenta runs on them scaled by a power of two into [1, 2), so
    # at 2^-996 the roots are those of the unscaled loops bit for bit
    def loops(scale):
        g = build_graph(GraphSpec(1, ((0, 0, 2 * scale), (0, 0, 3 * scale)), ()))
        return g, [kirchhoff_local(0, 4)], mode_index(g)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = spectral.eigenmomenta(*loops(1e-300), 1e300, 3e300)
        tiny = 2.0 ** -996
        exact = spectral.eigenmomenta(*loops(tiny), 1.0 / tiny, 3.0 / tiny)
    want = spectral.eigenmomenta(*loops(1.0), 1.0, 3.0)
    assert [k for _, k in got] == [k for _, k in want] == [1, 1, 1]
    assert max(abs(p / 1e300 - q) / q for (p, _), (q, _) in zip(got, want)) < 1e-12
    assert [(p * tiny, k) for p, k in exact] == want


def ring_with_chord(lengths, chord, scale):
    """Kirchhoff ring of the given edge lengths plus a chord between
    vertex 0 and the opposite one, every length times scale."""
    n = len(lengths)
    edges = tuple((i, (i + 1) % n, length * scale) for i, length in enumerate(lengths))
    g = build_graph(GraphSpec(n, edges + ((0, n // 2, chord * scale),), ()))
    return g, [kirchhoff_local(v, g.degree(v)) for v in range(n)], mode_index(g)


@pytest.mark.parametrize("lengths, chord, count", [
    ((1.0, 1.1, 1.2, 1.3), 0.7, 16),
    ((1.0, 1.1, 1.2) * 2, 1e-6, 20),
], ids=["scaled-4-ring", "chord-ring-1e-6"])
def test_eigenmomenta_scale_with_the_graph(lengths, chord, count):
    # the secular determinant reads momentum only through the phases
    # p L, so every length times s divides every eigenmomentum by s; for
    # s = 2^k bit for bit, and within rounding for s = 10^k
    def spectrum(s):
        return spectral.eigenmomenta(*ring_with_chord(lengths, chord, s), 0.1 / s, 10.0 / s)

    want = spectrum(1.0)
    assert len(want) == count
    for k in (-8, 2, 8, 9, 12):
        s = 10.0 ** k
        got = spectrum(s)
        assert [m for _, m in got] == [m for _, m in want], s
        assert max(abs(p * s - q) / q for (p, _), (q, _) in zip(got, want)) <= 1e-14, s
    for k in (-250, -40, -1, 1, 30, 250):
        s = 2.0 ** k
        assert [(p * s, m) for p, m in spectrum(s)] == want, s


def test_spectrum_errors_name_the_callers_momenta():
    # chord ring 1e-7 still finds no clear cut near p = 1.904; the error
    # names that momentum in the graph's own unit, so on the graph four
    # times as long it names exactly a quarter of it
    ring = (1.0, 1.1, 1.2) * 2
    for s, p in ((1.0, "1.9039946343524032"), (4.0, "0.4759986585881008")):
        with pytest.raises(NumericalError) as caught:
            spectral.eigenmomenta(*ring_with_chord(ring, 1e-7, s), 0.1 / s, 10.0 / s)
        assert str(caught.value) == "spectrum: no eigenphase sample near p=%s is clear of 0" % p


def test_compact_spectrum_validates():
    g, locs, idx = interval_system()
    with pytest.raises(EmptyInterval):
        compact_spectrum(g, locs, idx, 2.0, 1.0)
    fix = canonical("tadpole")
    with pytest.raises(NotCompact):
        compact_spectrum(fix.graph, list(fix.locals), mode_index(fix.graph), 0.1, 5.0)


def test_compact_spectrum_zeros_kill_determinant():
    g, locs, idx = interval_system(r1=1.0, r2=-1.0)
    for p in compact_spectrum(g, locs, idx, 0.5, 9.0):
        assert abs(secular_determinant(g, locs, idx, p)) < 1e-9


def test_symmetry_check_accepts_tetrahedron_and_cube():
    for name, maker in (
        ("tetrahedron", lambda v: kirchhoff_local(v, 4)),
        ("tetrahedron", tetra2_local),
        ("cube", lambda v: kirchhoff_local(v, 4)),
        ("cube", tetra2_local),
    ):
        g, col = platonic(name)
        idx = mode_index(g)
        locs = [maker(v) for v in range(g.vertex_count)]
        mats, commute = commuting_colour_matrices(col)
        assert commute
        assert symmetry_factor_check(g, locs, idx, mats)


def test_symmetry_check_rejects_noncommuting_colouring():
    g, col = platonic("octahedron")
    idx = mode_index(g)
    locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
    mats, commute = commuting_colour_matrices(col)
    assert not commute
    with pytest.raises(ReductionNotApplicable):
        symmetry_factor_check(g, locs, idx, mats)


def test_symmetry_check_rejects_unsuitable_systems():
    g, col = platonic("tetrahedron")
    idx = mode_index(g)
    mats, _ = commuting_colour_matrices(col)
    kirch = [kirchhoff_local(v, 4) for v in range(4)]

    # vertex-dependent locals
    mixed = [kirchhoff_local(0, 4), tetra2_local(1), tetra2_local(2), tetra2_local(3)]
    with pytest.raises(ReductionNotApplicable):
        symmetry_factor_check(g, mixed, idx, mats)

    # wrong number of colour matrices
    with pytest.raises(ReductionNotApplicable):
        symmetry_factor_check(g, kirch, idx, mats[:2])

    # unequal edge lengths
    spec = GraphSpec(
        4,
        tuple(
            (e.u, e.v, 1.0 + 0.5 * (e.edge_id == 0))
            for e in g.internal_edges
        ),
        tuple(e.vertex for e in g.external_edges),
    )
    g_uneven = build_graph(spec)
    with pytest.raises(ReductionNotApplicable):
        symmetry_factor_check(g_uneven, kirch, mode_index(g_uneven), mats)

    # loops disqualify the reduction
    fix = canonical("tadpole")
    tg, tidx = fix.graph, mode_index(fix.graph)
    with pytest.raises(ReductionNotApplicable):
        symmetry_factor_check(tg, list(fix.locals), tidx, [np.eye(1)])


def test_symmetry_check_refuses_each_unfit_colouring():
    # one refusal per check, each named by its message
    g, col = platonic("tetrahedron")
    idx = mode_index(g)
    mats, _ = commuting_colour_matrices(col)
    kirch = [kirchhoff_local(v, 4) for v in range(4)]
    swap_12 = np.eye(4)[[0, 2, 1, 3]]
    householder = np.eye(4) - 0.5 * np.ones((4, 4))
    rng = np.random.default_rng(0)
    generic = random_involutive(rng, 0, 4, unitary=True).constant
    cases = (
        ([2.0 * mats[0], mats[1], mats[2]], kirch, "not a symmetric involution"),
        ([mats[0], mats[1], swap_12], kirch, "do not commute"),
        # symmetric, involutive and commuting with every permutation
        ([mats[0], mats[1], householder], kirch, "not a perfect pairing"),
        ([mats[0], mats[1], np.eye(4)], kirch, "does not match the graph"),
        # the colour order at a vertex differs between vertices, which a
        # generic vertex matrix sees
        (mats, [constant_local(v, generic) for v in range(4)], "depends on the vertex"),
    )
    for colour_matrices, locs, message in cases:
        with pytest.raises(ReductionNotApplicable, match=message):
            symmetry_factor_check(g, locs, idx, colour_matrices)


def test_symmetry_check_refuses_uneven_leads_and_misshapen_colours():
    # a triangle with one doubled edge and a lead on its third vertex:
    # every vertex matrix is the 3x3 Kirchhoff one, but the lead counts differ
    g = build_graph(GraphSpec(3, ((0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), (2,)))
    locs = [kirchhoff_local(v, 3) for v in range(3)]
    with pytest.raises(ReductionNotApplicable, match="regular fixture"):
        symmetry_factor_check(g, locs, mode_index(g), [np.eye(3)] * 3)

    g, col = platonic("tetrahedron")
    mats, _ = commuting_colour_matrices(col)
    with pytest.raises(ReductionNotApplicable, match=r"colour matrix 2 has shape \(3, 3\)"):
        symmetry_factor_check(g, [kirchhoff_local(v, 4) for v in range(4)], mode_index(g),
                              [mats[0], mats[1], np.eye(3)])


def test_certified_proves_each_group_by_its_residual():
    # K4's triple root at arccos(-1/3), the only eigenmomentum in
    # (1.5, 2.5], certified from its three refined vectors
    edges = tuple((a, b, 1.0) for a in range(4) for b in range(a + 1, 4))
    g = build_graph(GraphSpec(4, edges, ()))
    locs, idx = [kirchhoff_local(v, 3) for v in range(4)], mode_index(g)
    system = (np.asarray(idx.slot_length),
              assemble_blocks(g, locs, idx, 0.0).int_int[list(idx.partner)])
    probe = solve._probe_block(12, 12)
    p, x = spectral._refine(system, *spectral._contour_estimates(system, 1.5, 2.5, 3, probe))
    (c, k), = spectral._certified(system, p, x, 1.5, 2.5, 3)
    assert k == 3 and abs(c - np.arccos(-1.0 / 3.0)) < 1e-14
    # refused when one vector is a copy of another, so that they span
    # less than the null space
    copied = x.copy()
    copied[1] = x[0]
    assert spectral._certified(system, p, copied, 1.5, 2.5, 3) is None
    # refused when one vector is turned off the null space by 0.1 rad
    basis = np.linalg.qr(x.T)[0]
    off = np.eye(12)[0] - basis @ basis[0].conj()
    turned = x.copy()
    turned[2] = np.cos(0.1) * x[2] + np.sin(0.1) * off / np.linalg.norm(off)
    assert spectral._certified(system, p, turned, 1.5, 2.5, 3) is None
    # refused, not raised, when a vector holds a NaN
    broken = x.copy()
    broken[0, 0] = np.nan
    assert spectral._certified(system, p, broken, 1.5, 2.5, 3) is None
    # refused when the group's interval crosses a window end
    assert spectral._certified(system, p, x, 1.5, np.max(p), 3) is None
    assert spectral._certified(system, p, x, np.min(p) - 1e-15, 2.5, 3) is None
    # refused when two groups' intervals overlap: one vector placed at
    # the root and 1.5e-8 beside it, a distance the second one's
    # residual cannot rule out
    twice = np.array([c, c + 1.5e-8])
    assert spectral._certified(system, twice, x[[0, 0]], 1.5, 2.5, 2) is None
    # refused when the momenta sit 1e-6 or 1e-2 off the root: the
    # residual still proves three eigenmomenta in the window, but only
    # within a reach wider than ROOT_DEDUP_TOL
    for moved in (1e-6, 1e-2):
        assert spectral._certified(system, p + moved, x, 1.5, 2.5, 3) is None


def test_commuting_colour_matrices_properties():
    g, col = platonic("cube")
    mats, commute = commuting_colour_matrices(col)
    assert commute and len(mats) == 3
    for m in mats:
        assert np.array_equal(m, m.T)
        assert np.array_equal(m @ m, np.eye(8))
        assert np.all(m.sum(axis=0) == 1.0)
        assert np.all(np.diag(m) == 0.0)


# --- bond-matrix pole engine -------------------------------------------


def assert_genuine(g, locs, idx, poly, records):
    """Checks that do not use the pole engine: E(p) - s22 is singular to
    within 1e-10 of its largest singular value at every reported
    p_representative, and max|S_tot| grows tenfold when zeta (1 + delta)
    moves from delta = 1e-4 to delta = 1e-5."""
    blocks = assemble_blocks(g, locs, idx, 0.0)

    def peak(zeta):
        p = 1j * np.log(zeta) / poly.unit_length
        m = assemble_propagation(g, idx, p).matrix - blocks.int_int
        s = blocks.ext_ext + blocks.ext_int @ np.linalg.solve(m, blocks.int_ext)
        return float(np.max(np.abs(s)))

    for rec in records:
        assert singular_ratio(g, locs, idx, rec.p_representative) <= 1e-10, rec
        growth = peak(rec.zeta * (1 + 1e-5)) / peak(rec.zeta * (1 + 1e-4))
        assert 8.0 < growth < 12.0, (rec.zeta, growth)


def test_find_poles_lead_ring_keeps_lowest_resonance():
    g, locs, idx = lead_ring(45, 0)
    poly = secular_polynomial(g, locs, idx, 1.0)
    poles = find_poles(poly)
    lowest = [rec for rec in poles if rec.zeta.imag == 0.0 and 0.9 < rec.zeta.real < 0.92]
    assert len(lowest) == 1
    assert abs(lowest[0].zeta - 0.910279) < 1e-6
    assert_genuine(g, locs, idx, poly, poles)
    everything = find_poles(poly, include_removable=True)
    assert sum(rec.multiplicity for rec in everything) == poly.degree_bound


def test_find_poles_match_eigenvalues_of_real_and_complex_bond_matrices():
    # Kirchhoff data give a real U, which secular_polynomial decomposes
    # with the real eig, and complex unitary vertex data a complex U; the
    # poles must be the eigenvalues of U, and on real U carry the groups
    # and removable flags of a complex eig
    rng = np.random.default_rng(3)
    for seed in range(20):
        g, locs, idx = lead_ring(20 + seed, seed)
        systems = [locs]
        if seed % 4 == 0:
            systems.append([random_involutive(rng, v, g.degree(v), unitary=True)
                            for v in range(g.vertex_count)])
        for locals_ in systems:
            poly = secular_polynomial(g, locals_, idx, 1.0)
            bond = poly.bond
            assert bond.u.imag.any() == (locals_ is not locs)
            got = find_poles(poly, include_removable=True)
            lam = np.linalg.eigvals(bond.u)
            lam = lam[np.abs(lam) > 1e-8]
            nearest = np.argmin(np.abs(lam[:, None] - np.array([r.zeta for r in got])[None, :]),
                                axis=1)
            assert sum(r.multiplicity for r in got) == len(lam)
            for k, rec in enumerate(got):
                members = lam[nearest == k]
                assert len(members) == rec.multiplicity
                assert abs(np.mean(members) - rec.zeta) < 1e-12
            if locals_ is locs:
                eigs, right = np.linalg.eig(bond.u)
                want = find_poles(replace(poly, bond=replace(bond, eigenvalues=eigs,
                                                             eigenvectors=right)),
                                  include_removable=True)
                assert [(r.multiplicity, r.removable) for r in got] == \
                    [(r.multiplicity, r.removable) for r in want]
                assert max(abs(a.zeta - b.zeta) for a, b in zip(got, want)) < 1e-12


def test_find_poles_dodecahedron_second_family():
    g, _ = platonic("dodecahedron")
    idx = mode_index(g)
    locs = [tetra2_local(v) for v in range(g.vertex_count)]
    poly = secular_polynomial(g, locs, idx, 1.0)
    poles = find_poles(poly)
    assert len(poles) == 11
    for want in (0.5, 0.5449, -0.5449, -0.5598, -0.7953, 0.9176):
        assert min(abs(rec.zeta - want) for rec in poles) < 1e-4
    assert_genuine(g, locs, idx, poly, poles)
    everything = find_poles(poly, include_removable=True)
    assert sum(rec.multiplicity for rec in everything) == poly.degree_bound == 60
    assert {rec.zeta for rec in everything if rec.removable} == {1.0, -1.0}


def test_find_poles_pendant_leads_on_long_edges():
    # a lead vertex of degree 2 at the end of an edge of m > 1 units
    # makes a bond chain exactly nilpotent
    line = build_graph(GraphSpec(2, ((0, 1, 3.0),), (0, 1)))
    kirch = [kirchhoff_local(v, 2) for v in range(2)]
    assert find_poles(secular_polynomial(line, kirch, mode_index(line), 1.0)) == []

    g = build_graph(
        GraphSpec(5, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (0, 3, 2.0), (2, 4, 3.0)), (3, 4, 1))
    )
    idx = mode_index(g)
    locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
    poly = secular_polynomial(g, locs, idx, 1.0)
    poles = find_poles(poly)
    assert poles
    assert_genuine(g, locs, idx, poly, poles)


def test_eigen_groups_keep_jordan_block_together():
    jordan = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    basis = np.array([[1.0, 2.0 + 1.0j], [-0.5j, 1.0]])
    for u in (jordan, basis @ jordan @ np.linalg.inv(basis)):
        lam, _, _, groups = spectral._eigen_groups(u, np.linalg.eig(u), np.linalg.norm(u, 2))
        assert [len(members) for members in groups] == [2]
        assert abs(np.mean(lam) - 0.5) < 1e-12


def test_real_roots_have_zero_imaginary_part():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    locs = [tetra2_local(v) for v in range(4)]
    records = find_poles(secular_polynomial(g, locs, idx, 1.0), include_removable=True)
    real = [rec for rec in records if abs(rec.zeta.imag) < 1e-6]
    assert len(real) == 5
    for rec in real:
        assert rec.zeta.imag == 0.0
    (minus_one,) = [rec for rec in real if abs(rec.zeta + 1.0) < 1e-9]
    assert minus_one.p_representative.real == -np.pi


def test_compact_spectrum_ranges_that_land_on_roots():
    g, locs, idx = interval_system()
    for lo, hi in ((0.5, 7.0), (0.1, 4.0), (0.1, 50.0)):
        got = compact_spectrum(g, locs, idx, lo, hi)
        want = np.pi * np.arange(1, int(hi / np.pi) + 1)
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14


def test_compact_spectrum_near_degenerate_triangle():
    g = build_graph(GraphSpec(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.01)), ()))
    idx = mode_index(g)
    locs = [kirchhoff_local(v, 2) for v in range(3)]
    got = compact_spectrum(g, locs, idx, 0.05, 7.0)
    want = [2 * np.pi * n / 3.01 for n in (1, 2, 3)]
    assert len(got) == 3
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_eigenmomenta_with_one_very_short_edge():
    # rounding alone leaves a reach above 3e-7, 2 asin(slack / 2) /
    # min(L), wider than ROOT_DEDUP_TOL, and near p = 100 the phase
    # part eps |p| max(L) of the slack dominates; a path with Neumann
    # ends has the simple roots k pi / total, a ring the double roots
    # 2 k pi / total
    for short, a, b in ((1e-8, 0.1, 10.0), (1e-8, 100.0, 130.0), (1e-9, 100.0, 130.0)):
        total = 1.0 + short
        path = build_graph(GraphSpec(3, ((0, 1, 1.0), (1, 2, short)), ()))
        ring = build_graph(GraphSpec(2, ((0, 1, 1.0), (0, 1, short)), ()))
        for g, step, k in ((path, np.pi / total, 1), (ring, 2 * np.pi / total, 2)):
            locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
            got = spectral.eigenmomenta(g, locs, mode_index(g), a, b)
            want = step * np.arange(np.ceil(a / step), np.floor(b / step) + 1)
            assert [m for _, m in got] == [k] * len(want)
            assert max(abs(p - q) for (p, _), q in zip(got, want)) < 1e-14 * max(1.0, a)


def test_polynomial_accepts_lengths_within_tolerance():
    g, _ = platonic("dodecahedron")
    spec = GraphSpec(
        g.vertex_count,
        tuple((e.u, e.v, 1.0 + 5e-10) for e in g.internal_edges),
        tuple(e.vertex for e in g.external_edges),
    )
    g = build_graph(spec)
    idx = mode_index(g)
    locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
    assert secular_polynomial(g, locs, idx, 1.0).degree_bound == 60


# --- eigenphase counting engine ----------------------------------------


def test_eigenmomenta_count_k4_multiplicities():
    edges = tuple((a, b, 1.0) for a in range(4) for b in range(a + 1, 4))
    g = build_graph(GraphSpec(4, edges, ()))
    locs = [kirchhoff_local(v, 3) for v in range(4)]
    got = spectral.eigenmomenta(g, locs, mode_index(g), 0.1, 2 * np.pi)
    # cos p = -1/3 from the adjacency eigenvalue -1 of K4; at p = pi and
    # 2 pi the multiplicities are E - V and E - V + 2
    edge = np.arccos(-1.0 / 3.0)
    assert [k for _, k in got] == [3, 2, 3, 4]
    want = [edge, np.pi, 2 * np.pi - edge, 2 * np.pi]
    assert max(abs(p - w) for (p, _), w in zip(got, want)) < 1e-13


def test_eigenmomenta_across_chunk_boundaries(monkeypatch):
    # contour nodes and refined estimates solved one to three at a time
    edges = tuple((a, b, 1.0) for a in range(4) for b in range(a + 1, 4))
    k4 = build_graph(GraphSpec(4, edges, ()))
    systems = [(k4, [kirchhoff_local(v, 3) for v in range(4)], mode_index(k4)),
               compact_rational_ring(21)]
    for g, locs, idx in systems:
        want = spectral.eigenmomenta(g, locs, idx, 0.1, 2 * np.pi)
        for per_chunk in (1, 2, 3):
            monkeypatch.setattr(solve, "_CHUNK_ELEMENTS", per_chunk * idx.n_internal_slots ** 2)
            got = spectral.eigenmomenta(g, locs, idx, 0.1, 2 * np.pi)
            monkeypatch.undo()
            assert [k for _, k in got] == [k for _, k in want]
            assert max(abs(p - q) for (p, _), (q, _) in zip(got, want)) < 1e-14


def test_compact_spectrum_finds_every_root_of_rational_ring():
    # the benchmark's seed-21 ring, where a |det| scan missed 8 of 87
    # roots, and the rings of seeds 0-9
    for seed in (21, *range(10)):
        g, locs, idx = compact_rational_ring(seed)
        bond = assemble_blocks(g, locs, idx, 0.0).int_int[list(idx.partner)]
        u, _, _ = spectral._bond_matrix(spectral._slot_powers(idx, 0.1), bond)
        # Kirchhoff data: U is real, and the real eigvals is much cheaper
        assert not u.imag.any()
        lam = np.linalg.eigvals(u.real)
        # zeta = exp(-0.1 i p) on the unit circle; one period covers [0.1, 10]
        on_circle = lam[np.abs(np.abs(lam) - 1.0) < 1e-8]
        want = np.sort([p for p in -np.angle(on_circle) / 0.1 if 0.1 <= p <= 10.0])
        got = np.asarray(compact_spectrum(g, locs, idx, 0.1, 10.0))
        # seed 9 has a double root, reported once
        distinct = np.sum(np.diff(want) > 1e-8) + 1
        assert len(got) == (87 if seed == 21 else distinct)
        # with its multiplicity
        assert sum(k for _, k in spectral.eigenmomenta(g, locs, idx, 0.1, 10.0)) == len(want)
        assert all(np.min(np.abs(got - p)) < 1e-12 for p in want)
        assert all(np.min(np.abs(want - p)) < 1e-12 for p in got)


def test_eigenmomenta_with_complex_unitary_vertex_data():
    # random compact graphs with loops, lengths k/10 and complex unitary
    # involutions at the vertices, against the unit bond matrix's
    # eigenvalues on the unit circle, zeta = exp(-0.1 i p)
    rng = np.random.default_rng(5)
    roots = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        pairs += [tuple(int(a) for a in rng.integers(0, n, size=2))
                  for _ in range(int(rng.integers(1, 4)))]
        g = build_graph(GraphSpec(n, tuple((a, b, int(rng.integers(5, 16)) / 10.0)
                                           for a, b in pairs), ()))
        idx = mode_index(g)
        locs = random_locals(rng, g, idx, unitary=True)
        bond = assemble_blocks(g, locs, idx, 0.0).int_int[list(idx.partner)]
        u, _, _ = spectral._bond_matrix(spectral._slot_powers(idx, 0.1), bond)
        lam = np.linalg.eigvals(u)
        phase = -np.angle(lam[np.abs(np.abs(lam) - 1.0) < 1e-8]) % (2 * np.pi)
        want = np.sort([p for p in phase / 0.1 if 0.1 <= p <= 8.0])
        groups = np.split(want, np.flatnonzero(np.diff(want) > 1e-8) + 1) if len(want) else []
        got = spectral.eigenmomenta(g, locs, idx, 0.1, 8.0)
        assert [k for _, k in got] == [len(group) for group in groups]
        assert all(abs(p - group.mean()) < 1e-12 for (p, _), group in zip(got, groups))
        roots += len(want)
    assert roots > 300


def test_eigenmomenta_high_multiplicities_and_wide_ranges():
    # unit Kirchhoff platonic graphs, multiplicities up to 20 on the
    # icosahedron, against the unit bond matrix's eigenvalues on the unit
    # circle, zeta = exp(-i p)
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"):
        solid, _ = platonic(name)
        g = build_graph(GraphSpec(solid.vertex_count,
                                  tuple((e.u, e.v, e.length) for e in solid.internal_edges), ()))
        idx = mode_index(g)
        locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
        bond = assemble_blocks(g, locs, idx, 0.0).int_int[list(idx.partner)]
        u, _, _ = spectral._bond_matrix(spectral._slot_powers(idx, 1.0), bond)
        lam = np.linalg.eigvals(u)
        phase = -np.angle(lam[np.abs(np.abs(lam) - 1.0) < 1e-8]) % (2 * np.pi)
        want = np.sort([p for k in range(3) for p in phase + 2 * np.pi * k if 0.1 <= p <= 10.0])
        groups = np.split(want, np.flatnonzero(np.diff(want) > 1e-8) + 1)
        got = spectral.eigenmomenta(g, locs, idx, 0.1, 10.0)
        assert [k for _, k in got] == [len(group) for group in groups], name
        assert max(abs(p - group.mean()) for (p, _), group in zip(got, groups)) < 1e-12, name
    assert max(k for _, k in got) == 20
    # an interval of length 1.3 with hundreds of simple roots n pi / 1.3
    g, locs, idx = interval_system(length=1.3)
    got = spectral.eigenmomenta(g, locs, idx, 0.1, 1000.0)
    want = np.pi * np.arange(1, int(1000.0 * 1.3 / np.pi) + 1) / 1.3
    assert [k for _, k in got] == [1] * len(want)
    assert max(abs(p - w) / w for (p, _), w in zip(got, want)) < 1e-14


def test_compact_spectrum_interval_returns_both_ends():
    g, locs, idx = interval_system()
    got = compact_spectrum(g, locs, idx, np.pi, 2 * np.pi)
    assert len(got) == 2
    assert abs(got[0] - np.pi) < 1e-14 and abs(got[1] - 2 * np.pi) < 1e-14


def test_compact_spectrum_refuses_momentum_dependent_locals():
    g = build_graph(GraphSpec(1, ((0, 0, 1.0),), ()))
    swap = momentum_local(0, 2, lambda p: np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonConstantLocals):
        compact_spectrum(g, [swap], mode_index(g), 0.1, 5.0)


# --- one bond system per polynomial ------------------------------------


def test_find_poles_reads_only_the_polynomial(monkeypatch):
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    tetra = secular_polynomial(g, [tetra2_local(v) for v in range(4)], idx, 1.0)
    fix = canonical("fabry_perot")
    fabry = secular_polynomial(fix.graph, list(fix.locals), mode_index(fix.graph), 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("find_poles rebuilt the system")

    for name in ("resolve_locals", "assemble_blocks", "assemble_propagation"):
        monkeypatch.setattr(spectral, name, refuse)
    got = [
        [(rec.zeta, rec.multiplicity, rec.removable)
         for rec in find_poles(poly, include_removable=True)]
        for poly in (tetra, fabry)
    ]
    want = [
        [(0.5, 1, False), (-0.6286669787764617, 3, False), (0.7953336454431279, 3, False),
         (-1.0, 3, True), (1.0, 2, True)],
        [(-0.6, 1, False), (0.6, 1, False)],
    ]
    for records, expected in zip(got, want):
        assert [(k, r) for _, k, r in records] == [(k, r) for _, k, r in expected]
        assert max(abs(z - w) for (z, _, _), (w, _, _) in zip(records, expected)) < 1e-12


def test_sign_multiset_counts_repeated_patterns():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        nu = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # few distinct rows so that sign patterns repeat
        signs = rng.choice([-1.0, 1.0], size=(int(rng.integers(1, 4)), nu))
        rows = signs[rng.integers(0, len(signs), size=n)]
        mats = [q @ np.diag(rows[:, a]) @ q.T for a in range(nu)]
        eye = np.eye(n)
        want = []
        for bits in range(2**nu):
            sigma = tuple(-1 if (bits >> a) & 1 else 1 for a in range(nu))
            proj = eye
            for sign, mat in zip(sigma, mats):
                proj = proj @ (eye + sign * mat) / 2
            count = round(float(np.trace(proj)))
            if count:
                want.append((sigma, count))
        assert spectral._sign_multiset(mats) == want


def snapped_random_system(seed, k):
    """System k (from 0) drawn from rng seed by random_graph and
    random_locals: graphs with internal edges, lengths snapped to
    multiples of 0.5, non-unitary vertex data."""
    rng = np.random.default_rng(seed)
    while True:
        g = random_graph(rng)
        if g.n_internal == 0:
            continue
        g = build_graph(GraphSpec(
            g.vertex_count,
            tuple((e.u, e.v, 0.5 * max(1, round(e.length / 0.5))) for e in g.internal_edges),
            tuple(e.vertex for e in g.external_edges),
        ))
        idx = mode_index(g)
        locs = random_locals(rng, g, idx)
        if k == 0:
            return g, locs, idx
        k -= 1


def test_find_poles_keeps_genuine_pole_with_small_residue():
    # the pole at zeta = 1.4569 has a residue of 3.8e-9 in S_tot; an
    # absolute residue bound of 1e-8 called it removable
    g, locs, idx = snapped_random_system(5, 281)
    poly = secular_polynomial(g, locs, idx, 0.5)
    (rec,) = [rec for rec in find_poles(poly) if abs(rec.zeta - 1.456907) < 1e-6]
    assert rec.multiplicity == 1 and not rec.removable
    # independent of the engine: max|S_tot| at zeta (1 + delta) grows
    # tenfold as delta shrinks tenfold
    blocks = assemble_blocks(g, locs, idx, 0.0)

    def peak(zeta):
        p = 1j * np.log(zeta) / poly.unit_length
        m = assemble_propagation(g, idx, p).matrix - blocks.int_int
        s = blocks.ext_ext + blocks.ext_int @ np.linalg.solve(m, blocks.int_ext)
        return float(np.max(np.abs(s)))

    growth = peak(rec.zeta * (1 + 1e-12)) / peak(rec.zeta * (1 + 1e-11))
    assert 8.0 < growth < 12.0


# --- poles from one eigendecomposition ----------------------------------


def well_conditioned_polynomials():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    yield secular_polynomial(g, [tetra2_local(v) for v in range(4)], idx, 1.0)
    g, _ = platonic("dodecahedron")
    idx = mode_index(g)
    yield secular_polynomial(g, [tetra2_local(v) for v in range(20)], idx, 1.0)
    fix = canonical("fabry_perot")
    yield secular_polynomial(fix.graph, list(fix.locals), mode_index(fix.graph), 1.0)
    yield secular_polynomial(*lead_ring(30, 3), 1.0)
    yield secular_polynomial(*snapped_random_system(5, 281), 0.5)


def test_find_poles_decomposes_nothing_on_well_conditioned_systems(monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eig")
    for poly in well_conditioned_polynomials():
        assert len(calls) == 1
        bond = poly.bond
        assert spectral._left_rows(bond.eigenvectors) is not None
        records = find_poles(poly, include_removable=True)
        assert len(calls) == 1
        assert sum(rec.multiplicity for rec in records) <= poly.degree_bound
        calls.clear()


def test_eigen_groups_fallback_matches_inverse(monkeypatch):
    # left rows from a second eig, of u^T, give the groups, the
    # biorthogonal rows and the poles that V^-1 gives
    polys = list(well_conditioned_polynomials())
    want = []
    for poly in polys:
        bond = poly.bond
        eigen = (bond.eigenvalues, bond.eigenvectors)
        want.append((spectral._eigen_groups(bond.u, eigen, bond.norm),
                     find_poles(poly, include_removable=True)))
    monkeypatch.setattr(spectral, "_left_rows", lambda right: None)
    for poly, ((lam, right, left, groups), records) in zip(polys, want):
        bond = poly.bond
        got = spectral._eigen_groups(bond.u, (bond.eigenvalues, bond.eigenvectors), bond.norm)
        assert [list(m) for m in got[3]] == [list(m) for m in groups]
        simple = np.concatenate([m for m in groups if len(m) == 1])
        scale = np.linalg.norm(left[simple], axis=1, keepdims=True)
        assert np.max(np.abs(got[2][simple] - left[simple]) / scale) < 1e-8
        assert find_poles(poly, include_removable=True) == records


def test_find_poles_falls_back_where_inverse_fails(monkeypatch):
    # nilpotent bond chains on the pendant edges make V singular
    g = build_graph(
        GraphSpec(5, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (0, 3, 2.0), (2, 4, 3.0)), (3, 4, 1))
    )
    idx = mode_index(g)
    poly = secular_polynomial(g, [kirchhoff_local(v, g.degree(v)) for v in range(5)], idx, 1.0)
    bond = poly.bond
    assert spectral._left_rows(bond.eigenvectors) is None
    calls = count_calls(monkeypatch, np.linalg, "eig")
    records = find_poles(poly, include_removable=True)
    assert [len(a) for a, in calls] == [poly.degree_bound]
    lam, right, left, groups = spectral._eigen_groups(bond.u, (bond.eigenvalues,
                                                                bond.eigenvectors), bond.norm)
    zero = [m for m in groups if np.max(np.abs(lam[m])) <= 1e-8]
    assert sum(len(m) for m in zero) == poly.degree_bound - sum(r.multiplicity for r in records)
    for members in groups:
        if np.all(np.isfinite(left[members])):
            product = left[members] @ right[:, members]
            assert np.max(np.abs(product - np.eye(len(members)))) < 1e-10
    values = np.linalg.eigvals(bond.u)
    for rec in records:
        assert np.min(np.abs(values - rec.zeta)) < 1e-10


def contour_residue(g, locs, idx, unit, zeta, radius, nodes=16):
    """(1 / 2 pi i) times the integral of S_tot over the circle of the
    given radius around zeta, by the trapezoid rule: the residue of the
    one pole inside, or rounding noise of order eps radius |S_tot|."""
    blocks = assemble_blocks(g, locs, idx, 0.0)
    total = 0.0
    for w in np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes):
        p = 1j * np.log(zeta + radius * w) / unit
        m = assemble_propagation(g, idx, p).matrix - blocks.int_int
        s = blocks.ext_ext + blocks.ext_int @ np.linalg.solve(m, blocks.int_ext)
        total = total + s * radius * w
    return np.linalg.norm(total / nodes, 2)


def test_find_poles_keeps_bound_state_pairs_with_two_small_couplings():
    # each system has a conjugate pair with |zeta| - 1 ~ 1e-15 whose two
    # lead couplings are small but far above rounding (9.4e-10 and 7.3e-7,
    # 1.3e-6 and 8.6e-10): a residue near 1e-15, which a bound on the
    # product of the couplings called removable
    for k, pair in ((178, -0.011827389148249 + 0.999930053986746j),
                    (187, 0.499622910824912 + 0.866243006885966j)):
        g, locs, idx = snapped_random_system(7, k)
        poly = secular_polynomial(g, locs, idx, 0.5)
        records = find_poles(poly, include_removable=True)
        for zeta in (pair, pair.conjugate()):
            (rec,) = [rec for rec in records if abs(rec.zeta - zeta) < 1e-12]
            assert rec.multiplicity == 1 and not rec.removable
        # independent of the engine: a simple pole's contour residue is the
        # same on two circles, rounding noise shrinks with the radius
        values = np.linalg.eigvals(poly.bond.u)
        for rec in records:
            gap = np.sort(np.abs(values - rec.zeta))[1]
            if rec.multiplicity > 1 or gap < 1e-3:
                continue
            wide, narrow = (contour_residue(g, locs, idx, 0.5, rec.zeta, r * gap)
                            for r in (1e-3, 1e-4))
            assert rec.removable == (abs(wide - narrow) > 0.5 * wide), (rec, wide, narrow)
            if not rec.removable:
                assert wide > 1e-16


# --- one path through the spectrum engine -------------------------------


def test_eigenmomenta_recover_from_failed_windows(monkeypatch):
    # six contour nodes misplace roots in some windows; such a window is
    # cut at its centre like a full one, and the pieces give the roots
    # found with the default nodes
    failed = []
    certified = spectral._certified

    def counted(*args):
        found = certified(*args)
        failed.append(found is None)
        return found

    for seed in (0, 9, 10):
        g, locs, idx = compact_rational_ring(seed)
        want = spectral.eigenmomenta(g, locs, idx, 0.1, 10.0)
        monkeypatch.setattr(spectral, "CONTOUR_NODES", 6)
        monkeypatch.setattr(spectral, "_certified", counted)
        failed.clear()
        got = spectral.eigenmomenta(g, locs, idx, 0.1, 10.0)
        monkeypatch.undo()
        assert any(failed), seed
        assert [k for _, k in got] == [k for _, k in want]
        assert max(abs(p - q) for (p, _), (q, _) in zip(got, want)) < 1e-13


def test_left_rows_refuse_an_inverse_whose_row_norms_overflow():
    # V^-1 = [[1, -1e200], [0, 1e200]] is finite and V^-1 V = I, but its
    # row norms overflow; the groups then come from the eig(u^T) fallback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert spectral._left_rows(np.array([[1.0, 1.0], [0.0, 1e-200]])) is None
        u = np.array([[0.0, 1.0], [0.0, 1e-200]])
        lam, _, _, groups = spectral._eigen_groups(u, np.linalg.eig(u), np.linalg.norm(u, 2))
    assert [len(members) for members in groups] == [2]
    assert np.max(np.abs(lam)) <= 1e-200


def test_find_poles_where_fallback_rows_overflow():
    # nilpotent bond chains: line2 at two bonds per edge, and one edge
    # from a lead vertex to a dead end. The eig(u^T) fallback solves left
    # rows with norms beyond the float range; they stay NaN, with no
    # RuntimeWarning, and every root is 0
    line = canonical("line2")
    stub = build_graph(GraphSpec(2, ((0, 1, 1.0),), (0,)))
    cases = [(line.graph, list(line.locals), 0.5),
             (stub, [kirchhoff_local(0, 2), kirchhoff_local(1, 1)], 1.0)]
    for g, locs, unit in cases:
        poly = secular_polynomial(g, locs, mode_index(g), unit)
        assert spectral._left_rows(poly.bond.eigenvectors) is None
        assert find_poles(poly, include_removable=True) == []
    # a Kirchhoff loop of length 8 at a lead vertex, fed by a second lead
    # over a degree-2 vertex: the reciprocal of a fallback overlap
    # overflows, and the 8 roots on the unit circle are removable
    g = build_graph(GraphSpec(5, ((0, 1, 3.0), (1, 2, 2.0), (2, 3, 2.0), (1, 4, 1.0),
                                  (3, 0, 1.0)), (1, 4)))
    locs = [kirchhoff_local(v, g.degree(v)) for v in range(5)]
    poly = secular_polynomial(g, locs, mode_index(g), 1.0)
    records = find_poles(poly, include_removable=True)
    assert len(records) == 8 and all(r.removable for r in records)
    assert max(abs(abs(r.zeta) - 1.0) for r in records) < 1e-12
    assert find_poles(poly) == []


def test_left_rows_refuse_an_inverse_that_fails_its_check():
    # unit columns 1e-12 apart: V^-1 is finite, but V^-1 V is off I by
    # far more than BIORTHOGONAL_TOL
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]) * [1.0, 1.0j]
    right = turn @ np.array([[1.0, np.cos(1e-12)], [0.0, np.sin(1e-12)]])
    inverse = np.linalg.inv(right)
    assert np.all(np.isfinite(inverse))
    assert np.max(np.abs(inverse @ right - np.eye(2))) > spectral.BIORTHOGONAL_TOL
    assert spectral._left_rows(right) is None
    # a Jordan block of size 3 beside a simple eigenvalue, in a random
    # unitary basis: eig returns nearly parallel vectors for the block,
    # and the groups come from the eig(u^T) fallback
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u = q @ (np.diag([1.0, 1.0, 1.0, 0.5]) + np.diag([1.0, 1.0, 0.0], 1)) @ q.conj().T
    assert spectral._left_rows(np.linalg.eig(u)[1]) is None
    lam, right, left, groups = spectral._eigen_groups(u, np.linalg.eig(u), np.linalg.norm(u, 2))
    assert sorted(len(m) for m in groups) == [1, 3]
    (simple,) = [m[0] for m in groups if len(m) == 1]
    (block,) = [m for m in groups if len(m) == 3]
    assert abs(lam[simple] - 0.5) < 1e-12
    assert abs(left[simple] @ right[:, simple] - 1.0) < 1e-12
    assert np.max(np.abs(lam[block] - 1.0)) < 1e-4
