import numpy as np
import pytest

from graphscatter import (
    DegenerateConstantPolynomial,
    EmptyInterval,
    FitResidualTooLarge,
    FixtureUnknown,
    GraphSpec,
    IncommensurableLengths,
    NonConstantLocals,
    NotCompact,
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
from graphscatter import spectral
from _helpers import random_graph, random_locals


def interval_system(r1=-1.0, r2=-1.0, length=1.0):
    fix = canonical("interval_compact", L=length, r1=r1, r2=r2)
    return fix.graph, list(fix.locals), mode_index(fix.graph)


def test_secular_determinant_empty_graph_is_one():
    g = build_graph(GraphSpec(1, (), (0,)))
    idx = mode_index(g)
    assert secular_determinant(g, [kirchhoff_local(0, 1)], idx, 1.2) == 1.0 + 0.0j


def test_interval_polynomial_coefficients():
    g, locs, idx = interval_system()
    poly = secular_polynomial(g, locs, idx, 1.0)
    assert poly.degree_bound == 2
    assert np.max(np.abs(poly.coefficients - np.array([1.0, 0.0, -1.0]))) < 1e-12


def test_tadpole_polynomial_coefficients():
    fix = canonical("tadpole")
    idx = mode_index(fix.graph)
    poly = secular_polynomial(fix.graph, list(fix.locals), idx, 1.0)
    want = np.array([-1.0 / 3.0, 4.0 / 3.0, -1.0])
    assert np.max(np.abs(poly.coefficients - want)) < 1e-12


def test_polynomial_matches_determinant_random():
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
        poly = secular_polynomial(g, locs, idx, 0.25)
        scale = float(np.max(np.abs(poly.coefficients)))
        for _ in range(5):
            p = float(rng.uniform(0.1, 9.0))
            zeta = np.exp(-1j * p * 0.25)
            direct = secular_determinant(g, locs, idx, p)
            assert abs(poly(zeta) - direct) < 1e-9 * max(scale, 1.0)
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


def test_pole_residual_small():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    locs = [tetra2_local(v) for v in range(4)]
    poly = secular_polynomial(g, locs, idx, 1.0)
    scale = float(np.max(np.abs(poly.coefficients)))
    for rec in find_poles(poly):
        assert abs(poly(rec.zeta)) < 1e-8 * scale


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
    with pytest.raises(FixtureUnknown):
        symmetry_factor_check(g, locs, idx, mats)


def test_symmetry_check_rejects_unsuitable_systems():
    g, col = platonic("tetrahedron")
    idx = mode_index(g)
    mats, _ = commuting_colour_matrices(col)
    kirch = [kirchhoff_local(v, 4) for v in range(4)]

    # vertex-dependent locals
    mixed = [kirchhoff_local(0, 4), tetra2_local(1), tetra2_local(2), tetra2_local(3)]
    with pytest.raises(FixtureUnknown):
        symmetry_factor_check(g, mixed, idx, mats)

    # wrong number of colour matrices
    with pytest.raises(FixtureUnknown):
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
    with pytest.raises(FixtureUnknown):
        symmetry_factor_check(g_uneven, kirch, mode_index(g_uneven), mats)

    # loops disqualify the reduction
    fix = canonical("tadpole")
    tg, tidx = fix.graph, mode_index(fix.graph)
    with pytest.raises(FixtureUnknown):
        symmetry_factor_check(tg, list(fix.locals), tidx, [np.eye(1)])


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


def lead_ring(n, seed):
    """Ring of n unit edges plus n // 2 random unit chords and 6 leads,
    Kirchhoff vertices."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((int(a), int(b), 1.0))
    leads = tuple(int(v) for v in rng.choice(n, 6, replace=False))
    g = build_graph(GraphSpec(n, tuple(edges), leads))
    return g, [kirchhoff_local(v, g.degree(v)) for v in range(n)], mode_index(g)


def assert_genuine(g, locs, idx, poly, records):
    """Checks that do not use the pole engine: the polynomial vanishes at
    every reported zeta and max|S_tot| grows tenfold when zeta (1 + delta)
    moves from delta = 1e-4 to delta = 1e-5."""
    scale = float(np.max(np.abs(poly.coefficients)))
    blocks = assemble_blocks(g, locs, idx, 0.0)

    def peak(zeta):
        p = 1j * np.log(zeta) / poly.unit_length
        m = assemble_propagation(g, idx, p).matrix - blocks.int_int
        s = blocks.ext_ext + blocks.ext_int @ np.linalg.solve(m, blocks.int_ext)
        return float(np.max(np.abs(s)))

    for rec in records:
        assert abs(poly(rec.zeta)) < 1e-10 * scale
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
        lam, _, _, groups = spectral._eigen_groups(u)
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


def test_polynomial_checks_against_secular_determinant(monkeypatch):
    g, locs, idx = interval_system()
    exact = spectral.secular_determinant
    monkeypatch.setattr(
        spectral, "secular_determinant", lambda *args: exact(*args) + 1e-6
    )
    with pytest.raises(FitResidualTooLarge):
        secular_polynomial(g, locs, idx, 1.0)


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
