import numpy as np
import pytest

from graphscatter import (
    GraphSpec,
    NearPole,
    SeriesDiverges,
    SizeMismatch,
    ValidationError,
    build_graph,
    canonical,
    constant_local,
    internal_modes,
    kirchhoff_local,
    mode_index,
    momentum_local,
    path_sum_oracle,
    platonic,
    scattering_grid,
    total_scattering,
    verify_involution,
    verify_unitarity,
)
from graphscatter import assemble, solve
from graphscatter.assemble import assemble_blocks, assemble_propagation
from _helpers import count_calls, lead_ring, nonpole_momentum, random_graph, random_locals


def test_line2_closed_form():
    fix = canonical("line2", d=1.3)
    idx = mode_index(fix.graph)
    for p in (0.4, 2.2, 1.1 + 0.3j):
        got = total_scattering(fix.graph, fix.locals, idx, p).matrix
        want = np.exp(1j * p * 1.3) * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.max(np.abs(got - want)) < 1e-12


def test_fabry_perot_closed_form():
    r, d = 0.6, 1.0
    t = np.sqrt(1 - r * r)
    fix = canonical("fabry_perot", r=r, d=d)
    idx = mode_index(fix.graph)
    for p in (0.3, 1.9, 4.4):
        got = total_scattering(fix.graph, fix.locals, idx, p).matrix
        z = np.exp(2j * p * d)
        refl = r * (1 - z) / (1 - r * r * z)
        trans = t * t * np.exp(1j * p * d) / (1 - r * r * z)
        assert abs(got[0, 0] - refl) < 1e-12
        assert abs(got[1, 0] - trans) < 1e-12
        assert abs(got[0, 1] - trans) < 1e-12
        assert abs(got[1, 1] - refl) < 1e-12
        assert abs(abs(refl) ** 2 + abs(trans) ** 2 - 1.0) < 1e-12


def test_no_internal_edges_returns_external_block():
    g = build_graph(GraphSpec(1, (), (0, 0, 0)))
    idx = mode_index(g)
    loc = kirchhoff_local(0, 3)
    res = total_scattering(g, [loc], idx, 2.7)
    assert np.max(np.abs(res.matrix - loc.constant)) == 0.0
    assert np.isnan(res.sigma_min) and np.isnan(res.sigma_max)


def test_condition_report():
    fix = canonical("tadpole")
    idx = mode_index(fix.graph)
    res = total_scattering(fix.graph, fix.locals, idx, 0.9)
    assert 0 < res.sigma_min <= res.sigma_max


def test_involution_random_ensemble():
    rng = np.random.default_rng(501)
    for _ in range(30):
        g = random_graph(rng)
        idx = mode_index(g)
        locs = random_locals(rng, g, idx)
        p = nonpole_momentum(rng, g, locs, idx)
        assert verify_involution(g, locs, idx, p) < 1e-8


def test_unitarity_random_ensemble():
    rng = np.random.default_rng(502)
    for _ in range(30):
        g = random_graph(rng)
        idx = mode_index(g)
        locs = random_locals(rng, g, idx, unitary=True)
        p = nonpole_momentum(rng, g, locs, idx)
        assert verify_unitarity(g, locs, idx, p) < 1e-10


def test_internal_modes_reversal_identities():
    rng = np.random.default_rng(503)
    done = 0
    while done < 15:
        g = random_graph(rng)
        if g.n_internal == 0:
            continue
        idx = mode_index(g)
        locs = random_locals(rng, g, idx)
        p = nonpole_momentum(rng, g, locs, idx)
        try:
            s_minus = total_scattering(g, locs, idx, -p)
        except NearPole:
            continue
        a = rng.normal(size=g.n_external) + 1j * rng.normal(size=g.n_external)
        b_plus = internal_modes(g, locs, idx, p, a)
        a_rev = s_minus.matrix @ a
        b_minus = internal_modes(g, locs, idx, -p, a_rev)

        # definition residuals at both signs
        blocks_m = assemble_blocks(g, locs, idx, -p)
        e_m = assemble_propagation(g, idx, -p).matrix
        r1 = np.max(np.abs((e_m - blocks_m.int_int) @ b_plus - blocks_m.int_ext @ a))
        blocks_p = assemble_blocks(g, locs, idx, p)
        e_p = assemble_propagation(g, idx, p).matrix
        r2 = np.max(np.abs((e_p - blocks_p.int_int) @ b_minus - blocks_p.int_ext @ a_rev))
        assert r1 < 1e-8 and r2 < 1e-8

        # reversing the momentum propagates the internal amplitudes
        assert np.max(np.abs(b_plus - e_p @ b_minus)) < 1e-8
        done += 1


def test_internal_modes_validates_vector():
    fix = canonical("tadpole")
    idx = mode_index(fix.graph)
    with pytest.raises(SizeMismatch):
        internal_modes(fix.graph, fix.locals, idx, 1.0, np.ones(4))
    g = build_graph(GraphSpec(1, (), (0,)))
    out = internal_modes(g, [kirchhoff_local(0, 1)], mode_index(g), 1.0, [1.0])
    assert out.shape == (0,)


def test_path_sum_matches_direct_at_complex_momentum():
    rng = np.random.default_rng(504)
    done = 0
    while done < 10:
        g = random_graph(rng, max_vertices=4)
        if g.n_internal == 0:
            continue
        idx = mode_index(g)
        locs = random_locals(rng, g, idx, unitary=True)
        d_min = min(idx.slot_length)
        p = float(rng.uniform(0.3, 4.0)) + 0.2j / d_min
        direct = total_scattering(g, locs, idx, p).matrix
        series = path_sum_oracle(g, locs, idx, p, tol=1e-12)
        assert np.max(np.abs(direct - series)) < 1e-9
        done += 1


def test_path_sum_exact_when_no_backscattering():
    fix = canonical("line2", d=0.9)
    idx = mode_index(fix.graph)
    p = 1.7
    series = path_sum_oracle(fix.graph, fix.locals, idx, p, max_order=0)
    direct = total_scattering(fix.graph, fix.locals, idx, p).matrix
    assert np.max(np.abs(series - direct)) < 1e-14


def test_path_sum_truncates_at_max_order():
    # s11 + s12 (sum_{n=0}^{3} [E(-p) s22]^n) E(-p) s21, written out
    fix = canonical("fabry_perot", r=0.6, d=1.0)
    g, locs, idx = fix.graph, fix.locals, mode_index(fix.graph)
    p = 1.3 + 0.2j
    blocks = assemble_blocks(g, locs, idx, p)
    e_neg = assemble_propagation(g, idx, -p).matrix
    bounce = e_neg @ blocks.int_int
    want = blocks.ext_ext + blocks.ext_int @ sum(
        np.linalg.matrix_power(bounce, n) for n in range(4)) @ e_neg @ blocks.int_ext
    got = path_sum_oracle(g, locs, idx, p, max_order=3)
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.max(np.abs(got - path_sum_oracle(g, locs, idx, p, max_order=2))) > 1e-3


def test_path_sum_diverges_below_real_axis():
    # Im p < 0 makes every bounce factor grow
    fix = canonical("tadpole")
    idx = mode_index(fix.graph)
    with pytest.raises(SeriesDiverges):
        path_sum_oracle(fix.graph, fix.locals, idx, 1.3 - 0.5j)


def test_non_finite_momenta_refused():
    # p = nan or an infinite p times an edge length leaves the phase
    # factors undefined; a graph without internal edges is refused too
    fix = canonical("line2", d=1.3)
    idx = mode_index(fix.graph)
    bare = build_graph(GraphSpec(1, (), (0, 0)))
    bare_case = (bare, [kirchhoff_local(0, 2)], mode_index(bare))
    for p in (np.nan, complex(0.5, np.nan), np.inf, -np.inf):
        calls = [
            lambda: total_scattering(fix.graph, fix.locals, idx, p),
            lambda: scattering_grid(fix.graph, fix.locals, idx, [0.5, p]),
            lambda: internal_modes(fix.graph, fix.locals, idx, p, [1.0, 0.0]),
            lambda: solve.grid_defects(fix.graph, fix.locals, idx, [p]),
            lambda: verify_involution(fix.graph, fix.locals, idx, p),
            lambda: verify_unitarity(fix.graph, fix.locals, idx, p),
            lambda: path_sum_oracle(fix.graph, fix.locals, idx, p),
            lambda: total_scattering(*bare_case, p),
            lambda: path_sum_oracle(*bare_case, p),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="^momentum p="):
                call()


def test_near_pole_raises():
    g, _ = platonic("tetrahedron")
    idx = mode_index(g)
    locs = [kirchhoff_local(v, 4) for v in range(4)]
    p_pole = -1j * np.log(2.0)  # zeta = 1/2
    with pytest.raises(NearPole) as info:
        total_scattering(g, locs, idx, p_pole)
    assert info.value.sigma_min <= 1e-12 * info.value.sigma_max


def test_verify_helpers_on_compact_graph():
    fix = canonical("interval_compact")
    idx = mode_index(fix.graph)
    assert verify_involution(fix.graph, fix.locals, idx, 0.7) == 0.0
    assert verify_unitarity(fix.graph, fix.locals, idx, 0.7) == 0.0


def _dressed(vertex, base, stubs):
    """Momentum-dependent vertex D(p) S0 D(p), D(p) = diag(exp(i p c)):
    involutive because D(p) D(-p) = I and S0 S0 = I."""
    s0 = base.constant

    def evaluate(p):
        d = np.exp(1j * p * stubs)
        return d[:, None] * s0 * d[None, :]

    return momentum_local(vertex, s0.shape[0], evaluate)


def test_scattering_grid_matches_path_sum_oracle(monkeypatch):
    rng = np.random.default_rng(505)
    done = 0
    while done < 12:
        g = random_graph(rng, max_vertices=4)
        if g.n_internal == 0:
            continue
        idx = mode_index(g)
        locs = random_locals(rng, g, idx, unitary=True)
        if done % 2:
            v = int(rng.integers(0, g.vertex_count))
            stubs = rng.uniform(0.0, 0.3, size=idx.vertex_slot_count(v))
            locs[v] = _dressed(v, locs[v], stubs)
        # three momenta per chunk, so the grid crosses chunk boundaries
        monkeypatch.setattr(solve, "_CHUNK_ELEMENTS", 3 * idx.n_internal_slots ** 2)
        d_min = min(idx.slot_length)
        momenta = rng.uniform(-4.0, 4.0, size=8) + 0.2j / d_min
        stack, near = scattering_grid(g, locs, idx, momenta)
        assert stack.shape == (8, g.n_external, g.n_external)
        assert not near.any()
        for p, mat in zip(momenta, stack):
            series = path_sum_oracle(g, locs, idx, p, tol=1e-12)
            assert np.max(np.abs(mat - series)) < 1e-9
            assert np.max(np.abs(mat - total_scattering(g, locs, idx, p).matrix)) < 1e-13
        done += 1


def test_grid_validates_momentum_dependent_data_once(monkeypatch):
    # evaluated at every point, validated once per grid
    rng = np.random.default_rng(41)
    g = build_graph(GraphSpec(2, ((0, 1, 1.0), (1, 1, 0.5)), (0, 0, 1)))
    idx = mode_index(g)
    locs = random_locals(rng, g, idx, unitary=True)
    dressed = _dressed(1, locs[1], rng.uniform(0.0, 0.3, size=idx.vertex_slot_count(1)))
    evaluated = []

    def evaluate(p):
        evaluated.append(p)
        return dressed.matrix(p)

    locs[1] = momentum_local(1, dressed.size, evaluate)
    evaluated.clear()
    monkeypatch.setattr(solve, "_CHUNK_ELEMENTS", 3 * idx.n_internal_slots ** 2)
    calls = [count_calls(monkeypatch, module, "resolve_locals") for module in (assemble, solve)]
    momenta = np.linspace(0.3, 5.1, 10)
    stack, near = scattering_grid(g, locs, idx, momenta)
    assert sum(map(len, calls)) == 1 and len(evaluated) == 10
    assert not near.any()
    for p, mat in zip(momenta, stack):
        assert np.max(np.abs(mat - path_sum_oracle(g, locs, idx, p + 0.0j, tol=1e-12))) < 1e-9


def test_conditioning_and_matrix_are_those_of_the_resolvent():
    # the engines solve D(p) - E(0) s22, the rows of E(p) - s22 in
    # partner order: same singular values, same S_tot, at real and
    # complex p, with loops and momentum-dependent vertex data
    rng = np.random.default_rng(507)
    checked = 0
    while checked < 40:
        g = random_graph(rng, max_vertices=5)
        if not any(e.is_loop for e in g.internal_edges):
            continue
        idx = mode_index(g)
        locs = random_locals(rng, g, idx, unitary=checked % 2 == 0)
        v = int(rng.integers(0, g.vertex_count))
        locs[v] = _dressed(v, locs[v], rng.uniform(0.0, 0.3, size=idx.vertex_slot_count(v)))
        for p in (rng.uniform(0.1, 6.0), complex(rng.uniform(-4.0, 4.0), rng.uniform(-0.4, 0.4))):
            blocks = assemble_blocks(g, locs, idx, p)
            m = assemble_propagation(g, idx, p).matrix - blocks.int_int
            sigma = np.linalg.svd(m, compute_uv=False)
            if sigma[-1] < 1e-6 * sigma[0]:
                continue
            want = blocks.ext_ext + blocks.ext_int @ np.linalg.solve(m, blocks.int_ext)
            got = total_scattering(g, locs, idx, p)
            assert abs(got.sigma_min - sigma[-1]) <= 1e-12 * sigma[-1], (p, got, sigma)
            assert abs(got.sigma_max - sigma[0]) <= 1e-12 * sigma[0], (p, got, sigma)
            assert np.max(np.abs(got.matrix - want)) <= 1e-12 * np.max(np.abs(want)), p
            checked += 1


def test_scattering_grid_exactly_singular_point_mid_chunk(monkeypatch):
    # edge 0-1 is decoupled (Dirichlet at both ends), so E(0) - s22 is
    # exactly singular; edge 0-2 carries the leads with full transmission
    d = 1.7
    g = build_graph(GraphSpec(3, ((0, 1, 1.0), (0, 2, d)), (0, 2)))
    idx = mode_index(g)
    locs = [
        constant_local(0, [[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
        constant_local(1, [[-1]]),
        constant_local(2, [[0, 1], [1, 0]]),
    ]
    monkeypatch.setattr(solve, "_CHUNK_ELEMENTS", 3 * idx.n_internal_slots ** 2)
    # -pi is mirrored from pi, the real data's partner point
    momenta = [0.4, 0.0, 1.1, 2.5, np.pi, 3.3, 4.0, 5.2, -np.pi]
    stack, near = scattering_grid(g, locs, idx, momenta)
    assert near.tolist() == [False, True, False, False, True, False, False, False, True]
    assert np.isnan(stack[near]).all()
    for p, flagged, mat in zip(momenta, near, stack):
        if not flagged:
            want = np.exp(1j * p * d) * np.array([[0.0, 1.0], [1.0, 0.0]])
            assert np.max(np.abs(mat - want)) < 1e-12
            assert np.array_equal(mat, total_scattering(g, locs, idx, p).matrix)
    with pytest.raises(NearPole):
        total_scattering(g, locs, idx, 0.0)


def _factored(calls):
    """Matrices factored over the recorded calls of solve._solve."""
    return sum(len(m) for m, _ in calls)


@pytest.mark.parametrize("order", ["C", "F"])
def test_scattering_grid_mirrors_negative_momenta_of_real_data(order, monkeypatch):
    # constant real vertex data, in either memory layout: M(-p) = conj
    # M(p), so a -p whose p is in the grid is the conjugate of p's row and
    # is not factored; 0.0 and the unpaired p3 are
    g, locs, idx = lead_ring(20, 3)
    locs = [constant_local(loc.vertex, np.asarray(loc.constant, order=order)) for loc in locs]
    calls = count_calls(monkeypatch, solve, "_solve")
    p1, p2, p3 = 0.7, 2.3, 4.1
    momenta = [p1, p2, -p1, -p2, p3, 0.0]
    stack, near = scattering_grid(g, locs, idx, momenta)
    assert _factored(calls) == 4
    for minus, plus in ((2, 0), (3, 1)):
        assert np.array_equal(stack[minus], stack[plus].conj())
        assert near[minus] == near[plus]
        alone, alone_near = scattering_grid(g, locs, idx, [momenta[minus]])
        assert np.max(np.abs(stack[minus] - alone[0])) <= 1e-12 * np.max(np.abs(alone[0]))
        assert alone_near[0] == near[minus]


def test_scattering_grid_factors_every_point_of_complex_or_varying_data(monkeypatch):
    rng = np.random.default_rng(508)
    g, locs, idx = lead_ring(20, 3)
    v = g.external_edges[0].vertex
    dressed = list(locs)
    dressed[v] = _dressed(v, locs[v], rng.uniform(0.0, 0.3, size=idx.vertex_slot_count(v)))
    real_pm = [0.7, -0.7, 2.3, -2.3]
    calls = count_calls(monkeypatch, solve, "_solve")
    for data, momenta in ((random_locals(rng, g, idx, unitary=True), real_pm),
                          (dressed, real_pm),
                          (locs, [0.7 + 0.1j, -0.7 - 0.1j, 0.7, -0.7])):
        calls.clear()
        scattering_grid(g, data, idx, momenta)
        assert _factored(calls) == 4


def test_negative_zero_vertex_data_is_solved_at_every_point(monkeypatch):
    # a -0.0 in s11 can keep the sign of a zero of s12 core, and those
    # signs at p and -p need not mirror: with this data S_tot(-p) holds
    # -0.0 where S_tot(p) holds +0.0, so no row is mirrored
    g = build_graph(GraphSpec(2, ((0, 1, 2.0077306173564837),), (0, 1, 0)))
    idx = mode_index(g)
    z = complex(-0.0, 0.0)
    locs = [constant_local(0, [[1, z, 0], [z, 1, 0], [0, 0, 1]]),
            constant_local(1, [[-1, z], [z, -1]])]
    p = 2.173216975960084
    calls = count_calls(monkeypatch, solve, "_solve")
    stack, _ = scattering_grid(g, locs, idx, [p, -p])
    assert _factored(calls) == 2
    alone, _ = scattering_grid(g, locs, idx, [-p])
    assert stack[1].tobytes() == alone[0].tobytes()


def test_phase_overflow_names_the_first_momentum_of_the_grid():
    # refused on the whole grid, not on the points left after mirroring
    g = build_graph(GraphSpec(2, ((0, 1, 10.0),), (0,)))
    locs = [kirchhoff_local(0, 2), kirchhoff_local(1, 1)]
    with pytest.raises(ValidationError, match=r"^momentum p=-1e\+308 "):
        scattering_grid(g, locs, mode_index(g), [-1e308, 1e308])


def test_mirrored_zero_imaginary_parts_stay_positive():
    # solved at -p, S_tot = s11 + s12 core takes the +0.0 imaginary part
    # of the real s11, so its zeros print as 0.0; a conjugate alone would
    # give -0.0
    fix = canonical("line2")
    idx = mode_index(fix.graph)
    stack, near = scattering_grid(fix.graph, fix.locals, idx, [0.7, -0.7])
    alone, _ = scattering_grid(fix.graph, fix.locals, idx, [-0.7])
    zeros = stack[1].imag == 0.0
    assert not near.any() and zeros.any()
    assert np.array_equal(zeros, alone[0].imag == 0.0)
    assert not np.signbit(stack[1].imag[zeros]).any()
    assert np.max(np.abs(stack[1] - alone[0])) <= 1e-15


def _certificate(g, locs, idx, momenta):
    """(bound, near, kappa, exact) per momentum: the grid engine's
    conditioning bound and flags, and from a full SVD of each M the
    exact kappa_2 and near-pole rule."""
    bound, near, kappa, exact = [], [], [], []
    for _, _, m, _, b, flags, _ in solve._resolvent_chunks(g, locs, idx, momenta):
        sigma = np.linalg.svd(m, compute_uv=False)
        bound += b.tolist()
        near += flags.tolist()
        with np.errstate(divide="ignore"):
            kappa += (sigma[:, 0] / sigma[:, -1]).tolist()
        exact += (sigma[:, -1] <= solve.NEAR_POLE_RTOL * sigma[:, 0]).tolist()
    return np.array(bound), near, np.array(kappa), exact


def test_probe_certificate_bounds_kappa_and_keeps_exact_flags():
    rng = np.random.default_rng(506)
    systems = []
    while len(systems) < 12:
        g = random_graph(rng, max_vertices=5)
        if g.n_internal:
            idx = mode_index(g)
            systems.append((g, random_locals(rng, g, idx, unitary=len(systems) % 2 == 0), idx))
    # 60-vertex ring with 30 chords and 6 leads, unit lengths, Kirchhoff
    n = 60
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    edges += [(int(a), int(b), 1.0) for a, b in (rng.choice(n, 2, replace=False)
                                                 for _ in range(n // 2))]
    ring = build_graph(GraphSpec(n, tuple(edges), tuple(int(v) for v in
                                                         rng.choice(n, 6, replace=False))))
    systems.append((ring, [kirchhoff_local(v, ring.degree(v)) for v in range(n)],
                    mode_index(ring)))
    for g, locs, idx in systems:
        bound, near, kappa, exact = _certificate(g, locs, idx, rng.uniform(0.05, 6.3, 40))
        assert np.all(bound >= kappa)
        assert near == exact

    # lead decoupled from the edge, as in test_cli.test_stot_near_pole_flag:
    # a bound state at p = pi, approached from kappa_2 ~ 1e2 to ~ 1e15
    g = build_graph(GraphSpec(2, ((0, 1, 1.0),), (0,)))
    locs = [constant_local(0, [[1.0, 0.0], [0.0, -1.0]]), constant_local(1, [[-1.0]])]
    bound, near, kappa, exact = _certificate(g, locs, mode_index(g),
                                             np.pi + 10.0 ** -np.arange(2, 16))
    assert np.all(bound >= kappa)
    assert near == exact
    assert exact[0] is False and exact[-1] is True
    cleared = bound < 0.5 / solve.NEAR_POLE_RTOL
    # both branches: cleared by the probe, and left to the exact SVD
    assert cleared.any() and not cleared.all()
    assert not np.any(np.array(near)[cleared])


def test_exact_singular_values_only_where_read(monkeypatch):
    # internal_modes and the verify helpers read no singular values at a
    # point the probe clears; total_scattering reports them, and a point
    # near a pole raises with them
    fix = canonical("fabry_perot")
    g, locs, idx = fix.graph, list(fix.locals), mode_index(fix.graph)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    internal_modes(g, locs, idx, 0.9, np.ones(2))
    verify_involution(g, locs, idx, 0.9)
    verify_unitarity(g, locs, idx, 0.9)
    assert calls == []
    res = total_scattering(g, locs, idx, 0.9)
    assert len(calls) == 1 and 0 < res.sigma_min <= res.sigma_max

    # a bound state at p = pi on the lead-decoupled edge
    g = build_graph(GraphSpec(2, ((0, 1, 1.0),), (0,)))
    locs = [constant_local(0, [[1.0, 0.0], [0.0, -1.0]]), constant_local(1, [[-1.0]])]
    # one exact SVD per raise: the engine's, which NearPole reports
    for call in (lambda: internal_modes(g, locs, mode_index(g), np.pi, np.ones(1)),
                 lambda: total_scattering(g, locs, mode_index(g), np.pi)):
        calls.clear()
        with pytest.raises(NearPole) as err:
            call()
        assert len(calls) == 1
        assert 0 <= err.value.sigma_min <= solve.NEAR_POLE_RTOL * err.value.sigma_max
