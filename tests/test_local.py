import numpy as np
import pytest

from graphscatter import (
    DegreeMismatch,
    NotInvolutive,
    SizeMismatch,
    constant_local,
    kirchhoff_local,
    momentum_local,
    tetra2_local,
)
from graphscatter.generators import platonic
from graphscatter.local import FAMILIES
from graphscatter.specfile import graph_to_spec, locals_from_spec, parse_spec, spec_to_dict
from _helpers import random_involutive


def test_constant_local_accepts_involution():
    loc = constant_local(0, [[0.0, 1.0], [1.0, 0.0]])
    assert loc.is_constant
    assert loc.size == 2
    assert loc.unitary
    assert np.array_equal(loc.matrix(0.3), loc.matrix(5.0))
    with pytest.raises(ValueError):
        loc.constant[0, 0] = 9.0  # frozen


def test_constant_local_rejects_non_involution():
    with pytest.raises(NotInvolutive):
        constant_local(0, [[1.0, 1.0], [0.0, 1.0]])


def test_constant_local_refuses_nan_entry():
    with pytest.raises(NotInvolutive):
        constant_local(0, [[np.nan, 0.0], [0.0, 1.0]])


def test_constant_local_rejects_non_square():
    with pytest.raises(SizeMismatch):
        constant_local(0, [[1.0, 0.0]])


def test_empty_vertex_matrices_refused():
    with pytest.raises(SizeMismatch):
        constant_local(0, np.zeros((0, 0)))
    with pytest.raises(SizeMismatch):
        momentum_local(0, 0, lambda p: np.zeros((0, 0)))


def test_non_unitary_involution_flagged():
    loc = constant_local(0, [[1.0, 1.0], [0.0, -1.0]])
    assert not loc.unitary


def test_kirchhoff_matrix():
    loc = kirchhoff_local(2, 4)
    want = np.full((4, 4), 0.5) - np.eye(4)
    assert np.max(np.abs(loc.constant - want)) == 0.0
    assert loc.unitary and loc.family == "kirchhoff"
    assert np.max(np.abs(loc.constant @ loc.constant - np.eye(4))) < 1e-15
    # degree 1 reflects, degree 2 transmits
    assert kirchhoff_local(0, 1).constant[0, 0] == 1.0
    swap = kirchhoff_local(0, 2).constant
    assert np.array_equal(swap.real, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SizeMismatch):
        kirchhoff_local(0, 0)
    for d in range(1, 7):
        mat = kirchhoff_local(3, d).constant
        assert np.array_equal(mat, np.full((d, d), 2.0 / d) - np.eye(d)), d
        assert not mat.flags.writeable


def test_tetra2_matrix():
    loc = tetra2_local(1)
    want = np.array(
        [[-3, 3, 3, 3], [3, 5, -1, -1], [3, -1, 5, -1], [3, -1, -1, 5]], dtype=float
    ) / 6.0
    assert np.max(np.abs(loc.constant - want)) < 1e-15
    assert loc.unitary and loc.family == "tetra2"
    with pytest.raises(DegreeMismatch):
        tetra2_local(0, 3)
    # bit-exact: the dodecahedron's removable zeta = +-1 depend on it.
    # numpy's complex division puts 5/6 one ulp below the float 5.0 / 6.0
    exact = want.astype(complex)
    exact[[1, 2, 3], [1, 2, 3]] = 0.8333333333333333
    assert np.array_equal(loc.constant, exact)
    assert not loc.constant.flags.writeable


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_round_trip_through_spec_files(family):
    g, _ = platonic("tetrahedron")  # every vertex has degree 4
    locs = [FAMILIES[family](v, 4) for v in range(g.vertex_count)]
    data = spec_to_dict(graph_to_spec(g, locs))
    assert {rec["family"] for rec in data["vertex_locals"]} == {family}
    for loc, back in zip(locs, locals_from_spec(parse_spec(data), g)):
        assert back.family == family and back.vertex == loc.vertex
        assert np.array_equal(back.constant, loc.constant)


def test_momentum_local_checks_involution_on_samples():
    good = momentum_local(0, 2, lambda p: np.diag([np.exp(1j * p), np.exp(-1j * p)]))
    assert not good.is_constant
    assert good.unitary
    mat = good.matrix(0.4)
    assert mat[0, 0] == pytest.approx(np.exp(0.4j))
    with pytest.raises(NotInvolutive):
        momentum_local(0, 2, lambda p: 2.0 * np.eye(2))
    with pytest.raises(SizeMismatch):
        momentum_local(0, 3, lambda p: np.eye(2))


def test_momentum_local_unitary_flag():
    # involutive but not unitary at real p
    loc = momentum_local(
        0, 2, lambda p: np.array([[1.0, -2.0 * p * p], [0.0, -1.0]], dtype=complex)
    )
    assert not loc.unitary


def test_momentum_local_refuses_nan_evaluator():
    with pytest.raises(NotInvolutive):
        momentum_local(0, 2, lambda p: np.full((2, 2), np.nan))


def test_evaluator_shape_checked_at_call():
    from graphscatter import LocalScattering

    loc = LocalScattering(
        vertex=0, size=3, constant=None, evaluator=lambda p: np.eye(2), unitary=False
    )
    with pytest.raises(SizeMismatch):
        loc.matrix(1.0)


def test_random_involutive_helper():
    rng = np.random.default_rng(42)
    for size in (1, 2, 5):
        loc = random_involutive(rng, 0, size)
        assert np.max(np.abs(loc.constant @ loc.constant - np.eye(size))) < 1e-10
        uloc = random_involutive(rng, 0, size, unitary=True)
        assert uloc.unitary


def test_rotation_invariance_families():
    # the 3-cycle of the internal slots 1 -> 2 -> 3 -> 1, slot 0 held fixed
    rot = np.zeros((4, 4))
    rot[[0, 2, 3, 1], range(4)] = 1.0
    for loc in (kirchhoff_local(0, 4), tetra2_local(0)):
        assert np.max(np.abs(rot @ loc.constant @ rot.T - loc.constant)) < 1e-12
