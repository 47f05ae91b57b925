"""Fisher matrices: structure, inversion gates, model relations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcrb.fim import (
    COND_LIMIT,
    BoundSet,
    SingularInformation,
    crb_from_fim,
    gated_inverse,
    inverse,
    tdoa_gram,
    tdoa_rss_gram,
    timing_rows,
)
from satcrb.geometry import InvalidConfig, SystemParams, visible_chunks, visible_sky

SPLIT = SystemParams(eta=400.0)


def visible_sats(seed, n=20, params=SPLIT):
    """(u, d) of the visible satellites of the first draw of (seed, trial)
    with at least 5 of them, so the FIM is comfortably regular."""
    p = dataclasses.replace(params, n_sats=n)
    for trial in range(50):
        drawn = visible_sky(p, seed, trial)
        if len(drawn[1]) >= 5:
            return drawn
    raise AssertionError("no draw with enough visible satellites")


def sky(*sats):
    """(u, d): the (M, 4) timing rows and (M,) distances of satellites
    given as (phi_l, theta, d)."""
    a = np.array(sats, dtype=float).reshape(-1, 3)
    phi_l, theta, d = a[:, 0], a[:, 1], a[:, 2]
    sin_l = np.sin(phi_l)
    v = np.stack([sin_l * np.cos(theta), sin_l * np.sin(theta), np.cos(phi_l)], axis=-1)
    return timing_rows(v), d


def rotated(u, angle):
    """Timing rows u whose lines of sight are turned by angle about the
    zenith."""
    c, s = math.cos(angle), math.sin(angle)
    turn = np.eye(4)
    turn[:2, :2] = [[c, s], [-s, c]]
    return u @ turn


def test_boundset_sum_is_structural():
    b = BoundSet(xy=1.5, z=2.5)
    assert b.xyz == 4.0


def test_boundset_xyz_is_no_field():
    with pytest.raises(TypeError):
        BoundSet(1.0, 2.0, xyz=5.0)
    assert [f.name for f in dataclasses.fields(BoundSet)] == ["xy", "z"]


def test_zenith_satellite_structure():
    j = tdoa_rss_gram(*sky((0.0, 0.3, SPLIT.h)), SPLIT)
    k = 2.0 * SPLIT.rho / SPLIT.h**4 * (1.0 + SPLIT.eta * SPLIT.h**2)
    ell = 2.0 * SPLIT.eta_rho / SPLIT.h**2
    expect = np.zeros((4, 4))
    expect[2, 2] = k
    expect[2, 3] = expect[3, 2] = -ell
    expect[3, 3] = ell
    assert np.allclose(j, expect, rtol=1e-12, atol=1e-20)


def test_single_satellite_tdoa_rank_one():
    j = tdoa_gram(*sky((0.4, 1.0, 21000.0)), SPLIT)
    assert np.linalg.matrix_rank(j, tol=1e-6 * np.trace(j)) == 1


def test_fim_symmetric_psd():
    sats = visible_sats(seed=1)
    for j in (tdoa_gram(*sats, SPLIT), tdoa_rss_gram(*sats, SPLIT)):
        assert np.allclose(j, j.T, rtol=1e-12)
        w = np.linalg.eigvalsh(j)
        assert w.min() >= -1e-10 * np.trace(j)


def test_invisible_satellites_do_not_contribute():
    # the array form has no hidden satellites, only padding slots: v = 0 at
    # d = inf, as visible_chunks pads, or any other line of sight there
    u, d = sky((0.2, 0.0, 20500.0))
    for pad in (np.array([0.0, 0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0, -1.0])):
        padded = np.vstack([u, pad]), np.append(d, math.inf)
        for build in (tdoa_gram, tdoa_rss_gram):
            assert np.array_equal(build(u, d, SPLIT), build(*padded, SPLIT))


def test_empty_visible_set_gives_zero_matrix():
    assert np.array_equal(tdoa_gram(*sky(), SPLIT), np.zeros((4, 4)))
    with pytest.raises(SingularInformation):
        crb_from_fim(tdoa_gram(*sky(), SPLIT))


def test_rss_needs_split():
    sats = visible_sats(seed=2)
    with pytest.raises(InvalidConfig):
        tdoa_rss_gram(*sats, SystemParams())


def test_rss_reduces_to_tdoa_at_large_eta():
    # eta*D^2 >= eta*h^2 = 1e9 makes the amplitude channel negligible
    p = SystemParams(eta=1.0e9 / SystemParams().h ** 2)
    sats = visible_sats(seed=3, params=p)
    jt = tdoa_gram(*sats, p)
    jr = tdoa_rss_gram(*sats, p)
    scale = jt[3, 3]  # sum of L_i
    assert np.max(np.abs(jr - jt)) <= 1e-9 * scale
    diag = np.diag(jt)[:3]
    ratio = np.diag(jr)[:3][diag > 0] / diag[diag > 0]
    assert np.all(np.abs(ratio - 1.0) <= 1e-9)


def test_coplanar_constellation_has_no_cross_axis_information():
    bearings = [(0.3, 0.0), (0.5, math.pi), (0.8, 0.0), (1.0, math.pi)]
    j = tdoa_gram(*sky(*[(f, t, 22000.0) for f, t in bearings]), SPLIT)
    assert j[1, 1] == pytest.approx(0.0, abs=1e-12 * j[0, 0])
    with pytest.raises(SingularInformation):
        crb_from_fim(j)


def test_crb_diagonal_example():
    b = crb_from_fim(np.diag([2.0, 2.0, 5.0, 7.0]))
    assert b.xy == pytest.approx(1.0, rel=1e-14)
    assert b.z == pytest.approx(0.2, rel=1e-14)
    assert b.xyz == b.xy + b.z


def test_three_satellites_singular():
    u, d = visible_sats(seed=4)
    with pytest.raises(SingularInformation):
        crb_from_fim(tdoa_gram(u[:3], d[:3], SPLIT))


def test_crb_matches_linear_solve_oracle():
    j = tdoa_gram(*visible_sats(seed=5), SPLIT)
    b = crb_from_fim(j)
    # independent route: solve J x_k = e_k per column
    cols = [np.linalg.solve(j, np.eye(4)[:, k]) for k in range(4)]
    assert b.xy == pytest.approx(cols[0][0] + cols[1][1], rel=1e-10)
    assert b.z == pytest.approx(cols[2][2], rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_rotation_invariance(offset):
    u, d = visible_sats(seed=6)
    b0 = crb_from_fim(tdoa_gram(u, d, SPLIT))
    b1 = crb_from_fim(tdoa_gram(rotated(u, offset), d, SPLIT))
    assert b1.xy == pytest.approx(b0.xy, rel=1e-10)
    assert b1.z == pytest.approx(b0.z, rel=1e-10)
    assert b1.xyz == pytest.approx(b0.xyz, rel=1e-10)


def test_extra_satellite_never_hurts():
    u, d = visible_sats(seed=7)
    extra_u, extra_d = sky((0.7, 2.1, 21500.0))
    b0 = crb_from_fim(tdoa_gram(u, d, SPLIT))
    b1 = crb_from_fim(
        tdoa_gram(np.vstack([u, extra_u]), np.append(d, extra_d), SPLIT)
    )
    assert b1.xy <= b0.xy * (1.0 + 1e-12)
    assert b1.z <= b0.z * (1.0 + 1e-12)


def test_eta_rho_scaling():
    sats = visible_sats(seed=8)
    p2 = SystemParams(eta_rho=SPLIT.eta_rho * 4.0, eta=SPLIT.eta)
    b0 = crb_from_fim(tdoa_gram(*sats, SPLIT))
    b1 = crb_from_fim(tdoa_gram(*sats, p2))
    assert b1.xy == pytest.approx(b0.xy / 4.0, rel=1e-14)
    assert b1.z == pytest.approx(b0.z / 4.0, rel=1e-14)


def test_fisher_matrix_shape_gate():
    # identities of other shapes are invertible, and still give no bound:
    # np.eye(3) once gave xy = 2, z = 1
    for m in (np.eye(3), np.eye(5), np.ones(4), np.stack([np.eye(4)] * 2)):
        with pytest.raises(InvalidConfig, match="4x4"):
            crb_from_fim(m)


def test_invertibility_gate_covers_every_failure_mode():
    inverse(np.diag([1.0, 2.0, 3.0]))  # square size is free
    with pytest.raises(SingularInformation, match="non-finite"):
        inverse(np.diag([1.0, np.nan, 1.0]))
    with pytest.raises(SingularInformation, match="determinant"):
        inverse(np.diag([1.0, -1.0, 1.0]))
    # positive determinant, condition number 1e13: rejected by the cond gate
    with pytest.raises(SingularInformation, match="condition number"):
        inverse(np.diag([1.0, 1.0e-13, 1.0]))


def reference_gate(m):
    """The single-matrix gate written out on its own: finite, det > 0 and
    cond < COND_LIMIT, each through numpy.linalg on this matrix alone."""
    if not np.all(np.isfinite(m)):
        return False
    if not np.linalg.det(m) > 0.0:
        return False
    return bool(np.linalg.cond(m) < COND_LIMIT)


def mixed_stack():
    good = [tdoa_gram(*visible_sats(seed), SPLIT) for seed in (1, 2, 3)]
    nan = good[0].copy()
    nan[1, 2] = np.nan
    inf = good[1].copy()
    inf[3, 3] = np.inf
    negative = np.diag([1.0, -2.0, 3.0, 4.0])  # det < 0
    rank_deficient = np.diag([1.0, 2.0, 3.0, 0.0])  # det == 0
    ill = np.diag([1.0, 1.0, 1.0, 1.0e-13])  # det > 0, cond 1e13
    edge = np.diag([1.0, 1.0, 1.0, 1.0 / COND_LIMIT])  # cond == COND_LIMIT
    return np.stack([good[0], nan, negative, good[1], ill, inf, rank_deficient, edge, good[2]])


def test_gated_inverse_mixed_stack_matches_single_matrix_path():
    stack = mixed_stack()
    inv, ok = gated_inverse(stack)
    assert ok.dtype == bool and ok.shape == (len(stack),)
    assert ok.tolist() == [True, False, False, True, False, False, False, False, True]
    for m, passed, got in zip(stack, ok, inv):
        assert passed == reference_gate(m)
        if passed:
            inverse(m)
            assert np.array_equal(got, np.linalg.solve(m, np.eye(4)))
        else:
            with pytest.raises(SingularInformation):
                inverse(m)
            assert np.isnan(got).all()


def test_gated_inverse_keeps_the_stack_unchanged_and_handles_empty():
    stack = mixed_stack()
    before = stack.copy()
    gated_inverse(stack)
    assert np.array_equal(stack, before, equal_nan=True)
    inv, ok = gated_inverse(np.zeros((0, 4, 4)))
    assert inv.shape == (0, 4, 4) and ok.shape == (0,)
    inv, ok = gated_inverse(np.full((3, 4, 4), np.nan))
    assert not ok.any() and np.isnan(inv).all()


def test_single_matrix_callers_agree_with_the_stack():
    stack = mixed_stack()
    inv, ok = gated_inverse(stack)
    for m, passed, got in zip(stack, ok, inv):
        if passed:
            assert np.array_equal(inverse(m), got)
            b = crb_from_fim(m)
            assert b.xy == float(got[0, 0] + got[1, 1]) and b.z == float(got[2, 2])
        else:
            with pytest.raises(SingularInformation):
                crb_from_fim(m)
    # a 3x3 block goes through the same gate
    block = stack[0][np.ix_([0, 1, 3], [0, 1, 3])]
    assert np.array_equal(inverse(block), np.linalg.solve(block, np.eye(3)))


def indefinite_with_positive_determinant():
    """Symmetric 4x4 matrices with two negative eigenvalues, so det > 0."""
    q, _ = np.linalg.qr(np.random.default_rng(20261019).standard_normal((4, 4)))
    turned = q @ np.diag([-2.0, -1.0, 1.0, 3.0]) @ q.T
    return np.stack([np.diag([-1.0, -1.0, 1.0, 1.0]), turned])


def test_indefinite_matrices_with_positive_determinant_are_rejected():
    stack = indefinite_with_positive_determinant()
    assert (np.linalg.det(stack) > 0.0).all()
    inv, ok = gated_inverse(stack)
    assert not ok.any() and np.isnan(inv).all()
    for m in stack:
        with pytest.raises(SingularInformation, match="determinant"):
            inverse(m)
        with pytest.raises(SingularInformation):
            crb_from_fim(m)
    with pytest.raises(SingularInformation, match="determinant"):
        inverse(np.diag([-1.0, -1.0, 1.0]))


@pytest.mark.parametrize(
    "h, phi_deg, n_sats",
    [(500.0, 60.0, 2000), (2000.0, 90.0, 50), (20000.0, 60.0, 20), (40000.0, 10.0, 2000)],
)
def test_gate_matches_the_reference_gate_on_drawn_stacks(h, phi_deg, n_sats):
    p = SystemParams(n_sats=n_sats, h=h, phi_l_max=math.radians(phi_deg), eta=400.0)
    for build in (tdoa_gram, tdoa_rss_gram):
        stack = []
        for _, counts, u, d in visible_chunks(p, 11, range(300)):
            stack.extend(build(u, d, p)[counts >= 4])
        stack = np.array(stack)
        assert len(stack) >= 100
        _, ok = gated_inverse(stack)
        assert ok.tolist() == [reference_gate(m) for m in stack]
