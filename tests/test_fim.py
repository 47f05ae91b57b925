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
    fim_tdoa_arrays,
    fim_tdoa_rss_arrays,
    gated_inverse,
    inverse,
)
from satcrb.geometry import InvalidConfig, SystemParams, visible_sky

SPLIT = SystemParams(eta=400.0)


def visible_sats(seed, n=20, params=SPLIT):
    """(phi_l, theta, d) of the visible satellites of the first draw of
    (seed, trial) with at least 5 of them, so the FIM is comfortably regular."""
    p = dataclasses.replace(params, n_sats=n)
    for trial in range(50):
        drawn = visible_sky(p, seed, trial)
        if len(drawn[0]) >= 5:
            return drawn
    raise AssertionError("no draw with enough visible satellites")


def sky(*sats):
    """(phi_l, theta, d) arrays of satellites given as (phi_l, theta, d)."""
    a = np.array(sats, dtype=float).reshape(-1, 3)
    return a[:, 0], a[:, 1], a[:, 2]


def test_boundset_sum_is_structural():
    b = BoundSet(xy=1.5, z=2.5)
    assert b.xyz == 4.0


def test_zenith_satellite_structure():
    j = fim_tdoa_rss_arrays(*sky((0.0, 0.3, SPLIT.h)), SPLIT)
    k = 2.0 * SPLIT.rho / SPLIT.h**4 * (1.0 + SPLIT.eta * SPLIT.h**2)
    ell = 2.0 * SPLIT.eta_rho / SPLIT.h**2
    expect = np.zeros((4, 4))
    expect[2, 2] = k
    expect[2, 3] = expect[3, 2] = -ell
    expect[3, 3] = ell
    assert np.allclose(j, expect, rtol=1e-12, atol=1e-20)


def test_single_satellite_tdoa_rank_one():
    j = fim_tdoa_arrays(*sky((0.4, 1.0, 21000.0)), SPLIT)
    assert np.linalg.matrix_rank(j, tol=1e-6 * np.trace(j)) == 1


def test_fim_symmetric_psd():
    sats = visible_sats(seed=1)
    for j in (fim_tdoa_arrays(*sats, SPLIT), fim_tdoa_rss_arrays(*sats, SPLIT)):
        assert np.allclose(j, j.T, rtol=1e-12)
        w = np.linalg.eigvalsh(j)
        assert w.min() >= -1e-10 * np.trace(j)


def test_invisible_satellites_do_not_contribute():
    # the array form has no hidden satellites, only padding slots at d = inf
    vis = (0.2, 0.0, 20500.0)
    pad = (0.0, 0.0, math.inf)
    for build in (fim_tdoa_arrays, fim_tdoa_rss_arrays):
        assert np.array_equal(build(*sky(vis), SPLIT), build(*sky(vis, pad), SPLIT))


def test_empty_visible_set_gives_zero_matrix():
    assert np.array_equal(fim_tdoa_arrays(*sky(), SPLIT), np.zeros((4, 4)))
    with pytest.raises(SingularInformation):
        crb_from_fim(fim_tdoa_arrays(*sky(), SPLIT))


def test_rss_needs_split():
    sats = visible_sats(seed=2)
    with pytest.raises(InvalidConfig):
        fim_tdoa_rss_arrays(*sats, SystemParams())


def test_rss_reduces_to_tdoa_at_large_eta():
    # eta*D^2 >= eta*h^2 = 1e9 makes the amplitude channel negligible
    p = SystemParams(eta=1.0e9 / SystemParams().h ** 2)
    sats = visible_sats(seed=3, params=p)
    jt = fim_tdoa_arrays(*sats, p)
    jr = fim_tdoa_rss_arrays(*sats, p)
    scale = jt[3, 3]  # sum of L_i
    assert np.max(np.abs(jr - jt)) <= 1e-9 * scale
    diag = np.diag(jt)[:3]
    ratio = np.diag(jr)[:3][diag > 0] / diag[diag > 0]
    assert np.all(np.abs(ratio - 1.0) <= 1e-9)


def test_coplanar_constellation_has_no_cross_axis_information():
    bearings = [(0.3, 0.0), (0.5, math.pi), (0.8, 0.0), (1.0, math.pi)]
    j = fim_tdoa_arrays(*sky(*[(f, t, 22000.0) for f, t in bearings]), SPLIT)
    assert j[1, 1] == pytest.approx(0.0, abs=1e-12 * j[0, 0])
    with pytest.raises(SingularInformation):
        crb_from_fim(j)


def test_crb_diagonal_example():
    b = crb_from_fim(np.diag([2.0, 2.0, 5.0, 7.0]))
    assert b.xy == pytest.approx(1.0, rel=1e-14)
    assert b.z == pytest.approx(0.2, rel=1e-14)
    assert b.xyz == b.xy + b.z


def test_three_satellites_singular():
    phi_l, theta, d = visible_sats(seed=4)
    with pytest.raises(SingularInformation):
        crb_from_fim(fim_tdoa_arrays(phi_l[:3], theta[:3], d[:3], SPLIT))


def test_crb_matches_linear_solve_oracle():
    j = fim_tdoa_arrays(*visible_sats(seed=5), SPLIT)
    b = crb_from_fim(j)
    # independent route: solve J x_k = e_k per column
    cols = [np.linalg.solve(j, np.eye(4)[:, k]) for k in range(4)]
    assert b.xy == pytest.approx(cols[0][0] + cols[1][1], rel=1e-10)
    assert b.z == pytest.approx(cols[2][2], rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_rotation_invariance(offset):
    phi_l, theta, d = visible_sats(seed=6)
    b0 = crb_from_fim(fim_tdoa_arrays(phi_l, theta, d, SPLIT))
    b1 = crb_from_fim(
        fim_tdoa_arrays(phi_l, (theta + offset) % (2.0 * math.pi), d, SPLIT)
    )
    assert b1.xy == pytest.approx(b0.xy, rel=1e-10)
    assert b1.z == pytest.approx(b0.z, rel=1e-10)
    assert b1.xyz == pytest.approx(b0.xyz, rel=1e-10)


def test_extra_satellite_never_hurts():
    sats = visible_sats(seed=7)
    extra = (0.7, 2.1, 21500.0)
    b0 = crb_from_fim(fim_tdoa_arrays(*sats, SPLIT))
    b1 = crb_from_fim(
        fim_tdoa_arrays(*(np.append(a, x) for a, x in zip(sats, extra)), SPLIT)
    )
    assert b1.xy <= b0.xy * (1.0 + 1e-12)
    assert b1.z <= b0.z * (1.0 + 1e-12)


def test_eta_rho_scaling():
    sats = visible_sats(seed=8)
    p2 = SystemParams(eta_rho=SPLIT.eta_rho * 4.0, eta=SPLIT.eta)
    b0 = crb_from_fim(fim_tdoa_arrays(*sats, SPLIT))
    b1 = crb_from_fim(fim_tdoa_arrays(*sats, p2))
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
    good = [fim_tdoa_arrays(*visible_sats(seed), SPLIT) for seed in (1, 2, 3)]
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
