"""Fisher matrices: structure, inversion gates, model relations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcrb.fim import (
    COND_LIMIT,
    BoundSet,
    FisherMatrix,
    SingularInformation,
    check_invertible,
    crb_from_fim,
    fim_tdoa,
    fim_tdoa_arrays,
    fim_tdoa_rss,
    gated_inverse,
    inverse,
)
from satcrb.geometry import (
    InvalidConfig,
    SatelliteState,
    SystemParams,
    constellation_states,
    sample_constellation,
)

SPLIT = SystemParams(eta=400.0)


def visible_sats(seed, n=20, params=SPLIT):
    p = SystemParams(
        r=params.r, h=params.h, phi_l_max=params.phi_l_max,
        eta_rho=params.eta_rho, n_sats=n, c=params.c, eta=params.eta,
    )
    # resample until at least 5 visible so the FIM is comfortably regular
    for trial in range(50):
        sats = constellation_states(sample_constellation(p, seed, trial), p)
        if sum(s.visible for s in sats) >= 5:
            return sats
    raise AssertionError("no draw with enough visible satellites")


def test_boundset_sum_is_structural():
    b = BoundSet(xy=1.5, z=2.5)
    assert b.xyz == 4.0


def test_zenith_satellite_structure():
    s = SatelliteState(phi_l=0.0, theta=0.3, d=SPLIT.h, visible=True)
    j = fim_tdoa_rss([s], SPLIT).m
    k = 2.0 * SPLIT.rho / SPLIT.h**4 * (1.0 + SPLIT.eta * SPLIT.h**2)
    ell = 2.0 * SPLIT.eta_rho / SPLIT.h**2
    expect = np.zeros((4, 4))
    expect[2, 2] = k
    expect[2, 3] = expect[3, 2] = -ell
    expect[3, 3] = ell
    assert np.allclose(j, expect, rtol=1e-12, atol=1e-20)


def test_single_satellite_tdoa_rank_one():
    s = SatelliteState(phi_l=0.4, theta=1.0, d=21000.0, visible=True)
    j = fim_tdoa([s], SPLIT).m
    assert np.linalg.matrix_rank(j, tol=1e-6 * np.trace(j)) == 1


def test_fim_symmetric_psd():
    sats = visible_sats(seed=1)
    for j in (fim_tdoa(sats, SPLIT).m, fim_tdoa_rss(sats, SPLIT).m):
        assert np.allclose(j, j.T, rtol=1e-12)
        w = np.linalg.eigvalsh(j)
        assert w.min() >= -1e-10 * np.trace(j)


def test_invisible_satellites_do_not_contribute():
    vis = SatelliteState(phi_l=0.2, theta=0.0, d=20500.0, visible=True)
    hid = SatelliteState(phi_l=1.4, theta=1.0, d=30000.0, visible=False)
    a = fim_tdoa([vis], SPLIT).m
    b = fim_tdoa([vis, hid], SPLIT).m
    assert np.array_equal(a, b)


def test_empty_visible_set_gives_zero_matrix():
    hid = SatelliteState(phi_l=1.4, theta=1.0, d=30000.0, visible=False)
    assert np.array_equal(fim_tdoa([hid], SPLIT).m, np.zeros((4, 4)))
    with pytest.raises(SingularInformation):
        crb_from_fim(fim_tdoa([hid], SPLIT))


def test_rss_needs_split():
    sats = visible_sats(seed=2)
    with pytest.raises(InvalidConfig):
        fim_tdoa_rss(sats, SystemParams())


def test_rss_reduces_to_tdoa_at_large_eta():
    # eta*D^2 >= eta*h^2 = 1e9 makes the amplitude channel negligible
    p = SystemParams(eta=1.0e9 / SystemParams().h ** 2)
    sats = visible_sats(seed=3, params=p)
    jt = fim_tdoa(sats, p).m
    jr = fim_tdoa_rss(sats, p).m
    scale = jt[3, 3]  # sum of L_i
    assert np.max(np.abs(jr - jt)) <= 1e-9 * scale
    diag = np.diag(jt)[:3]
    ratio = np.diag(jr)[:3][diag > 0] / diag[diag > 0]
    assert np.all(np.abs(ratio - 1.0) <= 1e-9)


def test_coplanar_constellation_has_no_cross_axis_information():
    sats = [
        SatelliteState(phi_l=f, theta=t, d=22000.0, visible=True)
        for f, t in [(0.3, 0.0), (0.5, math.pi), (0.8, 0.0), (1.0, math.pi)]
    ]
    j = fim_tdoa(sats, SPLIT).m
    assert j[1, 1] == pytest.approx(0.0, abs=1e-12 * j[0, 0])
    with pytest.raises(SingularInformation):
        crb_from_fim(j)


def test_crb_diagonal_example():
    b = crb_from_fim(np.diag([2.0, 2.0, 5.0, 7.0]))
    assert b.xy == pytest.approx(1.0, rel=1e-14)
    assert b.z == pytest.approx(0.2, rel=1e-14)
    assert b.xyz == b.xy + b.z


def test_three_satellites_singular():
    sats = visible_sats(seed=4)[:3]
    sats = [
        SatelliteState(phi_l=s.phi_l, theta=s.theta, d=s.d, visible=True)
        for s in sats
    ]
    with pytest.raises(SingularInformation):
        crb_from_fim(fim_tdoa(sats, SPLIT))


def test_crb_matches_linear_solve_oracle():
    sats = visible_sats(seed=5)
    j = fim_tdoa(sats, SPLIT).m
    b = crb_from_fim(j)
    # independent route: solve J x_k = e_k per column
    cols = [np.linalg.solve(j, np.eye(4)[:, k]) for k in range(4)]
    assert b.xy == pytest.approx(cols[0][0] + cols[1][1], rel=1e-10)
    assert b.z == pytest.approx(cols[2][2], rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_rotation_invariance(offset):
    sats = visible_sats(seed=6)
    rot = [
        SatelliteState(
            phi_l=s.phi_l, theta=(s.theta + offset) % (2.0 * math.pi),
            d=s.d, visible=s.visible,
        )
        for s in sats
    ]
    b0 = crb_from_fim(fim_tdoa(sats, SPLIT))
    b1 = crb_from_fim(fim_tdoa(rot, SPLIT))
    assert b1.xy == pytest.approx(b0.xy, rel=1e-10)
    assert b1.z == pytest.approx(b0.z, rel=1e-10)
    assert b1.xyz == pytest.approx(b0.xyz, rel=1e-10)


def test_extra_satellite_never_hurts():
    sats = visible_sats(seed=7)
    extra = SatelliteState(phi_l=0.7, theta=2.1, d=21500.0, visible=True)
    b0 = crb_from_fim(fim_tdoa(sats, SPLIT))
    b1 = crb_from_fim(fim_tdoa(sats + [extra], SPLIT))
    assert b1.xy <= b0.xy * (1.0 + 1e-12)
    assert b1.z <= b0.z * (1.0 + 1e-12)


def test_eta_rho_scaling():
    sats = visible_sats(seed=8)
    p2 = SystemParams(eta_rho=SPLIT.eta_rho * 4.0, eta=SPLIT.eta)
    b0 = crb_from_fim(fim_tdoa(sats, SPLIT))
    b1 = crb_from_fim(fim_tdoa(sats, p2))
    assert b1.xy == pytest.approx(b0.xy / 4.0, rel=1e-14)
    assert b1.z == pytest.approx(b0.z / 4.0, rel=1e-14)


def test_fisher_matrix_shape_gate():
    with pytest.raises(InvalidConfig):
        FisherMatrix(np.zeros((3, 3)))


def test_array_kernel_matches_list_path():
    sats = visible_sats(seed=9)
    phi_l = np.array([s.phi_l for s in sats if s.visible])
    theta = np.array([s.theta for s in sats if s.visible])
    d = np.array([s.d for s in sats if s.visible])
    assert np.allclose(
        fim_tdoa_arrays(phi_l, theta, d, SPLIT), fim_tdoa(sats, SPLIT).m, rtol=1e-15
    )


def test_invertibility_gate_covers_every_failure_mode():
    check_invertible(np.diag([1.0, 2.0, 3.0]))  # square size is free
    with pytest.raises(SingularInformation, match="non-finite"):
        check_invertible(np.diag([1.0, np.nan, 1.0]))
    with pytest.raises(SingularInformation, match="determinant"):
        check_invertible(np.diag([1.0, -1.0, 1.0]))
    # positive determinant, condition number 1e13: rejected by the cond gate
    with pytest.raises(SingularInformation, match="condition number"):
        check_invertible(np.diag([1.0, 1.0e-13, 1.0]))


def reference_gate(m):
    """The single-matrix gate written out on its own: finite, det > 0 and
    cond < COND_LIMIT, each through numpy.linalg on this matrix alone."""
    if not np.all(np.isfinite(m)):
        return False
    if not np.linalg.det(m) > 0.0:
        return False
    return bool(np.linalg.cond(m) < COND_LIMIT)


def mixed_stack():
    good = [fim_tdoa(visible_sats(seed), SPLIT).m for seed in (1, 2, 3)]
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
            check_invertible(m)
            assert np.array_equal(got, np.linalg.solve(m, np.eye(4)))
        else:
            with pytest.raises(SingularInformation):
                check_invertible(m)
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
