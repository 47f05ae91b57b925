"""Planar TDOA oracle tests: closed form vs 3x3 FIM inversion."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from satcrb.fim import SingularInformation
from satcrb.geometry import InvalidConfig
from satcrb.planar import (
    CollinearSensors,
    PlanarSensors,
    _exact_xy_trace,
    planar_crb_closed,
    planar_crb_fim,
)


def make(angles, distances, gamma=2.0, w_e=1.0e6, rho=100.0, c=299792.458):
    return PlanarSensors(
        angles=tuple(angles), distances=tuple(distances),
        gamma=gamma, w_e=w_e, rho=rho, c=c,
    )


def test_symmetric_three_sensor_value():
    d = 40.0
    s = make([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0], [d, d, d], gamma=2.0)
    want = s.c**2 * d**s.gamma / (3.0 * s.w_e * s.rho)
    assert planar_crb_closed(s) == pytest.approx(want, rel=1e-10)
    assert planar_crb_fim(s) == pytest.approx(want, rel=1e-10)


def test_symmetric_value_other_gamma():
    d = 7.5
    s = make([0.1, 0.1 + 2.0 * math.pi / 3.0, 0.1 + 4.0 * math.pi / 3.0],
             [d, d, d], gamma=3.0)
    want = s.c**2 * d**3.0 / (3.0 * s.w_e * s.rho)
    assert planar_crb_closed(s) == pytest.approx(want, rel=1e-10)


def test_two_sensors_collinear_error():
    s = make([0.0, 1.0], [10.0, 20.0])
    with pytest.raises(CollinearSensors):
        planar_crb_closed(s)
    with pytest.raises(CollinearSensors):
        planar_crb_fim(s)


def test_collinear_sensors_raise():
    s = make([0.3, 0.3 + math.pi, 0.3], [10.0, 14.0, 25.0])
    with pytest.raises(CollinearSensors):
        planar_crb_closed(s)
    with pytest.raises(SingularInformation):
        planar_crb_fim(s)


def test_routes_agree_on_100_random_configs():
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        m = int(rng.integers(3, 9))
        angles = rng.uniform(0.0, 2.0 * math.pi, m)
        distances = rng.uniform(1.0, 100.0, m)
        gamma = float(rng.uniform(1.0, 3.0))
        s = make(angles, distances, gamma=gamma)
        closed = planar_crb_closed(s)
        fim = planar_crb_fim(s)
        assert closed == pytest.approx(fim, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_invariance(shift):
    base = [0.2, 1.7, 3.9, 5.1]
    dist = [12.0, 30.0, 8.0, 55.0]
    s0 = make(base, dist)
    s1 = make([a + shift for a in base], dist)
    assert planar_crb_fim(s1) == pytest.approx(planar_crb_fim(s0), rel=1e-10)
    assert planar_crb_closed(s1) == pytest.approx(planar_crb_closed(s0), rel=1e-9)


def test_rho_scaling_exact():
    s1 = make([0.2, 1.7, 3.9], [12.0, 30.0, 8.0], rho=50.0)
    s2 = make([0.2, 1.7, 3.9], [12.0, 30.0, 8.0], rho=200.0)
    assert planar_crb_closed(s1) / 4.0 == pytest.approx(
        planar_crb_closed(s2), rel=1e-14
    )


def test_uaa_tdoa_equals_toa():
    # evenly spread bearings, equal distances: the clock column decouples,
    # so the TDOA bound equals the 2x2 known-clock (TOA) bound
    m = 5
    angles = [2.0 * math.pi * k / m + 0.4 for k in range(m)]
    s = make(angles, [20.0] * m)
    w = s.eta_planar * s.weights
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    j_toa = (w[:, None] * u).T @ u
    inv = np.linalg.inv(j_toa)
    assert planar_crb_fim(s) == pytest.approx(float(inv[0, 0] + inv[1, 1]), rel=1e-10)


def test_validation_errors():
    with pytest.raises(InvalidConfig):
        make([0.0, 1.0], [10.0])
    with pytest.raises(InvalidConfig):
        make([0.0], [10.0])
    with pytest.raises(InvalidConfig):
        make([0.0, 1.0, 2.0], [10.0, -1.0, 5.0])
    with pytest.raises(InvalidConfig):
        PlanarSensors((0.0, 1.0, 2.0), (1.0, 2.0, 3.0), 2.0, -5.0, 1.0, 3.0e5)
    # non-finite values pass a sign test; each is a config error, not a
    # nan bound, a zero bound or collinear sensors
    angles, distances = [0.0, 2.0, 4.0], [10.0, 20.0, 30.0]
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            make([0.0, bad, 4.0], distances)
        with pytest.raises(InvalidConfig):
            make(angles, [10.0, bad, 30.0])
        with pytest.raises(InvalidConfig):
            make(angles, distances, gamma=bad)
        for name in ("w_e", "rho", "c"):
            with pytest.raises(InvalidConfig):
                make(angles, distances, **{name: bad})


def _verify_draws(seed, count=30):
    """The sensor sets `satcrb --seed SEED verify` draws for its planar check."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(3, 8))
        yield make(
            rng.uniform(0.0, 2.0 * math.pi, m),
            rng.uniform(1.0, 100.0, m),
            gamma=float(rng.uniform(1.0, 3.0)),
        )


def test_routes_agree_on_near_coincident_bearings():
    # seed 1842214965's 20th draw has two bearings 2.5e-4 rad apart, so its
    # information matrix has cond ~1.2e10: the float64 solve was off by
    # 9.6e-7 and the 1 - cos form of beta by 9.2e-10
    draws = list(_verify_draws(1842214965))
    hard = draws[19]
    phi = np.asarray(hard.angles)
    u = np.stack([np.cos(phi), np.sin(phi), -np.ones_like(phi)], axis=1)
    j = (hard.eta_planar * hard.weights[:, None] * u).T @ u
    assert 1.0e10 < np.linalg.cond(j) < 1.0e12
    for s in draws:
        closed, fim = planar_crb_closed(s), planar_crb_fim(s)
        assert abs(closed - fim) / fim < 1e-10


def test_fim_route_matches_high_precision_inverse():
    hard = list(_verify_draws(1842214965))[19]
    want = float(oracle.planar_xy_trace(hard.angles, hard.eta_planar * hard.weights))
    assert planar_crb_fim(hard) == pytest.approx(want, rel=1e-12)
    assert planar_crb_closed(hard) == pytest.approx(want, rel=1e-12)


def fraction_xy_trace(u, w):
    """(J^-1)_00 + (J^-1)_11 of J = sum_i w_i u_i u_i^T, summed and inverted
    in Fractions: the rational route that the integer one replaced, kept as
    its oracle."""
    uq = [[Fraction(float(x)) for x in row] for row in u]
    wq = [Fraction(float(x)) for x in w]
    a = [
        [sum(wi * ui[r] * ui[c] for wi, ui in zip(wq, uq)) for c in range(3)]
        for r in range(3)
    ]

    def minor(r0, r1, c0, c1):
        return a[r0][c0] * a[r1][c1] - a[r0][c1] * a[r1][c0]

    det = (
        a[0][0] * minor(1, 2, 1, 2)
        - a[0][1] * minor(1, 2, 0, 2)
        + a[0][2] * minor(1, 2, 0, 1)
    )
    return float((minor(1, 2, 1, 2) + minor(0, 2, 0, 2)) / det)


def test_exact_trace_is_the_rational_one_bit_for_bit():
    """On random bearings with weights from 1e-20 to 1e20, on bearings a
    hair apart, and on the verify draws, the integer route rounds the same
    exact quotient as the Fraction route."""
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(300):
        m = int(rng.integers(3, 9))
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        if rng.random() < 0.3:
            phi[1] = phi[0] + rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-9.0, -3.0)
        w = 10.0 ** rng.uniform(-20.0, 20.0, m)
        cases.append((phi, w))
    for s in _verify_draws(1842214965):
        cases.append((np.asarray(s.angles), s.eta_planar * s.weights))
    for phi, w in cases:
        u = np.stack([np.cos(phi), np.sin(phi), -np.ones_like(phi)], axis=1)
        assert _exact_xy_trace(u, w) == fraction_xy_trace(u, w)
