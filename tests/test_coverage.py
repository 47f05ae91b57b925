"""Visibility probability and constellation coverage tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from satcrb import coverage
from satcrb.coverage import (
    Unachievable,
    coverage_prob,
    coverage_prob_arrays,
    coverage_result,
    min_angle_for_coverage,
    min_height_for_coverage,
    visibility_prob,
    visibility_prob_dmax_form,
)
from satcrb.geometry import InvalidConfig, SystemParams, local_frame, sample_constellation

P_DEFAULT = 0.16493639025333170  # frozen: r=6371, h=20000, phi=60 deg


def test_visibility_prob_frozen_value():
    assert visibility_prob(SystemParams()) == pytest.approx(P_DEFAULT, rel=1e-13)


@pytest.mark.parametrize("h", [1.0, 500.0, 20000.0, 1e6])
@pytest.mark.parametrize("phi_deg", [5.0, 30.0, 60.0, 90.0])
def test_two_forms_agree(h, phi_deg):
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg))
    assert visibility_prob(p) == pytest.approx(
        visibility_prob_dmax_form(p), rel=1e-12
    )


def test_visibility_prob_horizon_limit():
    # with the cone opened to the horizon, p -> 1/2 as h -> infinity
    p = visibility_prob(SystemParams(h=1e12, phi_l_max=math.pi / 2.0))
    assert p == pytest.approx(0.5, abs=1e-6)


def test_visibility_prob_monotone():
    ps = [visibility_prob(SystemParams(h=h)) for h in (500.0, 2000.0, 20000.0, 50000.0)]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    ps = [
        visibility_prob(SystemParams(phi_l_max=math.radians(f)))
        for f in (10.0, 30.0, 60.0, 90.0)
    ]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_coverage_anchor_250_sats():
    p = SystemParams(n_sats=250, phi_l_max=math.radians(24.5))
    assert coverage_prob(p) == pytest.approx(0.90, abs=0.01)


def test_coverage_anchor_2000_sats():
    p = SystemParams(n_sats=2000, phi_l_max=math.radians(8.7))
    assert coverage_prob(p) == pytest.approx(0.90, abs=0.01)


def test_coverage_needs_four_visible():
    assert coverage_prob(SystemParams(n_sats=3)) == 0.0
    assert coverage_prob(SystemParams(n_sats=4)) == pytest.approx(
        visibility_prob(SystemParams()) ** 4, rel=1e-12
    )


def test_coverage_matches_scipy_tail():
    for n in (5, 50, 250, 2000):
        for phi_deg in (8.7, 24.5, 60.0):
            p = SystemParams(n_sats=n, phi_l_max=math.radians(phi_deg))
            want = float(stats.binom.sf(3, n, visibility_prob(p)))
            assert coverage_prob(p) == pytest.approx(want, abs=1e-12), (n, phi_deg)


def test_coverage_result_bundles_both():
    res = coverage_result(SystemParams())
    assert res.p == pytest.approx(visibility_prob(SystemParams()), rel=1e-15)
    assert res.p_cov == pytest.approx(coverage_prob(SystemParams()), rel=1e-15)


def test_min_angle_anchors():
    a250 = min_angle_for_coverage(SystemParams(n_sats=250), 0.9)
    a2000 = min_angle_for_coverage(SystemParams(n_sats=2000), 0.9)
    assert math.degrees(a250) == pytest.approx(24.5, abs=0.05)
    assert math.degrees(a2000) == pytest.approx(8.73, abs=0.05)
    for params, ang in ((SystemParams(n_sats=250), a250), (SystemParams(n_sats=2000), a2000)):
        import dataclasses

        ok = dataclasses.replace(params, phi_l_max=ang)
        assert coverage_prob(ok) >= 0.9


def test_min_height_anchors():
    h200 = min_height_for_coverage(SystemParams(n_sats=200), 0.9)
    h2000 = min_height_for_coverage(SystemParams(n_sats=2000), 0.9)
    assert h200 == pytest.approx(2400.0, rel=0.10)
    assert h2000 == pytest.approx(500.0, rel=0.10)
    assert h2000 < h200


def test_min_height_postcondition():
    import dataclasses

    base = SystemParams(n_sats=200, phi_l_max=math.radians(25.0))
    h = min_height_for_coverage(base, 0.9, tol=0.5)
    assert coverage_prob(dataclasses.replace(base, h=h)) >= 0.9
    assert coverage_prob(dataclasses.replace(base, h=h - 5.0)) < 0.9


def test_unachievable_targets_raise():
    with pytest.raises(Unachievable):
        min_angle_for_coverage(SystemParams(n_sats=4), 0.9)
    with pytest.raises(Unachievable):
        min_height_for_coverage(
            SystemParams(n_sats=4, phi_l_max=math.radians(25.0)), 0.9
        )


def test_coverage_monotone_in_n_and_angle():
    vals = [coverage_prob(SystemParams(n_sats=n, phi_l_max=math.radians(24.5)))
            for n in (50, 100, 250, 500)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [coverage_prob(SystemParams(n_sats=250, phi_l_max=math.radians(f)))
            for f in (10.0, 20.0, 30.0, 45.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_visible_fraction_matches_p_monte_carlo():
    params = SystemParams(n_sats=250)
    p = visibility_prob(params)
    trials = 100
    count = 0
    for t in range(trials):
        c = sample_constellation(params, seed=20260819, trial=t)
        _, cos_l, _ = local_frame(c.cos_phi_e, params)
        count += int(np.sum(cos_l >= params.zeta))
    n_total = trials * params.n_sats
    se = math.sqrt(p * (1.0 - p) / n_total)
    assert count / n_total == pytest.approx(p, abs=3.0 * se)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bisection_rejects_tol_that_cannot_stop(tol, monkeypatch):
    # a bisection that never narrows below tol would loop forever; the
    # counting stand-in fails the test after 200 evaluations instead
    calls = []

    def bounded(params):
        calls.append(params)
        assert len(calls) < 200, "bisection did not stop"
        return real(params)

    real = coverage.coverage_prob
    monkeypatch.setattr(coverage, "coverage_prob", bounded)
    with pytest.raises(InvalidConfig, match="tol must be finite and positive"):
        min_angle_for_coverage(SystemParams(), 0.9, tol=tol)
    with pytest.raises(InvalidConfig, match="tol must be finite and positive"):
        min_height_for_coverage(SystemParams(), 0.9, tol=tol)
    assert calls == []



def reference_coverage_prob(n: int, r: float, h: float, phi: float) -> float:
    """The per-point float formula the array kernel replaced, with `math`."""
    big_r, zeta, s = r + h, math.cos(phi), r * math.sin(phi)
    sq = math.sqrt((big_r - s) * (big_r + s))
    q = 0.5 * (h * h * (1.0 - zeta * zeta) / (h + r * zeta * zeta + zeta * sq)) / big_r
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0 if n >= 4 else 0.0
    log_p, log_1mp = math.log(q), math.log1p(-q)
    terms = [
        math.exp(math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
                 + m * log_p + (n - m) * log_1mp)
        for m in range(min(4, n + 1))
    ]
    return min(max(1.0 - math.fsum(terms), 0.0), 1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["h", "phi_l_max"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, 4, 40, 250, 2000, 100000]),
)
def test_coverage_prob_arrays_match_math_formula_bit_for_bit(axis, seed, n):
    # numpy's SIMD float64 log, log1p and exp differ from libm in the last
    # bit for 0.03-6% of inputs; 2048 spread-out points per example catch a swap
    base = SystemParams(n_sats=n)
    u = np.random.default_rng(seed).uniform(0.0, 1.0, 2048)
    if axis == "h":  # 0.01 to 1e5 km, log-uniform
        h, phi = 0.01 * 1.0e7**u, np.array([base.phi_l_max])
    else:  # 0.05 to 90 degrees
        h, phi = np.array([base.h]), np.radians(0.05 + 89.95 * u)
    got = coverage_prob_arrays(base, h, phi)
    hs, phis = np.broadcast_arrays(h, phi)
    want = np.array([reference_coverage_prob(n, base.r, a, b) for a, b in zip(hs.tolist(), phis.tolist())])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
