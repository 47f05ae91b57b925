"""Closed-form bounds vs quadrature oracle, route agreement, limits."""

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracle
from satcrb.cli import main
from satcrb.closed_form import (
    DegenerateGeometry,
    _lcrb_tdoa_rss_arrays,
    aacrb,
    acrb,
    cup_expectation,
    lcrb_tdoa,
    lcrb_tdoa_arrays,
    lcrb_tdoa_from_moments,
    lcrb_tdoa_rss,
    lcrb_tdoa_rss_from_moments,
    limit_coefficients,
    limit_coefficients_arrays,
    moment_integrals,
    quadrature_moments,
    two_term,
)
from satcrb.coverage import coverage_prob, coverage_prob_arrays, visibility_prob
from satcrb.geometry import InvalidConfig, SystemParams, cup_edges

# r=6371, h=20000, phi=math.radians(60), eta_rho=6.4e13, eta=400 (rho =
# eta_rho/eta): the point of the value tests
SPLIT = SystemParams(eta=400.0)


def test_moments_match_oracle_at_default_point():
    m, want = moment_integrals(SPLIT), oracle.moments(SPLIT)
    for key in ("m_l", "m_l_cos", "m_l_sin2", "m_k_sin2", "m_k_cos2"):
        assert getattr(m, key) == pytest.approx(float(want[key]), rel=1e-12), key


def test_lcrb_match_oracle_at_default_point():
    t, want_t = lcrb_tdoa(SPLIT), oracle.lcrb_tdoa(SPLIT)
    r, want_r = lcrb_tdoa_rss(SPLIT), oracle.lcrb_tdoa_rss(SPLIT)
    assert t.xy == pytest.approx(float(want_t[0]), rel=1e-12)
    assert t.z == pytest.approx(float(want_t[1]), rel=1e-11)
    assert r.xy == pytest.approx(float(want_r[0]), rel=1e-12)
    assert r.z == pytest.approx(float(want_r[1]), rel=1e-11)


def test_cup_expectation_normalization():
    for phi_deg in (10.0, 45.0, 60.0, 90.0):
        p = SystemParams(phi_l_max=math.radians(phi_deg))
        e1 = cup_expectation(p, lambda chi: np.ones_like(chi))
        assert e1 == pytest.approx(visibility_prob(p), rel=1e-13)


def test_cup_expectation_rejects_few_nodes():
    with pytest.raises(InvalidConfig):
        cup_expectation(SPLIT, lambda chi: chi, n_points=4)


def test_quadrature_self_convergence():
    m64 = quadrature_moments(SPLIT, n_points=64)
    m128 = quadrature_moments(SPLIT, n_points=128)
    for key in ("m_l", "m_l_cos", "m_l_sin2", "m_k_sin2", "m_k_cos2"):
        assert getattr(m64, key) == pytest.approx(getattr(m128, key), rel=1e-10)


@pytest.mark.parametrize("h", [500.0, 2000.0, 20000.0, 40000.0])
@pytest.mark.parametrize("phi_deg", [10.0, 35.0, 60.0, 90.0])
def test_closed_moments_match_quadrature(h, phi_deg):
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg), eta=400.0)
    mi = moment_integrals(p)
    qm = quadrature_moments(p, n_points=128)
    for key in ("m_l", "m_l_cos", "m_l_sin2", "m_k_sin2", "m_k_cos2"):
        assert getattr(mi, key) == pytest.approx(
            getattr(qm, key), rel=1e-8
        ), (key, h, phi_deg)


def test_moment_orderings():
    m = moment_integrals(SPLIT)
    assert 0.0 <= m.m_l_sin2 <= m.m_l
    assert 0.0 <= m.m_l_cos <= m.m_l
    assert m.m_l_cos2 == pytest.approx(m.m_l - m.m_l_sin2)


def test_moments_without_split_have_no_k_entries():
    m = moment_integrals(SystemParams())
    assert m.m_k_sin2 is None and m.m_k_cos2 is None
    with pytest.raises(InvalidConfig):
        lcrb_tdoa_rss_from_moments(m)


def test_m_l_horizon_value():
    p = SystemParams(phi_l_max=math.pi / 2.0)
    want = p.eta_rho / (p.r * p.big_r) * math.log(
        math.sqrt(p.big_r**2 - p.r**2) / p.h
    )
    assert moment_integrals(p).m_l == pytest.approx(want, rel=1e-12)


def test_vanishing_cone_moments_tend_to_zero():
    m = moment_integrals(SystemParams(phi_l_max=1e-4))
    assert m.m_l < 1e-2 * moment_integrals(SystemParams()).m_l


@pytest.mark.parametrize("h", np.geomspace(500.0, 40000.0, 10).tolist())
@pytest.mark.parametrize("phi_deg", np.linspace(5.0, 90.0, 10).tolist())
def test_route_agreement_grid(h, phi_deg):
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg), eta=400.0)
    m = moment_integrals(p)
    lit_t, asm_t = lcrb_tdoa(p), lcrb_tdoa_from_moments(m)
    lit_r, asm_r = lcrb_tdoa_rss(p), lcrb_tdoa_rss_from_moments(m)
    assert lit_t.xy == pytest.approx(asm_t.xy, rel=1e-9)
    assert lit_t.z == pytest.approx(asm_t.z, rel=1e-9)
    assert lit_r.xy == pytest.approx(asm_r.xy, rel=1e-9)
    assert lit_r.z == pytest.approx(asm_r.z, rel=1e-9)


def test_rss_never_worse_and_gap_bounds():
    """TDOA+RSS is never worse; the gap obeys the exact moment identities.

    With delta_max = 1/(eta h^2): the xy gap is at most delta_max because the
    K moments inflate the L moments by at most that factor pointwise, while
    the z gap picks up an extra amplification m_l*m_l_cos2/(m_l*m_l_cos2 -
    m_l_cos^2) from the near-collinearity of the z and clock directions.
    """
    for eta in (4.0, 400.0, 4e4):
        p = SystemParams(eta=eta)
        t = lcrb_tdoa(p)
        r = lcrb_tdoa_rss(p)
        assert r.xy <= t.xy and r.z <= t.z and r.xyz <= t.xyz
        delta_max = 1.0 / (eta * p.h**2)
        m = moment_integrals(p)
        assert (t.xy - r.xy) / t.xy <= delta_max
        # exact identity for the z gap, then the rigorous amplified bound
        delta_z = m.m_l * m.m_k_cos2 - m.m_l_cos**2
        want = m.m_l * (m.m_k_cos2 - m.m_l_cos2) / delta_z
        # m_k_cos2 - m_l_cos2 loses digits in float64 as eta grows; 2% covers it
        assert (t.z - r.z) / t.z == pytest.approx(want, rel=0.02)
        amp = m.m_l * m.m_l_cos2 / (m.m_l * m.m_l_cos2 - m.m_l_cos**2)
        assert (t.z - r.z) / t.z <= delta_max * amp * (1.0 + 1e-12)


def test_lcrb_scaling_in_eta_rho():
    b0 = lcrb_tdoa(SystemParams())
    b1 = lcrb_tdoa(SystemParams(eta_rho=2.0 * 6.4e13))
    assert b1.xy == pytest.approx(b0.xy / 2.0, rel=1e-14)
    assert b1.z == pytest.approx(b0.z / 2.0, rel=1e-14)


def test_lcrb_positive_and_monotone_in_angle():
    phis = np.linspace(math.radians(5.0), math.radians(90.0), 20)
    prev = None
    for f in phis:
        b = lcrb_tdoa(SystemParams(phi_l_max=float(f)))
        assert b.xy > 0.0 and b.z > 0.0
        if prev is not None:
            # narrower cones know less: bounds grow as the angle shrinks
            assert prev.xy > b.xy and prev.z > b.z
        prev = b


def test_acrb_is_lcrb_over_n():
    p1 = SystemParams(n_sats=1)
    assert acrb(p1).xy == lcrb_tdoa(p1).xy
    p250 = SystemParams(n_sats=250)
    p2000 = SystemParams(n_sats=2000)
    assert acrb(p250).xy / acrb(p2000).xy == pytest.approx(8.0, rel=1e-12)
    ar = lcrb_tdoa_rss(SystemParams(n_sats=250, eta=400.0)).scaled(1.0 / 250)
    assert ar.xy == pytest.approx(float(oracle.lcrb_tdoa_rss(SPLIT)[0]) / 250.0, rel=1e-12)


def test_acrb_monotone_increasing_in_h_over_reported_range():
    hs = np.linspace(2400.0, 35000.0, 40)
    vals = [acrb(SystemParams(h=float(h))).xyz for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_limit_coefficients_frozen_values():
    co = limit_coefficients(SystemParams(n_sats=250))
    # beta forms reduce to clean rationals at zeta = 1/2
    assert co.beta_xy == pytest.approx(12.0 / (6.4e13 * 250 * 2.5 * 0.25), rel=1e-12)
    assert co.beta_z == pytest.approx(12.0 / (6.4e13 * 250 * 0.125), rel=1e-12)
    assert co.alpha_xy == pytest.approx(3.18953329466581e-08, rel=1e-12)
    assert co.alpha_z == pytest.approx(1.7707734910582468e-07, rel=1e-12)


def test_small_h_limit_hits_alpha():
    p = SystemParams(h=0.01, n_sats=250)
    co = limit_coefficients(p)
    a = acrb(p)
    assert abs(a.xy / co.alpha_xy - 1.0) < 1e-3
    assert abs(a.z / co.alpha_z - 1.0) < 1e-3


def test_large_h_limit_hits_beta_h2():
    h = 1.0e8
    p = SystemParams(h=h, n_sats=250)
    co = limit_coefficients(p)
    a = acrb(p)
    assert abs(a.xy / (co.beta_xy * h * h) - 1.0) < 1e-3
    assert abs(a.z / (co.beta_z * h * h) - 1.0) < 1e-3


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=math.radians(1.0), max_value=math.radians(89.0)))
def test_coefficients_positive_and_beta_ordering(phi):
    co = limit_coefficients(SystemParams(phi_l_max=phi))
    assert co.alpha_xy > 0.0 and co.alpha_z > 0.0
    assert co.beta_xy > 0.0 and co.beta_z >= co.beta_xy


def test_small_angle_slopes():
    phis = np.radians(np.linspace(2.0, 10.0, 9))
    axy = [limit_coefficients(SystemParams(phi_l_max=float(f))).alpha_xy for f in phis]
    az = [limit_coefficients(SystemParams(phi_l_max=float(f))).alpha_z for f in phis]
    sxy = np.polyfit(np.log(phis), np.log(axy), 1)[0]
    sz = np.polyfit(np.log(phis), np.log(az), 1)[0]
    assert sxy == pytest.approx(-4.0, abs=0.1)
    assert sz == pytest.approx(-6.0, abs=0.1)


def test_aacrb_deviation_envelope():
    """AACRB undershoots the exact curve on [500, 40000] km by at most 2.29x.

    The worst point sits near h ~ 5000 km where neither the h->0 intercept nor
    the h^2 tail dominates; the measured maxima are 2.286 (xy) and 2.215 (z).
    """
    worst = 0.0
    for h in np.geomspace(500.0, 40000.0, 400):
        p = SystemParams(h=float(h))
        a = acrb(p)
        aa = aacrb(p)
        for exact, approx in ((a.xy, aa.xy), (a.z, aa.z)):
            assert approx <= exact * (1.0 + 1e-12), (h, approx / exact)
            worst = max(worst, exact / approx)
    assert worst <= 2.29
    assert worst >= 2.27  # pins the known shape; drift means a formula change


def test_aacrb_tends_to_alpha_at_small_h():
    p = SystemParams(h=1e-3)
    co = limit_coefficients(p)
    aa = aacrb(p)
    assert aa.xy == pytest.approx(co.alpha_xy, rel=1e-6)
    assert aa.z == pytest.approx(co.alpha_z, rel=1e-6)


def test_degenerate_cone_raises():
    with pytest.raises((DegenerateGeometry, InvalidConfig)):
        lcrb_tdoa(SystemParams(phi_l_max=1e-13))


def test_rss_requires_split():
    with pytest.raises(InvalidConfig):
        lcrb_tdoa_rss(SystemParams())


# the (h km, phi_l_max deg) grid of verify's checks 1 and 2
VERIFY_GRID = [
    (h, phi) for h in (500.0, 2000.0, 20000.0, 40000.0) for phi in (10.0, 35.0, 60.0, 90.0)
]


@pytest.mark.parametrize("h,phi_deg", VERIFY_GRID)
def test_rss_limit_matches_quadrature(h, phi_deg):
    """The literal TDOA+RSS limit against the K moments integrated directly
    (512 nodes), which share no bracket with it; worst measured 9.6e-12."""
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg), eta=1.0e6 / h**2)
    lit = lcrb_tdoa_rss(p)
    quad = lcrb_tdoa_rss_from_moments(quadrature_moments(p, n_points=512))
    assert lit.xy == pytest.approx(quad.xy, rel=1e-9)
    assert lit.z == pytest.approx(quad.z, rel=1e-9)


def _cup_edge_error(h: float, phi_deg: float, names=None) -> float:
    """The worst relative error of the edge quantities (those named, or all)
    against the oracle's defining expressions."""
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg))
    e = cup_edges(p, np.array([h]), np.array([p.phi_l_max]), np.longdouble)
    want = oracle.cup_edges(p)
    names = want if names is None else names
    return max(oracle.rel_err(getattr(e, name)[0], want[name]) for name in names)


LD_EPS = float(np.finfo(np.longdouble).eps)


@pytest.mark.parametrize("h,phi_deg", VERIFY_GRID)
def test_cup_edges_match_mpmath_on_grid(h, phi_deg):
    # worst measured 2.2 eps with the 64-bit x87 mantissa
    assert _cup_edge_error(h, phi_deg) <= 16.0 * LD_EPS


EXTREMES = [
    (h, phi) for h in (0.01, 0.1, 1.0e5) for phi in (0.05, 1.0, 60.0, 90.0)
] + [(500.0, 0.05), (40000.0, 0.05)]


@pytest.mark.parametrize("h,phi_deg", EXTREMES)
def test_cup_edges_match_mpmath_at_extremes(h, phi_deg):
    # The longdouble forms still cancel at the corners: log(D_max/h) and
    # h - zeta D_max through 1 - zeta at 0.05 deg (2.1e5 and 4.2e4 eps), and
    # D_max through R - r sin(phi_l_max) at h = 0.01 km (9.8e4 eps).
    assert _cup_edge_error(h, phi_deg) <= 1.0e6 * LD_EPS


@pytest.mark.parametrize("h,phi_deg", EXTREMES)
def test_q_matches_mpmath_at_extremes(h, phi_deg):
    # R^2 - r^2 is formed as h(2r + h): 174 eps at worst, where R^2 - r^2
    # itself had cancelled to 3.1e5 eps at h = 0.01 km
    assert _cup_edge_error(h, phi_deg, names=("q",)) <= 256.0 * LD_EPS


def _bits(x) -> int:
    return int(np.array(x, dtype=np.float64).view(np.int64))


def _scalar_outcome(fn, *args):
    """fn(*args), or the DegenerateGeometry it raises."""
    try:
        return fn(*args)
    except DegenerateGeometry as exc:
        return exc


SWEEPS = st.integers(min_value=17, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.01, 1.0e5), min_size=n, max_size=n),
        st.lists(st.floats(math.radians(0.05), math.pi / 2.0), min_size=n, max_size=n),
    )
)


@settings(max_examples=40, deadline=None)
@given(SWEEPS)
def test_array_kernels_equal_one_point_calls_bit_for_bit(sweep):
    """Each element of an array evaluation (longer than an AVX-512 vector)
    is the one-point call's float, sign bit included, or fails with the
    one-point call's error."""
    h, phi = (np.array(v) for v in sweep)
    base = SystemParams(eta=400.0)
    points = [dataclasses.replace(base, h=a, phi_l_max=b) for a, b in zip(*sweep)]
    for kernel, scalar in (
        (lcrb_tdoa_arrays, lcrb_tdoa),
        (_lcrb_tdoa_rss_arrays, lcrb_tdoa_rss),
        (limit_coefficients_arrays, limit_coefficients),
    ):
        out, checks = kernel(base, h, phi)
        for j, p in enumerate(points):
            want = _scalar_outcome(scalar, p)
            errors = [_scalar_outcome(error, j) for bad, error in checks if bad[j]]
            if isinstance(want, Exception):
                assert errors and type(errors[0]) is type(want)
                assert str(errors[0]) == str(want)
                continue
            assert not errors
            for f in dataclasses.fields(out):
                assert _bits(getattr(out, f.name)[j]) == _bits(getattr(want, f.name))
    coeff, _ = limit_coefficients_arrays(base, h, phi)
    approx = two_term(coeff, h)
    cov = coverage_prob_arrays(base, h, phi)
    for j, p in enumerate(points):
        assert _bits(cov[j]) == _bits(coverage_prob(p))
        want = _scalar_outcome(aacrb, p)
        if not isinstance(want, Exception):
            assert (_bits(approx.xy[j]), _bits(approx.z[j])) == (
                _bits(want.xy), _bits(want.z))


@settings(max_examples=20, deadline=None)
@given(SWEEPS)
def test_length_one_axis_broadcasts_like_a_constant_array(sweep):
    """A sweep holds one axis as a length-1 array; it must give the bits of
    the same value repeated."""
    h, phi = (np.array(v) for v in sweep)
    base = SystemParams()
    for one, full in (((h, phi[:1]), (h, np.full_like(h, phi[0]))),
                      ((h[:1], phi), (np.full_like(phi, h[0]), phi))):
        a, b = lcrb_tdoa_arrays(base, *one)[0], lcrb_tdoa_arrays(base, *full)[0]
        assert np.array_equal(a.xy.view(np.int64), b.xy.view(np.int64))
        assert np.array_equal(a.z.view(np.int64), b.z.view(np.int64))
        a = coverage_prob_arrays(base, *one)
        b = coverage_prob_arrays(base, *full)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_limit_coefficients(p: SystemParams) -> tuple[float, ...]:
    """The per-point float formula the array kernel replaced, with `math`."""
    r, zeta = p.r, math.cos(p.phi_l_max)
    sin2 = math.sin(p.phi_l_max) ** 2
    log_zeta = math.log(zeta) if zeta > 0.0 else -math.inf
    den = p.eta_rho * p.n_sats
    return (
        -8.0 * r * r / (den * (2.0 * log_zeta + sin2)),
        2.0 * r * r / (den * (sin2 + 2.0 * (1.0 - zeta) ** 2 / log_zeta)),
        12.0 / (den * (zeta + 2.0) * (1.0 - zeta) ** 2),
        12.0 / (den * (1.0 - zeta) ** 3),
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_limit_coefficients_match_math_formula_bit_for_bit(seed):
    # numpy's SIMD float64 power and log differ from libm in the last bit for
    # 0.1-5% of inputs; 256 spread-out angles per example catch a swap
    rng = np.random.default_rng(seed)
    phis = np.radians(np.concatenate([rng.uniform(0.05, 90.0, 128),
                                      0.05 * 1800.0 ** rng.uniform(0.0, 1.0, 128)])).tolist()
    base = SystemParams(n_sats=250)
    co, _ = limit_coefficients_arrays(base, np.array([base.h]), np.array(phis))
    got = np.stack([co.alpha_xy, co.alpha_z, co.beta_xy, co.beta_z], axis=1)
    want = np.array([
        reference_limit_coefficients(dataclasses.replace(base, phi_l_max=f)) for f in phis
    ])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("phi_deg", [1.3351540665427098e-08, 3e-7])
def test_limit_coefficients_zero_divisor_is_degenerate(phi_deg):
    # cos(phi_l_max) rounds to 1, where the per-point formula divides by zero
    p = SystemParams(h=500.0, phi_l_max=math.radians(phi_deg))
    assert math.cos(p.phi_l_max) == 1.0
    with pytest.raises(ZeroDivisionError):
        reference_limit_coefficients(p)
    with pytest.raises(DegenerateGeometry, match=r"divide by zero at cos\(phi_l_max\) = 1\.0"):
        limit_coefficients(p)


@pytest.mark.parametrize("phi_deg", [0.05, 0.1])
def test_non_positive_alpha_z_is_degenerate(phi_deg):
    # alpha_z's divisor sin^2 + 2 (1 - zeta)^2 / log(zeta) cancels, to the
    # wrong sign at some angles below about 0.23 degrees; the true alpha_z
    # is positive
    p = SystemParams(phi_l_max=math.radians(phi_deg))
    assert reference_limit_coefficients(p)[1] < 0.0 < oracle.limit_coefficients(p)["alpha_z"]
    with pytest.raises(DegenerateGeometry, match=r"^limit coefficient alpha_z is -"):
        limit_coefficients(p)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1 step 2: alpha_z's divisor cancels at narrow cones; "
    "bounds prints 8.377e7 at 0.2 deg (true 1.346e8) and 1.523e7 at 0.3 deg "
    "(true 1.182e7), and aacrb_z inherits the error",
)
@pytest.mark.parametrize("column", ["alpha_z", "aacrb_z"])
@pytest.mark.parametrize("phi_deg", [0.2, 0.3])
def test_narrow_cone_alpha_z_matches_oracle(phi_deg, column):
    # positive but wrong cells, which the sign guard lets through
    result = CliRunner().invoke(
        main, ["--format", "json", "bounds", "--axis", "phi_l_max", "--grid", repr(phi_deg)]
    )
    assert result.exit_code == 0, result.output
    (row,) = json.loads(result.stdout)
    p = SystemParams(phi_l_max=math.radians(phi_deg))
    co = oracle.limit_coefficients(p)
    aacrb_z = co["alpha_z"] + co["beta_z"] * oracle.exact(p.h) ** 2
    want = {"alpha_z": co["alpha_z"], "aacrb_z": aacrb_z}
    assert oracle.rel_err(row[column], want[column]) <= 1e-9


# The log grid on which every float column `bounds` prints is checked
# against the oracle, at the exact double inputs the command receives. It
# starts at 5 degrees: below, the z columns and alpha_z lose most of their
# digits to cancellation (at 0.1 degrees, lcrb_z by 0.15 relative at
# 20 000 km, and alpha_z has the wrong sign, which `bounds` refuses).
COLUMN_H = np.geomspace(0.01, 1.0e5, 8).tolist()
COLUMN_PHI_DEG = np.geomspace(5.0, 90.0, 6).tolist()

# column: (error measure, stated bound); the comment gives the worst error
# measured on the grid and its (h km, phi_l_max deg)
COLUMN_BOUNDS = {
    "lcrb_xy": (oracle.rel_err, 1e-13),  # 3.8e-14 at (1e5, 5)
    "lcrb_z": (oracle.rel_err, 3e-10),  # 1.2e-10 at (1e5, 5)
    "acrb_xy": (oracle.rel_err, 1e-13),  # 3.8e-14 at (1e5, 5)
    "acrb_z": (oracle.rel_err, 3e-10),  # 1.2e-10 at (1e5, 5)
    "aacrb_xy": (oracle.rel_err, 2e-12),  # 8.4e-13 at (1, 5)
    "aacrb_z": (oracle.rel_err, 6e-9),  # 2.7e-9 at (1, 5)
    "alpha_xy": (oracle.rel_err, 2e-12),  # 8.4e-13 at 5 degrees, any h
    "alpha_z": (oracle.rel_err, 6e-9),  # 2.7e-9 at 5 degrees, any h
    "beta_xy": (oracle.rel_err, 2e-14),  # 6.6e-15 at 5 degrees, any h
    "beta_z": (oracle.rel_err, 2e-14),  # 9.8e-15 at 5 degrees, any h
    # absolute: 1 - (the first four binomial terms) cancels where coverage
    # is small
    "coverage_prob": (oracle.abs_err, 1e-13),  # 5.0e-14 at (100, 90)
}


@pytest.fixture(scope="module")
def printed_and_true(tmp_path_factory):
    """Per column, the cells `--format json bounds` prints over COLUMN_H at
    each angle of COLUMN_PHI_DEG (JSON floats round-trip), the oracle's
    values, and the (h, phi_l_max deg) of each cell."""
    cfg = tmp_path_factory.mktemp("bounds") / "run.cfg"
    printed, true, at = {}, {}, []
    for phi_deg in COLUMN_PHI_DEG:
        cfg.write_text(f"phi_l_max = {phi_deg!r}\n")
        args = ["--config", str(cfg), "--format", "json", "bounds",
                "--grid", ",".join(map(repr, COLUMN_H))]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        for h, row in zip(COLUMN_H, json.loads(result.stdout)):
            assert row["axis_value"] == h
            want = oracle.bounds_row(SystemParams(h=h, phi_l_max=math.radians(phi_deg)))
            for column, value in want.items():
                printed.setdefault(column, []).append(row[column])
                true.setdefault(column, []).append(value)
            at.append((h, phi_deg))
    return printed, true, at


@pytest.mark.parametrize("column", COLUMN_BOUNDS)
def test_bounds_column_matches_oracle(printed_and_true, column):
    printed, true, at = printed_and_true
    err, bound = COLUMN_BOUNDS[column]
    worst, where = oracle.worst(printed[column], true[column], err, at)
    assert worst <= bound, (column, worst, where)
