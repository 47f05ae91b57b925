"""Geometry: frame conversion, D_max forms, the stream draw and the visible sky."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcrb.geometry import (
    _ROW_SLACK,
    CUP_MARGIN,
    SEED_MAX,
    InvalidConfig,
    SystemParams,
    _cup_threshold,
    _draw_azimuths,
    _draw_cosines,
    check_seed,
    chi_max,
    cup_edges,
    local_frame,
    stream_keys,
    stream_rows,
    visible_sky,
)
from satcrb.coverage import visibility_prob

from draw_reference import masked_sky, uniform_draw

DEFAULTS = SystemParams()

# frozen from a 50-digit evaluation of sqrt(R^2 - r^2 sin^2) - r*zeta at defaults
D_MAX_DEFAULT = 22601.849810517559
PHI_E_MAX_DEFAULT_DEG = 47.923115577542835


def to_local(cos_phi_e, params):
    """(phi_l, d, visible) of one Earth-frame cosine, through local_frame."""
    d, cos_l, sin_l = local_frame(np.array([cos_phi_e]), params)
    return math.atan2(sin_l[0], cos_l[0]), float(d[0]), bool(cos_l[0] >= params.zeta)


def d_max(params):
    """D_max through the one evaluator, in float64."""
    return float(cup_edges(params, params.h, params.phi_l_max, float).dm)


def h_minus_zeta_d_max(params):
    """h - zeta D_max through the one evaluator, in float64."""
    return float(cup_edges(params, params.h, params.phi_l_max, float).hmzd)


def sqrt_shell(phi_l, r, big_r):
    """sqrt(R^2 - r^2 sin^2(phi_l)), the surd of the shell-distance forms."""
    s = r * np.sin(phi_l)
    return np.sqrt((big_r - s) * (big_r + s))


def shell_distance_oracle(h, phi_l, r):
    """The float64 shell distance h(2r + h)/(sqrt(R^2 - r^2 sin^2) + r cos),
    scalar by scalar with math.cos: the oracle of cup_edges' float64 dm."""
    sq = sqrt_shell(phi_l, r, r + h)
    return h * (2.0 * r + h) / (sq + r * math.cos(phi_l))


def h_minus_zeta_d_max_oracle(h, phi, r):
    """The float64 h - zeta D_max in its conjugate form: the oracle of
    cup_edges' float64 hmzd."""
    zeta = np.cos(phi)
    sq = sqrt_shell(phi, r, r + h)
    return h * h * (1.0 - zeta * zeta) / (h + r * zeta * zeta + zeta * sq)


@settings(max_examples=300, deadline=None)
@given(
    h=st.floats(min_value=1.0e-2, max_value=1.0e5),
    phi=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True),
)
def test_float_edges_match_the_scalar_forms_bit_for_bit(h, phi):
    """In float64 the one evaluator is the same operation sequence as the
    scalar forms, bit for bit: chi_max, the coverage probability and the
    ring read these two fields."""
    p = SystemParams(h=h, phi_l_max=phi)
    e = cup_edges(p, h, phi, float)
    assert float(e.dm) == shell_distance_oracle(h, phi, p.r)
    assert float(e.hmzd) == h_minus_zeta_d_max_oracle(h, phi, p.r)


def literal_d_max(params):
    s = params.r * math.sin(params.phi_l_max)
    return math.sqrt(params.big_r**2 - s * s) - params.r * params.zeta


def d_max_minus_h(params):
    """D_max - h without cancellation; the small-h limit is h(1-zeta)/zeta."""
    r, h, big_r = params.r, params.h, params.big_r
    s = r * math.sin(params.phi_l_max)
    sq = math.sqrt((big_r - s) * (big_r + s))
    # 2r + h - r*zeta - sq == r(1-zeta) + (R - sq), with R - sq = s^2/(R + sq)
    return h * (r * (1.0 - params.zeta) + s * s / (big_r + sq)) / (sq + r * params.zeta)


def log_dmax_over_h(params):
    """log(D_max / h), accurate even when D_max/h -> 1 at large h."""
    return math.log1p(d_max_minus_h(params) / params.h)


def test_d_max_default_value():
    assert d_max(DEFAULTS) == pytest.approx(D_MAX_DEFAULT, rel=1e-12)


def test_d_max_small_h_ratio():
    p = SystemParams(h=1e-6, phi_l_max=math.radians(60.0))
    assert d_max(p) / p.h == pytest.approx(1.0 / p.zeta, rel=1e-6)


def test_d_max_closed_cone_reduces_to_h():
    p = SystemParams(phi_l_max=1e-9)
    assert d_max(p) == pytest.approx(p.h, rel=1e-12)


@pytest.mark.parametrize("h", [1e-3, 1e-1, 10.0, 500.0, 20000.0, 1e5])
@pytest.mark.parametrize("phi_deg", [5.0, 30.0, 60.0, 89.0, 90.0])
def test_d_max_matches_literal_form(h, phi_deg):
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg))
    assert d_max(p) == pytest.approx(literal_d_max(p), rel=1e-9)
    # both terms of h + (D_max - h) are positive, so the sum does not cancel
    assert d_max(p) == pytest.approx(p.h + d_max_minus_h(p), rel=1e-14)
    assert p.h <= d_max(p) <= 2.0 * p.r + p.h


def test_d_max_monotone_in_h_and_angle():
    hs = np.geomspace(1.0, 1e5, 25)
    vals = [d_max(SystemParams(h=float(h))) for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    phis = np.linspace(0.01, math.pi / 2.0, 25)
    vals = [d_max(SystemParams(phi_l_max=float(f))) for f in phis]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_stable_differences_match_naive_at_moderate_scale():
    p = DEFAULTS
    assert d_max_minus_h(p) == pytest.approx(d_max(p) - p.h, rel=1e-12)
    assert h_minus_zeta_d_max(p) == pytest.approx(
        p.h - p.zeta * d_max(p), rel=1e-12
    )
    assert log_dmax_over_h(p) == pytest.approx(math.log(d_max(p) / p.h), rel=1e-12)


def test_e_to_l_zenith():
    phi_l, d, visible = to_local(1.0, DEFAULTS)
    assert d == pytest.approx(DEFAULTS.h, rel=1e-12)
    assert phi_l == pytest.approx(0.0, abs=1e-12)
    assert visible


def test_e_to_l_antipode():
    phi_l, d, visible = to_local(-1.0, DEFAULTS)
    assert d == pytest.approx(2.0 * DEFAULTS.r + DEFAULTS.h, rel=1e-12)
    assert phi_l == pytest.approx(math.pi, rel=1e-12)
    assert not visible


def test_e_to_l_published_angle_pair():
    # 47.93 deg at Earth center maps to the 60 deg viewing-cone edge
    phi_l, _, _ = to_local(math.cos(math.radians(47.93)), DEFAULTS)
    assert math.degrees(phi_l) == pytest.approx(60.0, abs=0.05)


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_e_to_l_trig_identities(cos_phi_e):
    p = DEFAULTS
    d, cos_l, sin_l = (float(x[0]) for x in local_frame(np.array([cos_phi_e]), p))
    c, r, big_r = mpmath.mpf(cos_phi_e), mpmath.mpf(p.r), mpmath.mpf(p.big_r)
    law = mpmath.sqrt(big_r**2 + r**2 - 2 * r * big_r * c)
    assert d == pytest.approx(float(law), rel=1e-12)
    # transfer relations: R sin(phi_e) = d sin(phi_l), R cos(phi_e) - r = d cos(phi_l)
    assert float(big_r * mpmath.sqrt(1 - c * c)) == pytest.approx(
        d * sin_l, rel=1e-12, abs=1e-9
    )
    assert float(big_r * c - r) == pytest.approx(d * cos_l, rel=1e-12, abs=1e-9)
    assert sin_l**2 + cos_l**2 == pytest.approx(1.0, abs=1e-12)


def local_frame_mpmath(cos_phi_e, params):
    """(d, cos(phi_l), sin(phi_l)) at 40 digits from the law of cosines and
    the transfer relations, with R = r + h exact."""
    with mpmath.workdps(40):
        c, r, h = (mpmath.mpf(float(x)) for x in (cos_phi_e, params.r, params.h))
        big_r = r + h
        d = mpmath.sqrt(big_r**2 + r**2 - 2 * r * big_r * c)
        return d, (big_r * c - r) / d, big_r * mpmath.sqrt(1 - c * c) / d


@pytest.mark.parametrize("h", [0.01, 500.0, 20000.0, 40000.0])
def test_local_frame_matches_mpmath(h):
    """Over the horizon cup, at cosines on the 2**-52 grid of the draws and
    spaced geometrically in 1 - c, d is within 1.5 ulp, sin(phi_l) within
    4 ulp, and cos(phi_l) within 3 ulp where phi_l <= 60 degrees and within
    1.5 eps absolute down to the horizon. The measured worst cases are
    1.14, 2.90 and 2.17 ulp and 1.08 eps; an arccos/arctan2 round trip
    through phi_e and phi_l is 131 ulp off in d at 500 km and 2.6e11 ulp
    at 0.01 km."""
    p = SystemParams(h=h)
    s = np.geomspace(2.0**-52, 1.0 - p.r / p.big_r, 600)
    cos_phi_e = np.unique(1.0 - np.ldexp(np.round(np.ldexp(s, 52)), -52))
    got = local_frame(cos_phi_e, p)
    want = [local_frame_mpmath(c, p) for c in cos_phi_e]
    for k, ulps in ((0, 1.5), (1, 3.0), (2, 4.0)):
        ref = np.array([float(w[k]) for w in want])
        err = np.array([float(mpmath.mpf(g) - w[k]) for g, w in zip(got[k], want)])
        cut = ref >= 0.5 if k == 1 else slice(None)
        assert np.all(np.abs(err[cut]) <= ulps * np.spacing(np.abs(ref[cut]))), k
        if k == 1:
            assert np.all(np.abs(err) <= 1.5 * np.finfo(float).eps)


def max_earth_angle(params):
    """phi_e_max, the Earth-center half-angle of the visibility cup."""
    return math.acos(chi_max(params))


def test_max_earth_angle_default():
    assert math.degrees(max_earth_angle(DEFAULTS)) == pytest.approx(
        PHI_E_MAX_DEFAULT_DEG, abs=0.05
    )


def test_max_earth_angle_roundtrip():
    for phi_deg in (5.0, 30.0, 60.0, 90.0):
        p = SystemParams(phi_l_max=math.radians(phi_deg))
        phi_l, _, _ = to_local(math.cos(max_earth_angle(p)), p)
        assert phi_l == pytest.approx(p.phi_l_max, abs=1e-10)
        phi_l, _, _ = to_local(chi_max(p), p)
        assert phi_l == pytest.approx(p.phi_l_max, abs=1e-10)


def test_max_earth_angle_small_cone():
    p = SystemParams(phi_l_max=1e-6)
    assert max_earth_angle(p) < 1e-5


def test_max_earth_angle_horizon():
    p = SystemParams(phi_l_max=math.pi / 2.0)
    assert chi_max(p) == pytest.approx(p.r / p.big_r, rel=1e-12)
    assert d_max(p) == pytest.approx(math.sqrt(p.big_r**2 - p.r**2), rel=1e-12)


def test_d_max_consistent_with_max_earth_angle():
    for phi_deg in (10.0, 45.0, 60.0, 90.0):
        p = SystemParams(phi_l_max=math.radians(phi_deg))
        assert d_max(p) == pytest.approx(to_local(chi_max(p), p)[1], rel=1e-10)


def test_sample_constellation_deterministic():
    """The same seed gives the same visible sky, and another seed another."""
    p = SystemParams(n_sats=250)
    a, b, c = (visible_sky(p, seed=seed)[0] for seed in (7, 7, 8))
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_sample_constellation_trials_are_independent_streams():
    p = SystemParams(n_sats=250)
    assert not np.array_equal(visible_sky(p, 7, trial=0)[0], visible_sky(p, 7, trial=1)[0])


def test_sample_constellation_visible_fraction_matches_p():
    n = 10**5
    p = SystemParams(n_sats=n)
    frac = visible_sky(p, seed=2024)[1].size / n
    pv = visibility_prob(p)
    assert abs(frac - pv) < 3.0 * math.sqrt(pv * (1.0 - pv) / n)


def test_local_frame_visibility_flags():
    p = SystemParams(n_sats=500)
    cos_phi_e = uniform_draw(p.n_sats, seed=5, trial=0)[0]
    d, cos_l, _ = local_frame(cos_phi_e, p)
    cut = chi_max(p)
    for vis, dd, cos_phi_e in zip(cos_l >= p.zeta, d, cos_phi_e):
        assert vis == (cos_phi_e >= cut) or math.isclose(cos_phi_e, cut)
        assert p.h <= dd <= 2.0 * p.r + p.h


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(h=0.0),
        dict(h=-1.0),
        dict(r=0.0),
        dict(phi_l_max=0.0),
        dict(phi_l_max=1.6),
        dict(eta_rho=0.0),
        dict(n_sats=0),
        dict(c=0.0),
        dict(eta=-1.0),
        dict(n_sats=2.5),
        dict(n_sats=1e3),
        dict(n_sats=True),
        dict(n_sats="4"),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(InvalidConfig):
        SystemParams(**kwargs)


def test_n_sats_takes_numpy_integers():
    assert SystemParams(n_sats=np.int64(4)).n_sats == 4


def test_split_accessors():
    p = SystemParams()
    assert not p.has_split
    with pytest.raises(InvalidConfig):
        _ = p.rho
    q = dataclasses.replace(p, eta=400.0)
    assert q.has_split and q.rho == pytest.approx(q.eta_rho / 400.0)


def ulp_neighbourhood(x, k):
    """The 2k+1 floats nearest x, in order, clipped to [-1, 1]."""
    below = [x]
    above = [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.clip(np.array(below[:0:-1] + above), -1.0, 1.0)


def assert_prefilter_keeps_the_cup(h, phi_deg, spread):
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg))
    a = chi_max(p)
    # cosines a few ulps either side of the cup edge, the edge moved by the
    # slack itself, then a wider band around it twice as wide
    cos_phi_e = np.concatenate(
        [
            ulp_neighbourhood(a, 16 * spread),
            ulp_neighbourhood(a - CUP_MARGIN, 16 * spread),
            ulp_neighbourhood(a + CUP_MARGIN, 16 * spread),
            np.clip(a + CUP_MARGIN * np.linspace(-2.0, 2.0, 101), -1.0, 1.0),
        ]
    )
    visible = local_frame(cos_phi_e, p)[1] >= p.zeta
    candidates = cos_phi_e >= _cup_threshold(p)
    assert not np.any(visible & ~candidates)
    # the exact test itself flips at the edge, to within the rounding
    assert visible[cos_phi_e >= a + 1e-12].all()
    assert not visible[cos_phi_e <= a - 1e-12].any()


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(min_value=1.0e-2, max_value=1.0e5),
    phi_deg=st.floats(min_value=0.05, max_value=90.0),
    spread=st.sampled_from([1, 8, 64]),
)
def test_prefilter_keeps_every_visible_satellite(h, phi_deg, spread):
    assert_prefilter_keeps_the_cup(h, phi_deg, spread)


@pytest.mark.parametrize("h", [0.01, 500.0, 40000.0])
@pytest.mark.parametrize("phi_deg", [0.05, 60.0, 90.0])
def test_prefilter_keeps_the_cup_edge(h, phi_deg):
    """Every cosine that cos(phi_l) >= zeta accepts passes the prefilter
    cos(phi_e) >= chi_max - CUP_MARGIN, at the narrowest and widest cones
    and the lowest and highest shells, up to 1024 ulps from the edge."""
    assert_prefilter_keeps_the_cup(h, phi_deg, 64)


@pytest.mark.parametrize("n_sats", [1, 2, 3, 4, 5, 6, 7, 250, 4000, 5000, 100_001])
def test_visible_sky_is_the_masked_full_conversion(n_sats):
    """visible_sky is numpy's uniform draw taken whole through local_frame
    and masked, bit for bit, at every N mod 4."""
    p = SystemParams(n_sats=n_sats)
    draws = [(31, trial) for trial in range(5)] + [(3, 0), (20260819, 11), (2**63 + 11, 2)]
    for seed, trial in draws:
        v, d = masked_sky(p, seed, trial)
        got_v, got_d = visible_sky(p, seed=seed, trial=trial)
        assert got_v.shape == (d.size, 3)
        assert np.array_equal(got_v, v)
        assert np.array_equal(got_d, d)


def seed_sequence_key(seed, trial):
    return np.random.SeedSequence(entropy=seed, spawn_key=(trial,)).generate_state(
        2, np.uint64
    )


# the trials 0-1000, those where a trial becomes two words, and the last
TRIAL_RANGES = [
    range(1001),
    range(2**32 - 2, 2**32 + 2),
    range(SEED_MAX - 1, SEED_MAX + 1),
]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, SEED_MAX])
def test_stream_keys_are_the_seed_sequence_keys(seed):
    for trials in TRIAL_RANGES:
        keys = stream_keys(seed, trials)
        assert keys.shape == (len(trials), 2) and keys.dtype == np.uint64
        for t, key in zip(trials, keys):
            assert np.array_equal(key, seed_sequence_key(seed, t))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, SEED_MAX), trial=st.integers(0, SEED_MAX - 2))
def test_stream_keys_match_seed_sequence_anywhere(seed, trial):
    for trials in (range(2), range(trial, trial + 3)):
        for t, key in zip(trials, stream_keys(seed, trials)):
            assert np.array_equal(key, seed_sequence_key(seed, t))


def test_constellation_rng_is_the_seed_sequence_stream():
    """The streams are keyed without a SeedSequence per trial; this pins
    that a Philox keyed with SeedSequence's key draws what the
    SeedSequence-seeded Philox draws, so a numpy that breaks it fails here."""
    for seed, trial in ((0, 0), (7, 3), (SEED_MAX, 2**32)):
        key = seed_sequence_key(seed, trial)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        want = np.random.Generator(np.random.Philox(ss)).random(1001)
        keyed = np.random.Generator(np.random.Philox(key=key)).random(1001)
        assert np.array_equal(keyed, want)
        drawn = stream_rows(stream_keys(seed, range(trial, trial + 1)), np.empty((1, 1001)))
        assert np.array_equal(drawn[0], want)


@pytest.mark.parametrize("seed,last", [(0, 2), (7, 5), (SEED_MAX, SEED_MAX)])
def test_stream_rows_normals_are_the_trial_stream(seed, last):
    """Each row of a keyed block of unit normals is the trial's own
    standard_normal draw, bit for bit: the ziggurat takes a varying number
    of words per value, so no row may leave state for the next."""
    trials = range(last - 2, last + 1)
    rows = stream_rows(stream_keys(seed, trials), np.empty((3, 6, 3900)), "standard_normal")
    for t, row in zip(trials, rows):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        want = np.random.Generator(np.random.Philox(ss)).standard_normal((6, 3900))
        assert np.array_equal(row, want)


@pytest.mark.parametrize("n_sats", [1, 2, 3, 4, 5, 6, 7, 4000, 100_001])
def test_sample_constellation_is_the_uniform_draw(n_sats):
    """Each row of a block draw of three trials is all N satellites of
    numpy's uniform draw of the trial's stream, bit for bit: the cosines,
    then the azimuth uniforms that 2 pi u turns into the azimuths."""
    p = SystemParams(n_sats=n_sats)
    for seed, first in ((3, 0), (20260819, 11), (2**63 + 11, 2)):
        trials = range(first, first + 3)
        keys = stream_keys(seed, trials)
        block = np.empty((len(trials), n_sats + _ROW_SLACK))
        cos_phi_e = _draw_cosines(p, keys, block).copy()
        theta = 2.0 * math.pi * _draw_azimuths(p, keys, block)
        for t, cos_row, theta_row in zip(trials, cos_phi_e, theta):
            want_cos, want_theta = uniform_draw(n_sats, seed, t)
            assert np.array_equal(cos_row, want_cos)
            assert np.array_equal(theta_row, want_theta)


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1, 1.5, "7", True, None])
def test_seed_outside_its_range_is_rejected(seed):
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        check_seed(seed)
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        visible_sky(SystemParams(n_sats=4), seed)


@pytest.mark.parametrize(
    "trials", [range(-1, 1), range(SEED_MAX, SEED_MAX + 2), range(0, 4, 2)]
)
def test_trials_outside_their_range_are_rejected(trials):
    with pytest.raises(InvalidConfig, match="trials must be a range"):
        stream_keys(1, trials)


def test_seed_and_trial_bounds_are_accepted():
    assert check_seed(0) == 0 and check_seed(np.uint64(SEED_MAX)) == SEED_MAX
    assert stream_keys(5, range(0)).shape == (0, 2)
    assert visible_sky(SystemParams(n_sats=4), SEED_MAX, SEED_MAX)[1].size <= 4
