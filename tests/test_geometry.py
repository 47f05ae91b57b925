"""Geometry: frame conversion, D_max forms, constellation sampling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcrb.geometry import (
    CUP_MARGIN,
    SEED_MAX,
    InvalidConfig,
    SystemParams,
    _cup_candidates,
    check_seed,
    chi_max,
    constellation_rng,
    e_to_l_arrays,
    d_max,
    d_max_minus_h,
    h_minus_zeta_d_max,
    log_dmax_over_h,
    max_earth_angle,
    sample_constellation,
    stream_keys,
    stream_rows,
    visible_sky,
)
from satcrb.coverage import visibility_prob

DEFAULTS = SystemParams()

# frozen from a 50-digit evaluation of sqrt(R^2 - r^2 sin^2) - r*zeta at defaults
D_MAX_DEFAULT = 22601.849810517559
PHI_E_MAX_DEFAULT_DEG = 47.923115577542835


def to_local(phi_e, params):
    """(phi_l, d, visible) of one Earth-frame angle, through e_to_l_arrays."""
    phi_l, d, visible = e_to_l_arrays(np.array([phi_e]), params)
    return float(phi_l[0]), float(d[0]), bool(visible[0])


def literal_d_max(params):
    s = params.r * math.sin(params.phi_l_max)
    return math.sqrt(params.big_r**2 - s * s) - params.r * params.zeta


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
    phi_l, d, visible = to_local(0.0, DEFAULTS)
    assert d == pytest.approx(DEFAULTS.h, rel=1e-12)
    assert phi_l == pytest.approx(0.0, abs=1e-12)
    assert visible


def test_e_to_l_antipode():
    phi_l, d, visible = to_local(math.pi, DEFAULTS)
    assert d == pytest.approx(2.0 * DEFAULTS.r + DEFAULTS.h, rel=1e-12)
    assert phi_l == pytest.approx(math.pi, rel=1e-12)
    assert not visible


def test_e_to_l_published_angle_pair():
    # 47.93 deg at Earth center maps to the 60 deg viewing-cone edge
    phi_l, _, _ = to_local(math.radians(47.93), DEFAULTS)
    assert math.degrees(phi_l) == pytest.approx(60.0, abs=0.05)


@given(st.floats(min_value=0.0, max_value=math.pi))
def test_e_to_l_trig_identities(phi_e):
    p = DEFAULTS
    phi_l, d, _ = to_local(phi_e, p)
    law = math.sqrt(
        p.big_r**2 + p.r**2 - 2.0 * p.r * p.big_r * math.cos(phi_e)
    )
    assert d == pytest.approx(law, rel=1e-12)
    # transfer relations: R sin(phi_e) = d sin(phi_l), R cos(phi_e) - r = d cos(phi_l)
    assert p.big_r * math.sin(phi_e) == pytest.approx(
        d * math.sin(phi_l), rel=1e-12, abs=1e-9
    )
    assert p.big_r * math.cos(phi_e) - p.r == pytest.approx(
        d * math.cos(phi_l), rel=1e-12, abs=1e-9
    )
    assert math.sin(phi_l) ** 2 + math.cos(phi_l) ** 2 == pytest.approx(
        1.0, abs=1e-12
    )


def test_max_earth_angle_default():
    assert math.degrees(max_earth_angle(DEFAULTS)) == pytest.approx(
        PHI_E_MAX_DEFAULT_DEG, abs=0.05
    )


def test_max_earth_angle_roundtrip():
    for phi_deg in (5.0, 30.0, 60.0, 90.0):
        p = SystemParams(phi_l_max=math.radians(phi_deg))
        phi_l, _, _ = to_local(max_earth_angle(p), p)
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
        assert d_max(p) == pytest.approx(to_local(max_earth_angle(p), p)[1], rel=1e-10)


def test_sample_constellation_deterministic():
    p = SystemParams(n_sats=1)
    a = sample_constellation(p, seed=7)
    b = sample_constellation(p, seed=7)
    assert np.array_equal(a.phi_e, b.phi_e) and np.array_equal(a.theta, b.theta)
    c = sample_constellation(p, seed=8)
    assert not np.array_equal(a.phi_e, c.phi_e)


def test_sample_constellation_trials_are_independent_streams():
    p = SystemParams(n_sats=16)
    a = sample_constellation(p, seed=7, trial=0)
    b = sample_constellation(p, seed=7, trial=1)
    assert not np.array_equal(a.phi_e, b.phi_e)


def test_sample_constellation_uniform_moments():
    n = 10**5
    p = SystemParams(n_sats=n)
    c = sample_constellation(p, seed=123)
    sigma = 1.0 / math.sqrt(3.0 * n)
    assert abs(np.mean(np.cos(c.phi_e))) < 3.0 * sigma
    assert np.all(c.theta >= 0.0) and np.all(c.theta < 2.0 * math.pi)


def test_sample_constellation_visible_fraction_matches_p():
    n = 10**5
    p = SystemParams(n_sats=n)
    c = sample_constellation(p, seed=2024)
    frac = np.mean(c.phi_e <= max_earth_angle(p))
    pv = visibility_prob(p)
    assert abs(frac - pv) < 3.0 * math.sqrt(pv * (1.0 - pv) / n)


def test_e_to_l_arrays_visibility_flags():
    p = SystemParams(n_sats=500)
    c = sample_constellation(p, seed=5)
    _, d, visible = e_to_l_arrays(c.phi_e, p)
    cut = max_earth_angle(p)
    for vis, dd, phi_e in zip(visible, d, c.phi_e):
        assert vis == (phi_e <= cut) or math.isclose(phi_e, cut)
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
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(InvalidConfig):
        SystemParams(**kwargs)


def test_split_accessors():
    p = SystemParams()
    assert not p.has_split
    with pytest.raises(InvalidConfig):
        _ = p.rho
    q = p.with_split(400.0)
    assert q.has_split and q.rho == pytest.approx(q.eta_rho / 400.0)


def test_with_split_keeps_every_other_field():
    p = SystemParams(
        r=6000.0, h=1234.0, phi_l_max=0.7, eta_rho=3.0e12, n_sats=77, c=2.9e5, eta=9.0
    )
    q = p.with_split(400.0)
    assert q.eta == 400.0
    for field in dataclasses.fields(SystemParams):
        # a field left at its default here could not show that it survives
        assert getattr(p, field.name) != field.default, field.name
        if field.name != "eta":
            assert getattr(q, field.name) == getattr(p, field.name), field.name


def ulp_neighbourhood(x, k):
    """The 2k+1 floats nearest x, in order, clipped to [-1, 1]."""
    below = [x]
    above = [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.clip(np.array(below[:0:-1] + above), -1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(min_value=1.0e-2, max_value=1.0e5),
    phi_deg=st.floats(min_value=0.05, max_value=90.0),
    spread=st.sampled_from([1, 8, 64]),
)
def test_prefilter_keeps_every_visible_satellite(h, phi_deg, spread):
    p = SystemParams(h=h, phi_l_max=math.radians(phi_deg))
    a = chi_max(p)
    # cosines a few ulps either side of the cup edge, then a wider band
    # around it as wide as the slack itself
    cos_phi_e = np.concatenate(
        [
            ulp_neighbourhood(a, 16 * spread),
            np.clip(a + CUP_MARGIN * np.linspace(-2.0, 2.0, 101), -1.0, 1.0),
        ]
    )
    visible = e_to_l_arrays(np.arccos(cos_phi_e), p)[2]
    candidates = _cup_candidates(cos_phi_e, p)
    assert not np.any(visible & ~candidates)
    # the exact test itself flips at the edge, to within the rounding
    assert visible[cos_phi_e >= a + 1e-12].all()
    assert not visible[cos_phi_e <= a - 1e-12].any()


@pytest.mark.parametrize("n_sats", [1, 4, 250, 5000])
def test_visible_sky_is_the_masked_full_conversion(n_sats):
    p = SystemParams(n_sats=n_sats)
    for trial in range(5):
        c = sample_constellation(p, seed=31, trial=trial)
        phi_l, d, visible = e_to_l_arrays(c.phi_e, p)
        got = visible_sky(p, seed=31, trial=trial)
        for a, b in zip(got, (phi_l[visible], c.theta[visible], d[visible])):
            assert np.array_equal(a, b)


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
        assert np.array_equal(constellation_rng(seed, trial).random(1001), want)


@pytest.mark.parametrize("seed,last", [(0, 2), (7, 5), (SEED_MAX, SEED_MAX)])
def test_stream_rows_normals_are_the_trial_stream(seed, last):
    """Each row of a keyed block of unit normals is the trial's own
    standard_normal draw, bit for bit: the ziggurat takes a varying number
    of words per value, so no row may leave state for the next."""
    trials = range(last - 2, last + 1)
    rows = stream_rows(stream_keys(seed, trials), np.empty((3, 6, 3900)), "standard_normal")
    for t, row in zip(trials, rows):
        assert np.array_equal(row, constellation_rng(seed, t).standard_normal((6, 3900)))


@pytest.mark.parametrize("n_sats", [1, 2, 3, 4, 5, 6, 7, 4000, 100_001])
def test_sample_constellation_is_the_uniform_draw(n_sats):
    """The draw is uniform(-1, 1, N) cosines, then uniform(0, 2 pi, N)
    azimuths, from the trial's SeedSequence-seeded Philox, bit for bit."""
    p = SystemParams(n_sats=n_sats)
    for seed, trial in ((3, 0), (20260819, 11), (2**63 + 11, 2)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        rng = np.random.Generator(np.random.Philox(ss))
        cos_phi_e = rng.uniform(-1.0, 1.0, n_sats)
        theta = rng.uniform(0.0, 2.0 * math.pi, n_sats)
        c = sample_constellation(p, seed, trial)
        assert np.array_equal(c.phi_e, np.arccos(cos_phi_e))
        assert np.array_equal(c.theta, theta)


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1, 1.5, "7", True, None])
def test_seed_outside_its_range_is_rejected(seed):
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        check_seed(seed)
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        sample_constellation(SystemParams(n_sats=4), seed)


@pytest.mark.parametrize(
    "trials", [range(-1, 1), range(SEED_MAX, SEED_MAX + 2), range(0, 4, 2)]
)
def test_trials_outside_their_range_are_rejected(trials):
    with pytest.raises(InvalidConfig, match="trials must be a range"):
        stream_keys(1, trials)


def test_seed_and_trial_bounds_are_accepted():
    assert check_seed(0) == 0 and check_seed(np.uint64(SEED_MAX)) == SEED_MAX
    assert stream_keys(5, range(0)).shape == (0, 2)
    assert constellation_rng(SEED_MAX, SEED_MAX).random() >= 0.0
