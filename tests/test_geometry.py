"""Geometry: frame conversion, D_max forms, the stream draw and the visible sky."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from satcrb.geometry import (
    SEED_MAX,
    InvalidConfig,
    SystemParams,
    check_seed,
    chi_max,
    cos_sin_turns,
    cup_edges,
    local_frame,
    stream_keys,
    streams,
    visible_chunks,
    visible_sky,
)
from satcrb.coverage import visibility_prob
from satcrb.fim import timing_rows

import oracle
from draw_reference import cup_draw, radian_trig, trial_generator, uniform_draw

DEFAULTS = SystemParams()

# frozen from a 50-digit evaluation of sqrt(R^2 - r^2 sin^2) - r*zeta at defaults
D_MAX_DEFAULT = 22601.849810517559
PHI_E_MAX_DEFAULT_DEG = 47.923115577542835


def to_local(cos_phi_e, params):
    """(phi_l, d, visible) of one Earth-frame cosine, through local_frame."""
    d, cos_l, sin_l = local_frame(np.array([1.0 - cos_phi_e]), params)
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


@given(st.floats(min_value=0.0, max_value=2.0))
def test_e_to_l_trig_identities(s):
    p = DEFAULTS
    d, cos_l, sin_l = (float(x[0]) for x in local_frame(np.array([s]), p))
    # the oracle's law of cosines, and its transfer relations
    # R sin(phi_e) = d sin(phi_l), R cos(phi_e) - r = d cos(phi_l)
    law, want_cos, want_sin = oracle.local_frame(s, p)
    assert d == pytest.approx(float(law), rel=1e-12)
    assert float(law * want_sin) == pytest.approx(d * sin_l, rel=1e-12, abs=1e-9)
    assert float(law * want_cos) == pytest.approx(d * cos_l, rel=1e-12, abs=1e-9)
    assert sin_l**2 + cos_l**2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("h", [0.01, 500.0, 20000.0, 40000.0])
def test_local_frame_matches_mpmath(h):
    """Over the horizon cup, at s = 1 - cos(phi_e) on the 2**-52 grid and
    spaced geometrically, d is within 1.5 ulp, sin(phi_l) within
    4 ulp, and cos(phi_l) within 3 ulp where phi_l <= 60 degrees and within
    1.5 eps absolute down to the horizon. The measured worst cases are
    1.14, 2.90 and 2.17 ulp and 1.08 eps; an arccos/arctan2 round trip
    through phi_e and phi_l is 131 ulp off in d at 500 km and 2.6e11 ulp
    at 0.01 km."""
    p = SystemParams(h=h)
    s = np.geomspace(2.0**-52, 1.0 - p.r / p.big_r, 600)
    s = np.unique(np.ldexp(np.round(np.ldexp(s, 52)), -52))
    got = local_frame(s, p)
    want = list(zip(*(oracle.local_frame(x, p) for x in s.tolist())))
    for k, ulps in ((0, 1.5), (1, 3.0), (2, 4.0)):
        err = np.array([oracle.ulps(g, w) for g, w in zip(got[k].tolist(), want[k])])
        cut = np.array([w >= 0.5 for w in want[k]]) if k == 1 else slice(None)
        assert np.all(np.abs(err[cut]) <= ulps), k
    eps = np.finfo(float).eps
    assert oracle.worst(got[1].tolist(), want[1], oracle.abs_err)[0] <= 1.5 * eps


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


# The law of the cup draw: counts by chi-square against Binomial(N, p),
# s / s_max and theta / 2 pi by KS against U[0, 1). Trials, seeds and the
# per-test level were fixed before the first run.
CUP_LAW_TRIALS = 20_000
CUP_LAW_ALPHA = 1e-3


def binomial_bins(n, p, trials, least=5.0):
    """Edges of the count bins [k_i, k_{i+1}) over 0..n, each expected to
    hold at least `least` trials; the last takes the tail."""
    expected = trials * stats.binom.pmf(np.arange(n + 1), n, p)
    edges, held = [0], 0.0
    for k, e in enumerate(expected):
        held += e
        if held >= least and trials * stats.binom.sf(k, n, p) >= least:
            edges.append(k + 1)
            held = 0.0
    return np.array(edges + [n + 1])


@pytest.mark.parametrize(
    "h,n_sats,seed", [(20000.0, 250, 101), (500.0, 2000, 202)], ids=["default", "500km"]
)
def test_cup_draw_law(h, n_sats, seed):
    p = SystemParams(h=h, n_sats=n_sats)
    pv = visibility_prob(p)
    s_max = 2.0 * pv
    counts, s, theta = [], [], []
    for _, k, v, d in visible_chunks(p, seed, range(CUP_LAW_TRIALS)):
        filled = np.isfinite(d)
        counts.append(k)
        s.append((d[filled] ** 2 - p.h**2) / (2.0 * p.r * p.big_r))
        theta.append(np.arctan2(v[filled][:, 1], v[filled][:, 0]) % (2.0 * math.pi))
    counts = np.concatenate(counts)
    edges = binomial_bins(n_sats, pv, CUP_LAW_TRIALS)
    observed = np.histogram(counts, edges)[0]
    expected = CUP_LAW_TRIALS * np.diff(stats.binom.cdf(edges - 1, n_sats, pv))
    assert observed.sum() == CUP_LAW_TRIALS and len(edges) > 4
    assert stats.chisquare(observed, expected).pvalue >= CUP_LAW_ALPHA
    for x in (np.concatenate(s) / s_max, np.concatenate(theta) / (2.0 * math.pi)):
        assert x.size == counts.sum()
        assert stats.kstest(x, "uniform").pvalue >= CUP_LAW_ALPHA


def test_local_frame_visibility_flags():
    p = SystemParams(n_sats=500)
    cos_phi_e = uniform_draw(p.n_sats, seed=5, trial=0)[0]
    d, cos_l, _ = local_frame(1.0 - cos_phi_e, p)
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


@pytest.mark.parametrize("field", ["r", "h", "eta_rho", "c", "eta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_scalar_fields_must_be_finite_and_positive(field, value):
    with pytest.raises(InvalidConfig, match=f"must be finite and positive.* got .*{value}"):
        SystemParams(**{field: value})


def test_fleets_numpy_cannot_draw_are_rejected():
    p = SystemParams(n_sats=2**59 + 1)
    with pytest.raises(InvalidConfig, match=r"at most 2\*\*59 to be drawn, got 576460752303423489"):
        visible_sky(p, seed=1)


def test_n_sats_takes_numpy_integers():
    assert SystemParams(n_sats=np.int64(4)).n_sats == 4


def test_split_accessors():
    p = SystemParams()
    assert not p.has_split
    with pytest.raises(InvalidConfig):
        _ = p.rho
    q = dataclasses.replace(p, eta=400.0)
    assert q.has_split and q.rho == pytest.approx(q.eta_rho / 400.0)


@pytest.mark.parametrize("n_sats", [1, 2, 3, 4, 5, 6, 7, 250, 2000, 4000, 5000, 100_001])
def test_visible_sky_is_the_cup_draw(n_sats):
    """visible_sky is numpy's binomial count and uniforms of the trial's
    stream taken through local_frame, as timing rows (v, -1), bit for bit,
    at the default cup and at the narrowest and widest cones of a 500 km
    shell; and it is the unpadded row of its trial in visible_chunks."""
    draws = [(31, trial) for trial in range(5)] + [(3, 0), (20260819, 11), (2**63 + 11, 2)]
    for h, phi_deg in ((20000.0, 60.0), (500.0, 5.0), (500.0, 90.0)):
        p = SystemParams(n_sats=n_sats, h=h, phi_l_max=math.radians(phi_deg))
        skies = {}
        for seed, trial in draws:
            v, d = cup_draw(p, seed, trial)
            got_u, got_d = skies[seed, trial] = visible_sky(p, seed=seed, trial=trial)
            assert got_u.shape == (d.size, 4)
            # copies of the trial's rows, not views of the chunk workspace
            assert got_u.base is None and got_d.base is None
            assert np.array_equal(got_u, timing_rows(v))
            assert np.array_equal(got_d, d)
        for rows, counts, u, d in visible_chunks(p, 31, range(5)):
            for t, k, row_u, row_d in zip(range(5)[rows], counts, u, d):
                sky_u, sky_d = skies[31, t]
                assert np.array_equal(row_u[:k], sky_u)
                assert np.array_equal(row_d[:k], sky_d)


# turns where cos_sin_turns is checked: every table step, the middle of
# each step, the last double below each step's end, and seeded uniforms
STEPS = np.arange(256) / 256.0
TURNS = np.concatenate(
    [
        STEPS,
        STEPS + 1.0 / 512.0,
        np.nextafter(STEPS + 1.0 / 256.0, 0.0),
        np.random.default_rng(20261019).random(10_000),
    ]
)


def worst_trig_error(cos_t, sin_t, want):
    """Largest absolute error of (cos_t, sin_t) against want, the oracle's
    (cos 2 pi u, sin 2 pi u) at the exact double turns u of TURNS."""
    return max(
        oracle.worst(got.tolist(), w, oracle.abs_err)[0]
        for got, w in zip((cos_t, sin_t), zip(*want))
    )


def test_cos_sin_turns_is_within_2_to_the_minus_52():
    want = [oracle.cos_sin_turns(u) for u in TURNS.tolist()]
    assert worst_trig_error(*cos_sin_turns(TURNS), want) <= 2.0**-52
    # numpy's route misses the gate, by the rounding of the angle 2 pi u
    assert worst_trig_error(*radian_trig(TURNS), want) > 2.0**-52


def test_cos_sin_turns_tables_are_correctly_rounded():
    from satcrb.geometry import _COS_STEP, _SIN_STEP

    for j in range(256):
        cos_j, sin_j = oracle.cos_sin_turns(j / 256)
        assert (_COS_STEP[j], _SIN_STEP[j]) == (float(cos_j), float(sin_j))
    # so the quarter turns are exact
    cos_t, sin_t = cos_sin_turns(np.array([0.0, 0.25, 0.5, 0.75]))
    assert cos_t.tolist() == [1.0, 0.0, -1.0, 0.0]
    assert sin_t.tolist() == [0.0, 1.0, 0.0, -1.0]


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
        want = trial_generator(seed, trial).random(1001)
        keyed = np.random.Generator(np.random.Philox(key=key)).random(1001)
        assert np.array_equal(keyed, want)
        gen = next(streams(stream_keys(seed, range(trial, trial + 1))))
        assert np.array_equal(gen.random(1001), want)


@pytest.mark.parametrize("seed,last", [(0, 2), (7, 5), (SEED_MAX, SEED_MAX)])
def test_streams_are_the_fresh_trial_generators(seed, last):
    """Each stream draws what a fresh generator of the trial draws, bit for
    bit, whatever the draws of the stream before it left behind: a ziggurat
    that takes a varying number of words per value, a binomial whose
    count decides how many uniforms follow, and a buffered half word."""
    trials = range(last - 2, last + 1)
    for gen, t in zip(streams(stream_keys(seed, trials)), trials):
        want = trial_generator(seed, t)
        assert np.array_equal(gen.standard_normal((6, 3900)), want.standard_normal((6, 3900)))
        k = gen.binomial(100_001, 0.0825)
        assert k == want.binomial(100_001, 0.0825)
        assert np.array_equal(gen.random(2 * k), want.random(2 * k))
        assert gen.integers(2**32, dtype=np.uint32) == want.integers(2**32, dtype=np.uint32)


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
