"""Random-constellation experiment tests."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from satcrb.closed_form import acrb, lcrb_tdoa, moment_integrals
from satcrb.coverage import COVERAGE_RULE, coverage_prob
from satcrb.fim import COND_LIMIT, crb_from_fim, tdoa_gram, tdoa_rss_gram, timing_rows
from satcrb.geometry import InvalidConfig, SystemParams, visible_chunks
from satcrb.montecarlo import (
    ConvergenceRow,
    CrbDistribution,
    convergence_sweep,
    crb_distribution,
    mean_fim,
    nearest_rank,
)

from draw_reference import cup_draw, masked_sky, radian_trig

SPLIT = SystemParams(eta=400.0)


def reference_trial_bounds(params, model, seed, trial, draw=cup_draw):
    """One trial the direct way: the draw's visible sky, then the
    single-matrix gate and solve; None for a singular draw."""
    v, d = draw(params, seed, trial)
    if d.size < 4:
        return None
    build = tdoa_rss_gram if model == "tdoa_rss" else tdoa_gram
    m = build(timing_rows(v), d, params)
    if not (
        np.all(np.isfinite(m))
        and np.linalg.det(m) > 0.0
        and np.linalg.cond(m) < COND_LIMIT
    ):
        return None
    inv = np.linalg.solve(m, np.eye(4))
    return float(inv[0, 0] + inv[1, 1]), float(inv[2, 2])


def reference_distribution(params, model, trials, seed, draw=cup_draw):
    """The trial-by-trial loop crb_distribution must reproduce bit for bit
    with the cup draw."""
    results = [
        reference_trial_bounds(params, model, seed, t, draw) for t in range(trials)
    ]
    kept = [b for b in results if b is not None]
    n = float(params.n_sats)
    xs = np.sort(np.array([n * xy for xy, _ in kept]))
    zs = np.sort(np.array([n * z for _, z in kept]))
    return xs, zs, trials - len(kept)


def assert_matches_reference(params, model, trials, seed):
    dist = crb_distribution(params, model, trials, seed)
    xs, zs, singular = reference_distribution(params, model, trials, seed)
    assert dist.samples_xy.dtype == xs.dtype and dist.samples_z.dtype == zs.dtype
    assert np.array_equal(dist.samples_xy, xs)
    assert np.array_equal(dist.samples_z, zs)
    assert dist.singular_count == singular
    return dist


@pytest.mark.parametrize("model", ["tdoa", "tdoa_rss"])
@pytest.mark.parametrize("n_sats", [3, 4, 5, 250, 2000])
def test_distribution_matches_trial_by_trial_reference(model, n_sats):
    params = SystemParams(n_sats=n_sats, eta=0.0025)
    for seed in (0, 7, 20260819, 2**63 + 11):
        dist = assert_matches_reference(params, model, trials=30, seed=seed)
        if n_sats == 3:
            assert dist.singular_count == dist.trials


@pytest.mark.parametrize("model", ["tdoa", "tdoa_rss"])
@pytest.mark.parametrize("phi_deg", [5.0, 90.0])
def test_distribution_matches_reference_at_low_altitude(model, phi_deg):
    base = SystemParams(h=500.0, phi_l_max=math.radians(phi_deg), eta=4.0)
    # at 5 degrees a draw sees about 1e-5 of the fleet, so only the largest
    # fleet has trials with four or more visible satellites
    for n_sats in (4, 250, 2000, 400_000 if phi_deg == 5.0 else 20_000):
        params = dataclasses.replace(base, n_sats=n_sats)
        for seed in (3, 9):
            assert_matches_reference(params, model, trials=12, seed=seed)


def test_large_fleet_matches_reference():
    assert_matches_reference(SystemParams(n_sats=100_000), "tdoa", trials=5, seed=5)


@pytest.mark.parametrize("model", ["tdoa", "tdoa_rss"])
@pytest.mark.parametrize(
    "h,n_sats",
    [(20000.0, 250), (20000.0, 2000), (20000.0, 100_000), (500.0, 2000)],
    ids=["250", "2000", "100000", "500km-2000"],
)
def test_distribution_matches_reference_across_chunk_boundaries(model, h, n_sats):
    """Trial counts one below, at and one above the first chunk, and one
    above the second. At N = 1e5 a trial sees more satellites than a chunk
    has slots, so a chunk is a single trial; at 500 km a trial sees about
    seven, and a chunk holds hundreds of trials."""
    params = SystemParams(h=h, n_sats=n_sats, eta=0.0025)
    seed = 17
    chunks = visible_chunks(params, seed, range(10**4))
    first, second = (next(chunks)[0].stop for _ in range(2))
    assert (first == 1) == (n_sats == 100_000)
    if h == 500.0:
        assert first > 100
    for trials in sorted({max(first - 1, 1), first, first + 1, second + 1}):
        assert_matches_reference(params, model, trials=trials, seed=seed)


@pytest.mark.parametrize("model", ["tdoa", "tdoa_rss"])
@pytest.mark.parametrize("n_sats,trials", [(250, 200), (2000, 100), (100_000, 8)])
def test_distribution_matches_the_radian_trig_route(model, n_sats, trials):
    """numpy's np.cos and np.sin of the rounded angle 2 pi u, a route to the
    azimuths that shares nothing with geometry.cos_sin_turns, gives the
    same N*CRB samples to 1e-12 relative."""
    params = SystemParams(n_sats=n_sats, eta=0.0025)
    dist = crb_distribution(params, model, trials, seed=29)
    radians = functools.partial(cup_draw, trig=radian_trig)
    xs, zs, singular = reference_distribution(params, model, trials, 29, radians)
    assert dist.singular_count == singular
    np.testing.assert_allclose(dist.samples_xy, xs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dist.samples_z, zs, rtol=1e-12, atol=0.0)


def test_uncovered_draws_are_counted():
    dist = crb_distribution(SystemParams(n_sats=2000), "tdoa", trials=200, seed=5)
    assert dist.uncovered_count == 0
    for n_sats in (4, 12):
        p = SystemParams(n_sats=n_sats)
        dist = crb_distribution(p, "tdoa", trials=300, seed=5)
        # the trials short of four visible satellites, and only those
        visible = [cup_draw(p, 5, t)[1].size for t in range(300)]
        assert dist.uncovered_count == sum(v < 4 for v in visible)
        assert 0 < dist.uncovered_count <= dist.singular_count


def test_nearest_rank_small_lists():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert nearest_rank(v, 50.0) == 2.0  # ceil(0.5*4)=2nd
    assert nearest_rank(v, 10.0) == 1.0
    assert nearest_rank(v, 90.0) == 4.0
    assert nearest_rank(v, 100.0) == 4.0
    assert nearest_rank(np.array([7.0]), 50.0) == 7.0
    assert math.isnan(nearest_rank(np.array([]), 50.0))
    with pytest.raises(InvalidConfig):
        nearest_rank(v, 0.0)


def test_model_validation():
    with pytest.raises(InvalidConfig):
        crb_distribution(SystemParams(), "rss", trials=2, seed=1)
    for trials in (0, 2.5, True, 3.0, "3"):
        with pytest.raises(InvalidConfig, match="trials must be an integer"):
            crb_distribution(SystemParams(), "tdoa", trials=trials, seed=1)
    # counts that are not integers are rejected, never truncated
    for n_samples in (10_000.9, 10_000.0, True):
        with pytest.raises(InvalidConfig, match="n_samples must be an integer"):
            mean_fim(SystemParams(), "tdoa", n_samples, seed=1)
    for n_list in ([2.5], [250, 1e3], [True]):
        with pytest.raises(InvalidConfig, match="n_sats must be an integer"):
            convergence_sweep(SystemParams(), "tdoa", n_list, trials=2, seed=1)


def test_distribution_shape_and_determinism():
    d1 = crb_distribution(SystemParams(n_sats=120), "tdoa", trials=40, seed=7)
    d2 = crb_distribution(SystemParams(n_sats=120), "tdoa", trials=40, seed=7)
    d3 = crb_distribution(SystemParams(n_sats=120), "tdoa", trials=40, seed=8)
    assert np.array_equal(d1.samples_xy, d2.samples_xy)
    assert np.array_equal(d1.samples_z, d2.samples_z)
    assert not np.array_equal(d1.samples_xy, d3.samples_xy)
    assert len(d1.samples_xy) == d1.trials - d1.singular_count
    assert len(d1.samples_z) == len(d1.samples_xy)
    assert (d1.samples_xy > 0).all() and (d1.samples_z > 0).all()
    assert np.all(np.diff(d1.samples_xy) >= 0)


def test_percentiles_order_consistent():
    d = crb_distribution(SystemParams(n_sats=150), "tdoa", trials=60, seed=3)
    s = d.summary()
    assert s["p10_xy"] <= d.median_xy == s["median_xy"] <= s["p90_xy"]
    assert s["p10_z"] <= d.median_z == s["median_z"] <= s["p90_z"]


def test_all_singular_run_is_flagged():
    d = crb_distribution(SystemParams(n_sats=3), "tdoa", trials=10, seed=5)
    assert d.singular_count == d.trials == 10
    assert len(d.samples_xy) == 0 and len(d.samples_z) == 0
    assert math.isnan(d.median_xy) and math.isnan(d.median_z)


def test_rss_no_worse_per_trial():
    params = SystemParams(n_sats=120, eta=400.0)
    for trial in range(25):
        v, d = masked_sky(params, seed=11, trial=trial)
        if d.size < 4:
            continue
        u = timing_rows(v)
        jt = tdoa_gram(u, d, params)
        jr = tdoa_rss_gram(u, d, params)
        bt = crb_from_fim(jt)
        br = crb_from_fim(jr)
        assert br.xy <= bt.xy * (1.0 + 1e-12)
        assert br.z <= bt.z * (1.0 + 1e-12)


def test_rss_model_needs_split():
    with pytest.raises(InvalidConfig):
        crb_distribution(SystemParams(n_sats=50), "tdoa_rss", trials=2, seed=1)


def test_convergence_sweep_rows():
    rows = convergence_sweep(
        SystemParams(), "tdoa", n_list=[250, 1000], trials=60, seed=21
    )
    assert [r.n_sats for r in rows] == [250, 1000]
    limit = lcrb_tdoa(SystemParams())
    for r in rows:
        assert isinstance(r, ConvergenceRow)
        assert r.lcrb_xy == limit.xy and r.lcrb_z == limit.z
        assert r.p10_xy <= r.median_xy <= r.p90_xy
        assert r.p10_z <= r.median_z <= r.p90_z
    # the empirical band around the limit narrows with N
    w250 = (rows[0].p90_xy - rows[0].p10_xy) / rows[0].median_xy
    w1000 = (rows[1].p90_xy - rows[1].p10_xy) / rows[1].median_xy
    assert w1000 < w250
    with pytest.raises(InvalidConfig):
        convergence_sweep(SystemParams(), "tdoa", [], 10, 1)


def test_median_tracks_limit_at_large_n():
    rows = convergence_sweep(SystemParams(), "tdoa", [2000], trials=60, seed=2)
    r = rows[0]
    assert abs(r.median_xy / r.lcrb_xy - 1.0) < 0.10
    assert abs(r.median_z / r.lcrb_z - 1.0) < 0.10
    assert r.median_xy < r.median_z  # vertical is harder at the defaults


def test_parameter_sweep_h_axis():
    """Along h at N = 200: coverage reaches the design rule from 2500 km on,
    and above it the ACRB grows with h."""
    points = [SystemParams(n_sats=200, h=h) for h in (1000.0, 2500.0, 10000.0, 35000.0)]
    coverage = [coverage_prob(p) for p in points]
    assert [c >= COVERAGE_RULE for c in coverage] == [False, True, True, True]
    acrbs = [b.xy + b.z for b in map(acrb, points)]
    assert acrbs[1] < acrbs[2] < acrbs[3]
    for p, cov in zip(points, coverage):
        assert 0.0 <= cov <= 1.0
        dist = crb_distribution(p, "tdoa", trials=30, seed=17)
        s = dist.summary()
        assert s["p10_xy"] <= dist.median_xy <= s["p90_xy"]


def test_parameter_sweep_phi_axis():
    """Along phi_l_max at N = 2000, every point covered: opening the cone
    from 10 to 60 degrees lowers the median N*CRB of z more than of xy."""
    points = [
        SystemParams(n_sats=2000, phi_l_max=math.radians(deg)) for deg in (10.0, 25.0, 60.0)
    ]
    assert all(coverage_prob(p) >= COVERAGE_RULE for p in points)
    narrow, wide = (crb_distribution(p, "tdoa", trials=30, seed=4) for p in (points[0], points[-1]))
    drop_xy = narrow.median_xy / wide.median_xy
    drop_z = narrow.median_z / wide.median_z
    assert drop_z > drop_xy > 1.0


def test_mean_fim_structure():
    params = SystemParams()
    j = mean_fim(params, "tdoa", n_samples=40_000, seed=13)
    assert j.shape == (4, 4)
    assert np.allclose(j, j.T)
    m = moment_integrals(params)
    # diagonal entries estimate the cup moments
    assert j[3, 3] == pytest.approx(m.m_l, rel=0.03)
    assert j[0, 0] == pytest.approx(j[1, 1], rel=0.05)
    assert j[0, 0] + j[1, 1] == pytest.approx(m.m_l_sin2, rel=0.05)
    assert j[2, 2] == pytest.approx(m.m_l_cos2, rel=0.05)
    assert j[2, 3] == pytest.approx(-m.m_l_cos, rel=0.05)
    # off-block entries vanish in expectation over the azimuth
    dmin = min(j[0, 0], j[1, 1], j[2, 2], j[3, 3])
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)):
        assert abs(j[a, b]) < 0.05 * dmin
    with pytest.raises(InvalidConfig):
        mean_fim(params, "tdoa", n_samples=5000, seed=1)


def test_mean_fim_deterministic():
    a = mean_fim(SystemParams(), "tdoa", n_samples=10_000, seed=2)
    b = mean_fim(SystemParams(), "tdoa", n_samples=10_000, seed=2)
    assert np.array_equal(a, b)


# Two-sample KS of the scaled bounds against the whole-sphere draw, which
# shares no stream with the cup draw but has the same law. Trials, seed and
# the per-test level were fixed before the first run.
LAW_TRIALS = 4000
LAW_SEED = 4242
LAW_ALPHA = 1e-3


@pytest.mark.parametrize("model", ["tdoa", "tdoa_rss"])
@pytest.mark.parametrize("n_sats", [250, 2000])
def test_scaled_bound_law_matches_the_whole_sphere_draw(model, n_sats):
    params = SystemParams(n_sats=n_sats, eta=0.0025)
    dist = crb_distribution(params, model, LAW_TRIALS, LAW_SEED)
    xs, zs, _ = reference_distribution(params, model, LAW_TRIALS, LAW_SEED, masked_sky)
    assert ks_2samp(dist.samples_xy, xs).pvalue >= LAW_ALPHA
    assert ks_2samp(dist.samples_z, zs).pvalue >= LAW_ALPHA
