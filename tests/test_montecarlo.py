"""Random-constellation experiment tests."""

import dataclasses
import math

import numpy as np
import pytest

from satcrb.closed_form import lcrb_tdoa, moment_integrals
from satcrb.fim import COND_LIMIT, crb_from_fim, fim_tdoa_arrays, fim_tdoa_rss_arrays
from satcrb.geometry import (
    InvalidConfig,
    SystemParams,
    _trials_per_chunk,
    local_frame,
    sample_constellation,
)
from satcrb.montecarlo import (
    ConvergenceRow,
    CrbDistribution,
    convergence_sweep,
    crb_distribution,
    mean_fim,
    nearest_rank,
    parameter_sweep,
)

SPLIT = SystemParams(eta=400.0)


def visible_sats(params, seed, trial):
    """(v, d) of one draw the direct way: all N satellites to the local
    frame, then the visible ones' lines of sight from their angles."""
    c = sample_constellation(params, seed, trial=trial)
    d, cos_l, sin_l = local_frame(c.cos_phi_e, params)
    vis = cos_l >= params.zeta
    theta = c.theta[vis]
    v = np.stack(
        [sin_l[vis] * np.cos(theta), sin_l[vis] * np.sin(theta), cos_l[vis]], axis=-1
    )
    return v, d[vis]


def reference_trial_bounds(params, model, seed, trial):
    """One trial the direct way: visible_sats, then the single-matrix gate
    and solve; None for a singular draw."""
    v, d = visible_sats(params, seed, trial)
    if d.size < 4:
        return None
    build = fim_tdoa_rss_arrays if model == "tdoa_rss" else fim_tdoa_arrays
    m = build(v, d, params)
    if not (
        np.all(np.isfinite(m))
        and np.linalg.det(m) > 0.0
        and np.linalg.cond(m) < COND_LIMIT
    ):
        return None
    inv = np.linalg.solve(m, np.eye(4))
    return float(inv[0, 0] + inv[1, 1]), float(inv[2, 2])


def reference_distribution(params, model, trials, seed):
    """The trial-by-trial loop crb_distribution must reproduce bit for bit."""
    results = [reference_trial_bounds(params, model, seed, t) for t in range(trials)]
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
@pytest.mark.parametrize("n_sats", [250, 2000, 100_000])
def test_distribution_matches_reference_across_chunk_boundaries(model, n_sats):
    """Trial counts one below, at and one above a chunk of trials, and one
    above two chunks; at N = 1e5 a chunk is a single trial."""
    params = SystemParams(n_sats=n_sats, eta=0.0025)
    size = _trials_per_chunk(n_sats)
    assert (size == 1) == (n_sats == 100_000)
    for trials in sorted({max(size - 1, 1), size, size + 1, 2 * size + 1}):
        assert_matches_reference(params, model, trials=trials, seed=size + trials)


def test_uncovered_draws_are_counted():
    dist = crb_distribution(SystemParams(n_sats=2000), "tdoa", trials=200, seed=5)
    assert dist.uncovered_count == 0
    for n_sats in (4, 12):
        p = SystemParams(n_sats=n_sats)
        dist = crb_distribution(p, "tdoa", trials=300, seed=5)
        # the trials short of four visible satellites, and only those
        visible = [visible_sats(p, 5, t)[1].size for t in range(300)]
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
    with pytest.raises(InvalidConfig):
        crb_distribution(SystemParams(), "tdoa", trials=0, seed=1)


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
    assert d.percentile_xy(10.0) <= d.median_xy <= d.percentile_xy(90.0)
    assert d.percentile_z(10.0) <= d.median_z <= d.percentile_z(90.0)


def test_all_singular_run_is_flagged():
    d = crb_distribution(SystemParams(n_sats=3), "tdoa", trials=10, seed=5)
    assert d.singular_count == 10
    assert d.all_singular
    assert len(d.samples_xy) == 0 and len(d.samples_z) == 0


def test_rss_no_worse_per_trial():
    params = SystemParams(n_sats=120, eta=400.0)
    for trial in range(25):
        v, d = visible_sats(params, seed=11, trial=trial)
        if d.size < 4:
            continue
        jt = fim_tdoa_arrays(v, d, params)
        jr = fim_tdoa_rss_arrays(v, d, params)
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
    rows = parameter_sweep(
        SystemParams(n_sats=200),
        "tdoa",
        axis="h",
        grid=[1000.0, 2500.0, 10000.0, 35000.0],
        n=200,
        trials=30,
        seed=17,
    )
    assert [r.covered for r in rows] == [False, True, True, True]
    acrbs = [r.acrb_xy + r.acrb_z for r in rows]
    assert acrbs[1] < acrbs[2] < acrbs[3]  # grows with h above coverage
    for r in rows:
        assert 0.0 <= r.coverage <= 1.0
        assert r.p10_xy <= r.median_xy <= r.p90_xy


def test_parameter_sweep_phi_axis():
    rows = parameter_sweep(
        SystemParams(n_sats=2000),
        "tdoa",
        axis="phi_l_max",
        grid=[math.radians(10.0), math.radians(25.0), math.radians(60.0)],
        n=2000,
        trials=30,
        seed=4,
    )
    assert all(r.covered for r in rows)
    # opening the cone helps z more than xy
    drop_xy = rows[0].median_xy / rows[-1].median_xy
    drop_z = rows[0].median_z / rows[-1].median_z
    assert drop_z > drop_xy > 1.0
    with pytest.raises(InvalidConfig):
        parameter_sweep(SystemParams(), "tdoa", "r", [6000.0], 100, 5, 1)


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
