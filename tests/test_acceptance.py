"""End-to-end acceptance gates.

Thirteen numbered criteria, one test each, every test printing a single
PASS/FAIL line with its measured values and runtime. Two criteria (06 and 08)
state gates that the exact mathematics of this model does not meet; they are
implemented at their stated tolerances regardless and fail honestly, printing
the measured values. One more test pins criterion 08's N -> infinity gap.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from satcrb import (
    CollinearSensors,
    PlanarSensors,
    SingularInformation,
    SystemParams,
    acrb,
    aacrb,
    coverage_prob,
    crb_distribution,
    crb_from_fim,
    decoupling_check,
    lcrb_tdoa,
    lcrb_tdoa_from_moments,
    lcrb_tdoa_rss,
    lcrb_tdoa_rss_from_moments,
    limit_coefficients,
    mean_fim,
    min_height_for_coverage,
    moment_integrals,
    mse_experiment,
    planar_crb_closed,
    planar_crb_fim,
    quadrature_moments,
    rss_negligibility_threshold,
    tdoa_gram,
    tdoa_rss_gram,
    visible_sky,
    zenith_ring_geometry,
)
from satcrb.cli import main
from satcrb.signal_ml import default_signal_config

SEED = 20260819
DEFAULTS = SystemParams()  # r=6371 km, h=20000 km, 60 deg, eta*rho=6.4e13, N=250


def _grid():
    """(h, phi_l_max) evaluation grid shared by the oracle criteria."""
    for h in np.geomspace(500.0, 40000.0, 10):
        for phi_deg in np.linspace(5.0, 90.0, 10):
            yield float(h), math.radians(float(phi_deg))


def _split_params(h: float, phi: float) -> SystemParams:
    return dataclasses.replace(DEFAULTS, h=h, phi_l_max=phi, eta=1.0e6 / h**2)


def _report(num: int, name: str, ok: bool, detail: str, dt: float, budget: float):
    line = (
        f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail} "
        f"(runtime {dt:.2f}s, budget {budget:.0f}s)"
    )
    print(line)
    assert dt < budget, line
    assert ok, line


def test_criterion_01_moment_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for h, phi in _grid():
        p = _split_params(h, phi)
        closed = moment_integrals(p)
        quad = quadrature_moments(p, n_points=128)
        for field in ("m_l", "m_l_cos", "m_l_sin2", "m_k_sin2", "m_k_cos2"):
            a, b = getattr(closed, field), getattr(quad, field)
            worst = max(worst, abs(a - b) / abs(b))
    dt = time.perf_counter() - t0
    _report(1, "closed moments vs quadrature", worst < 1e-8,
            f"max_rel={worst:.3e} gate=1e-08", dt, 1.0)


def test_criterion_02_limit_formula_routes():
    t0 = time.perf_counter()
    worst = 0.0
    for h, phi in _grid():
        p = _split_params(h, phi)
        moments = moment_integrals(p)
        for literal, assembled in (
            (lcrb_tdoa(p), lcrb_tdoa_from_moments(moments)),
            (lcrb_tdoa_rss(p), lcrb_tdoa_rss_from_moments(moments)),
        ):
            worst = max(
                worst,
                abs(literal.xy - assembled.xy) / assembled.xy,
                abs(literal.z - assembled.z) / assembled.z,
            )
    dt = time.perf_counter() - t0
    _report(2, "literal limit formulas vs moment assembly", worst < 1e-9,
            f"max_rel={worst:.3e} gate=1e-09", dt, 1.0)


def test_criterion_03_montecarlo_convergence():
    t0 = time.perf_counter()
    dist = crb_distribution(
        dataclasses.replace(DEFAULTS, n_sats=2000), "tdoa", trials=200, seed=SEED
    )
    limit = lcrb_tdoa(DEFAULTS)
    dev_xy = abs(dist.median_xy / limit.xy - 1.0)
    dev_z = abs(dist.median_z / limit.z - 1.0)
    dt = time.perf_counter() - t0
    _report(3, "scaled-bound median vs limit at N=2000", max(dev_xy, dev_z) < 0.05,
            f"dev_xy={dev_xy:.3e} dev_z={dev_z:.3e} gate=5e-02", dt, 30.0)


def test_criterion_04_concentration():
    t0 = time.perf_counter()
    dist = crb_distribution(
        dataclasses.replace(DEFAULTS, n_sats=420), "tdoa", trials=2000, seed=SEED
    )
    xy, z = dist.samples_xy, dist.samples_z
    med_xy, med_z = float(np.median(xy)), float(np.median(z))
    frac_xy = float(np.mean((xy >= 0.64 * med_xy) & (xy <= 1.36 * med_xy)))
    frac_z = float(np.mean((z >= 0.50 * med_z) & (z <= 1.50 * med_z)))
    dt = time.perf_counter() - t0
    _report(4, "bound concentration at N=420", frac_xy >= 0.75 and frac_z >= 0.75,
            f"frac_xy(within 36%)={frac_xy:.3f} frac_z(within 50%)={frac_z:.3f} gate>=0.75",
            dt, 60.0)


def test_criterion_05_height_limits():
    t0 = time.perf_counter()
    coeff = limit_coefficients(DEFAULTS)
    low = acrb(dataclasses.replace(DEFAULTS, h=0.01))
    h_hi = 1.0e8
    high = acrb(dataclasses.replace(DEFAULTS, h=h_hi))
    devs = (
        abs(low.xy / coeff.alpha_xy - 1.0),
        abs(low.z / coeff.alpha_z - 1.0),
        abs(high.xy / (coeff.beta_xy * h_hi**2) - 1.0),
        abs(high.z / (coeff.beta_z * h_hi**2) - 1.0),
    )
    dt = time.perf_counter() - t0
    _report(5, "low/high-height limit coefficients", max(devs) < 1e-3,
            f"devs=({devs[0]:.2e},{devs[1]:.2e},{devs[2]:.2e},{devs[3]:.2e}) gate=1e-03",
            dt, 1.0)


def test_criterion_06_two_term_approximation_factor():
    # The 2.2854 this measures is the maths, not the closed form's rounding:
    # at the worst point, h = 5011.8 km, the ACRB from the 512-node
    # quadrature moments agrees with the closed form to 3.0e-15 on xy and
    # gives the same factor (2.2854 on xy; 2.2124 on z). The gate stays 2.2.
    t0 = time.perf_counter()
    worst = 0.0
    for h in np.geomspace(500.0, 40000.0, 2001):
        p = dataclasses.replace(DEFAULTS, h=float(h))
        exact = acrb(p)
        approx = aacrb(p)
        for e, a in ((exact.xy, approx.xy), (exact.z, approx.z)):
            worst = max(worst, e / a, a / e)
    dt = time.perf_counter() - t0
    _report(6, "two-term approximation deviation factor", worst <= 2.2,
            f"max_factor={worst:.4f} gate<=2.2", dt, 1.0)


def test_criterion_07_coverage_design_points():
    t0 = time.perf_counter()
    p1 = coverage_prob(
        dataclasses.replace(DEFAULTS, n_sats=250, phi_l_max=math.radians(24.5))
    )
    p2 = coverage_prob(
        dataclasses.replace(DEFAULTS, n_sats=2000, phi_l_max=math.radians(8.7))
    )
    h200 = min_height_for_coverage(dataclasses.replace(DEFAULTS, n_sats=200), 0.9)
    h2000 = min_height_for_coverage(dataclasses.replace(DEFAULTS, n_sats=2000), 0.9)
    ok = (
        abs(p1 - 0.90) <= 0.01
        and abs(p2 - 0.90) <= 0.01
        and abs(h200 / 2400.0 - 1.0) <= 0.10
        and abs(h2000 / 500.0 - 1.0) <= 0.10
    )
    dt = time.perf_counter() - t0
    _report(7, "coverage design points", ok,
            f"p(250,24.5deg)={p1:.4f} p(2000,8.7deg)={p2:.4f} "
            f"h_min(200)={h200:.0f}km h_min(2000)={h2000:.0f}km", dt, 1.0)


# criterion 08's system: N = 50 at the default h = 20 000 km, eta = 1e6/h^2
RSS_GAP_PARAMS = dataclasses.replace(DEFAULTS, n_sats=50, eta=1.0e6 / DEFAULTS.h**2)


def bandwidth_gaps() -> tuple[list[float], list[float]]:
    """Criterion 08's relative gaps between the TDOA+RSS and the TDOA-only
    bound, xy and z, over the first 20 draws of trial seeds SEED, SEED + 1,
    ... whose information is invertible, at N = 50 and eta = 1e6/h^2."""
    p = RSS_GAP_PARAMS
    gaps_xy, gaps_z = [], []
    trial = 0
    while len(gaps_xy) < 20 and trial < 200:
        sky = visible_sky(p, SEED + trial)
        trial += 1
        try:
            tdoa_only = crb_from_fim(tdoa_gram(*sky, p))
            combined = crb_from_fim(tdoa_rss_gram(*sky, p))
        except SingularInformation:
            continue
        gaps_xy.append(abs(combined.xy - tdoa_only.xy) / tdoa_only.xy)
        gaps_z.append(abs(combined.z - tdoa_only.z) / tdoa_only.z)
    return gaps_xy, gaps_z


def test_criterion_08_bandwidth_gap():
    t0 = time.perf_counter()
    threshold = rss_negligibility_threshold(20000.0, 3.0e5)
    gaps_xy, gaps_z = bandwidth_gaps()
    worst = max(max(gaps_xy), max(gaps_z))
    ok = threshold == 15.0 and worst < 3e-6
    dt = time.perf_counter() - t0
    _report(8, "amplitude-information negligibility gap", ok,
            f"threshold={threshold}Hz max_gap_xy={max(gaps_xy):.3e} "
            f"max_gap_z={max(gaps_z):.3e} gate=3e-06 over {len(gaps_xy)} draws",
            dt, 5.0)


def limit_gaps() -> dict[str, tuple[float, float]]:
    """Criterion 08's gaps as N -> infinity, 1 - LCRB_tdoa+rss / LCRB_tdoa for
    xy and z, by two routes: the closed forms, and the 512-node quadrature
    of the cup moments."""
    p = RSS_GAP_PARAMS
    quad = quadrature_moments(p, n_points=512)
    routes = {
        "closed form": (lcrb_tdoa_rss(p), lcrb_tdoa(p)),
        "quadrature": (lcrb_tdoa_rss_from_moments(quad), lcrb_tdoa_from_moments(quad)),
    }
    return {
        name: (1.0 - rss.xy / tdoa.xy, 1.0 - rss.z / tdoa.z)
        for name, (rss, tdoa) in routes.items()
    }


def test_criterion_08_limit_gap_by_two_routes():
    """The limit gaps agree between the two routes to 1e-8 relative (about
    1e-10 is measured) and hold the values the README quotes. The z gap is
    itself above criterion 08's 3e-6 gate."""
    gaps = limit_gaps()
    for closed, quad in zip(gaps["closed form"], gaps["quadrature"]):
        assert closed == pytest.approx(quad, rel=1e-8, abs=0.0)
    for route in gaps.values():
        assert [f"{gap:.3e}" for gap in route] == ["8.546e-07", "2.544e-05"]


def test_criterion_09_ml_efficiency():
    t0 = time.perf_counter()
    threshold_db = 10.0
    snr_grid = [6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0]
    rows = mse_experiment(
        zenith_ring_geometry(DEFAULTS),
        default_signal_config(c=DEFAULTS.c),
        snr_grid,
        trials=200,
        seed=SEED,
    )
    above = [r for r in rows if r.snr_db >= threshold_db]
    ratios = [(r.mse_xy / r.crb_xy, r.mse_xyz / r.crb_xyz) for r in above]
    in_gate = all(0.8 <= v <= 2.0 for pair in ratios for v in pair)
    mono = all(
        a.mse_xy >= b.mse_xy and a.mse_xyz >= b.mse_xyz
        for a, b in zip(above, above[1:])
    )
    ordering = all(r.mse_xyz > r.mse_xy for r in above)
    lo = min(v for pair in ratios for v in pair)
    hi = max(v for pair in ratios for v in pair)
    dt = time.perf_counter() - t0
    _report(9, "ML estimator efficiency above threshold", in_gate and mono and ordering,
            f"ratios in [{lo:.3f},{hi:.3f}] gate=[0.8,2.0] monotone={mono} "
            f"3d>2d={ordering} threshold={threshold_db:.0f}dB trials=200", dt, 300.0)


def test_criterion_10_amplitude_decoupling():
    t0 = time.perf_counter()
    coupling = decoupling_check(
        zenith_ring_geometry(DEFAULTS), default_signal_config(c=DEFAULTS.c)
    )
    dt = time.perf_counter() - t0
    _report(10, "amplitude nuisance decoupling", coupling < 1e-3,
            f"max_normalized_coupling={coupling:.3e} gate=1e-03", dt, 30.0)


def test_criterion_11_planar_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 8))
        sensors = PlanarSensors(
            angles=tuple(rng.uniform(0.0, 2.0 * math.pi, m)),
            distances=tuple(rng.uniform(1.0, 100.0, m)),
            gamma=float(rng.uniform(1.0, 3.0)),
            w_e=1.0e6,
            rho=100.0,
            c=DEFAULTS.c,
        )
        closed, direct = planar_crb_closed(sensors), planar_crb_fim(sensors)
        worst = max(worst, abs(closed - direct) / direct)
    d = 40.0
    sym = PlanarSensors(
        angles=(0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0),
        distances=(d, d, d),
        gamma=2.0,
        w_e=1.0e6,
        rho=100.0,
        c=DEFAULTS.c,
    )
    want = sym.c**2 * d**sym.gamma / (3.0 * sym.w_e * sym.rho)
    sym_dev = abs(planar_crb_closed(sym) / want - 1.0)
    collinear_raises = False
    try:
        planar_crb_closed(
            PlanarSensors(
                angles=(0.2, 0.2 + math.pi, 0.2),
                distances=(5.0, 9.0, 14.0),
                gamma=2.0,
                w_e=1.0e6,
                rho=100.0,
                c=DEFAULTS.c,
            )
        )
    except CollinearSensors:
        collinear_raises = True
    ok = worst < 1e-10 and sym_dev < 1e-10 and collinear_raises
    dt = time.perf_counter() - t0
    _report(11, "planar closed form vs direct inversion", ok,
            f"max_rel={worst:.3e} sym_dev={sym_dev:.3e} collinear_raises={collinear_raises}",
            dt, 1.0)


def test_criterion_12_mean_information_structure():
    t0 = time.perf_counter()
    j = mean_fim(DEFAULTS, "tdoa", n_samples=100_000, seed=12)
    m = moment_integrals(DEFAULTS)
    dmin = min(j[0, 0], j[1, 1], j[2, 2], j[3, 3])
    off = max(abs(j[a, b]) for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
    clock_dev = abs(j[3, 3] / m.m_l - 1.0)
    ok = off < 0.02 * dmin and clock_dev < 0.01
    dt = time.perf_counter() - t0
    _report(12, "mean information block structure", ok,
            f"off/dmin={off / dmin:.4f} gate=0.02 clock_dev={clock_dev:.4f} gate=0.01",
            dt, 5.0)


def test_criterion_13_command_determinism():
    t0 = time.perf_counter()
    runner = CliRunner()
    commands = {
        "bounds": ["--seed", "77", "bounds", "--grid", "500:40000:5"],
        "montecarlo": ["--seed", "77", "montecarlo", "--trials", "10", "--n-list", "250"],
        "coverage": ["--seed", "77", "coverage", "--query", "prob"],
        "ml": ["--seed", "77", "ml", "--snr-grid", "18", "--trials", "50"],
        "verify": ["--seed", "77", "verify"],
    }
    stable = {}
    for name, args in commands.items():
        first = runner.invoke(main, args, catch_exceptions=False)
        second = runner.invoke(main, args, catch_exceptions=False)
        stable[name] = (
            first.exit_code == 0
            and second.exit_code == 0
            and first.stdout_bytes == second.stdout_bytes
        )
    dt = time.perf_counter() - t0
    _report(13, "byte-identical command reruns", all(stable.values()),
            " ".join(f"{k}={v}" for k, v in stable.items()), dt, 120.0)
