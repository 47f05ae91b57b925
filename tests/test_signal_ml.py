"""Tests for the sampled-signal model and the ML localizer."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcrb.fim import SingularInformation
from satcrb.geometry import InvalidConfig, SystemParams, shell_distance
from satcrb.signal_ml import (
    InsufficientCoverage,
    LocationEstimate,
    Measurement,
    SignalConfig,
    _ascend,
    _lattice_offsets,
    _matched_filter,
    _Profile,
    _profile,
    _pulse,
    centered_t0,
    decoupling_check,
    effective_bandwidth,
    effective_bandwidth_time,
    make_pulse,
    ml_localize,
    mse_experiment,
    rss_negligibility_threshold,
    sat_positions,
    signal_crb,
    signal_fim,
    simulate_measurements,
    zenith_ring_geometry,
)

C_KM_S = 299792.458
W_E = 1.0e4  # Hz, target effective bandwidth of the default test pulse
GAUSS_SIGMA = 1.0 / (2.0 * math.pi * math.sqrt(2.0) * W_E)
RC_PERIOD = 1.0 / (math.sqrt(3.0) * W_E)


def gauss_cfg(**over) -> SignalConfig:
    base = dict(
        pulse="gaussian",
        pulse_width=GAUSS_SIGMA,
        sample_rate=1.5e6,
        obs_window=2.6e-3,
        n0=1.0e-2,
        es_max=1.0,
        c=C_KM_S,
    )
    base.update(over)
    return SignalConfig(**base)


def rc_cfg(**over) -> SignalConfig:
    base = dict(
        pulse="raised_cosine",
        pulse_width=RC_PERIOD,
        sample_rate=16.0 / RC_PERIOD,
        obs_window=2.6e-3,
        n0=1.0e-2,
        es_max=1.0,
        c=C_KM_S,
    )
    base.update(over)
    return SignalConfig(**base)


def ring_positions() -> np.ndarray:
    return sat_positions(zenith_ring_geometry(SystemParams()))


def reference_profiled_score(samples, taus, config) -> float:
    """Sum over satellites of C_m(tau_m)^2 / E_m(tau_m): the per-satellite
    loop that the vectorised `_profile` replaced, kept as its oracle."""
    support_half = 0.5 * config.support
    dt = config.dt
    k = config.n_samples
    total = 0.0
    for v, tau in zip(samples, taus):
        lo = max(0, int(math.ceil((tau - support_half) / dt)))
        hi = min(k - 1, int(math.floor((tau + support_half) / dt)))
        if hi < lo:
            continue
        idx = np.arange(lo, hi + 1)
        s = _pulse(config, idx * dt - tau)[0]
        energy = float(np.dot(s, s))
        if energy <= 0.0:
            continue
        corr = float(np.dot(v[lo : hi + 1], s))
        total += corr * corr / energy
    return total


def noisy_windows(cfg, seed, trial=0):
    pos = ring_positions()
    t0 = centered_t0(pos, cfg)
    meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed, trial=trial)
    return pos, t0, meas, np.array([m.samples for m in meas])


def score_at(est, pos, samples, cfg) -> float:
    taus = np.linalg.norm(pos - est.xi_hat, axis=1) / cfg.c + est.t0_hat
    return _profile(samples, taus, cfg).score


class TestConfigValidation:
    def test_bad_pulse_kind(self):
        with pytest.raises(InvalidConfig):
            gauss_cfg(pulse="chirp")

    @pytest.mark.parametrize(
        "field", ["pulse_width", "sample_rate", "obs_window", "n0", "es_max", "c"]
    )
    def test_nonpositive_fields(self, field):
        with pytest.raises(InvalidConfig):
            gauss_cfg(**{field: 0.0})

    def test_underresolved_pulse(self):
        with pytest.raises(InvalidConfig):
            gauss_cfg(sample_rate=15.9 / GAUSS_SIGMA)

    def test_window_must_exceed_support(self):
        with pytest.raises(InvalidConfig):
            gauss_cfg(obs_window=11.0 * GAUSS_SIGMA)


class TestPulse:
    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_unit_energy(self, cfg):
        sp = make_pulse(cfg)
        assert abs(float(np.dot(sp.samples, sp.samples)) * cfg.dt - 1.0) < 1e-10

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_time_symmetry_and_centering(self, cfg):
        sp = make_pulse(cfg)
        assert len(sp.samples) % 2 == 1
        assert np.array_equal(sp.samples, sp.samples[::-1])
        assert np.argmax(sp.samples) == sp.half_len

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_odd_moment_vanishes(self, cfg):
        sp = make_pulse(cfg)
        assert abs(float(np.dot(sp.samples, sp.deriv)) * cfg.dt) < 1e-8

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_autocorrelation_peaks_at_zero_lag(self, cfg):
        s = make_pulse(cfg).samples
        ac = np.correlate(s, s, mode="full")
        mid = len(s) - 1
        assert np.argmax(ac) == mid
        near = ac[mid : mid + 6]
        assert np.all(np.diff(near) < 0.0)


class TestEffectiveBandwidth:
    def test_gaussian_closed_form(self):
        want = 1.0 / (2.0 * math.pi * GAUSS_SIGMA * math.sqrt(2.0))
        sp = make_pulse(gauss_cfg())
        assert effective_bandwidth_time(sp) == pytest.approx(want, rel=1e-9)
        assert effective_bandwidth(sp) == pytest.approx(want, rel=1e-6)

    def test_raised_cosine_closed_form(self):
        want = 1.0 / (math.sqrt(3.0) * RC_PERIOD)
        sp = make_pulse(rc_cfg())
        assert effective_bandwidth_time(sp) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "cfg",
        [gauss_cfg(), gauss_cfg(sample_rate=16.0 / GAUSS_SIGMA), rc_cfg(),
         rc_cfg(sample_rate=40.0 / RC_PERIOD)],
        ids=["gauss", "gauss-min", "rc-min", "rc-2.5x"],
    )
    def test_routes_agree(self, cfg):
        sp = make_pulse(cfg)
        assert effective_bandwidth(sp) == pytest.approx(
            effective_bandwidth_time(sp), rel=1e-6
        )

    def test_dilation_scales_inversely(self):
        a = 2.75
        w1 = effective_bandwidth_time(make_pulse(gauss_cfg()))
        w2 = effective_bandwidth_time(
            make_pulse(
                gauss_cfg(
                    pulse_width=a * GAUSS_SIGMA,
                    sample_rate=1.5e6 / a,
                    obs_window=a * 2.6e-3,
                )
            )
        )
        assert w1 / w2 == pytest.approx(a, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        width=st.floats(min_value=1e-6, max_value=1e-4),
        oversample=st.floats(min_value=16.1, max_value=64.0),
    )
    def test_route_agreement_property(self, width, oversample):
        cfg = rc_cfg(
            pulse_width=width,
            sample_rate=oversample / width,
            obs_window=3.0 * width,
        )
        sp = make_pulse(cfg)
        assert abs(float(np.dot(sp.samples, sp.samples)) / cfg.sample_rate - 1.0) < 1e-10
        assert effective_bandwidth(sp) == pytest.approx(
            effective_bandwidth_time(sp), rel=1e-6
        )

    def test_rss_threshold_example(self):
        assert rss_negligibility_threshold(20000.0, 3.0e5) == pytest.approx(15.0)


class TestGeometryHelpers:
    def test_zenith_ring_shape(self):
        params = SystemParams()
        pos = zenith_ring_geometry(params)
        assert pos.shape == (6, 3)
        assert np.array_equal(pos[0], [0.0, 0.0, params.h])
        d = np.linalg.norm(pos, axis=1)
        ring_d = shell_distance(math.radians(30.0), params)
        assert d[1:] == pytest.approx(np.full(5, ring_d), rel=1e-14)
        zenith_angle = np.arccos(pos[1:, 2] / d[1:])
        assert zenith_angle == pytest.approx(np.full(5, math.radians(30.0)), rel=1e-12)
        azimuth = np.arctan2(pos[1:, 1], pos[1:, 0]) % (2.0 * math.pi)
        assert azimuth == pytest.approx(2.0 * math.pi * np.arange(5) / 5, abs=1e-12)

    def test_shell_distance_zenith_is_height(self):
        params = SystemParams()
        assert shell_distance(0.0, params) == pytest.approx(params.h, rel=1e-15)

    def test_shell_distance_horizon(self):
        params = SystemParams()
        d = shell_distance(math.pi / 2.0, params)
        want = math.sqrt(params.big_r**2 - params.r**2)
        assert d == pytest.approx(want, rel=1e-12)

    def test_sat_positions_validates_shape(self):
        with pytest.raises(InvalidConfig):
            sat_positions(np.zeros((4, 2)))

    def test_centered_t0_keeps_arrivals_interior(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        tau = np.linalg.norm(pos, axis=1) / cfg.c + t0
        assert np.all(tau > 0.5 * cfg.support)
        assert np.all(tau < cfg.obs_window - 0.5 * cfg.support)


class TestSimulate:
    def test_needs_four_satellites(self):
        cfg = gauss_cfg()
        pos = ring_positions()[:3]
        with pytest.raises(InsufficientCoverage):
            simulate_measurements((np.zeros(3), 0.0), pos, cfg, seed=1)

    def test_shapes_and_delays(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=3)
        assert len(meas) == 6
        for m in meas:
            assert len(m.samples) == cfg.n_samples
            want = np.linalg.norm(pos[m.sat_index]) / cfg.c + t0
            assert m.true_delay == pytest.approx(want, rel=1e-15)

    def test_deterministic_and_seed_sensitive(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        a = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=5, trial=2)
        b = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=5, trial=2)
        c = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=5, trial=3)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.samples, mb.samples)
        assert not np.array_equal(a[0].samples, c[0].samples)

    def test_noiseless_matched_filter_recovers_delay(self):
        cfg = gauss_cfg(n0=1e-300)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg) + 0.37 * cfg.dt
        meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        sp = make_pulse(cfg)
        for m in meas:
            # full correlation index ph + j holds sum_k v[k] s((k - j) dt)
            corr = np.correlate(m.samples, sp.samples, mode="full")
            j_hat = int(np.argmax(corr)) - sp.half_len
            assert abs(j_hat * cfg.dt - m.true_delay) <= 0.5 * cfg.dt

    def test_amplitude_law(self):
        """Noiseless samples reproduce A_m s(t - tau_m) with A_m = (h/D_m) sqrt(es_max)."""
        cfg = gauss_cfg(n0=1e-300, es_max=4.0)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        d = np.linalg.norm(pos, axis=1)
        t_axis = np.arange(cfg.n_samples) * cfg.dt
        for m in meas:
            a_m = (d.min() / d[m.sat_index]) * 2.0
            clean = a_m * _pulse(cfg, t_axis - m.true_delay)[0]
            assert np.allclose(m.samples, clean, atol=1e-12, rtol=0.0)


class TestCalibration:
    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_delay_information_identity(self, cfg):
        """Discrete per-satellite delay information matches
        2 (E/N0) (2 pi W_e)^2 well within 2 percent."""
        k = cfg.n_samples
        tax = np.arange(k) * cfg.dt
        sd = _pulse(cfg, tax - 0.5 * cfg.obs_window)[1]
        j_num = 2.0 * cfg.dt / cfg.n0 * float(np.dot(sd, sd))
        w_e = effective_bandwidth_time(make_pulse(cfg))
        j_ana = 2.0 / cfg.n0 * (2.0 * math.pi * w_e) ** 2
        assert j_num == pytest.approx(j_ana, rel=0.02)

    def test_fim_clock_entry_is_weight_sum(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        j = signal_fim(pos, cfg).m
        w_e = effective_bandwidth_time(make_pulse(cfg))
        d = np.linalg.norm(pos, axis=1)
        amps2 = (d.min() / d) ** 2 * cfg.es_max
        ell = 2.0 * amps2 / cfg.n0 * (2.0 * math.pi * w_e / cfg.c) ** 2
        assert j[3, 3] == pytest.approx(float(ell.sum()), rel=1e-12)

    def test_ring_geometry_vertical_penalty_exceeds_ten(self):
        bounds = signal_crb(ring_positions(), gauss_cfg(), mode="full_3d")
        assert bounds.z / bounds.xy > 10.0

    def test_fix_z_reduction_is_gated_on_conditioning(self):
        # four satellites 1 m off the zenith axis: the reduced (x, y, cT0)
        # information has a positive determinant but cond ~8e14
        cfg = gauss_cfg()
        ang = np.arange(4) * math.pi / 2.0
        pos = np.stack([1e-3 * np.cos(ang), 1e-3 * np.sin(ang), np.full(4, 2.0e4)], axis=1)
        j3 = signal_fim(pos, cfg).m[np.ix_([0, 1, 3], [0, 1, 3])]
        assert np.linalg.det(j3) > 0.0 and np.linalg.cond(j3) >= 1e12
        with pytest.raises(SingularInformation):
            signal_crb(pos, cfg, mode="fix_z")

    def test_fix_z_reduction_never_hurts(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        full = signal_crb(pos, cfg, mode="full_3d")
        fixed = signal_crb(pos, cfg, mode="fix_z")
        # the five-fold ring symmetry decouples xy from (z, cT0) exactly,
        # so equality holds here; dropping one ring satellite breaks the
        # symmetry and the reduction helps strictly
        assert fixed.xy <= full.xy
        assert fixed.xy == pytest.approx(full.xy, rel=1e-12)
        assert fixed.z == 0.0
        broken = pos[:-1]
        assert (
            signal_crb(broken, cfg, "fix_z").xy < signal_crb(broken, cfg, "full_3d").xy
        )


class TestProfiledScore:
    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_matches_reference_loop(self, cfg):
        _, _, _, samples = noisy_windows(cfg, seed=21)
        rng = np.random.default_rng(5)
        half = 0.5 * cfg.support
        clipped = 0
        for _ in range(40):
            # delays reach past both ends of the window, so some pulse
            # windows are clipped and some fall outside altogether
            taus = rng.uniform(-1.5 * half, cfg.obs_window + 1.5 * half, len(samples))
            clipped += int(np.sum((taus < half) | (taus > cfg.obs_window - half)))
            want = reference_profiled_score(samples, taus, cfg)
            got = _profile(samples, taus, cfg).score
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert clipped > 0

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_slope_is_score_derivative(self, cfg):
        pos, t0, _, samples = noisy_windows(cfg, seed=22)
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0 + 0.3 * cfg.dt
        # two windows clipped by the window edges, where <s, s'> != 0
        half = 0.5 * cfg.support
        taus[1], taus[2] = 0.37 * half, cfg.obs_window - 0.41 * half
        prof = _profile(samples, taus, cfg)
        h = 1.0e-4 * cfg.dt
        for m in range(len(taus)):
            e = np.zeros(len(taus))
            e[m] = h
            up = _profile(samples, taus + e, cfg).score
            dn = _profile(samples, taus - e, cfg).score
            assert prof.slope[m] == pytest.approx((up - dn) / (2.0 * h), rel=1e-5)

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_noiseless_curvature_is_score_curvature(self, cfg):
        # without noise the expected Hessian is the exact one at the truth
        pos, t0, _, samples = noisy_windows(dataclasses.replace(cfg, n0=1e-300), 23)
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0
        prof = _profile(samples, taus, cfg)
        h = 0.02 * cfg.dt
        for m in range(len(taus)):
            e = np.zeros(len(taus))
            e[m] = h
            up = _profile(samples, taus + e, cfg).score
            dn = _profile(samples, taus - e, cfg).score
            second = (up - 2.0 * prof.score + dn) / (h * h)
            assert prof.curvature[m] == pytest.approx(-second, rel=1e-3)
        assert np.allclose(prof.slope, 0.0, atol=1e-9 * np.max(prof.curvature) * cfg.dt)

    def test_matched_filter_is_lagged_correlation(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((3, 50))
        pulse = rng.standard_normal(9)
        ph = 4
        want = np.zeros((3, 50))
        for j in range(50):
            for i in range(9):
                k = j + i - ph  # pulse sample i sits at time (k - j) dt
                if 0 <= k < 50:
                    want[:, j] += samples[:, k] * pulse[i]
        assert np.allclose(_matched_filter(samples, pulse), want, rtol=0.0, atol=1e-12)


class TestAscent:
    TARGET = np.array([1.0, -2.0])

    def evaluate(self, u):
        # concave quadratic whose model curvature is 10x too small, so every
        # full scoring step overshoots the maximum ninefold
        d = u - self.TARGET
        prof = _Profile(-5.0 * float(d @ d), np.zeros(0), np.zeros(0), np.zeros(0))
        return prof, -10.0 * d, np.eye(2)

    def test_no_step_lowers_the_score(self):
        u0 = np.zeros(2)
        scores = [self.evaluate(u0)[0].score]
        for iters in range(1, 8):
            _, prof, _ = _ascend(self.evaluate, u0, radius=1e9, max_iter=iters, xtol=1e-9)
            scores.append(prof.score)
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        u, _, converged = _ascend(self.evaluate, u0, radius=1e9, max_iter=200, xtol=1e-9)
        assert converged
        assert np.allclose(u, self.TARGET, atol=1e-6)

    def test_steps_stay_inside_the_radius(self):
        u0 = np.zeros(2)
        for iters in range(1, 6):
            u, _, _ = _ascend(self.evaluate, u0, radius=0.1, max_iter=iters, xtol=1e-9)
            assert np.linalg.norm(u - u0) <= 0.1 * iters * (1.0 + 1e-12)


class TestLattice:
    def test_default_lattice_brackets_the_window(self):
        cfg = gauss_cfg()
        spacing = cfg.c / (4.0 * effective_bandwidth_time(make_pulse(cfg)))
        assert spacing == pytest.approx(7.49, abs=0.01)
        assert np.array_equal(_lattice_offsets(4.5, spacing), [-4.5, 0.0, 4.5])

    @settings(max_examples=60, deadline=None)
    @given(
        halfwidth=st.floats(min_value=0.0, max_value=50.0),
        spacing=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_odd_centered_bracketing_lattice(self, halfwidth, spacing):
        off = _lattice_offsets(halfwidth, spacing)
        assert len(off) % 2 == 1
        assert off[len(off) // 2] == 0.0
        assert off[0] == -halfwidth and off[-1] == halfwidth
        assert np.all(np.diff(off) <= spacing * (1.0 + 1e-12))

    def test_search_window_validation(self):
        cfg = gauss_cfg()
        pos, _, meas, _ = noisy_windows(cfg, seed=1)
        with pytest.raises(InvalidConfig):
            ml_localize(meas, pos, cfg, search_halfwidth=-1.0)
        with pytest.raises(InvalidConfig):
            ml_localize(meas, pos, cfg, grid_spacing=0.0)


class TestMlLocalize:
    def test_noiseless_recovery_full_3d(self):
        cfg = gauss_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([0.21, -0.43, 0.12]), t0 + 2.3e-7)
        meas = simulate_measurements(truth, pos, cfg, seed=1)
        est = ml_localize(meas, pos, cfg, mode="full_3d")
        assert est.converged
        assert np.linalg.norm(est.xi_hat - truth[0]) < 1.0e-3  # 1 m
        assert abs(est.t0_hat - truth[1]) < 1.0e-8  # 10 ns
        d = np.linalg.norm(pos - truth[0], axis=1)
        want_amps = np.linalg.norm(pos, axis=1).min() / np.linalg.norm(pos, axis=1)
        assert np.max(np.abs(est.amplitudes_hat - want_amps)) < 1e-4

    def test_noiseless_recovery_fix_z(self):
        cfg = gauss_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([-0.35, 0.18, 0.0]), t0 - 1.1e-7)
        meas = simulate_measurements(truth, pos, cfg, seed=2)
        est = ml_localize(meas, pos, cfg, mode="fix_z")
        assert est.converged
        assert est.xi_hat[2] == 0.0
        assert np.linalg.norm(est.xi_hat[:2] - truth[0][:2]) < 1.0e-3

    @pytest.mark.parametrize("mode", ["fix_z", "full_3d"])
    def test_noiseless_recovery_raised_cosine(self, mode):
        cfg = rc_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([0.27, -0.31, 0.0 if mode == "fix_z" else 0.16]), t0 + 1.7e-7)
        meas = simulate_measurements(truth, pos, cfg, seed=3)
        est = ml_localize(meas, pos, cfg, mode=mode)
        assert est.converged
        assert np.linalg.norm(est.xi_hat - truth[0]) < 1.0e-3  # 1 m
        assert abs(est.t0_hat - truth[1]) < 1.0e-8  # 10 ns
        want_amps = np.linalg.norm(pos, axis=1).min() / np.linalg.norm(pos, axis=1)
        assert np.max(np.abs(est.amplitudes_hat - want_amps)) < 1e-4

    @pytest.mark.parametrize("mode", ["fix_z", "full_3d"])
    def test_refinement_never_lowers_the_lattice_score(self, mode):
        cfg = gauss_cfg(n0=10.0**-0.6)  # 6 dB: below threshold, many outliers
        offsets = _lattice_offsets(4.5, 7.49)
        for trial in range(8):
            pos, _, meas, samples = noisy_windows(cfg, seed=31, trial=trial)
            start = ml_localize(meas, pos, cfg, mode=mode, max_iter=0)
            assert not start.converged
            assert all(np.any(np.isclose(x, offsets)) for x in start.xi_hat)
            est = ml_localize(meas, pos, cfg, mode=mode)
            assert est.converged
            assert score_at(est, pos, samples, cfg) >= score_at(start, pos, samples, cfg)

    def test_mode_validation(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        with pytest.raises(InvalidConfig):
            ml_localize(meas, pos, cfg, mode="hybrid")

    def test_minimum_measurement_counts(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        with pytest.raises(InsufficientCoverage):
            ml_localize(meas[:3], pos, cfg, mode="full_3d")
        with pytest.raises(InsufficientCoverage):
            ml_localize(meas[:2], pos, cfg, mode="fix_z")
        # three channels suffice once z is pinned
        est = ml_localize(meas[:3], pos, gauss_cfg(n0=1e-14), mode="fix_z")
        assert isinstance(est, LocationEstimate)

    def test_deterministic(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        meas = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=11)
        a = ml_localize(meas, pos, cfg, mode="full_3d")
        b = ml_localize(meas, pos, cfg, mode="full_3d")
        assert np.array_equal(a.xi_hat, b.xi_hat)
        assert a.t0_hat == b.t0_hat

    def test_common_time_shift_invariance(self):
        cfg = gauss_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([0.4, 0.1, -0.2]), t0)
        meas = simulate_measurements(truth, pos, cfg, seed=4)
        est = ml_localize(meas, pos, cfg, mode="full_3d")
        shift = 25  # samples; pulses stay interior
        shifted = [
            Measurement(
                samples=np.roll(m.samples, shift),
                sat_index=m.sat_index,
                true_delay=m.true_delay + shift * cfg.dt,
            )
            for m in meas
        ]
        est_s = ml_localize(shifted, pos, cfg, mode="full_3d")
        assert np.linalg.norm(est_s.xi_hat - est.xi_hat) < 1.0e-3
        assert est_s.t0_hat - est.t0_hat == pytest.approx(shift * cfg.dt, abs=1e-9)

    def test_high_snr_mse_tracks_bound(self):
        cfg = gauss_cfg()  # Es,max/N0 = 20 dB
        pos = ring_positions()
        rows = mse_experiment(pos, cfg, [22.0], trials=60, seed=7)
        r = rows[0]
        assert 0.5 < r.mse_xy / r.crb_xy < 2.0
        assert 0.5 < r.mse_xyz / r.crb_xyz < 2.0
        assert r.mse_xyz > r.mse_xy


class TestMseExperiment:
    def test_requires_fifty_trials(self):
        with pytest.raises(InvalidConfig):
            mse_experiment(ring_positions(), gauss_cfg(), [20.0], trials=10, seed=1)

    def test_rows_and_determinism(self):
        pos = ring_positions()
        cfg = gauss_cfg()
        a = mse_experiment(pos, cfg, [24.0], trials=50, seed=9)
        b = mse_experiment(pos, cfg, [24.0], trials=50, seed=9)
        assert a == b
        assert a[0].snr_db == 24.0 and a[0].trials == 50
        assert a[0].crb_xy == pytest.approx(
            signal_crb(pos, dataclasses.replace(cfg, n0=10.0**-2.4), "fix_z").xy
        )


class TestDecoupling:
    def test_symmetric_pulse_decouples(self):
        worst = decoupling_check(ring_positions(), gauss_cfg())
        assert worst < 1e-3

    def test_truncated_pulse_couples(self):
        pos = ring_positions()
        sym = decoupling_check(pos, gauss_cfg())
        broken = decoupling_check(pos, gauss_cfg(), break_symmetry=True)
        assert broken > 0.01
        assert broken > 100.0 * max(sym, 1e-12)

    def test_invariant_to_amplitude_scale(self):
        pos = ring_positions()
        a = decoupling_check(pos, gauss_cfg(es_max=1.0))
        b = decoupling_check(pos, gauss_cfg(es_max=1.0e4))
        assert b < 1e-3
        assert math.isclose(a, b, rel_tol=1e-3, abs_tol=1e-9)
