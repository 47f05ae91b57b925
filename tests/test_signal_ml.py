"""Tests for the sampled-signal model and the ML localizer."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from satcrb.fim import SingularInformation, crb_from_fim
from satcrb import signal_ml
from satcrb.geometry import InvalidConfig, SystemParams, cup_edges, stream_keys
from satcrb.signal_ml import (
    InsufficientCoverage,
    LocationEstimate,
    SignalConfig,
    _as_blocks,
    _Ascent,
    _Blocks,
    _coarse,
    _evaluator,
    _lattice,
    _lattice_offsets,
    _lattice_points,
    _matched_filter,
    _noise_sigma,
    _normals,
    _padded,
    _Profile,
    _profile,
    _pulse,
    _pulse_filter,
    _scan,
    _scoring_steps,
    _search,
    _start,
    _truth_mean,
    _XTOL,
    amplitudes,
    centered_t0,
    decoupling_check,
    default_signal_config,
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


def shell_distance(phi_l: float, params: SystemParams) -> float:
    """Distance from the LT to the shell of height params.h along zenith
    angle phi_l: the D_max of the one cup-edge evaluator at that angle."""
    return float(cup_edges(params, params.h, phi_l, float).dm)


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


def reference_lattice_start(samples, pos, points, cfg):
    """(xi, T0) at the first best lattice point, scanned one point at a time
    with a stacked window per point: the loop that `_coarse` and `_start`
    replaced, kept as their oracle."""
    pulse_filter = _pulse_filter(make_pulse(cfg).samples, samples.shape[1])
    corr = _matched_filter(samples, pulse_filter)
    corr2 = corr * corr
    k = cfg.n_samples
    best = (-math.inf, None, None)
    for xi in points:
        g = np.linalg.norm(pos - xi[None, :], axis=1) / cfg.c
        o = np.round(g / cfg.dt).astype(int)
        rel = o - o.min()
        span = int(rel.max())
        if span >= k:
            continue
        width = k - span
        windows = np.stack([corr2[m, rel[m] : rel[m] + width] for m in range(len(pos))])
        scores = windows.sum(axis=0)
        l_hat = int(np.argmax(scores))
        if scores[l_hat] > best[0]:
            t0_hat = float(np.mean((rel + l_hat) * cfg.dt - g))
            best = (float(scores[l_hat]), xi.copy(), t0_hat)
    return best[1], best[2]


def reference_refine(samples, pos, center, u0, cfg, radius, max_iter):
    """One trial's fine stage as the per-trial solver did it before trials
    were refined in lockstep: a scalar trust-region loop over a profile of
    one (M, K) sample block. Kept as the oracle the lockstep solver must
    match bit for bit. Returns (u, score, amplitudes, converged)."""
    c, dt, k = cfg.c, cfg.dt, cfg.n_samples
    n_xyz = len(u0) - 1
    half = 0.5 * cfg.support

    def evaluate(u):
        xi = center.copy()
        xi[:n_xyz] = u[:n_xyz]
        diff = pos - xi[None, :]
        dist = np.linalg.norm(diff, axis=1)
        taus = dist / c + u[-1] / c
        lo = np.ceil((taus - half) / dt).astype(int)
        hi = np.minimum(np.floor((taus + half) / dt).astype(int), k - 1)
        idx = lo[:, None] + np.arange(int(2.0 * half / dt) + 2)
        inside = (idx >= 0) & (idx <= hi[:, None])
        s, ds = _pulse(cfg, idx * dt - taus[:, None])
        s = np.where(inside, s, 0.0)
        ds = np.where(inside, ds, 0.0)
        v = np.take_along_axis(samples, np.clip(idx, 0, k - 1), axis=1)
        corr = np.einsum("ml,ml->m", v, s)
        energy = np.einsum("ml,ml->m", s, s)
        cross = np.einsum("ml,ml->m", s, ds)
        inv_e = np.divide(1.0, energy, out=np.zeros_like(energy), where=energy > 0.0)
        a = corr * inv_e
        slope = -2.0 * a * (np.einsum("ml,ml->m", v, ds) - a * cross)
        resid = np.einsum("ml,ml->m", ds, ds) - cross * cross * inv_e
        jac = np.empty((len(pos), n_xyz + 1))
        jac[:, :n_xyz] = -diff[:, :n_xyz] / (c * dist[:, None])
        jac[:, -1] = 1.0 / c
        w = 2.0 * a * a * resid
        return float(np.dot(corr, a)), a, jac.T @ slope, (w[:, None] * jac).T @ jac

    u = u0
    score, amps, grad, fisher = evaluate(u)
    delta = radius
    for _ in range(max_iter):
        try:
            step = np.linalg.solve(fisher, grad)
        except np.linalg.LinAlgError:
            step = grad
        norm = float(np.linalg.norm(step))
        if not math.isfinite(norm) or norm == 0.0:
            return u, score, amps, norm == 0.0
        if norm > delta:
            step, norm = step * (delta / norm), delta
        while True:
            t_score, t_amps, t_grad, t_fisher = evaluate(u + step)
            gain = t_score - score
            if gain >= 0.0:
                break
            step, norm = 0.5 * step, 0.5 * norm
            delta = norm
            if norm < 2.0e-4:
                return u, score, amps, True
        predicted = float(grad @ step - 0.5 * step @ fisher @ step)
        u, score, amps, grad, fisher = u + step, t_score, t_amps, t_grad, t_fisher
        if norm < 2.0e-4:
            return u, score, amps, True
        if gain < 0.25 * predicted:
            delta = 0.5 * norm
        elif gain > 0.75 * predicted and norm >= delta:
            delta = min(2.0 * delta, radius)
    return u, score, amps, False


def ascend(evaluate, u0, radius, max_iter, xtol, n_amps=0):
    """An `_Ascent` of the blocks of u0, all started at once, until every
    one finishes: (u, score, amplitudes, converged)."""
    solve = _Ascent(len(u0), u0.shape[1], n_amps, radius, max_iter, xtol)
    solve.start(np.arange(len(u0)), u0)
    while solve.busy().any():
        solve.step(evaluate)
    return solve.u, solve.score, solve.amps, solve.converged


def refine(blocks, pos, center, u0, cfg, radius, max_iter):
    """The lockstep fine stage of the blocks, from the starts u0 (R, n)."""
    evaluate = _evaluator(blocks, pos, center, cfg, u0.shape[1] - 1)
    return ascend(evaluate, u0, radius, max_iter, _XTOL, len(pos))


def coarse_scan(samples, pos, points, cfg):
    """`_coarse` of one trial's (M, K) samples over the lattice points, as a
    stack of one block: its (1, G) best scores and clock offsets."""
    corr = _matched_filter(samples, _pulse_filter(make_pulse(cfg).samples, cfg.n_samples))
    return _coarse((corr * corr)[None], _lattice(pos, points, cfg), cfg)


def noisy_windows(cfg, seed, trial=0):
    pos = ring_positions()
    t0 = centered_t0(pos, cfg)
    return pos, t0, simulate_measurements((np.zeros(3), t0), pos, cfg, seed, trial=trial)


def profile_one(samples, taus, cfg) -> _Profile:
    """`_profile` of one trial's (M, K) samples at its delays (M,)."""
    prof = _profile(_as_blocks(samples[None], cfg), taus[None], cfg, np.arange(1))
    return _Profile(*(getattr(prof, f.name)[0] for f in dataclasses.fields(prof)))


def score_at(est, pos, samples, cfg) -> float:
    taus = np.linalg.norm(pos - est.xi_hat, axis=1) / cfg.c + est.t0_hat
    return profile_one(samples, taus, cfg).score


class TestConfigValidation:
    def test_bad_pulse_kind(self):
        with pytest.raises(InvalidConfig):
            gauss_cfg(pulse="chirp")

    @pytest.mark.parametrize(
        "field", ["pulse_width", "sample_rate", "obs_window", "n0", "es_max", "c"]
    )
    def test_nonpositive_fields(self, field):
        for value in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidConfig, match=f"{field} must be positive"):
                gauss_cfg(**{field: value})

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
        assert np.argmax(sp.samples) == len(sp.samples) // 2

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_odd_moment_vanishes(self, cfg):
        sp = make_pulse(cfg)
        t = (np.arange(len(sp.samples)) - len(sp.samples) // 2) * cfg.dt
        s, ds = _pulse(cfg, t)
        assert abs(float(np.dot(s, ds)) * cfg.dt) < 1e-8

    @pytest.mark.parametrize(
        "cfg",
        [gauss_cfg(), gauss_cfg(sample_rate=2.3e6), rc_cfg(), rc_cfg(sample_rate=37.3 / RC_PERIOD)],
        ids=["gauss", "gauss-2.3MHz", "rc", "rc-37.3"],
    )
    def test_matches_oracle(self, cfg):
        """s and s' at the times the program evaluates, against the 50-digit
        pulse, with every seventh time masked as `_profile` masks samples
        off the support or the window. The gaussian is within 1e-14
        relative, the worst being 4.4e-15 where the exponent's rounding is
        scaled by up to 18; the raised cosine's 1 + cos cancels towards its
        edges, so it is held to 1e-15 of its peak (3.1e-16 at worst)."""
        t = pulse_arguments(cfg)
        outside = np.arange(len(t)) % 7 == 0
        s, ds = _pulse(cfg, t, outside)
        assert not s[outside].any() and not ds[outside].any()
        want = [oracle.pulse(cfg, float(x)) for x in t[~outside]]
        for got, ref in zip((s[~outside], ds[~outside]), zip(*want)):
            if cfg.pulse == "gaussian":
                zero = np.array([w == 0 for w in ref])
                assert not got[zero].any()
                err, at = oracle.worst(got[~zero], [w for w in ref if w != 0])
                assert err < 1e-14, at
            else:
                err, at = oracle.worst(got, ref, oracle.abs_err)
                assert err < 1e-15 * float(max(abs(w) for w in ref)), at

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_autocorrelation_peaks_at_zero_lag(self, cfg):
        s = make_pulse(cfg).samples
        ac = np.correlate(s, s, mode="full")
        mid = len(s) - 1
        assert np.argmax(ac) == mid
        near = ac[mid : mid + 6]
        assert np.all(np.diff(near) < 0.0)


def pulse_arguments(cfg) -> np.ndarray:
    """The times the program gives `_pulse`: make_pulse's measurement and
    fine lattices (the fine one ends on the support's edges), and sample
    times k dt - tau at four fractional delays tau, across the support and
    two samples past each edge."""
    dt = cfg.dt
    half = int(math.ceil(0.5 * cfg.support / dt))
    lattice = (np.arange(2 * half + 1) - half) * dt
    n = signal_ml._FINE_POINTS
    fine = (np.arange(n + 1) - n // 2) * (cfg.support / n)
    taus = (5.0 + np.array([0.13, 0.5, 0.77, 0.999])) * dt
    shifted = (np.arange(-half - 2, half + 3) + 5.0) * dt - taus[:, None]
    return np.concatenate([lattice, fine, shifted.ravel()])


def effective_bandwidth(pulse, cfg, n_fft=1 << 16):
    """RMS (Gabor) bandwidth in Hz from the pulse spectrum, the route
    independent of effective_bandwidth_time's Parseval sum:
    sqrt(int f^2 |S|^2 df / int |S|^2 df) over the zero-padded FFT of the
    fine-lattice samples, which span cfg's pulse support."""
    spec = np.abs(np.fft.fft(pulse.fine, n=n_fft)) ** 2
    f = np.fft.fftfreq(n_fft, d=cfg.support / (len(pulse.fine) - 1))
    return math.sqrt(float(np.dot(f * f, spec) / np.sum(spec)))


class TestEffectiveBandwidth:
    def test_gaussian_closed_form(self):
        want = 1.0 / (2.0 * math.pi * GAUSS_SIGMA * math.sqrt(2.0))
        cfg = gauss_cfg()
        sp = make_pulse(cfg)
        assert effective_bandwidth_time(sp) == pytest.approx(want, rel=1e-9)
        assert effective_bandwidth(sp, cfg) == pytest.approx(want, rel=1e-6)

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
        assert effective_bandwidth(sp, cfg) == pytest.approx(
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
        assert effective_bandwidth(sp, cfg) == pytest.approx(
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
        cfg = gauss_cfg(n0=1e-300)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        samples = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=3)
        assert samples.shape == (6, cfg.n_samples)
        # row m belongs to positions[m]: its pulse peaks within a sample of
        # tau_m = |p_m| / c + T0
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0
        assert np.all(np.abs(np.argmax(samples, axis=1) * cfg.dt - taus) <= cfg.dt)

    def test_deterministic_and_seed_sensitive(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        a = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=5, trial=2)
        b = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=5, trial=2)
        c = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=5, trial=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], c[0])

    def test_noiseless_matched_filter_recovers_delay(self):
        cfg = gauss_cfg(n0=1e-300)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg) + 0.37 * cfg.dt
        samples = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0
        sp = make_pulse(cfg)
        for v, tau in zip(samples, taus):
            # full correlation index ph + j holds sum_k v[k] s((k - j) dt)
            corr = np.correlate(v, sp.samples, mode="full")
            j_hat = int(np.argmax(corr)) - len(sp.samples) // 2
            assert abs(j_hat * cfg.dt - tau) <= 0.5 * cfg.dt

    def test_amplitude_law(self):
        """Noiseless samples reproduce A_m s(t - tau_m) with A_m = (h/D_m) sqrt(es_max)."""
        cfg = gauss_cfg(n0=1e-300, es_max=4.0)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        samples = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        d = np.linalg.norm(pos, axis=1)
        t_axis = np.arange(cfg.n_samples) * cfg.dt
        for v, d_m in zip(samples, d):
            a_m = (d.min() / d_m) * 2.0
            clean = a_m * _pulse(cfg, t_axis - (d_m / cfg.c + t0))[0]
            assert np.allclose(v, clean, atol=1e-12, rtol=0.0)


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
        j = signal_fim(pos, cfg)
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
        j3 = signal_fim(pos, cfg)[np.ix_([0, 1, 3], [0, 1, 3])]
        assert np.linalg.det(j3) > 0.0 and np.linalg.cond(j3) >= 1e12
        with pytest.raises(SingularInformation):
            signal_crb(pos, cfg, mode="fix_z")

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_each_mode_inverts_its_coordinates_and_the_clock(self, cfg):
        # full_3d is the bound of the whole 4x4 information, bit for bit;
        # fix_z inverts its (x, y, c*T0) block and bounds the pinned z as 0
        for pos in (ring_positions(), ring_positions()[:-1]):
            j = signal_fim(pos, cfg)
            assert signal_crb(pos, cfg, "full_3d") == crb_from_fim(j)
            inv = np.linalg.solve(j[np.ix_([0, 1, 3], [0, 1, 3])], np.eye(3))
            fixed = signal_crb(pos, cfg, "fix_z")
            assert fixed.xy == float(inv[0, 0] + inv[1, 1]) and fixed.z == 0.0

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
        # a (C, M) stack of delays over C = 5 trials' samples
        samples = np.array([noisy_windows(cfg, seed=21, trial=t)[2] for t in range(5)])
        rng = np.random.default_rng(5)
        half = 0.5 * cfg.support
        clipped = 0
        for _ in range(8):
            # delays reach past both ends of the window, so some pulse
            # windows are clipped and some fall outside altogether
            taus = rng.uniform(-1.5 * half, cfg.obs_window + 1.5 * half, samples.shape[:2])
            clipped += int(np.sum((taus < half) | (taus > cfg.obs_window - half)))
            got = _profile(_as_blocks(samples, cfg), taus, cfg, np.arange(len(samples))).score
            assert got.shape == (len(samples),)
            for v, tau, score in zip(samples, taus, got):
                want = reference_profiled_score(v, tau, cfg)
                assert score == pytest.approx(want, rel=1e-12, abs=0.0)
        assert clipped > 0

    def test_trial_rows_select_samples(self):
        # delays for a subset of the trials, out of order, give those
        # trials' terms bit for bit
        cfg = gauss_cfg()
        pos, t0, _ = noisy_windows(cfg, seed=24)
        samples = np.array([noisy_windows(cfg, seed=24, trial=t)[2] for t in range(4)])
        rng = np.random.default_rng(6)
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0 + rng.normal(0.0, cfg.dt, (4, 6))
        blocks = _as_blocks(samples, cfg)
        full = _profile(blocks, taus, cfg, np.arange(4))
        rows = np.array([3, 1])
        part = _profile(blocks, taus[rows], cfg, rows)
        for f in dataclasses.fields(full):
            assert np.array_equal(getattr(part, f.name), getattr(full, f.name)[rows])

    def test_block_index_spans_slots_and_levels(self):
        # a stack of 2 slots at 3 noise levels over a nonzero mean: block r is
        # sigma[r % 3] * z[r // 3] + mean, and rows out of order across both
        # slots and every level give the bits of those blocks formed whole
        cfg = gauss_cfg()
        pos, t0, _ = noisy_windows(cfg, seed=25)
        rng = np.random.default_rng(7)
        z, z_mid = _padded((2, len(pos)), cfg)
        z_mid[...] = rng.standard_normal(z_mid.shape)
        mean, mean_mid = _padded((len(pos),), cfg)
        mean_mid[...] = _truth_mean((np.zeros(3), t0), pos, cfg)
        sigma = np.array([0.05, 0.3, 1.7])
        formed = np.array([sigma[r % 3] * z_mid[r // 3] + mean_mid for r in range(6)])
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0 + rng.normal(0.0, cfg.dt, (6, 6))
        rows = np.array([4, 0, 5, 2, 3])
        got = _profile(_Blocks(z, mean, sigma), taus[rows], cfg, rows)
        want = _profile(_as_blocks(formed, cfg), taus[rows], cfg, rows)
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name))

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_slope_is_score_derivative(self, cfg):
        pos, t0, samples = noisy_windows(cfg, seed=22)
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0 + 0.3 * cfg.dt
        # two windows clipped by the window edges, where <s, s'> != 0
        half = 0.5 * cfg.support
        taus[1], taus[2] = 0.37 * half, cfg.obs_window - 0.41 * half
        prof = profile_one(samples, taus, cfg)
        h = 1.0e-4 * cfg.dt
        for m in range(len(taus)):
            e = np.zeros(len(taus))
            e[m] = h
            up = profile_one(samples, taus + e, cfg).score
            dn = profile_one(samples, taus - e, cfg).score
            assert prof.slope[m] == pytest.approx((up - dn) / (2.0 * h), rel=1e-5)

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_noiseless_curvature_is_score_curvature(self, cfg):
        # without noise the expected Hessian is the exact one at the truth
        pos, t0, samples = noisy_windows(dataclasses.replace(cfg, n0=1e-300), 23)
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0
        prof = profile_one(samples, taus, cfg)
        h = 0.02 * cfg.dt
        for m in range(len(taus)):
            e = np.zeros(len(taus))
            e[m] = h
            up = profile_one(samples, taus + e, cfg).score
            dn = profile_one(samples, taus - e, cfg).score
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
        got = _matched_filter(samples, _pulse_filter(pulse, 50))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


class TestAscent:
    TARGET = np.array([1.0, -2.0])
    # (curvature, model curvature) of each trial's concave quadratic: full
    # scoring steps overshoot the maximum ninefold, land on it, cover 30% of
    # the way, overshoot twofold, or (singular model) follow the gradient
    TRIALS = np.array([[10.0, 1.0], [1.0, 1.0], [0.3, 1.0], [3.0, 1.0], [0.5, 0.0]])

    def quadratics(self, trials=TRIALS, calls=None):
        def evaluate(rows, u):
            k, f = trials[rows, 0], trials[rows, 1]
            d = u - self.TARGET
            if calls is not None:
                np.add.at(calls, rows, 1)
            none = np.zeros((len(u), 0))
            prof = _Profile(-0.5 * k * np.sum(d * d, axis=1), none, none, none)
            return prof, -k[:, None] * d, f[:, None, None] * np.eye(2)

        return evaluate

    def test_no_step_lowers_the_score(self):
        u0 = np.zeros((len(self.TRIALS), 2))
        scores = [self.quadratics()(np.arange(len(u0)), u0)[0].score]
        for iters in range(1, 8):
            _, score, _, _ = ascend(self.quadratics(), u0, 1e9, iters, xtol=1e-9)
            scores.append(score)
        assert all(np.all(b >= a) for a, b in zip(scores, scores[1:]))
        calls = np.zeros(len(u0), dtype=int)
        u, _, _, converged = ascend(
            self.quadratics(calls=calls), u0, 1e9, 200, xtol=1e-9
        )
        assert converged.all()
        assert np.allclose(u, self.TARGET, atol=1e-6)
        # the trials finish in different rounds
        assert len(set(calls)) == len(calls)

    def test_steps_stay_inside_the_radius(self):
        u0 = np.zeros((len(self.TRIALS), 2))
        for iters in range(1, 6):
            u, _, _, _ = ascend(self.quadratics(), u0, 0.1, iters, xtol=1e-9)
            assert np.all(np.linalg.norm(u - u0, axis=1) <= 0.1 * iters * (1.0 + 1e-12))

    @pytest.mark.parametrize("max_iter", [0, 1, 3, 200])
    def test_batch_equals_one_trial_calls(self, max_iter):
        u0 = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0], [1.0, -2.0], [0.5, 0.5]])
        batch = ascend(self.quadratics(), u0, 2.0, max_iter, xtol=1e-9)
        for i in range(len(u0)):
            one = ascend(self.quadratics(self.TRIALS[i : i + 1]), u0[i : i + 1],
                          2.0, max_iter, xtol=1e-9)
            for a, b in zip(one, batch):
                assert np.array_equal(a[0], b[i])
        # the trial that starts on the maximum takes a zero step and stops
        assert batch[3][3] == (max_iter > 0)

    def test_blocks_that_join_later_follow_their_own_sequence(self):
        """Blocks that join a running stack rounds apart, one of them in
        the row a finished block held, end where a stack of their own
        ends, bit for bit."""
        u0 = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0], [1.0, -2.0], [0.5, 0.5]])
        want = ascend(self.quadratics(), u0, 2.0, 200, xtol=1e-9)
        solve = _Ascent(len(u0), 2, 0, 2.0, 200, 1e-9)
        solve.start(np.arange(3), u0[:3])
        finished = []
        for _ in range(2):
            finished += list(solve.step(self.quadratics()))
        solve.start(np.array([3, 4]), u0[3:])
        while not finished:
            finished += list(solve.step(self.quadratics()))
        # the first block to finish starts again, from the same point
        row = finished[0]
        first = [np.copy(a[row]) for a in (solve.u, solve.score, solve.amps, solve.converged)]
        solve.start(np.array([row]), u0[row : row + 1])
        while solve.busy().any():
            solve.step(self.quadratics())
        for a, b in zip((solve.u, solve.score, solve.amps, solve.converged), want):
            assert np.array_equal(a, b)
        for a, b in zip(first, want):
            assert np.array_equal(a, b[row])

    def test_singular_fisher_falls_back_for_that_trial_only(self):
        fisher = np.array([[[2.0, 1.0], [1.0, 3.0]], np.zeros((2, 2)), 4.0 * np.eye(2)])
        grad = np.array([[1.0, -1.0], [0.5, 2.0], [3.0, 1.0]])
        steps = _scoring_steps(fisher, grad)
        assert np.array_equal(steps[1], grad[1])
        for i in (0, 2):
            assert np.array_equal(steps[i], np.linalg.solve(fisher[i], grad[i]))


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

    @pytest.mark.parametrize("mode", ["fix_z", "full_3d"])
    @pytest.mark.parametrize("n0", [10.0**-0.6, 1e-2], ids=["6dB", "20dB"])
    def test_coarse_matches_per_point_scan(self, mode, n0):
        cfg = gauss_cfg(n0=n0)
        center = np.array([0.3, -0.2, 0.1])
        points = _lattice_points(center, 9.0, 4.5)
        if mode == "fix_z":
            # fix_z starts from the lattice's dz = 0 plane
            points = points[points[:, 2] == center[2]]
        assert len(points) == (25 if mode == "fix_z" else 125)
        n_xyz = 2 if mode == "fix_z" else 3
        for trial in range(4):
            pos, _, samples = noisy_windows(cfg, seed=32, trial=trial)
            best, t0 = coarse_scan(samples, pos, points, cfg)
            xi, t0_hat = reference_lattice_start(samples, pos, points, cfg)
            want = np.append(xi[:n_xyz], t0_hat * cfg.c)
            assert np.array_equal(_start(points, best, t0, n_xyz, cfg.c), [want])

    def test_no_point_in_window_is_singular(self):
        cfg = gauss_cfg()
        pos, _, samples = noisy_windows(cfg, seed=1)
        with pytest.raises(SingularInformation, match="in-window"):
            ml_localize(samples, pos, cfg, search_center=(2.0e4, 0.0, 0.0))


class TestMlLocalize:
    def test_noiseless_recovery_full_3d(self):
        cfg = gauss_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([0.21, -0.43, 0.12]), t0 + 2.3e-7)
        samples = simulate_measurements(truth, pos, cfg, seed=1)
        est = ml_localize(samples, pos, cfg, mode="full_3d")
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
        samples = simulate_measurements(truth, pos, cfg, seed=2)
        est = ml_localize(samples, pos, cfg, mode="fix_z")
        assert est.converged
        assert est.xi_hat[2] == 0.0
        assert np.linalg.norm(est.xi_hat[:2] - truth[0][:2]) < 1.0e-3

    @pytest.mark.parametrize("mode", ["fix_z", "full_3d"])
    def test_noiseless_recovery_raised_cosine(self, mode):
        cfg = rc_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([0.27, -0.31, 0.0 if mode == "fix_z" else 0.16]), t0 + 1.7e-7)
        samples = simulate_measurements(truth, pos, cfg, seed=3)
        est = ml_localize(samples, pos, cfg, mode=mode)
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
            pos, _, samples = noisy_windows(cfg, seed=31, trial=trial)
            start = ml_localize(samples, pos, cfg, mode=mode, max_iter=0)
            assert not start.converged
            assert all(np.any(np.isclose(x, offsets)) for x in start.xi_hat)
            est = ml_localize(samples, pos, cfg, mode=mode)
            assert est.converged
            assert score_at(est, pos, samples, cfg) >= score_at(start, pos, samples, cfg)

    def test_mode_validation(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        samples = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        with pytest.raises(InvalidConfig):
            ml_localize(samples, pos, cfg, mode="hybrid")
        for center in ((0.0, 0.0), (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                       np.zeros((1, 3)), ("a", "b", "c"), None):
            with pytest.raises(InvalidConfig, match="search_center"):
                ml_localize(samples, pos, cfg, search_center=center)
        for max_iter in (2.5, -1, True, "3"):
            with pytest.raises(InvalidConfig, match="max_iter"):
                ml_localize(samples, pos, cfg, max_iter=max_iter)

    def test_minimum_measurement_counts(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        samples = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=1)
        with pytest.raises(InsufficientCoverage):
            ml_localize(samples[:3], pos[:3], cfg, mode="full_3d")
        with pytest.raises(InsufficientCoverage):
            ml_localize(samples[:2], pos[:2], cfg, mode="fix_z")
        # three channels suffice once z is pinned
        est = ml_localize(samples[:3], pos[:3], gauss_cfg(n0=1e-14), mode="fix_z")
        assert isinstance(est, LocationEstimate)

    def test_samples_must_match_positions(self):
        cfg = gauss_cfg()
        pos, _, samples = noisy_windows(cfg, seed=1)
        # one row per position of n_samples: a block of other height, one
        # window, or windows cut short or run long, is no alignment of
        # samples to satellites
        k = cfg.n_samples
        assert samples.shape[1] == k
        long = np.concatenate([samples, samples[:, :500]], axis=1)
        for bad in (samples[:5], samples[0], samples[None], samples[:, : k - 500], long):
            with pytest.raises(InvalidConfig, match="one row per position"):
                ml_localize(bad, pos, cfg)

    def test_deterministic(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        samples = simulate_measurements((np.zeros(3), t0), pos, cfg, seed=11)
        a = ml_localize(samples, pos, cfg, mode="full_3d")
        b = ml_localize(samples, pos, cfg, mode="full_3d")
        assert np.array_equal(a.xi_hat, b.xi_hat)
        assert a.t0_hat == b.t0_hat

    def test_common_time_shift_invariance(self):
        cfg = gauss_cfg(n0=1e-14)
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        truth = (np.array([0.4, 0.1, -0.2]), t0)
        samples = simulate_measurements(truth, pos, cfg, seed=4)
        est = ml_localize(samples, pos, cfg, mode="full_3d")
        shift = 25  # samples; pulses stay interior
        est_s = ml_localize(np.roll(samples, shift, axis=1), pos, cfg, mode="full_3d")
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


class TestLockstep:
    @pytest.mark.parametrize(
        "cfg",
        [gauss_cfg(n0=10.0**-0.6), gauss_cfg(), rc_cfg(n0=10.0**-0.6)],
        ids=["gauss-6dB", "gauss-20dB", "rc-6dB"],
    )
    def test_chunk_follows_the_per_trial_solver(self, cfg):
        """Every trial of a chunk ends where the per-trial solver ends, bit
        for bit, in both modes and when it runs out of iterations."""
        pos = ring_positions()
        sp = make_pulse(cfg)
        spacing = cfg.c / (4.0 * effective_bandwidth_time(sp))
        points = _lattice_points(np.zeros(3), 4.5, spacing)
        plane = points[:, 2] == 0.0
        samples = np.array([noisy_windows(cfg, seed=43, trial=t)[2] for t in range(8)])
        starts = {"fix_z": [], "full_3d": []}
        for v in samples:
            best, t0 = coarse_scan(v, pos, points, cfg)
            starts["fix_z"].append(_start(points[plane], best[:, plane], t0[:, plane], 2, cfg.c)[0])
            starts["full_3d"].append(_start(points, best, t0, 3, cfg.c)[0])
        center = np.zeros(3)
        blocks = _as_blocks(samples, cfg)
        for mode, u0 in starts.items():
            for max_iter in (3, 100):
                batch = refine(
                    blocks, pos, center, np.array(u0), cfg, 0.5 * spacing, max_iter
                )
                for i, v in enumerate(samples):
                    want = reference_refine(v, pos, center, u0[i], cfg, 0.5 * spacing,
                                            max_iter)
                    for got, w in zip(batch, want):
                        assert np.array_equal(got[i], w)

    def test_chunk_equals_one_trial_calls(self):
        """A chunk of trials refined together gives each trial the bits of
        its own `ml_localize` call and of a chunk of one."""
        cfg = gauss_cfg(n0=10.0**-1.2)  # 12 dB
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        sp = make_pulse(cfg)
        spacing = cfg.c / (4.0 * effective_bandwidth_time(sp))
        points = _lattice_points(np.zeros(3), 4.5, spacing)
        meas = [
            simulate_measurements((np.zeros(3), t0), pos, cfg, 41, trial=t)
            for t in range(5)
        ]
        samples = np.array(meas)
        starts = np.concatenate(
            [_start(points, *coarse_scan(v, pos, points, cfg), 3, cfg.c) for v in samples]
        )
        # the last entry restarts trial 0 at its own estimate, where the
        # first step is already shorter than the tolerance
        est0 = ml_localize(meas[0], pos, cfg)
        samples = np.concatenate([samples, samples[:1]])
        starts = np.vstack([starts, np.append(est0.xi_hat, est0.t0_hat * cfg.c)])
        center = np.zeros(3)
        for max_iter in (1, 100):
            batch = refine(_as_blocks(samples, cfg), pos, center, starts, cfg, 0.5 * spacing,
                            max_iter)
            u, _, amps, converged = batch
            for i in range(len(starts)):
                one = refine(_as_blocks(samples[i : i + 1], cfg), pos, center,
                              starts[i : i + 1], cfg, 0.5 * spacing, max_iter)
                for a, b in zip(one, batch):
                    assert np.array_equal(a[0], b[i])
                if i < len(meas):
                    est = ml_localize(meas[i], pos, cfg, max_iter=max_iter)
                    assert np.array_equal(est.xi_hat, u[i, :3])
                    assert est.t0_hat == u[i, 3] / cfg.c
                    assert np.array_equal(est.amplitudes_hat, amps[i])
                    assert est.converged == converged[i]
            # at max_iter=1 the lattice starts run out and the restart stops
            assert list(converged) == [max_iter > 1] * len(meas) + [True]

    def test_linear_matched_filter_keeps_the_starts(self):
        """The coarse stage of a trial's blocks reads sigma*MF(z) + MF(mean)
        rather than the filter of its samples sigma*z + mean, which differs
        in the last bits. Its choices are argmaxes, so a start could move
        only where two lattice scores tie to rounding: on 300 (trial, SNR)
        blocks from -3 to 30 dB, none does, in either mode."""
        cfg = gauss_cfg()
        pos = ring_positions()
        search = _search(pos, np.zeros(3), cfg)
        mean = _truth_mean((np.zeros(3), centered_t0(pos, cfg)), pos, cfg)
        mf_mean = _matched_filter(mean, search.pulse_filter)
        sigma = np.array([
            _noise_sigma(gauss_cfg(n0=1.0 / 10.0 ** (snr_db / 10.0)))
            for snr_db in np.linspace(-3.0, 30.0, 10)
        ])
        points = search.lattice.points
        modes = ((points[:, 2] == 0.0, 2), (slice(None), 3))
        z = np.empty((30,) + mean.shape)
        _normals(stream_keys(17, range(30)), z)
        for normals in z:
            best, t0 = _scan(normals, sigma, mf_mean, search, cfg)
            for i, sd in enumerate(sigma):
                corr = _matched_filter(sd * normals + mean, search.pulse_filter)
                want_best, want_t0 = _coarse((corr * corr)[None], search.lattice, cfg)
                for on, n_xyz in modes:
                    got = _start(points[on], best[i : i + 1, on], t0[i : i + 1, on], n_xyz, cfg.c)
                    want = _start(points[on], want_best[:, on], want_t0[:, on], n_xyz, cfg.c)
                    assert np.array_equal(got, want)


class TestMseExperiment:
    def test_requires_fifty_trials(self):
        with pytest.raises(InvalidConfig):
            mse_experiment(ring_positions(), gauss_cfg(), [20.0], trials=10, seed=1)

    def test_needs_four_satellites(self):
        with pytest.raises(InsufficientCoverage):
            mse_experiment(ring_positions()[:3], gauss_cfg(), [20.0], trials=50, seed=1)

    def test_empty_grid_gives_no_rows(self):
        assert mse_experiment(ring_positions(), gauss_cfg(), [], trials=50, seed=1) == []

    @pytest.fixture(scope="class")
    def per_trial_rows(self):
        """Per SNR point, the row of one `simulate_measurements` and one
        `ml_localize` per trial and mode, for 53 trials at seed 13: the
        rows `test_rows_are_the_per_trial_calls` builds, for the stacking
        cases below."""
        pos = ring_positions()
        rows = {}
        for snr_db in (8.0, 20.0):
            cfg = gauss_cfg(n0=1.0 / 10.0 ** (snr_db / 10.0))  # es_max = 1
            t0 = centered_t0(pos, cfg)
            errors = {mode: [] for mode in ("fix_z", "full_3d")}
            unconverged = dict.fromkeys(errors, 0)
            for trial in range(53):
                samples = simulate_measurements((np.zeros(3), t0), pos, cfg, 13, trial)
                for mode, n in (("fix_z", 2), ("full_3d", 3)):
                    est = ml_localize(samples, pos, cfg, mode=mode)
                    errors[mode].append(float(np.sum(est.xi_hat[:n] ** 2)))
                    unconverged[mode] += not est.converged
            rows[snr_db] = (
                snr_db, float(np.mean(errors["fix_z"])), float(np.mean(errors["full_3d"])),
                signal_crb(pos, cfg, "fix_z").xy, signal_crb(pos, cfg, "full_3d").xyz,
                53, unconverged["fix_z"], unconverged["full_3d"],
            )
        return rows

    def test_rows_are_the_per_trial_calls(self):
        """53 trials (a partial last chunk) at two SNR points give the rows of
        one `simulate_measurements` and one `ml_localize` per trial, SNR
        point and mode, bit for bit."""
        pos = ring_positions()
        rows = []
        for snr_db in (8.0, 20.0):
            cfg = gauss_cfg(n0=1.0 / 10.0 ** (snr_db / 10.0))  # es_max = 1
            t0 = centered_t0(pos, cfg)
            errors = {mode: [] for mode in ("fix_z", "full_3d")}
            unconverged = dict.fromkeys(errors, 0)
            for trial in range(53):
                samples = simulate_measurements((np.zeros(3), t0), pos, cfg, 13, trial)
                for mode, n in (("fix_z", 2), ("full_3d", 3)):
                    est = ml_localize(samples, pos, cfg, mode=mode)
                    errors[mode].append(float(np.sum(est.xi_hat[:n] ** 2)))
                    unconverged[mode] += not est.converged
            rows.append((
                snr_db, float(np.mean(errors["fix_z"])), float(np.mean(errors["full_3d"])),
                signal_crb(pos, cfg, "fix_z").xy, signal_crb(pos, cfg, "full_3d").xyz,
                53, unconverged["fix_z"], unconverged["full_3d"],
            ))
        got = mse_experiment(pos, gauss_cfg(), [8.0, 20.0], trials=53, seed=13)
        assert [dataclasses.astuple(r) for r in got] == rows

    @pytest.mark.parametrize(
        "grid, budget",
        [((20.0, 8.0, 20.0), None), ((8.0, 20.0), 5)],
        ids=["repeated-unsorted", "budget-5"],
    )
    def test_stacks_keep_each_rows_bits(self, per_trial_rows, monkeypatch, grid, budget):
        """The rows stay the per-trial calls' for a repeated and unsorted grid
        (8 slots of 3 blocks) and at a row budget of 5 with no slot floor,
        whose 2 slots of 2 blocks leave the stack a block short of the
        budget, so that 51 of the 53 trials wait for a slot to free."""
        if budget is not None:
            monkeypatch.setattr(signal_ml, "_ROWS", budget)
            monkeypatch.setattr(signal_ml, "_MIN_SLOTS", 1)
        got = mse_experiment(ring_positions(), gauss_cfg(), list(grid), trials=53, seed=13)
        assert [dataclasses.astuple(r) for r in got] == [per_trial_rows[g] for g in grid]

    @pytest.mark.parametrize("points, slots", [(1, 24), (3, 8), (7, 8), (8, 7), (48, 1)])
    def test_slot_floor_is_capped_by_block_count(self, points, slots):
        """Grids of up to 7 points keep the floor of 8 slots; longer ones
        stay within the default grid's 56 blocks, down to one slot."""
        assert signal_ml._slots(points) == slots
        assert points * slots <= max(signal_ml._MAX_BLOCKS, signal_ml._ROWS)

    def test_no_unconverged_solves_at_22_db(self):
        params = SystemParams()
        rows = mse_experiment(
            zenith_ring_geometry(params), default_signal_config(params.c), [22.0],
            trials=50, seed=5,
        )
        assert (rows[0].unconverged_xy, rows[0].unconverged_xyz) == (0, 0)

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


def finite_difference_information(positions, config) -> np.ndarray:
    """The extended information over (x, y, z, c*T0, A_1..A_M) at the
    truth, g^T g over the central differences g of the noiseless windows,
    with steps of 1e-3 km and max(1e-3 |A_m|, 1e-9): the route the analytic
    check replaced, kept as its reference."""
    amps = amplitudes(positions, config.es_max)

    def mean(theta):
        taus = np.linalg.norm(positions - theta[:3], axis=1) / config.c + theta[3] / config.c
        t = np.arange(config.n_samples) * config.dt - taus[:, None]
        return (theta[4:, None] * signal_ml._pulse(config, t)[0]).ravel()

    theta0 = np.concatenate([np.zeros(3), [centered_t0(positions, config) * config.c], amps])
    steps = np.concatenate([np.full(4, 1.0e-3), np.maximum(1.0e-3 * np.abs(amps), 1.0e-9)])
    g = np.stack(
        [(mean(theta0 + e) - mean(theta0 - e)) / (2.0 * h) for e, h in zip(np.diag(steps), steps)],
        axis=1,
    )
    return g.T @ g


def coupling_of(j: np.ndarray) -> float:
    """max |J_am| / sqrt(J_aa J_mm) over the cross block of a (4 + M)-square J."""
    diag = np.sqrt(np.diag(j))
    return float((np.abs(j[:4, 4:]) / np.outer(diag[:4], diag[4:])).max())


def recorded(monkeypatch, *names) -> dict[str, list]:
    """Wrap the named signal_ml functions so that each call's result is
    appended to the list under its name."""
    seen = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(signal_ml, name), _out=seen[name], **kwargs):
            _out.append(_fn(*args, **kwargs))
            return _out[-1]

        monkeypatch.setattr(signal_ml, name, wrapper)
    return seen


def analytic_check(positions, config, monkeypatch) -> tuple[float, np.ndarray]:
    """decoupling_check's value and the diagonal of its J: the position
    block's from its `weighted_gram` and <s, s>_m from its `_pulse`."""
    seen = recorded(monkeypatch, "_pulse", "weighted_gram")
    coupling = decoupling_check(positions, config)
    ((s, _),) = seen["_pulse"]
    (j_pos,) = seen["weighted_gram"]
    return coupling, np.concatenate([np.diag(j_pos), np.einsum("mk,mk->m", s, s)])


def truncated_pulse(monkeypatch) -> None:
    """Replace `_pulse` by the pulse with s and s' both zero past 0.15
    pulse_width: a consistent model whose amplitudes couple to the delay."""
    pulse = signal_ml._pulse

    def truncated(config, t, outside=None):
        s, ds = pulse(config, t, outside)
        cut = t > 0.15 * config.pulse_width
        s[cut] = 0.0
        ds[cut] = 0.0
        return s, ds

    monkeypatch.setattr(signal_ml, "_pulse", truncated)


class TestDecoupling:
    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_matches_finite_differences(self, cfg, monkeypatch):
        """Both routes see no coupling, and J's diagonal agrees with the
        central differences' within their error: 1e-7 relative on the
        position and clock, whose O(step^2) error is of order (1e-3 km / c
        sigma)^2 = 9e-8 (4.5e-8 at worst), and 1e-12 on the amplitudes,
        where the mean is linear and only rounding is left (1.1e-13)."""
        pos = ring_positions()
        j = finite_difference_information(pos, cfg)
        coupling, diag = analytic_check(pos, cfg, monkeypatch)
        assert coupling < 1e-11 and coupling_of(j) < 1e-11
        np.testing.assert_allclose(diag[:4], np.diag(j)[:4], rtol=1e-7)
        np.testing.assert_allclose(diag[4:], np.diag(j)[4:], rtol=1e-12)

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_coupled_model_matches_finite_differences(self, cfg, monkeypatch):
        """On the truncated pulse the coupling is large (0.462 gaussian,
        0.260 raised cosine), and the two routes agree within 1e-8."""
        pos = ring_positions()
        truncated_pulse(monkeypatch)
        reference = coupling_of(finite_difference_information(pos, cfg))
        assert reference > 0.1
        assert decoupling_check(pos, cfg) == pytest.approx(reference, rel=1e-8)

    def test_one_pulse_evaluation_and_one_gram(self, monkeypatch):
        """The check reads the analytic model once: no truth mean, no
        differences of rebuilt windows."""
        seen = recorded(monkeypatch, "_pulse", "weighted_gram", "_truth_mean")
        decoupling_check(ring_positions(), gauss_cfg())
        assert {name: len(calls) for name, calls in seen.items()} == {
            "_pulse": 1, "weighted_gram": 1, "_truth_mean": 0,
        }

    def test_symmetric_pulse_decouples(self):
        worst = decoupling_check(ring_positions(), gauss_cfg())
        assert worst < 1e-3

    def test_truncated_pulse_couples(self, monkeypatch):
        pos = ring_positions()
        sym = decoupling_check(pos, gauss_cfg())

        # zero the pulse after 0.15 pulse_width, without re-normalizing its
        # energy, to confirm the check can detect a coupled model
        def truncated(config, t):
            s, ds = pulse(config, t)
            s[t > 0.15 * config.pulse_width] = 0.0
            return s, ds

        pulse = signal_ml._pulse
        monkeypatch.setattr(signal_ml, "_pulse", truncated)
        broken = decoupling_check(pos, gauss_cfg())
        assert broken > 0.01
        assert broken > 100.0 * max(sym, 1e-12)

    def test_invariant_to_amplitude_scale(self):
        pos = ring_positions()
        a = decoupling_check(pos, gauss_cfg(es_max=1.0))
        b = decoupling_check(pos, gauss_cfg(es_max=1.0e4))
        assert b < 1e-3
        assert math.isclose(a, b, rel_tol=1e-3, abs_tol=1e-9)

    def test_invariant_until_the_information_overflows(self):
        """J_aa J_bb overflows from es_max of about 1e297, J itself only
        from about 1e303; until then the coupling keeps its value, and from
        there it is NaN, with no floating-point warning either way."""
        pos = ring_positions()
        a = decoupling_check(pos, gauss_cfg(es_max=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = decoupling_check(pos, gauss_cfg(es_max=1.0e300))
            assert math.isnan(decoupling_check(pos, gauss_cfg(es_max=1.0e308)))
        assert b == pytest.approx(a, rel=1e-2)
