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
from satcrb.geometry import InvalidConfig, SystemParams, cup_edges, stream_keys, streams
from satcrb.signal_ml import (
    InsufficientCoverage,
    LocationEstimate,
    SignalConfig,
    _as_blocks,
    _Ascent,
    _Blocks,
    _coarse,
    _dot,
    _evaluator,
    _lattice,
    _lattice_offsets,
    _lattice_points,
    _MARGIN,
    _matched_filter,
    _noise_sigma,
    _normals,
    _Profile,
    _profile,
    _pulse,
    _pulse_filter,
    _reads,
    _scan,
    _scoring_steps,
    _search,
    _start,
    _terms,
    _truth_mean,
    _XTOL,
    amplitudes,
    centered_t0,
    decoupling_check,
    default_signal_config,
    make_pulse,
    ml_localize,
    mse_experiment,
    rms_bandwidth,
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


def reference_lattice_start(samples, pos, points, cfg):
    """(xi, T0) at the first best lattice point, scanned one point at a time
    with a stacked window per point: the loop that `_coarse` and `_start`
    replaced, kept as their oracle."""
    pulse_filter = _pulse_filter(make_pulse(cfg), samples.shape[1])
    corr = _matched_filter(samples, pulse_filter)[:, _MARGIN : _MARGIN + samples.shape[1]]
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


def reference_contributions(samples, taus, config) -> tuple[np.ndarray, np.ndarray]:
    """Per satellite, C_m(tau_m)^2 / E_m(tau_m) and E_m(tau_m): the
    per-satellite loop that the vectorised profile replaced, kept as its
    oracle."""
    support_half = 0.5 * config.support
    dt = config.dt
    k = config.n_samples
    contrib, energies = np.zeros(len(taus)), np.zeros(len(taus))
    for m, (v, tau) in enumerate(zip(samples, taus)):
        lo = max(0, int(math.ceil((tau - support_half) / dt)))
        hi = min(k - 1, int(math.floor((tau + support_half) / dt)))
        if hi < lo:
            continue
        idx = np.arange(lo, hi + 1)
        s = _pulse(config, idx * dt - tau)[0]
        energies[m] = float(np.dot(s, s))
        if energies[m] <= 0.0:
            continue
        corr = float(np.dot(v[lo : hi + 1], s))
        contrib[m] = corr * corr / energies[m]
    return contrib, energies


def window_pad(config) -> int:
    """The zero samples the window route puts on each side of a sample row:
    one less than the L samples it lays around a delay, so every such range
    that overlaps the observation window lies inside the padded row."""
    return int(config.support / config.dt) + 1


def window_reads(samples, search, config):
    """`_reads` of the window route: the matched filter, and the samples
    themselves with `window_pad` zeros on each side of their K."""
    pad = window_pad(config)
    padded = np.zeros(samples.shape[:-1] + (samples.shape[-1] + 2 * pad,))
    padded[..., pad:-pad] = samples
    return _matched_filter(samples, search.pulse_filter), padded


def windows(a: np.ndarray, n: int) -> np.ndarray:
    """View of the C-contiguous a as its n-sample windows: [..., j, :] is
    a[..., j : j + n]."""
    shape = a.shape[:-1] + (a.shape[-1] - n + 1, n)
    return np.ndarray(shape, a.dtype, a, 0, a.strides + a.strides[-1:])


def window_terms(blocks, taus, search, config, rows):
    """`_terms` by the window route that the profile took before it read
    matched-filter tables, kept as its reference: blocks holds the
    `window_reads` tables. Each satellite's window is the L = P + 1
    samples from the first the pulse support covers around tau_m (P =
    `window_pad`), with the samples the support does not cover or that
    fall outside the observation window masked; it is gathered from the
    padded normals and mean and formed as sigma * z + mean, the multiply
    and add that form the block's samples, so it has their bits."""
    dt = config.dt
    n_sats, k = len(blocks.mean), config.n_samples
    half = 0.5 * config.support
    pad = window_pad(config)
    lo = np.ceil((taus - half) / dt)
    hi = np.minimum(np.floor((taus + half) / dt), k - 1)
    j = np.arange(pad + 1)
    t = lo[..., None] + j
    t *= dt
    t -= taus[..., None]
    masked = j < -lo[..., None]
    masked |= j > (hi - lo)[..., None]
    s, ds = _pulse(config, t)
    s[masked] = 0.0
    ds[masked] = 0.0
    start = np.fmin(np.fmax(lo + pad, 0.0), k + pad - 1).astype(int)
    sats = np.arange(n_sats)
    slot, level = np.divmod(rows, len(blocks.sigma))
    v = windows(blocks.tables, pad + 1)[slot[:, None], sats, start]
    v *= blocks.sigma[level][:, None, None]
    v += windows(blocks.mean, pad + 1)[sats, start]
    return tuple(
        np.einsum("...l,...l->...", a, b)
        for a, b in ((v, s), (v, ds), (s, s), (s, ds), (ds, ds))
    )


def window_profile(blocks, taus, search, config, rows) -> _Profile:
    """`_profile` by the window route: every satellite whose window holds
    any pulse energy counts."""
    corr, d, energy, cross, g = window_terms(blocks, taus, search, config, rows)
    inv_e = np.divide(1.0, energy, out=np.zeros_like(energy), where=energy > 0.0)
    a = corr * inv_e
    slope = -2.0 * a * (d - a * cross)
    resid = g - cross * cross * inv_e
    return _Profile(
        score=_dot(corr, a),
        amplitudes=a,
        slope=slope,
        curvature=2.0 * a * a * resid,
    )


def window_route(monkeypatch) -> None:
    """Run the estimator on the window route: the slots keep the padded
    normals and each round gathers the windows."""
    monkeypatch.setattr(signal_ml, "_reads", window_reads)
    monkeypatch.setattr(signal_ml, "_profile", window_profile)


def reference_refine(evaluate, u0, radius, max_iter):
    """One block's fine stage as the per-trial solver did it before blocks
    were refined in lockstep: a scalar trust-region loop over evaluate(u),
    which returns (score, amplitudes, gradient, Fisher matrix) at u. Kept
    as the oracle the lockstep solver must match bit for bit. Returns (u,
    score, amplitudes, converged)."""
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


def tables(samples, cfg):
    """The (C, M, K) samples as C blocks of themselves (`_as_blocks`), with
    the search around the origin of the ring that reads them."""
    search = _search(ring_positions(), np.zeros(3), cfg)
    return _as_blocks(samples, search, cfg)[0], search


def refine(blocks, search, pos, u0, cfg, max_iter, pinned=None):
    """The lockstep fine stage of the blocks, from the starts u0 (R, 4),
    row i refining block i; pinned marks the rows that keep their z."""
    if pinned is None:
        pinned = np.zeros(len(u0), dtype=bool)
    evaluate = _evaluator(blocks, pos, search, cfg, pinned)
    return ascend(evaluate, u0, search.radius, max_iter, _XTOL, len(pos))


def coarse_scan(samples, pos, points, cfg):
    """`_coarse` of one trial's (M, K) samples over the lattice points, as a
    stack of one block: its (1, G) best scores and clock offsets."""
    corr = _matched_filter(samples, _pulse_filter(make_pulse(cfg), cfg.n_samples))
    corr = corr[:, _MARGIN : _MARGIN + cfg.n_samples]
    return _coarse((corr * corr)[None], _lattice(pos, points, cfg), cfg)


def noisy_windows(cfg, seed, trial=0):
    pos = ring_positions()
    t0 = centered_t0(pos, cfg)
    return pos, t0, simulate_measurements((np.zeros(3), t0), pos, cfg, seed, trial=trial)


def profile_one(samples, taus, cfg) -> _Profile:
    """`_profile` of one trial's (M, K) samples at its delays (M,)."""
    blocks, search = tables(samples[None], cfg)
    prof = _profile(blocks, taus[None], search, cfg, np.arange(1))
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
        s = make_pulse(cfg)
        assert abs(float(np.dot(s, s)) * cfg.dt - 1.0) < 1e-10

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_time_symmetry_and_centering(self, cfg):
        s = make_pulse(cfg)
        assert len(s) % 2 == 1
        assert np.array_equal(s, s[::-1])
        assert np.argmax(s) == len(s) // 2

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_odd_moment_vanishes(self, cfg):
        n = len(make_pulse(cfg))
        t = (np.arange(n) - n // 2) * cfg.dt
        s, ds = _pulse(cfg, t)
        assert abs(float(np.dot(s, ds)) * cfg.dt) < 1e-8

    @pytest.mark.parametrize(
        "cfg",
        [gauss_cfg(), gauss_cfg(sample_rate=2.3e6), rc_cfg(), rc_cfg(sample_rate=37.3 / RC_PERIOD)],
        ids=["gauss", "gauss-2.3MHz", "rc", "rc-37.3"],
    )
    def test_matches_oracle(self, cfg):
        """s and s' at the times the program evaluates, against the 50-digit
        pulse. The gaussian is within 1e-14 relative, the worst being 4.4e-15
        where the exponent's rounding is scaled by up to 18; the raised
        cosine's 1 + cos cancels towards its edges, so it is held to 1e-15 of
        its peak (3.0e-16 at worst)."""
        t = pulse_arguments(cfg)
        s, ds = _pulse(cfg, t)
        want = [oracle.pulse(cfg, float(x)) for x in t]
        for got, ref in zip((s, ds), zip(*want)):
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
        s = make_pulse(cfg)
        ac = np.correlate(s, s, mode="full")
        mid = len(s) - 1
        assert np.argmax(ac) == mid
        near = ac[mid : mid + 6]
        assert np.all(np.diff(near) < 0.0)


def pulse_arguments(cfg) -> np.ndarray:
    """The times the program gives `_pulse`: the `_template` lattice, and
    sample times k dt - tau at four fractional delays tau, across the
    support and two samples past each edge."""
    dt = cfg.dt
    half = int(math.ceil(0.5 * cfg.support / dt))
    lattice = (np.arange(2 * half + 1) - half) * dt
    taus = (5.0 + np.array([0.13, 0.5, 0.77, 0.999])) * dt
    shifted = (np.arange(-half - 2, half + 3) + 5.0) * dt - taus[:, None]
    return np.concatenate([lattice, shifted.ravel()])


# the points of the fine lattice the spectral route samples the pulse on
FINE_POINTS = 2048


def effective_bandwidth(cfg, n_fft=1 << 16):
    """RMS (Gabor) bandwidth in Hz from the pulse spectrum, the route
    independent of rms_bandwidth's closed form: sqrt(int f^2 |S|^2 df /
    int |S|^2 df) over the zero-padded FFT of s on a lattice of
    FINE_POINTS steps across cfg's support (the edges included),
    whatever the measurement rate: at a non-commensurate rate the
    measurement lattice alone estimates the raised cosine's spectral
    moments about three orders of magnitude too coarsely for 1e-6."""
    step = cfg.support / FINE_POINTS
    fine = _pulse(cfg, (np.arange(FINE_POINTS + 1) - FINE_POINTS // 2) * step)[0]
    spec = np.abs(np.fft.fft(fine, n=n_fft)) ** 2
    f = np.fft.fftfreq(n_fft, d=step)
    return math.sqrt(float(np.dot(f * f, spec) / np.sum(spec)))


class TestEffectiveBandwidth:
    def test_gaussian_closed_form(self):
        """The gaussian test pulse is built for W_e = 10 kHz."""
        cfg = gauss_cfg()
        assert rms_bandwidth(cfg) == pytest.approx(W_E, rel=1e-15)
        assert effective_bandwidth(cfg) == pytest.approx(W_E, rel=1e-6)

    def test_raised_cosine_closed_form(self):
        """So is the raised cosine's."""
        cfg = rc_cfg()
        assert rms_bandwidth(cfg) == pytest.approx(W_E, rel=1e-15)
        assert effective_bandwidth(cfg) == pytest.approx(W_E, rel=1e-6)

    @pytest.mark.parametrize(
        "cfg, bound",
        [(gauss_cfg(), 2e-15), (gauss_cfg(pulse_width=2.75 * GAUSS_SIGMA), 2e-15),
         (gauss_cfg(pulse_width=1.0e-6, sample_rate=2.3e7), 2e-15),
         (rc_cfg(), 1e-15), (rc_cfg(pulse_width=1.0e-4, sample_rate=1.6e5), 1e-15),
         (rc_cfg(pulse_width=3.7e-5, sample_rate=1.0e6), 1e-15)],
        ids=["gauss", "gauss-2.75", "gauss-1us", "rc", "rc.cfg", "rc-37us"],
    )
    def test_closed_form_matches_oracle(self, cfg, bound):
        """The closed form against the 50-digit RMS bandwidth of the pulse
        the program samples. The gaussian's untruncated closed form sits
        a exp(-a^2) / (sqrt(pi) erf(a)) = 7.8e-16 (a = 6) above the
        truncated pulse's value, so it is held to 2e-15; the raised
        cosine, whose support is its period, to 1e-15."""
        assert oracle.rel_err(rms_bandwidth(cfg), oracle.rms_bandwidth(cfg)) <= bound

    @pytest.mark.parametrize(
        "cfg",
        [gauss_cfg(), gauss_cfg(sample_rate=16.0 / GAUSS_SIGMA), rc_cfg(),
         rc_cfg(sample_rate=40.0 / RC_PERIOD)],
        ids=["gauss", "gauss-min", "rc-min", "rc-2.5x"],
    )
    def test_routes_agree(self, cfg):
        assert effective_bandwidth(cfg) == pytest.approx(rms_bandwidth(cfg), rel=1e-6)

    def test_dilation_scales_inversely(self):
        a = 2.75
        w1 = rms_bandwidth(gauss_cfg())
        w2 = rms_bandwidth(
            gauss_cfg(
                pulse_width=a * GAUSS_SIGMA,
                sample_rate=1.5e6 / a,
                obs_window=a * 2.6e-3,
            )
        )
        assert w1 / w2 == pytest.approx(a, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        pulse=st.sampled_from(signal_ml.PULSES),
        width=st.floats(min_value=1e-6, max_value=1e-4),
        oversample=st.floats(min_value=16.1, max_value=64.0),
    )
    def test_route_agreement_property(self, pulse, width, oversample):
        cfg = gauss_cfg(
            pulse=pulse,
            pulse_width=width,
            sample_rate=oversample / width,
            obs_window=13.0 * width,
        )
        s = make_pulse(cfg)
        assert abs(float(np.dot(s, s)) / cfg.sample_rate - 1.0) < 1e-10
        assert effective_bandwidth(cfg) == pytest.approx(rms_bandwidth(cfg), rel=1e-6)

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
        s = make_pulse(cfg)
        for v, tau in zip(samples, taus):
            # full correlation index ph + j holds sum_k v[k] s((k - j) dt)
            corr = np.correlate(v, s, mode="full")
            j_hat = int(np.argmax(corr)) - len(s) // 2
            assert abs(j_hat * cfg.dt - tau) <= 0.5 * cfg.dt

    def test_one_draw_per_trial_is_the_row_by_row_draw(self):
        """`_normals` fills each trial's (M, K) block in one draw, which the
        stream fills in row order: the normals of one draw per row, and so
        the samples of `simulate_measurements`, keep their bits."""
        keys = stream_keys(19, range(3))
        got = np.empty((3, 6, 500))
        _normals(keys, got)
        want = np.empty_like(got)
        for gen, block in zip(streams(keys), want):
            for row in block:
                gen.standard_normal(out=row)
        assert np.array_equal(got, want)
        cfg = gauss_cfg()
        pos, t0, samples = noisy_windows(cfg, seed=19, trial=2)
        z = np.empty((6, cfg.n_samples))
        gen = next(streams(stream_keys(19, range(2, 3))))
        for row in z:
            gen.standard_normal(out=row)
        mean = _truth_mean((np.zeros(3), t0), pos, cfg)
        assert np.array_equal(samples, _noise_sigma(cfg) * z + mean)

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
        w_e = rms_bandwidth(cfg)
        j_ana = 2.0 / cfg.n0 * (2.0 * math.pi * w_e) ** 2
        assert j_num == pytest.approx(j_ana, rel=0.02)

    def test_fim_clock_entry_is_weight_sum(self):
        cfg = gauss_cfg()
        pos = ring_positions()
        j = signal_fim(pos, cfg)
        w_e = rms_bandwidth(cfg)
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


def window_blocks(samples, cfg) -> _Blocks:
    """The (C, M, K) samples as C blocks of themselves on the window route."""
    search = _search(ring_positions(), np.zeros(3), cfg)
    padded = window_reads(samples, search, cfg)[1]
    return _Blocks(padded, np.zeros(padded.shape[1:]), np.ones(1))


def rc_file_cfg() -> SignalConfig:
    """tests/rc.cfg: the raised cosine at 16 samples per period, K = 416."""
    return rc_cfg(pulse_width=1.0e-4, sample_rate=1.6e5)


def truncation_step(samples, cfg) -> float:
    """J = max |v_k| s(6 sigma): the largest step that the gaussian's +-6
    sigma truncation puts into C(tau), when a sample crosses the support's
    edge. It is exp(-18) = 1.5e-8 of |v_k| s(0)."""
    return float(np.max(np.abs(samples)) * _pulse(cfg, np.array([0.5 * cfg.support]))[0][0])


def term_bounds(samples, cfg) -> dict[str, float]:
    """The largest distance of each of the five terms from the window
    route, as a multiple of the term's peak (a positive value) or of the
    scale J (`truncation_step`) (a negative value, -m for m J, and m J/dt
    for D). The raised cosine's five sums are exact up to rounding: 1e-13
    of each term's peak. The gaussian's interpolants cannot follow the
    steps of its truncation, so C and D are bounded by the step J, as 2 J
    and 4 J/dt (measured: 0.56 J and 1.14 J/dt, at 6 and 20 dB, at 16 and
    24.8 samples per sigma, and noiseless); E, X and G are filtered from
    s^2 and s'^2, whose steps are exp(-18) s(0)^2 smaller still, so they
    keep to 2e-12, 2e-10 and 2e-11 of their peaks (measured: 3.8e-13,
    4.2e-11 and 3.7e-12, X the derivative of E's interpolant, largest
    where the window's edges cut the pulse)."""
    if cfg.pulse == "raised_cosine":
        return dict.fromkeys("CDEXG", 1e-13)
    step = truncation_step(samples, cfg)
    return {"C": -2.0 * step, "D": -4.0 * step / cfg.dt, "E": 2e-12, "X": 2e-10, "G": 2e-11}


class TestProfiledScore:
    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_matches_reference_loop(self, cfg):
        """Over delays past both ends of the window, the window route's
        score is the per-satellite loop's within 1e-12. The tables' score
        leaves out the satellites whose pulse keeps under half its energy
        in the window, and is the loop's over the rest within what the
        term bounds give: for the raised cosine 1e-12 of the largest
        score, and for the gaussian sum_m 4 J (|C_m| + J) / E_m, from C's
        bound of 2 J (J = `truncation_step`)."""
        # a (C, M) stack of delays over C = 5 trials' samples
        samples = np.array([noisy_windows(cfg, seed=21, trial=t)[2] for t in range(5)])
        blocks, search = tables(samples, cfg)
        step = truncation_step(samples, cfg)
        rng = np.random.default_rng(5)
        half = 0.5 * cfg.support
        clipped = left_out = 0
        rows = np.arange(len(samples))
        got, want, bounds = [], [], []
        for _ in range(8):
            # delays reach past both ends of the window, so some pulse
            # windows are clipped and some fall outside altogether
            taus = rng.uniform(-1.5 * half, cfg.obs_window + 1.5 * half, samples.shape[:2])
            clipped += int(np.sum((taus < half) | (taus > cfg.obs_window - half)))
            window = window_profile(window_blocks(samples, cfg), taus, search, cfg, rows).score
            got.append(_profile(blocks, taus, search, cfg, rows).score)
            assert got[-1].shape == (len(samples),)
            for v, tau, score in zip(samples, taus, window):
                contrib, energies = reference_contributions(v, tau, cfg)
                assert score == pytest.approx(float(contrib.sum()), rel=1e-12, abs=0.0)
                kept = energies >= 0.5 / cfg.dt
                left_out += int(np.sum(~kept & (energies > 0.0)))
                want.append(float(contrib[kept].sum()))
                corr = np.sqrt(contrib[kept] * energies[kept])
                bounds.append(float(np.sum(4.0 * step * (corr + step) / energies[kept])))
        assert clipped > 0 and left_out > 0
        got, want = np.concatenate(got), np.array(want)
        if cfg.pulse == "raised_cosine":
            bounds = 1e-12 * np.max(want)
        assert np.all(np.abs(got - want) <= bounds)

    @pytest.mark.parametrize(
        "cfg",
        [gauss_cfg(), gauss_cfg(n0=10.0**-0.6), gauss_cfg(sample_rate=16.0 / GAUSS_SIGMA),
         rc_cfg(), rc_file_cfg(), rc_cfg(obs_window=4000 * RC_PERIOD / 16.0)],
        ids=["gauss", "gauss-6dB", "gauss-min", "rc", "rc.cfg", "rc-K4000"],
    )
    def test_terms_match_the_window_route(self, cfg):
        """At delays where every pulse keeps half its energy in the window
        (from the first sample to the last), across the window, around the
        truth's delays and at the window's edges, the tables' five terms
        stay within `term_bounds` of the window route's."""
        k = cfg.n_samples
        samples = np.array([noisy_windows(cfg, seed=26, trial=t)[2] for t in range(4)])
        pos, t0, _ = noisy_windows(cfg, seed=26)
        rng = np.random.default_rng(8)
        truth = np.linalg.norm(pos, axis=1) / cfg.c + t0
        blocks, search = tables(samples, cfg)
        window = window_blocks(samples, cfg)
        rows = np.arange(len(samples))
        got, want = [], []
        for i in range(60):
            if i % 3 == 0:
                taus = truth + rng.uniform(-3.0, 3.0, samples.shape[:2]) * cfg.dt
            elif i % 3 == 1:
                taus = rng.uniform(0.0, (k - 1) * cfg.dt, samples.shape[:2])
            else:
                edge = rng.choice([0.0, k - 1.0], samples.shape[:2])
                taus = np.clip(edge + rng.uniform(-1.0, 1.0, edge.shape), 0.0, k - 1.0) * cfg.dt
            got.append(_terms(blocks, taus, search, cfg, rows))
            want.append(window_terms(window, taus, search, cfg, rows))
        for i, (name, bound) in enumerate(term_bounds(samples, cfg).items()):
            a = np.concatenate([g[i] for g in got], axis=None)
            b = np.concatenate([w[i] for w in want], axis=None)
            limit = -bound if bound < 0.0 else bound * np.max(np.abs(b))
            assert np.max(np.abs(a - b)) <= limit, name

    @pytest.mark.parametrize("cfg", [gauss_cfg(), rc_cfg()], ids=["gauss", "rc"])
    def test_pulses_under_half_their_energy_are_left_out(self, cfg):
        """A satellite counts while its pulse keeps half its energy in the
        window, at every delay from the first sample to the last. More than
        a sample before or after, and at a non-finite delay, its
        amplitude, slope and curvature are 0, the other satellites' terms
        keep their bits and the score is their sum. The window route keeps
        such a satellite: two samples before the window it divides by an
        energy under half the pulse's, and its amplitude is what a few
        noisy tail samples give."""
        pos, t0, samples = noisy_windows(cfg, seed=27)
        dt, k = cfg.dt, cfg.n_samples
        truth = np.linalg.norm(pos, axis=1) / cfg.c + t0
        blocks, search = tables(samples[None], cfg)
        alone = profile_one(samples, truth, cfg)
        assert np.all(alone.amplitudes > 0.5) and np.all(alone.curvature > 0.0)
        out, others = [1, 4], [0, 2, 3, 5]
        for tau in (-1.0001 * dt, -0.4 * cfg.support, (k + 0.0001) * dt,
                    k * dt + 0.4 * cfg.support, -1.0, 1.0, math.nan, math.inf, -math.inf):
            taus = truth.copy()
            taus[out] = tau
            prof = profile_one(samples, taus, cfg)
            for f in ("amplitudes", "slope", "curvature"):
                assert not getattr(prof, f)[out].any()
                assert np.array_equal(getattr(prof, f)[others], getattr(alone, f)[others])
            corr = _terms(blocks, taus[None], search, cfg, np.arange(1))[0][0]
            assert prof.score == pytest.approx(
                _dot(corr[others], prof.amplitudes[others]), rel=1e-15
            )
        for tau in (0.0, (k - 1) * dt):
            taus = truth.copy()
            taus[out] = tau
            assert np.all(profile_one(samples, taus, cfg).curvature > 0.0)
        taus = truth.copy()
        taus[out] = -2.0 * dt
        window = window_blocks(samples[None], cfg)
        energy = window_terms(window, taus[None], search, cfg, np.arange(1))[2][0, out]
        assert np.all((0.0 < energy) & (energy < 0.5 / dt))
        amps = window_profile(window, taus[None], search, cfg, np.arange(1)).amplitudes[0]
        assert np.all(amps[out] != 0.0) and np.all(np.isfinite(amps[out]))

    def test_trial_rows_select_samples(self):
        # delays for a subset of the trials, out of order, give those
        # trials' terms bit for bit, for either pulse
        for cfg in (gauss_cfg(), rc_cfg()):
            pos, t0, _ = noisy_windows(cfg, seed=24)
            samples = np.array([noisy_windows(cfg, seed=24, trial=t)[2] for t in range(4)])
            rng = np.random.default_rng(6)
            taus = np.linalg.norm(pos, axis=1) / cfg.c + t0 + rng.normal(0.0, cfg.dt, (4, 6))
            blocks, search = tables(samples, cfg)
            full = _profile(blocks, taus, search, cfg, np.arange(4))
            rows = np.array([3, 1])
            part = _profile(blocks, taus[rows], search, cfg, rows)
            for f in dataclasses.fields(full):
                assert np.array_equal(getattr(part, f.name), getattr(full, f.name)[rows])

    def test_block_index_spans_slots_and_levels(self):
        # a stack of 2 slots at 3 noise levels over a nonzero mean: block r
        # reads sigma[r % 3] * tables[r // 3] + mean, and rows out of order
        # across both slots and every level give the bits of a stack of
        # that one slot at that one level, for either pulse
        for cfg in (gauss_cfg(), rc_cfg()):
            self._check_block_index(cfg)

    @staticmethod
    def _check_block_index(cfg):
        pos, t0, _ = noisy_windows(cfg, seed=25)
        rng = np.random.default_rng(7)
        search = _search(pos, np.zeros(3), cfg)
        z = rng.standard_normal((2, len(pos), cfg.n_samples))
        _, z_tables = _reads(z, search, cfg)
        _, mean = _reads(_truth_mean((np.zeros(3), t0), pos, cfg), search, cfg)
        sigma = np.array([0.05, 0.3, 1.7])
        taus = np.linalg.norm(pos, axis=1) / cfg.c + t0 + rng.normal(0.0, cfg.dt, (6, 6))
        rows = np.array([4, 0, 5, 2, 3])
        got = _profile(_Blocks(z_tables, mean, sigma), taus[rows], search, cfg, rows)
        for i, r in enumerate(rows):
            alone = _Blocks(z_tables[r // 3 : r // 3 + 1], mean, sigma[r % 3 : r % 3 + 1])
            want = _profile(alone, taus[r : r + 1], search, cfg, np.arange(1))
            for f in dataclasses.fields(want):
                assert np.array_equal(getattr(got, f.name)[i], getattr(want, f.name)[0])

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
        """Every kept lag j = -P..K-1+P, P = _MARGIN, for a pulse of the
        shortest half length a config allows, 8 samples."""
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((3, 50))
        pulse = rng.standard_normal(17)
        ph = 8
        lags = range(-_MARGIN, 50 + _MARGIN)
        want = np.zeros((3, len(lags)))
        for col, j in enumerate(lags):
            for i in range(len(pulse)):
                k = j + i - ph  # pulse sample i sits at time (k - j) dt
                if 0 <= k < 50:
                    want[:, col] += samples[:, k] * pulse[i]
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
        spacing = cfg.c / (4.0 * rms_bandwidth(cfg))
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
        for trial in range(4):
            pos, _, samples = noisy_windows(cfg, seed=32, trial=trial)
            best, t0 = coarse_scan(samples, pos, points, cfg)
            xi, t0_hat = reference_lattice_start(samples, pos, points, cfg)
            want = np.append(xi, t0_hat * cfg.c)
            assert np.array_equal(_start(points, best, t0, cfg.c), [want])

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
        """One stack of 8 trials' fix_z rows and their full_3d rows: every
        row ends where the per-trial solver ends on that row alone, bit for
        bit, when it converges and when it runs out of iterations. A fix_z
        row's z stays the search center's, bit for bit."""
        pos = ring_positions()
        center = np.array([0.0, 0.0, 0.37])
        search = _search(pos, center, cfg)
        points = search.lattice.points
        plane = points[:, 2] == center[2]
        samples = np.array([noisy_windows(cfg, seed=43, trial=t)[2] for t in range(8)])
        blocks, corr = _as_blocks(samples, search, cfg)
        fix_z, full_3d = [], []
        for c in corr:
            best, t0 = _scan(c, np.ones(1), 0.0, search, cfg)
            fix_z.append(_start(points[plane], best[:, plane], t0[:, plane], cfg.c)[0])
            full_3d.append(_start(points, best, t0, cfg.c)[0])
        # row i refines block i % 8; the first 8 rows pin z
        u0 = np.array(fix_z + full_3d)
        pinned = np.arange(len(u0)) < len(samples)
        evaluate = _evaluator(blocks, pos, search, cfg, pinned)

        def alone(row):
            def evaluate_row(u):
                prof, grad, fisher = evaluate(np.array([row]), u[None])
                return prof.score[0], prof.amplitudes[0], grad[0], fisher[0]

            return evaluate_row

        for max_iter in (3, 100):
            batch = refine(blocks, search, pos, u0, cfg, max_iter, pinned)
            for i in range(len(u0)):
                want = reference_refine(alone(i), u0[i], search.radius, max_iter)
                for got, w in zip(batch, want):
                    assert np.array_equal(got[i], w)
            assert np.all(batch[0][pinned, 2] == center[2])
            assert np.any(batch[0][~pinned, 2] != center[2])

    def test_chunk_equals_one_trial_calls(self):
        """A chunk of trials refined together gives each trial the bits of
        its own `ml_localize` call and of a chunk of one."""
        cfg = gauss_cfg(n0=10.0**-1.2)  # 12 dB
        pos = ring_positions()
        t0 = centered_t0(pos, cfg)
        search = _search(pos, np.zeros(3), cfg)
        meas = [
            simulate_measurements((np.zeros(3), t0), pos, cfg, 41, trial=t)
            for t in range(5)
        ]
        samples = np.array(meas)
        _, corr = _as_blocks(samples, search, cfg)
        starts = np.concatenate(
            [_start(search.lattice.points, *_scan(c, np.ones(1), 0.0, search, cfg), cfg.c)
             for c in corr]
        )
        # the last entry restarts trial 0 at its own estimate, where the
        # first step is already shorter than the tolerance
        est0 = ml_localize(meas[0], pos, cfg)
        samples = np.concatenate([samples, samples[:1]])
        starts = np.vstack([starts, np.append(est0.xi_hat, est0.t0_hat * cfg.c)])
        for max_iter in (1, 100):
            batch = refine(_as_blocks(samples, search, cfg)[0], search, pos, starts, cfg,
                           max_iter)
            u, _, amps, converged = batch
            for i in range(len(starts)):
                one = refine(_as_blocks(samples[i : i + 1], search, cfg)[0], search, pos,
                             starts[i : i + 1], cfg, max_iter)
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
        lags = slice(_MARGIN, _MARGIN + cfg.n_samples)
        mean = _truth_mean((np.zeros(3), centered_t0(pos, cfg)), pos, cfg)
        mf_mean = _matched_filter(mean, search.pulse_filter)[:, lags]
        sigma = np.array([
            _noise_sigma(gauss_cfg(n0=1.0 / 10.0 ** (snr_db / 10.0)))
            for snr_db in np.linspace(-3.0, 30.0, 10)
        ])
        points = search.lattice.points
        planes = (points[:, 2] == 0.0, slice(None))
        z = np.empty((30,) + mean.shape)
        _normals(stream_keys(17, range(30)), z)
        for normals in z:
            best, t0 = _scan(_matched_filter(normals, search.pulse_filter), sigma, mf_mean,
                             search, cfg)
            for i, sd in enumerate(sigma):
                corr = _matched_filter(sd * normals + mean, search.pulse_filter)[:, lags]
                want_best, want_t0 = _coarse((corr * corr)[None], search.lattice, cfg)
                for on in planes:
                    got = _start(points[on], best[i : i + 1, on], t0[i : i + 1, on], cfg.c)
                    want = _start(points[on], want_best[:, on], want_t0[:, on], cfg.c)
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
        """Per SNR point, the row of one stack of one block per trial and
        mode, for 53 trials at seed 13: the block's reads are its trial's
        normals' at the point's noise level over the noiseless windows'.
        `test_rows_are_the_per_trial_calls` holds them to the public
        per-trial calls; the stacking cases below hold every stack to them."""
        pos = ring_positions()
        cfg = gauss_cfg()
        search = _search(pos, np.zeros(3), cfg)
        mean = _truth_mean((np.zeros(3), centered_t0(pos, cfg)), pos, cfg)
        mf_mean, mean_table = _reads(mean, search, cfg)
        mf_mean = mf_mean[:, _MARGIN : _MARGIN + cfg.n_samples]
        z = np.empty(mean.shape)
        rows = {}
        for snr_db in (8.0, 20.0):
            point = gauss_cfg(n0=1.0 / 10.0 ** (snr_db / 10.0))  # es_max = 1
            sigma = np.array([_noise_sigma(point)])
            errors = {mode: [] for mode in ("fix_z", "full_3d")}
            unconverged = dict.fromkeys(errors, 0)
            for trial in range(53):
                _normals(stream_keys(13, range(trial, trial + 1)), z[None])
                corr, table = _reads(z, search, cfg)
                for mode, n in (("fix_z", 2), ("full_3d", 3)):
                    ((xi, _, _, converged),) = signal_ml._localize(
                        _Blocks(table[None], mean_table, sigma), mf_mean, pos, search, cfg,
                        (mode,), signal_ml._MAX_ITER, 1, lambda slot, t: corr,
                    )
                    errors[mode].append(float(np.sum(xi[0, :n] ** 2)))
                    unconverged[mode] += not converged[0]
            rows[snr_db] = (
                snr_db, float(np.mean(errors["fix_z"])), float(np.mean(errors["full_3d"])),
                signal_crb(pos, point, "fix_z").xy, signal_crb(pos, point, "full_3d").xyz,
                53, unconverged["fix_z"], unconverged["full_3d"],
            )
        return rows

    def test_rows_are_the_per_trial_calls(self, per_trial_rows, monkeypatch):
        """53 trials (a partial last chunk) at two SNR points give the rows
        of one `simulate_measurements` and one `ml_localize` per trial, SNR
        point and mode. A block reads sigma*T(z) + T(mean), the samples'
        reads are T(sigma*z + mean), and the two differ in their last bits,
        so the bits are not the per-trial calls': at both points every
        estimate is within _XTOL of theirs with the same converged flag,
        the bounds and counts are theirs exactly, and each MSE is within
        what those estimates allow, _XTOL * mean(|x| + |x_call|). The rows
        are those of one stack of one block per trial, bit for bit."""
        pos = ring_positions()
        seen = recorded(monkeypatch, "_localize")
        got = mse_experiment(pos, gauss_cfg(), [8.0, 20.0], trials=53, seed=13)
        assert [dataclasses.astuple(r) for r in got] == [per_trial_rows[8.0], per_trial_rows[20.0]]
        ((fix_z, full_3d),) = seen["_localize"]
        for level, (row, snr_db) in enumerate(zip(got, (8.0, 20.0))):
            cfg = gauss_cfg(n0=1.0 / 10.0 ** (snr_db / 10.0))  # es_max = 1
            t0 = centered_t0(pos, cfg)
            unconverged = {}
            for mode, n, (xi, _, _, converged) in (
                ("fix_z", 2, fix_z), ("full_3d", 3, full_3d)
            ):
                # row 2 t + level is trial t at this point
                xi, converged = xi[level::2, :n], converged[level::2]
                calls = [
                    ml_localize(
                        simulate_measurements((np.zeros(3), t0), pos, cfg, 13, trial),
                        pos, cfg, mode=mode,
                    )
                    for trial in range(53)
                ]
                want = np.array([est.xi_hat[:n] for est in calls])
                assert np.all(np.linalg.norm(want - xi, axis=1) <= _XTOL)
                assert [est.converged for est in calls] == list(converged)
                unconverged[mode] = 53 - int(np.sum(converged))
                norms = np.linalg.norm(xi, axis=1) + np.linalg.norm(want, axis=1)
                mse = row.mse_xy if mode == "fix_z" else row.mse_xyz
                assert abs(mse - np.mean(np.sum(want**2, axis=1))) <= _XTOL * np.mean(norms)
            assert (row.crb_xy, row.crb_xyz, row.trials, row.unconverged_xy,
                    row.unconverged_xyz) == (
                signal_crb(pos, cfg, "fix_z").xy, signal_crb(pos, cfg, "full_3d").xyz,
                53, unconverged["fix_z"], unconverged["full_3d"],
            )

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

    def test_estimates_match_the_window_route(self, monkeypatch):
        """`ml --snr-grid 0,3,6,8,10,14,20 --trials 50` at seeds 1 to 6:
        from 10 dB up, every estimate is within _XTOL of the window
        route's (2.5e-5 km at worst, full_3d at 10 dB) and every converged
        flag is the same. Below 10 dB, which is not checked, 18 of the
        2400 estimates are farther than _XTOL, on another local maximum:
        fix_z up to 0.27 km, full_3d up to 6.2 km at 3 dB and 81 km at 0 dB,
        where the window route climbs onto the tail samples of a pulse 23
        samples before the window, which the tables leave out."""
        params = SystemParams()
        pos, cfg = zenith_ring_geometry(params), default_signal_config(params.c)
        grid = [0.0, 3.0, 6.0, 8.0, 10.0, 14.0, 20.0]
        seen = recorded(monkeypatch, "_localize")
        for seed in range(1, 7):
            mse_experiment(pos, cfg, grid, trials=50, seed=seed)
        tables_route = seen["_localize"][:]
        window_route(monkeypatch)
        for seed in range(1, 7):
            mse_experiment(pos, cfg, grid, trials=50, seed=seed)
        # row t S + s of a mode's estimates is trial t at SNR point s
        high = np.tile(np.array(grid) >= 10.0, 50)
        moved = 0
        for got, want in zip(tables_route, seen["_localize"][6:]):
            for (xi, _, _, converged), (w_xi, _, _, w_converged) in zip(got, want):
                distance = np.linalg.norm(xi - w_xi, axis=1)
                assert np.all(distance[high] <= _XTOL)
                assert np.array_equal(converged[high], w_converged[high])
                moved += int(np.count_nonzero(distance))
        # the routes differ: the window route did run
        assert moved > 0

    def test_round_work_does_not_grow_with_trials(self, monkeypatch):
        """The pulse is evaluated for the experiment's set-up only, twice
        for either pulse at 50 trials as at 100: the search's template and
        the truth's windows. The bounds take the closed-form bandwidth.
        Each scoring round reads the tables once, for both modes."""
        counts = {}
        for name, owner in (("_pulse", signal_ml), ("_terms", signal_ml),
                            ("step", signal_ml._Ascent)):
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for cfg in (gauss_cfg(), rc_cfg()):
            seen = []
            for trials in (50, 100):
                counts.update(dict.fromkeys(("_pulse", "_terms", "step"), 0))
                mse_experiment(ring_positions(), cfg, [6.0, 18.0, 30.0], trials, seed=3)
                assert counts["_terms"] == counts["step"] > 0
                seen.append(counts["_pulse"])
            assert seen == [2, 2], cfg.pulse


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

    def truncated(config, t):
        s, ds = pulse(config, t)
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
