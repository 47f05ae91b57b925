"""Discretized baseband signals and maximum-likelihood localization.

The receiver at the origin of the local frame observes, from each visible
satellite m at position p_m (km), a scaled and delayed copy of a unit-energy
pulse in white Gaussian noise:

    v_m(t_k) = A_m s(t_k - tau_m) + w_mk,   tau_m = |p_m - xi|/c + T0,

sampled at t_k = k*dt with noise variance N0/(2*dt) per sample. A
constellation is the (M, 3) array of the satellite positions p_m, km, in the
local frame, and a trial's samples the (M, K) array whose row m is p_m's
window. Amplitudes follow the 1/distance law A_m = (h/D_m)*sqrt(es_max)
with h the nearest satellite's distance, so the zenith satellite receives
exactly es_max. `_pulse` is the one evaluator of the analytic pulse and its
derivative. The ML location estimate profiles the amplitudes out
in closed form (matched-filter outputs), scans a coarse spatial lattice with
the clock offset maximized over correlation lags, then refines by Fisher
scoring (Gauss-Newton) on the exact profiled likelihood, evaluated at
fractional delays for all satellites at once via the analytic pulse and its
derivative (Kay, Fundamentals of Statistical Signal Processing I, sec. 7.7).

There is one solver, and it refines a chunk of trials in lockstep: `_ascend`
keeps each trial's scoring state, and one `_profile` call per round
evaluates every trial still running on a (C, M) stack of delays. Each trial
follows the iterate sequence it would follow alone, bit for bit.
`ml_localize` is a chunk of one. `mse_experiment` runs chunk by chunk: it
draws the unit normals of `_CHUNK` = 8 trials once, and at each SNR point
scales them into the chunk's samples, adds the pulse block it built once
for the experiment, scans each trial with one matched filter and one
full_3d lattice serving both modes, and refines the chunk together. Memory
sets that size: the chunk's normals and samples (M*K doubles per trial
each, 187 kB at the default config) are the two buffers the batching adds,
so batched FFTs or lattices over all trials of an SNR point are not used.

The per-satellite delay information of this discrete model is
2*(A_m^2/N0)*(2*pi*W_e)^2 with W_e the RMS (Gabor) effective bandwidth, which
is exactly the weight the bound modules call L_m once expressed per km^2;
`signal_fim` builds that matrix with the bound modules' `weighted_gram`, so
simulated MSE and the bound share one calibration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fim import (
    BoundSet,
    SingularInformation,
    crb_from_fim,
    inverse,
    timing_rows,
    weighted_gram,
)
from .geometry import (
    InvalidConfig,
    SystemParams,
    check_count,
    cup_edges,
    stream_keys,
    streams,
)

PULSES = ("gaussian", "raised_cosine")
MODES = ("fix_z", "full_3d")

# the gaussian is truncated to +-6 sigma: the edge value exp(-18) is small
# enough that the truncation discontinuity cannot disturb the spectral second
# moment at the 1e-6 level the bandwidth is checked to
_GAUSS_SUPPORT_SIGMAS = 12.0


class InsufficientCoverage(ValueError):
    """Too few visible satellites for the requested estimation mode."""


@dataclass(frozen=True)
class SignalConfig:
    """Waveform, sampling, and noise description of the measurement model.

    pulse: waveform family, 'gaussian' or 'raised_cosine'
    pulse_width: the waveform's width parameter, seconds -- the gaussian's
        sigma (support truncated to +-6 sigma), or the raised cosine's full
        period (which is exactly its support)
    sample_rate: Hz
    obs_window: observation span, seconds (all arrivals must fall inside)
    n0: two-sided noise spectral density N0 (per-sample variance N0/(2 dt))
    es_max: received pulse energy at distance h (zenith satellite)
    c: propagation speed, km/s
    """

    pulse: str
    pulse_width: float
    sample_rate: float
    obs_window: float
    n0: float
    es_max: float
    c: float

    def __post_init__(self) -> None:
        if self.pulse not in PULSES:
            raise InvalidConfig(f"pulse must be one of {PULSES}, got {self.pulse!r}")
        for name in ("pulse_width", "sample_rate", "obs_window", "n0", "es_max", "c"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidConfig(f"{name} must be positive")
        if self.sample_rate * self.pulse_width < 16.0:
            raise InvalidConfig(
                "sample_rate * pulse_width must be >= 16 so the pulse is "
                f"resolved, got {self.sample_rate * self.pulse_width:.3g}"
            )
        if self.obs_window <= self.support:
            raise InvalidConfig("obs_window must exceed the pulse support")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def n_samples(self) -> int:
        return int(round(self.obs_window * self.sample_rate))

    @property
    def support(self) -> float:
        """Total duration over which the pulse is nonzero, seconds."""
        if self.pulse == "gaussian":
            return _GAUSS_SUPPORT_SIGMAS * self.pulse_width
        return self.pulse_width


def default_signal_config(c: float) -> SignalConfig:
    """Gaussian pulse with a 10 kHz effective bandwidth, sampled at 1.5 MHz
    over a window long enough for the zenith-plus-ring delay spread."""
    sigma = 1.0 / (2.0 * math.pi * math.sqrt(2.0) * 1.0e4)
    return SignalConfig(
        pulse="gaussian",
        pulse_width=sigma,
        sample_rate=1.5e6,
        obs_window=2.6e-3,
        n0=1.0e-2,
        es_max=1.0,
        c=c,
    )


@dataclass(frozen=True)
class LocationEstimate:
    xi_hat: np.ndarray
    t0_hat: float
    amplitudes_hat: np.ndarray
    converged: bool


def _pulse(config: SignalConfig, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The analytic unit-energy pulse s(t), centered at t=0, and its time
    derivative at the times t; both are zero outside the support."""
    t = np.asarray(t, dtype=float)
    outside = np.abs(t) > 0.5 * config.support
    if config.pulse == "gaussian":
        sigma = config.pulse_width
        s = (math.pi * sigma * sigma) ** -0.25 * np.exp(-0.5 * (t / sigma) ** 2)
        s[outside] = 0.0
        return s, -t / (sigma * sigma) * s
    # raised cosine of full period pulse_width
    amp = math.sqrt(8.0 / (3.0 * config.pulse_width))
    w = 2.0 * math.pi / config.pulse_width
    s = amp * 0.5 * (1.0 + np.cos(2.0 * math.pi * t / config.pulse_width))
    ds = -amp * 0.5 * w * np.sin(w * t)
    s[outside] = 0.0
    ds[outside] = 0.0
    return s, ds


@dataclass(frozen=True)
class SampledPulse:
    """Pulse samples on the measurement lattice, energy-normalized.

    samples[i] = s((i - (len-1)/2) dt) at the config's dt, rescaled so that
    sum(s^2) dt = 1.
    fine and deriv_fine sample the same waveform on a fixed 2048-point lattice
    across the support (spacing support / 2048, independent of the measurement
    rate): the bandwidth is taken there, because at a non-commensurate sample rate
    the measurement lattice alone estimates the raised cosine's spectral
    moments about three orders of magnitude too coarsely for the 1e-6
    agreement with the FFT of the spectrum that the tests hold it to.
    """

    samples: np.ndarray
    fine: np.ndarray
    deriv_fine: np.ndarray

    @property
    def half_len(self) -> int:
        return (len(self.samples) - 1) // 2


_FINE_POINTS = 2048


def make_pulse(config: SignalConfig) -> SampledPulse:
    """Sample the pulse on the observation lattice and normalize its energy."""
    dt = config.dt
    half = int(math.ceil(0.5 * config.support / dt))
    raw = _pulse(config, (np.arange(2 * half + 1) - half) * dt)[0]
    scale = 1.0 / math.sqrt(float(np.dot(raw, raw)) * dt)
    dt_fine = config.support / _FINE_POINTS
    fine, deriv_fine = _pulse(
        config, (np.arange(_FINE_POINTS + 1) - _FINE_POINTS // 2) * dt_fine
    )
    return SampledPulse(
        samples=raw * scale,
        fine=fine * scale,
        deriv_fine=deriv_fine * scale,
    )


def effective_bandwidth_time(pulse: SampledPulse) -> float:
    """RMS (Gabor) bandwidth in Hz, sqrt(int f^2 |S|^2 df / int |S|^2 df),
    via Parseval on the analytic derivative: sqrt(sum sdot^2 / sum s^2) /
    (2 pi) over the fine lattice."""
    num = float(np.dot(pulse.deriv_fine, pulse.deriv_fine))
    den = float(np.dot(pulse.fine, pulse.fine))
    return math.sqrt(num / den) / (2.0 * math.pi)


def rss_negligibility_threshold(h: float, c: float) -> float:
    """Minimum effective bandwidth (Hz) for RSS information to be negligible.

    The amplitude channel adds nothing once (D W_e / c)^2 >> 1 for every
    satellite distance D >= h, i.e. for W_e well above c/h.
    """
    return c / h


def sat_positions(positions: np.ndarray) -> np.ndarray:
    """The (M, 3) km satellite positions in the local frame, as floats;
    InvalidConfig for any other shape."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise InvalidConfig("position array must have shape (M, 3)")
    return pos


# the ring of zenith_ring_geometry: its zenith angle and its satellite count
_RING_PHI_L = math.radians(30.0)
_N_RING = 5


def zenith_ring_geometry(params: SystemParams) -> np.ndarray:
    """(1 + _N_RING, 3) km positions: one satellite at zenith plus a ring of
    _N_RING = 5 at zenith angle _RING_PHI_L = 30 deg, all on the shell of
    height h."""
    d = float(cup_edges(params, params.h, _RING_PHI_L, float).dm)
    rho, z = d * math.sin(_RING_PHI_L), d * math.cos(_RING_PHI_L)
    ring = [
        [rho * math.cos(theta), rho * math.sin(theta), z]
        for theta in (2.0 * math.pi * k / _N_RING for k in range(_N_RING))
    ]
    return np.array([[0.0, 0.0, params.h], *ring])


def amplitudes(positions: np.ndarray, es_max: float) -> np.ndarray:
    """A_m = (h / D_m) sqrt(es_max) with h the nearest satellite's distance,
    so the zenith satellite receives es_max."""
    d = np.linalg.norm(positions, axis=1)
    return d.min() / d * math.sqrt(es_max)


def _delays(positions: np.ndarray, xi: np.ndarray, t0: float, c: float) -> np.ndarray:
    return np.linalg.norm(positions - xi[None, :], axis=1) / c + t0


def centered_t0(positions: np.ndarray, config: SignalConfig) -> float:
    """Clock offset that centers the arrival spread inside the window."""
    g = np.linalg.norm(positions, axis=1) / config.c
    return 0.5 * (config.obs_window - (g.max() - g.min())) - g.min()


def _pulse_block(
    truth: tuple[np.ndarray, float], positions: np.ndarray, config: SignalConfig
) -> list[tuple[int, int, np.ndarray]]:
    """Each satellite's (lo, hi, A_m s(t_k - tau_m)) for the samples
    lo <= k < hi of its window: the pulse's support with a sample of slack on
    either side (_pulse itself decides the edge samples), clipped to the
    window. Nothing here depends on N0, so every trial and SNR point of an
    experiment shares one block."""
    xi, t0 = np.asarray(truth[0], dtype=float), float(truth[1])
    if len(positions) < 4:
        raise InsufficientCoverage(
            f"need at least 4 visible satellites, got {len(positions)}"
        )
    amps = amplitudes(positions, config.es_max)
    taus = _delays(positions, xi, t0, config.c)
    dt, k = config.dt, config.n_samples
    half = 0.5 * config.support
    lo = np.clip(np.floor((taus - half) / dt).astype(int) - 1, 0, k)
    hi = np.clip(np.ceil((taus + half) / dt).astype(int) + 2, 0, k)
    return [
        (a, b, amp * _pulse(config, np.arange(a, b) * dt - tau)[0])
        for a, b, amp, tau in zip(lo, hi, amps, taus)
    ]


def _noisy_samples(
    noise: np.ndarray,
    block: list[tuple[int, int, np.ndarray]],
    config: SignalConfig,
    out: np.ndarray,
) -> np.ndarray:
    """out = sigma * noise with the pulse block added to every trial, for
    (C, M, K) unit normals and sigma = sqrt(N0 / (2 dt))."""
    np.multiply(math.sqrt(config.n0 / (2.0 * config.dt)), noise, out=out)
    for m, (lo, hi, pulse) in enumerate(block):
        out[:, m, lo:hi] += pulse
    return out


def simulate_measurements(
    truth: tuple[np.ndarray, float],
    positions: np.ndarray,
    config: SignalConfig,
    seed: int,
    trial: int = 0,
) -> np.ndarray:
    """The (M, K) block of sampled windows, deterministic per (seed, trial):
    row m is the window of positions[m], sigma times the stream's unit
    normals with its pulse added over the pulse's support. `mse_experiment`
    forms every trial's samples the same way."""
    pos = sat_positions(positions)
    block = _pulse_block(truth, pos, config)
    gen = next(streams(stream_keys(seed, range(trial, trial + 1))))
    noise = gen.standard_normal((1, len(pos), config.n_samples))
    return _noisy_samples(noise, block, config, noise)[0]


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class _Profile:
    """Per-satellite matched-filter terms at exact (fractional) delays, for a
    stack of C trials.

    With s_m the pulse over satellite m's window, C_m = <v_m, s_m> and
    E_m = <s_m, s_m>, the amplitude-profiled score is S = sum_m C_m^2 / E_m.
    slope is dS/dtau_m and curvature the expected -d2S/dtau_m^2 (Fisher
    information of the delay up to the common 1/N0 scale), both with the
    amplitude at its profiled value a_m = C_m / E_m. score is (C,), the
    other fields (C, M).
    """

    score: np.ndarray
    amplitudes: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (..., n) stacks. matmul takes each row
    through the dot product np.dot uses on one vector, so every entry has the
    one-vector bits; an einsum contraction sums in another order."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _profile(
    samples: np.ndarray,
    taus: np.ndarray,
    config: SignalConfig,
    trials: np.ndarray,
) -> _Profile:
    """Profiled-likelihood terms for a stack of trials in one array evaluation.

    samples is (T, M, K) and taus is (C, M): row i holds the delays of trial
    trials[i]. Each satellite's window is the sample range the pulse support
    covers around tau_m, clipped to the observation window, laid out as one
    (C, M, L) index array with the clipped part masked and gathered from the
    flattened samples, so no trial's samples are copied.
    """
    dt = config.dt
    n_sats, k = samples.shape[1:]
    half = 0.5 * config.support
    lo = np.ceil((taus - half) / dt).astype(int)
    hi = np.minimum(np.floor((taus + half) / dt).astype(int), k - 1)
    idx = lo[..., None] + np.arange(int(2.0 * half / dt) + 2)
    inside = (idx >= 0) & (idx <= hi[..., None])
    t = idx * dt - taus[..., None]
    s, ds = _pulse(config, t)
    s[~inside] = 0.0
    ds[~inside] = 0.0
    # the flat index of each window sample; idx is not needed after this
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, k - 1, out=idx)
    idx += (trials[:, None] * n_sats + np.arange(n_sats))[..., None] * k
    v = samples.reshape(-1)[idx]
    corr = np.einsum("...l,...l->...", v, s)
    energy = np.einsum("...l,...l->...", s, s)
    cross = np.einsum("...l,...l->...", s, ds)
    # windows wholly outside the observation window carry no pulse energy
    inv_e = np.divide(1.0, energy, out=np.zeros_like(energy), where=energy > 0.0)
    a = corr * inv_e
    # dS/dtau = -2 a <v - a s, s'>; the expected curvature is the Gauss-Newton
    # one of |v - a s(tau)|^2 with a profiled out: 2 a^2 (|s'|^2 - <s,s'>^2/E)
    slope = -2.0 * a * (np.einsum("...l,...l->...", v, ds) - a * cross)
    resid = np.einsum("...l,...l->...", ds, ds) - cross * cross * inv_e
    return _Profile(
        score=_dot(corr, a),
        amplitudes=a,
        slope=slope,
        curvature=2.0 * a * a * resid,
    )


def _pulse_filter(pulse: np.ndarray, k: int) -> tuple[np.ndarray, int, int]:
    """(spectrum, nfft, ph) of the matched filter for windows of k samples:
    the rfft of the time-reversed pulse over the transform length nfft, and
    ph, the pulse's half length. pulse holds the 2 ph + 1 samples of s
    centered on its middle index. The full linear correlation has
    K + 2 ph - 1 lags and only lags ph..ph+K-1 are kept, so a circular
    transform of length >= K + ph wraps nothing onto them. The pulse does
    not depend on N0, so its spectrum is computed once per experiment."""
    ph = (len(pulse) - 1) // 2
    nfft = 1 << (k + ph - 1).bit_length()
    return np.fft.rfft(pulse[::-1], nfft), nfft, ph


def _matched_filter(
    samples: np.ndarray, pulse_filter: tuple[np.ndarray, int, int]
) -> np.ndarray:
    """corr[m, j] = sum_k v_m[k] s((k - j) dt) for j = 0..K-1, by real FFTs,
    with pulse_filter = _pulse_filter(s, K)."""
    spectrum, nfft, ph = pulse_filter
    spec = np.fft.rfft(samples, nfft, axis=1)
    spec *= spectrum
    return np.fft.irfft(spec, nfft, axis=1)[:, ph : ph + samples.shape[1]]


def _lattice_offsets(halfwidth: float, spacing: float) -> np.ndarray:
    """Per-axis offsets of the coarse lattice: an odd number of points from
    -halfwidth to +halfwidth, so the center is one of them, at the fewest
    points whose spacing does not exceed `spacing`."""
    n_side = max(math.ceil(halfwidth / spacing), int(halfwidth > 0.0))
    return np.arange(-n_side, n_side + 1) / max(n_side, 1) * halfwidth


def _lattice_points(
    center: np.ndarray, halfwidth: float, spacing: float, mode: str
) -> np.ndarray:
    """(G, 3) coarse lattice around center, x slowest and z fastest. fix_z
    keeps the center's z, so its points are the full_3d lattice's dz = 0
    plane, in the same order."""
    offsets = _lattice_offsets(halfwidth, spacing)
    dz = offsets if mode == "full_3d" else np.zeros(1)
    grid = np.meshgrid(offsets, offsets, dz, indexing="ij")
    return center + np.stack(grid, axis=-1).reshape(-1, 3)


def _coarse(
    samples: np.ndarray,
    pulse_filter: tuple[np.ndarray, int, int],
    positions: np.ndarray,
    points: np.ndarray,
    config: SignalConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One trial's best lattice score at each point and the clock offset that
    attains it, from its (M, K) samples.

    At a point, score(l) = sum_m corr_m[rel_m + l]^2 over the common clock
    lags l, with corr_m the matched-filter output and rel_m the integer delay
    offsets the point implies; the score is -inf where the delay spread
    leaves no lag with every pulse in the window.
    """
    corr2 = _matched_filter(samples, pulse_filter)
    corr2 *= corr2
    dt, k = config.dt, config.n_samples
    g = np.linalg.norm(positions - points[:, None, :], axis=-1) / config.c
    o = np.round(g / dt).astype(int)
    rel = o - o.min(axis=1, keepdims=True)
    best = np.full(len(points), -math.inf)
    lag = np.zeros(len(points), dtype=int)
    for i, r in enumerate(rel.tolist()):
        width = k - max(r)
        if width <= 0:
            continue
        # summed in satellite order (at least three satellites)
        scores = corr2[0, r[0] : r[0] + width] + corr2[1, r[1] : r[1] + width]
        for m in range(2, len(r)):
            scores += corr2[m, r[m] : r[m] + width]
        j = lag[i] = scores.argmax()
        best[i] = scores[j]
    return best, np.mean((rel + lag[:, None]) * dt - g, axis=1)


def _start(
    points: np.ndarray, best: np.ndarray, t0: np.ndarray, n_xyz: int, c: float
) -> np.ndarray:
    """u = (x, y[, z], c*T0) at the first of the best-scoring lattice points."""
    i = int(np.argmax(best))
    if best[i] == -math.inf:
        raise SingularInformation("no lattice point keeps all pulses in-window")
    return np.append(points[i, :n_xyz], t0[i] * c)


def _unpack(
    u: np.ndarray, center: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (C, 3) and clock offsets (C,) of the (C, n) parameter rows
    u = (x, y[, z], c*T0); with n = 3 the z coordinate is the center's."""
    xi = np.repeat(center[None, :], len(u), axis=0)
    xi[:, : u.shape[1] - 1] = u[:, :-1]
    return xi, u[:, -1] / c


def _scoring_steps(fisher: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The scoring steps F^-1 g of a (C, n, n) and (C, n) stack; a trial
    whose F is singular steps along its gradient instead."""
    try:
        return np.linalg.solve(fisher, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return grad.copy()
        return np.concatenate(
            [_scoring_steps(fisher[i : i + 1], grad[i : i + 1]) for i in range(len(grad))]
        )


def _ascend(
    evaluate: Callable[[np.ndarray, np.ndarray], tuple[_Profile, np.ndarray, np.ndarray]],
    u0: np.ndarray,
    radius: float,
    max_iter: int,
    xtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fisher scoring (Gauss-Newton) in a trust region for the score's
    maximum, for a stack of trials in lockstep.

    u0 is (C, n), one start per trial. evaluate(trials, u) returns the
    profile of those trials at the points u (A, n), with the score's
    gradients (A, n) and expected Hessians (A, n, n). Each step solves the
    scoring equations and is clipped to the trust radius, which never
    exceeds `radius`, so the search cannot leap to a distant correlation
    peak. A step that lowers the score is halved, and the radius with it,
    until it does not; the radius then halves after a step that gains less
    than a quarter of the quadratic model's predicted gain, and doubles
    after a full-length step that gains more than three quarters of it.
    Converged once an accepted step is shorter than xtol, or no step longer
    than xtol raises the score; max_iter accepted steps at most.

    Every trial keeps its own point, score, gradient, Fisher matrix, trust
    radius and step length. Each round, every trial still running solves
    its scoring equations and clips the step to its radius, and one
    evaluate call scores all the proposals; a trial that finishes drops
    out, so each trial follows the iterate sequence it would follow alone.
    A rejected step needs no state of its own: the trial re-solves the same
    equations at the halved radius, which gives exactly the halved step,
    because halving a float is exact. Returns the points, their scores and
    amplitudes, and the converged flags.
    """
    u = np.array(u0, dtype=float)
    n_trials = len(u)
    cur, grad, fisher = evaluate(np.arange(n_trials), u)
    score, amps = cur.score.copy(), cur.amplitudes.copy()
    delta = np.full(n_trials, float(radius))
    iters = np.zeros(n_trials, dtype=int)
    converged = np.zeros(n_trials, dtype=bool)
    running = np.full(n_trials, max_iter > 0)
    while running.any():
        rows = np.flatnonzero(running)
        step = _scoring_steps(fisher[rows], grad[rows])
        n_s = np.sqrt(_dot(step, step))
        stop = ~np.isfinite(n_s) | (n_s == 0.0)
        if stop.any():
            converged[rows[stop]] = n_s[stop] == 0.0
            running[rows[stop]] = False
            rows, step, n_s = rows[~stop], step[~stop], n_s[~stop]
            if not len(rows):
                break
        d = delta[rows]
        clip = n_s > d
        step[clip] *= (d[clip] / n_s[clip])[:, None]
        n_s[clip] = d[clip]
        trial, t_grad, t_fisher = evaluate(rows, u[rows] + step)
        gain = trial.score - score[rows]
        up = gain >= 0.0

        down = rows[~up]
        delta[down] = 0.5 * n_s[~up]
        gave_up = down[delta[down] < xtol]
        converged[gave_up] = True
        running[gave_up] = False

        ok, gain, st, n_ok = rows[up], gain[up], step[up], n_s[up]
        predicted = _dot(grad[ok], st) - _dot(
            ((0.5 * st)[:, None, :] @ fisher[ok])[:, 0, :], st
        )
        u[ok] += st
        score[ok], amps[ok] = trial.score[up], trial.amplitudes[up]
        grad[ok], fisher[ok] = t_grad[up], t_fisher[up]
        iters[ok] += 1
        d_ok = delta[ok]
        shrink = gain < 0.25 * predicted
        grow = ~shrink & (gain > 0.75 * predicted) & (n_ok >= d_ok)
        delta[ok] = np.where(
            shrink, 0.5 * n_ok, np.where(grow, np.minimum(2.0 * d_ok, radius), d_ok)
        )
        done = n_ok < xtol
        converged[ok[done]] = True
        running[ok] = ~done & (iters[ok] < max_iter)
    return u, score, amps, converged


def _refine(
    samples: np.ndarray,
    positions: np.ndarray,
    center: np.ndarray,
    u0: np.ndarray,
    config: SignalConfig,
    radius: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fine stage of a chunk of trials with (C, M, K) samples: `_ascend`
    from the starts u0 (C, n) over u = (x, y[, z], c*T0), all in km, until a
    step is shorter than 0.2 m; with n = 3 z stays at the center's."""
    c = config.c
    n_xyz = u0.shape[1] - 1

    def evaluate(trials: np.ndarray, u: np.ndarray):
        xi, t0 = _unpack(u, center, c)
        diff = positions - xi[:, None, :]
        dist = np.linalg.norm(diff, axis=-1)
        prof = _profile(samples, dist / c + t0[:, None], config, trials)
        # d tau_m / d u: minus the unit line of sight over c, then 1/c
        jac = np.empty(dist.shape + (n_xyz + 1,))
        jac[..., :n_xyz] = -diff[..., :n_xyz] / (c * dist[..., None])
        jac[..., -1] = 1.0 / c
        grad = (np.swapaxes(jac, -1, -2) @ prof.slope[..., None])[..., 0]
        return prof, grad, weighted_gram(jac, prof.curvature)

    return _ascend(evaluate, u0, radius, max_iter, xtol=2.0e-4)


# the coarse lattice's half-width in km, for ml_localize and mse_experiment
# alike, and the most scoring steps of one solve, ml_localize's default
_HALFWIDTH = 4.5
_MAX_ITER = 100


def ml_localize(
    samples: np.ndarray,
    positions: np.ndarray,
    config: SignalConfig,
    mode: str = "full_3d",
    search_center: Sequence[float] = (0.0, 0.0, 0.0),
    max_iter: int = _MAX_ITER,
) -> LocationEstimate:
    """Maximum-likelihood (xi, T0) with amplitudes profiled out, from the
    (M, K) samples whose row m is the window of positions[m].

    Coarse stage: a lattice from search_center - 4.5 km to search_center +
    4.5 km per axis (`_HALFWIDTH`), odd-sized so the center is on it, with
    spacing at most c/(4 W_e); at each point the clock offset is maximized
    over integer correlation lags. Fine stage: Fisher scoring on the exact
    profiled likelihood over (x, y[, z], c*T0), all in km, with steps of at
    most half that spacing, until a step is shorter than 0.2 m (max_iter
    iterations at most; max_iter=0 returns the lattice start). In fix_z
    mode the z coordinate is pinned to the search center's z (the receiver
    knows its altitude). The fine stage is the lockstep solver of
    `mse_experiment`, run on a chunk of one trial.
    """
    _check_mode(mode)
    pos = sat_positions(positions)
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (len(pos), config.n_samples):
        raise InvalidConfig(
            f"samples need one row per position of {config.n_samples} samples, "
            f"got {samples.shape}"
        )
    need = 3 if mode == "fix_z" else 4
    if len(pos) < need:
        raise InsufficientCoverage(
            f"{mode} needs at least {need} measurements, got {len(pos)}"
        )
    try:
        center = np.asarray(search_center, dtype=float)
    except (TypeError, ValueError):
        center = np.empty(0)
    if center.shape != (3,) or not np.isfinite(center).all():
        raise InvalidConfig(
            f"search_center must be 3 finite numbers, got {search_center!r}"
        )
    max_iter = check_count("max_iter", max_iter, 0)
    sp = make_pulse(config)
    spacing = config.c / (4.0 * effective_bandwidth_time(sp))
    points = _lattice_points(center, _HALFWIDTH, spacing, mode)
    best, t0 = _coarse(
        samples, _pulse_filter(sp.samples, samples.shape[1]), pos, points, config
    )
    u0 = _start(points, best, t0, 2 if mode == "fix_z" else 3, config.c)
    u, _, amps, converged = _refine(
        samples[None], pos, center, u0[None], config, 0.5 * spacing, max_iter
    )
    xi_hat, t0_hat = _unpack(u, center, config.c)
    return LocationEstimate(
        xi_hat=xi_hat[0],
        t0_hat=float(t0_hat[0]),
        amplitudes_hat=amps[0],
        converged=bool(converged[0]),
    )


def signal_fim(positions: np.ndarray, config: SignalConfig) -> np.ndarray:
    """4x4 information over (x, y, z, c*T0) implied by the signal model.

    Weights are the per-satellite delay informations expressed per km^2:
    L_m = 2 (A_m^2 / N0) (2 pi W_e / c)^2.
    """
    pos = sat_positions(positions)
    amps = amplitudes(pos, config.es_max)
    w_e = effective_bandwidth_time(make_pulse(config))
    ell = 2.0 * amps**2 / config.n0 * (2.0 * math.pi * w_e / config.c) ** 2
    d = np.linalg.norm(pos, axis=1)
    return weighted_gram(timing_rows(pos / d[:, None]), ell)


def signal_crb(
    positions: np.ndarray, config: SignalConfig, mode: str = "full_3d"
) -> BoundSet:
    """CRB of the signal model; fix_z drops the z row/column before inverting."""
    _check_mode(mode)
    j = signal_fim(positions, config)
    if mode == "fix_z":
        keep = [0, 1, 3]
        inv = inverse(j[np.ix_(keep, keep)])
        return BoundSet(xy=float(inv[0, 0] + inv[1, 1]), z=0.0)
    return crb_from_fim(j)


@dataclass(frozen=True)
class MseRow:
    """One SNR point of `mse_experiment`. unconverged_xy and unconverged_xyz
    count the fix_z and full_3d solves that ran out of iterations or met a
    non-finite step."""

    snr_db: float
    mse_xy: float
    mse_xyz: float
    crb_xy: float
    crb_xyz: float
    trials: int
    unconverged_xy: int
    unconverged_xyz: int


def _noise_density(es_max: float, snr_db: float) -> float:
    """N0 at Es,max/N0 = snr_db dB; InvalidConfig unless it is finite and
    positive, which a non-finite SNR never gives."""
    with contextlib.suppress(OverflowError, ZeroDivisionError):
        n0 = es_max / 10.0 ** (snr_db / 10.0)
        if 0.0 < n0 < math.inf:
            return n0
    raise InvalidConfig(f"SNR {snr_db} dB gives no finite positive noise density N0")


# Trials whose fine stages run in lockstep. One trial's samples take
# M * K * 8 bytes (187 kB at the default config's six satellites), and a
# chunk holds two such blocks: its unit normals, drawn once for every SNR
# point, and its samples at the current point. So the chunk sets what the
# batching adds to the peak memory: at 8 trials the ml_snr benchmark's peak
# RSS grew by about 1.2 MiB with the samples and 1.35 MiB more with the
# normals (45.2 to 46.6 MiB, 3.0% against a 5% bound), while one `_profile`
# call costs 0.027 ms per trial at 8 trials, 0.091 ms at 1 and 0.037 ms at
# 50 (best of five timeit runs, 2-vCPU Xeon, numpy 2.4).
_CHUNK = 8


def mse_experiment(
    positions: np.ndarray,
    config: SignalConfig,
    snr_grid: Sequence[float],
    trials: int,
    seed: int,
) -> list[MseRow]:
    """Empirical ML error vs the bound across Es,max/N0 points (dB).

    fix_z estimates score mse_xy against the reduced-model bound; full_3d
    estimates score mse_xyz against the full bound. The truth sits at the
    origin with the clock offset centering all arrivals in the window. Each
    trial is `ml_localize` with its defaults in both modes on the samples
    `simulate_measurements` gives it at that SNR point: one matched filter
    and one full_3d lattice per trial and point serve both modes, fix_z
    starting from the lattice's dz = 0 plane, and the fine stages of
    `_CHUNK` trials run in lockstep.

    The loop runs chunk by chunk. Only the noise scale depends on N0, so the
    pulse block, the matched filter's spectrum and the lattice are built
    once, and a chunk's unit normals are drawn once and scaled for each SNR
    point in turn, with the multiplies and adds of `simulate_measurements`,
    so each row keeps the bits of those per-trial calls.
    """
    trials = check_count("trials", trials, 50)
    pos = sat_positions(positions)
    cfgs = [
        dataclasses.replace(config, n0=_noise_density(config.es_max, float(snr_db)))
        for snr_db in snr_grid
    ]
    truth_xi = np.zeros(3)
    block = _pulse_block((truth_xi, centered_t0(pos, config)), pos, config)
    keys = stream_keys(seed, range(trials))
    sp = make_pulse(config)
    pulse_filter = _pulse_filter(sp.samples, config.n_samples)
    spacing = config.c / (4.0 * effective_bandwidth_time(sp))
    points = _lattice_points(truth_xi, _HALFWIDTH, spacing, "full_3d")
    plane = points[:, 2] == truth_xi[2]
    errors = [{mode: [] for mode in MODES} for _ in cfgs]
    unconverged = [dict.fromkeys(MODES, 0) for _ in cfgs]
    # one block of normals and one of samples for every chunk, so no two
    # chunks' draws are ever alive
    noise = np.empty((_CHUNK, len(pos), config.n_samples))
    buffer = np.empty_like(noise)
    for first in range(0, trials, _CHUNK):
        chunk_keys = keys[first : first + _CHUNK]
        z = noise[: len(chunk_keys)]
        for gen, row in zip(streams(chunk_keys), z):
            gen.standard_normal(out=row)
        samples = buffer[: len(z)]
        for cfg, err, unconv in zip(cfgs, errors, unconverged):
            _noisy_samples(z, block, cfg, samples)
            u_xy = np.empty((len(z), 3))
            u_xyz = np.empty((len(z), 4))
            for i, v in enumerate(samples):
                best, t0s = _coarse(v, pulse_filter, pos, points, config)
                u_xy[i] = _start(points[plane], best[plane], t0s[plane], 2, config.c)
                u_xyz[i] = _start(points, best, t0s, 3, config.c)
            for mode, u0 in (("fix_z", u_xy), ("full_3d", u_xyz)):
                u, _, _, converged = _refine(
                    samples, pos, truth_xi, u0, config, 0.5 * spacing, _MAX_ITER
                )
                n = u0.shape[1] - 1
                err[mode] += [
                    float(np.sum((xi[:n] - truth_xi[:n]) ** 2))
                    for xi in _unpack(u, truth_xi, config.c)[0]
                ]
                unconv[mode] += int(np.sum(~converged))
    return [
        MseRow(
            snr_db=float(snr_db),
            mse_xy=float(np.mean(err["fix_z"])),
            mse_xyz=float(np.mean(err["full_3d"])),
            crb_xy=signal_crb(pos, cfg, mode="fix_z").xy,
            crb_xyz=signal_crb(pos, cfg, mode="full_3d").xyz,
            trials=trials,
            unconverged_xy=unconv["fix_z"],
            unconverged_xyz=unconv["full_3d"],
        )
        for snr_db, cfg, err, unconv in zip(snr_grid, cfgs, errors, unconverged)
    ]


def decoupling_check(positions: np.ndarray, config: SignalConfig) -> float:
    """Largest normalized information coupling between (xi, T0) and amplitudes.

    Builds the extended-model information over (x, y, z, c*T0, A_1..A_M) from
    central finite differences of the noiseless sample means and returns
    max |J_ab| / sqrt(J_aa J_bb) over the cross block, skipping pairs with a
    zero diagonal, or NaN if J is not finite. A time-symmetric pulse makes
    this vanish.
    """
    pos = sat_positions(positions)
    amps = amplitudes(pos, config.es_max)
    t_axis = np.arange(config.n_samples) * config.dt
    t0 = centered_t0(pos, config)

    def mean_vector(theta: np.ndarray) -> np.ndarray:
        taus = _delays(pos, theta[:3], theta[3] / config.c, config.c)
        t = t_axis[None, :] - taus[:, None]
        return (theta[4:, None] * _pulse(config, t)[0]).ravel()

    theta0 = np.concatenate([np.zeros(3), [t0 * config.c], amps])
    steps = np.concatenate(
        [np.full(4, 1.0e-3), np.maximum(1.0e-3 * np.abs(amps), 1.0e-9)]
    )
    cols = []
    for i in range(len(theta0)):
        up, dn = theta0.copy(), theta0.copy()
        up[i] += steps[i]
        dn[i] -= steps[i]
        cols.append((mean_vector(up) - mean_vector(dn)) / (2.0 * steps[i]))
    g = np.stack(cols, axis=1)
    j = g.T @ g
    if not np.isfinite(j).all():
        return math.nan
    diag = np.diag(j)
    denom = np.sqrt(np.outer(diag[:4], diag[4:]))
    coupling = np.divide(
        np.abs(j[:4, 4:]), denom, out=np.zeros_like(denom), where=denom > 0.0
    )
    return float(coupling.max())
