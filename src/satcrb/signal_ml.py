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

There is one signal path, and it runs a chunk of C trials at once.
`_mean_samples` builds the noiseless windows, `_draw` forms each sample
block as sigma*z + mean from the trials' unit normals z, and `_localize`
scans each trial's lattice once for both modes and refines the chunk in
lockstep: `_ascend` keeps each trial's scoring state, so each trial follows
the iterate sequence it would follow alone, bit for bit. `ml_localize` and
`simulate_measurements` are chunks of one; `mse_experiment` runs `_CHUNK`
trials at a time, whose normals and samples are the two buffers it adds.

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
from typing import Callable, Iterator, Sequence

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


def centered_t0(positions: np.ndarray, config: SignalConfig) -> float:
    """Clock offset that centers the arrival spread inside the window."""
    g = np.linalg.norm(positions, axis=1) / config.c
    return 0.5 * (config.obs_window - (g.max() - g.min())) - g.min()


def _mean_samples(
    positions: np.ndarray,
    xi: np.ndarray,
    t0: float,
    amps: np.ndarray,
    config: SignalConfig,
) -> np.ndarray:
    """The (M, K) noiseless windows A_m s(t_k - tau_m), tau_m = |p_m - xi|/c
    + t0; `_pulse` is zero off its support."""
    taus = np.linalg.norm(positions - xi, axis=1) / config.c + t0
    t = np.arange(config.n_samples) * config.dt - taus[:, None]
    return amps[:, None] * _pulse(config, t)[0]


def _truth_mean(truth: tuple, positions: np.ndarray, config: SignalConfig) -> np.ndarray:
    """The noiseless windows of the truth (xi, T0), for four satellites or more."""
    xi, t0 = np.asarray(truth[0], dtype=float), float(truth[1])
    if len(positions) < 4:
        raise InsufficientCoverage(
            f"need at least 4 visible satellites, got {len(positions)}"
        )
    return _mean_samples(positions, xi, t0, amplitudes(positions, config.es_max), config)


def _draw(
    keys: np.ndarray,
    mean: np.ndarray,
    configs: Sequence[SignalConfig],
    noise: np.ndarray,
    out: np.ndarray,
) -> Iterator[np.ndarray]:
    """The (C, M, K) samples sigma * z + mean of the trials keyed by keys, at
    each config's sigma = sqrt(N0 / (2 dt)) in turn. The unit normals z are
    drawn once into noise; each yield overwrites out, which may be noise."""
    z = noise[: len(keys)]
    for gen, block in zip(streams(keys), z):
        gen.standard_normal(out=block)
    samples = out[: len(keys)]
    for config in configs:
        np.multiply(math.sqrt(config.n0 / (2.0 * config.dt)), z, out=samples)
        samples += mean
        yield samples


def simulate_measurements(
    truth: tuple[np.ndarray, float],
    positions: np.ndarray,
    config: SignalConfig,
    seed: int,
    trial: int = 0,
) -> np.ndarray:
    """The (M, K) block of sampled windows, deterministic per (seed, trial):
    row m is the window of positions[m]. It is `mse_experiment`'s draw on a
    chunk of one trial."""
    pos = sat_positions(positions)
    mean = _truth_mean(truth, pos, config)
    keys = stream_keys(seed, range(trial, trial + 1))
    noise = np.empty((1,) + mean.shape)
    return next(_draw(keys, mean, [config], noise, noise))[0]


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")


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


def _lattice_points(center: np.ndarray, halfwidth: float, spacing: float) -> np.ndarray:
    """(G, 3) coarse lattice around center, x slowest and z fastest."""
    offsets = _lattice_offsets(halfwidth, spacing)
    grid = np.meshgrid(offsets, offsets, offsets, indexing="ij")
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


# the coarse lattice's half-width in km, and the most scoring steps of one
# solve, ml_localize's default
_HALFWIDTH = 4.5
_MAX_ITER = 100


def _localize(
    samples: np.ndarray,
    positions: np.ndarray,
    center: np.ndarray,
    config: SignalConfig,
    modes: Sequence[str],
    max_iter: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per mode of modes, the positions (C, 3), clock offsets (C,),
    amplitudes (C, M) and converged flags (C,) that the ML estimator gives
    a (C, M, K) stack of trials. One matched filter and one scan of the
    lattice around center per trial serve every mode, fix_z starting from
    its dz = 0 plane; then one lockstep `_refine` per mode."""
    sp = make_pulse(config)
    spacing = config.c / (4.0 * effective_bandwidth_time(sp))
    pulse_filter = _pulse_filter(sp.samples, config.n_samples)
    points = _lattice_points(center, _HALFWIDTH, spacing)
    lattices = {"fix_z": points[:, 2] == center[2], "full_3d": slice(None)}
    starts = {m: np.empty((len(samples), 3 if m == "fix_z" else 4)) for m in modes}
    for i, v in enumerate(samples):
        best, t0 = _coarse(v, pulse_filter, positions, points, config)
        for mode, u0 in starts.items():
            on = lattices[mode]
            u0[i] = _start(points[on], best[on], t0[on], u0.shape[1] - 1, config.c)
    estimates = []
    for u0 in starts.values():
        u, _, amps, converged = _refine(
            samples, positions, center, u0, config, 0.5 * spacing, max_iter
        )
        estimates.append((*_unpack(u, center, config.c), amps, converged))
    return estimates


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
    knows its altitude) and the start is the best of the lattice's dz = 0
    plane. Both stages are `mse_experiment`'s, on a stack of one trial.
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
    ((xi, t0, amps, converged),) = _localize(
        samples[None], pos, center, config, (mode,), max_iter
    )
    return LocationEstimate(xi[0], float(t0[0]), amps[0], bool(converged[0]))


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


# Trials whose fine stages run in lockstep. A chunk holds two (C, M, K)
# blocks, its unit normals (drawn once for every SNR point) and its samples
# at the current point, 187 kB per trial each at the default config. At 8
# trials they grew the ml_snr benchmark's peak RSS from 45.2 to 46.6 MiB
# (3.0% against a 5% bound), while one `_profile` call costs 0.027 ms per
# trial at 8 trials, 0.091 ms at 1 and 0.037 ms at 50 (best of five timeit
# runs, 2-vCPU Xeon, numpy 2.4).
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
    `simulate_measurements` gives it at that SNR point, bit for bit. Only
    the noise scale depends on N0, so the noiseless windows are built once,
    and each chunk's unit normals are drawn once and scaled for every SNR
    point in turn.
    """
    trials = check_count("trials", trials, 50)
    pos = sat_positions(positions)
    cfgs = [
        dataclasses.replace(config, n0=_noise_density(config.es_max, float(snr_db)))
        for snr_db in snr_grid
    ]
    truth_xi = np.zeros(3)
    mean = _truth_mean((truth_xi, centered_t0(pos, config)), pos, config)
    keys = stream_keys(seed, range(trials))
    errors = [{mode: [] for mode in MODES} for _ in cfgs]
    unconverged = [dict.fromkeys(MODES, 0) for _ in cfgs]
    # one block of normals and one of samples for every chunk, so no two
    # chunks' draws are ever alive
    noise = np.empty((_CHUNK,) + mean.shape)
    buffer = np.empty_like(noise)
    for first in range(0, trials, _CHUNK):
        draws = _draw(keys[first : first + _CHUNK], mean, cfgs, noise, buffer)
        for samples, err, unconv in zip(draws, errors, unconverged):
            estimates = _localize(samples, pos, truth_xi, config, MODES, _MAX_ITER)
            for mode, (xi, _, _, converged) in zip(MODES, estimates):
                n = 2 if mode == "fix_z" else 3
                err[mode] += [float(np.sum((x[:n] - truth_xi[:n]) ** 2)) for x in xi]
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
    t0 = centered_t0(pos, config)

    def mean_vector(theta: np.ndarray) -> np.ndarray:
        mean = _mean_samples(pos, theta[:3], theta[3] / config.c, theta[4:], config)
        return mean.ravel()

    theta0 = np.concatenate([np.zeros(3), [t0 * config.c], amps])
    steps = np.concatenate(
        [np.full(4, 1.0e-3), np.maximum(1.0e-3 * np.abs(amps), 1.0e-9)]
    )
    cols = [
        (mean_vector(theta0 + e) - mean_vector(theta0 - e)) / (2.0 * h)
        for e, h in zip(np.diag(steps), steps)
    ]
    g = np.stack(cols, axis=1)
    # a large enough es_max overflows J; the NaN below reports that
    with np.errstate(over="ignore", invalid="ignore"):
        j = g.T @ g
    if not np.isfinite(j).all():
        return math.nan
    diag = np.diag(j)
    # sqrt(J_aa) sqrt(J_bb): the product J_aa J_bb can overflow where J does not
    denom = np.outer(np.sqrt(diag[:4]), np.sqrt(diag[4:]))
    coupling = np.divide(
        np.abs(j[:4, 4:]), denom, out=np.zeros_like(denom), where=denom > 0.0
    )
    return float(coupling.max())
