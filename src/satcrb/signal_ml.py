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

There is one signal path, and it runs a stack of sample blocks at once.
`_mean_samples` builds the noiseless windows. The blocks are kept as
their parts (`_Blocks`): the unit normals z of the trials in the stack's
slots, each drawn once, the noiseless mean and one noise scale sigma per
block, so one block per (SNR point, trial) pair costs no memory of its
own. `_localize` filters each trial's normals once: by linearity the
matched filter of the block sigma*z + mean is sigma*MF(z) + MF(mean),
which the coarse lattice scan reads for every SNR point of the trial.
One lockstep `_Ascent` per mode then refines the blocks, whose `_profile`
gathers each window as sigma*z + mean, the samples' own bits; a trial
takes the slot of one whose blocks have all finished, so the stack stays
full while the slowest blocks finish. Each block keeps its own scoring
state, so it follows the iterate sequence it would follow alone, bit for
bit. `ml_localize` is a stack of one trial at sigma = 1 and mean = 0, and
`simulate_measurements` its draw.

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
# the position coordinates each mode estimates, besides the clock c*T0
_COORDS = {"fix_z": [0, 1], "full_3d": [0, 1, 2]}
MODES = tuple(_COORDS)

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


def _pulse(
    config: SignalConfig, t: np.ndarray, outside: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The analytic unit-energy pulse s(t), centered at t=0, and its time
    derivative at the times t; both are zero outside the support and where
    the boolean mask `outside`, if given, is set (this one masking pass
    serves both). Every operation is in place on the two results."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t)
    off = s > 0.5 * config.support
    if outside is not None:
        off |= outside
    if config.pulse == "gaussian":
        # s = (pi sigma^2)^-1/4 exp(-(t/sigma)^2 / 2), s' = -t/sigma^2 s
        sigma = config.pulse_width
        np.divide(t, sigma, out=s)
        s *= s
        s *= -0.5
        np.exp(s, out=s)
        s *= (math.pi * sigma * sigma) ** -0.25
        np.copyto(s, 0.0, where=off)
        ds = np.negative(t)
        ds /= sigma * sigma
        ds *= s
    else:
        # raised cosine of full period pulse_width:
        # s = amp/2 (1 + cos(w t)), s' = -amp/2 w sin(w t), w = 2 pi/pulse_width
        amp = math.sqrt(8.0 / (3.0 * config.pulse_width))
        w = 2.0 * math.pi / config.pulse_width
        np.multiply(t, 2.0 * math.pi, out=s)
        s /= config.pulse_width
        np.cos(s, out=s)
        s += 1.0
        s *= amp * 0.5
        np.copyto(s, 0.0, where=off)
        ds = np.multiply(t, w)
        np.sin(ds, out=ds)
        ds *= -amp * 0.5 * w
    np.copyto(ds, 0.0, where=off)
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


def _noise_sigma(config: SignalConfig) -> float:
    """The per-sample noise deviation sqrt(N0 / (2 dt))."""
    return math.sqrt(config.n0 / (2.0 * config.dt))


def _normals(keys: np.ndarray, out: np.ndarray) -> None:
    """Overwrite out[i], an (M, K) block whose rows are contiguous, with the
    unit normals z of the trial keyed by keys[i], row by row (the draw of
    the whole block at once); a trial's samples at noise deviation sigma
    are sigma * z + mean."""
    for gen, block in zip(streams(keys), out):
        for row in block:
            gen.standard_normal(out=row)


def simulate_measurements(
    truth: tuple[np.ndarray, float],
    positions: np.ndarray,
    config: SignalConfig,
    seed: int,
    trial: int = 0,
) -> np.ndarray:
    """The (M, K) block of sampled windows, deterministic per (seed, trial):
    row m is the window of positions[m]. It is the block `mse_experiment`
    refines for that trial at this config's N0."""
    pos = sat_positions(positions)
    mean = _truth_mean(truth, pos, config)
    z = np.empty(mean.shape)
    _normals(stream_keys(seed, range(trial, trial + 1)), z[None])
    return _noise_sigma(config) * z + mean


def _coords(mode: str) -> list[int]:
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    return _COORDS[mode]


def _pad(config: SignalConfig) -> int:
    """The zero samples `_padded` puts on each side of a sample row: one
    less than the L samples `_profile` lays around a delay, so every such
    range that overlaps the observation window lies inside the padded
    row."""
    return int(config.support / config.dt) + 1


def _unpadded(a: np.ndarray, config: SignalConfig) -> np.ndarray:
    """The view of the K samples between the pads of a's last axis."""
    pad = _pad(config)
    return a[..., pad : pad + config.n_samples]


def _padded(shape: tuple[int, ...], config: SignalConfig) -> tuple[np.ndarray, np.ndarray]:
    """A zero array of shape + (P + K + P,), P = `_pad(config)` and K =
    config.n_samples, and its `_unpadded` view."""
    a = np.zeros(shape + (config.n_samples + 2 * _pad(config),))
    return a, _unpadded(a, config)


@dataclass(frozen=True)
class _Blocks:
    """A stack of C S sample blocks kept as their parts, so that no block is
    formed whole: block r is the (M, K) array sigma[r % S] * z[r // S] +
    mean, with z the (C, M, K) unit normals of the trials in C slots, sigma
    the S noise levels and mean the noiseless windows that every block
    shares. z and mean are stored with `_pad` zeros on each side of their
    K samples, (C, M, P + K + P) and (M, P + K + P)."""

    z: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray


def _as_blocks(samples: np.ndarray, config: SignalConfig) -> _Blocks:
    """The (C, M, K) samples as C blocks of themselves: sigma = 1 and mean =
    0, which leave every sample's value as it is."""
    z, middle = _padded(samples.shape[:-1], config)
    middle[...] = samples
    return _Blocks(z, np.zeros(z.shape[1:]), np.ones(1))


def _windows(a: np.ndarray, n: int) -> np.ndarray:
    """View of the C-contiguous a as its n-sample windows: [..., j, :] is
    a[..., j : j + n]. (The array constructor makes it in a fraction of
    as_strided's time, which counts once per scoring round.)"""
    shape = a.shape[:-1] + (a.shape[-1] - n + 1, n)
    return np.ndarray(shape, a.dtype, a, 0, a.strides + a.strides[-1:])


@dataclass(frozen=True)
class _Profile:
    """Per-satellite matched-filter terms at exact (fractional) delays, for a
    stack of R blocks.

    With s_m the pulse over satellite m's window, C_m = <v_m, s_m> and
    E_m = <s_m, s_m>, the amplitude-profiled score is S = sum_m C_m^2 / E_m.
    slope is dS/dtau_m and curvature the expected -d2S/dtau_m^2 (Fisher
    information of the delay up to the common 1/N0 scale), both with the
    amplitude at its profiled value a_m = C_m / E_m. score is (R,), the
    other fields (R, M).
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
    blocks: _Blocks,
    taus: np.ndarray,
    config: SignalConfig,
    rows: np.ndarray,
) -> _Profile:
    """Profiled-likelihood terms for a stack of blocks in one array evaluation.

    taus is (R, M): row i holds the delays of block rows[i]. Each satellite's
    window is the L = P + 1 samples from the first the pulse support covers
    around tau_m (P = `_pad`), with the samples the support does not cover
    or that fall outside the observation window masked. The window is one
    slice of the padded z and of the padded mean, gathered whole and formed
    as sigma * z + mean, the multiply and add that form the block's samples,
    so it has their bits. After the (R, M, L) times, each step is in place
    or a gather of whole windows.
    """
    dt = config.dt
    n_sats, k = len(blocks.mean), config.n_samples
    half = 0.5 * config.support
    pad = _pad(config)
    # first and last sample index of each window's support, as floats
    lo = np.ceil((taus - half) / dt)
    hi = np.minimum(np.floor((taus + half) / dt), k - 1)
    j = np.arange(pad + 1)
    # t_k - tau_m at the samples k = lo + j; k is exact as a float
    t = lo[..., None] + j
    t *= dt
    t -= taus[..., None]
    masked = j < -lo[..., None]
    masked |= j > (hi - lo)[..., None]
    s, ds = _pulse(config, t, masked)
    # freed here, so the gathers below add at most two (R, M, L) arrays
    del t, masked
    # window starts in the padded arrays; a window wholly outside the
    # observation window starts at a clamped sample, and all of it is masked
    # (fmax and fmin clamp a non-finite delay too)
    start = np.fmin(np.fmax(lo + pad, 0.0), k + pad - 1).astype(int)
    sats = np.arange(n_sats)
    slot, level = np.divmod(rows, len(blocks.sigma))
    v = _windows(blocks.z, pad + 1)[slot[:, None], sats, start]
    v *= blocks.sigma[level][:, None, None]
    v += _windows(blocks.mean, pad + 1)[sats, start]
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


@dataclass(frozen=True)
class _Lattice:
    """Coarse lattice points (G, 3) and what they imply for one
    constellation: the delays (G, M) |p_m - x|/c, and the integer sample
    offsets (G, M) of each satellite's delay from the point's earliest, also
    as the lists the scan slices with. They depend on the geometry alone."""

    points: np.ndarray
    delays: np.ndarray
    offsets: np.ndarray
    offset_rows: list[list[int]]


def _lattice(positions: np.ndarray, points: np.ndarray, config: SignalConfig) -> _Lattice:
    g = np.linalg.norm(positions - points[:, None, :], axis=-1) / config.c
    o = np.round(g / config.dt).astype(int)
    rel = o - o.min(axis=1, keepdims=True)
    return _Lattice(points, g, rel, rel.tolist())


def _coarse(
    corr2: np.ndarray, lattice: _Lattice, config: SignalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Each block's best lattice score at each point and the clock offset
    that attains it, both (S, G), from the squared matched-filter outputs
    (S, M, K) of S blocks.

    At a point, score(l) = sum_m corr_m[rel_m + l]^2 over the common clock
    lags l, with corr_m the matched-filter output and rel_m the integer delay
    offsets the point implies; the score is -inf where the delay spread
    leaves no lag with every pulse in the window.
    """
    n, k = len(corr2), corr2.shape[-1]
    best = np.full((n, len(lattice.points)), -math.inf)
    lag = np.zeros(best.shape, dtype=int)
    for i, r in enumerate(lattice.offset_rows):
        width = k - max(r)
        if width <= 0:
            continue
        # summed in satellite order (at least three satellites)
        scores = corr2[:, 0, r[0] : r[0] + width] + corr2[:, 1, r[1] : r[1] + width]
        for m in range(2, len(r)):
            scores += corr2[:, m, r[m] : r[m] + width]
        j = lag[:, i] = scores.argmax(axis=1)
        best[:, i] = scores[np.arange(n), j]
    t0 = np.mean((lattice.offsets + lag[..., None]) * config.dt - lattice.delays, axis=-1)
    return best, t0


def _start(
    points: np.ndarray, best: np.ndarray, t0: np.ndarray, n_xyz: int, c: float
) -> np.ndarray:
    """The (S, n_xyz + 1) rows u = (x, y[, z], c*T0) at the first of each
    block's best-scoring lattice points, from (S, G) scores and offsets."""
    i = np.argmax(best, axis=1)
    rows = np.arange(len(best))
    if (best[rows, i] == -math.inf).any():
        raise SingularInformation("no lattice point keeps all pulses in-window")
    return np.column_stack([points[i, :n_xyz], t0[rows, i] * c])


def _unpack(
    u: np.ndarray, center: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (C, 3) and clock offsets (C,) of the (C, n) parameter rows
    u = (x, y[, z], c*T0); with n = 3 the z coordinate is the center's."""
    xi = np.repeat(center[None, :], len(u), axis=0)
    xi[:, : u.shape[1] - 1] = u[:, :-1]
    return xi, u[:, -1] / c


def _scoring_steps(fisher: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The scoring steps F^-1 g of a (R, n, n) and (R, n) stack; a block
    whose F is singular steps along its gradient instead."""
    try:
        return np.linalg.solve(fisher, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return grad.copy()
        return np.concatenate(
            [_scoring_steps(fisher[i : i + 1], grad[i : i + 1]) for i in range(len(grad))]
        )


class _Ascent:
    """Fisher scoring (Gauss-Newton) in a trust region for the score's
    maximum, for a stack of blocks in lockstep that blocks can join at any
    round.

    Each step solves the scoring equations and is clipped to the trust
    radius, which never exceeds `radius`, so the search cannot leap to a
    distant correlation peak. A step that lowers the score is halved, and
    the radius with it, until it does not; the radius then halves after a
    step that gains less than a quarter of the quadratic model's predicted
    gain, and doubles after a full-length step that gains more than three
    quarters of it. A block converges once an accepted step is shorter
    than xtol, or no step longer than xtol raises the score; max_iter
    accepted steps at most.

    Every block keeps its own point, score, gradient, Fisher matrix, trust
    radius and step length in the rows of u, score, grad, fisher, delta
    and so on, with its amplitudes (n_amps per block) in amps. `start`
    sets blocks to start from given points. Each `step` is one round: one
    evaluate call scores the starts of the blocks that joined since the
    last round and the proposals of every block still running, which
    solves its scoring equations and clips the step to its radius. A block
    that finishes drops out, so each block follows the iterate sequence it
    would follow alone, whichever blocks share its rounds. A rejected step
    needs no state of its own: the block re-solves the same equations at
    the halved radius, which gives exactly the halved step, because
    halving a float is exact. evaluate(rows, u) returns the profile of the
    blocks rows at the points u (A, n), with the score's gradients (A, n)
    and expected Hessians (A, n, n).
    """

    def __init__(
        self, n_rows: int, n: int, n_amps: int, radius: float, max_iter: int, xtol: float
    ) -> None:
        self.radius, self.max_iter, self.xtol = float(radius), max_iter, xtol
        self.u = np.zeros((n_rows, n))
        self.score = np.zeros(n_rows)
        self.amps = np.zeros((n_rows, n_amps))
        self.grad = np.zeros((n_rows, n))
        self.fisher = np.zeros((n_rows, n, n))
        self.delta = np.zeros(n_rows)
        self.iters = np.zeros(n_rows, dtype=int)
        self.converged = np.zeros(n_rows, dtype=bool)
        self.joining = np.zeros(n_rows, dtype=bool)
        self.running = np.zeros(n_rows, dtype=bool)

    def start(self, rows: np.ndarray, u0: np.ndarray) -> None:
        """Blocks rows start from the points u0 (A, n) at the next step."""
        self.u[rows] = u0
        self.delta[rows] = self.radius
        self.iters[rows] = 0
        self.converged[rows] = False
        self.joining[rows] = True

    def busy(self) -> np.ndarray:
        """The (R,) flags of the blocks that have not finished."""
        return self.joining | self.running

    def step(
        self,
        evaluate: Callable[[np.ndarray, np.ndarray], tuple[_Profile, np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """One round; the indices of the blocks that finished in it, whose
        point, score, amplitudes and converged flag stay in place until they
        start again."""
        busy = self.busy()
        u, delta, xtol = self.u, self.delta, self.xtol
        new = np.flatnonzero(self.joining)
        rows = np.flatnonzero(self.running)
        step = _scoring_steps(self.fisher[rows], self.grad[rows])
        n_s = np.sqrt(_dot(step, step))
        stop = ~np.isfinite(n_s) | (n_s == 0.0)
        if stop.any():
            self.converged[rows[stop]] = n_s[stop] == 0.0
            self.running[rows[stop]] = False
            rows, step, n_s = rows[~stop], step[~stop], n_s[~stop]
        if not len(new) and not len(rows):
            return np.flatnonzero(busy & ~self.busy())
        # clip to the radius: a step within it is scaled by exactly 1.0
        d = delta[rows]
        step *= np.minimum(d / n_s, 1.0)[:, None]
        n_s = np.minimum(n_s, d)
        k = len(new)
        points = u[rows] + step
        if k:
            rows, points = np.concatenate([new, rows]), np.concatenate([u[new], points])
        prof, t_grad, t_fisher = evaluate(rows, points)
        score, amps = prof.score, prof.amplitudes
        if k:
            # the joining blocks take their start's values
            self.score[new], self.amps[new] = score[:k], amps[:k]
            self.grad[new], self.fisher[new] = t_grad[:k], t_fisher[:k]
            self.joining[new] = False
            self.running[new] = self.max_iter > 0
            rows, score, amps, t_grad, t_fisher = (
                a[k:] for a in (rows, score, amps, t_grad, t_fisher)
            )

        gain = score - self.score[rows]
        up = gain >= 0.0
        if not up.all():
            down = rows[~up]
            delta[down] = 0.5 * n_s[~up]
            gave_up = down[delta[down] < xtol]
            self.converged[gave_up] = True
            self.running[gave_up] = False
            rows, gain, step, n_s = rows[up], gain[up], step[up], n_s[up]
            score, amps, t_grad, t_fisher = score[up], amps[up], t_grad[up], t_fisher[up]

        # rows now holds the blocks whose steps were accepted
        predicted = _dot(self.grad[rows], step) - _dot(
            ((0.5 * step)[:, None, :] @ self.fisher[rows])[:, 0, :], step
        )
        u[rows] += step
        self.score[rows], self.amps[rows] = score, amps
        self.grad[rows], self.fisher[rows] = t_grad, t_fisher
        self.iters[rows] += 1
        d = delta[rows]
        shrink = gain < 0.25 * predicted
        grow = ~shrink & (gain > 0.75 * predicted) & (n_s >= d)
        delta[rows] = np.where(
            shrink, 0.5 * n_s, np.where(grow, np.minimum(2.0 * d, self.radius), d)
        )
        done = n_s < xtol
        self.converged[rows[done]] = True
        self.running[rows] = ~done & (self.iters[rows] < self.max_iter)
        return np.flatnonzero(busy & ~self.busy())


def _evaluator(
    blocks: _Blocks,
    positions: np.ndarray,
    center: np.ndarray,
    config: SignalConfig,
    n_xyz: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[_Profile, np.ndarray, np.ndarray]]:
    """The evaluate(rows, u) of an `_Ascent` over blocks: the profile of the
    blocks rows at the points u = (x, y[, z], c*T0), all in km, with the
    score's gradients and expected Hessians over u; with n_xyz = 2 z stays
    at the center's."""
    c = config.c

    def evaluate(rows: np.ndarray, u: np.ndarray):
        xi, t0 = _unpack(u, center, c)
        diff = positions - xi[:, None, :]
        # np.linalg.norm(diff, axis=-1), without its wrapper's overhead
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        prof = _profile(blocks, dist / c + t0[:, None], config, rows)
        # d tau_m / d u: minus the unit line of sight over c, then 1/c
        jac = np.empty(dist.shape + (n_xyz + 1,))
        jac[..., :n_xyz] = -diff[..., :n_xyz] / (c * dist[..., None])
        jac[..., -1] = 1.0 / c
        grad = (np.swapaxes(jac, -1, -2) @ prof.slope[..., None])[..., 0]
        return prof, grad, weighted_gram(jac, prof.curvature)

    return evaluate


# the coarse lattice's half-width in km, the most scoring steps of one
# solve (ml_localize's default), and the step length in km below which a
# solve has converged
_HALFWIDTH = 4.5
_MAX_ITER = 100
_XTOL = 2.0e-4


@dataclass(frozen=True)
class _Search:
    """The estimator's set-up for one constellation, search center and
    config: the coarse lattice from center - _HALFWIDTH to center +
    _HALFWIDTH per axis at a spacing of at most c/(4 W_e), the trust radius
    of the refinement (half that spacing) and the matched filter's
    spectrum. None of it depends on the samples or on N0."""

    center: np.ndarray
    radius: float
    pulse_filter: tuple[np.ndarray, int, int]
    lattice: _Lattice


def _search(positions: np.ndarray, center: np.ndarray, config: SignalConfig) -> _Search:
    sp = make_pulse(config)
    spacing = config.c / (4.0 * effective_bandwidth_time(sp))
    points = _lattice_points(center, _HALFWIDTH, spacing)
    return _Search(
        center,
        0.5 * spacing,
        _pulse_filter(sp.samples, config.n_samples),
        _lattice(positions, points, config),
    )


def _scan(
    z: np.ndarray,
    sigma: np.ndarray,
    mf_mean: np.ndarray | float,
    search: _Search,
    config: SignalConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """`_coarse` of one trial's blocks sigma[s] * z + mean, from one matched
    filter of its (M, K) normals z: the filter is linear, so block s has
    the output sigma[s] * MF(z) + MF(mean), with mf_mean = MF(mean)."""
    corr2 = sigma[:, None, None] * _matched_filter(z, search.pulse_filter)
    corr2 += mf_mean
    corr2 *= corr2
    return _coarse(corr2, search.lattice, config)


def _localize(
    blocks: _Blocks,
    mf_mean: np.ndarray | float,
    positions: np.ndarray,
    search: _Search,
    config: SignalConfig,
    modes: Sequence[str],
    max_iter: int,
    n_trials: int,
    fill: Callable[[int, int], None],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per mode of modes, the positions (T S, 3), clock offsets (T S,),
    amplitudes (T S, M) and converged flags (T S,) that the ML estimator
    gives each of T = n_trials trials at the S noise levels of a slot; row
    t S + s is trial t at level s. mf_mean is the matched filter of
    blocks.mean.

    blocks holds C slots of S blocks each: block r is level r % S of the
    trial in slot r // S. Trials take the slots in order, fill(slot, t)
    putting trial t's normals into blocks.z[slot], as soon as every mode
    has refined all of the slot's blocks. A trial's lattice scan (`_scan`)
    serves every mode, fix_z starting from its dz = 0 plane; its sigma*MF(z)
    + MF(mean) differs from the filter of the formed block only in its
    last bits and feeds nothing but argmax choices. One `_Ascent` per mode
    refines the blocks on their exact samples, and a trial's blocks join
    it in the next round."""
    lattice, center, c = search.lattice, search.center, config.c
    n_slots, per_slot = len(blocks.z), len(blocks.sigma)
    n_rows = n_slots * per_slot
    planes = {"fix_z": lattice.points[:, 2] == center[2], "full_3d": slice(None)}
    solves = {
        mode: _Ascent(n_rows, len(_COORDS[mode]) + 1, len(positions), search.radius,
                      max_iter, _XTOL)
        for mode in modes
    }
    evaluators = {
        mode: _evaluator(blocks, positions, center, config, solve.u.shape[1] - 1)
        for mode, solve in solves.items()
    }
    size = n_trials * per_slot
    results = {
        mode: (
            np.empty((size, solve.u.shape[1])),
            np.empty((size, len(positions))),
            np.empty(size, dtype=bool),
        )
        for mode, solve in solves.items()
    }
    occupant = np.zeros(n_slots, dtype=int)
    trial = 0
    # per slot, the solves (one per block and mode) not yet finished
    left = np.zeros(n_slots, dtype=int)
    while True:
        for slot in np.flatnonzero(left == 0)[: n_trials - trial]:
            fill(slot, trial)
            rows = slot * per_slot + np.arange(per_slot)
            best, t0 = _scan(
                _unpadded(blocks.z[slot], config), blocks.sigma, mf_mean, search, config
            )
            for mode, solve in solves.items():
                on, n_xyz = planes[mode], len(_COORDS[mode])
                solve.start(rows, _start(lattice.points[on], best[:, on], t0[:, on], n_xyz, c))
            occupant[slot] = trial
            trial += 1
            left[slot] = per_slot * len(solves)
        if not left.any():
            break
        for mode, solve in solves.items():
            done = solve.step(evaluators[mode])
            if len(done):
                np.subtract.at(left, done // per_slot, 1)
                at = occupant[done // per_slot] * per_slot + done % per_slot
                for out, state in zip(results[mode], (solve.u, solve.amps, solve.converged)):
                    out[at] = state[done]
    return [(*_unpack(u, center, c), amps, converged) for u, amps, converged in results.values()]


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
    need = len(_coords(mode)) + 1
    pos = sat_positions(positions)
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (len(pos), config.n_samples):
        raise InvalidConfig(
            f"samples need one row per position of {config.n_samples} samples, "
            f"got {samples.shape}"
        )
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
    # the samples are their own block, already in the one slot, and the
    # filter of mean = 0 is 0
    ((xi, t0, amps, converged),) = _localize(
        _as_blocks(samples[None], config), 0.0, pos, _search(pos, center, config), config,
        (mode,), max_iter, 1, lambda slot, trial: None,
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
    """CRB of the signal model over the mode's coordinates and the clock; a pinned z is 0."""
    keep = _coords(mode) + [3]
    var = np.diag(inverse(signal_fim(positions, config)[np.ix_(keep, keep)]))
    return BoundSet(xy=float(var[0] + var[1]), z=float(var[2:-1].sum()))


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


# One lockstep `_Ascent` stacks a block per (SNR point, trial) pair over
# `_slots(len(snr_grid))` trial slots, whose zero-padded
# normals are the experiment's one large buffer, 206 kB per slot at the
# default config. Per block, one `_profile` call costs 27 us at 8 blocks,
# 20 us at 24 and 19 us at 48 (best of nine timeit runs, 2-vCPU Xeon,
# numpy 2.4), while the peak RSS of 12 in-process `ml --snr-grid 6,18,30
# --trials 50` passes is 40.9 MiB at 8 blocks, 42.8 MiB at 24 and 44.9 MiB
# at 48. A round of few blocks costs nearly as much as a full one, so
# longer grids keep 8 slots: `--seed 7 ml` (7 points) took 1.78-2.30 s in
# a fresh process at 3 slots and takes 1.44-1.59 s at 8. The floor holds
# while the stack stays within the default grid's 56 blocks: a fresh
# 48-point `ml` peaked at 57.3 MiB at 8 slots and 50.1 MiB at one.
_ROWS = 24
_MIN_SLOTS = 8
_MAX_BLOCKS = 56


def _slots(points: int) -> int:
    """Trial slots of the lockstep stack for a grid of that many SNR
    points: _ROWS // points, raised to _MIN_SLOTS as long as the stack
    stays within _MAX_BLOCKS blocks, and at least one."""
    return max(1, _ROWS // points, min(_MIN_SLOTS, _MAX_BLOCKS // points))


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
    `simulate_measurements` gives it at that SNR point: the refinement is
    the same bit for bit. The coarse stage reads the matched filter as
    sigma*MF(z) + MF(mean), which differs from the filter of the samples in
    its last bits; it keeps only argmax choices, so a start could differ
    only where two lattice scores tie to rounding. Only the noise scale
    depends on N0, so the noiseless windows and their filter are built
    once, each trial's unit normals are drawn and filtered once, and its
    blocks at every SNR point join one lockstep stack per mode, over
    `_slots(S)` trial slots for S SNR points.
    """
    trials = check_count("trials", trials, 50)
    pos = sat_positions(positions)
    cfgs = [
        dataclasses.replace(config, n0=_noise_density(config.es_max, float(snr_db)))
        for snr_db in snr_grid
    ]
    truth_xi = np.zeros(3)
    mean, middle = _padded((len(pos),), config)
    middle[...] = _truth_mean((truth_xi, centered_t0(pos, config)), pos, config)
    keys = stream_keys(seed, range(trials))
    if not cfgs:
        return []
    search = _search(pos, truth_xi, config)
    mf_mean = _matched_filter(middle, search.pulse_filter)
    sigma = np.array([_noise_sigma(cfg) for cfg in cfgs])
    n_slots = _slots(len(cfgs))
    # one padded block of normals per slot, each overwritten by the next
    # trial to take the slot
    noise, normals = _padded((n_slots, len(pos)), config)
    # block i * S + s is SNR point s of the trial in slot i
    blocks = _Blocks(noise, mean, sigma)

    def fill(slot: int, trial: int) -> None:
        _normals(keys[trial : trial + 1], normals[slot : slot + 1])

    estimates = _localize(blocks, mf_mean, pos, search, config, MODES, _MAX_ITER, trials, fill)
    sq, missed = {}, {}
    for (mode, k), (xi, _, _, converged) in zip(_COORDS.items(), estimates):
        sq[mode] = [float(np.sum((x[k] - truth_xi[k]) ** 2)) for x in xi]
        missed[mode] = ~converged
    # row t * S + s of an estimate is trial t at SNR point s
    n_points = len(cfgs)
    return [
        MseRow(
            snr_db=float(snr_db),
            mse_xy=float(np.mean(sq["fix_z"][s::n_points])),
            mse_xyz=float(np.mean(sq["full_3d"][s::n_points])),
            crb_xy=signal_crb(pos, cfg, mode="fix_z").xy,
            crb_xyz=signal_crb(pos, cfg, mode="full_3d").xyz,
            trials=trials,
            unconverged_xy=int(np.sum(missed["fix_z"][s::n_points])),
            unconverged_xyz=int(np.sum(missed["full_3d"][s::n_points])),
        )
        for s, (snr_db, cfg) in enumerate(zip(snr_grid, cfgs))
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
