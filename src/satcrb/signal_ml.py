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
exactly es_max. A pulse family (`_FAMILIES`) owns its support, s and s',
closed-form bandwidth and reads; `_pulse` is the one evaluator of the
analytic pulse and its derivative. The ML location estimate profiles the
amplitudes out in closed form (matched-filter outputs), scans a coarse
spatial lattice with the clock offset maximized over correlation lags,
then refines by Fisher scoring (Gauss-Newton) on the profiled likelihood,
evaluated at fractional delays for all satellites at once from the
matched filter (Kay, Fundamentals of Statistical Signal Processing I,
sec. 7.7).

There is one signal path, and it runs a stack of sample blocks at once.
`_truth_mean` builds the noiseless windows. Each trial's unit normals z
are drawn once into one scratch block and filtered once over the lags
-P..K-1+P (`_matched_filter`); the trial's slot keeps what the refinement
reads of them (`_reads`: that filter for the gaussian, prefix sums for the
raised cosine), in place of the normals; a search samples the pulse once
(`_template`). The reads are linear in the samples, so block (SNR point,
trial) reads sigma*R(z) + R(mean) (`_Blocks`) and costs no memory of its
own; the coarse lattice scan reads the same filter at lags 0..K-1 for
every SNR point of the trial. One lockstep `_Ascent` over (x, y, z,
c*T0) then refines every block in both modes, fix_z rows with z pinned,
so each scoring round reads the tables once (`_profile`): the gaussian by
a 10-tap fractional-delay interpolator, the raised cosine by exact
trigonometric sums. A trial takes the slot of one whose blocks have all
finished, so the stack stays full while the slowest blocks finish. Each
block keeps its own scoring state, so it follows the iterate sequence it
would follow alone, bit for bit. `ml_localize` is a stack of one trial at
sigma = 1 and mean = 0, and `simulate_measurements` its draw.

The per-satellite delay information of this discrete model is
2*(A_m^2/N0)*(2*pi*W_e)^2 with W_e the RMS (Gabor) bandwidth
(`rms_bandwidth`), exactly the weight the bound modules call L_m once
expressed per km^2;
`signal_fim` builds that matrix with the bound modules' `weighted_gram`, so
simulated MSE and the bound share one calibration. That bound treats the
amplitudes as known; `decoupling_check` shows they decouple, from the
information over (x, y, z, c*T0, A_1..A_M) formed from s and s' at the
truth's delays: the cross term of A_m and a delay coordinate is
proportional to <s', s>_m, the sampled integral of (s^2)'/2, which vanishes
for a pulse that is zero at both ends of its support.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
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

# the position coordinates each mode estimates, besides the clock c*T0
_COORDS = {"fix_z": [0, 1], "full_3d": [0, 1, 2]}
MODES = tuple(_COORDS)

# the gaussian is truncated to +-6 sigma (a = 6), which puts its RMS bandwidth
# a exp(-a^2) / (sqrt(pi) erf(a)) = 7.8e-16 relative below the untruncated
# closed form (measured against the truncated pulse's 50-digit value)
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
        return self._family.support

    @functools.cached_property
    def _family(self) -> _Gaussian | _RaisedCosine:
        """The pulse family at this pulse width, built on first use."""
        return _FAMILIES[self.pulse](self.pulse_width)


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
    derivative at the times t, from the config's family; both are zero
    outside the support. Every operation is in place on the two results."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t)
    off = s > 0.5 * config.support
    ds = config._family.pulse(t, s, off)
    np.copyto(ds, 0.0, where=off)
    return s, ds


# the lags the matched-filter tables keep on each side of the K window
# lags: the taps around every delay whose pulse keeps half its energy in
# the window
_MARGIN = 6
# the taps of the fractional-delay interpolator, as offsets from floor(tau / dt)
_TAPS = np.arange(-4, 6)


class _Gaussian:
    """The gaussian s = (pi sigma^2)^-1/4 exp(-(t/sigma)^2 / 2), sigma =
    pulse_width, truncated to +-6 sigma; its RMS bandwidth is 1/(2 sqrt(2)
    pi sigma) (Kay, Fundamentals of Statistical Signal Processing I, sec.
    3.11). `terms` reads C and dC/dtau = -D from the slot's matched filter,
    and E, dE/dtau = -2 X and G from `tables`' window, by the 10-tap
    Lagrange interpolator at the delay (Laakso et al., "Splitting the unit
    delay", IEEE SP Magazine 13(1), 1996)."""

    def __init__(self, sigma: float) -> None:
        self.sigma = sigma
        self.support = _GAUSS_SUPPORT_SIGMAS * sigma
        self.bandwidth = 1.0 / (2.0 * math.pi * math.sqrt(2.0) * sigma)

    def pulse(self, t: np.ndarray, s: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Overwrite s with s(t), 0 where off, and return s'(t) = -t/sigma^2 s."""
        np.divide(t, self.sigma, out=s)
        s *= s
        s *= -0.5
        np.exp(s, out=s)
        s *= (math.pi * self.sigma * self.sigma) ** -0.25
        np.copyto(s, 0.0, where=off)
        ds = np.negative(t)
        ds /= self.sigma * self.sigma
        ds *= s
        return ds

    def tables(self, s, ds, config) -> tuple[np.ndarray, np.ndarray]:
        """(window, basis), what `terms` reads of the pulse alone, from s
        and s' on the `_template` lattice. window is (2, K + 2P), the
        all-ones K-sample window filtered with s^2 and with s'^2 at the
        lags j = -P..K-1+P (P = _MARGIN), that is E and G of a pulse at
        delay j dt; basis is (10, 20), whose columns 2 n and 2 n + 1 hold
        the coefficients of x^p (row p) in tap n's Lagrange basis
        polynomial and in its derivative, with x the delay in samples less
        the middle of the taps (`_TAPS`), so that x is in [-1/2, 1/2)."""
        k, half = config.n_samples, (len(s) - 1) // 2
        sums = np.zeros((2 * half + 2, 2))
        np.cumsum(np.stack([s * s, ds * ds], axis=-1), axis=0, out=sums[1:])
        # the pulse offsets k - j of the window's samples k at lag j, as
        # indices into s
        j = np.arange(-_MARGIN, k + _MARGIN)
        first = np.clip(half - j, 0, 2 * half + 1)
        end = np.clip(k + half - j, 0, 2 * half + 1)
        nodes = _TAPS - 0.5
        n = len(nodes)
        basis = np.zeros((n, 2 * n))
        for i, node in enumerate(nodes):
            others = np.delete(nodes, i)
            # np.poly's coefficients of these half-integer roots are exact
            coef = np.poly(others)[::-1] / np.prod(node - others)
            basis[:, 2 * i] = coef
            basis[:-1, 2 * i + 1] = coef[1:] * np.arange(1, n)
        return np.ascontiguousarray((sums[end] - sums[first]).T), basis

    def reads(self, samples: np.ndarray, corr: np.ndarray, tables) -> np.ndarray:
        """What `terms` reads of the samples: their matched filter corr."""
        return corr

    def terms(self, blocks, taus, slot, scale, tables, config) -> tuple[np.ndarray, ...]:
        """`_terms` by interpolation, slot and scale the rows' (R,) slots
        and (R, 1, 1) noise levels."""
        dt, k = config.dt, config.n_samples
        window, basis = tables
        sats = np.arange(len(blocks.mean))
        # the delay in samples, clamped to [-1, K] so that the taps stay in
        # the tables; the pulse keeps under half its energy at a delay of -1
        # or K samples and beyond (fmax and fmin clamp a non-finite delay too)
        u = np.fmin(np.fmax(taus / dt, -1.0), float(k))
        base = np.floor(u)
        # powers of the offset from the middle of the taps, and from them each
        # tap's weight for the value and for the derivative per sample
        powers = np.empty(u.shape + (len(_TAPS),))
        powers[..., 0] = 1.0
        powers[..., 1:] = (u - base - 0.5)[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        weights = (powers @ basis).reshape(u.shape + (len(_TAPS), 2))
        at = base.astype(int)[..., None] + (_MARGIN + _TAPS)
        # the taps' indices into the flattened mean, and into the slots'
        flat = at + (sats * blocks.mean.shape[-1])[:, None]
        v = blocks.tables.reshape(-1)[flat + (slot * blocks.mean.size)[:, None, None]]
        v *= scale
        v += blocks.mean.reshape(-1)[flat]
        cd = (v[..., None, :] @ weights)[..., 0, :]
        eg = np.stack([window[0][at], window[1][at]], axis=-2) @ weights
        corr, d = cd[..., 0], cd[..., 1] * (-1.0 / dt)
        energy, cross, g = eg[..., 0, 0], eg[..., 0, 1] * (-0.5 / dt), eg[..., 1, 0]
        return corr, d, energy, cross, g


class _RaisedCosine:
    """The raised cosine s = h (1 + cos w t) of full period P = pulse_width,
    its support, with h = sqrt(8/(3 P))/2 and w = 2 pi/P; its RMS bandwidth
    is 1/(sqrt(3) P). Its s'' jumps at the support's edges, so `terms` does
    not interpolate: over the covered samples, s = h (1 + cos w(t_k - tau))
    expands C and D into sums of v, v cos w t_k and v sin w t_k, which the
    slot's prefix sums give, and E, X and G into sums of cos and sin of
    w (t_k - tau) and twice that, which are geometric series."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.support = period
        self.h = 0.5 * math.sqrt(8.0 / (3.0 * period))
        self.w = 2.0 * math.pi / period
        self.bandwidth = 1.0 / (math.sqrt(3.0) * period)

    def pulse(self, t: np.ndarray, s: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Overwrite s with s(t), 0 where off, and return s'(t) = -h w sin w t."""
        np.multiply(t, 2.0 * math.pi, out=s)
        s /= self.period
        np.cos(s, out=s)
        s += 1.0
        s *= self.h
        np.copyto(s, 0.0, where=off)
        ds = np.multiply(t, self.w)
        np.sin(ds, out=ds)
        ds *= -self.h * self.w
        return ds

    def tables(self, s, ds, config) -> np.ndarray:
        """What `reads` takes of the pulse alone: the (2, K) phases cos w
        t_k and sin w t_k of the window's samples."""
        wt = self.w * (np.arange(config.n_samples) * config.dt)
        return np.stack([np.cos(wt), np.sin(wt)])

    def reads(self, samples: np.ndarray, corr: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """What `terms` reads of the (..., M, K) samples v: the (..., M,
        K + 1, 3) prefix sums of v, v cos w t_k and v sin w t_k, from 0
        before the first sample."""
        table = np.zeros(samples.shape[:-1] + (samples.shape[-1] + 1, 3))
        np.cumsum(samples, axis=-1, out=table[..., 1:, 0])
        for col, phase in enumerate(tables, start=1):
            np.cumsum(samples * phase, axis=-1, out=table[..., 1:, col])
        return table

    def terms(self, blocks, taus, slot, scale, tables, config) -> tuple[np.ndarray, ...]:
        """`_terms` by exact sums, slot and scale as `_Gaussian.terms`'."""
        dt, k = config.dt, config.n_samples
        half, h, w = 0.5 * self.support, self.h, self.w
        sats = np.arange(len(blocks.mean))
        # the covered samples lo <= k < hi, empty where the pulse misses the
        # window; the clamp keeps a non-finite delay's sums empty and finite
        tau = np.fmin(np.fmax(taus, -self.support), k * dt + self.support)
        lo = np.fmin(np.fmax(np.ceil((tau - half) / dt), 0.0), float(k))
        hi = np.fmin(np.fmax(np.floor((tau + half) / dt) + 1.0, lo), float(k))
        lo, hi = lo.astype(int), hi.astype(int)
        tab, mean, at = blocks.tables, blocks.mean, slot[:, None]
        sv = tab[at, sats, hi] - tab[at, sats, lo]
        sv *= scale
        sv += mean[sats, hi] - mean[sats, lo]
        sum_v, sum_vc, sum_vs = np.moveaxis(sv, -1, 0)
        ct, st = np.cos(w * tau), np.sin(w * tau)
        corr = h * (sum_v + ct * sum_vc + st * sum_vs)
        d = (-h * w) * (ct * sum_vs - st * sum_vc)
        # the sums of exp(i m w (t_k - tau)) over the n covered samples, for m
        # = 1 and 2: geometric series from the first sample's phase
        n = hi - lo
        phi, step = w * (lo * dt - tau), w * dt
        z1, z2 = (
            np.exp(1j * m * phi) * (1.0 - np.exp(1j * m * step * n))
            / (1.0 - np.exp(1j * m * step))
            for m in (1.0, 2.0)
        )
        energy = (h * h) * (1.5 * n + 2.0 * z1.real + 0.5 * z2.real)
        cross = (-h * h * w) * (z1.imag + 0.5 * z2.imag)
        g = (h * h * w * w) * (0.5 * n - 0.5 * z2.real)
        return corr, d, energy, cross, g


# the one lookup of the pulse families, by SignalConfig.pulse
_FAMILIES = {"gaussian": _Gaussian, "raised_cosine": _RaisedCosine}
PULSES = tuple(_FAMILIES)


def _template(config: SignalConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unit, s, s'): s and s' at the times (i - half) dt, i = 0..2 half,
    that span the support, where a search samples the pulse once, and
    unit, s rescaled so that sum(unit^2) dt = 1."""
    dt = config.dt
    half = int(math.ceil(0.5 * config.support / dt))
    s, ds = _pulse(config, (np.arange(2 * half + 1) - half) * dt)
    return s * (1.0 / math.sqrt(float(np.dot(s, s)) * dt)), s, ds


def make_pulse(config: SignalConfig) -> np.ndarray:
    """The unit-energy pulse on the observation lattice: samples[i] =
    s((i - (len-1)/2) dt), rescaled so that sum(s^2) dt = 1."""
    return _template(config)[0]


def rms_bandwidth(config: SignalConfig) -> float:
    """W_e in Hz, the RMS (Gabor) bandwidth sqrt(int f^2 |S|^2 df / int
    |S|^2 df) of the config's pulse, in its family's closed form (the
    gaussian's untruncated)."""
    return config._family.bandwidth


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


def _truth_mean(truth: tuple, positions: np.ndarray, config: SignalConfig) -> np.ndarray:
    """The (M, K) noiseless windows A_m s(t_k - tau_m) of the truth (xi, T0),
    tau_m = |p_m - xi|/c + T0, for four satellites or more; `_pulse` is zero
    off its support."""
    xi, t0 = np.asarray(truth[0], dtype=float), float(truth[1])
    if len(positions) < 4:
        raise InsufficientCoverage(
            f"need at least 4 visible satellites, got {len(positions)}"
        )
    taus = np.linalg.norm(positions - xi, axis=1) / config.c + t0
    t = np.arange(config.n_samples) * config.dt - taus[:, None]
    return amplitudes(positions, config.es_max)[:, None] * _pulse(config, t)[0]


def _noise_sigma(config: SignalConfig) -> float:
    """The per-sample noise deviation sqrt(N0 / (2 dt))."""
    return math.sqrt(config.n0 / (2.0 * config.dt))


def _normals(keys: np.ndarray, out: np.ndarray) -> None:
    """Overwrite out[i], a contiguous (M, K) block, with the unit normals z
    of the trial keyed by keys[i], in one draw (the stream fills it in
    row order); a trial's samples at noise deviation sigma are sigma * z +
    mean."""
    for gen, block in zip(streams(keys), out):
        gen.standard_normal(out=block)


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


@dataclass(frozen=True)
class _Blocks:
    """A stack of C S sample blocks kept as the parts of what `_profile`
    reads of them, so that no block is formed whole: block r reads sigma[r
    % S] * tables[r // S] + mean, with tables the (C, ...) reads of the
    unit normals z of the trials in C slots (`_reads`), sigma the S noise
    levels and mean the reads of the noiseless windows that every block
    shares. The reads are linear in the samples, so these are the reads of
    the block sigma * z + mean, up to rounding."""

    tables: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray


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


def _terms(
    blocks: _Blocks,
    taus: np.ndarray,
    search: _Search,
    config: SignalConfig,
    rows: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The five (R, M) sums over the samples k of each window that
    `_profile` combines, read from the blocks' tables at the delays by the
    config's family (`_Gaussian.terms`, `_RaisedCosine.terms`): C = <v, s>,
    D = <v, s'>, E = <s, s>, X = <s, s'> and G = <s', s'>, with s the pulse
    at t_k - tau. taus is (R, M): row i holds the delays of block rows[i].
    Where a delay is clamped, the terms are those of the clamped delay.
    """
    slot, level = np.divmod(rows, len(blocks.sigma))
    scale = blocks.sigma[level][:, None, None]
    return config._family.terms(blocks, taus, slot, scale, search.pulse_tables, config)


def _profile(
    blocks: _Blocks,
    taus: np.ndarray,
    search: _Search,
    config: SignalConfig,
    rows: np.ndarray,
) -> _Profile:
    """Profiled-likelihood terms for a stack of blocks from one read of
    their tables (`_terms`): taus is (R, M), row i holding the delays of
    block rows[i].

    A satellite whose pulse keeps under half its energy in the window (E <
    1/(2 dt), half the unit-energy pulse's 1/dt: a delay more than about
    half a sample before the window's first sample or after its last) is
    left out: its amplitude, slope and curvature are 0 and it adds nothing
    to the score. There a = C/E divides by a vanishing E, and the
    gaussian's tables no longer reach the delay.
    """
    corr, d, energy, cross, g = _terms(blocks, taus, search, config, rows)
    inv_e = np.divide(
        1.0, energy, out=np.zeros_like(energy), where=energy >= 0.5 / config.dt
    )
    a = corr * inv_e
    # dS/dtau = -2 a <v - a s, s'>; the expected curvature is the Gauss-Newton
    # one of |v - a s(tau)|^2 with a profiled out: 2 a^2 (|s'|^2 - <s,s'>^2/E)
    slope = -2.0 * a * (d - a * cross)
    resid = g - cross * cross * inv_e
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
    K + 2 ph lags and only lags -P..K-1+P (P = _MARGIN) are kept, so a
    circular transform of length >= K + ph + P wraps nothing onto them.
    The pulse does not depend on N0, so its spectrum is computed once per
    experiment."""
    ph = (len(pulse) - 1) // 2
    nfft = 1 << (k + ph + _MARGIN - 1).bit_length()
    return np.fft.rfft(pulse[::-1], nfft), nfft, ph


def _matched_filter(
    samples: np.ndarray, pulse_filter: tuple[np.ndarray, int, int]
) -> np.ndarray:
    """corr[..., P + j] = sum_k v[..., k] s((k - j) dt) for the lags j = -P
    .. K-1+P (P = _MARGIN) of the (..., K) samples v, by real FFTs, with
    pulse_filter = _pulse_filter(s, K). The coarse scan reads lags 0..K-1."""
    spectrum, nfft, ph = pulse_filter
    k = samples.shape[-1]
    spec = np.fft.rfft(samples, nfft, axis=-1)
    spec *= spectrum
    return np.fft.irfft(spec, nfft, axis=-1)[..., ph - _MARGIN : ph + k + _MARGIN]


def _reads(
    samples: np.ndarray, search: _Search, config: SignalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(corr, table) of the (..., M, K) samples v: their `_matched_filter`,
    and what `_profile` reads of them, which the config's family gives
    (`_Gaussian.reads`, `_RaisedCosine.reads`)."""
    corr = _matched_filter(samples, search.pulse_filter)
    return corr, config._family.reads(samples, corr, search.pulse_tables)


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


def _start(points: np.ndarray, best: np.ndarray, t0: np.ndarray, c: float) -> np.ndarray:
    """The (S, 4) rows u = (x, y, z, c*T0) at the first of each block's
    best-scoring lattice points, from (S, G) scores and offsets."""
    i = np.argmax(best, axis=1)
    rows = np.arange(len(best))
    if (best[rows, i] == -math.inf).any():
        raise SingularInformation("no lattice point keeps all pulses in-window")
    return np.column_stack([points[i], t0[rows, i] * c])


def _unpack(u: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions (C, 3) and clock offsets (C,) of the (C, 4) parameter rows
    u = (x, y, z, c*T0)."""
    return u[:, :3], u[:, 3] / c


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
    search: _Search,
    config: SignalConfig,
    pinned: np.ndarray,
) -> Callable[[np.ndarray, np.ndarray], tuple[_Profile, np.ndarray, np.ndarray]]:
    """The evaluate(rows, u) of an `_Ascent` over blocks: the profile of the
    rows at the points u = (x, y, z, c*T0), all in km, with the score's
    gradients and expected Hessians over u. Row i scores block i % B of
    the B blocks. A row that pinned[i] marks keeps its z: its Jacobian has
    a zero z column and its Fisher matrix a unit z diagonal, so its scoring
    step has a z of exactly 0."""
    c, n_blocks = config.c, len(blocks.tables) * len(blocks.sigma)

    def evaluate(rows: np.ndarray, u: np.ndarray):
        xi, t0 = _unpack(u, c)
        diff = positions - xi[:, None, :]
        # np.linalg.norm(diff, axis=-1), without its wrapper's overhead
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        prof = _profile(blocks, dist / c + t0[:, None], search, config, rows % n_blocks)
        # d tau_m / d u: minus the unit line of sight over c, then 1/c
        jac = np.empty(dist.shape + (4,))
        jac[..., :3] = -diff / (c * dist[..., None])
        jac[..., 3] = 1.0 / c
        pin = pinned[rows]
        jac[pin, :, 2] = 0.0
        grad = (np.swapaxes(jac, -1, -2) @ prof.slope[..., None])[..., 0]
        fisher = weighted_gram(jac, prof.curvature)
        fisher[pin, 2, 2] = 1.0
        return prof, grad, fisher

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
    of the refinement (half that spacing), the matched filter's spectrum
    and what `_reads` and `_terms` read of the pulse alone (the family's
    `tables`). None of it depends on the samples or on N0."""

    center: np.ndarray
    radius: float
    pulse_filter: tuple[np.ndarray, int, int]
    lattice: _Lattice
    pulse_tables: tuple[np.ndarray, np.ndarray] | np.ndarray


def _search(positions: np.ndarray, center: np.ndarray, config: SignalConfig) -> _Search:
    unit, s, ds = _template(config)
    spacing = config.c / (4.0 * rms_bandwidth(config))
    points = _lattice_points(center, _HALFWIDTH, spacing)
    return _Search(
        center,
        0.5 * spacing,
        _pulse_filter(unit, config.n_samples),
        _lattice(positions, points, config),
        config._family.tables(s, ds, config),
    )


def _scan(
    corr: np.ndarray,
    sigma: np.ndarray,
    mf_mean: np.ndarray | float,
    search: _Search,
    config: SignalConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """`_coarse` of one trial's blocks sigma[s] * z + mean, from the
    `_matched_filter` corr of its (M, K) normals z, at lags 0..K-1: the
    filter is linear, so block s has the output sigma[s] * MF(z) +
    MF(mean), with mf_mean = MF(mean) at those lags."""
    lags = slice(_MARGIN, _MARGIN + config.n_samples)
    corr2 = sigma[:, None, None] * corr[:, lags]
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
    fill: Callable[[int, int], np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per mode of modes, the positions (T S, 3), clock offsets (T S,),
    amplitudes (T S, M) and converged flags (T S,) that the ML estimator
    gives each of T = n_trials trials at the S noise levels of a slot; row
    t S + s is trial t at level s. mf_mean is the matched filter of the
    noiseless windows at lags 0..K-1.

    blocks holds C slots of S blocks each: block r is level r % S of the
    trial in slot r // S. Trials take the slots in order, as soon as every
    mode has refined all of the slot's blocks: fill(slot, t) puts trial
    t's reads into blocks.tables[slot] and returns the `_matched_filter`
    of its normals. A trial's lattice scan (`_scan`) serves every mode,
    fix_z starting from its dz = 0 plane; its sigma*MF(z) + MF(mean)
    differs from the filter of the formed block only in its last bits and
    feeds nothing but argmax choices. One `_Ascent` over (x, y, z, c*T0)
    refines the blocks of every mode, B = C S rows per mode, mode i's
    block r in row i B + r, with z pinned in the fix_z rows; a trial's
    blocks join it in the next round, so each round reads the tables once
    for every mode."""
    lattice, center, c = search.lattice, search.center, config.c
    n_slots, per_slot = len(blocks.tables), len(blocks.sigma)
    n_blocks = n_slots * per_slot
    planes = [lattice.points[:, 2] == center[2] if mode == "fix_z" else slice(None)
              for mode in modes]
    solve = _Ascent(len(modes) * n_blocks, 4, len(positions), search.radius, max_iter, _XTOL)
    pinned = np.repeat([mode == "fix_z" for mode in modes], n_blocks)
    evaluate = _evaluator(blocks, positions, search, config, pinned)
    size = n_trials * per_slot
    results = [
        (np.empty((size, 4)), np.empty((size, len(positions))), np.empty(size, dtype=bool))
        for _ in modes
    ]
    occupant = np.zeros(n_slots, dtype=int)
    trial = 0
    # per slot, the solves (one per block and mode) not yet finished
    left = np.zeros(n_slots, dtype=int)
    while True:
        for slot in np.flatnonzero(left == 0)[: n_trials - trial]:
            best, t0 = _scan(fill(slot, trial), blocks.sigma, mf_mean, search, config)
            rows = slot * per_slot + np.arange(per_slot)
            for i, on in enumerate(planes):
                solve.start(i * n_blocks + rows,
                            _start(lattice.points[on], best[:, on], t0[:, on], c))
            occupant[slot] = trial
            trial += 1
            left[slot] = per_slot * len(modes)
        if not left.any():
            break
        done = solve.step(evaluate)
        if len(done):
            mode, block = np.divmod(done, n_blocks)
            np.subtract.at(left, block // per_slot, 1)
            at = occupant[block // per_slot] * per_slot + block % per_slot
            for i, out in enumerate(results):
                on = mode == i
                for a, state in zip(out, (solve.u, solve.amps, solve.converged)):
                    a[at[on]] = state[done[on]]
    return [(*_unpack(u, c), amps, converged) for u, amps, converged in results]


def _as_blocks(
    samples: np.ndarray, search: _Search, config: SignalConfig
) -> tuple[_Blocks, np.ndarray]:
    """The (C, M, K) samples as C blocks of themselves, sigma = 1 and mean
    = 0, which leave every read as it is, and their `_matched_filter`."""
    corr, table = _reads(samples, search, config)
    return _Blocks(np.ascontiguousarray(table), np.zeros(table.shape[1:]), np.ones(1)), corr


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
    over integer correlation lags. Fine stage: Fisher scoring on the
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
    search = _search(pos, center, config)
    # the samples are their own block, already in the one slot, and the
    # filter of mean = 0 is 0
    blocks, corr = _as_blocks(samples[None], search, config)
    ((xi, t0, amps, converged),) = _localize(
        blocks, 0.0, pos, search, config, (mode,), max_iter, 1, lambda slot, trial: corr[0],
    )
    return LocationEstimate(xi[0], float(t0[0]), amps[0], bool(converged[0]))


def signal_fim(positions: np.ndarray, config: SignalConfig) -> np.ndarray:
    """4x4 information over (x, y, z, c*T0) implied by the signal model.

    Weights are the per-satellite delay informations expressed per km^2:
    L_m = 2 (A_m^2 / N0) (2 pi W_e / c)^2.
    """
    pos = sat_positions(positions)
    amps = amplitudes(pos, config.es_max)
    w_e = rms_bandwidth(config)
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


# One lockstep `_Ascent` stacks a block per (SNR point, trial) pair and
# mode over `_slots(len(snr_grid))` trial slots, whose matched-filter
# tables are the experiment's one large buffer, 188 kB per slot at the
# default config. Per block (both modes' rows), one `_profile` call costs
# 8.2 us at 8 blocks, 4.8 us at 24 and 3.9 us at 48 (best of nine timeit
# runs, 2-vCPU Xeon, numpy 2.4), while the peak RSS of 12 in-process `ml
# --snr-grid 6,18,30 --trials 50` passes is 41.7 MiB at 9 blocks, 42.7 MiB
# at 24 and 44.3 MiB at 48. A round of few blocks costs nearly as much as
# a full one, so longer grids keep 8 slots: `--seed 7 ml` (7 points) takes
# 0.97-1.30 s in a fresh process at 3 slots and 0.68-1.05 s at 8. The
# floor holds while the stack stays within the default grid's 56 blocks: a
# fresh 48-point `ml` peaks at 52.1 MiB at 8 slots and 50.5 MiB at one.
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
    `simulate_measurements` gives it at that SNR point, except that a
    block's reads are sigma*R(z) + R(mean) (`_Blocks`), which differ from
    the reads of the formed samples in their last bits. Only the noise
    scale depends on N0, so the noiseless windows and their reads are built
    once, each trial's unit normals are drawn and filtered once, and its
    blocks at every SNR point and in both modes join one lockstep stack,
    over `_slots(S)` trial slots for S SNR points.
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
    if not cfgs:
        return []
    search = _search(pos, truth_xi, config)
    mf_mean, mean_table = _reads(mean, search, config)
    # the one scratch block every trial's normals are drawn into; the
    # noiseless windows are not needed past their reads
    normals = np.empty(mean.shape)
    del mean
    sigma = np.array([_noise_sigma(cfg) for cfg in cfgs])
    # one table per slot, each overwritten by the next trial to take the
    # slot; block i * S + s is SNR point s of the trial in slot i
    blocks = _Blocks(
        np.empty((_slots(len(cfgs)),) + mean_table.shape), np.ascontiguousarray(mean_table), sigma
    )

    def fill(slot: int, trial: int) -> np.ndarray:
        _normals(keys[trial : trial + 1], normals[None])
        corr, blocks.tables[slot] = _reads(normals, search, config)
        return corr

    estimates = _localize(
        blocks, mf_mean[:, _MARGIN : _MARGIN + config.n_samples], pos, search, config, MODES,
        _MAX_ITER, trials, fill,
    )
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

    Channel m's mean A_m s(t_k - tau_m) has the slope A_m s' u_m / c along
    (x, y, z, c*T0), with u_m = (v_m, -1) its timing row (tau_m moves by
    -u_m / c), and the slope s along A_m. So, from one `_pulse` call at the
    truth's delays, the extended information over (x, y, z, c*T0,
    A_1..A_M) has J_aa = sum_m (A_m u_ma / c)^2 <s', s'>_m (the diagonal of
    `weighted_gram`), J_am = (A_m u_ma / c) <s', s>_m and J_mm = <s, s>_m.
    Returns max |J_am| / (sqrt(J_mm) sqrt(J_aa)), skipping pairs with a
    zero diagonal, or NaN if J is not finite. <s', s> samples the integral
    of (s^2)'/2, so the coupling vanishes, up to rounding, for every pulse
    that is zero at both ends of its support.
    """
    pos = sat_positions(positions)
    d = np.linalg.norm(pos, axis=1)
    taus = d / config.c + centered_t0(pos, config)
    s, ds = _pulse(config, np.arange(config.n_samples) * config.dt - taus[:, None])
    # the rows carry A_m / c before the Gram squares them, so nothing
    # overflows before J does
    rows = (amplitudes(pos, config.es_max) / config.c)[:, None] * timing_rows(pos / d[:, None])
    # a large enough es_max overflows J; the NaN below reports that
    with np.errstate(over="ignore", invalid="ignore"):
        j_pos = weighted_gram(rows, _dot(ds, ds))
        j_cross = rows * _dot(ds, s)[:, None]
    if not (np.isfinite(j_pos).all() and np.isfinite(j_cross).all()):
        return math.nan
    # sqrt(J_mm) sqrt(J_aa): the product J_mm J_aa can overflow where J does not
    denom = np.outer(np.sqrt(_dot(s, s)), np.sqrt(np.diag(j_pos)))
    coupling = np.divide(
        np.abs(j_cross), denom, out=np.zeros_like(denom), where=denom > 0.0
    )
    return float(coupling.max())
