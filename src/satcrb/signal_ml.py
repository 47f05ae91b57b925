"""Discretized baseband signals and maximum-likelihood localization.

The receiver at the origin of the local frame observes, from each visible
satellite m at position p_m (km), a scaled and delayed copy of a unit-energy
pulse in white Gaussian noise:

    v_m(t_k) = A_m s(t_k - tau_m) + w_mk,   tau_m = |p_m - xi|/c + T0,

sampled at t_k = k*dt with noise variance N0/(2*dt) per sample. A
constellation is the (M, 3) array of the satellite positions p_m, km, in the
local frame. Amplitudes follow the 1/distance law A_m = (h/D_m)*sqrt(es_max)
with h the nearest satellite's distance, so the zenith satellite receives
exactly es_max. `_pulse` is the one evaluator of the analytic pulse and its
derivative. The ML location estimate profiles the amplitudes out
in closed form (matched-filter outputs), scans a coarse spatial lattice with
the clock offset maximized over correlation lags, then refines by Fisher
scoring (Gauss-Newton) on the exact profiled likelihood, evaluated at
fractional delays for all satellites at once via the analytic pulse and its
derivative (Kay, Fundamentals of Statistical Signal Processing I, sec. 7.7).

The per-satellite delay information of this discrete model is
2*(A_m^2/N0)*(2*pi*W_e)^2 with W_e the RMS (Gabor) effective bandwidth, which
is exactly the weight the bound modules call L_m once expressed per km^2;
`signal_fim` builds that matrix with the bound modules' `weighted_gram`, so
simulated MSE and the bound share one calibration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fim import (
    BoundSet,
    FisherMatrix,
    SingularInformation,
    crb_from_fim,
    inverse,
    timing_rows,
    weighted_gram,
)
from .geometry import InvalidConfig, SystemParams, constellation_rng, shell_distance

PULSES = ("gaussian", "raised_cosine")
MODES = ("fix_z", "full_3d")

# the gaussian is truncated to +-6 sigma: the edge value exp(-18) is small
# enough that the truncation discontinuity cannot disturb the spectral second
# moment at the 1e-6 level the two bandwidth routes must agree to
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
            if not getattr(self, name) > 0.0:
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


@dataclass(frozen=True)
class Measurement:
    """One satellite's sampled window; true_delay is test-only bookkeeping."""

    samples: np.ndarray
    sat_index: int
    true_delay: float


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

    samples[i] = s((i - (len-1)/2) * dt) after rescaling so sum(s^2) dt = 1;
    deriv holds the analytic derivative samples with the same scale factor.
    fine and deriv_fine sample the same waveform on a fixed 2048-point lattice
    across the support (spacing dt_fine, independent of the measurement rate):
    both bandwidth routes work there, because at a non-commensurate sample
    rate the measurement lattice alone estimates the raised cosine's spectral
    moments about three orders of magnitude too coarsely for the 1e-6
    route-agreement contract.
    """

    samples: np.ndarray
    deriv: np.ndarray
    dt: float
    fine: np.ndarray
    deriv_fine: np.ndarray
    dt_fine: float

    @property
    def half_len(self) -> int:
        return (len(self.samples) - 1) // 2

    @property
    def energy(self) -> float:
        return float(np.dot(self.samples, self.samples))


_FINE_POINTS = 2048


def make_pulse(config: SignalConfig) -> SampledPulse:
    """Sample the pulse on the observation lattice and normalize its energy."""
    dt = config.dt
    half = int(math.ceil(0.5 * config.support / dt))
    raw, deriv = _pulse(config, (np.arange(2 * half + 1) - half) * dt)
    scale = 1.0 / math.sqrt(float(np.dot(raw, raw)) * dt)
    dt_fine = config.support / _FINE_POINTS
    fine, deriv_fine = _pulse(
        config, (np.arange(_FINE_POINTS + 1) - _FINE_POINTS // 2) * dt_fine
    )
    return SampledPulse(
        samples=raw * scale,
        deriv=deriv * scale,
        dt=dt,
        fine=fine * scale,
        deriv_fine=deriv_fine * scale,
        dt_fine=dt_fine,
    )


def effective_bandwidth(pulse: SampledPulse, n_fft: int = 1 << 16) -> float:
    """RMS (Gabor) bandwidth in Hz from the pulse spectrum.

    sqrt(int f^2 |S|^2 df / int |S|^2 df) over the zero-padded FFT of the
    fine-lattice samples; the time-domain route `effective_bandwidth_time`
    (Parseval on the analytic derivative) agrees to 1e-6 relative.
    """
    spec = np.abs(np.fft.fft(pulse.fine, n=n_fft)) ** 2
    f = np.fft.fftfreq(n_fft, d=pulse.dt_fine)
    return math.sqrt(float(np.dot(f * f, spec) / np.sum(spec)))


def effective_bandwidth_time(pulse: SampledPulse) -> float:
    """Same bandwidth via Parseval: sqrt(sum sdot^2 / sum s^2) / (2 pi)."""
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


def zenith_ring_geometry(
    params: SystemParams, ring_phi_l: float = math.radians(30.0), n_ring: int = 5
) -> np.ndarray:
    """(1 + n_ring, 3) km positions: one satellite at zenith plus a ring of
    n_ring at zenith angle ring_phi_l, all on the shell of height h."""
    d = shell_distance(ring_phi_l, params)
    rho, z = d * math.sin(ring_phi_l), d * math.cos(ring_phi_l)
    ring = [
        [rho * math.cos(theta), rho * math.sin(theta), z]
        for theta in (2.0 * math.pi * k / n_ring for k in range(n_ring))
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


def simulate_measurements(
    truth: tuple[np.ndarray, float],
    positions: np.ndarray,
    config: SignalConfig,
    seed: int,
    trial: int = 0,
) -> list[Measurement]:
    """Sampled windows for every satellite, deterministic per seed: row m of
    one (M, K) block of noise draws, with the pulse added over its support."""
    xi, t0 = np.asarray(truth[0], dtype=float), float(truth[1])
    pos = sat_positions(positions)
    if len(pos) < 4:
        raise InsufficientCoverage(
            f"need at least 4 visible satellites, got {len(pos)}"
        )
    amps = amplitudes(pos, config.es_max)
    taus = _delays(pos, xi, t0, config.c)
    dt = config.dt
    k = config.n_samples
    sigma = math.sqrt(config.n0 / (2.0 * dt))
    rng = constellation_rng(seed, trial=trial)
    samples = sigma * rng.standard_normal((len(pos), k))
    # each pulse's support with a sample of slack on either side (_pulse
    # itself decides the edge samples), clipped to the window
    half = 0.5 * config.support
    lo = np.clip(np.floor((taus - half) / dt).astype(int) - 1, 0, k)
    hi = np.clip(np.ceil((taus + half) / dt).astype(int) + 2, 0, k)
    for m in range(len(pos)):
        t = np.arange(lo[m], hi[m]) * dt - taus[m]
        samples[m, lo[m] : hi[m]] += amps[m] * _pulse(config, t)[0]
    return [
        Measurement(samples=samples[m], sat_index=m, true_delay=float(taus[m]))
        for m in range(len(pos))
    ]


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class _Profile:
    """Per-satellite matched-filter terms at exact (fractional) delays.

    With s_m the pulse over satellite m's window, C_m = <v_m, s_m> and
    E_m = <s_m, s_m>, the amplitude-profiled score is S = sum_m C_m^2 / E_m.
    slope is dS/dtau_m and curvature the expected -d2S/dtau_m^2 (Fisher
    information of the delay up to the common 1/N0 scale), both with the
    amplitude at its profiled value a_m = C_m / E_m.
    """

    score: float
    amplitudes: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray


def _profile(samples: np.ndarray, taus: np.ndarray, config: SignalConfig) -> _Profile:
    """Profiled-likelihood terms for all satellites in one array evaluation.

    samples is (M, K); each satellite's window is the sample range the pulse
    support covers around tau_m, clipped to the observation window, laid out
    as one (M, L) index array with the clipped part masked.
    """
    dt = config.dt
    k = config.n_samples
    half = 0.5 * config.support
    lo = np.ceil((taus - half) / dt).astype(int)
    hi = np.minimum(np.floor((taus + half) / dt).astype(int), k - 1)
    idx = lo[:, None] + np.arange(int(2.0 * half / dt) + 2)
    inside = (idx >= 0) & (idx <= hi[:, None])
    t = idx * dt - taus[:, None]
    s, ds = _pulse(config, t)
    s = np.where(inside, s, 0.0)
    ds = np.where(inside, ds, 0.0)
    v = np.take_along_axis(samples, np.clip(idx, 0, k - 1), axis=1)
    corr = np.einsum("ml,ml->m", v, s)
    energy = np.einsum("ml,ml->m", s, s)
    cross = np.einsum("ml,ml->m", s, ds)
    # windows wholly outside the observation window carry no pulse energy
    inv_e = np.divide(1.0, energy, out=np.zeros_like(energy), where=energy > 0.0)
    a = corr * inv_e
    # dS/dtau = -2 a <v - a s, s'>; the expected curvature is the Gauss-Newton
    # one of |v - a s(tau)|^2 with a profiled out: 2 a^2 (|s'|^2 - <s,s'>^2/E)
    slope = -2.0 * a * (np.einsum("ml,ml->m", v, ds) - a * cross)
    resid = np.einsum("ml,ml->m", ds, ds) - cross * cross * inv_e
    return _Profile(
        score=float(np.dot(corr, a)),
        amplitudes=a,
        slope=slope,
        curvature=2.0 * a * a * resid,
    )


def _matched_filter(samples: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    """corr[m, j] = sum_k v_m[k] s((k - j) dt) for j = 0..K-1, by real FFTs.

    pulse holds the 2 ph + 1 samples of s centered on its middle index. The
    full linear correlation has K + 2 ph - 1 lags and only lags ph..ph+K-1
    are kept, so a circular transform of length >= K + ph wraps nothing onto
    them.
    """
    k = samples.shape[1]
    ph = (len(pulse) - 1) // 2
    nfft = 1 << (k + ph - 1).bit_length()
    spec = np.fft.rfft(samples, nfft, axis=1) * np.fft.rfft(pulse[::-1], nfft)
    return np.fft.irfft(spec, nfft, axis=1)[:, ph : ph + k]


def _lattice_offsets(halfwidth: float, spacing: float) -> np.ndarray:
    """Per-axis offsets of the coarse lattice: an odd number of points from
    -halfwidth to +halfwidth, so the center is one of them, at the fewest
    points whose spacing does not exceed `spacing`."""
    n_side = max(math.ceil(halfwidth / spacing), int(halfwidth > 0.0))
    return np.arange(-n_side, n_side + 1) / max(n_side, 1) * halfwidth


def _ascend(
    evaluate: Callable[[np.ndarray], tuple[_Profile, np.ndarray, np.ndarray]],
    u0: np.ndarray,
    radius: float,
    max_iter: int,
    xtol: float,
) -> tuple[np.ndarray, _Profile, bool]:
    """Fisher scoring (Gauss-Newton) in a trust region for the score's maximum.

    evaluate(u) returns the profile with the score's gradient and expected
    Hessian in u. Each step solves the scoring equations and is clipped to
    the trust radius, which never exceeds `radius`, so the search cannot leap
    to a distant correlation peak. A step that lowers the score is halved,
    and the radius with it, until it does not; the radius then halves after
    a step that gains less than a quarter of the quadratic model's predicted
    gain, and doubles after a full-length step that gains more than three
    quarters of it. Converged once an accepted step is shorter than xtol, or
    no step longer than xtol raises the score.
    """
    u = u0
    cur, grad, fisher = evaluate(u)
    delta = radius
    for _ in range(max_iter):
        try:
            step = np.linalg.solve(fisher, grad)
        except np.linalg.LinAlgError:
            step = grad
        norm = float(np.linalg.norm(step))
        if not math.isfinite(norm) or norm == 0.0:
            return u, cur, norm == 0.0
        if norm > delta:
            step, norm = step * (delta / norm), delta
        while True:
            trial, t_grad, t_fisher = evaluate(u + step)
            gain = trial.score - cur.score
            if gain >= 0.0:
                break
            step, norm = 0.5 * step, 0.5 * norm
            delta = norm
            if norm < xtol:
                return u, cur, True
        predicted = float(grad @ step - 0.5 * step @ fisher @ step)
        u, cur, grad, fisher = u + step, trial, t_grad, t_fisher
        if norm < xtol:
            return u, cur, True
        if gain < 0.25 * predicted:
            delta = 0.5 * norm
        elif gain > 0.75 * predicted and norm >= delta:
            delta = min(2.0 * delta, radius)
    return u, cur, False


def ml_localize(
    measurements: Sequence[Measurement],
    positions: np.ndarray,
    config: SignalConfig,
    mode: str = "full_3d",
    search_center: Sequence[float] = (0.0, 0.0, 0.0),
    search_halfwidth: float = 4.5,
    grid_spacing: float | None = None,
    max_iter: int = 100,
) -> LocationEstimate:
    """Maximum-likelihood (xi, T0) with amplitudes profiled out.

    Coarse stage: a lattice from search_center - search_halfwidth to
    search_center + search_halfwidth per axis, odd-sized so the center is on
    it, with spacing at most grid_spacing (default c/(4 W_e)); at each point
    the clock offset is maximized over integer correlation lags. Fine stage:
    Fisher scoring on the exact profiled likelihood over (x, y[, z], c*T0),
    all in km, with steps of at most grid_spacing / 2, until a step is
    shorter than 0.2 m (max_iter iterations at most; max_iter=0 returns the
    lattice start). In fix_z mode the z coordinate is pinned to the search
    center's z (the receiver knows its altitude).
    """
    _check_mode(mode)
    need = 3 if mode == "fix_z" else 4
    if len(measurements) < need:
        raise InsufficientCoverage(
            f"{mode} needs at least {need} measurements, got {len(measurements)}"
        )
    pos_all = sat_positions(positions)
    pos = np.array([pos_all[m.sat_index] for m in measurements])
    samples = np.array([m.samples for m in measurements], dtype=float)
    c = config.c
    dt = config.dt
    k = config.n_samples
    sp = make_pulse(config)

    if grid_spacing is None:
        grid_spacing = c / (4.0 * effective_bandwidth_time(sp))
    if not (search_halfwidth >= 0.0 and grid_spacing > 0.0):
        raise InvalidConfig("search_halfwidth must be >= 0 and grid_spacing > 0")

    corr = _matched_filter(samples, sp.samples)
    corr2 = corr * corr

    center = np.asarray(search_center, dtype=float)
    offsets = _lattice_offsets(search_halfwidth, grid_spacing)
    z_offsets = [0.0] if mode == "fix_z" else offsets
    grid = [
        center + np.array([dx, dy, dz])
        for dx in offsets
        for dy in offsets
        for dz in z_offsets
    ]

    best = (-math.inf, None, None)
    for xi in grid:
        g = np.linalg.norm(pos - xi[None, :], axis=1) / c
        o = np.round(g / dt).astype(int)
        rel = o - o.min()
        span = int(rel.max())
        if span >= k:
            continue
        # score(l) = sum_m corr_m[rel_m + l]^2 over common clock lags l
        width = k - span
        windows = np.stack(
            [corr2[m, rel[m] : rel[m] + width] for m in range(len(pos))]
        )
        scores = windows.sum(axis=0)
        l_hat = int(np.argmax(scores))
        if scores[l_hat] > best[0]:
            t0_hat = float(np.mean((rel + l_hat) * dt - g))
            best = (float(scores[l_hat]), xi.copy(), t0_hat)

    _, xi0, t00 = best
    if xi0 is None:
        raise SingularInformation("no lattice point keeps all pulses in-window")

    # fine stage over u = (x, y[, z], c*T0), all in km
    n_xyz = 2 if mode == "fix_z" else 3

    def unpack(u: np.ndarray) -> tuple[np.ndarray, float]:
        xi = center.copy()
        xi[:n_xyz] = u[:n_xyz]
        return xi, u[-1] / c

    def evaluate(u: np.ndarray) -> tuple[_Profile, np.ndarray, np.ndarray]:
        xi, t0 = unpack(u)
        diff = pos - xi[None, :]
        dist = np.linalg.norm(diff, axis=1)
        prof = _profile(samples, dist / c + t0, config)
        # d tau_m / d u: minus the unit line of sight over c, then 1/c
        jac = np.empty((len(pos), n_xyz + 1))
        jac[:, :n_xyz] = -diff[:, :n_xyz] / (c * dist[:, None])
        jac[:, -1] = 1.0 / c
        grad = jac.T @ prof.slope
        return prof, grad, weighted_gram(jac, prof.curvature)

    u0 = np.append(xi0[:n_xyz], t00 * c)
    u_hat, prof, converged = _ascend(
        evaluate, u0, 0.5 * grid_spacing, max_iter, xtol=2.0e-4
    )
    xi_hat, t0_hat = unpack(u_hat)
    return LocationEstimate(
        xi_hat=xi_hat,
        t0_hat=t0_hat,
        amplitudes_hat=prof.amplitudes,
        converged=converged,
    )


def signal_fim(positions: np.ndarray, config: SignalConfig) -> FisherMatrix:
    """4x4 information over (x, y, z, c*T0) implied by the signal model.

    Weights are the per-satellite delay informations expressed per km^2:
    L_m = 2 (A_m^2 / N0) (2 pi W_e / c)^2.
    """
    pos = sat_positions(positions)
    amps = amplitudes(pos, config.es_max)
    w_e = effective_bandwidth_time(make_pulse(config))
    ell = 2.0 * amps**2 / config.n0 * (2.0 * math.pi * w_e / config.c) ** 2
    d = np.linalg.norm(pos, axis=1)
    return FisherMatrix(weighted_gram(timing_rows(pos / d[:, None]), ell))


def signal_crb(
    positions: np.ndarray, config: SignalConfig, mode: str = "full_3d"
) -> BoundSet:
    """CRB of the signal model; fix_z drops the z row/column before inverting."""
    _check_mode(mode)
    j = signal_fim(positions, config).m
    if mode == "fix_z":
        keep = [0, 1, 3]
        inv = inverse(j[np.ix_(keep, keep)])
        return BoundSet(xy=float(inv[0, 0] + inv[1, 1]), z=0.0)
    return crb_from_fim(j)


@dataclass(frozen=True)
class MseRow:
    snr_db: float
    mse_xy: float
    mse_xyz: float
    crb_xy: float
    crb_xyz: float
    trials: int


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
    origin with the clock offset centering all arrivals in the window.
    """
    if trials < 50:
        raise InvalidConfig(f"trials must be >= 50, got {trials}")
    pos = sat_positions(positions)
    truth_xi = np.zeros(3)
    rows = []
    for snr_db in snr_grid:
        n0 = config.es_max / 10.0 ** (float(snr_db) / 10.0)
        cfg = dataclasses.replace(config, n0=n0)
        t0 = centered_t0(pos, cfg)

        def one_trial(trial: int) -> tuple[float, float]:
            meas = simulate_measurements((truth_xi, t0), pos, cfg, seed, trial=trial)
            est2 = ml_localize(meas, pos, cfg, mode="fix_z")
            est3 = ml_localize(meas, pos, cfg, mode="full_3d")
            e_xy = float(np.sum((est2.xi_hat[:2] - truth_xi[:2]) ** 2))
            e_xyz = float(np.sum((est3.xi_hat - truth_xi) ** 2))
            return e_xy, e_xyz

        errs = [one_trial(t) for t in range(trials)]
        mse_xy = float(np.mean([e[0] for e in errs]))
        mse_xyz = float(np.mean([e[1] for e in errs]))
        rows.append(
            MseRow(
                snr_db=float(snr_db),
                mse_xy=mse_xy,
                mse_xyz=mse_xyz,
                crb_xy=signal_crb(pos, cfg, mode="fix_z").xy,
                crb_xyz=signal_crb(pos, cfg, mode="full_3d").xyz,
                trials=trials,
            )
        )
    return rows


def decoupling_check(
    positions: np.ndarray, config: SignalConfig, break_symmetry: bool = False
) -> float:
    """Largest normalized information coupling between (xi, T0) and amplitudes.

    Builds the extended-model information over (x, y, z, c*T0, A_1..A_M) from
    central finite differences of the noiseless sample means and returns
    max |J_ab| / sqrt(J_aa J_bb) over the cross block. A time-symmetric pulse
    makes this vanish; break_symmetry truncates the pulse tail to confirm the
    check can detect a coupled model: it zeroes the pulse after 0.15
    pulse_width, without re-normalizing its energy.
    """
    pos = sat_positions(positions)
    amps = amplitudes(pos, config.es_max)
    t_axis = np.arange(config.n_samples) * config.dt
    t0 = centered_t0(pos, config)

    def mean_vector(theta: np.ndarray) -> np.ndarray:
        taus = _delays(pos, theta[:3], theta[3] / config.c, config.c)
        t = t_axis[None, :] - taus[:, None]
        s = _pulse(config, t)[0]
        if break_symmetry:
            s[t > 0.15 * config.pulse_width] = 0.0
        return (theta[4:, None] * s).ravel()

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
    diag = np.diag(j)
    worst = 0.0
    for a in range(4):
        for b in range(4, len(theta0)):
            denom = math.sqrt(diag[a] * diag[b])
            if denom > 0.0:
                worst = max(worst, abs(j[a, b]) / denom)
    return worst
