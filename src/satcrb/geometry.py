"""Spherical constellation geometry.

Satellites live on a sphere of radius R = r + h around the Earth's center;
the localized terminal (LT) sits on the Earth's surface at radius r. Angles
come in two frames: phi_e is measured from the Earth's center between the LT
direction and the satellite direction, phi_l is measured at the LT from its
local zenith. A satellite is usable when cos(phi_l) >= zeta = cos(phi_l_max).

Uniform deployment on the sphere means cos(phi_e) ~ U[-1, 1] and the azimuth
theta ~ U[0, 2*pi). A satellite is visible where s = 1 - cos(phi_e) is below
s_max = 1 - chi_max = (h - zeta D_max)/R, so the visible part of a uniform
fleet of N is again a binomial point process: K ~ Binomial(N, s_max/2)
satellites, each with s ~ U[0, s_max) and theta ~ U[0, 2*pi), all
independent. The stream (seed, t) of a trial draws exactly that: K, then 2K
uniforms u in [0, 1) in one call, the first K giving s = s_max u and the
next K theta = 2 pi u. As u < 1, s < s_max, so the cup's edge, a set of
measure zero, is never drawn; the draw itself decides visibility.
local_frame takes s straight to the distance d and to cos(phi_l) and
sin(phi_l), with no angle in between. A draw's visible satellites are their
unit lines of sight v = (sin(phi_l) cos(theta), sin(phi_l) sin(theta),
cos(phi_l)), an (M, 3) array, and their distances d, in draw order, as
visible_sky gives them for one trial and visible_chunks for padded chunks
of trials. cup_edges is the one evaluator of the cup's edge (D_max,
h - zeta D_max, chi_max), for the closed forms and the shell geometry
alike. All lengths are km, all angles radians, times seconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

C_KM_S = 299792.458  # vacuum speed of light, km/s


class InvalidConfig(ValueError):
    """Raised when system parameters are outside their legal ranges."""


def libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each v of the 1-d float array x, through the C
    library: bit for bit the scalar `math` result, which numpy's SIMD float64
    log, log1p, exp and power miss in the last bit for some inputs."""
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, x.size)


# legal values of the two fields a bound sweep varies, elementwise on arrays
# (h positive and finite)
SWEEP_RANGES = {
    "h": lambda h: (h > 0.0) & (h < math.inf),
    "phi_l_max": lambda phi: (0.0 < phi) & (phi <= math.pi / 2.0),
}


@dataclass(frozen=True)
class SystemParams:
    """Earth/constellation/radiometric scalars.

    eta_rho is the combined information scale (km^-2): the product of the
    squared-bandwidth factor eta = (2*pi*W_e/c)^2 and the SNR-like factor rho.
    Timing-only (TDOA) quantities depend on the product alone. Quantities that
    use the received-strength channel also need the split, supplied via the
    optional ``eta`` field (then rho = eta_rho / eta).
    """

    r: float = 6371.0
    h: float = 20000.0
    phi_l_max: float = math.radians(60.0)
    eta_rho: float = 6.4e13
    n_sats: int = 250
    c: float = C_KM_S
    eta: float | None = None

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise InvalidConfig(
                f"Earth radius must be finite and positive, got r={self.r}"
            )
        if not SWEEP_RANGES["h"](self.h):
            raise InvalidConfig(f"altitude must be finite and positive, got h={self.h}")
        if not SWEEP_RANGES["phi_l_max"](self.phi_l_max):
            raise InvalidConfig(
                f"phi_l_max must lie in (0, pi/2], got {self.phi_l_max}"
            )
        if not (self.eta_rho > 0.0 and math.isfinite(self.eta_rho)):
            raise InvalidConfig(
                f"eta_rho must be finite and positive, got {self.eta_rho}"
            )
        check_count("n_sats", self.n_sats, 1)
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise InvalidConfig(
                f"propagation speed must be finite and positive, got {self.c}"
            )
        if self.eta is not None and not (0.0 < self.eta and math.isfinite(self.eta)):
            raise InvalidConfig(
                f"eta must be finite and positive when given, got {self.eta}"
            )

    @property
    def big_r(self) -> float:
        """Satellite shell radius R = r + h."""
        return self.r + self.h

    @property
    def zeta(self) -> float:
        """cos(phi_l_max), in [0, 1)."""
        return math.cos(self.phi_l_max)

    @property
    def has_split(self) -> bool:
        return self.eta is not None

    @property
    def rho(self) -> float:
        if self.eta is None:
            raise InvalidConfig(
                "rho requires the (eta, rho) split; construct SystemParams with eta="
            )
        return self.eta_rho / self.eta


# SeedSequence's hash constants (numpy.random.bit_generator), which
# stream_keys replays
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
SEED_MAX = 2**64 - 1


def check_seed(seed) -> int:
    """seed as an int; InvalidConfig unless it is an integer in [0, 2**64 - 1]."""
    if (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or not 0 <= seed <= SEED_MAX
    ):
        raise InvalidConfig(f"seed must be an integer in [0, 2**64 - 1], got {seed!r}")
    return int(seed)


def check_count(name: str, value, least: int) -> int:
    """value as an int; InvalidConfig unless it is an integer >= least."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < least
    ):
        raise InvalidConfig(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> np.uint32(16))


def stream_keys(seed: int, trials: range) -> np.ndarray:
    """Philox keys of the (seed, trial) streams for the trials of a range of
    step 1 in [0, 2**64 - 1], as a (len(trials), 2) uint64 array: row i is
    SeedSequence(entropy=seed, spawn_key=(trials[i],)).generate_state(2,
    np.uint64), bit for bit.

    SeedSequence hashes the seed's words (at most two below 2**64, padded
    with zeros to its four-word pool) into the pool with the first 16 hash
    constants, which is the pool of SeedSequence(seed). The spawn key's
    words follow, each mixed into every pool word with the next four
    constants (a trial from 2**32 on is two words), and generate_state
    hashes the pool into the key. Only those last two stages depend on the
    trial, so they run here as uint32 array arithmetic over all trials.
    """
    seed = check_seed(seed)
    if trials.step != 1 or trials.start < 0 or trials.stop - 1 > SEED_MAX:
        raise InvalidConfig(
            f"trials must be a range of step 1 in [0, 2**64 - 1], got {trials}"
        )
    t = np.uint64(trials.start) + np.arange(len(trials), dtype=np.uint64)
    pool = np.tile(np.random.SeedSequence(seed).pool, (t.size, 1))
    const = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32
    high = t >> np.uint64(32)
    for word, rows in ((t, slice(None)), (high, high > 0)):
        word = (word & np.uint64(_MASK32)).astype(np.uint32)
        for i in range(4):
            value = word ^ np.uint32(const)
            const = const * _MULT_A & _MASK32
            value = _xorshift(value * np.uint32(const))
            mixed = _xorshift(
                np.uint32(_MIX_MULT_L) * pool[:, i] - np.uint32(_MIX_MULT_R) * value
            )
            pool[rows, i] = mixed[rows]
    const = _INIT_B
    for i in range(4):
        value = pool[:, i] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        pool[:, i] = _xorshift(value * np.uint32(const))
    return pool.astype("<u4").view("<u8").astype(np.uint64)


def streams(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator, reset before each yield to the start of the stream
    keyed keys[i]: it draws what Generator(Philox(key=keys[i])) draws, as
    long as the caller is done with it before asking for the next. Setting
    a Philox's key and zeroing its counter and buffer is a fresh Philox, so
    one generator serves every stream."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for key in keys:
        fresh["state"]["key"] = key
        bitgen.state = fresh
        yield gen


def local_frame(
    s: np.ndarray, params: SystemParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, cos(phi_l), sin(phi_l)) of satellites at s = 1 - cos(phi_e).

    d = sqrt(h^2 + 2 r R s) is the law of cosines, cos(phi_l) =
    (h - R s) / d and sin(phi_l) = R sqrt(s (2 - s)) / d the transfer
    relations d cos(phi_l) = R cos(phi_e) - r and d sin(phi_l) =
    R sin(phi_e); R cos(phi_e) - r itself would cancel to order h out of
    terms of order R.
    """
    s = np.asarray(s, dtype=float)
    r, h, big_r = params.r, params.h, params.big_r
    d = np.sqrt(h * h + (2.0 * r * big_r) * s)
    cos_l = (h - big_r * s) / d
    sin_l = big_r * np.sqrt(s * (2.0 - s)) / d
    return d, cos_l, sin_l


# trials a chunk holds: about _BLOCK / N, at least one
_BLOCK = 1 << 15


def _trials_per_chunk(n_sats: int) -> int:
    return max(1, _BLOCK // n_sats)


def _cup_chunk(
    params: SystemParams, keys: np.ndarray, s_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """counts and padded (v, d) of one chunk of visible_chunks."""
    draws = [
        gen.random(2 * gen.binomial(params.n_sats, 0.5 * s_max))
        for gen in streams(keys)
    ]
    counts = np.array([draw.size // 2 for draw in draws])
    filled = np.arange(counts.max()) < counts[:, None]
    # row i of u[0] and u[1]: the uniforms of s and theta of trial i; a
    # padding slot is at the zenith, s = 0, until v and d are set below
    u = np.zeros((2,) + filled.shape)
    for row, draw in enumerate(draws):
        u[:, row, : draw.size // 2] = draw.reshape(2, -1)
    theta = 2.0 * math.pi * u[1]
    d, cos_l, sin_l = local_frame(s_max * u[0], params)
    v = np.stack([sin_l * np.cos(theta), sin_l * np.sin(theta), cos_l], axis=-1)
    v[~filled] = 0.0
    d[~filled] = math.inf
    return counts, v, d


def visible_chunks(
    params: SystemParams, seed: int, trials: range
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """The visible satellites of the streams (seed, t) for t in `trials`,
    a chunk of trials at a time.

    Yields (rows, counts, v, d): rows is the chunk's slice of `trials`, and
    row i of the padded (chunk, max(counts), 3) lines of sight v and
    (chunk, max(counts)) distances d holds the counts[i] visible satellites
    of trials[rows][i] in draw order, then padding slots with v = 0 at
    d = inf. The draw is the cup draw of the module docstring, so every
    drawn satellite is visible: there is no cos(phi_l) >= zeta test, which
    rounding near the edge could only make disagree with the draw.
    """
    keys = stream_keys(seed, trials)
    size = _trials_per_chunk(params.n_sats)
    edges = cup_edges(params, params.h, params.phi_l_max, float)
    s_max = float(edges.hmzd / params.big_r)
    for first in range(0, len(keys), size):
        chunk = keys[first : first + size]
        yield (slice(first, first + size), *_cup_chunk(params, chunk, s_max))


def visible_sky(
    params: SystemParams, seed: int, trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(v, d) of the visible satellites of the stream (seed, trial), in draw
    order: the (M, 3) unit lines of sight and the (M,) distances,
    visible_chunks for one trial."""
    chunks = visible_chunks(params, seed, range(trial, trial + 1))
    _, _, v, d = next(chunks)
    return v[0], d[0]


@dataclass(frozen=True)
class CupEdges:
    """The edge of the visibility cup, elementwise over (h, phi_l_max).

    Fields: r, h, big_r = R = r + h, dm = D_max, lam = log(D_max/h),
    hmzd = h - zeta D_max, and
      surd  = R - r zeta^2 - zeta D_max
            = sin^2 (R^2 + zeta^2 r^2) / (R + zeta sqrt(R^2 - r^2 sin^2))
      q     = R - (r(h - zeta D_max) + hR)/D_max
            = (R^2 - r^2) r^2 sin^2 / ((R + sqrt)(sqrt + r zeta) D_max)
    with R^2 - r^2 formed as h(2r + h), which does not cancel at small h.
    """

    r: np.ndarray
    h: np.ndarray
    big_r: np.ndarray
    dm: np.ndarray
    lam: np.ndarray
    hmzd: np.ndarray
    surd: np.ndarray
    q: np.ndarray


@np.errstate(all="ignore")
def cup_edges(params: SystemParams, h, phi, dtype: type) -> CupEdges:
    """Cup-edge quantities elementwise over h and phi_l_max (floats or
    arrays broadcast together), evaluated in dtype; params supplies r."""
    r = dtype(params.r)
    h = np.asarray(h, dtype=dtype)
    big_r = r + h
    phi = np.asarray(phi, dtype=dtype)
    zeta = np.cos(phi)
    sin_phi = np.sin(phi)
    sin2 = sin_phi * sin_phi
    s = r * sin_phi
    sq = np.sqrt((big_r - s) * (big_r + s))
    dm = h * (2.0 * r + h) / (sq + r * zeta)
    dmh = h * (r * (1.0 - zeta) + s * s / (big_r + sq)) / (sq + r * zeta)
    lam = np.log1p(dmh / h)
    # (h + r zeta^2)^2 - zeta^2 (R^2 - r^2 sin^2) == h^2 (1 - zeta^2)
    hmzd = h * h * (1.0 - zeta * zeta) / (h + r * zeta * zeta + zeta * sq)
    surd = sin2 * (big_r * big_r + zeta * zeta * r * r) / (big_r + zeta * sq)
    q = h * (2.0 * r + h) * r * r * sin2 / ((big_r + sq) * (sq + r * zeta) * dm)
    return CupEdges(r=r, h=h, big_r=big_r, dm=dm, lam=lam, hmzd=hmzd, surd=surd, q=q)


def chi_max(params: SystemParams) -> float:
    """cos(phi_e_max): the Earth-frame cosine at the edge of visibility."""
    edges = cup_edges(params, params.h, params.phi_l_max, float)
    return float(1.0 - edges.hmzd / params.big_r)
