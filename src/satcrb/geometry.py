"""Spherical constellation geometry.

Satellites live on a sphere of radius R = r + h around the Earth's center;
the localized terminal (LT) sits on the Earth's surface at radius r. Angles
come in two frames: phi_e is measured from the Earth's center between the LT
direction and the satellite direction, phi_l is measured at the LT from its
local zenith. A satellite is usable when cos(phi_l) >= zeta = cos(phi_l_max).

Uniform deployment on the sphere means cos(phi_e) ~ U[-1, 1] and the azimuth
theta ~ U[0, 2*pi). local_frame takes the drawn cosine straight to the
distance d and to cos(phi_l) and sin(phi_l), with no angle in between. A
draw's visible satellites are their unit lines of sight v = (sin(phi_l)
cos(theta), sin(phi_l) sin(theta), cos(phi_l)), an (M, 3) array, and their
distances d, in draw order, as visible_sky gives them for one trial and
visible_chunks for padded chunks of trials. cup_edges is the one evaluator
of the cup's edge (D_max, h - zeta D_max, chi_max), for the closed forms and
the shell geometry alike. All lengths are km, all angles radians, times
seconds.
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
            raise InvalidConfig(f"Earth radius must be positive, got r={self.r}")
        if not SWEEP_RANGES["h"](self.h):
            raise InvalidConfig(f"altitude must be positive, got h={self.h}")
        if not SWEEP_RANGES["phi_l_max"](self.phi_l_max):
            raise InvalidConfig(
                f"phi_l_max must lie in (0, pi/2], got {self.phi_l_max}"
            )
        if not (self.eta_rho > 0.0 and math.isfinite(self.eta_rho)):
            raise InvalidConfig(f"eta_rho must be positive, got {self.eta_rho}")
        if (
            isinstance(self.n_sats, bool)
            or not isinstance(self.n_sats, (int, np.integer))
            or self.n_sats < 1
        ):
            raise InvalidConfig(f"n_sats must be an integer >= 1, got {self.n_sats!r}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise InvalidConfig(f"propagation speed must be positive, got {self.c}")
        if self.eta is not None and not (0.0 < self.eta and math.isfinite(self.eta)):
            raise InvalidConfig(f"eta must be positive when given, got {self.eta}")

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


def stream_rows(
    keys: np.ndarray, out: np.ndarray, draw: str = "random", skip: int = 0
) -> np.ndarray:
    """Row i of out: what Generator.<draw>(out=row) gives the stream keyed
    keys[i], from its (4 skip)-th 64-bit word on; "random" draws doubles in
    [0, 1), one word each, and "standard_normal" unit normals. A Philox
    counter counts blocks of four words, and one Philox reset to a key and a
    counter draws what a fresh Philox(key=...) advanced by that count draws,
    so a single generator serves every row."""
    bitgen = np.random.Philox(key=keys[0])
    gen = np.random.Generator(bitgen)
    fill = getattr(gen, draw)
    state = bitgen.state
    state["state"]["counter"][0] = skip
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        bitgen.state = state
        fill(out=row)
    return out


# A trial's stream is N cosines cos(phi_e), then N uniforms u for the
# azimuths 2 pi u: the values of uniform(-1, 1, N) and uniform(0, 2 pi, N),
# which compute low + (high - low) u. The two halves are drawn in turn into
# the same row of a (trials, N + 3) block; the azimuth draw starts at a
# block of four doubles, up to 3 before its first.
_ROW_SLACK = 3


def _draw_cosines(
    params: SystemParams, keys: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Each trial's N cosines, in the first N columns of its row of out.
    -1 + 2u is exact, so it is done in place."""
    cos_phi_e = stream_rows(keys, out[:, : params.n_sats])
    cos_phi_e *= 2.0
    cos_phi_e -= 1.0
    return cos_phi_e


def _draw_azimuths(
    params: SystemParams, keys: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Each trial's N azimuth uniforms, over its row of out. The draw starts
    at the block of four doubles holding the first of them, N mod 4 columns
    before it."""
    n = params.n_sats
    stream_rows(keys, out[:, : n + n % 4], skip=n // 4)
    return out[:, n % 4 : n % 4 + n]


# Prefilter slack in cos(phi_e): the rounding of local_frame moves the
# visibility edge by well under 1e-14 from chi_max, and the slack admits only
# about N * CUP_MARGIN / 2 extra candidates per draw.
CUP_MARGIN = 1.0e-9


def _cup_threshold(params: SystemParams) -> float:
    """The least cos(phi_e) a cup candidate has."""
    return chi_max(params) - CUP_MARGIN


# doubles a chunk of trials draws at once; a chunk holds at least one trial
_BLOCK = 1 << 15


def _trials_per_chunk(n_sats: int) -> int:
    return max(1, _BLOCK // n_sats)


def _padded(filled: np.ndarray, values: np.ndarray, fill: float) -> np.ndarray:
    """values in the True slots of the mask filled, in row-major order, and
    fill in the others."""
    rows = np.full(filled.shape, fill)
    rows[filled] = values
    return rows


def _cup_draws(
    params: SystemParams, keys: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trial, cos(phi_e), u) of each cup candidate (cos(phi_e) >= threshold)
    of the streams keys, in trial order and then draw order. The candidates
    are taken before the azimuths overwrite the cosines, and the block dies
    on return."""
    n = params.n_sats
    block = np.empty((len(keys), n + _ROW_SLACK))
    cand = np.flatnonzero(_draw_cosines(params, keys, block) >= threshold)
    trial = cand // n
    # a candidate's place in the flat block; its azimuth's is n mod 4 further
    at = cand + trial * _ROW_SLACK
    flat = block.reshape(-1)
    cos_phi_e = flat[at]
    _draw_azimuths(params, keys, block)
    return trial, cos_phi_e, flat[at + n % 4]


def local_frame(
    cos_phi_e: np.ndarray, params: SystemParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, cos(phi_l), sin(phi_l)) of satellites at the Earth-frame cosines
    c = cos(phi_e); a satellite is visible where cos(phi_l) >= params.zeta.

    With 1 - c formed once, d = sqrt(h^2 + 2 r R (1 - c)) is the law of
    cosines, cos(phi_l) = (h - R (1 - c)) / d and sin(phi_l) =
    R sqrt((1 - c)(1 + c)) / d the transfer relations d cos(phi_l) =
    R c - r and d sin(phi_l) = R sin(phi_e). A drawn c is a multiple of
    2**-52, so 1 - c and 1 + c are exact; R c - r itself would cancel to
    order h out of terms of order R.
    """
    c = np.asarray(cos_phi_e, dtype=float)
    r, h, big_r = params.r, params.h, params.big_r
    s = 1.0 - c
    d = np.sqrt(h * h + (2.0 * r * big_r) * s)
    cos_l = (h - big_r * s) / d
    sin_l = big_r * np.sqrt(s * (1.0 + c)) / d
    return d, cos_l, sin_l


def _visible_chunk(
    params: SystemParams, keys: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """counts and padded (v, d) of one chunk of visible_chunks."""
    trial, cos_phi_e, u = _cup_draws(params, keys, threshold)
    d, cos_l, sin_l = local_frame(cos_phi_e, params)
    visible = cos_l >= params.zeta
    counts = np.bincount(trial[visible], minlength=len(keys))
    # row-major order of the padded rows is trial order, then draw order
    filled = np.arange(counts.max()) < counts[:, None]
    theta = 2.0 * math.pi * u[visible]
    sin_l = sin_l[visible]
    # scattered one component at a time: a boolean scatter of whole (3,)
    # rows, v[filled] = rows, is several times slower
    v = np.zeros(filled.shape + (3,))
    for k, comp in enumerate(
        (sin_l * np.cos(theta), sin_l * np.sin(theta), cos_l[visible])
    ):
        v[..., k][filled] = comp
    return counts, v, _padded(filled, d[visible], math.inf)


def visible_chunks(
    params: SystemParams, seed: int, trials: range
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """The visible satellites of the streams (seed, t) for t in `trials`,
    a chunk of trials at a time.

    Yields (rows, counts, v, d): rows is the chunk's slice of `trials`, and
    row i of the padded (chunk, max(counts), 3) lines of sight v and
    (chunk, max(counts)) distances d holds the counts[i] visible satellites
    of trials[rows][i] in draw order, then padding slots with v = 0 at
    d = inf. A chunk draws its streams into one block of about _BLOCK
    doubles (one trial if N is larger), and only the cup candidates of the
    whole chunk go to local_frame, in one call, where cos(phi_l) >= zeta
    still decides visibility; so each trial's satellites equal taking all N
    cosines of its stream's uniform draw through local_frame and masking,
    bit for bit.
    """
    keys = stream_keys(seed, trials)
    size = _trials_per_chunk(params.n_sats)
    threshold = _cup_threshold(params)
    for first in range(0, len(keys), size):
        chunk = keys[first : first + size]
        yield (slice(first, first + size), *_visible_chunk(params, chunk, threshold))


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
