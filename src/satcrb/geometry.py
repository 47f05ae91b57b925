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
sin(phi_l), with no angle in between, and cos_sin_turns takes u straight
to cos(theta) and sin(theta), with IEEE arithmetic and a table, so no
angle is rounded and the bits do not depend on numpy's SIMD dispatch. A
draw's visible satellites are an (M, 4) array of timing rows u = (v, -1),
the rows the Fisher information sums, over their unit lines of sight v =
(sin(phi_l) cos(theta), sin(phi_l) sin(theta), cos(phi_l)), and their (M,)
distances d, in draw order. visible_chunks gives them for padded
chunks of trials, filled into buffers reused by every chunk: each trial
draws straight into them, and the element-wise stages run on slices of at
most 4096 satellites. visible_sky is visible_chunks for one trial.
cup_edges is the one evaluator of the cup's edge (D_max, h - zeta D_max,
...), for the closed forms and the shell geometry alike, and its s_max the
one cup depth, which the draw, chi_max, the coverage probabilities and the
closed-form moments all read. SystemParams.rho is the one check that the
(eta, rho) split is there. All lengths are km, all angles radians, times
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
        """eta_rho / eta; InvalidConfig without the split, which every
        quantity of the received-strength channel needs."""
        if self.eta is None:
            raise InvalidConfig(
                "the TDOA+RSS bound needs eta and rho separately; "
                "construct SystemParams with eta="
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


# the turn tables of cos_sin_turns: 256 steps of 2 pi / 256, and pi to 50
# digits for their 128-bit fixed-point evaluation
_TURN_STEPS = 256
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"


def _turn_tables() -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """cos and sin of the steps 2 pi j / 256, j in [0, 256), and the Taylor
    coefficients of sin(a f) (f, f^3, f^5, f^7) and cos(a f) - 1 (f^2 to
    f^8) at a = 2 pi / 256, each rounded once to float from a 128-bit
    fixed-point value. The first quarter turn is built by rotating step by
    step; the other three follow from it by exact negation and exchange."""
    one = 1 << 128
    a = 2 * int(_PI_DIGITS.replace(".", "")) * one // (10**50 * _TURN_STEPS)
    # a^i / i!, signed as the i-th Taylor term of cos (i even) or sin (i odd)
    terms = [one]
    while terms[-1]:
        terms.append(terms[-1] * a // (one * len(terms)))
    signed = [t if i % 4 < 2 else -t for i, t in enumerate(terms)]
    cos_a, sin_a = sum(signed[0::2]), sum(signed[1::2])
    quarter = [(one, 0)]
    for _ in range(_TURN_STEPS // 4 - 1):
        c, s = quarter[-1]
        quarter.append(((c * cos_a - s * sin_a) >> 128, (c * sin_a + s * cos_a) >> 128))
    cos_q = [c / one for c, _ in quarter]
    sin_q = [s / one for _, s in quarter]
    neg_cos, neg_sin = [-c for c in cos_q], [-s for s in sin_q]
    return (
        np.array(cos_q + neg_sin + neg_cos + sin_q),
        np.array(sin_q + cos_q + neg_sin + neg_cos),
        tuple(t / one for t in signed[1:9:2]),
        tuple(t / one for t in signed[2:9:2]),
    )


_COS_STEP, _SIN_STEP, (_S1, _S3, _S5, _S7), (_C2, _C4, _C6, _C8) = _turn_tables()


def cos_sin_turns(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2 pi u, sin 2 pi u) of an array of turns u in [0, 1), each
    within 2**-52 of the exact value at the double u.

    j = floor(256 u) and f = 256 u - j are exact. cos and sin of the step
    2 pi j / 256 come from a table, those of the rest 2 pi f / 256 from
    Taylor polynomials in f, and the angle-addition formulas join them. The
    kernel is IEEE multiplies, adds, one truncating cast and two table
    takes, which round the same at every SIMD level, so the bits do not
    depend on numpy's dispatch, and it calls no C-library function per
    element. The angle 2 pi u is never formed, while numpy's np.cos(2 pi u)
    misses by up to 7e-16 for the rounding of its argument alone.
    """
    t = np.multiply(u, float(_TURN_STEPS))
    j = t.astype(np.intp)
    f = t - j
    f2 = f * f
    # Horner's rule in place: sin(a f) and cos(a f) - 1
    sin_f = f2 * _S7
    sin_f += _S5
    sin_f *= f2
    sin_f += _S3
    sin_f *= f2
    sin_f += _S1
    sin_f *= f
    cos_f1 = f2 * _C8
    cos_f1 += _C6
    cos_f1 *= f2
    cos_f1 += _C4
    cos_f1 *= f2
    cos_f1 += _C2
    cos_f1 *= f2
    cos_j, sin_j = _COS_STEP.take(j), _SIN_STEP.take(j)
    cos = cos_j * cos_f1
    cos -= sin_j * sin_f
    cos += cos_j
    sin = np.multiply(sin_j, cos_f1, out=cos_f1)
    sin += np.multiply(cos_j, sin_f, out=sin_f)
    sin += sin_j
    return cos, sin


# a chunk takes trials while trials x max K stays within _SLOTS slots; a
# trial of more visible satellites is a chunk of its own
_SLOTS = 1 << 13
# the element-wise stages run on at most _SLICE slots at a time, so that
# their temporaries (32 kB each) are reused from the heap
_SLICE = 1 << 12
# the most satellites a fleet may have to be drawn: a trial draws K <= N of
# them, then 2K uniforms, and numpy refuses arrays of 2**60 doubles or more
_DRAW_MAX = 1 << 59


class _Workspace:
    """The buffers of visible_chunks, reused by every chunk: the packed
    uniforms (a trial's 2K after the last trial's), the timing rows
    (v, -1) of the padded (chunk, max K) slots and their distances. They
    are allocated for the first trial, with _SLOTS slots or an eighth more
    than its K, and grow only for a trial of more; the -1 column is
    written once per allocation."""

    def __init__(self) -> None:
        self.slots = -1  # nothing allocated

    def reserve(self, slots: int) -> None:
        if slots > self.slots:
            slots = self.slots = max(_SLOTS, slots + slots // 8)
            self.uniforms = np.empty(2 * slots)
            self.rows = np.empty((slots, 4))
            self.rows[:, 3] = -1.0
            self.d = np.empty(slots)


def _slices(
    uniforms: np.ndarray, counts: np.ndarray, width: int
) -> Iterator[tuple[np.ndarray, np.ndarray, slice | np.ndarray]]:
    """(s uniforms, theta uniforms, padded slots) of the chunk's drawn
    satellites, at most _SLICE at a time. Trial i's 2 K_i uniforms follow
    the trials before it, its satellite j is slot i * width + j."""
    if counts.size == 1:
        k = int(counts[0])
        for lo in range(0, k, _SLICE):
            hi = min(lo + _SLICE, k)
            yield uniforms[lo:hi], uniforms[k + lo : k + hi], slice(lo, hi)
        return
    start = np.cumsum(counts) - counts
    packed = np.arange(int(counts.sum()))
    s_at = packed + np.repeat(start, counts)
    theta_at = s_at + np.repeat(counts, counts)
    slot = packed + np.repeat(np.arange(counts.size) * width - start, counts)
    for lo in range(0, packed.size, _SLICE):
        at = slice(lo, lo + _SLICE)
        yield uniforms[s_at[at]], uniforms[theta_at[at]], slot[at]


def _fill(
    space: _Workspace, counts: np.ndarray, width: int, s_max: float, params: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """The padded (chunk, width, 4) timing rows and (chunk, width)
    distances of one chunk, as views of the workspace."""
    size = counts.size * width
    rows, d = space.rows[:size], space.d[:size]
    if counts.min() < width:
        rows[:, :3] = 0.0
        d[:] = math.inf
    for s, turns, at in _slices(space.uniforms, counts, width):
        dist, cos_l, sin_l = local_frame(s_max * s, params)
        cos_t, sin_t = cos_sin_turns(turns)
        rows[at, 0] = sin_l * cos_t
        rows[at, 1] = sin_l * sin_t
        rows[at, 2] = cos_l
        d[at] = dist
    return rows.reshape(counts.size, width, 4), d.reshape(counts.size, width)


def visible_chunks(
    params: SystemParams, seed: int, trials: range
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """The visible satellites of the streams (seed, t) for t in `trials`,
    a chunk of trials at a time.

    Yields (rows, counts, u, d): rows is the chunk's slice of `trials`, and
    row i of the padded (chunk, max(counts), 4) timing rows u = (v, -1)
    and (chunk, max(counts)) distances d holds the counts[i] visible
    satellites of trials[rows][i] in draw order, their unit lines of sight
    v then -1, then padding slots with v = 0 at d = inf. A chunk takes
    trials while chunk x max(counts) stays within _SLOTS, and at least one.
    u and d are views of buffers the next chunk overwrites: they are valid
    until the next chunk is asked for. The draw is the cup draw of the
    module docstring, so every drawn satellite is visible: there is no
    cos(phi_l) >= zeta test, which rounding near the edge could only make
    disagree with the draw. InvalidConfig for a fleet of more than 2**59
    satellites.
    """
    if params.n_sats > _DRAW_MAX:
        raise InvalidConfig(
            f"n_sats must be at most 2**59 to be drawn, got {params.n_sats}"
        )
    keys = stream_keys(seed, trials)
    s_max = float(cup_edges(params, params.h, params.phi_l_max, float).s_max)
    space = _Workspace()
    first, counts, width, drawn = 0, [], 0, 0

    def chunk(stop: int) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray]:
        held = np.array(counts)
        return (slice(first, stop), held, *_fill(space, held, width, s_max, params))

    for t, gen in enumerate(streams(keys)):
        k = gen.binomial(params.n_sats, 0.5 * s_max)
        if counts and (len(counts) + 1) * max(width, k) > _SLOTS:
            yield chunk(t)
            first, counts, width, drawn = t, [], 0, 0
        if not counts:
            space.reserve(k)
        gen.random(out=space.uniforms[drawn : drawn + 2 * k])
        counts.append(k)
        width = max(width, k)
        drawn += 2 * k
    if counts:
        yield chunk(len(keys))


def visible_sky(
    params: SystemParams, seed: int, trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(u, d) of the visible satellites of the stream (seed, trial), in draw
    order: the (M, 4) timing rows (v, -1) and the (M,) distances,
    visible_chunks for one trial, copied out of its workspace."""
    _, _, u, d = next(visible_chunks(params, seed, range(trial, trial + 1)))
    return u[0].copy(), d[0].copy()


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

    @property
    def s_max(self) -> np.ndarray:
        """Depth of the cup, s_max = 1 - chi_max = (h - zeta D_max)/R: the
        cup draw's s ~ U[0, s_max), and twice the visibility probability."""
        return self.hmzd / self.big_r


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
    return float(1.0 - cup_edges(params, params.h, params.phi_l_max, float).s_max)
