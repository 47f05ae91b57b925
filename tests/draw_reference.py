"""Monte Carlo draws rebuilt from numpy alone: cup_draw is the reference the
chunked draw of satcrb.geometry is checked against, bit for bit, and
uniform_draw/masked_sky the whole-sphere draw it replaced, an oracle of the
same law that does not share its stream."""

import math

import numpy as np

from satcrb.coverage import visibility_prob
from satcrb.geometry import cos_sin_turns, local_frame


def trial_generator(seed, trial):
    """A fresh Philox(SeedSequence(entropy=seed, spawn_key=(trial,)))."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def radian_trig(turns):
    """numpy's route to (cos, sin) of the azimuths 2 pi u: np.cos and
    np.sin of the rounded angle."""
    theta = 2.0 * math.pi * turns
    return np.cos(theta), np.sin(theta)


def lines_of_sight(s, cos_sin, params):
    """(v, d) of satellites at s = 1 - cos(phi_e) whose azimuths have the
    cosines and sines cos_sin."""
    d, cos_l, sin_l = local_frame(s, params)
    cos_t, sin_t = cos_sin
    v = np.stack([sin_l * cos_t, sin_l * sin_t, cos_l], axis=-1)
    return v, d


def cup_draw(params, seed, trial, trig=cos_sin_turns):
    """(v, d) of the visible satellites of the stream (seed, trial): the
    count K ~ binomial(N, p) with p = (1 - chi_max)/2, then 2K uniforms u in
    one call, s = 2p u from the first K and the azimuths' (cos, sin) =
    trig(u) from the rest."""
    rng = trial_generator(seed, trial)
    p = visibility_prob(params)
    k = rng.binomial(params.n_sats, p)
    u = rng.random(2 * k)
    return lines_of_sight(2.0 * p * u[:k], trig(u[k:]), params)


def uniform_draw(n_sats, seed, trial):
    """(cos(phi_e), theta) of N satellites on the whole sphere:
    uniform(-1, 1, N) cosines, then uniform(0, 2 pi, N) azimuths, from the
    stream (seed, trial)."""
    rng = trial_generator(seed, trial)
    cos_phi_e = rng.uniform(-1.0, 1.0, n_sats)
    return cos_phi_e, rng.uniform(0.0, 2.0 * math.pi, n_sats)


def masked_sky(params, seed, trial):
    """(v, d) of the visible satellites of one whole-sphere draw: all N
    satellites of uniform_draw to the local frame, then those with
    cos(phi_l) >= zeta, in draw order. s = 1 - c is exact for a drawn c,
    a multiple of 2**-52."""
    cos_phi_e, theta = uniform_draw(params.n_sats, seed, trial)
    v, d = lines_of_sight(1.0 - cos_phi_e, (np.cos(theta), np.sin(theta)), params)
    vis = v[:, 2] >= params.zeta
    return v[vis], d[vis]