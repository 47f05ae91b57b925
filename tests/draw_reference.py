"""A Monte Carlo draw rebuilt from numpy alone: the reference the chunked
draw of satcrb.geometry is checked against, bit for bit."""

import math

import numpy as np

from satcrb.geometry import local_frame


def uniform_draw(n_sats, seed, trial):
    """(cos(phi_e), theta) of the N satellites of the stream (seed, trial):
    uniform(-1, 1, N) cosines, then uniform(0, 2 pi, N) azimuths, from
    Philox(SeedSequence(entropy=seed, spawn_key=(trial,)))."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng = np.random.Generator(np.random.Philox(ss))
    cos_phi_e = rng.uniform(-1.0, 1.0, n_sats)
    return cos_phi_e, rng.uniform(0.0, 2.0 * math.pi, n_sats)


def masked_sky(params, seed, trial):
    """(v, d) of the visible satellites of one draw the direct way: all N
    satellites of uniform_draw to the local frame, then the lines of sight of
    those with cos(phi_l) >= zeta, in draw order."""
    cos_phi_e, theta = uniform_draw(params.n_sats, seed, trial)
    d, cos_l, sin_l = local_frame(cos_phi_e, params)
    vis = cos_l >= params.zeta
    theta, sin_l = theta[vis], sin_l[vis]
    v = np.stack([sin_l * np.cos(theta), sin_l * np.sin(theta), cos_l[vis]], axis=-1)
    return v, d[vis]
