"""The test suite's one high-precision reference; no other test module
imports mpmath.

Every function takes the exact double inputs the program receives (the
floats of a SystemParams, a float turn u, float bearings and weights) and
carries them at DPS significant digits, so a difference from the program is
the program's error, not a rounding of its input: the double
math.radians(60.0) is not pi/3, and at 90 degrees cos of the double is
6.1e-17, not 0. The shell radius is the exact r + h.

The cup expectations are mpmath.quad of their defining integrands over the
visible cup. With s = 1 - cos(phi_e) and a satellite at distance
d = sqrt(h^2 + 2 r R s), E[f 1[visible]] = (1/2) int_0^s_max f ds, taken
over log d in [log h, log D_max], where ds = d^2 / (r R) d(log d) and
L = 2 eta rho / d^2 is constant. The z limits use the centred integrand
L (cos(phi_l) - c)^2 with c = E[L cos(phi_l)] / E[L], not a difference of
raw moments.

The pulses are signal_ml's unit-energy waveforms at the exact pulse width,
zero past the config's double half-support, and their RMS bandwidth is
mpmath.quad of s'^2 and s^2 over that support.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp

DPS = 50


def _at_dps(fn):
    """fn evaluated at DPS digits."""

    @functools.wraps(fn)
    def at_dps(*args, **kwargs):
        prec = mpmath.mp.prec
        mpmath.mp.dps = DPS
        try:
            return fn(*args, **kwargs)
        finally:
            mpmath.mp.prec = prec

    return at_dps


def exact(x) -> mpmath.mpf:
    """The exact value of a float, numpy float (np.longdouble included) or
    int, as an mpf: num / den with den a power of two, unrounded."""
    num, den = x.as_integer_ratio()
    return mpmath.mp.make_mpf(from_man_exp(num, 1 - den.bit_length()))


@_at_dps
def rel_err(got, want) -> float:
    """|got / want - 1|, got taken exactly."""
    return float(abs(exact(got) / want - 1))


@_at_dps
def abs_err(got, want) -> float:
    """|got - want|, got taken exactly."""
    return float(abs(exact(got) - want))


@_at_dps
def ulps(got, want) -> float:
    """(got - want) in units of the last place of the double nearest want."""
    return float((exact(got) - want) / np.spacing(abs(float(want))))


def worst(got, want, err=rel_err, at=None) -> tuple[float, object]:
    """The largest err(got[i], want[i]) over the cells of got, and at[i]
    (or i) naming the cell where it is."""
    errors = [err(g, w) for g, w in zip(got, want)]
    i = int(np.argmax(errors))
    return errors[i], i if at is None else at[i]


@_at_dps
def cos_sin_turns(u: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(cos 2 pi u, sin 2 pi u) at the double u."""
    turn = 2 * exact(u)
    return mpmath.cospi(turn), mpmath.sinpi(turn)


@_at_dps
def local_frame(s: float, p) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(d, cos(phi_l), sin(phi_l)) of a satellite at s = 1 - cos(phi_e):
    the law of cosines and the transfer relations d cos(phi_l) =
    R cos(phi_e) - r and d sin(phi_l) = R sin(phi_e)."""
    c, r = 1 - exact(s), exact(p.r)
    big_r = r + exact(p.h)
    d = mpmath.sqrt(big_r**2 + r**2 - 2 * r * big_r * c)
    return d, (big_r * c - r) / d, big_r * mpmath.sqrt(1 - c * c) / d


@_at_dps
def cup_edges(p) -> dict[str, mpmath.mpf]:
    """D_max, log(D_max/h), h - zeta D_max, surd and q from their defining
    (cancelling) expressions, keyed by geometry.CupEdges' field names."""
    r, h, phi = exact(p.r), exact(p.h), exact(p.phi_l_max)
    big_r, zeta = r + h, mpmath.cos(phi)
    dm = mpmath.sqrt(big_r**2 - (r * mpmath.sin(phi)) ** 2) - r * zeta
    return dict(
        dm=dm,
        lam=mpmath.log(dm / h),
        hmzd=h - zeta * dm,
        surd=big_r - r * zeta**2 - zeta * dm,
        q=big_r - (r * (h - zeta * dm) + h * big_r) / dm,
    )


def _cup_mean(p, f) -> mpmath.mpf:
    """E[f(d, cos(phi_l), sin^2(phi_l)) 1[visible]], by quad over log d."""
    r, h = exact(p.r), exact(p.h)
    big_r = r + h

    def integrand(log_d):
        d = mpmath.exp(log_d)
        s = (d - h) * (d + h) / (2 * r * big_r)
        cos_l = (h - big_r * s) / d
        sin2_l = big_r**2 * s * (2 - s) / (d * d)
        return f(d, cos_l, sin2_l) * d * d / (r * big_r)

    return mpmath.quad(integrand, [mpmath.log(h), mpmath.log(cup_edges(p)["dm"])]) / 2


@_at_dps
def moments(p) -> dict[str, mpmath.mpf]:
    """The five cup expectations, keyed by closed_form.MomentSet's field
    names; the K-weighted two only with the (eta, rho) split."""
    er = exact(p.eta_rho)
    out = dict(
        m_l=_cup_mean(p, lambda d, c, s2: 2 * er / d**2),
        m_l_cos=_cup_mean(p, lambda d, c, s2: 2 * er * c / d**2),
        m_l_sin2=_cup_mean(p, lambda d, c, s2: 2 * er * s2 / d**2),
    )
    if p.eta is not None:
        eta = exact(p.eta)
        rho = er / eta
        # K = (2 rho / d^4)(1 + eta d^2)
        out["m_k_sin2"] = _cup_mean(p, lambda d, c, s2: 2 * rho * (1 + eta * d**2) * s2 / d**4)
        out["m_k_cos2"] = _cup_mean(p, lambda d, c, s2: 2 * rho * (1 + eta * d**2) * c**2 / d**4)
    return out


def _limits(p, rss: bool) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(xy, z) of N * CRB as N -> infinity: 4 / E[W sin^2(phi_l)] and
    1 / (E[L (cos(phi_l) - c)^2] + E[(W - L) cos^2(phi_l)]), with the
    position weight W = K for TDOA+RSS and L for TDOA."""
    m, er = moments(p), exact(p.eta_rho)
    c_bar = m["m_l_cos"] / m["m_l"]
    z_den = _cup_mean(p, lambda d, c, s2: 2 * er * (c - c_bar) ** 2 / d**2)
    if not rss:
        return 4 / m["m_l_sin2"], 1 / z_den
    # K - L = 2 rho / d^4
    rho = er / exact(p.eta)
    z_den += _cup_mean(p, lambda d, c, s2: 2 * rho * c**2 / d**4)
    return 4 / m["m_k_sin2"], 1 / z_den


@_at_dps
def lcrb_tdoa(p) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(xy, z) of the TDOA limit of N * CRB."""
    return _limits(p, rss=False)


@_at_dps
def lcrb_tdoa_rss(p) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(xy, z) of the TDOA+RSS limit of N * CRB; needs the (eta, rho) split."""
    return _limits(p, rss=True)


@_at_dps
def rss_gaps(p) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(xy, z) of 1 - LCRB_tdoa+rss / LCRB_tdoa, the share of the TDOA
    limit that the received strength removes."""
    return tuple(1 - rss / tdoa for rss, tdoa in zip(lcrb_tdoa_rss(p), lcrb_tdoa(p)))


@_at_dps
def limit_coefficients(p) -> dict[str, mpmath.mpf]:
    """alpha_xy, alpha_z (h -> 0 intercepts) and beta_xy, beta_z (h -> inf
    curvatures) of the TDOA ACRB, N folded in."""
    r, phi = exact(p.r), exact(p.phi_l_max)
    zeta, sin2 = mpmath.cos(phi), mpmath.sin(phi) ** 2
    log_zeta = mpmath.log(zeta)
    den = exact(p.eta_rho) * p.n_sats
    return dict(
        alpha_xy=-8 * r**2 / (den * (2 * log_zeta + sin2)),
        alpha_z=2 * r**2 / (den * (sin2 + 2 * (1 - zeta) ** 2 / log_zeta)),
        beta_xy=12 / (den * (zeta + 2) * (1 - zeta) ** 2),
        beta_z=12 / (den * (1 - zeta) ** 3),
    )


@_at_dps
def coverage_prob(p) -> mpmath.mpf:
    """P(at least 4 of N satellites visible), as the binomial tail
    sum_{m >= 4} C(N, m) v^m (1 - v)^(N - m) at the visibility v =
    (h - zeta D_max) / (2R); the terms are positive, so nothing cancels."""
    v = cup_edges(p)["hmzd"] / (2 * (exact(p.r) + exact(p.h)))
    n = p.n_sats
    return mpmath.fsum(math.comb(n, m) * v**m * (1 - v) ** (n - m) for m in range(4, n + 1))


@_at_dps
def bounds_row(p) -> dict[str, mpmath.mpf]:
    """The true value of each float column `satcrb bounds` prints at p."""
    xy, z = lcrb_tdoa(p)
    co = limit_coefficients(p)
    n, h2 = p.n_sats, exact(p.h) ** 2
    return dict(
        lcrb_xy=xy, lcrb_z=z, acrb_xy=xy / n, acrb_z=z / n,
        aacrb_xy=co["alpha_xy"] + co["beta_xy"] * h2,
        aacrb_z=co["alpha_z"] + co["beta_z"] * h2,
        **co,
        coverage_prob=coverage_prob(p),
    )


@_at_dps
def pulse(config, t: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(s(t), s'(t)) of the unit-energy pulse of a signal_ml.SignalConfig at
    the double t: the gaussian (pi sigma^2)^-1/4 exp(-(t/sigma)^2 / 2) or
    the raised cosine sqrt(8 / (3 P)) (1 + cos(2 pi t/P)) / 2 on |t| <=
    config.support / 2, and 0 elsewhere. The edge is the double support the
    config gives: for the gaussian that is the double 12 sigma, 3e-21 s past
    the exact 12 sigma at the default width."""
    return _pulse_at(config, exact(t))


def _pulse_at(config, t: mpmath.mpf) -> tuple[mpmath.mpf, mpmath.mpf]:
    """`pulse` at the mpf t."""
    width = exact(config.pulse_width)
    if abs(t) > exact(config.support) / 2:
        return mpmath.mpf(0), mpmath.mpf(0)
    if config.pulse == "gaussian":
        s = (mpmath.pi * width**2) ** mpmath.mpf(-0.25) * mpmath.exp(-((t / width) ** 2) / 2)
        return s, -t / width**2 * s
    half_amp, turn = mpmath.sqrt(2 / (3 * width)), 2 * t / width
    return half_amp * (1 + mpmath.cospi(turn)), -half_amp * 2 * mpmath.pi / width * mpmath.sinpi(turn)


@_at_dps
def rms_bandwidth(config) -> mpmath.mpf:
    """W_e in Hz, the RMS (Gabor) bandwidth sqrt(int s'^2 dt / int s^2 dt)
    / (2 pi) of the pulse the program samples: `pulse` integrated by
    mpmath.quad over the config's double support, so the gaussian is
    truncated at its double +-6 sigma."""
    edge = exact(config.support) / 2
    nodes = [-edge, 0, edge]
    energy = mpmath.quad(lambda t: _pulse_at(config, t)[0] ** 2, nodes)
    slope = mpmath.quad(lambda t: _pulse_at(config, t)[1] ** 2, nodes)
    return mpmath.sqrt(slope / energy) / (2 * mpmath.pi)


@_at_dps
def planar_xy_trace(angles, weights) -> mpmath.mpf:
    """(J^-1)_00 + (J^-1)_11 of J = sum_i w_i u_i u_i^T with u_i =
    (cos phi_i, sin phi_i, -1), at the double bearings and weights."""
    j = mpmath.zeros(3, 3)
    for phi, w in zip(angles, weights):
        u = [mpmath.cos(exact(float(phi))), mpmath.sin(exact(float(phi))), -1]
        for a in range(3):
            for b in range(3):
                j[a, b] += exact(float(w)) * u[a] * u[b]
    inv = j**-1
    return inv[0, 0] + inv[1, 1]
