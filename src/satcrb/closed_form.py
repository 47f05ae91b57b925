"""Closed-form asymptotic localization bounds.

Everything here is an expectation over a single satellite's uniform position,
reduced to integrals in chi = cos(phi_e) over the visibility cup
[chi_max, 1]. The closed forms are assembled from cancellation-free pieces
(log1p-based log(D_max/h), exact conjugate rewrites of D_max - h, h - zeta*D_max
and friends) so that the h -> 0 and h -> infinity limits can be probed by
direct evaluation without losing the answer to floating-point cancellation.

Two computation routes exist for every bound:

* the literal published expressions (public path), and
* assembly from the MomentSet expectations (test path), themselves checked
  against Gauss-Legendre quadrature of the defining integrals.

The bound denominators subtract nearly equal terms at narrow cones, so the
kernels take the edges and carry the brackets in extended precision
(np.longdouble, with no SIMD loops, so each element is the scalar result).

The two routes are not independent: both take the edge quantities of
geometry.cup_edges (D_max, log(D_max/h), h - zeta D_max, q), evaluated in
extended precision, and the TDOA+RSS routes the brackets of _rss_brackets,
so a fault there moves both together. Within the package only the
quadrature checks them, and it integrates up to geometry.chi_max, the
float64 evaluation of the same edge; the test suite checks the edges, the
moments and every printed bound against a 50-digit oracle of the defining
integrals (tests/oracle.py).

Every bound and limit coefficient of the model is positive, so each array
kernel's last check is that its results are finite and positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .fim import BoundSet
from .geometry import CupEdges, InvalidConfig, SystemParams, chi_max, cup_edges, libm


@functools.lru_cache(maxsize=8)
def _leggauss(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_points)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class DegenerateGeometry(ValueError):
    """The viewing cone is too small for the bound expressions to survive."""


@dataclass(frozen=True)
class MomentSet:
    """Per-satellite expectations over the visibility cup.

    The two K-weighted entries exist only for the TDOA+RSS model and need the
    (eta, rho) split; they are None when params carries only the product.
    """

    m_k_sin2: float | None
    m_k_cos2: float | None
    m_l: float
    m_l_cos: float
    m_l_sin2: float

    @property
    def m_l_cos2(self) -> float:
        """E[L cos^2 phi_l 1], by sin^2 + cos^2 = 1 inside the expectation."""
        return self.m_l - self.m_l_sin2


@dataclass(frozen=True)
class LimitCoefficients:
    """h->0 intercepts (alpha, km^2) and h->inf curvatures (beta, unitless)."""

    alpha_xy: float
    alpha_z: float
    beta_xy: float
    beta_z: float


def cup_expectation(
    params: SystemParams, f: Callable[[np.ndarray], np.ndarray], n_points: int = 128
) -> float:
    """E[f(chi) 1[visible]] = (1/2) * integral of f over [chi_max, 1].

    Fixed-order Gauss-Legendre; the integrands in this module are smooth on
    the cup so no adaptivity is needed.
    """
    if n_points < 8:
        raise InvalidConfig(f"n_points must be >= 8, got {n_points}")
    a = chi_max(params)
    x, w = _leggauss(n_points)
    chi = 0.5 * (a + 1.0) + 0.5 * (1.0 - a) * x
    return 0.5 * 0.5 * (1.0 - a) * float(np.dot(w, f(chi)))


def quadrature_moments(params: SystemParams, n_points: int = 128) -> MomentSet:
    """Moment oracle: integrate the defining expressions directly."""
    r, big_r = params.r, params.big_r
    er = params.eta_rho

    def d2(chi: np.ndarray) -> np.ndarray:
        return big_r * big_r + r * r - 2.0 * r * big_r * chi

    # L = 2 eta rho / D^2; sin^2 phi_l = R^2 (1-chi^2)/D^2; cos phi_l = (R chi - r)/D
    m_l = cup_expectation(params, lambda chi: 2.0 * er / d2(chi), n_points)
    m_l_cos = cup_expectation(
        params, lambda chi: 2.0 * er * (big_r * chi - r) / d2(chi) ** 1.5, n_points
    )
    m_l_sin2 = cup_expectation(
        params,
        lambda chi: 2.0 * er * big_r**2 * (1.0 - chi**2) / d2(chi) ** 2,
        n_points,
    )
    m_k_sin2 = m_k_cos2 = None
    if params.has_split:
        eta, rho = params.eta, params.rho
        # K = (2 rho / D^4)(1 + eta D^2)
        m_k_sin2 = cup_expectation(
            params,
            lambda chi: 2.0
            * rho
            * (1.0 + eta * d2(chi))
            * big_r**2
            * (1.0 - chi**2)
            / d2(chi) ** 3,
            n_points,
        )
        m_k_cos2 = cup_expectation(
            params,
            lambda chi: 2.0
            * rho
            * (1.0 + eta * d2(chi))
            * (big_r * chi - r) ** 2
            / d2(chi) ** 3,
            n_points,
        )
    return MomentSet(
        m_k_sin2=m_k_sin2,
        m_k_cos2=m_k_cos2,
        m_l=m_l,
        m_l_cos=m_l_cos,
        m_l_sin2=m_l_sin2,
    )


def raise_first(checks: Sequence[tuple[np.ndarray, Callable]]) -> None:
    """Raise the error of the first failing point of a sweep. A check is a
    mask of failing points (length 1 stands for every point) and a function
    that returns, or itself raises, point j's error; at one point the checks
    fail in list order."""
    failing = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if failing:
        j, k = min(failing)
        raise checks[k][1](j)


def _at_point(kernel: Callable, params: SystemParams):
    """An array kernel on the one-point sweep of params: raise its error, or
    return its result with every field reduced to that point's float."""
    out, checks = kernel(params, np.array([params.h]), np.array([params.phi_l_max]))
    raise_first(checks)
    return type(out)(**{f.name: float(getattr(out, f.name)[0]) for f in fields(out)})


def _rss_brackets(e: CupEdges, eta: np.longdouble) -> tuple[np.ndarray, np.ndarray]:
    """The sin^2 and cos^2 brackets of the K moments, the TDOA+RSS xy
    denominator and (before its q^2 term) z denominator."""
    r, h, big_r, dm, lam = e.r, e.h, e.big_r, e.dm, e.lam
    rr = h * (2.0 * r + h)
    ss = big_r * big_r + r * r
    pos2 = 1.0 / (h * h) - 1.0 / (dm * dm)
    pos4 = 1.0 / h**4 - 1.0 / dm**4
    return (
        4.0 * (2.0 * eta * ss - 1.0) * lam
        - 2.0 * (eta * rr * rr - 2.0 * ss) * pos2
        - 4.0 * eta * r * e.hmzd
        - rr * rr * pos4
    ), (
        2.0 * rr * (eta * rr - 2.0) * pos2
        - 4.0 * (2.0 * eta * rr - 1.0) * lam
        + 4.0 * eta * r * e.hmzd
        + rr * rr * pos4
    )


def moment_integrals(params: SystemParams) -> MomentSet:
    """Closed-form values of the five cup expectations."""
    h, phi = np.array([params.h]), np.array([params.phi_l_max])
    e = cup_edges(params, h, phi, np.longdouble)
    r, big_r, dm, lam = e.r, e.big_r, e.dm, e.lam
    er = np.longdouble(params.eta_rho)
    s_max = e.s_max
    chi = 1.0 - s_max

    m_l = er * lam / (r * big_r)
    m_l_cos = er * e.q / (r * r * big_r)
    m_l_sin2 = 2.0 * er * (
        lam * (big_r**2 + r * r) / (4.0 * r**3 * big_r)
        - s_max * (dm * dm + r * big_r * (1.0 + chi)) / (4.0 * r * r * dm * dm)
    )
    m_k = [None, None]
    if params.has_split:
        rho = np.longdouble(params.rho)
        brackets = _rss_brackets(e, np.longdouble(params.eta))
        m_k = [float((rho * b / (16.0 * r**3 * big_r))[0]) for b in brackets]
    return MomentSet(
        m_k_sin2=m_k[0],
        m_k_cos2=m_k[1],
        m_l=float(m_l[0]),
        m_l_cos=float(m_l_cos[0]),
        m_l_sin2=float(m_l_sin2[0]),
    )


def _check_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise DegenerateGeometry(
            f"{name} denominator degenerated to {value}; viewing cone too small"
        )
    return value


def _all_positive(out, what: str) -> tuple[np.ndarray, Callable]:
    """The check that every field of a kernel's result is finite and
    positive, as every bound and limit coefficient of the model is; its
    error names the point's first field that is not."""
    names = [f.name for f in fields(out)]
    cells = [getattr(out, name) for name in names]
    bad = [~(np.isfinite(c) & (c > 0.0)) for c in cells]

    def error(j: int) -> DegenerateGeometry:
        name, value = next((n, float(c[j])) for n, c, b in zip(names, cells, bad) if b[j])
        return DegenerateGeometry(
            f"{what} {name} is {value!r}, not finite and positive; viewing cone too small"
        )

    return np.logical_or.reduce(bad), error


def _limit(lam, xy_num, xy_den, z_num, z_den) -> tuple[BoundSet, list]:
    """num/den per axis with float64 denominators, and the checks of each
    point: log(D_max/h) > 0, finite positive xy and z denominators, then
    finite positive bounds."""
    vanished = DegenerateGeometry("log(D_max/h) vanished; viewing cone too small")
    xy, z = xy_den.astype(float), z_den.astype(float)

    def positive(name: str, d: np.ndarray):
        return ~(np.isfinite(d) & (d > 0.0)), lambda j: _check_positive(name, float(d[j]))

    out = BoundSet(xy=xy_num / xy, z=z_num / z)
    return out, [
        (~(lam > 0.0), lambda j: vanished), positive("xy", xy), positive("z", z),
        _all_positive(out, "limit"),
    ]


@np.errstate(all="ignore")
def lcrb_tdoa_arrays(
    params: SystemParams, h: np.ndarray, phi: np.ndarray
) -> tuple[BoundSet, list]:
    """lcrb_tdoa elementwise over h and phi_l_max (1-d arrays broadcast
    together): the bounds, and the checks each point must pass."""
    e = cup_edges(params, h, phi, np.longdouble)
    r, h, big_r, lam = e.r, e.h, e.big_r, e.lam
    er = np.longdouble(params.eta_rho)
    xy_den = er * (
        lam * (big_r**2 + r * r) / (8.0 * big_r * r**3)
        - e.surd / (8.0 * big_r * r * r)
    )
    z_den = er * (
        e.surd / (2.0 * big_r * r * r)
        - h * (2.0 * r + h) * lam / (2.0 * r**3 * big_r)
        - e.q * e.q / (r**3 * big_r * lam)
    )
    return _limit(lam, 1.0, xy_den, 1.0, z_den)


def lcrb_tdoa(params: SystemParams) -> BoundSet:
    """Limit of N*CRB for the TDOA model (literal published expressions)."""
    return _at_point(lcrb_tdoa_arrays, params)


@np.errstate(all="ignore")
def _lcrb_tdoa_rss_arrays(
    params: SystemParams, h: np.ndarray, phi: np.ndarray
) -> tuple[BoundSet, list]:
    rho, eta = np.longdouble(params.rho), np.longdouble(params.eta)
    e = cup_edges(params, h, phi, np.longdouble)
    r, big_r, lam = e.r, e.big_r, e.lam
    xy_den, z_den = _rss_brackets(e, eta)
    return _limit(
        lam, (64.0 * big_r * r**3 / rho).astype(float), xy_den,
        (16.0 * big_r * r**3 / rho).astype(float), z_den - 16.0 * eta * e.q * e.q / lam,
    )


def lcrb_tdoa_rss(params: SystemParams) -> BoundSet:
    """Limit of N*CRB for the TDOA+RSS model (literal published expressions)."""
    return _at_point(_lcrb_tdoa_rss_arrays, params)


def lcrb_tdoa_from_moments(moments: MomentSet) -> BoundSet:
    """Assembly route: mean-information block inverses from the MomentSet."""
    xy = 4.0 / _check_positive("xy", moments.m_l_sin2)
    z_den = moments.m_l_cos2 * moments.m_l - moments.m_l_cos**2
    z = moments.m_l / _check_positive("z", z_den)
    return BoundSet(xy=xy, z=z)


def lcrb_tdoa_rss_from_moments(moments: MomentSet) -> BoundSet:
    """Assembly route for the TDOA+RSS model."""
    if moments.m_k_sin2 is None or moments.m_k_cos2 is None:
        raise InvalidConfig("MomentSet lacks the K moments; need the (eta, rho) split")
    xy = 4.0 / _check_positive("xy", moments.m_k_sin2)
    z_den = moments.m_k_cos2 * moments.m_l - moments.m_l_cos**2
    z = moments.m_l / _check_positive("z", z_den)
    return BoundSet(xy=xy, z=z)


def acrb(params: SystemParams) -> BoundSet:
    """Asymptotic TDOA CRB: LCRB divided by the constellation size."""
    return lcrb_tdoa(params).scaled(1.0 / params.n_sats)


@np.errstate(all="ignore")
def limit_coefficients_arrays(
    params: SystemParams, h: np.ndarray, phi: np.ndarray
) -> tuple[LimitCoefficients, list]:
    """limit_coefficients elementwise over phi_l_max (h is unused), and the
    checks that no divisor is zero, as it is where cos(phi_l_max) rounds to 1
    (below about 6e-7 degrees), then that every coefficient is finite and
    positive, as alpha_z is not at some angles below about 0.23 degrees.
    Powers and logs go through `libm`, so each element is the scalar float
    formula's."""
    r, zeta = params.r, np.cos(phi)
    sin2 = libm(pow, np.sin(phi), 2)
    sq = libm(pow, 1.0 - zeta, 2)
    log_zeta = libm(lambda z: math.log(z) if z > 0.0 else -math.inf, zeta)
    den = params.eta_rho * params.n_sats
    div = (
        den * (2.0 * log_zeta + sin2),
        den * (sin2 + 2.0 * sq / log_zeta),
        den * (zeta + 2.0) * sq,
        den * libm(pow, 1.0 - zeta, 3),
    )
    zero = (log_zeta == 0.0) | np.any([d == 0.0 for d in div], axis=0)
    out = LimitCoefficients(
        alpha_xy=-8.0 * r * r / div[0],
        alpha_z=2.0 * r * r / div[1],
        beta_xy=12.0 / div[2],
        beta_z=12.0 / div[3],
    )
    return out, [(zero, lambda j: DegenerateGeometry(
        f"limit coefficients divide by zero at cos(phi_l_max) = {float(zeta[j])!r}; "
        "viewing cone too small"
    )), _all_positive(out, "limit coefficient")]


def limit_coefficients(params: SystemParams) -> LimitCoefficients:
    """h->0 and h->infinity coefficients of the TDOA ACRB, N folded in."""
    return _at_point(limit_coefficients_arrays, params)


def two_term(co: LimitCoefficients, h):
    """The AACRB alpha + beta h^2 from the coefficients, elementwise over h."""
    h2 = h * h
    return BoundSet(xy=co.alpha_xy + co.beta_xy * h2, z=co.alpha_z + co.beta_z * h2)


def aacrb(params: SystemParams) -> BoundSet:
    """Two-coefficient approximation alpha + beta h^2 of the TDOA ACRB."""
    return two_term(limit_coefficients(params), params.h)
