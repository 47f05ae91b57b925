"""Constellation coverage: visibility and >=4-satellite availability.

A satellite is visible when it falls in the spherical cup phi_e <= phi_e_max,
which a uniform deployment hits with probability p = (1 - chi_max)/2. Solving
the 4-unknown localization problem needs at least four visible satellites, so
the coverage probability is the upper binomial tail P(Binomial(N, p) >= 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    InvalidConfig,
    SystemParams,
    d_max,
    h_minus_zeta_d_max,
    h_minus_zeta_d_max_arrays,
    libm,
)


# design rule: a sweep point below this coverage probability is flagged as not
# covered
COVERAGE_RULE = 0.9


class Unachievable(ValueError):
    """No parameter value in the search range reaches the coverage target."""


@dataclass(frozen=True)
class CoverageResult:
    p: float
    p_cov: float


def visibility_prob(params: SystemParams) -> float:
    """Probability one uniformly placed satellite lands in the coverage cup.

    Computed as (1 - chi_max)/2 through the cancellation-free
    (h - D_max*zeta)/(2R) route; the two published forms are algebraically
    identical and the tests confirm them against each other.
    """
    return 0.5 * h_minus_zeta_d_max(params) / params.big_r


def visibility_prob_dmax_form(params: SystemParams) -> float:
    """The (h - D_max cos(phi_l_max))/(2R) form, literal; cross-check path."""
    return 0.5 * (params.h - d_max(params) * params.zeta) / params.big_r


@np.errstate(all="ignore")
def coverage_prob_arrays(params: SystemParams, h: np.ndarray, phi: np.ndarray):
    """coverage_prob elementwise over h and phi_l_max (1-d arrays broadcast
    together): p in one array pass, then logs, exps and the compensated sums
    through the C library, so each element is the one-point float."""
    n = params.n_sats
    p = 0.5 * h_minus_zeta_d_max_arrays(params, h, phi) / (params.r + h)
    out = np.where(p >= 1.0, 1.0 if n >= 4 else 0.0, 0.0)
    inside = ~((p <= 0.0) | (p >= 1.0))
    log_p = libm(math.log, p[inside])
    log_1mp = libm(math.log1p, -p[inside])
    terms = [
        libm(math.exp, math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
             + m * log_p + (n - m) * log_1mp).tolist()
        for m in range(min(4, n + 1))
    ]
    tail = 1.0 - np.fromiter(map(math.fsum, zip(*terms)), float, log_p.size)
    out[inside] = np.clip(tail, 0.0, 1.0)
    return out


def coverage_prob(params: SystemParams) -> float:
    """P(at least 4 of N satellites visible).

    1 - sum_{m=0}^{3} C(N,m) p^m (1-p)^(N-m); the four terms are evaluated in
    log space and combined with compensated summation, so N up to 1e4 with
    tiny p neither underflows nor loses the tail.
    """
    h, phi = np.array([params.h]), np.array([params.phi_l_max])
    return float(coverage_prob_arrays(params, h, phi)[0])


def coverage_result(params: SystemParams) -> CoverageResult:
    return CoverageResult(p=visibility_prob(params), p_cov=coverage_prob(params))


def _lowest_covering(
    params: SystemParams, field: str, hi: float, target: float, tol: float,
    unreachable: str,
) -> float:
    """Bisection on (0, hi] for the smallest value of `field` whose coverage
    probability reaches the target; coverage must be monotone increasing in
    the field and vanish as it goes to 0."""
    if not (0.0 < target < 1.0):
        raise InvalidConfig(f"target must be in (0,1), got {target}")
    # the loop stops once the bracket is narrower than tol, which a tol <= 0
    # never allows
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidConfig(f"tol must be finite and positive, got {tol}")

    def covered(value: float) -> bool:
        return coverage_prob(replace(params, **{field: value})) >= target

    if not covered(hi):
        raise Unachievable(unreachable)
    lo = 0.0  # exclusive
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if covered(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_angle_for_coverage(
    params: SystemParams, target: float, tol: float = 1e-4
) -> float:
    """Smallest phi_l_max whose coverage probability reaches the target.

    Bisection on (0, pi/2]; coverage is monotone increasing in the angle and
    goes to 0 as the cone closes.
    """
    return _lowest_covering(
        params, "phi_l_max", math.pi / 2.0, target, tol,
        f"coverage {target} unreachable even at phi_l_max=90 deg",
    )


def min_height_for_coverage(
    params: SystemParams, target: float, tol: float = 1.0, h_max: float = 1.0e5
) -> float:
    """Smallest altitude whose coverage probability reaches the target.

    Bisection on (0, h_max] km; coverage is monotone increasing in h at fixed
    viewing angle (a higher shell widens the cup, which vanishes as h -> 0).
    """
    return _lowest_covering(
        params, "h", h_max, target, tol,
        f"coverage {target} unreachable below h={h_max} km",
    )
