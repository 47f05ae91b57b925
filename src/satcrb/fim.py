"""Fisher information matrices for constellation snapshots.

The unknown vector is gamma = (x, y, z, T0) in the LT's local frame (z toward
zenith). Each satellite contributes an outer-product summand w_i u_i u_i^T
over its timing row u_i = (v_i, -1), v_i its unit line of sight;
`weighted_gram` is the one place that sum is formed, for the bounds here,
the signal model's information, the ML estimator's scoring matrix and the
planar oracle's gate. A constellation is its (M, 4) timing rows u and (M,)
distances d, as geometry.visible_sky gives them for one draw and
geometry.visible_chunks for padded chunks of draws; `timing_rows` forms u
from lines of sight given any other way (the signal model forms them as
positions / d). `tdoa_gram` and `tdoa_rss_gram` return plain (4, 4)
arrays, or a stack of them for padded rows. One gate (`gated_inverse`)
admits a matrix to inversion: positive definite with lambda_max / lambda_min
< COND_LIMIT, from one eigvalsh pass, which reads one triangle; every matrix
the program builds is a Gram matrix, symmetric up to rounding.
Two measurement models are supported:

* TDOA+RSS: the received amplitude carries ranging information too, giving the
  spatial weight K_i = (2 rho / D_i^4)(1 + eta D_i^2) and timing weight
  L_i = 2 rho eta / D_i^2.
* TDOA only (amplitudes treated as known nuisance at their true values): every
  weight collapses to L_i.

The T0 coordinate follows the timing parameterization whose direction entry is
-1, i.e. the fourth coordinate is c*T0 in km; the (x, y, z) bounds do not
depend on that nuisance scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import InvalidConfig, SystemParams

# a matrix whose lambda_max / lambda_min reaches this is unidentifiable
COND_LIMIT = 1.0e12


class SingularInformation(Exception):
    """The information matrix is not positive definite or too ill-conditioned."""


@dataclass(frozen=True)
class BoundSet:
    """Bound components in km^2; xyz is always the sum of the other two."""

    xy: float
    z: float

    @property
    def xyz(self) -> float:
        return self.xy + self.z

    def scaled(self, factor: float) -> "BoundSet":
        return BoundSet(xy=self.xy * factor, z=self.z * factor)


def weighted_gram(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i u_i u_i^T over the rows u_i of the (M, k) array u; a stack
    (..., M, k) with weights (..., M) gives one (k, k) matrix per entry.
    The products w_i u_i are formed a column at a time: on a long stack
    that takes half the time of one multiply broadcast over rows of k."""
    wu = np.empty(u.shape)
    for col in range(u.shape[-1]):
        np.multiply(w, u[..., col], out=wu[..., col])
    return np.swapaxes(wu, -1, -2) @ u


def timing_rows(v: np.ndarray) -> np.ndarray:
    """Rows u_i = (v_i, -1) over (x, y, z, c*T0) from the (..., M, 3) unit
    lines of sight v_i toward the satellites."""
    return np.concatenate([v, -np.ones(v.shape[:-1] + (1,))], axis=-1)


def tdoa_gram(u: np.ndarray, d: np.ndarray, params: SystemParams) -> np.ndarray:
    """Sum of L_i u_i u_i^T over the (..., M, 4) timing rows u at the
    (..., M) distances d, one 4x4 matrix per row; a slot with d = inf
    weighs zero."""
    return weighted_gram(u, 2.0 * params.eta_rho / d**2)


def tdoa_rss_gram(u: np.ndarray, d: np.ndarray, params: SystemParams) -> np.ndarray:
    """tdoa_gram plus the amplitude channel; needs the (eta, rho) split."""
    j = tdoa_gram(u, d, params)
    # amplitude channel adds K_i - L_i = 2 rho / D^4 on the spatial block
    # only; D^4 as (D^2)^2, whose bits, unlike numpy's power, do not depend
    # on its SIMD dispatch
    d2 = d * d
    j[..., :3, :3] += weighted_gram(u[..., :3], 2.0 * params.rho / (d2 * d2))
    return j


def _gate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (T, k, k) stack's ascending eigenvalues, NaN if not finite, and gate mask."""
    lam = np.full(m.shape[:-1], np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    lam[finite] = np.linalg.eigvalsh(m[finite])
    # lam_max / COND_LIMIT, unlike COND_LIMIT * lam_min, cannot overflow
    return lam, (lam[:, 0] > 0.0) & (lam[:, -1] / COND_LIMIT < lam[:, 0])


def gated_inverse(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (T, k, k) stack and the mask of the matrices that pass
    the gate: finite, positive definite and lambda_max / lambda_min <
    COND_LIMIT, from one eigvalsh pass over the stack (one triangle of each
    Gram matrix). A failing matrix's inverse is NaN. LAPACK handles each
    matrix on its own, so every result is bit for bit that of the matrix alone."""
    m = np.asarray(j, dtype=float)
    _, ok = _gate(m)
    inv = np.full_like(m, np.nan)
    good = m[ok]
    # a stack of identities: numpy < 2 reads a 2-d right-hand side as vectors
    inv[ok] = np.linalg.solve(good, np.broadcast_to(np.eye(m.shape[-1]), good.shape))
    return inv, ok


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix positive definite with lambda_max / lambda_min
    < COND_LIMIT, gated_inverse's gate; else SingularInformation naming why."""
    m = np.asarray(m, dtype=float)
    lam, ok = _gate(m[None])
    if ok[0]:
        return np.linalg.solve(m, np.eye(len(m)))
    if not np.all(np.isfinite(m)):
        raise SingularInformation("non-finite information matrix")
    low, high = float(lam[0, 0]), float(lam[0, -1])
    if not low > 0.0:
        raise SingularInformation(f"lambda_min {low:.3e}, determinant {np.linalg.det(m):.3e}")
    raise SingularInformation(f"condition number {high / low:.3e} exceeds gate")


def crb_from_fim(j: np.ndarray) -> BoundSet:
    """Extract the position bounds from a 4x4 information matrix over
    (x, y, z, c*T0).

    xy is the sum of the first two diagonal entries of the inverse, z the
    third. Raises InvalidConfig for any other shape, and SingularInformation
    for unidentifiable geometries (fewer than four effective satellites,
    coplanar layouts, empty cups).
    """
    if np.shape(j) != (4, 4):
        raise InvalidConfig(f"Fisher matrix must be 4x4, got {np.shape(j)}")
    inv = inverse(j)
    return BoundSet(xy=float(inv[0, 0] + inv[1, 1]), z=float(inv[2, 2]))
