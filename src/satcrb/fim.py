"""Fisher information matrices for constellation snapshots.

The unknown vector is gamma = (x, y, z, T0) in the LT's local frame (z toward
zenith). Each satellite contributes an outer-product summand w_i u_i u_i^T
built from its direction vector; `weighted_gram` is the one place that sum is
formed, for the bounds here, the signal model's information, the ML
estimator's scoring matrix and the planar oracle's gate. The builders take
the visible satellites' (M, 3) unit lines of sight v and (M,) distances d,
as geometry.visible_sky gives them (the signal model forms the same lines of
sight as positions / d), and return plain (4, 4) arrays, or a stack of them
for padded rows. Two measurement models are supported:

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

# Geometries whose 4x4 information matrix is worse-conditioned than this are
# treated as unidentifiable rather than inverted into garbage.
COND_LIMIT = 1.0e12


class SingularInformation(Exception):
    """The information matrix is too ill-conditioned to bound anything."""


@dataclass(frozen=True)
class BoundSet:
    """Bound components in km^2; xyz is always the sum of the other two."""

    xy: float
    z: float
    xyz: float = float("nan")

    def __post_init__(self) -> None:
        if np.isnan(self.xyz):
            object.__setattr__(self, "xyz", self.xy + self.z)

    def scaled(self, factor: float) -> "BoundSet":
        return BoundSet(xy=self.xy * factor, z=self.z * factor)


def weighted_gram(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i u_i u_i^T over the rows u_i of the (M, k) array u; a stack
    (..., M, k) with weights (..., M) gives one (k, k) matrix per entry."""
    return np.swapaxes(w[..., None] * u, -1, -2) @ u


def timing_rows(v: np.ndarray) -> np.ndarray:
    """Rows u_i = (v_i, -1) over (x, y, z, c*T0) from the (..., M, 3) unit
    lines of sight v_i toward the satellites."""
    return np.concatenate([v, -np.ones(v.shape[:-1] + (1,))], axis=-1)


def _tdoa_gram(
    v: np.ndarray, d: np.ndarray, params: SystemParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of L_i u_i u_i^T, with the direction rows u_i and the distances."""
    u = timing_rows(np.asarray(v, dtype=float))
    d = np.asarray(d, dtype=float)
    return weighted_gram(u, 2.0 * params.eta_rho / d**2), u, d


def fim_tdoa_arrays(v: np.ndarray, d: np.ndarray, params: SystemParams) -> np.ndarray:
    """Total TDOA information of the given (already visible) satellites.

    Like fim_tdoa_rss_arrays, it takes (M, 3) lines of sight with (M,)
    distances, or a stack of (..., M, 3) and (..., M) rows, one 4x4 matrix
    per row; a slot with d = inf weighs zero, so rows of unequal length are
    padded with it (and v = 0)."""
    return _tdoa_gram(v, d, params)[0]


def fim_tdoa_rss_arrays(
    v: np.ndarray, d: np.ndarray, params: SystemParams
) -> np.ndarray:
    """Total TDOA+RSS information; needs the (eta, rho) split in params."""
    j, u, d = _tdoa_gram(v, d, params)
    # amplitude channel adds K_i - L_i = 2 rho / D^4 on the spatial block only
    j[..., :3, :3] += weighted_gram(u[..., :3], 2.0 * params.rho / d**4)
    return j


def gated_inverse(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (T, k, k) stack and the mask of the matrices that pass
    the invertibility gate: finite, det > 0 and cond < COND_LIMIT, each test
    run only where the one before passed. A failing matrix's inverse is NaN.
    LAPACK handles each matrix of a stack on its own, so every result is
    bit-identical to gating and inverting that matrix alone."""
    m = np.asarray(j, dtype=float)
    det = np.full(m.shape[0], np.nan)
    cond = np.full(m.shape[0], np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    det[finite] = np.linalg.det(m[finite])
    cond[det > 0.0] = np.linalg.cond(m[det > 0.0])
    ok = cond < COND_LIMIT
    inv = np.full_like(m, np.nan)
    good = m[ok]
    # a stack of identities: numpy < 2 reads a 2-d right-hand side as vectors
    inv[ok] = np.linalg.solve(good, np.broadcast_to(np.eye(m.shape[-1]), good.shape))
    return inv, ok


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of one square information matrix that passes the gate of
    gated_inverse; otherwise SingularInformation naming the failed test."""
    m = np.asarray(m, dtype=float)
    inv, ok = gated_inverse(m[None])
    if ok[0]:
        return inv[0]
    if not np.all(np.isfinite(m)):
        raise SingularInformation("non-finite information matrix")
    det = np.linalg.det(m)
    if not det > 0.0:
        raise SingularInformation(f"non-positive determinant {det}")
    raise SingularInformation(f"condition number {np.linalg.cond(m):.3e} exceeds gate")


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
