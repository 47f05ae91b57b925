"""Fisher information matrices for constellation snapshots.

The unknown vector is gamma = (x, y, z, T0) in the LT's local frame (z toward
zenith). Each satellite contributes an outer-product summand built from its
direction vector. Two measurement models are supported:

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
from typing import Sequence

import numpy as np

from .geometry import InvalidConfig, SatelliteState, SystemParams

# Geometries whose 4x4 information matrix is worse-conditioned than this are
# treated as unidentifiable rather than inverted into garbage.
COND_LIMIT = 1.0e12


class SingularInformation(Exception):
    """The information matrix is too ill-conditioned to bound anything."""


@dataclass(frozen=True)
class FisherMatrix:
    """4x4 symmetric information matrix, ordering (x, y, z, T0)."""

    m: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.m, dtype=float)
        if a.shape != (4, 4):
            raise InvalidConfig(f"Fisher matrix must be 4x4, got {a.shape}")
        object.__setattr__(self, "m", a)


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


def _directions(
    phi_l: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sin_l = np.sin(phi_l)
    return sin_l * np.cos(theta), sin_l * np.sin(theta), np.cos(phi_l)


def fim_tdoa_arrays(
    phi_l: np.ndarray, theta: np.ndarray, d: np.ndarray, params: SystemParams
) -> np.ndarray:
    """Total TDOA information of the given (already visible) satellites."""
    vx, vy, vz = _directions(np.asarray(phi_l), np.asarray(theta))
    u = np.stack([vx, vy, vz, -np.ones_like(vx)], axis=1)
    ell = 2.0 * params.eta_rho / np.asarray(d) ** 2
    return (ell[:, None] * u).T @ u


def fim_tdoa_rss_arrays(
    phi_l: np.ndarray, theta: np.ndarray, d: np.ndarray, params: SystemParams
) -> np.ndarray:
    """Total TDOA+RSS information; needs the (eta, rho) split in params."""
    if not params.has_split:
        raise InvalidConfig(
            "the TDOA+RSS weights K_i need eta and rho separately; "
            "construct SystemParams with eta="
        )
    d = np.asarray(d, dtype=float)
    vx, vy, vz = _directions(np.asarray(phi_l), np.asarray(theta))
    u = np.stack([vx, vy, vz, -np.ones_like(vx)], axis=1)
    ell = 2.0 * params.eta_rho / d**2
    j = (ell[:, None] * u).T @ u
    # amplitude channel adds K_i - L_i = 2 rho / D^4 on the spatial block only
    extra = 2.0 * params.rho / d**4
    v = u[:, :3]
    j[:3, :3] += (extra[:, None] * v).T @ v
    return j


def _visible_arrays(
    sats: Sequence[SatelliteState],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    vis = [s for s in sats if s.visible]
    phi_l = np.array([s.phi_l for s in vis])
    theta = np.array([s.theta for s in vis])
    d = np.array([s.d for s in vis])
    return phi_l, theta, d


def fim_tdoa(sats: Sequence[SatelliteState], params: SystemParams) -> FisherMatrix:
    """Sum of L_i u_i u_i^T over the visible satellites (zero matrix if none)."""
    phi_l, theta, d = _visible_arrays(sats)
    if phi_l.size == 0:
        return FisherMatrix(np.zeros((4, 4)))
    return FisherMatrix(fim_tdoa_arrays(phi_l, theta, d, params))


def fim_tdoa_rss(sats: Sequence[SatelliteState], params: SystemParams) -> FisherMatrix:
    """TDOA+RSS information over the visible satellites (zero matrix if none)."""
    phi_l, theta, d = _visible_arrays(sats)
    if phi_l.size == 0:
        return FisherMatrix(np.zeros((4, 4)))
    return FisherMatrix(fim_tdoa_rss_arrays(phi_l, theta, d, params))


def check_invertible(m: np.ndarray) -> None:
    """Raise SingularInformation unless the square information matrix m is
    finite, has a positive determinant and a condition number below
    COND_LIMIT; every bound inversion passes this gate first."""
    if not np.all(np.isfinite(m)):
        raise SingularInformation("non-finite information matrix")
    det = np.linalg.det(m)
    if not det > 0.0:
        raise SingularInformation(f"non-positive determinant {det}")
    cond = np.linalg.cond(m)
    if not cond < COND_LIMIT:
        raise SingularInformation(f"condition number {cond:.3e} exceeds gate")


def crb_from_fim(j: FisherMatrix | np.ndarray) -> BoundSet:
    """Extract the position bounds from a 4x4 information matrix.

    xy is the sum of the first two diagonal entries of the inverse, z the
    third. Raises SingularInformation for unidentifiable geometries (fewer
    than four effective satellites, coplanar layouts, empty cups).
    """
    m = j.m if isinstance(j, FisherMatrix) else np.asarray(j, dtype=float)
    check_invertible(m)
    inv = np.linalg.solve(m, np.eye(4))
    return BoundSet(xy=float(inv[0, 0] + inv[1, 1]), z=float(inv[2, 2]))
