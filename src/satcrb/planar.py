"""Independent 2D TDOA bound oracle.

A source on the plane is localized by M sensors at angles phi_i and distances
D_i, with pathloss weights A_i = D_i**(-gamma) and clock offset unknown. Two
routes to the same bound exist: a fully closed form built from the pairwise
factors beta_ij = 1 - cos(phi_i - phi_j), and a 3x3 Fisher-matrix inversion
over (x, y, c*T0). Their agreement on random instances validates the FIM and
inversion machinery used by the satellite modules against hand-checkable
answers.

Both routes are evaluated so that their agreement does not depend on the
conditioning of the instance: beta_ij is computed as 2 sin^2((phi_i -
phi_j) / 2), which keeps full relative precision for near-coincident bearings
where 1 - cos cancels, and the FIM route sums and inverts the information
matrix in exact rational arithmetic from the float64 direction vectors and
weights. Near-coincident bearings give matrices with cond ~ 1e10, still
inside the conditioning gate, where rounding the matrix entries alone would
move the bound by ~1e-6 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fim import inverse, weighted_gram
from .geometry import InvalidConfig


class CollinearSensors(ValueError):
    """TDOA on the plane needs at least three non-collinear sensors."""


@dataclass(frozen=True)
class PlanarSensors:
    """Sensor geometry and signal constants for the planar TDOA bound.

    angles: sensor bearings phi_i from the source, radians
    distances: source-sensor distances D_i, km
    gamma: pathloss exponent; the weight of sensor i is A_i = D_i**(-gamma)
    w_e: effective bandwidth, Hz
    rho: SNR scale; the information weight of sensor i is eta_planar * A_i
         with eta_planar = 4 * w_e * rho / c**2
    c: propagation speed, km/s
    """

    angles: tuple[float, ...]
    distances: tuple[float, ...]
    gamma: float
    w_e: float
    rho: float
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(
            self, "distances", tuple(float(d) for d in self.distances)
        )
        if len(self.angles) != len(self.distances):
            raise InvalidConfig(
                f"angles ({len(self.angles)}) and distances "
                f"({len(self.distances)}) must have equal length"
            )
        if len(self.angles) < 2:
            raise InvalidConfig("need at least two sensors")
        if not all(math.isfinite(a) for a in self.angles):
            raise InvalidConfig("angles must be finite")
        if not all(0.0 < d < math.inf for d in self.distances):
            raise InvalidConfig("distances must be finite and positive")
        if not math.isfinite(self.gamma):
            raise InvalidConfig(f"gamma must be finite, got {self.gamma}")
        for name in ("w_e", "rho", "c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and positive")

    @property
    def weights(self) -> np.ndarray:
        """A_i = D_i**(-gamma)."""
        return np.asarray(self.distances) ** (-self.gamma)

    @property
    def eta_planar(self) -> float:
        """4 W_e rho / c^2, the per-unit-weight information scale."""
        return 4.0 * self.w_e * self.rho / (self.c * self.c)


def _betas(sensors: PlanarSensors) -> np.ndarray:
    phi = np.asarray(sensors.angles)
    return 2.0 * np.sin(0.5 * (phi[:, None] - phi[None, :])) ** 2


def planar_crb_closed(sensors: PlanarSensors) -> float:
    """Closed-form planar TDOA bound, km^2.

    3 c^2 sum_ij A_i A_j beta_ij / (4 W_e rho sum_ijk A_i A_j A_k
    beta_ij beta_jk beta_ki), with beta_ij = 1 - cos(phi_i - phi_j)
    = 2 sin^2((phi_i - phi_j) / 2).
    """
    if len(sensors.angles) < 3:
        raise CollinearSensors("TDOA needs at least three sensors")
    a = sensors.weights
    beta = _betas(sensors)
    pair = float(a @ beta @ a)
    ab = beta * a  # ab[i, j] = A_j beta_ij
    triple = float(np.einsum("ij,jk,ki->", ab, ab, ab))
    if not triple > 0.0:
        raise CollinearSensors(
            "sensors are collinear with the source; the bound diverges"
        )
    return 3.0 * sensors.c**2 * pair / (4.0 * sensors.w_e * sensors.rho * triple)


def _exact_xy_trace(u: np.ndarray, w: np.ndarray) -> float:
    """(J^-1)_00 + (J^-1)_11 of J = sum_i w_i u_i u_i^T, (M, 3) rows u_i.

    J and its cofactors are formed in rational arithmetic from the float64
    inputs, so the only rounding is the final conversion to float.
    """
    uq = [[Fraction(float(x)) for x in row] for row in u]
    wq = [Fraction(float(x)) for x in w]
    a = [
        [sum(wi * ui[r] * ui[c] for wi, ui in zip(wq, uq)) for c in range(3)]
        for r in range(3)
    ]

    def minor(r0: int, r1: int, c0: int, c1: int) -> Fraction:
        return a[r0][c0] * a[r1][c1] - a[r0][c1] * a[r1][c0]

    det = (
        a[0][0] * minor(1, 2, 1, 2)
        - a[0][1] * minor(1, 2, 0, 2)
        + a[0][2] * minor(1, 2, 0, 1)
    )
    return float((minor(1, 2, 1, 2) + minor(0, 2, 0, 2)) / det)


def planar_crb_fim(sensors: PlanarSensors) -> float:
    """FIM route: build the 3x3 information over (x, y, c*T0) and invert."""
    if len(sensors.angles) < 3:
        raise CollinearSensors("TDOA needs at least three sensors")
    phi = np.asarray(sensors.angles)
    u = np.stack([np.cos(phi), np.sin(phi), -np.ones_like(phi)], axis=1)
    w = sensors.eta_planar * sensors.weights
    # the gate of every bound inversion; the bound itself is the exact trace
    inverse(weighted_gram(u, w))
    return _exact_xy_trace(u, w)
