"""The cross-oracle verification chain that `satcrb verify` prints.

Each check compares independent routes to the same quantities and returns
the values its gate reads. CHECKS holds one row per check, in the order
verify prints them: (name, label, gate, values). run_verification applies
each row's gate in turn: the check passes iff the largest of its values, a
NaN among them propagating, is below the gate, and it reports
``<label>=<largest value> gate=<gate>``. Adding a check is one function and
one row.

Checks 1 and 2 run on a fixed (h, phi_l_max) grid, each point with an
(eta, rho) split, and read one list of its closed-form moments, formed once
per run_verification call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .closed_form import (
    MomentSet,
    lcrb_tdoa,
    lcrb_tdoa_from_moments,
    lcrb_tdoa_rss,
    lcrb_tdoa_rss_from_moments,
    moment_integrals,
    quadrature_moments,
)
from .geometry import SystemParams
from .montecarlo import crb_distribution
from .planar import PlanarSensors, planar_crb_closed, planar_crb_fim
from .signal_ml import SignalConfig, decoupling_check, zenith_ring_geometry

_GRID_H = (500.0, 2000.0, 20000.0, 40000.0)
_GRID_PHI_DEG = (10.0, 35.0, 60.0, 90.0)
_MOMENT_FIELDS = ("m_l", "m_l_cos", "m_l_sin2", "m_k_sin2", "m_k_cos2")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Inputs:
    """What the checks read: the run's parameters, signal and seed, and the
    grid of checks 1 and 2 with the closed-form moments of each point."""

    params: SystemParams
    signal: SignalConfig
    seed: int
    grid: list[SystemParams]
    moments: list[MomentSet]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def moments_quadrature(run: Inputs) -> list[float]:
    """Closed-form moments against 128-node Gauss-Legendre quadrature."""
    values = []
    for p, closed in zip(run.grid, run.moments):
        quad = quadrature_moments(p)
        values += [_rel(getattr(closed, f), getattr(quad, f)) for f in _MOMENT_FIELDS]
    return values


def limit_routes(run: Inputs) -> list[float]:
    """Literal TDOA and TDOA+RSS limit formulas against their assembly from
    the closed-form moments."""
    values = []
    for p, moments in zip(run.grid, run.moments):
        for literal_fn, assembly_fn in (
            (lcrb_tdoa, lcrb_tdoa_from_moments),
            (lcrb_tdoa_rss, lcrb_tdoa_rss_from_moments),
        ):
            lit = literal_fn(p)
            asm = assembly_fn(moments)
            values += [_rel(lit.xy, asm.xy), _rel(lit.z, asm.z)]
    return values


def montecarlo_limit(run: Inputs) -> list[float]:
    """Monte Carlo N*CRB medians at N = 2000 (200 trials) against the limit."""
    dist = crb_distribution(
        dataclasses.replace(run.params, n_sats=2000), "tdoa", trials=200, seed=run.seed
    )
    limit = lcrb_tdoa(run.params)
    return [abs(dist.median_xy / limit.xy - 1.0), abs(dist.median_z / limit.z - 1.0)]


def planar_oracle(run: Inputs) -> list[float]:
    """The planar closed form against the exact xy trace of the inverse
    FIM (`planar_crb_fim`), on 30 random planar layouts of 3 to 7 sensors."""
    rng = np.random.default_rng(run.seed)
    values = []
    for _ in range(30):
        m = int(rng.integers(3, 8))
        sensors = PlanarSensors(
            angles=tuple(rng.uniform(0.0, 2.0 * math.pi, m)),
            distances=tuple(rng.uniform(1.0, 100.0, m)),
            gamma=float(rng.uniform(1.0, 3.0)),
            w_e=1.0e6,
            rho=100.0,
            c=run.params.c,
        )
        values.append(_rel(planar_crb_closed(sensors), planar_crb_fim(sensors)))
    return values


def decoupling(run: Inputs) -> list[float]:
    """Amplitude/(position, clock) coupling of the symmetric pulse on the
    zenith-plus-ring geometry."""
    return [decoupling_check(zenith_ring_geometry(run.params), run.signal)]


class Check(NamedTuple):
    name: str
    label: str
    gate: float
    values: Callable[[Inputs], Sequence[float]]


CHECKS = (
    Check("moments-quadrature", "max_rel", 1e-8, moments_quadrature),
    Check("limit-routes", "max_rel", 1e-9, limit_routes),
    Check("montecarlo-limit", "max_median_dev", 5e-2, montecarlo_limit),
    Check("planar-oracle", "max_rel", 1e-10, planar_oracle),
    Check("decoupling", "max_coupling", 1e-3, decoupling),
)


def run_verification(
    params: SystemParams, signal: SignalConfig, seed: int
) -> list[CheckResult]:
    """The result of each row of CHECKS, in order."""
    grid = [
        dataclasses.replace(params, h=h, phi_l_max=math.radians(phi), eta=1.0e6 / h**2)
        for h in _GRID_H
        for phi in _GRID_PHI_DEG
    ]
    run = Inputs(params, signal, seed, grid, [moment_integrals(p) for p in grid])
    results = []
    for check in CHECKS:
        v = float(np.max(check.values(run)))
        detail = f"{check.label}={v:.3e} gate={check.gate:.0e}"
        results.append(CheckResult(check.name, v < check.gate, detail))
    return results
