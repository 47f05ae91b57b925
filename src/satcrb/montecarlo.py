"""Random-constellation experiments for the localization bounds.

Each trial deploys a fresh uniform constellation, builds the Fisher
information of the visible satellites, and records N*CRB. Aggregates
(medians, nearest-rank percentiles, convergence tables, parameter sweeps,
mean-information structure) feed both the test oracles and the CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .closed_form import acrb, lcrb_tdoa, lcrb_tdoa_rss
from .coverage import coverage_prob
from .fim import (
    BoundSet,
    SingularInformation,
    crb_from_fim,
    fim_tdoa_arrays,
    fim_tdoa_rss_arrays,
)
from .geometry import InvalidConfig, SystemParams, e_to_l_arrays, sample_constellation

MODELS = ("tdoa", "tdoa_rss")

COVERAGE_RULE = 0.9  # sweep points below this coverage probability get flagged


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise InvalidConfig(f"model must be one of {MODELS}, got {model!r}")
    return model


def _lcrb(params: SystemParams, model: str) -> BoundSet:
    return lcrb_tdoa_rss(params) if model == "tdoa_rss" else lcrb_tdoa(params)


def nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    if not 0.0 < pct <= 100.0:
        raise InvalidConfig(f"percentile must be in (0, 100], got {pct}")
    rank = int(np.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class CrbDistribution:
    """Empirical law of N*CRB over random constellations (singulars dropped)."""

    model: str
    n_sats: int
    trials: int
    samples_xy: np.ndarray
    samples_z: np.ndarray
    singular_count: int

    @property
    def all_singular(self) -> bool:
        """Warning flag: every draw was unidentifiable, no samples recorded."""
        return self.singular_count == self.trials

    def percentile_xy(self, pct: float) -> float:
        return nearest_rank(self.samples_xy, pct)

    def percentile_z(self, pct: float) -> float:
        return nearest_rank(self.samples_z, pct)

    @property
    def median_xy(self) -> float:
        return self.percentile_xy(50.0)

    @property
    def median_z(self) -> float:
        return self.percentile_z(50.0)


def _trial_bounds(
    params: SystemParams, model: str, seed: int, trial: int
) -> BoundSet | None:
    c = sample_constellation(params, seed, trial=trial)
    phi_l, d, visible = e_to_l_arrays(c.phi_e, params)
    phi_l, theta, d = phi_l[visible], c.theta[visible], d[visible]
    if phi_l.size < 4:
        return None
    build = fim_tdoa_rss_arrays if model == "tdoa_rss" else fim_tdoa_arrays
    try:
        return crb_from_fim(build(phi_l, theta, d, params))
    except SingularInformation:
        return None


def crb_distribution(
    params: SystemParams, model: str, trials: int, seed: int
) -> CrbDistribution:
    """Sample the distribution of N*CRB over `trials` random constellations."""
    _check_model(model)
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    results = [_trial_bounds(params, model, seed, t) for t in range(trials)]
    kept = [b for b in results if b is not None]
    n = float(params.n_sats)
    xs = np.sort(np.array([n * b.xy for b in kept]))
    zs = np.sort(np.array([n * b.z for b in kept]))
    return CrbDistribution(
        model=model,
        n_sats=params.n_sats,
        trials=trials,
        samples_xy=xs,
        samples_z=zs,
        singular_count=trials - len(kept),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One constellation size of a convergence table (all values N*CRB)."""

    n_sats: int
    median_xy: float
    p10_xy: float
    p90_xy: float
    median_z: float
    p10_z: float
    p90_z: float
    lcrb_xy: float
    lcrb_z: float
    singular_count: int


def convergence_sweep(
    params: SystemParams, model: str, n_list: list[int], trials: int, seed: int
) -> list[ConvergenceRow]:
    """Distribution summaries of N*CRB against the N->infinity limit."""
    _check_model(model)
    if not n_list:
        raise InvalidConfig("n_list must be nonempty")
    limit = _lcrb(params, model)
    rows = []
    for n in n_list:
        p = dataclasses.replace(params, n_sats=int(n))
        dist = crb_distribution(p, model, trials, seed)
        rows.append(
            ConvergenceRow(
                n_sats=int(n),
                median_xy=dist.median_xy,
                p10_xy=dist.percentile_xy(10.0),
                p90_xy=dist.percentile_xy(90.0),
                median_z=dist.median_z,
                p10_z=dist.percentile_z(10.0),
                p90_z=dist.percentile_z(90.0),
                lcrb_xy=limit.xy,
                lcrb_z=limit.z,
                singular_count=dist.singular_count,
            )
        )
    return rows


@dataclass(frozen=True)
class ParameterRow:
    """One grid point of a parameter sweep (CRB scale, not N*CRB)."""

    axis_value: float
    coverage: float
    covered: bool
    median_xy: float
    p10_xy: float
    p90_xy: float
    median_z: float
    p10_z: float
    p90_z: float
    acrb_xy: float
    acrb_z: float
    singular_count: int


def parameter_sweep(
    params: SystemParams,
    model: str,
    axis: str,
    grid: list[float],
    n: int,
    trials: int,
    seed: int,
) -> list[ParameterRow]:
    """CRB statistics along one system axis, with a 90%-coverage marker.

    Grid points whose coverage probability falls below 90% are still emitted
    but flagged covered=False so plots can drop them.
    """
    _check_model(model)
    if axis not in ("phi_l_max", "h"):
        raise InvalidConfig(f"axis must be 'phi_l_max' or 'h', got {axis!r}")
    rows = []
    for value in grid:
        p = dataclasses.replace(params, **{axis: float(value)}, n_sats=int(n))
        cov = coverage_prob(p)
        dist = crb_distribution(p, model, trials, seed)
        scale = 1.0 / p.n_sats
        bounds = acrb(p, rss=(model == "tdoa_rss"))
        rows.append(
            ParameterRow(
                axis_value=float(value),
                coverage=cov,
                covered=cov >= COVERAGE_RULE,
                median_xy=dist.median_xy * scale,
                p10_xy=dist.percentile_xy(10.0) * scale,
                p90_xy=dist.percentile_xy(90.0) * scale,
                median_z=dist.median_z * scale,
                p10_z=dist.percentile_z(10.0) * scale,
                p90_z=dist.percentile_z(90.0) * scale,
                acrb_xy=bounds.xy,
                acrb_z=bounds.z,
                singular_count=dist.singular_count,
            )
        )
    return rows


def mean_fim(
    params: SystemParams, model: str, n_samples: int, seed: int
) -> np.ndarray:
    """Average single-satellite information over uniform positions.

    Invisible positions contribute zero (the visibility indicator stays inside
    the expectation), so the average is over all n_samples draws.
    """
    _check_model(model)
    if n_samples < 10_000:
        raise InvalidConfig(f"n_samples must be >= 10000, got {n_samples}")
    p = dataclasses.replace(params, n_sats=int(n_samples))
    c = sample_constellation(p, seed)
    phi_l, d, visible = e_to_l_arrays(c.phi_e, p)
    phi_l, theta, d = phi_l[visible], c.theta[visible], d[visible]
    build = fim_tdoa_rss_arrays if model == "tdoa_rss" else fim_tdoa_arrays
    return build(phi_l, theta, d, p) / float(n_samples)
