"""Random-constellation experiments for the localization bounds.

Each trial deploys a fresh uniform constellation, builds the Fisher
information of the visible satellites, and records N*CRB. From the draw to
the Fisher matrix a constellation is one pair of arrays, the timing rows
u = (v, -1) and the distances d: visible_chunks fills them for chunks of
trials, visible_sky for mean_fim's one draw, and a model's builder takes
them as they come. A model names a row of one table, _MODELS: its Fisher
builder and its N -> infinity limit. Aggregates (medians, nearest-rank
percentiles, convergence tables, mean-information structure) feed both the
test oracles and the CLI.

crb_distribution's pipeline, a chunk of trials at a time
(geometry.visible_chunks): keys (the Philox key of every trial's (seed,
trial) stream, derived for all trials at once by geometry.stream_keys) ->
cup draw (one reused generator, reset to each trial's key by
geometry.streams, draws the trial's visible count K ~ Binomial(N, s_max/2)
and then 2K uniforms straight into the chunk's buffer, the first K giving
s = 1 - cos(phi_e) = s_max u and the next K the azimuths 2 pi u; only
visible satellites are ever drawn; a chunk takes trials while trials x
max K stays within 8192 slots) -> local frame (d, cos(phi_l) and
sin(phi_l) straight from s, and geometry.cos_sin_turns for the azimuths,
on slices of at most 4096 satellites) -> padded FIM stack (row t of the
chunk holds trial t's visible timing rows (v, -1) and distances d, padded
with v = 0 at d = inf, where a satellite weighs zero; one (chunk, 4, 4)
build; rows below four visible satellites are NaN and counted as
uncovered) -> one gate (fim.gated_inverse inverts the whole run's rows
that pass; the rest count as singular). The uniforms, rows and distances
live in buffers allocated once per call and reused by every chunk. Every
result is bit for bit the one-trial-at-a-time computation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .closed_form import lcrb_tdoa, lcrb_tdoa_rss
from .fim import gated_inverse, tdoa_gram, tdoa_rss_gram
from .geometry import (
    InvalidConfig,
    SystemParams,
    check_count,
    visible_chunks,
    visible_sky,
)

# each model's Fisher builder over timing rows (v, -1) and distances, and
# its N -> infinity limit of N*CRB
_MODELS = {
    "tdoa": (tdoa_gram, lcrb_tdoa),
    "tdoa_rss": (tdoa_rss_gram, lcrb_tdoa_rss),
}
MODELS = tuple(_MODELS)


def _model(model: str) -> tuple:
    """(FIM builder, limit) of a model; InvalidConfig for an unknown one."""
    if model not in _MODELS:
        raise InvalidConfig(f"model must be one of {MODELS}, got {model!r}")
    return _MODELS[model]


def nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not 0.0 < pct <= 100.0:
        raise InvalidConfig(f"percentile must be in (0, 100], got {pct}")
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    rank = int(np.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class CrbDistribution:
    """Empirical law of N*CRB over random constellations (singulars dropped).
    The uncovered trials, with fewer than four visible satellites, are
    among the singular ones."""

    model: str
    n_sats: int
    trials: int
    samples_xy: np.ndarray
    samples_z: np.ndarray
    singular_count: int
    uncovered_count: int

    @property
    def median_xy(self) -> float:
        return nearest_rank(self.samples_xy, 50.0)

    @property
    def median_z(self) -> float:
        return nearest_rank(self.samples_z, 50.0)

    def summary(self) -> dict[str, float]:
        """median/p10/p90 of both components, keyed as the convergence rows
        name them (median_xy, p10_xy, ..., p90_z)."""
        return {
            f"{stat}_{axis}": nearest_rank(samples, pct)
            for axis, samples in (("xy", self.samples_xy), ("z", self.samples_z))
            for stat, pct in (("median", 50.0), ("p10", 10.0), ("p90", 90.0))
        }


def crb_distribution(
    params: SystemParams, model: str, trials: int, seed: int
) -> CrbDistribution:
    """Sample the distribution of N*CRB over `trials` random constellations."""
    build, _ = _model(model)
    trials = check_count("trials", trials, 1)
    j = np.empty((trials, 4, 4))
    uncovered = 0
    for rows, counts, u, d in visible_chunks(params, seed, range(trials)):
        chunk = build(u, d, params)
        chunk[counts < 4] = np.nan
        j[rows] = chunk
        uncovered += int(np.sum(counts < 4))
    inv, ok = gated_inverse(j)
    n = float(params.n_sats)
    return CrbDistribution(
        model=model,
        n_sats=params.n_sats,
        trials=trials,
        samples_xy=np.sort(n * (inv[ok, 0, 0] + inv[ok, 1, 1])),
        samples_z=np.sort(n * inv[ok, 2, 2]),
        singular_count=trials - int(ok.sum()),
        uncovered_count=uncovered,
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
    _, lcrb = _model(model)
    if not n_list:
        raise InvalidConfig("n_list must be nonempty")
    limit = lcrb(params)
    rows = []
    for n in n_list:
        p = dataclasses.replace(params, n_sats=n)
        dist = crb_distribution(p, model, trials, seed)
        rows.append(
            ConvergenceRow(
                n_sats=p.n_sats,
                **dist.summary(),
                lcrb_xy=limit.xy,
                lcrb_z=limit.z,
                singular_count=dist.singular_count,
            )
        )
    return rows


def mean_fim(
    params: SystemParams, model: str, n_samples: int, seed: int
) -> np.ndarray:
    """Average single-satellite information over uniform positions.

    Invisible positions contribute zero (the visibility indicator stays inside
    the expectation), so the information of the visible ones, all that the
    cup draw of n_samples positions yields, is divided by n_samples.
    """
    build, _ = _model(model)
    n_samples = check_count("n_samples", n_samples, 10_000)
    p = dataclasses.replace(params, n_sats=n_samples)
    return build(*visible_sky(p, seed), p) / float(n_samples)
