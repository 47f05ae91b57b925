"""Laws the closed forms obey on the legal domain, checked on dense sweeps
with one array call per sweep and no reference values.

A wider viewing cone only adds positive semidefinite terms to the mean
Fisher information, so every LCRB (both models), alpha and beta is
non-increasing in phi_l_max, and the coverage probability is non-decreasing
in phi_l_max and in h. The abstract's claims follow: accuracy improves as
the satellites get closer, vertical accuracy is worse than horizontal and
more sensitive to the field of view, and the amplitude information of
TDOA+RSS can only lower the bound.

Where today's kernels break a law, the test is a strict xfail that names
the ROADMAP item whose fix must flip it.
"""

import functools

import numpy as np
import pytest

from satcrb.closed_form import (
    _lcrb_tdoa_rss_arrays,
    lcrb_tdoa_arrays,
    limit_coefficients_arrays,
)
from satcrb.coverage import coverage_prob_arrays
from satcrb.fim import BoundSet
from satcrb.geometry import SystemParams

HEIGHTS = (0.01, 500.0, 20000.0, 1.0e5)
# phi_l_max sweeps in degrees: [1, 90] in 20 000 linear steps, and the
# narrow cones [0.01, 1] in 20 000 geometric steps (a step of 2.3e-4
# relative; a 1e5-step grid also finds TDOA+RSS xy rising at h <= 500 km)
PHI_DEG = {
    "wide": np.linspace(1.0, 90.0, 20001),
    "narrow": np.geomspace(0.01, 1.0, 20001),
}
KERNELS = {"tdoa": lcrb_tdoa_arrays, "tdoa_rss": _lcrb_tdoa_rss_arrays}
ITEM_1 = (
    "ROADMAP item 1: the closed forms cancel as the cone narrows, so the "
    "printed value rises with phi_l_max or is not positive"
)
ITEM_17 = (
    "ROADMAP item 17 step 3: coverage is 1 - fsum(head terms), rounding "
    "noise of 2**-53 below about 1e-14"
)


def lcrb(model: str, h, phi, eta):
    """The model's LCRB over h and phi_l_max (radians) broadcast together,
    at a scalar eta."""
    return KERNELS[model](SystemParams(eta=eta), np.asarray(h), np.asarray(phi))[0]


@functools.lru_cache(maxsize=None)
def phi_sweep(model: str, h: float, grid: str):
    """The model's LCRB over one phi_l_max grid at altitude h, eta = 1e6/h^2."""
    return lcrb(model, [h], np.radians(PHI_DEG[grid]), 1.0e6 / h**2)


@functools.lru_cache(maxsize=None)
def coefficients(grid: str):
    phi = np.radians(PHI_DEG[grid])
    return limit_coefficients_arrays(SystemParams(), np.array([500.0]), phi)[0]


def assert_non_increasing(values: np.ndarray, phi_deg: np.ndarray) -> None:
    positive = np.isfinite(values) & (values > 0.0)
    assert positive.all(), (
        f"{(~positive).sum()} cells not finite and positive, "
        f"up to {phi_deg[~positive].max():.4g} deg"
    )
    rises = np.flatnonzero(np.diff(values) > 0.0)
    assert rises.size == 0, (
        f"rises at {rises.size} steps, the widest at {phi_deg[rises[-1] + 1]:.4g} deg"
    )


# (model, axis, h) cells that break the law on the narrow grid today
NARROW_RISES = {
    *(("tdoa", "z", h) for h in HEIGHTS),
    ("tdoa", "xy", 20000.0), ("tdoa", "xy", 1.0e5),
    ("tdoa_rss", "xy", 20000.0), ("tdoa_rss", "xy", 1.0e5),
    ("tdoa_rss", "z", 1.0e5),
}


def lcrb_cases(grid: str):
    failing = NARROW_RISES if grid == "narrow" else set()
    return [
        pytest.param(
            model, axis, h, id=f"{model}-{axis}-{h:g}km",
            marks=[pytest.mark.xfail(strict=True, reason=ITEM_1)]
            if (model, axis, h) in failing else [],
        )
        for model in KERNELS
        for axis in ("xy", "z")
        for h in HEIGHTS
    ]


@pytest.mark.parametrize("model, axis, h", lcrb_cases("wide"))
def test_lcrb_non_increasing_in_phi(model, axis, h):
    assert_non_increasing(getattr(phi_sweep(model, h, "wide"), axis), PHI_DEG["wide"])


@pytest.mark.parametrize("model, axis, h", lcrb_cases("narrow"))
def test_lcrb_non_increasing_in_phi_at_narrow_cones(model, axis, h):
    assert_non_increasing(getattr(phi_sweep(model, h, "narrow"), axis), PHI_DEG["narrow"])


COEFFICIENTS = ("alpha_xy", "alpha_z", "beta_xy", "beta_z")


@pytest.mark.parametrize("name", COEFFICIENTS)
def test_coefficients_non_increasing_in_phi(name):
    assert_non_increasing(getattr(coefficients("wide"), name), PHI_DEG["wide"])


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=ITEM_1))
        if name.startswith("alpha") else name
        for name in COEFFICIENTS
    ],
)
def test_coefficients_non_increasing_in_phi_at_narrow_cones(name):
    assert_non_increasing(getattr(coefficients("narrow"), name), PHI_DEG["narrow"])


# coverage sweeps: phi_l_max over [0.01, 90] deg (20 000 geometric steps) at
# each height, and h over [0.01, 1e5] km (4000 geometric steps) at each angle
COVERAGE_PHI_DEG = np.geomspace(0.01, 90.0, 20001)
COVERAGE_H = np.geomspace(0.01, 1.0e5, 4001)
COVERAGE_ANGLES = (5.0, 10.0, 30.0, 60.0, 80.0, 89.0, 90.0)
# below it coverage is rounding noise (ROADMAP item 17 step 3)
COVERAGE_FLOOR = 1.0e-13


@functools.lru_cache(maxsize=None)
def coverage_sweep(axis: str, at: float) -> np.ndarray:
    if axis == "phi_l_max":
        phi = np.radians(COVERAGE_PHI_DEG)
        return coverage_prob_arrays(SystemParams(h=at), np.array([at]), phi)
    phi = np.radians(at)
    return coverage_prob_arrays(SystemParams(phi_l_max=phi), COVERAGE_H, np.array([phi]))


COVERAGE_CASES = [("phi_l_max", h) for h in HEIGHTS] + [("h", phi) for phi in COVERAGE_ANGLES]


def falls(p: np.ndarray, floor: float) -> np.ndarray:
    """The steps at which coverage falls from a cell at or above floor."""
    return np.flatnonzero((np.diff(p) < 0.0) & (p[:-1] >= floor))


@pytest.mark.parametrize("axis, at", COVERAGE_CASES)
def test_coverage_non_decreasing_above_floor(axis, at):
    p = coverage_sweep(axis, at)
    assert ((p >= 0.0) & (p <= 1.0)).all()
    assert falls(p, COVERAGE_FLOOR).size == 0


# the sweeps that fall below the floor today: all but h = 0.01 km, where
# every cell is 0 or 2**-53
NOISY = set(COVERAGE_CASES) - {("phi_l_max", 0.01)}


@pytest.mark.parametrize(
    "axis, at",
    [
        pytest.param(axis, at, marks=pytest.mark.xfail(strict=True, reason=ITEM_17))
        if (axis, at) in NOISY else (axis, at)
        for axis, at in COVERAGE_CASES
    ],
)
def test_coverage_non_decreasing(axis, at):
    assert falls(coverage_sweep(axis, at), 0.0).size == 0


# the abstract's claims, for the TDOA LCRB over h in [0.01, 1e5] km (4000
# geometric steps) at each angle: one array call over the whole grid
CLAIM_H = np.geomspace(0.01, 1.0e5, 4001)
CLAIM_PHI_DEG = (5.0, 10.0, 30.0, 60.0, 80.0, 89.0, 90.0)


@functools.lru_cache(maxsize=None)
def claim_grid():
    phi = np.radians(np.repeat(CLAIM_PHI_DEG, CLAIM_H.size))
    bound = lcrb("tdoa", np.tile(CLAIM_H, len(CLAIM_PHI_DEG)), phi, None)
    shape = (len(CLAIM_PHI_DEG), CLAIM_H.size)
    return bound.xy.reshape(shape), bound.z.reshape(shape)


@pytest.mark.parametrize("axis", [0, 1], ids=["xy", "z"])
def test_accuracy_improves_as_satellites_get_closer(axis):
    bound = claim_grid()[axis]
    assert (np.diff(bound, axis=1) > 0.0).all()


def test_vertical_accuracy_is_lower():
    xy, z = claim_grid()
    ratio = z / xy
    assert ratio.min() > 2.0
    # as h -> infinity, z/xy -> beta_z/beta_xy = (2 + zeta)/(1 - zeta)
    zeta = np.cos(np.radians(CLAIM_PHI_DEG))
    assert np.abs(ratio[:, -1] / ((2.0 + zeta) / (1.0 - zeta)) - 1.0).max() < 1.0e-3


@pytest.mark.parametrize("h", [500.0, 20000.0])
def test_vertical_accuracy_is_more_sensitive_to_the_field_of_view(h):
    # phi_l_max over [1, 90] deg in 4000 linear steps
    bound = lcrb("tdoa", [h], np.radians(np.linspace(1.0, 90.0, 4001)), None)
    assert (np.abs(np.diff(np.log(bound.z))) > np.abs(np.diff(np.log(bound.xy)))).all()


# h in [0.01, 1e5] km (240 geometric points) x phi_l_max in [1, 90] deg (200
# linear points), at eta = 1e6/h^2 and at two fixed eta: 144 000 cells
RSS_H = np.geomspace(0.01, 1.0e5, 240)
RSS_PHI = np.radians(np.linspace(1.0, 90.0, 200))
RSS_MESH = np.repeat(RSS_H, RSS_PHI.size), np.tile(RSS_PHI, RSS_H.size)


@functools.lru_cache(maxsize=None)
def rss_grid_tdoa():
    """The TDOA LCRB over the RSS grid, which no eta moves."""
    return lcrb("tdoa", *RSS_MESH, None)


def rss_grid_tdoa_rss(eta):
    """The TDOA+RSS LCRB over the RSS grid; eta None is 1e6/h^2, which takes
    one call per altitude."""
    if eta is not None:
        return lcrb("tdoa_rss", *RSS_MESH, eta)
    rows = [lcrb("tdoa_rss", [h], RSS_PHI, 1.0e6 / h**2) for h in RSS_H]
    return BoundSet(*(np.concatenate([getattr(b, axis) for b in rows]) for axis in ("xy", "z")))


@pytest.mark.parametrize("eta", [None, 2.5e-3, 1.0e-12], ids=["1e6/h^2", "2.5e-3", "1e-12"])
def test_amplitude_information_never_raises_the_bound(eta):
    tdoa, tdoa_rss = rss_grid_tdoa(), rss_grid_tdoa_rss(eta)
    assert tdoa_rss.xy.size == RSS_H.size * RSS_PHI.size
    assert (tdoa_rss.xy <= tdoa.xy).all() and (tdoa_rss.z <= tdoa.z).all()
