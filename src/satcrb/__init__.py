"""Cramér–Rao bounds for receiver localization via satellite constellations.

The library computes exact and large-constellation-limit localization bounds
for TDOA and combined TDOA+RSS measurement models, constellation coverage
probabilities and design inverses, Monte Carlo bound distributions over random
constellations, a planar closed-form cross-check, and a maximum-likelihood
estimator on simulated sampled signals that attains the bound.

Distances are kilometres, angles radians, time seconds, bandwidth hertz.
"""

from .closed_form import (
    DegenerateGeometry,
    LimitCoefficients,
    MomentSet,
    aacrb,
    acrb,
    lcrb_tdoa,
    lcrb_tdoa_from_moments,
    lcrb_tdoa_rss,
    lcrb_tdoa_rss_from_moments,
    limit_coefficients,
    moment_integrals,
    quadrature_moments,
)
from .coverage import (
    Unachievable,
    coverage_prob,
    min_angle_for_coverage,
    min_height_for_coverage,
    visibility_prob,
)
from .fim import (
    BoundSet,
    SingularInformation,
    crb_from_fim,
    tdoa_gram,
    tdoa_rss_gram,
)
from .geometry import (
    C_KM_S,
    InvalidConfig,
    SystemParams,
    chi_max,
    visible_sky,
)
from .montecarlo import (
    MODELS,
    ConvergenceRow,
    CrbDistribution,
    convergence_sweep,
    crb_distribution,
    mean_fim,
)
from .planar import (
    CollinearSensors,
    PlanarSensors,
    planar_crb_closed,
    planar_crb_fim,
)
from .signal_ml import (
    MODES,
    PULSES,
    InsufficientCoverage,
    LocationEstimate,
    MseRow,
    SampledPulse,
    SignalConfig,
    decoupling_check,
    effective_bandwidth_time,
    make_pulse,
    ml_localize,
    mse_experiment,
    rss_negligibility_threshold,
    sat_positions,
    signal_crb,
    signal_fim,
    simulate_measurements,
    zenith_ring_geometry,
)

__version__ = "1.0.0"

__all__ = [
    "C_KM_S",
    "MODELS",
    "MODES",
    "PULSES",
    "BoundSet",
    "CollinearSensors",
    "ConvergenceRow",
    "CrbDistribution",
    "DegenerateGeometry",
    "InsufficientCoverage",
    "InvalidConfig",
    "LimitCoefficients",
    "LocationEstimate",
    "MomentSet",
    "MseRow",
    "PlanarSensors",
    "SampledPulse",
    "SignalConfig",
    "SingularInformation",
    "SystemParams",
    "Unachievable",
    "aacrb",
    "acrb",
    "chi_max",
    "convergence_sweep",
    "coverage_prob",
    "crb_distribution",
    "crb_from_fim",
    "decoupling_check",
    "effective_bandwidth_time",
    "lcrb_tdoa",
    "lcrb_tdoa_from_moments",
    "lcrb_tdoa_rss",
    "lcrb_tdoa_rss_from_moments",
    "limit_coefficients",
    "make_pulse",
    "mean_fim",
    "min_angle_for_coverage",
    "min_height_for_coverage",
    "ml_localize",
    "moment_integrals",
    "mse_experiment",
    "planar_crb_closed",
    "planar_crb_fim",
    "quadrature_moments",
    "rss_negligibility_threshold",
    "sat_positions",
    "signal_crb",
    "signal_fim",
    "simulate_measurements",
    "tdoa_gram",
    "tdoa_rss_gram",
    "visible_sky",
    "visibility_prob",
    "zenith_ring_geometry",
    "__version__",
]
