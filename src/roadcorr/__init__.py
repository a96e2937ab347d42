"""Temporal correlation of interference in a one-dimensional vehicular network.

Vehicles form a stationary stream with a minimum spacing plus exponential
free headway; a receiver at the origin accumulates power-law pathloss with
independent per-slot exponential fading. The package computes the lag-t
Pearson correlation coefficient of that interference three ways: closed
forms, quadrature against the exact pair correlation, and Monte Carlo over
sampled vehicle positions, with the fading averaged out exactly.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, DomainError,
                     EstimationError, ParameterError)
from .model import (NetworkGeometry, TrafficModel,
                    mean_interference, normalized_pair_correlation,
                    pair_correlation, pathloss)
from .specfun import (DEFAULT_QUADRATURE, QuadratureSpec, hyp2f1,
                      integrate_finite, integrate_semi_infinite,
                      upper_incomplete_gamma)
from .analytic import (CovarianceBreakdown, close_pairs_expansion,
                       close_pairs_numeric, covariance, distant_pairs_exact,
                       rho, rho_ppp, same_vehicle_term, variance)
from .sim import (CorrelationEstimate, PairDistanceHistogram, default_window,
                  estimate, estimate_curve, pair_distance_histogram)

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "DomainError", "EstimationError",
    "ParameterError",
    "NetworkGeometry", "TrafficModel", "mean_interference",
    "normalized_pair_correlation", "pair_correlation", "pathloss",
    "DEFAULT_QUADRATURE", "QuadratureSpec", "hyp2f1", "integrate_finite",
    "integrate_semi_infinite", "upper_incomplete_gamma",
    "CovarianceBreakdown", "covariance",
    "close_pairs_expansion", "close_pairs_numeric", "distant_pairs_exact",
    "rho", "rho_ppp", "same_vehicle_term", "variance",
    "CorrelationEstimate", "PairDistanceHistogram", "default_window",
    "estimate", "estimate_curve", "pair_distance_histogram",
]
