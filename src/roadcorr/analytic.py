"""Closed forms and quadrature for the temporal interference correlation.

The received interference at two instants separated by a lag t decomposes,
through the second-order structure of the vehicle stream, into

  covariance(t) = same_vehicle(t) + distant_pairs(t) + close_pairs(t) - mean**2,

where same_vehicle collects the contribution of one vehicle observed twice,
close_pairs the nearest-neighbor separations below two minimum gaps (where
the hardcore structure matters), and distant_pairs everything farther out
(where the stream is well approximated by its squared intensity). Three
evaluation routes are provided per term: exact quadrature against the full
pair correlation, closed forms with the squared-intensity far field
("pcf-approx"), and the small-occupancy expansion ("expansion").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .model import (NetworkGeometry, TimeLagWindow, TrafficModel, _deviation_reach,
                    _pair_correlation_array, mean_interference)
from .specfun import (DEFAULT_QUADRATURE, QuadratureSpec, _GK_WK, _GK_X,
                      hyp2f1, integrate_finite, integrate_semi_infinite)

__all__ = [
    "CovarianceBreakdown",
    "AnalyticCurve",
    "same_vehicle_term",
    "distant_pairs_exact",
    "close_pairs_numeric",
    "close_pairs_expansion",
    "covariance",
    "variance",
    "rho_ppp",
    "rho",
    "curve",
]

COVARIANCE_METHODS = ("exact-quadrature", "pcf-approx", "expansion")
RHO_METHODS = ("ppp", "expansion", "pcf-approx")


@dataclass(frozen=True)
class CovarianceBreakdown:
    """Interference covariance at one lag, split by contribution.

    covariance always equals
    same_vehicle + distant_pairs + close_pairs - mean_sq
    up to floating point roundoff; the addends are retained for audit.
    """

    same_vehicle: float
    distant_pairs: float
    close_pairs: float
    mean_sq: float
    covariance: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in COVARIANCE_METHODS:
            raise ParameterError(f"unknown covariance method {self.method!r}")
        recomputed = self.same_vehicle + self.distant_pairs + self.close_pairs - self.mean_sq
        scale = max(abs(self.covariance), abs(self.same_vehicle), self.mean_sq, 1e-300)
        if not abs(recomputed - self.covariance) <= 1e-9 * scale:
            raise ParameterError(
                f"inconsistent breakdown: sum {recomputed!r} vs covariance {self.covariance!r}"
            )


@dataclass(frozen=True)
class AnalyticCurve:
    """A correlation-coefficient curve on an ascending lag grid."""

    t_grid: np.ndarray
    values: np.ndarray
    method: str
    traffic: TrafficModel | None
    geometry: NetworkGeometry

    def __post_init__(self) -> None:
        t_grid = np.asarray(self.t_grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if t_grid.ndim != 1 or t_grid.shape != values.shape:
            raise ParameterError("t_grid and values must be 1-D arrays of equal length")
        if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
            raise ParameterError("t_grid must be strictly ascending")
        if not np.all(np.isfinite(values)):
            raise ParameterError("curve values must be finite")
        if np.any(np.abs(values) > 1.0 + 1e-9):
            raise ParameterError("correlation values must lie within [-1, 1]")
        t_grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "values", values)


def _require_lag(t: float, lo: float, hi: float, what: str) -> None:
    if not (math.isfinite(t) and lo <= t <= hi):
        raise DomainError(f"{what} requires lag in [{lo!r}, {hi!r}] s, got {t!r}")


def same_vehicle_term(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Covariance contribution of a single vehicle observed at both instants.

    Valid for lags in [0, t_max]. Equals the Poisson-stream covariance; the
    hardcore structure does not enter a single-vehicle average.
    """
    window = TimeLagWindow.from_params(traffic, geom)
    _require_lag(t, 0.0, window.t_max, "same_vehicle_term")
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    shift = t * geom.speed
    return (2.0 * traffic.intensity * r0 ** (1.0 - 2.0 * eta) / (2.0 * eta - 1.0)
            * hyp2f1(2.0 * eta - 1.0, eta, 2.0 * eta, -shift / r0))


def _distant_excess_exact(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """distant_pairs_exact minus the squared mean, without forming either."""
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    lam = traffic.intensity
    gap2 = 2.0 * traffic.min_gap
    shift = t * geom.speed
    z_far = -(gap2 + shift) / r0
    z_near = (gap2 - shift) / r0
    lead = lam * lam * r0 ** (2.0 - 2.0 * eta)
    group1 = lead / (eta - 1.0) ** 2 * (
        hyp2f1(2.0 * eta - 2.0, eta, 2.0 * eta - 1.0, z_far)
        - hyp2f1(2.0 * eta - 2.0, eta, 2.0 * eta - 1.0, z_near)
    )
    group2 = 2.0 * lead / ((2.0 * eta - 1.0) * (eta - 1.0)) * (
        z_near * hyp2f1(2.0 * eta - 1.0, eta, 2.0 * eta, z_near)
        - z_far * hyp2f1(2.0 * eta - 1.0, eta, 2.0 * eta, z_far)
    )
    return group1 + group2


def distant_pairs_exact(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Pair contribution from separations above two minimum gaps.

    Closed form of the squared mean minus the squared-intensity weight of
    the excluded near band, valid for lags in [t_lo, t_hi]. The stream
    beyond two minimum gaps is replaced by its squared-intensity far field,
    which is what the pcf-approx covariance route uses.
    """
    window = TimeLagWindow.from_params(traffic, geom)
    _require_lag(t, window.t_lo, window.t_hi, "distant_pairs_exact")
    mean = mean_interference(traffic, geom)
    return mean * mean + _distant_excess_exact(t, traffic, geom)


def _distant_excess_expansion(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    return (-8.0 * traffic.intensity ** 2 * traffic.min_gap
            * r0 ** (1.0 - 2.0 * eta) / (2.0 * eta - 1.0)
            * hyp2f1(2.0 * eta - 1.0, eta, 2.0 * eta, -t * geom.speed / r0))


def close_pairs_numeric(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Pair contribution from neighbor separations below two minimum gaps.

    Quadrature of the first-neighbor band against the exact pair
    correlation (only first neighbors can sit closer than two minimum
    gaps), over reference vehicles on both sides of the receiver. The
    exact-quadrature route uses the same integral on [0, t_max]; here the
    lag is held to [t_lo, t_hi], the window of the distant-pair closed form
    it is paired with.
    """
    window = TimeLagWindow.from_params(traffic, geom)
    _require_lag(t, window.t_lo, window.t_hi, "close_pairs_numeric")
    return _exact_pair_integral(t, traffic, geom, spec, "close")


def close_pairs_expansion(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Second-order (in occupancy) closed form of the close-pairs term.

    Equals occupancy * (2 + occupancy) times the same-vehicle term.
    """
    window = TimeLagWindow.from_params(traffic, geom)
    _require_lag(t, window.t_lo, window.t_hi, "close_pairs_expansion")
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    lam = traffic.intensity
    c = traffic.min_gap
    return (2.0 * lam * lam * c * (2.0 + lam * c) * r0 ** (1.0 - 2.0 * eta)
            / (2.0 * eta - 1.0)
            * hyp2f1(2.0 * eta - 1.0, eta, 2.0 * eta, -t * geom.speed / r0))


_UNIT_NODES = 0.5 + 0.5 * _GK_X
_UNIT_WEIGHTS = 0.5 * _GK_WK


def _exact_pair_integral(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                         spec: QuadratureSpec, part: str) -> float:
    """Two-sided pair integral against the exact pair correlation.

    Integrates gain(x) * (gain(y + shift) + gain(y - shift)) over reference
    positions x beyond the guard radius and neighbor offsets y - x. part
    "close" weights the first-neighbor band (offsets between one and two
    minimum gaps) by the full pair density; part "deviation" weights every
    band within the deviation reach by the density's deviation from the
    squared intensity. The two shifted gains fold the x < 0 half-line onto
    x > 0. Lengths are scaled by the guard radius. For each shifted gain,
    every band segment is clipped to the two half-lines of offsets that put
    the neighbor outside the guard zone, and each piece gets a fixed
    Kronrod rule, which resolves these analytic pieces to roundoff; the
    reference-position integral is adaptive.
    """
    lam2 = traffic.intensity ** 2
    c = traffic.min_gap
    if c == 0.0:
        return 0.0
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    b = c / r0
    shift = t * geom.speed / r0
    if part == "close":
        start_band, reach, offset = 1, 2, 0.0
    else:
        start_band, reach, offset = 0, _deviation_reach(traffic), lam2

    bands = np.arange(start_band, reach, dtype=float)
    pos_lo, pos_hi = bands * b, (bands + 1.0) * b
    base_lo = np.concatenate([-pos_hi[::-1], pos_lo])
    base_hi = np.concatenate([-pos_lo[::-1], pos_hi])
    base_width = base_hi - base_lo
    base_nodes = base_lo[:, None] + base_width[:, None] * _UNIT_NODES
    base_density = _pair_correlation_array(r0 * np.abs(base_nodes), traffic) - offset

    # Beyond this reference position neither shifted gain can cross the
    # guard boundary inside the offset range, so no segment is clipped.
    split_end = 1.0 + shift + reach * b + 1e-9
    # Below it the offset integral has a kink wherever a guard-zone crossing
    # (offset +-1 - s -+ shift) passes a band edge. Splitting the adaptive
    # range there leaves smooth pieces, on which its error estimate holds.
    edges = np.union1d(base_lo, base_hi)
    kinks = np.concatenate([boundary + moved - edges
                            for boundary in (1.0, -1.0) for moved in (shift, -shift)])
    kinks = np.unique(kinks[(kinks > 1.0) & (kinks < split_end)])
    near_points = np.concatenate([[1.0], kinks, [split_end]])

    def integrand(s_values: np.ndarray) -> np.ndarray:
        s = s_values[:, None]
        inner = np.zeros_like(s_values)
        for moved in (shift, -shift):
            below, above = -1.0 - s - moved, 1.0 - s - moved
            # An empty piece collapses onto its guard-zone crossing, where
            # the gain is finite, so its zero width zeroes it cleanly.
            for lo, hi in ((np.minimum(base_lo, below), np.minimum(base_hi, below)),
                           (np.maximum(base_lo, above), np.maximum(base_hi, above))):
                width = hi - lo
                nodes = lo[:, :, None] + width[:, :, None] * _UNIT_NODES
                # Unclipped pieces sit on the band nodes; only shortened
                # ones need the density afresh.
                density = np.broadcast_to(base_density, nodes.shape)
                clipped = (width > 0.0) & (width < base_width)
                if np.any(clipped):
                    density = density.copy()
                    density[clipped] = (_pair_correlation_array(
                        r0 * np.abs(nodes[clipped]), traffic) - offset)
                gains = np.abs(s[:, :, None] + nodes + moved) ** (-eta)
                inner += np.sum((gains * density) @ _UNIT_WEIGHTS * width, axis=1)
        return s_values ** (-eta) * inner

    near = math.fsum(integrate_finite(integrand, lo, hi, spec)
                     for lo, hi in zip(near_points[:-1], near_points[1:]))
    far = integrate_semi_infinite(integrand, split_end, spec,
                                  tail_power=2.0 * eta).value
    return r0 ** (2.0 - 2.0 * eta) * (near + far)


def variance(traffic: TrafficModel, geom: NetworkGeometry, method: str = "approx") -> float:
    """Interference variance (zero-lag).

    "approx" includes the hardcore thinning factor (1 - occupancy);
    "ppp" is the Poisson-stream variance at the same intensity.
    """
    eta = geom.pathloss_exponent
    base = 4.0 * traffic.intensity * geom.guard_radius ** (1.0 - 2.0 * eta) / (2.0 * eta - 1.0)
    if method == "approx":
        return base * (1.0 - traffic.intensity * traffic.min_gap)
    if method == "ppp":
        return base
    raise ParameterError(f"unknown variance method {method!r}; expected 'approx' or 'ppp'")


def covariance(t: float, traffic: TrafficModel, geom: NetworkGeometry,
               method: str = "pcf-approx",
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CovarianceBreakdown:
    """Interference covariance at lag t, with its contribution breakdown.

    Methods: "exact-quadrature" integrates the pair terms against the exact
    pair correlation (valid on [0, t_max]); "pcf-approx" uses the closed
    distant-pair form plus the same first-neighbor band integral;
    "expansion" uses the second-order occupancy expansion of both (each
    valid on [t_lo, t_hi]). The squared mean is cancelled symbolically, so
    the result does not suffer the near-equal-difference loss.
    """
    window = TimeLagWindow.from_params(traffic, geom)
    mean = mean_interference(traffic, geom)
    mean_sq = mean * mean
    if method == "exact-quadrature":
        _require_lag(t, 0.0, window.t_max, "covariance (exact-quadrature)")
        base = same_vehicle_term(t, traffic, geom)
        deviation = _exact_pair_integral(t, traffic, geom, spec, "deviation")
        close = _exact_pair_integral(t, traffic, geom, spec, "close")
        cov = base + deviation
        return CovarianceBreakdown(
            same_vehicle=base,
            distant_pairs=cov - base - close + mean_sq,
            close_pairs=close,
            mean_sq=mean_sq,
            covariance=cov,
            method=method,
        )
    if method == "pcf-approx":
        _require_lag(t, window.t_lo, window.t_hi, "covariance (pcf-approx)")
        base = same_vehicle_term(t, traffic, geom)
        excess = _distant_excess_exact(t, traffic, geom)
        close = close_pairs_numeric(t, traffic, geom, spec)
    elif method == "expansion":
        _require_lag(t, window.t_lo, window.t_hi, "covariance (expansion)")
        base = same_vehicle_term(t, traffic, geom)
        excess = _distant_excess_expansion(t, traffic, geom)
        close = close_pairs_expansion(t, traffic, geom)
    else:
        raise ParameterError(
            f"unknown covariance method {method!r}; expected one of {COVARIANCE_METHODS}"
        )
    return CovarianceBreakdown(
        same_vehicle=base,
        distant_pairs=mean_sq + excess,
        close_pairs=close,
        mean_sq=mean_sq,
        covariance=base + excess + close,
        method=method,
    )


def rho_ppp(t: float, geom: NetworkGeometry) -> float:
    """Correlation coefficient of a Poisson stream: intensity-free.

    Equals 0.5 at zero lag (the independent-fading floor) and decays with
    the lag; valid on [0, t_max].
    """
    t_max = 2.0 * geom.guard_radius / geom.speed
    _require_lag(t, 0.0, t_max, "rho_ppp")
    eta = geom.pathloss_exponent
    return 0.5 * hyp2f1(2.0 * eta - 1.0, eta, 2.0 * eta,
                        -t * geom.speed / geom.guard_radius)


def rho(t: float, traffic: TrafficModel, geom: NetworkGeometry,
        method: str = "pcf-approx",
        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Temporal correlation coefficient of the interference at lag t.

    "ppp" ignores the hardcore structure entirely; "expansion" scales the
    Poisson coefficient by (1 - occupancy); "pcf-approx" divides the
    pcf-approx covariance by the thinned variance. The latter two are valid
    on [t_lo, t_hi].
    """
    if method == "ppp":
        return rho_ppp(t, geom)
    if method == "expansion":
        window = TimeLagWindow.from_params(traffic, geom)
        _require_lag(t, window.t_lo, window.t_hi, "rho (expansion)")
        return (1.0 - traffic.intensity * traffic.min_gap) * rho_ppp(t, geom)
    if method == "pcf-approx":
        breakdown = covariance(t, traffic, geom, "pcf-approx", spec)
        return breakdown.covariance / variance(traffic, geom, "approx")
    raise ParameterError(f"unknown rho method {method!r}; expected one of {RHO_METHODS}")


def curve(t_grid: Sequence[float], traffic: TrafficModel, geom: NetworkGeometry,
          method: str = "pcf-approx",
          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> AnalyticCurve:
    """Correlation coefficient on an ascending lag grid.

    The first grid point outside the method's lag domain aborts the whole
    curve with a DomainError naming its index.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1:
        raise ParameterError("t_grid must be a 1-D sequence")
    values = np.empty_like(grid)
    for i, t in enumerate(grid):
        try:
            values[i] = rho(float(t), traffic, geom, method, spec)
        except DomainError as exc:
            raise DomainError(f"t_grid[{i}] = {t!r}: {exc}") from exc
    return AnalyticCurve(t_grid=grid, values=values, method=method,
                         traffic=traffic, geometry=geom)
