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
The same-vehicle term is the intensity times the gain autocorrelation K,
whose one-sided tail (a 2F1) is a Gauss-Jacobi sum from a ladder of cached
rules (_gain_tail); the Poisson coefficient and both terms of the
distant-pair closed form read the same tail, so no route sums a
hypergeometric series. The exact route's pair terms are one convolution of
the pair density against K, out to the stream's deviation reach. The
far-field constants and the moments a finite window loses, which the
simulator adds back, are closed forms too (_losses). One rule, _lag_range,
in the caller's units, decides which lags each route serves; every lag
check and the CLI's valid column read it. Every route computes on the
pair restated in guard radii (model._in_guard_radii): intensity * r0,
min_gap / r0, the exponent and the shift speed * t / r0. rho forms no
dimensional quantity; a covariance takes its r0**(-2 eta) at the output.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .model import (NetworkGeometry, TrafficModel, _dimensional, _in_guard_radii, _mean,
                    _pair_correlation_array, _settled_reach)
from .specfun import (DEFAULT_QUADRATURE, QuadratureSpec, _GK_WK, _GK_X, _gauss_jacobi,
                      integrate_finite)
# Unused here: perfbench's tracer wraps both names in this module, and
# tests/test_cli.py::test_benchmark_boundaries_resolve checks they stay bound.
from .specfun import hyp2f1, integrate_semi_infinite

__all__ = [
    "CovarianceBreakdown",
    "same_vehicle_term",
    "distant_pairs_exact",
    "close_pairs_numeric",
    "close_pairs_expansion",
    "covariance",
    "variance",
    "rho_ppp",
    "rho",
]

COVARIANCE_METHODS = ("exact-quadrature", "pcf-approx", "expansion")
RHO_METHODS = ("ppp", "expansion", "pcf-approx")


@dataclass(frozen=True)
class CovarianceBreakdown:
    """Interference covariance at one lag, split by contribution: covariance
    equals same_vehicle + distant_pairs + close_pairs - mean_sq up to
    rounding; the addends are retained for audit."""

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


def _lag_range(route: str, traffic: TrafficModel | None,
               geom: NetworkGeometry) -> tuple[float, float]:
    """The lags [lo, hi] at which a route is evaluated; every lag check reads it.

    t_lo = 2 min_gap / speed is the lag beyond which the nearest-neighbor
    bands have cleared their zero-lag overlap, t_hi = 2 (guard_radius -
    min_gap) / speed the lag at which a neighbor band first reaches the far
    guard boundary, and t_max = 2 guard_radius / speed the lag at which a
    vehicle can cross the whole guard zone. The closed pair forms
    ("expansion", "pcf-approx") hold on [t_lo, t_hi]; every other route
    serves [0, t_max]: "ppp" on any stream, and "exact-quadrature",
    "simulation" and the same-vehicle term. Except for "ppp", raises
    DomainError where the window is empty (min_gap above half the guard
    radius) or t_max is not finite. Otherwise 0 <= t_lo <= t_hi <= t_max:
    rounding is monotone, so min_gap <= r0 / 2 keeps r0 - min_gap >= min_gap.
    """
    t_max = 2.0 * geom.guard_radius / geom.speed
    if route == "ppp":
        return 0.0, t_max
    c = traffic.min_gap
    if c > geom.guard_radius / 2.0:
        raise DomainError(f"min_gap {c!r} exceeds half the guard radius "
                          f"{geom.guard_radius!r}; the lag window would be empty")
    if not math.isfinite(t_max):
        raise DomainError(f"lag window [0, {t_max!r}] is not finite: guard radius "
                          f"{geom.guard_radius!r} over speed {geom.speed!r} overflows")
    if route in ("expansion", "pcf-approx"):
        return 2.0 * c / geom.speed, 2.0 * (geom.guard_radius - c) / geom.speed
    return 0.0, t_max


def _require_lag(t: float, route: str, traffic: TrafficModel | None,
                 geom: NetworkGeometry, what: str) -> None:
    lag = np.asarray(t)
    if lag.ndim != 0 or lag.dtype.kind not in "biuf":
        raise ParameterError(f"{what} takes one scalar lag, a real number, got {t!r}")
    lo, hi = _lag_range(route, traffic, geom)
    if not (math.isfinite(t) and lo <= t <= hi):
        raise DomainError(f"{what} requires lag in [{lo!r}, {hi!r}] s, got {t!r}")


def _lags_served(route: str, traffic: TrafficModel, geom: NetworkGeometry,
                 lags: list[float]) -> list[int]:
    """Indices of the lags the route evaluates: those in its _lag_range,
    none where that range is empty (min_gap above half the guard radius)."""
    try:
        lo, hi = _lag_range(route, traffic, geom)
    except DomainError:
        return []
    return [i for i, t in enumerate(lags) if lo <= t <= hi]


# The 15-point Kronrod rule on three panels of [0, 1], weights summing to 2: K's crossing piece.
_PANEL_X = ((np.arange(3.0)[:, None] + 0.5 + 0.5 * _GK_X) / 3.0).ravel()
_PANEL_W = np.tile(_GK_WK, 3) / 3.0


# The gain tail's Gauss-Jacobi rule sizes, and the largest sigma each serves:
# the sigma whose Bernstein ellipse rho, through the pole at u = -1 / sigma,
# has rho**(-2 n) = _TAIL_EPS, that is sigma = 4 rho / (rho - 1)**2.
_TAIL_RUNGS = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64)
_TAIL_EPS = 1e-17
_TAIL_CAPS = np.array([4.0 * rho / (rho - 1.0) ** 2
                       for rho in (_TAIL_EPS ** (-0.5 / n) for n in _TAIL_RUNGS)])


@functools.cache
def _tail_rules(top: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The rules of rungs 0 to top, one per row, zero-padded to the widest
    and read-only: a padded node is 0 with weight 0, a term that adds +0.0
    to a row's sum."""
    nodes = np.zeros((top + 1, _TAIL_RUNGS[top]))
    weights = np.zeros_like(nodes)
    for row, n in enumerate(_TAIL_RUNGS[:top + 1]):
        nodes[row, :n], weights[row, :n] = _gauss_jacobi(n, 2.0 * eta - 2.0)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _rule_mean(rung: int, sigma: float, eta: float) -> float:
    """The rung's rule applied to (1 + sigma u)**-eta, summed in node order."""
    nodes, weights = _gauss_jacobi(_TAIL_RUNGS[rung], 2.0 * eta - 2.0)
    return float((np.power(1.0 + sigma * nodes, -eta) * weights).cumsum()[-1])


def _gain_tail(a, s, eta: float):
    """The integral of x**-eta * (x + s)**-eta over x > a, for a > 0 and
    s >= 0: a**(1 - 2 eta) / (2 eta - 1) * 2F1(2 eta - 1, eta; 2 eta; -s / a).

    With x = a / u and sigma = s / a it is that prefactor over 2 eta - 1
    times the mean of (1 + sigma u)**-eta under the weight u**(2 eta - 2)
    on [0, 1], taken by that weight's Gauss-Jacobi rule
    (specfun._gauss_jacobi). The integrand's one singularity, at
    u = -1 / sigma, makes an n-point rule's error fall as rho**(-2 n), rho
    the Bernstein ellipse through it (Trefethen, Approximation Theory and
    Approximation Practice, ch. 19). Each entry takes the smallest rung of
    _TAIL_RUNGS whose cap (_TAIL_CAPS, where rho**(-2 n) = 1e-17) is at
    least its sigma: 1 node up to 1.3e-8 (sigma = 0 gives the prefactor
    exactly), 16 up to 2.36, 64 up to 42.4, past every sigma a route
    reaches (at most 2 + 64 c / r0 <= 34). Against 30-digit values the tail
    is within 2e-15 relative for eta 2.05 to 6 and sigma up to 34. Each
    entry's sum runs in node order (padded with +0.0 terms in an array),
    and the prefactor is numpy's power (float ** can differ in the last
    bit), so a scalar equals the array entry bit for bit.

    Takes scalars or arrays. Raises ConvergenceError past the top rung's
    cap, carrying the top rung's value and, as its error estimate, its
    distance from the rung below; for an array, at the first such entry.
    """
    power = 2.0 * eta - 1.0
    scale = np.power(a, -power) / power
    sigma = s / a
    if isinstance(sigma, float):
        if not sigma <= _TAIL_CAPS[-1]:
            raise _tail_refusal(sigma, eta, float(scale))
        return scale * _rule_mean(bisect.bisect_left(_TAIL_CAPS, sigma), sigma, eta)
    rungs = np.searchsorted(_TAIL_CAPS, sigma)
    top = int(rungs.max(initial=0))
    if top == len(_TAIL_RUNGS):
        i = int(np.argmax(rungs == top))
        raise _tail_refusal(float(sigma.flat[i]), eta,
                            float(np.broadcast_to(scale, sigma.shape).flat[i]))
    nodes, weights = _tail_rules(top, eta)
    terms = np.power(1.0 + sigma[..., None] * nodes[rungs], -eta)
    terms *= weights[rungs]
    return scale * terms.cumsum(axis=-1)[..., -1]


def _tail_refusal(sigma: float, eta: float, scale: float) -> ConvergenceError:
    """The error for a gain tail whose sigma lies past the top rung's cap."""
    coarse, fine = (scale * _rule_mean(rung, sigma, eta)
                    for rung in (len(_TAIL_RUNGS) - 2, len(_TAIL_RUNGS) - 1))
    return ConvergenceError(
        f"gain tail at sigma = {sigma!r} lies past the {_TAIL_RUNGS[-1]}-point rule's "
        f"reach, sigma <= {_TAIL_CAPS[-1]!r}", best_estimate=fine, error_bound=abs(fine - coarse))


def _gain_kernel(s, eta: float):
    """Gain autocorrelation K(s), the integral of g(x) * g(x + s) over x.

    g(x) = |x|**-eta outside the guard zone |x| <= 1, zero inside (lengths
    in guard radii). Positions on one side of the zone give
    2 * _gain_tail(1, |s|); for |s| > 2 the zone fits between them, adding
    the integral of y**-eta * (|s| - y)**-eta over 1 < y < |s| - 1: twice
    its half up to |s| / 2, taken over log y, which keeps it within 2e-15
    of K out to |s| = 556. K is even, kinked at 0 and |s| = 2. Takes a
    scalar (returns a float) or an array.
    """
    s = np.abs(np.asarray(s, dtype=float))
    value = np.asarray(2.0 * _gain_tail(1.0, s, eta))
    across = s > 2.0
    if np.any(across):
        far = s[across]
        top = np.log(0.5 * far)
        y = np.exp(top[:, None] * _PANEL_X)
        value[across] += top * np.sum(y ** (1.0 - eta) * (far[:, None] - y) ** -eta * _PANEL_W,
                                      axis=1)
    return value if value.ndim else float(value)


def _same_vehicle(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """same_vehicle_term in guard radii: intensity * K(speed * t)."""
    return traffic.intensity * _gain_kernel(t * geom.speed, geom.pathloss_exponent)


def same_vehicle_term(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Covariance contribution of a single vehicle observed at both instants.

    Valid for lags in [0, t_max]. Equals the Poisson-stream covariance; the
    hardcore structure does not enter a single-vehicle average.
    """
    _require_lag(t, "same-vehicle", traffic, geom, "same_vehicle_term")
    return _dimensional(_same_vehicle(t, *_in_guard_radii(traffic, geom)), geom, 2)


def _distant_excess_exact(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """distant_pairs_exact minus the squared mean, in guard radii, without forming either.

    The excluded band's weight is a difference, between sigma = 2 c + u t
    and u t - 2 c, of lead / (eta - 1)**2 * 2F1(2 eta - 2, eta;
    2 eta - 1; -sigma) + 2 lead / (eta - 1) * sigma T(sigma), T the gain
    tail _gain_tail(1, sigma). Integrating the derivative of
    u**(2 eta - 2) (1 + sigma u)**(1 - eta) over [0, 1] gives that 2F1 as
    (1 + sigma)**(1 - eta) - (eta - 1) sigma T(sigma).
    """
    eta = geom.pathloss_exponent
    lam = traffic.intensity
    gap2 = 2.0 * traffic.min_gap
    shift = t * geom.speed
    lead = lam * lam
    power, upper = [], []
    for sigma in (gap2 + shift, shift - gap2):   # far, near
        power.append((1.0 + sigma) ** (1.0 - eta))
        upper.append(sigma * _gain_tail(1.0, sigma, eta))
    return float(lead / (eta - 1.0) ** 2 * (power[0] - power[1])
                 + lead / (eta - 1.0) * (upper[0] - upper[1]))


def distant_pairs_exact(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Pair contribution from separations above two minimum gaps.

    Closed form of the squared mean minus the squared-intensity weight of
    the excluded near band, valid for lags in [t_lo, t_hi]. The stream
    beyond two minimum gaps is replaced by its squared-intensity far field,
    which is what the pcf-approx covariance route uses.
    """
    _require_lag(t, "pcf-approx", traffic, geom, "distant_pairs_exact")
    unit = _in_guard_radii(traffic, geom)
    mean = _mean(*unit)
    return _dimensional(mean * mean + _distant_excess_exact(t, *unit), geom, 2)


def close_pairs_numeric(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Pair contribution from neighbor separations below two minimum gaps.

    Quadrature of the first-neighbor band (only first neighbors sit closer
    than two minimum gaps) against the exact pair correlation, over
    reference vehicles on both sides of the receiver: the exact route's
    integral, held to [t_lo, t_hi] like the distant-pair closed form.
    """
    _require_lag(t, "pcf-approx", traffic, geom, "close_pairs_numeric")
    return _dimensional(_exact_pair_integral(t, *_in_guard_radii(traffic, geom), spec, "close"),
                        geom, 2)


def close_pairs_expansion(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Second-order (in occupancy) closed form of the close-pairs term.

    Equals occupancy * (2 + occupancy) times the same-vehicle term.
    """
    _require_lag(t, "expansion", traffic, geom, "close_pairs_expansion")
    unit = _in_guard_radii(traffic, geom)
    occ = unit[0].occupancy
    return _dimensional(occ * (2.0 + occ) * _same_vehicle(t, *unit), geom, 2)


def _exact_pair_integral(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                         spec: QuadratureSpec, part: str) -> float:
    """Two-sided pair integral against the exact pair correlation, in guard radii.

    The stream is stationary, so the pair double integral of gain(x) *
    gain(y + shift) collapses onto the separation d = y - x (the
    second-order Campbell formula): the integral of w(d) * K(d + shift),
    K the gain autocorrelation; w is even, so d > 0 carries K(d + shift) +
    K(d - shift). part "close" weights the first-neighbor band (one to two
    minimum gaps) by the pair density, part "deviation" every band within
    the deviation reach (_settled_reach) by the density minus the squared
    intensity. Band edges and K's kinks are breakpoints, so every piece is
    smooth. Bands of no width (min_gap 0 in guard radii, or reach 0) give 0.
    """
    eta = geom.pathloss_exponent
    shift = t * geom.speed
    if part == "close":
        first, last, offset = 1, 2, 0.0
    else:
        first, last, offset = 0, _settled_reach(traffic), traffic.intensity ** 2
    edges = np.arange(first, last + 1) * traffic.min_gap
    if not edges[-1] > edges[0]:
        return 0.0
    kinks = np.array([shift, abs(shift - 2.0), shift + 2.0])
    # the sorted distinct values np.union1d gives, without the numpy.ma it loads
    points = np.sort(np.concatenate((edges, kinks[(kinks > edges[0]) & (kinks < edges[-1])])))
    points = points[np.concatenate(([True], points[1:] != points[:-1]))]

    def integrand(d: np.ndarray) -> np.ndarray:
        gains = _gain_kernel(np.add.outer(d, (shift, -shift)), eta).sum(axis=1)
        return (_pair_correlation_array(d, traffic) - offset) * gains

    return integrate_finite(integrand, points, spec)


def _variance(traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """The Poisson-stream variance in guard radii, 4 intensity / (2 eta - 1)."""
    return 4.0 * traffic.intensity / (2.0 * geom.pathloss_exponent - 1.0)


def _normal(value: float, what: str, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """value, a divisor in guard radii; DomainError where it is below the
    smallest normal float: a subnormal one has lost its digits."""
    if not value >= sys.float_info.min:
        raise DomainError(f"{what} {value!r} in guard radii is below the smallest normal float "
                          f"at intensity * guard radius {traffic.intensity!r}, occupancy "
                          f"{traffic.occupancy!r} and exponent {geom.pathloss_exponent!r}")
    return value


def variance(traffic: TrafficModel, geom: NetworkGeometry, method: str = "approx") -> float:
    """Interference variance (zero-lag).

    "approx" includes the hardcore thinning factor (1 - occupancy);
    "ppp" is the Poisson-stream variance at the same intensity.
    """
    if method not in ("approx", "ppp"):
        raise ParameterError(f"unknown variance method {method!r}; expected 'approx' or 'ppp'")
    base = _dimensional(_variance(*_in_guard_radii(traffic, geom)), geom, 2)
    return (1.0 - traffic.occupancy) * base if method == "approx" else base


def _breakdown(t: float, traffic: TrafficModel, geom: NetworkGeometry, method: str,
               spec: QuadratureSpec) -> tuple[float, float, float, float, float]:
    """covariance's (same_vehicle, distant_pairs, close_pairs, mean_sq,
    covariance) in guard radii. Raises DomainError where the squared mean
    is not finite (an intensity * r0 above about 1e154)."""
    mean = _mean(traffic, geom)
    mean_sq = mean * mean
    if not math.isfinite(mean_sq):
        raise DomainError(f"squared mean interference {mean_sq!r} in guard radii is not finite "
                          f"at intensity * guard radius {traffic.intensity!r} and exponent "
                          f"{geom.pathloss_exponent!r}")
    base = _same_vehicle(t, traffic, geom)
    if method == "expansion":
        occ = traffic.occupancy
        close = occ * (2.0 + occ) * base
        total = (1.0 - occ) ** 2 * base
        excess = total - base - close
    else:
        close = _exact_pair_integral(t, traffic, geom, spec, "close")
        excess = (_exact_pair_integral(t, traffic, geom, spec, "deviation") - close
                  if method == "exact-quadrature" else _distant_excess_exact(t, traffic, geom))
        total = base + excess + close
    return base, mean_sq + excess, close, mean_sq, total


def covariance(t: float, traffic: TrafficModel, geom: NetworkGeometry,
               method: str = "pcf-approx",
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CovarianceBreakdown:
    """Interference covariance at lag t, with its contribution breakdown.

    Methods: "exact-quadrature" integrates the pair terms against the exact
    pair correlation (valid on [0, t_max]); "pcf-approx" uses the closed
    distant-pair form plus the same first-neighbor band integral;
    "expansion" the second-order occupancy expansion of both (each valid
    on [t_lo, t_hi]), its total formed as (1 - occupancy)**2 times the
    same-vehicle term so it does not cancel at high occupancy, its distant
    excess the rest. The squared mean cancels symbolically. Raises
    DomainError where it is not finite in guard radii (_breakdown), or
    where a field times r0**(-2 eta) is not (model._dimensional).
    """
    if method not in COVARIANCE_METHODS:
        raise ParameterError(f"unknown covariance method {method!r}; "
                             f"expected one of {COVARIANCE_METHODS}")
    _require_lag(t, method, traffic, geom, f"covariance ({method})")
    fields = _breakdown(t, *_in_guard_radii(traffic, geom), method, spec)
    return CovarianceBreakdown(*(_dimensional(value, geom, 2) for value in fields), method)


def rho_ppp(t: float, geom: NetworkGeometry) -> float:
    """Correlation coefficient of a Poisson stream: intensity-free.

    Half the gain tail at the lag's shift over its zero-lag value
    (_gain_tail), so it equals 0.5 exactly at zero lag (the
    independent-fading floor) and decays with the lag; valid on [0, t_max].
    """
    _require_lag(t, "ppp", None, geom, "rho_ppp")
    eta = geom.pathloss_exponent
    return 0.5 * float(_gain_tail(1.0, t * _in_guard_radii(None, geom)[1].speed, eta)
                       / _gain_tail(1.0, 0.0, eta))


def rho(t: float, traffic: TrafficModel, geom: NetworkGeometry,
        method: str = "pcf-approx",
        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Temporal correlation coefficient of the interference at lag t.

    "ppp" ignores the hardcore structure; "expansion" scales the Poisson
    coefficient by (1 - occupancy); "pcf-approx" divides the pcf-approx
    covariance by the thinned variance, both in guard radii. The latter
    two are valid on [t_lo, t_hi]. Each reads only the dimensionless
    inputs. "pcf-approx" raises DomainError where the squared mean is not
    finite (_breakdown), or the variance falls below the smallest normal
    float (intensity * r0 below about 1e-307): a subnormal divisor has
    lost its digits, and a zero one has none.
    """
    if method == "ppp":
        return rho_ppp(t, geom)
    if method == "expansion":
        _require_lag(t, "expansion", traffic, geom, "rho (expansion)")
        return (1.0 - _in_guard_radii(traffic, geom)[0].occupancy) * rho_ppp(t, geom)
    if method == "pcf-approx":
        _require_lag(t, "pcf-approx", traffic, geom, "rho (pcf-approx)")
        unit = _in_guard_radii(traffic, geom)
        cov = _breakdown(t, *unit, "pcf-approx", spec)[-1]
        return cov / _normal((1.0 - unit[0].occupancy) * _variance(*unit), "variance", *unit)
    raise ParameterError(f"unknown rho method {method!r}; expected one of {RHO_METHODS}")


def _far_field(traffic: TrafficModel,
               geom: NetworkGeometry) -> tuple[float, float, float, float, float]:
    """Far-field constants of the stream, in guard radii: (cv2, edge, rho0,
    spread, third).

    Over lengths long against the mean spacing, a renewal stream's pair
    deviation h = rho2 - intensity**2 acts as a point mass of total
    intensity * (cv2 - 1), where cv2 = (1 - occupancy)**2 is the squared
    coefficient of variation of a gap c + Exp(rate) (Cox, Renewal Theory,
    1962). So every pair term over a region where the gain varies slowly
    is cv2 times its same-vehicle term, plus -M1 * g(e) * f(e) at each
    boundary point e of the region (g and f the two slots' gains), where
    Mn is the n-th moment of h over d > 0. They follow from the Laplace
    transform of the renewal density, U(s) = F(s) / (1 - F(s)) with
    F(s) = rate e**(-s c) / (rate + s): with U(s) - intensity / s =
    a0 + a1 s + a2 s**2 + ..., Mn = (-1)**n n! intensity * an, which with p
    the occupancy and m = 1 - p give

        M1 = -p**2 * (1 + 2m + 3m**2) / 12,    M2 = -c * p**2 * m**2 * (1 + 3m) / 12,
        M3 = c**2 * p**2 * (1 + 4m + 10m**2 - 45m**4) / 120;

    M1 and M2 are never positive. edge is |M1| and spread is |M2|, the
    next order's constant (_losses). M3 changes sign near occupancy
    0.3565, so third, the size _losses gives the order after, is its
    majorant with every coefficient's magnitude,
    c**2 * p**2 * (1 + 4m + 10m**2 + 45m**4) / 120 >= |M3|, which stays
    above c**2 * p**2 / 120 where M3 vanishes and the orders beyond it
    do not. rho0 is the zero-lag
    coefficient this gives, var(S) / (var(S) + E[Q]) with
    var(S) = cv2 * E[Q] + 2 |M1| (the guard zone's two edges, where g = 1).
    Raises DomainError where that divisor is below the smallest normal
    float (_normal): both moments underflowed.
    """
    occ = traffic.occupancy
    m = 1.0 - occ
    cv2 = m * m
    edge = occ * occ * (1.0 + 2.0 * m + 3.0 * m * m) / 12.0
    spread = traffic.min_gap * occ * occ * cv2 * (1.0 + 3.0 * m) / 12.0
    third = (traffic.min_gap ** 2 * occ * occ
             * (1.0 + m * (4.0 + m * (10.0 + 45.0 * m * m))) / 120.0)
    mean_q = 0.5 * _variance(traffic, geom)
    var_s = cv2 * mean_q + 2.0 * edge
    rho0 = var_s / _normal(var_s + mean_q, "interference variance", traffic, geom)
    return cv2, edge, rho0, spread, third


def _losses(traffic: TrafficModel, geom: NetworkGeometry, window: tuple[float, float],
            t: float) -> tuple[float, float, float, float]:
    """Moments lost at lag t to the window, to second order, and a bound
    on the bias of rho they leave, in guard radii.

    The window [w_lo, w_hi], finite with w_lo < w_hi, holds the slot-0
    positions, and must cover the guard zone at both slots. Returns
    (lost_mean, lost_var, lost_cov, bias_bound): the pooled mean, the
    pooled variance (fading part kept) and the covariance that the
    vehicles outside the window carry, and a bound on |rho_W - rho| once
    they are added back. With e the distances from the receiver to the
    window's edges, at each slot:

    - the mean lost is intensity / (eta - 1) * sum e**(1 - eta), exact;
    - the same-vehicle tail T_t = intensity * integral of g(x) g(x + u t)
      over the x outside the window is exact (_gain_tail per side); at
      lag 0 it is the lost E[Q];
    - the pair terms follow the renewal expansion below.

    Near an edge at x = e, with gains g1(x) and g2(x) of the two slots, the
    pairs a separation d > 0 apart that the window loses are those with x
    beyond e and those straddling it; their gain products integrate to
    int_e [g1(x - d) g2(x) + g1(x) g2(x - d)] dx, which Taylor's theorem
    and integration by parts expand as

        2 int_e g1 g2 + d g1 g2(e) + d**2 (-(g1 g2)'(e) / 2 - int_e g1' g2')
        + d**3 (g1'' g2 + g1 g2'' - g1' g2')(e) / 6 + ...

    Against h over d > 0 (_far_field's moments) the first three orders
    are added back: (cv2 - 1) * T_t, -|M1| * g1 g2(e) (the window's own
    pair terms carry that edge term and the whole line's do not) and
    M2 * (-(g1 g2)'(e) / 2 - int_e g1' g2') with M2 = -spread, where
    int_e g1' g2' = eta**2 * _gain_tail(e, u t, eta + 1), one scalar call
    per side. The bound is twice the third order's size, allowing for the
    orders beyond: with g = e**-eta at distances e1 and e2 from the two
    slots, the third order is M3 * (e1 e2)**-eta * (eta (eta + 1)
    (e1**-2 + e2**-2) - eta**2 / (e1 e2)) / 6, pooled over the slots for
    the variance, and the bound takes _far_field's third >= |M3| for M3,
    so it does not vanish where M3 changes sign. The bracket is positive,
    so the misses dvar and dcov share a sign to that order; they give
    rho_W - rho = (rho_W * dvar - dcov) / var, with 0 <= rho_W <= rho0,
    so a bias of at most max(rho0 * |dvar|, |dcov|) / E[Q_W]
    (E[Q_W] <= var). The expansion needs the gains smooth across
    the pairs it moves: every lost vehicle must sit past the guard zone by
    the deviation reach, as sim.default_window's windows do. For a Poisson
    stream (min_gap 0) cv2 = 1 and every Mn is 0: the losses are exact
    and the bound is 0.
    """
    w_lo, w_hi = window
    shift = geom.speed * t
    if not (w_hi > 1.0 and -w_lo - shift > 1.0):
        raise DomainError(f"window {window!r} in guard radii must cover the guard zone at both "
                          f"slots of lag {t!r}")
    lam = traffic.intensity
    eta = geom.pathloss_exponent
    power = 2.0 * eta - 1.0
    cv2, edge, rho0, spread, third = _far_field(traffic, geom)
    # each side's nearest missing distance at slots 0 and t, in floats: the
    # sums are over two or four terms, where numpy's per-call cost dominates
    sides = ((w_hi, w_hi + shift), (-w_lo, -w_lo - shift))
    dists = [e for side in sides for e in side]
    lost_mean = 0.5 * lam * sum(e ** (1.0 - eta) for e in dists) / (eta - 1.0)
    lost_q = 0.5 * lam * sum(e ** -power for e in dists) / power
    # one scalar tail per side: a 2-element array costs twice as much
    near = [min(side) for side in sides]
    same = lam * float(_gain_tail(near[0], shift, eta) + _gain_tail(near[1], shift, eta))
    cross = eta * eta * float(_gain_tail(near[0], shift, eta + 1.0)
                              + _gain_tail(near[1], shift, eta + 1.0))
    product = [(e0 * et) ** -eta for e0, et in sides]
    edge_cov = edge * sum(product)
    edge_var = 0.5 * edge * sum(e ** (-2.0 * eta) for e in dists)
    # second order at e0 = et = e: eta e**-(2 eta + 1) less eta**2 e**-(2 eta + 1) / (2 eta + 1)
    second_cov = spread * (0.5 * eta * sum(p * (1.0 / e0 + 1.0 / et)
                                           for p, (e0, et) in zip(product, sides)) - cross)
    second_var = (0.5 * spread * eta * (eta + 1.0) / (power + 2.0)
                  * sum(e ** -(power + 2.0) for e in dists))
    third_cov = third * sum(
        p * (eta * (eta + 1.0) * (e0 ** -2.0 + et ** -2.0) - eta * eta / (e0 * et))
        for p, (e0, et) in zip(product, sides)) / 6.0
    third_var = 0.5 * third * eta * (eta + 2.0) * sum(e ** -(power + 3.0) for e in dists) / 6.0
    kept_q = 0.5 * _variance(traffic, geom) - lost_q
    return (lost_mean, (1.0 + cv2) * lost_q - edge_var - second_var,
            cv2 * same - edge_cov - second_cov,
            2.0 * max(rho0 * third_var, third_cov) / kept_q)
