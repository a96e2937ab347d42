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
The same-vehicle term is the intensity times the gain autocorrelation K.
K's one-sided tail, a 2F1 in closed form, is evaluated by a Gauss-Jacobi
rule picked per entry from a fixed ladder of cached rules (_gain_tail);
the Poisson coefficient and the distant-pair closed form read the same
tail. The exact route's pair terms are one convolution of the pair density
against K, integrated in one adaptive pass out to the stream's deviation
reach (TrafficModel.deviation_reach). The renewal far-field constants and
the moments a finite window loses to the far field, which the simulator
adds back, are closed forms here too (_losses). One rule, _lag_range,
decides which lags each route serves, the simulation's included; every
lag check and the CLI's valid column read it.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .model import (NetworkGeometry, TrafficModel, _pair_correlation_array, _settled_reach,
                    mean_interference)
from .specfun import (DEFAULT_QUADRATURE, QuadratureSpec, _GK_WK, _GK_X, _gauss_jacobi,
                      hyp2f1, integrate_finite)
from .specfun import integrate_semi_infinite  # unused: perfbench's tracer wraps it here

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


def _lag_range(route: str, traffic: TrafficModel | None,
               geom: NetworkGeometry) -> tuple[float, float]:
    """The lags [lo, hi] at which a route is evaluated; every lag check reads it.

    t_lo = 2 min_gap / speed is the lag beyond which the nearest-neighbor
    bands have fully cleared their zero-lag overlap, t_hi =
    2 (guard_radius - min_gap) / speed the lag at which a neighbor band
    first reaches the far guard boundary, and t_max = 2 guard_radius / speed
    the lag at which a vehicle can cross the whole guard zone. The closed
    pair forms ("expansion", "pcf-approx") hold on [t_lo, t_hi]; every
    other route serves [0, t_max]: "ppp" from the geometry alone, so on any
    stream, and "exact-quadrature", "simulation" and the same-vehicle term.
    Except for "ppp", raises DomainError where the window is empty (min_gap
    above half the guard radius) or t_max is not finite. Otherwise
    0 <= t_lo <= t_hi <= t_max: rounding is monotone, so min_gap <=
    guard_radius / 2 keeps guard_radius - min_gap >= min_gap.
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

    With x = a / u it is a**(1 - 2 eta) times the integral of u**(2 eta - 2)
    * (1 + sigma u)**-eta over [0, 1], sigma = s / a, so the tail is that
    prefactor over 2 eta - 1 times the sum of w_i (1 + sigma u_i)**-eta
    over the Gauss-Jacobi rule (u_i, w_i) of the weight u**(2 eta - 2),
    weights summing to 1 (specfun._gauss_jacobi, built once per size and
    exponent). (1 + sigma u)**-eta is analytic on [0, 1] with one
    singularity, at u = -1 / sigma, so an n-point rule's error falls as
    rho**(-2 n), rho the Bernstein ellipse through that point (Trefethen,
    Approximation Theory and Approximation Practice, ch. 19). Each entry
    takes the smallest rung of _TAIL_RUNGS whose cap (_TAIL_CAPS, the
    sigma at which rho**(-2 n) = 1e-17) is at least its sigma: 1 node up to
    1.3e-8 (so sigma = 0 gives the prefactor exactly), 16 up to 2.36, 64 up
    to 42.4, which covers every sigma a route reaches (at most
    2 + 64 c / r0 <= 34).
    Against 30-digit values the tail is within 2e-15 relative for eta 2.05
    to 6 and sigma up to 34. Each entry's sum runs in node order (padded
    with +0.0 terms in an array), so an entry depends on its own sigma only
    and a scalar equals the array entry bit for bit; the prefactor is
    numpy's power for the same reason (float ** can differ in the last bit).

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


def _same_vehicle_scale(geom: NetworkGeometry) -> float:
    """r0**(1 - 2 eta), the length scale of the same-vehicle term and the
    variance. Raises DomainError where it overflows (as at a guard radius
    of 0.0113 and an exponent of 92)."""
    try:
        return geom.guard_radius ** (1.0 - 2.0 * geom.pathloss_exponent)
    except OverflowError:
        raise DomainError(f"same-vehicle prefactor r0**(1 - 2 eta) overflows at guard radius "
                          f"{geom.guard_radius!r} and exponent "
                          f"{geom.pathloss_exponent!r}") from None


def same_vehicle_term(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Covariance contribution of a single vehicle observed at both instants.

    Valid for lags in [0, t_max]. Equals the Poisson-stream covariance; the
    hardcore structure does not enter a single-vehicle average.
    """
    _require_lag(t, "same-vehicle", traffic, geom, "same_vehicle_term")
    return (traffic.intensity * _same_vehicle_scale(geom)
            * _gain_kernel(t * geom.speed / geom.guard_radius, geom.pathloss_exponent))


def _distant_excess_exact(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """distant_pairs_exact minus the squared mean, without forming either."""
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    lam = traffic.intensity
    gap2 = 2.0 * traffic.min_gap
    shift = t * geom.speed
    lead = lam * lam * r0 ** (2.0 - 2.0 * eta)
    lower, upper = [], []
    for sigma in ((gap2 + shift) / r0, (shift - gap2) / r0):   # far, near
        lower.append(hyp2f1(2.0 * eta - 2.0, eta, 2.0 * eta - 1.0, -sigma))
        upper.append(sigma * _gain_tail(1.0, sigma, eta))
    return float(lead / (eta - 1.0) ** 2 * (lower[0] - lower[1])
                 + 2.0 * lead / (eta - 1.0) * (upper[0] - upper[1]))


def distant_pairs_exact(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Pair contribution from separations above two minimum gaps.

    Closed form of the squared mean minus the squared-intensity weight of
    the excluded near band, valid for lags in [t_lo, t_hi]. The stream
    beyond two minimum gaps is replaced by its squared-intensity far field,
    which is what the pcf-approx covariance route uses.
    """
    _require_lag(t, "pcf-approx", traffic, geom, "distant_pairs_exact")
    mean = mean_interference(traffic, geom)
    return mean * mean + _distant_excess_exact(t, traffic, geom)


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
    _require_lag(t, "pcf-approx", traffic, geom, "close_pairs_numeric")
    return _exact_pair_integral(t, traffic, geom, spec, "close")


def close_pairs_expansion(t: float, traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Second-order (in occupancy) closed form of the close-pairs term.

    Equals occupancy * (2 + occupancy) times the same-vehicle term.
    """
    _require_lag(t, "expansion", traffic, geom, "close_pairs_expansion")
    occ = traffic.occupancy
    return occ * (2.0 + occ) * same_vehicle_term(t, traffic, geom)


def _exact_pair_integral(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                         spec: QuadratureSpec, part: str) -> float:
    """Two-sided pair integral against the exact pair correlation.

    The stream is stationary, so the pair double integral of gain(x) *
    gain(y + shift) collapses onto the separation d = y - x (the
    second-order Campbell formula): the integral of w(d) * K(d + shift),
    K the gain autocorrelation. w is even, so d > 0 carries K(d + shift) +
    K(d - shift). part "close" weights the first-neighbor band (one to two
    minimum gaps) by the pair density, part "deviation" every band within
    the deviation reach (refused past 64 minimum gaps, _settled_reach) by
    the density minus the squared intensity.
    Lengths are in guard radii. The band edges (where the density jumps or
    kinks) and K's kinks are breakpoints, so every piece is smooth. Bands
    of no width (min_gap 0 or vanishing against r0, or reach 0) give 0.
    """
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    shift = t * geom.speed / r0
    if part == "close":
        first, last, offset = 1, 2, 0.0
    else:
        first, last, offset = 0, _settled_reach(traffic), traffic.intensity ** 2
    edges = np.arange(first, last + 1) * traffic.min_gap / r0
    if not edges[-1] > edges[0]:
        return 0.0
    kinks = np.array([shift, abs(shift - 2.0), shift + 2.0])
    # the sorted distinct values np.union1d gives, without the numpy.ma it loads
    points = np.sort(np.concatenate((edges, kinks[(kinks > edges[0]) & (kinks < edges[-1])])))
    points = points[np.concatenate(([True], points[1:] != points[:-1]))]

    def integrand(d: np.ndarray) -> np.ndarray:
        gains = _gain_kernel(np.add.outer(d, (shift, -shift)), eta).sum(axis=1)
        return (_pair_correlation_array(r0 * d, traffic) - offset) * gains

    return r0 ** (2.0 - 2.0 * eta) * integrate_finite(integrand, points, spec)


def variance(traffic: TrafficModel, geom: NetworkGeometry, method: str = "approx") -> float:
    """Interference variance (zero-lag).

    "approx" includes the hardcore thinning factor (1 - occupancy);
    "ppp" is the Poisson-stream variance at the same intensity. Raises
    DomainError where r0**(1 - 2 eta) overflows (_same_vehicle_scale).
    """
    eta = geom.pathloss_exponent
    base = 4.0 * traffic.intensity * _same_vehicle_scale(geom) / (2.0 * eta - 1.0)
    if method == "approx":
        return base * (1.0 - traffic.occupancy)
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
    valid on [t_lo, t_hi]), whose total is the one product
    (1 - occupancy)**2 times the same-vehicle term, formed as such so that
    it does not cancel at high occupancy; its distant excess is that total
    minus the same-vehicle and close-pair terms. The squared mean is
    cancelled symbolically, so the result does not suffer the
    near-equal-difference loss. Raises DomainError where that squared mean
    is not finite (as at an intensity of 1e300).
    """
    if method not in COVARIANCE_METHODS:
        raise ParameterError(
            f"unknown covariance method {method!r}; expected one of {COVARIANCE_METHODS}"
        )
    _require_lag(t, method, traffic, geom, f"covariance ({method})")
    mean = mean_interference(traffic, geom)
    mean_sq = mean * mean
    if not math.isfinite(mean_sq):
        raise DomainError(f"squared mean interference {mean_sq!r} is not finite at intensity "
                          f"{traffic.intensity!r}, guard radius {geom.guard_radius!r} and "
                          f"exponent {geom.pathloss_exponent!r}")
    base = same_vehicle_term(t, traffic, geom)
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
    return CovarianceBreakdown(
        same_vehicle=base,
        distant_pairs=mean_sq + excess,
        close_pairs=close,
        mean_sq=mean_sq,
        covariance=total,
        method=method,
    )


def rho_ppp(t: float, geom: NetworkGeometry) -> float:
    """Correlation coefficient of a Poisson stream: intensity-free.

    Half the gain tail at the lag's shift over its zero-lag value
    (_gain_tail), so it equals 0.5 exactly at zero lag (the
    independent-fading floor) and decays with the lag; valid on [0, t_max].
    """
    _require_lag(t, "ppp", None, geom, "rho_ppp")
    eta = geom.pathloss_exponent
    return 0.5 * float(_gain_tail(1.0, t * geom.speed / geom.guard_radius, eta)
                       / _gain_tail(1.0, 0.0, eta))


def rho(t: float, traffic: TrafficModel, geom: NetworkGeometry,
        method: str = "pcf-approx",
        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Temporal correlation coefficient of the interference at lag t.

    "ppp" ignores the hardcore structure entirely; "expansion" scales the
    Poisson coefficient by (1 - occupancy); "pcf-approx" divides the
    pcf-approx covariance by the thinned variance. The latter two are valid
    on [t_lo, t_hi]. "pcf-approx" raises DomainError where that variance
    falls below the smallest normal float (as at a guard radius of 1e300,
    an exponent of 500 or an intensity of 5e-324): a subnormal divisor has
    already lost its digits, and a zero one has none.
    """
    if method == "ppp":
        return rho_ppp(t, geom)
    if method == "expansion":
        _require_lag(t, "expansion", traffic, geom, "rho (expansion)")
        return (1.0 - traffic.occupancy) * rho_ppp(t, geom)
    if method == "pcf-approx":
        breakdown = covariance(t, traffic, geom, "pcf-approx", spec)
        var = variance(traffic, geom, "approx")
        if not var >= sys.float_info.min:
            raise DomainError(f"variance {var!r} is below the smallest normal float "
                              f"at guard radius {geom.guard_radius!r}, exponent "
                              f"{geom.pathloss_exponent!r} and intensity {traffic.intensity!r}")
        return breakdown.covariance / var
    raise ParameterError(f"unknown rho method {method!r}; expected one of {RHO_METHODS}")


def _far_field(traffic: TrafficModel,
               geom: NetworkGeometry) -> tuple[float, float, float, float]:
    """Far-field constants of the stream: (cv2, edge, rho0, spread).

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
    a0 + a1 s + a2 s**2 + ..., M1 = -intensity * a1 and
    M2 = 2 intensity * a2, which with p the occupancy and m = 1 - p give

        M1 = -p**2 * (1 + 2m + 3m**2) / 12,    M2 = -c * p**2 * m**2 * (1 + 3m) / 12,

    both never positive; edge is |M1| and spread is |M2|, the next order's
    constant (_losses). rho0 is the zero-lag coefficient this gives:
    var(S) = cv2 * E[Q] + |M1| * 2 g(r0)**2 over var(S) + E[Q], with the
    guard zone's two edges. Raises DomainError where that divisor falls
    below the smallest normal float (a guard radius of 1e300 or an
    exponent of 500): both moments have underflowed.
    """
    occ = traffic.occupancy
    m = 1.0 - occ
    cv2 = m * m
    edge = occ * occ * (1.0 + 2.0 * m + 3.0 * m * m) / 12.0
    spread = traffic.min_gap * occ * occ * cv2 * (1.0 + 3.0 * m) / 12.0
    mean_q = 0.5 * variance(traffic, geom, "ppp")
    var_s = cv2 * mean_q + 2.0 * edge * geom.guard_radius ** (-2.0 * geom.pathloss_exponent)
    if not var_s + mean_q >= sys.float_info.min:
        raise DomainError(f"interference variance {var_s + mean_q!r} is below the smallest "
                          f"normal float at guard radius {geom.guard_radius!r}, exponent "
                          f"{geom.pathloss_exponent!r} and intensity {traffic.intensity!r}")
    return cv2, edge, var_s / (var_s + mean_q), spread


def _losses(traffic: TrafficModel, geom: NetworkGeometry, window: tuple[float, float],
            t: float) -> tuple[float, float, float, float]:
    """Moments lost at lag t to the window, to leading order, and a bound
    on the bias of rho they leave.

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
    - the pair terms add (cv2 - 1) * T_t and subtract |M1| * g(e) g(e + u t)
      at each edge: the window's own pair terms carry that edge term (see
      _far_field) and the whole line's do not.

    So lost_var = (1 + cv2) * lost E[Q] - edge_var and
    lost_cov = cv2 * T_t - edge_cov. These are the first two orders of the
    renewal expansion of the lost pair terms. Near an edge at x = e, with
    gains g1(x) and g2(x) of the two slots, the pairs a separation d > 0
    apart that the window loses are those with x beyond e and those
    straddling it, x in (e - d, e]; to second order in d their gain
    products integrate to

        2 int_e g1 g2 + d g1 g2(e) + d**2 (-(g1 g2)'(e) / 2 - int_e g1' g2'),

    the last from the even part of g1(x) g2(x + d) in d and the strip's
    slope. Against h over d > 0 the three give the terms above and the
    next order, M2 * (-(g1 g2)'(e) / 2 - int_e g1' g2') with M2 = -spread
    (_far_field). Beyond the guard zone both addends in the bracket are
    positive and the integral is at most eta / (2 eta + 1) < 1/2 of the
    first (Cauchy-Schwarz, then the mean inequality), so the next-order
    miss at each edge is at most spread * |(g1 g2)'(e)| / 2; the bound
    allows twice that, spread * eta * (e1 e2)**-eta * (1 / e1 + 1 / e2),
    with e1 and e2 the edge's distances at the two slots, for the orders
    beyond. Misses dvar and dcov give rho_W - rho = (rho_W * dvar - dcov)
    / var, both of one sign, with 0 <= rho_W <= rho0, so a bias of at
    most max(rho0 * dvar, dcov) / E[Q_W] (E[Q_W] <= var). The expansion
    needs the gains smooth across the pairs it moves: every lost vehicle
    must sit past the guard zone by the deviation reach, as
    sim.default_window's windows do. For a Poisson stream (min_gap 0)
    cv2 = 1 and M1 = M2 = 0: the losses are exact and the bound is 0.
    """
    w_lo, w_hi = window
    shift = geom.speed * t
    r0 = geom.guard_radius
    if not (w_hi > r0 and -w_lo - shift > r0):
        raise DomainError(f"window {window!r} must cover the guard zone at both slots of lag {t!r}")
    lam = traffic.intensity
    eta = geom.pathloss_exponent
    power = 2.0 * eta - 1.0
    cv2, edge, rho0, spread = _far_field(traffic, geom)
    slot_0 = np.array([w_hi, -w_lo])                # nearest missing distance, each side
    slot_t = np.array([w_hi + shift, -w_lo - shift])
    lost_mean = 0.5 * lam * float(np.sum(slot_0 ** (1.0 - eta)
                                         + slot_t ** (1.0 - eta))) / (eta - 1.0)
    lost_q = 0.5 * lam * float(np.sum(slot_0 ** -power + slot_t ** -power)) / power
    # one scalar tail per side: a 2-element array costs twice as much
    same = lam * float(_gain_tail(min(w_hi, w_hi + shift), shift, eta)
                       + _gain_tail(min(-w_lo, -w_lo - shift), shift, eta))
    edge_cov = edge * float(np.sum((slot_0 * slot_t) ** -eta))
    edge_var = 0.5 * edge * float(np.sum(slot_0 ** (-2.0 * eta) + slot_t ** (-2.0 * eta)))
    next_cov = spread * eta * float(np.sum((slot_0 * slot_t) ** -eta
                                           * (1.0 / slot_0 + 1.0 / slot_t)))
    next_var = spread * eta * float(np.sum(slot_0 ** -(power + 2.0) + slot_t ** -(power + 2.0)))
    kept_q = 0.5 * variance(traffic, geom, "ppp") - lost_q
    return (lost_mean, (1.0 + cv2) * lost_q - edge_var, cv2 * same - edge_cov,
            max(rho0 * next_var, next_cov) / kept_q)
