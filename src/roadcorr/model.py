"""Domain types for a 1-D stream of vehicles with a minimum spacing.

Vehicle positions form a renewal process whose gaps are a hard minimum
spacing plus an exponential overshoot. The receiver sits at the origin and
ignores transmitters closer than a guard radius; beyond it, power decays as
a pure power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wrightomega

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "TrafficModel",
    "NetworkGeometry",
    "TimeLagWindow",
    "pathloss",
    "pair_correlation",
    "normalized_pair_correlation",
    "mean_interference",
]


@dataclass(frozen=True)
class TrafficModel:
    """Stationary vehicle stream on the line.

    intensity is the mean number of vehicles per meter and min_gap the hard
    minimum distance between successive vehicles. Each gap is
    min_gap + Exp(gap_rate), where the rate of the exponential part is
    derived from the two: gap_rate = intensity / (1 - intensity * min_gap).
    """

    intensity: float
    min_gap: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ParameterError(f"intensity must be positive, got {self.intensity!r}")
        if not (math.isfinite(self.min_gap) and self.min_gap >= 0):
            raise ParameterError(f"min_gap must be nonnegative, got {self.min_gap!r}")
        if self.intensity * self.min_gap >= 1.0:
            raise ParameterError(
                "intensity * min_gap must stay below 1 (jammed road), got "
                f"{self.intensity * self.min_gap!r}"
            )

    @classmethod
    def from_intensity(cls, intensity: float, min_gap: float) -> "TrafficModel":
        """Build from vehicles-per-meter and the minimum gap."""
        return cls(intensity=intensity, min_gap=min_gap)

    @property
    def gap_rate(self) -> float:
        """Rate of the exponential part of each gap."""
        return self.intensity / (1.0 - self.intensity * self.min_gap)

    @property
    def occupancy(self) -> float:
        """Fraction of road length covered by minimum gaps (intensity * min_gap)."""
        return self.intensity * self.min_gap


@dataclass(frozen=True)
class NetworkGeometry:
    """Receiver geometry and propagation law.

    guard_radius is the distance below which a transmitter does not
    interfere, pathloss_exponent the power-law decay rate (> 2 so the
    interference variance exists), and speed the common vehicle speed.
    """

    guard_radius: float
    pathloss_exponent: float
    speed: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.guard_radius) and self.guard_radius > 0):
            raise ParameterError(f"guard_radius must be positive, got {self.guard_radius!r}")
        if not (math.isfinite(self.pathloss_exponent) and self.pathloss_exponent > 2):
            raise ParameterError(
                f"pathloss_exponent must exceed 2, got {self.pathloss_exponent!r}"
            )
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ParameterError(f"speed must be positive, got {self.speed!r}")


@dataclass(frozen=True)
class TimeLagWindow:
    """Time-lag regime boundaries for the correlation formulas.

    t_lo is the lag beyond which the nearest-neighbor bands have fully
    cleared their zero-lag overlap (2 * min_gap / speed), t_hi the lag at
    which a neighbor band first reaches the far guard boundary
    (2 * (guard_radius - min_gap) / speed), and t_max the lag at which a
    vehicle can cross the whole guard zone (2 * guard_radius / speed).
    The closed-form pair approximations hold on [t_lo, t_hi].
    """

    t_lo: float
    t_hi: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t_lo <= self.t_hi <= self.t_max) or not math.isfinite(self.t_max):
            raise DomainError(
                f"window must satisfy 0 <= t_lo <= t_hi <= t_max, got "
                f"({self.t_lo!r}, {self.t_hi!r}, {self.t_max!r})"
            )

    @classmethod
    def from_params(cls, traffic: TrafficModel, geom: NetworkGeometry) -> "TimeLagWindow":
        if traffic.min_gap > geom.guard_radius / 2.0:
            raise DomainError(
                f"min_gap {traffic.min_gap!r} exceeds half the guard radius "
                f"{geom.guard_radius!r}; the lag window would be empty"
            )
        return cls(
            t_lo=2.0 * traffic.min_gap / geom.speed,
            t_hi=2.0 * (geom.guard_radius - traffic.min_gap) / geom.speed,
            t_max=2.0 * geom.guard_radius / geom.speed,
        )


def _gain_in_place(dist: np.ndarray, geom: NetworkGeometry, silent: np.ndarray) -> None:
    """Overwrite finite distances dist >= 0 with their gains; silent is a
    bool buffer of dist's shape that receives dist <= guard_radius.

    Silent entries are clamped to the guard radius, so log sees only
    finite, normal, positive values, and zeroed after exp; the clamp
    leaves every other entry as it is, so each gain is
    exp(-exponent * log dist) on its own lane.
    """
    r0 = geom.guard_radius
    np.less_equal(dist, r0, out=silent)
    np.maximum(dist, r0, out=dist)
    np.log(dist, out=dist)
    np.multiply(dist, -geom.pathloss_exponent, out=dist)
    np.exp(dist, out=dist)
    np.copyto(dist, 0.0, where=silent)


def pathloss(r, geom: NetworkGeometry):
    """Power-law gain |r| ** -exponent outside the guard zone, 0 inside.

    The boundary |r| == guard_radius counts as inside (gain 0), and
    |r| = inf gives 0. A NaN distance raises ParameterError. Accepts a
    scalar or a numpy array and returns the matching shape in a fresh
    buffer; the argument is never modified.

    The power is taken as exp(-exponent * log|r|), about twice as fast as
    numpy's vectorised pow on a simulator block and one pass for any
    exponent. Its relative error against pow is at most about
    (|exponent * ln|r|| + 2) ulp: log's half ulp, carried through the
    product, is scaled by the size of the exponent. Infinite distances are
    first set to 0, which makes them silent; silent entries (|r| at or
    inside the guard radius) are then clamped to the guard radius while
    the logarithm and exponential run and are zeroed after them, so log
    sees only finite, normal, positive values. That arithmetic is
    _gain_in_place, which the simulator runs on its own buffers.
    """
    arr = np.asarray(r, dtype=float)
    gains = np.abs(arr, out=np.empty_like(arr))
    if np.isnan(gains).any():
        raise ParameterError("pathloss distance must not be NaN")
    np.copyto(gains, 0.0, where=gains == np.inf)
    _gain_in_place(gains, geom, np.empty(gains.shape, dtype=bool))
    if np.isscalar(r) or arr.ndim == 0:
        return float(gains)
    return gains


# Beyond this many minimum gaps the pair correlation is taken to sit on its
# squared-intensity asymptote.
_ASYMPTOTE_CUTOFF_GAPS = 64.0


def _pair_correlation_array(d: np.ndarray, traffic: TrafficModel) -> np.ndarray:
    """Vectorized core of pair_correlation; d must be nonnegative.

    Band 1 is rate * exp(-rate * (d - c)); band j >= 2, on d > j c, is
    the Erlang(j, rate) density at rem = d - j c, exp(j log rate +
    (j - 1) log rem - rate rem - lgamma j). Bands 2 .. k_max are formed
    as one (band, entry) array, with a term of 0.0 where a band has not
    started, and added to band 1 a row at a time in band order: the sum
    pair_correlation forms for each d alone.
    """
    d = np.asarray(d, dtype=float)
    lam = traffic.intensity
    c = traffic.min_gap
    out = np.full(d.shape, lam * lam)
    if c == 0.0:
        return out
    out[d < c] = 0.0
    mid = (d >= c) & (d <= _ASYMPTOTE_CUTOFF_GAPS * c)
    if not np.any(mid):
        return out
    dm = d[mid]
    rate = traffic.gap_rate
    k_max = int(math.floor(float(np.max(dm)) / c))
    total = rate * np.exp(-rate * (dm - c))
    if k_max >= 2:
        j = np.arange(2.0, k_max + 1.0)[:, None]
        rem = dm - j * c
        inside = rem > 0.0
        # 1.0 stands in where band j has not started: its log is 0, and its
        # term (zeroed below) is at most the Erlang density's peak, so finite.
        rem = np.where(inside, rem, 1.0)
        lgammas = np.array([math.lgamma(k) for k in range(2, k_max + 1)])[:, None]
        log_terms = j * math.log(rate) + (j - 1.0) * np.log(rem) - rate * rem - lgammas
        terms = np.where(inside, np.exp(log_terms), 0.0)
        for row in terms:
            total += row
    out[mid] = lam * total
    return out


def _deviation_reach(traffic: TrafficModel) -> int:
    """Number of minimum-gap bands until the pair correlation sits on its asymptote.

    rho2 - intensity**2 is intensity * sum A_k exp(s_k d) over the poles
    s_k != 0 of the gap law's Laplace transform rate e**(-s c) / (rate + s):
    A_k = 1 / (c + 1 / (rate + s_k)) and (rate + s_k) c = W_k(x e**x), with
    x = rate c (Feller, vol. II, ch. XI; Corless et al., 1996). The leading
    pair's envelope of the relative deviation is 2 |A_1| / intensity *
    exp(Re(s_1) d); W_1(x e**x) is the Wright omega function at
    x + log x + 2 pi i, which never forms x e**x. Returns the smallest k
    whose envelope at k c is <= 1e-10 (0 for a Poisson stream), or raises
    ConvergenceError carrying the envelope at the last band resolved before
    the 64-gap asymptote.
    """
    x = traffic.gap_rate * traffic.min_gap
    if x == 0.0:
        return 0
    w = wrightomega(complex(x + math.log(x), 2.0 * math.pi))
    decay = x - w.real                                     # -Re(s_1) c
    need = math.log(2.0 * abs(w / (1.0 + w)) / traffic.occupancy / 1e-10)
    left = need - decay * (_ASYMPTOTE_CUTOFF_GAPS - 1.0)   # nats above 1e-10 at the last band
    if left > 0.0:
        raise ConvergenceError(
            f"pair correlation still deviates from its asymptote at "
            f"{_ASYMPTOTE_CUTOFF_GAPS:g} minimum gaps (occupancy {traffic.occupancy!r})",
            best_estimate=_ASYMPTOTE_CUTOFF_GAPS,
            error_bound=1e-10 * math.exp(left),
        )
    return math.ceil(need / decay)


def pair_correlation(d: float, traffic: TrafficModel) -> float:
    """Second-order product density of the vehicle stream at separation d.

    Zero below the minimum spacing; on (k, k+1] minimum gaps it sums the k
    shifted Erlang renewal densities (higher orders evaluated in the log
    domain so they cannot overflow), times the intensity. Beyond 64
    minimum gaps the squared-intensity asymptote is returned, and
    ConvergenceError (carrying _deviation_reach's leading-pole envelope of
    the relative deviation left) is raised where it has not settled by then.
    With min_gap == 0 the stream is Poisson and the density is flat.
    """
    if not (math.isfinite(d) and d >= 0):
        raise ParameterError(f"separation must be nonnegative, got {d!r}")
    if d > _ASYMPTOTE_CUTOFF_GAPS * traffic.min_gap:
        _deviation_reach(traffic)
    return float(_pair_correlation_array(np.array([d]), traffic)[0])


def normalized_pair_correlation(d_over_c: float, traffic: TrafficModel) -> float:
    """Pair correlation at d_over_c minimum gaps, scaled by intensity * gap_rate.

    The scaling makes the value at the minimum spacing equal 1 and the
    far-field asymptote equal 1 - intensity * min_gap. Identically 1 for a
    Poisson stream (min_gap == 0).
    """
    if not (math.isfinite(d_over_c) and d_over_c >= 0):
        raise ParameterError(f"d_over_c must be nonnegative, got {d_over_c!r}")
    if traffic.min_gap == 0.0:
        return 1.0
    d = d_over_c * traffic.min_gap
    return pair_correlation(d, traffic) / (traffic.intensity * traffic.gap_rate)


def mean_interference(traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Mean received interference power (unit transmit power, unit-mean fading).

    Depends on the stream only through its intensity:
    2 * intensity * guard_radius ** (1 - exponent) / (exponent - 1).
    """
    eta = geom.pathloss_exponent
    return 2.0 * traffic.intensity * geom.guard_radius ** (1.0 - eta) / (eta - 1.0)
