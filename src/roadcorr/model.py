"""Domain types for a 1-D stream of vehicles with a minimum spacing.

Vehicle positions form a renewal process whose gaps are a hard minimum
spacing plus an exponential overshoot; TrafficModel holds what that gap law
implies (gap rate, occupancy, deviation reach, Erlang normalisers), the
costly parts derived once per stream. The receiver sits at the origin and
ignores transmitters closer than a guard radius; beyond it, power decays as
a pure power law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "TrafficModel",
    "NetworkGeometry",
    "pathloss",
    "pair_correlation",
    "normalized_pair_correlation",
    "mean_interference",
]

# Beyond this many minimum gaps the pair correlation is taken to sit on its
# squared-intensity asymptote.
_ASYMPTOTE_CUTOFF_GAPS = 64.0
# Newton steps allowed to _wright_omega; it takes at most five from 0 to a jam.
_OMEGA_STEPS = 32


def _wright_omega(z: complex) -> complex:
    """Wright omega at z off its branch cuts: the w with w + Log w = z.

    Newton's method from z - Log z, each step (w + Log w - z) * w / (w + 1),
    stops once a step is at most 4e-16 |w| (a tighter bound can stall on the
    last ulp). Raises ConvergenceError, carrying the last w and step, if
    _OMEGA_STEPS steps do not get there.
    """
    w = z - cmath.log(z)
    for _ in range(_OMEGA_STEPS):
        step = (w + cmath.log(w) - z) * w / (w + 1.0)
        w -= step
        if abs(step) <= 4e-16 * abs(w):
            return w
    raise ConvergenceError(f"Wright omega at {z!r} did not settle in {_OMEGA_STEPS} Newton steps",
                           best_estimate=w, error_bound=abs(step))


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
        if self.occupancy >= 1.0:
            raise ParameterError(f"intensity * min_gap must stay below 1 (jammed road), "
                                 f"got {self.occupancy!r}")

    @classmethod
    def from_intensity(cls, intensity: float, min_gap: float) -> "TrafficModel":
        """Build from vehicles-per-meter and the minimum gap."""
        return cls(intensity=intensity, min_gap=min_gap)

    @property
    def gap_rate(self) -> float:
        """Rate of the exponential part of each gap."""
        return self.intensity / (1.0 - self.occupancy)

    @property
    def occupancy(self) -> float:
        """Fraction of road length covered by minimum gaps (intensity * min_gap)."""
        return self.intensity * self.min_gap

    @cached_property
    def _leading_pole(self) -> tuple[float, float]:
        """(need, decay) of the pair deviation's envelope, (0, 0) where rate * c is 0.

        rho2 - intensity**2 is intensity * sum A_k exp(s_k d) over the poles
        s_k != 0 of the gap law's Laplace transform rate e**(-s c) / (rate + s):
        A_k = 1 / (c + 1 / (rate + s_k)) and (rate + s_k) c = W_k(x e**x), with
        x = rate c (Feller, vol. II, ch. XI; Corless et al., 1996). The leading
        pair's envelope of the relative deviation is 2 |A_1| / intensity *
        exp(Re(s_1) d); W_1(x e**x) is the Wright omega function at
        x + log x + 2 pi i, which never forms x e**x, solved by Newton's
        method in pure Python (_wright_omega). need is log(envelope at 0 /
        1e-10), formed as a sum so that a vanishing occupancy cannot
        overflow it, and decay = -Re(s_1) c, the nats the envelope loses per
        minimum gap.
        """
        x = self.gap_rate * self.min_gap
        if x == 0.0:
            return 0.0, 0.0
        w = _wright_omega(complex(x + math.log(x), 2.0 * math.pi))
        need = math.log(2.0 * abs(w / (1.0 + w))) - math.log(self.occupancy) + math.log(1e10)
        return need, x - w.real

    @property
    def deviation_reach(self) -> int:
        """Number of minimum-gap bands until the pair correlation sits on its asymptote.

        The smallest k whose envelope of the relative deviation at k c is
        <= 1e-10 (_leading_pole), 0 where rate * c is 0, with no cap: 9
        bands at occupancy 0.2, 152 at 0.9 and 527 at 0.95. Raises
        ConvergenceError where the envelope does not decay in floating
        point (within about 1e-6 of a jam, x - Re(w) is lost to rounding).
        The pair density itself is resolved to 64 minimum gaps only;
        _settled_reach refuses a reach beyond them.
        """
        need, decay = self._leading_pole
        if need == 0.0:                                        # rate * c is 0
            return 0
        reach = need / decay if decay > 0.0 else math.inf
        if not reach < 2.0 ** 53:
            raise ConvergenceError(
                f"pair deviation does not decay in floating point "
                f"(occupancy {self.occupancy!r}, decay {decay!r} per minimum gap)",
                best_estimate=reach, error_bound=math.inf)
        return math.ceil(reach)

    @cached_property
    def _erlang_logs(self) -> tuple[float, np.ndarray]:
        """log(gap_rate) and the column of lgamma(j) for the Erlang bands j = 2 .. 64."""
        bands = range(2, int(_ASYMPTOTE_CUTOFF_GAPS) + 1)
        return math.log(self.gap_rate), np.array([math.lgamma(j) for j in bands])[:, None]


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
        log_rate, lgammas = traffic._erlang_logs
        log_terms = j * log_rate + (j - 1.0) * np.log(rem) - rate * rem - lgammas[:k_max - 1]
        terms = np.where(inside, np.exp(log_terms), 0.0)
        for row in terms:
            total += row
    out[mid] = lam * total
    return out


def _settled_reach(traffic: TrafficModel) -> int:
    """deviation_reach where it lies within the 64 minimum gaps the pair
    density resolves; otherwise raises ConvergenceError carrying the
    envelope of the deviation left at the last band resolved. Checked
    before the reach is formed, so a stream within rounding of a jam is
    refused here too."""
    need, decay = traffic._leading_pole
    left = need - decay * (_ASYMPTOTE_CUTOFF_GAPS - 1.0)   # nats above 1e-10 at the last band
    if left > 0.0:
        raise ConvergenceError(
            f"pair correlation still deviates from its asymptote at "
            f"{_ASYMPTOTE_CUTOFF_GAPS:g} minimum gaps (occupancy {traffic.occupancy!r})",
            best_estimate=_ASYMPTOTE_CUTOFF_GAPS,
            error_bound=1e-10 * math.exp(left),
        )
    return traffic.deviation_reach


def _separations(d, what: str) -> np.ndarray:
    arr = np.asarray(d, dtype=float)
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise ParameterError(f"{what} must be finite and nonnegative, got {d!r}")
    return arr


def pair_correlation(d, traffic: TrafficModel):
    """Second-order product density of the vehicle stream at separation d.

    Zero below the minimum spacing; on (k, k+1] minimum gaps it sums the k
    shifted Erlang renewal densities (higher orders evaluated in the log
    domain so they cannot overflow), times the intensity. Beyond 64
    minimum gaps the squared-intensity asymptote is returned, and
    ConvergenceError (carrying the envelope of the deviation left, see
    _settled_reach) is raised where it has not settled by then. A Poisson stream
    (min_gap 0) is flat. Takes a scalar (returns a float) or an array of
    any shape; a NaN, infinite or negative entry raises ParameterError.
    """
    arr = _separations(d, "separation")
    if np.any(arr > _ASYMPTOTE_CUTOFF_GAPS * traffic.min_gap):
        _settled_reach(traffic)                 # raises where the far field has not settled
    values = _pair_correlation_array(arr, traffic)
    return float(values) if values.ndim == 0 else values


def _pair_density_scale(traffic: TrafficModel) -> float:
    """intensity * gap_rate, the pair density at the minimum spacing, which
    normalizes it; raises DomainError where it underflows to 0 (an
    intensity below about 1e-162 at min_gap 1)."""
    scale = traffic.intensity * traffic.gap_rate
    if scale == 0.0:
        raise DomainError(f"intensity {traffic.intensity!r} is too small to normalize: "
                          f"intensity * gap_rate underflows to 0")
    return scale


def normalized_pair_correlation(d_over_c, traffic: TrafficModel):
    """Pair correlation at d_over_c minimum gaps, scaled by intensity * gap_rate.

    The scaling makes the value at the minimum spacing equal 1 and the
    far-field asymptote equal 1 - occupancy. Identically 1 for a Poisson
    stream (min_gap == 0). Takes a scalar or an array, as pair_correlation.
    Raises DomainError where the scale underflows to 0 (_pair_density_scale).
    """
    arr = _separations(d_over_c, "d_over_c")
    if traffic.min_gap == 0.0:
        return 1.0 if arr.ndim == 0 else np.ones_like(arr)
    scale = _pair_density_scale(traffic)
    return pair_correlation(arr * traffic.min_gap, traffic) / scale


def mean_interference(traffic: TrafficModel, geom: NetworkGeometry) -> float:
    """Mean received interference power (unit transmit power, unit-mean fading).

    Depends on the stream only through its intensity:
    2 * intensity * guard_radius ** (1 - exponent) / (exponent - 1).
    """
    eta = geom.pathloss_exponent
    return 2.0 * traffic.intensity * geom.guard_radius ** (1.0 - eta) / (eta - 1.0)
