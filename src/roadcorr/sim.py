"""Monte Carlo side: stationary sampling of the vehicle stream and
estimation of interference moments and the lag-t correlation coefficient.

Sampling starts each realization from the equilibrium delay of the renewal
stream, so windows need no burn-in. Fading is redrawn independently for
each slot of a pair; the analytic same-vehicle term relies on the two slot
gains being independent with unit mean, not merely unit mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, ParameterError
from .model import NetworkGeometry, TimeLagWindow, TrafficModel

__all__ = [
    "CorrelationEstimate",
    "PairMoments",
    "PairDistanceHistogram",
    "default_window",
    "truncation_bias_bound",
    "estimate",
    "pair_distance_histogram",
]

MIN_SAMPLES = 1000
MIN_PARTITIONS_FOR_JACKKNIFE = 20


def _block_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Moment estimates from paired interference samples.

    variance pools both slots; rho is covariance over that pooled variance,
    which keeps it within [-1, 1]; se_rho and se_variance are jackknife
    standard errors over the accumulator partitions.
    """

    n: int
    mean: float
    variance: float
    covariance: float
    rho: float
    se_rho: float
    se_variance: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ParameterError("estimate needs at least two samples")
        if abs(self.rho * self.variance - self.covariance) > 1e-12 * max(
                self.variance, abs(self.covariance)):
            raise ParameterError("rho must equal covariance / variance")
        if abs(self.rho) > 1.0 + 1e-9:
            raise ParameterError(f"rho out of range: {self.rho!r}")


class PairMoments:
    """Bivariate moments: count, means, centered second moments.

    Supports exact batch construction and an order-insensitive merge, so
    partitions can be accumulated independently and combined afterwards.
    """

    __slots__ = ("n", "mean_x", "mean_y", "sxx", "syy", "sxy")

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.sxx = 0.0
        self.syy = 0.0
        self.sxy = 0.0

    @classmethod
    def from_arrays(cls, x: np.ndarray, y: np.ndarray) -> "PairMoments":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ParameterError("paired arrays must be 1-D and equal length")
        out = cls()
        out.n = x.size
        if x.size == 0:
            return out
        out.mean_x = float(np.mean(x))
        out.mean_y = float(np.mean(y))
        dx = x - out.mean_x
        dy = y - out.mean_y
        out.sxx = float(np.dot(dx, dx))
        out.syy = float(np.dot(dy, dy))
        out.sxy = float(np.dot(dx, dy))
        return out

    def merge(self, other: "PairMoments") -> "PairMoments":
        out = PairMoments()
        out.n = self.n + other.n
        if out.n == 0:
            return out
        if self.n == 0:
            out.n, out.mean_x, out.mean_y = other.n, other.mean_x, other.mean_y
            out.sxx, out.syy, out.sxy = other.sxx, other.syy, other.sxy
            return out
        if other.n == 0:
            out.n, out.mean_x, out.mean_y = self.n, self.mean_x, self.mean_y
            out.sxx, out.syy, out.sxy = self.sxx, self.syy, self.sxy
            return out
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        w = self.n * other.n / out.n
        out.mean_x = self.mean_x + dx * other.n / out.n
        out.mean_y = self.mean_y + dy * other.n / out.n
        out.sxx = self.sxx + other.sxx + dx * dx * w
        out.syy = self.syy + other.syy + dy * dy * w
        out.sxy = self.sxy + other.sxy + dx * dy * w
        return out


def default_window(traffic: TrafficModel, geom: NetworkGeometry, t: float) -> tuple[float, float]:
    """Sampling window [-(W + u t), W] sized so truncation bias is controlled.

    W = guard_radius + speed * t_max + 50 / intensity: the traveled distance
    plus fifty mean spacings of margin beyond the guard zone.
    """
    window = TimeLagWindow.from_params(traffic, geom)
    half = geom.guard_radius + geom.speed * window.t_max + 50.0 / traffic.intensity
    return (-(half + geom.speed * t), half)


def truncation_bias_bound(traffic: TrafficModel, geom: NetworkGeometry,
                          window: tuple[float, float], t: float) -> float:
    """Upper bound on the mean interference lost to window truncation.

    Sources beyond each window edge (at either slot) contribute at most the
    intensity times the pathloss tail integral past the nearest missing
    distance.
    """
    w_lo, w_hi = window
    eta = geom.pathloss_exponent
    right = max(w_hi - geom.speed * t, geom.guard_radius)
    left = max(-w_lo - geom.speed * t, geom.guard_radius)
    lam = traffic.intensity
    return lam * (right ** (1.0 - eta) + left ** (1.0 - eta)) / (eta - 1.0)


def _require_window(window: tuple[float, float]) -> None:
    w_lo, w_hi = window
    if not (math.isfinite(w_lo) and math.isfinite(w_hi) and w_lo < w_hi):
        raise DomainError(f"window must be finite with w_lo < w_hi, got {window!r}")


def _equilibrium_delay(traffic: TrafficModel, first_uniform: np.ndarray) -> np.ndarray:
    """Distance from the window edge to the first vehicle, at stationarity.

    The forward-recurrence density of a gap c + Exp(rate) is flat at the
    intensity below c and exponential beyond it; a single uniform draw is
    inverted through that piecewise CDF.
    """
    lam = traffic.intensity
    c = traffic.min_gap
    occupied = lam * c
    with np.errstate(divide="ignore"):
        tail = c - np.log((1.0 - first_uniform) / (1.0 - occupied)) / traffic.gap_rate
    return np.where(first_uniform < occupied, first_uniform / lam, tail)


def _position_matrix(traffic: TrafficModel, window: tuple[float, float],
                     n_rows: int, rng: np.random.Generator) -> np.ndarray:
    """Positions of n_rows independent stationary realizations, one per row.

    Every row is guaranteed to pass the right window edge; entries beyond
    it are present and must be masked by the caller.
    """
    w_lo, w_hi = window
    lam, c, rate = traffic.intensity, traffic.min_gap, traffic.gap_rate
    length = w_hi - w_lo
    expected = length * lam
    n_cols = int(expected + 6.0 * math.sqrt(expected + 1.0) * (1.0 - lam * c) + 16.0)
    delay = _equilibrium_delay(traffic, rng.random((n_rows, 1)))
    gaps = c + rng.exponential(1.0 / rate, size=(n_rows, n_cols))
    pos = w_lo + np.cumsum(np.concatenate([delay, gaps], axis=1), axis=1)
    while float(pos[:, -1].min()) <= w_hi:
        extra = c + rng.exponential(1.0 / rate, size=(n_rows, 16))
        pos = np.concatenate([pos, pos[:, -1:] + np.cumsum(extra, axis=1)], axis=1)
    return pos


def _pair_block(traffic: TrafficModel, geom: NetworkGeometry, t: float,
                n_rows: int, window: tuple[float, float],
                rng: np.random.Generator) -> PairMoments:
    """Paired samples from n_rows realizations, each seen at lags 0 and t.

    Fading is drawn independently per vehicle and per slot.
    """
    w_hi = window[1]
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    pos = _position_matrix(traffic, window, n_rows, rng)
    in_window = pos <= w_hi
    totals = []
    for shift in (0.0, geom.speed * t):
        ax = np.abs(pos + shift)
        gains = np.zeros_like(ax)
        outside = (ax > r0) & in_window
        np.place(gains, outside, ax[outside] ** (-eta))
        fading = rng.exponential(1.0, size=pos.shape)
        totals.append(np.einsum("ij,ij->i", gains, fading))
    return PairMoments.from_arrays(totals[0], totals[1])


def _merge_pairwise(parts: list[PairMoments]) -> PairMoments:
    while len(parts) > 1:
        nxt = [parts[i].merge(parts[i + 1]) if i + 1 < len(parts) else parts[i]
               for i in range(0, len(parts), 2)]
        parts = nxt
    return parts[0]


def estimate(traffic: TrafficModel, geom: NetworkGeometry, t: float,
             n_samples: int, seed: int, n_partitions: int = 8,
             window: tuple[float, float] | None = None) -> CorrelationEstimate:
    """Monte Carlo moments and correlation coefficient at lag t.

    Work is split into max(n_partitions, 20) blocks, each driven by its own
    counter-based stream keyed by (seed, block index), and merged in a fixed
    balanced order: the result is bit-identical for any partition count up
    to that floor, and the block count gives the jackknife enough groups.
    """
    lag_window = TimeLagWindow.from_params(traffic, geom)
    if not (math.isfinite(t) and 0.0 <= t <= lag_window.t_max):
        raise DomainError(f"lag must lie in [0.0, {lag_window.t_max!r}] s, got {t!r}")
    if n_samples < MIN_SAMPLES:
        raise ParameterError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if n_partitions < 1:
        raise ParameterError("n_partitions must be positive")
    if seed < 0:
        raise ParameterError("seed must be nonnegative")
    n_blocks = max(n_partitions, MIN_PARTITIONS_FOR_JACKKNIFE)
    if n_samples // n_blocks < 2:
        raise ParameterError("too many partitions for the sample count")
    if window is None:
        window = default_window(traffic, geom, t)
    _require_window(window)
    base, rem = divmod(n_samples, n_blocks)
    blocks = []
    for k in range(n_blocks):
        rows = base + (1 if k < rem else 0)
        blocks.append(_pair_block(traffic, geom, t, rows, window, _block_rng(seed, k)))
    total = _merge_pairwise(list(blocks))

    def _rho_of(m: PairMoments) -> tuple[float, float]:
        var = (m.sxx + m.syy) / (2.0 * (m.n - 1))
        if not (math.isfinite(var) and var > 0.0):
            raise EstimationError("degenerate sample variance; all draws identical?")
        return var, (m.sxy / (m.n - 1)) / var

    variance, rho = _rho_of(total)
    leave_out = []
    for k in range(n_blocks):
        rest = _merge_pairwise(blocks[:k] + blocks[k + 1:])
        leave_out.append(_rho_of(rest))
    loo = np.array(leave_out)
    scale = (n_blocks - 1) / n_blocks
    se_variance = math.sqrt(scale * float(np.sum((loo[:, 0] - loo[:, 0].mean()) ** 2)))
    se_rho = math.sqrt(scale * float(np.sum((loo[:, 1] - loo[:, 1].mean()) ** 2)))
    return CorrelationEstimate(
        n=total.n,
        mean=0.5 * (total.mean_x + total.mean_y),
        variance=variance,
        covariance=total.sxy / (total.n - 1),
        rho=rho,
        se_rho=se_rho,
        se_variance=se_variance,
    )


@dataclass(frozen=True)
class PairDistanceHistogram:
    """Histogram estimate of the pair density over separation bins.

    density and se are ordered-pair densities per unit length squared;
    normalized divides them by intensity * gap_rate, the scale on which the
    first-neighbor peak is 1 and the far field sits at 1 - occupancy.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    se: np.ndarray
    normalized: np.ndarray
    normalized_se: np.ndarray
    n_realizations: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def pair_distance_histogram(traffic: TrafficModel, window: tuple[float, float],
                            n_realizations: int, bins: int, seed: int,
                            bin_width: float | None = None) -> PairDistanceHistogram:
    """Accumulate ordered pair separations from independent realizations.

    Bins cover (0, bins * bin_width], with the width defaulting to an
    eighth of the minimum gap. Counts are edge-corrected by the number of
    ordered pairs the window can hold at each separation; the standard
    error comes from the spread across realizations.
    """
    if n_realizations < 2:
        raise ParameterError("need at least two realizations")
    if bins < 1:
        raise ParameterError("need at least one bin")
    if bin_width is None:
        bin_width = traffic.min_gap / 8.0 if traffic.min_gap > 0.0 else 1.0 / traffic.intensity
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ParameterError(f"bin width must be positive, got {bin_width!r}")
    _require_window(window)
    w_lo, w_hi = window
    if (w_hi - w_lo) * traffic.intensity < 100.0:
        raise DomainError("window must cover at least one hundred mean spacings")
    edges = bin_width * np.arange(bins + 1)
    max_d = edges[-1]
    rng = _block_rng(seed, 0)
    counts = np.zeros((n_realizations, bins))
    for i in range(n_realizations):
        pos = _position_matrix(traffic, window, 1, rng)[0]
        pos = pos[pos <= w_hi]
        upper = np.searchsorted(pos, pos + max_d, side="right")
        seps = []
        for j in range(pos.size - 1):
            if upper[j] > j + 1:
                seps.append(pos[j + 1:upper[j]] - pos[j])
        if seps:
            counts[i] = np.histogram(np.concatenate(seps), bins=edges)[0]
    counts *= 2.0  # unordered pairs counted once above; density is ordered
    length = w_hi - w_lo
    measure = 2.0 * bin_width * (length - 0.5 * (edges[:-1] + edges[1:]))
    mean_counts = counts.mean(axis=0)
    se_counts = counts.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    density = mean_counts / measure
    se = se_counts / measure
    scale = traffic.intensity * traffic.gap_rate
    return PairDistanceHistogram(
        bin_edges=edges,
        density=density,
        se=se,
        normalized=density / scale,
        normalized_se=se / scale,
        n_realizations=n_realizations,
    )
