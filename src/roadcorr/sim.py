"""Monte Carlo side: stationary sampling of the vehicle stream and
estimation of interference moments and the lag-t correlation coefficient.

Sampling starts each realization from the equilibrium delay of the renewal
stream, so windows need no burn-in. Fading is never drawn: it is unit-mean
exponential and independent per vehicle and slot, so its average given the
positions is known in closed form, and the estimators use that average
(Rao-Blackwellisation). Every estimate runs N_BLOCKS blocks, each on its
own counter-based stream, and one position draw per block serves every lag
of a curve (common random numbers).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, ParameterError
from .model import NetworkGeometry, TimeLagWindow, TrafficModel, mean_interference, pathloss

__all__ = [
    "CorrelationEstimate",
    "PairDistanceHistogram",
    "default_window",
    "truncation_bias_bound",
    "estimate",
    "estimate_curve",
    "pair_distance_histogram",
]

MIN_SAMPLES = 1000
N_BLOCKS = 20


def _block_rng(seed: int, index: int) -> np.random.Generator:
    if not 0 <= operator.index(seed) < 2 ** 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Moment estimates of the interference at lags 0 and t.

    variance pools both slots; rho is covariance over that pooled variance,
    which keeps it within [-1, 1]; se_rho and se_variance are jackknife
    standard errors over the sampling blocks.
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


def _block_sums(traffic: TrafficModel, geom: NetworkGeometry, lags: list[float],
                n_rows: int, window: tuple[float, float],
                rng: np.random.Generator) -> np.ndarray:
    """Additive moment sums of n_rows realizations, one row of sums per lag.

    Given the positions, unit-mean exponential fading independent per
    vehicle and slot averages out: with S_t = sum g(x + u t) and
    Q_t = sum g(x + u t)**2, E[I_0 I_t | X] = S_0 S_t (the two slots fade
    independently, even at t = 0) and E[I_t**2 | X] = S_t**2 + Q_t. The
    columns are n, sum d_0, sum d_t, sum d_0**2, sum d_t**2, sum d_0 d_t,
    sum Q_0 and sum Q_t, where d_t = S_t - mean_interference keeps the
    later subtractions from cancelling digits. One position draw serves
    every lag; gains come from model.pathloss, one pass per lag, and lag 0
    is evaluated once.
    """
    w_hi = window[1]
    centre = mean_interference(traffic, geom)
    pos = _position_matrix(traffic, window, n_rows, rng)
    beyond = pos > w_hi
    pos = pos[:, :int(np.argmax(beyond, axis=1).max())]  # rows ascend
    pos[beyond[:, :pos.shape[1]]] = np.inf  # gain 0

    def totals(shift: float) -> tuple[np.ndarray, float]:
        gains = pathloss(pos + shift, geom)
        return gains.sum(axis=1) - centre, float(np.vdot(gains, gains))

    d0, q0 = totals(0.0)
    out = np.empty((len(lags), 8))
    for j, t in enumerate(lags):
        dt, qt = (d0, q0) if t == 0.0 else totals(geom.speed * t)
        out[j] = (n_rows, d0.sum(), dt.sum(), d0 @ d0, dt @ dt, d0 @ dt, q0, qt)
    return out


def _moments(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance, covariance and mean deviation from block sums (last axis)."""
    n, a0, at, a00, att, a0t, q0, qt = np.moveaxis(sums, -1, 0)
    s00 = (a00 - a0 * a0 / n) / (n - 1.0)
    stt = (att - at * at / n) / (n - 1.0)
    cov = (a0t - a0 * at / n) / (n - 1.0)
    var = 0.5 * (s00 + stt) + 0.5 * (q0 + qt) / n
    if not np.all((q0 + qt > 0.0) & np.isfinite(var) & (var > 0.0)):
        raise EstimationError("degenerate sample variance; no vehicle outside the guard zone?")
    return var, cov, 0.5 * (a0 + at) / n


def estimate_curve(traffic: TrafficModel, geom: NetworkGeometry,
                   t_grid: Sequence[float], n_samples: int, seed: int, *,
                   window: tuple[float, float] | None = None) -> list[CorrelationEstimate]:
    """Monte Carlo moments and correlation coefficient at every lag of t_grid.

    Work is split into N_BLOCKS blocks, each driven by its own
    counter-based stream keyed by (seed, block index), with seed in
    [0, 2**64). A block draws one position matrix for the window of the
    largest lag (default_window unless given) and evaluates every lag on
    it, so the curve's errors are correlated across lags. Fading is
    integrated out exactly (see _block_sums). Each lag's estimate is the
    same whichever other lags share its window. Standard errors are a
    leave-one-block-out jackknife.
    """
    lags = [float(t) for t in t_grid]
    if not lags:
        raise ParameterError("t_grid must hold at least one lag")
    lag_window = TimeLagWindow.from_params(traffic, geom)
    for t in lags:
        if not (math.isfinite(t) and 0.0 <= t <= lag_window.t_max):
            raise DomainError(f"lag must lie in [0.0, {lag_window.t_max!r}] s, got {t!r}")
    if n_samples < MIN_SAMPLES:
        raise ParameterError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if window is None:
        window = default_window(traffic, geom, max(lags))
    _require_window(window)
    base, rem = divmod(n_samples, N_BLOCKS)
    blocks = np.stack([
        _block_sums(traffic, geom, lags, base + (1 if k < rem else 0), window,
                    _block_rng(seed, k))
        for k in range(N_BLOCKS)])
    centre = mean_interference(traffic, geom)
    scale = (N_BLOCKS - 1) / N_BLOCKS
    out = []
    for j in range(len(lags)):
        sums = blocks[:, j]
        total = sums.sum(axis=0)
        variance, covariance, mean_dev = _moments(total)
        loo_var, loo_cov, _ = _moments(total - sums)
        loo_rho = loo_cov / loo_var
        out.append(CorrelationEstimate(
            n=n_samples,
            mean=centre + float(mean_dev),
            variance=float(variance),
            covariance=float(covariance),
            rho=float(covariance / variance),
            se_rho=math.sqrt(scale * float(np.sum((loo_rho - loo_rho.mean()) ** 2))),
            se_variance=math.sqrt(scale * float(np.sum((loo_var - loo_var.mean()) ** 2))),
        ))
    return out


def estimate(traffic: TrafficModel, geom: NetworkGeometry, t: float,
             n_samples: int, seed: int, *,
             window: tuple[float, float] | None = None) -> CorrelationEstimate:
    """Monte Carlo moments and correlation coefficient at lag t:
    estimate_curve on the single lag t."""
    return estimate_curve(traffic, geom, [t], n_samples, seed, window=window)[0]


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
        # Every pair j < k < upper[j], laid out j by j as k = j + 1 + offset.
        index = np.arange(pos.size)
        lengths = np.maximum(upper - index - 1, 0)
        first = np.repeat(index, lengths)
        offset = np.arange(first.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        counts[i] = np.histogram(pos[first + 1 + offset] - pos[first], bins=edges)[0]
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
