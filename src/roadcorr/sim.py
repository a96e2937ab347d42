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
from .specfun import hyp2f1

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
# default_window holds the truncation bias to this share of the
# standard-error floor SE_FLOOR * rho0 / sqrt(n_samples).
BIAS_FRACTION = 0.1
SE_FLOOR = 0.4


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


def _far_field(traffic: TrafficModel, geom: NetworkGeometry) -> tuple[float, float, float]:
    """Leading-order far-field constants of the stream: (cv2, edge, rho0).

    Over lengths long against the mean spacing, a renewal stream's pair
    deviation h = rho2 - intensity**2 acts as a point mass of total
    intensity * (cv2 - 1), where cv2 = (1 - occupancy)**2 is the squared
    coefficient of variation of a gap c + Exp(rate) (Cox, Renewal Theory,
    1962). So every pair term over a region where the gain varies slowly
    is cv2 times its same-vehicle term, plus -M1 * g(e) * f(e) at each
    boundary point e of the region (g and f the two slots' gains), where
    M1 is the first moment of h over d > 0. From the Laplace transform of
    the renewal density, M1 = -occupancy**2 * (1 + 2m + 3m**2) / 12 with
    m = 1 - occupancy, never positive; edge is |M1|. rho0 is the zero-lag
    coefficient this gives: var(S) = cv2 * E[Q] + |M1| * 2 g(r0)**2 over
    var(S) + E[Q], with the guard zone's two edges.
    """
    occ = traffic.occupancy
    m = 1.0 - occ
    cv2 = m * m
    edge = occ * occ * (1.0 + 2.0 * m + 3.0 * m * m) / 12.0
    eta = geom.pathloss_exponent
    r0 = geom.guard_radius
    mean_q = 2.0 * traffic.intensity * r0 ** (1.0 - 2.0 * eta) / (2.0 * eta - 1.0)
    var_s = cv2 * mean_q + 2.0 * edge * r0 ** (-2.0 * eta)
    return cv2, edge, var_s / (var_s + mean_q)


def _losses(traffic: TrafficModel, geom: NetworkGeometry, window: tuple[float, float],
            t: float) -> tuple[float, float, float, float]:
    """Moments lost at lag t to the window, with the fading part kept.

    Returns (kept_q, lost_q, lost_var, lost_cov): the pooled E[Q] inside
    the window and outside it, and bounds on the pooled variance and the
    covariance lost (see truncation_bias_bound).
    """
    _require_window(window)
    w_lo, w_hi = window
    shift = geom.speed * t
    r0 = geom.guard_radius
    if not (w_hi > r0 and -w_lo - shift > r0):
        raise DomainError(f"window {window!r} must cover the guard zone at both slots of lag {t!r}")
    lam = traffic.intensity
    eta = geom.pathloss_exponent
    power = 2.0 * eta - 1.0
    cv2, edge, _ = _far_field(traffic, geom)
    slot_0 = np.array([w_hi, -w_lo])                # nearest missing distance, each side
    slot_t = np.array([w_hi + shift, -w_lo - shift])
    near = np.minimum(slot_0, slot_t)
    lost_q = 0.5 * lam * float(np.sum(slot_0 ** -power + slot_t ** -power)) / power
    same = lam * float(np.sum(near ** -power / power
                              * hyp2f1(power, eta, 2.0 * eta, -shift / near)))
    edge_cov = edge * float(np.sum((slot_0 * slot_t) ** -eta))
    edge_var = 0.5 * edge * float(np.sum(slot_0 ** (-2.0 * eta) + slot_t ** (-2.0 * eta)))
    kept_q = 2.0 * lam * r0 ** -power / power - lost_q
    return kept_q, lost_q, (1.0 + cv2) * lost_q + edge_var, cv2 * same + edge_cov


def truncation_bias_bound(traffic: TrafficModel, geom: NetworkGeometry,
                          window: tuple[float, float], t: float) -> float:
    """Bound on |rho_W - rho| at lag t: the bias in the correlation
    coefficient from sampling only the vehicles inside the window.

    The window [w_lo, w_hi] holds the slot-0 positions, and must cover the
    guard zone at both slots. Losing the vehicles outside it lowers the
    covariance by dcov and the pooled variance by dvar, so
    rho_W - rho = (rho_W * dvar - dcov) / var. Both losses are
    nonnegative to leading order and 0 <= rho_W <= rho0, so the bias is at
    most max(rho0 * dvar, dcov) / E[Q_W]; E[Q_W], the fading part of the
    sampled variance, is a lower bound on all of it. The losses have
    three terms:

    - the same-vehicle tail T_t = intensity * integral of g(x) g(x + u t)
      over the x outside the window, exact (a 2F1 per side); at lag 0
      this is the lost E[Q], which dvar holds in full;
    - the deviation tail (cv2 - 1) * T_t, so that the two sum to
      cv2 * T_t (see _far_field); likewise cv2 times the lost E[Q] is the
      lost var(S) in dvar;
    - an allowance for the edge term: |M1| * g(e) * g(e + u t) summed over
      the two window edges e. At leading order the edge term lowers the
      loss by this much; the bound adds it instead, to cover higher
      orders in 1 / (intensity * W).

    For a Poisson stream (min_gap 0) cv2 = 1, M1 = 0 and rho0 = 1/2, so
    the losses are exact.
    """
    kept_q, _, lost_var, lost_cov = _losses(traffic, geom, window, t)
    return max(_far_field(traffic, geom)[2] * lost_var, lost_cov) / kept_q


def default_window(traffic: TrafficModel, geom: NetworkGeometry, t: float,
                   n_samples: int) -> tuple[float, float]:
    """Sampling window [-(W + u t), W] for lags up to t, as small as the
    bias it leaves allows.

    W = guard_radius + speed * t_max + m, with the smallest margin m >= 0
    (in whole meters) that holds truncation_bias_bound at every lag in
    [0, t] to BIAS_FRACTION of the standard-error floor
    SE_FLOOR * rho0 / sqrt(n_samples). The floor sits below the smallest
    jackknife se_rho over the lags (at least 0.41 rho0 / sqrt(n) in 30
    seeds on each perfbench stream; scripts/window_bias.py), so the bias
    stays a tenth of the noise. W grows like n_samples ** (1 / (4 eta - 2)).
    m is solved for by
    bisection on the bound of the symmetric window [-W, W] at lag 0: every
    missing distance there is W, the nearest any lag up to t can have, so
    it bounds the bound at each of those lags.
    """
    if n_samples < 1:
        raise ParameterError(f"need at least one sample, got {n_samples}")
    target = BIAS_FRACTION * SE_FLOOR * _far_field(traffic, geom)[2] / math.sqrt(n_samples)
    base = geom.guard_radius + geom.speed * TimeLagWindow.from_params(traffic, geom).t_max

    def holds(margin: int) -> bool:
        half = base + margin
        return truncation_bias_bound(traffic, geom, (-half, half), 0.0) <= target

    lo, hi = -1, 0                      # the bound fails at margin lo, holds at hi
    while not holds(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    half = base + hi
    return (-(half + geom.speed * t), half)


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
    is evaluated once. Q_t squares the gains in place and sums them, a
    pairwise sum that stays off BLAS (whose threads spin in np.vdot).
    Vehicles past the window edge are marked with inf, which pathloss
    treats as silent (gain 0) without taking their logarithm.
    """
    w_hi = window[1]
    centre = mean_interference(traffic, geom)
    pos = _position_matrix(traffic, window, n_rows, rng)
    beyond = pos > w_hi
    pos = pos[:, :int(np.argmax(beyond, axis=1).max())]  # rows ascend
    pos[beyond[:, :pos.shape[1]]] = np.inf  # gain 0

    def totals(shift: float) -> tuple[np.ndarray, float]:
        gains = pathloss(pos + shift, geom)
        dev = gains.sum(axis=1) - centre
        return dev, float(np.square(gains, out=gains).sum())

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
        window = default_window(traffic, geom, max(lags), n_samples)
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
    seps = []
    for _ in range(n_realizations):
        pos = _position_matrix(traffic, window, 1, rng)[0]
        pos = pos[pos <= w_hi]
        upper = np.searchsorted(pos, pos + max_d, side="right")
        # Every pair j < k < upper[j], laid out j by j as k = j + 1 + offset.
        index = np.arange(pos.size)
        lengths = np.maximum(upper - index - 1, 0)
        first = np.repeat(index, lengths)
        offset = np.arange(first.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        seps.append(pos[first + 1 + offset] - pos[first])
    owner = np.repeat(np.arange(n_realizations), [s.size for s in seps])
    seps = np.concatenate(seps)
    # np.histogram's edge rule: bin k is [e_k, e_k+1), the last bin also
    # holds max_d, and longer separations are dropped (none is negative).
    bin_index = np.searchsorted(edges, seps, side="right") - 1
    bin_index[seps == max_d] = bins - 1
    kept = bin_index < bins
    counts = np.bincount(owner[kept] * bins + bin_index[kept],
                         minlength=n_realizations * bins).reshape(n_realizations, bins)
    counts = 2.0 * counts  # unordered pairs counted once above; density is ordered
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
