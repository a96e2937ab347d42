"""Monte Carlo side: stationary sampling of the vehicle stream and
estimation of interference moments and the lag-t correlation coefficient.

Every estimate runs N_BLOCKS blocks, each on its own counter-based stream.
A block draws one renewal stream from its equilibrium delay, stationary
throughout, and cuts it into consecutive windows, one realization each
(Asmussen & Glynn, Stochastic Simulation, 2007, ch. IV); that one draw
serves every lag of a curve (common random numbers). The gains are
evaluated once per mark of a difference basis of the lag grid
(_shift_schedule; Leech, J. London Math. Soc. 31, 1956), and each lag is
formed from a pair of marks a <= b with b - a the lag: the stream is
stationary, so the passes at the shifts u a and u b are a lag sample of
the window moved by u a. Ten passes serve the canonical 31 lags.

Fading is never drawn: it is unit-mean exponential and independent per
vehicle and slot, so its average given the positions is known in closed
form, and the estimators use that average (Rao-Blackwellisation). The
window reaches past the guard zone by the reach of the stream's pair
deviation and a third of the guard radius, at both slots of every pair,
whatever the sample count; what the vehicles beyond it carry is added
back in closed form (analytic._losses; Cox, Renewal Theory, 1962). Every
window of the stream has the stationary law, so the same correction, and
the bound on the bias it leaves, applies to every realization. The lags
served are [0, t_max], as analytic._lag_range gives them for the
simulation route: estimate_curve refuses any other.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
# by name, so numpy.random loads with the package rather than on the first draw
from numpy.random import Generator, Philox

from .analytic import _losses, _require_lag
from .errors import DomainError, EstimationError, ParameterError
from .model import (NetworkGeometry, TrafficModel, _gain_in_place, _pair_density_scale,
                    mean_interference)

__all__ = [
    "CorrelationEstimate",
    "PairDistanceHistogram",
    "default_window",
    "estimate",
    "estimate_curve",
    "pair_distance_histogram",
]

MIN_SAMPLES = 1000
N_BLOCKS = 20
# Vehicles one block may hold: its positions and its gain buffer take 128 MiB
# each. The default window grows with the deviation reach, so near a jam
# (occupancy 0.999: 9600 km) a block would not fit in memory.
_MAX_BLOCK_VEHICLES = 2 ** 24


def _block_rng(seed: int, index: int) -> Generator:
    if not 0 <= operator.index(seed) < 2 ** 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return Generator(Philox(key=key))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Moment estimates of the interference at lags 0 and t.

    variance pools both slots; rho is covariance over that pooled variance,
    which keeps it within [-1, 1]; se_rho and se_variance are jackknife
    standard errors over the sampling blocks; bias_bound bounds the bias
    of rho left by the window's correction (analytic._losses).
    """

    n: int
    mean: float
    variance: float
    covariance: float
    rho: float
    se_rho: float
    se_variance: float
    bias_bound: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ParameterError("estimate needs at least two samples")
        if abs(self.rho * self.variance - self.covariance) > 1e-12 * max(
                self.variance, abs(self.covariance)):
            raise ParameterError("rho must equal covariance / variance")
        if abs(self.rho) > 1.0 + 1e-9:
            raise ParameterError(f"rho out of range: {self.rho!r}")


def default_window(traffic: TrafficModel, geom: NetworkGeometry,
                   t: float) -> tuple[float, float]:
    """Sampling window [-(W + u t), W] for lags up to t, with
    W = guard_radius + deviation_reach * min_gap + guard_radius / 3.

    The pair deviation vanishes (below 1e-10 of the squared intensity)
    beyond deviation_reach minimum gaps, so every correlated pair the
    window cuts has its inside vehicle past the guard zone at both slots of
    every lag up to t, where the gains are smooth; there the closed-form
    losses of analytic._losses hold, and estimate_curve adds them back.
    Moved right by u a, the window still has both edges at least W from
    the receiver at both slots of any lag t' with a + t' <= t, so the
    same holds for every pair of marks of _shift_schedule.

    The margin of a third of the guard radius keeps _losses' bound
    under a tenth of the canonical curve's noise at a million samples: on
    the canonical stream W is 236 m and the bound at most 1.7e-5 over
    [0, t_max], while the residual measured against the exact route is
    below 1.8e-6 (scripts/window_bias.py). A Poisson stream (reach 0) has
    W = 4/3 guard_radius, its losses exact. The window depends on the
    geometry and the stream alone, not on the sample count; it grows with
    the reach toward a jam (2.3 km at occupancy 0.95).
    """
    half = (geom.guard_radius + traffic.deviation_reach * traffic.min_gap
            + geom.guard_radius / 3.0)
    return (-(half + geom.speed * t), half)


def _require_window(window: tuple[float, float]) -> None:
    w_lo, w_hi = window
    if not (math.isfinite(w_lo) and math.isfinite(w_hi) and w_lo < w_hi):
        raise DomainError(f"window must be finite with w_lo < w_hi, got {window!r}")


def _equilibrium_delay(traffic: TrafficModel, first_uniform: float) -> np.ndarray:
    """Distance from the window edge to the first vehicle, at stationarity.

    The forward-recurrence density of a gap c + Exp(rate) is flat at the
    intensity below c and exponential beyond it; a single uniform draw is
    inverted through that piecewise CDF.
    """
    with np.errstate(divide="ignore"):
        tail = np.log((1.0 - first_uniform) / (1.0 - traffic.occupancy)) / traffic.gap_rate
    tail = traffic.min_gap - tail
    return np.where(first_uniform < traffic.occupancy, first_uniform / traffic.intensity, tail)


def _stream_windows(traffic: TrafficModel, window: tuple[float, float], n_windows: int,
                    rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """One stationary stream cut into n_windows consecutive windows.

    The stream starts at w_lo from the equilibrium delay and is cut at the
    edges w_hi + k L, L = w_hi - w_lo: window k holds (w_hi + (k - 1) L,
    w_hi + k L], and its vehicles less k L are realization k. Consecutive
    windows are weakly dependent. Each chunk of gaps is drawn into the
    stream's own buffer, scaled, offset by the minimum gap and summed in
    place; a chunk that stops short of the last edge is followed by
    another. Returns the positions up to the last edge, ascending and
    unshifted, and each window's vehicle count.
    """
    w_lo, w_hi = window
    edges = w_hi + (w_hi - w_lo) * np.arange(n_windows)
    pos = np.array([w_lo + _equilibrium_delay(traffic, rng.random())])
    while pos[-1] <= edges[-1]:
        expected = traffic.intensity * (edges[-1] - pos[-1])
        filled = pos.size
        grown = np.empty(filled + int(expected + 4.0 * math.sqrt(expected)) + 1)
        grown[:filled] = pos
        pos, gaps = grown, grown[filled:]
        rng.standard_exponential(out=gaps)
        gaps *= 1.0 / traffic.gap_rate
        gaps += traffic.min_gap
        tail = pos[filled - 1:]
        np.cumsum(tail, out=tail)
    cuts = np.searchsorted(pos, edges, side="right")
    return pos[:cuts[-1]], np.diff(cuts, prepend=0)


def _shift_schedule(lags: Sequence[float]) -> tuple[list[float], list[tuple[int, int]]]:
    """Marks in [0, max lag] whose differences hold every lag, and each
    lag's pair of marks.

    The stream is stationary, so gain passes at the shifts u a and u b,
    a <= b, form a lag-(b - a) sample, seen from the window moved by u a:
    one pass per mark serves every lag two marks span (a difference basis,
    Leech, J. London Math. Soc. 31, 1956). The marks start as {0, max lag};
    while a lag is uncovered, the greedy tries m - t and m + t, for every
    mark m, that lie in [0, max lag], with t the largest uncovered lag, and
    adds the one that covers the most uncovered lags, the smallest on a
    tie. A lag t is covered when b - a == t exactly in floats; its pair is
    the covering (a, b) with the smallest a, so lag 0, the largest lag and
    a lone lag t take (0, t). The marks come back ascending, the pairs as
    indices into them, in the order of the lags. There are never more
    marks than one plus the distinct nonzero lags, the passes one lag at
    a time would take: 10 on the canonical 31-lag grid.
    """
    top = max(lags)
    marks = sorted({0.0, top})
    uncovered = set(lags) - {b - a for i, a in enumerate(marks) for b in marks[i:]}
    while uncovered:
        t = max(uncovered)
        candidates = sorted({c for m in marks for c in (m - t, m + t) if 0.0 <= c <= top}
                            - set(marks))
        best = max(candidates, key=lambda c: len(uncovered & {abs(c - m) for m in marks}))
        uncovered -= {abs(best - m) for m in marks}
        marks = sorted(marks + [best])
    first: dict[float, tuple[int, int]] = {}
    for i, a in enumerate(marks):
        for j in range(i, len(marks)):
            first.setdefault(marks[j] - a, (i, j))
    return marks, [first[t] for t in lags]


def _block_sums(traffic: TrafficModel, geom: NetworkGeometry, marks: list[float],
                pairs: list[tuple[int, int]], n_rows: int, window: tuple[float, float],
                rng: Generator) -> np.ndarray:
    """Additive moment sums of n_rows realizations, one row of sums per pair
    of marks (see _shift_schedule).

    Given the positions, unit-mean exponential fading independent per
    vehicle and slot averages out: with S_s = sum g(x + u s) and
    Q_s = sum g(x + u s)**2, E[I_a I_b | X] = S_a S_b (the two slots fade
    independently, even when a == b) and E[I_b**2 | X] = S_b**2 + Q_b. For
    the pair (a, b) the columns are n, sum d_a, sum d_b, sum d_a**2,
    sum d_b**2, sum d_a d_b, sum Q_a and sum Q_b, where
    d_s = S_s - mean_interference keeps the later subtractions from
    cancelling digits: the lag-(b - a) sums of the window moved by u a.
    One position draw serves every pair, and each mark is evaluated once.
    The rows are consecutive windows of one stream (_stream_windows); less
    their window's offset, its positions are every row's vehicles laid end
    to end, and every gain pass runs on them only. The block allocates one
    gain buffer and one mask; each mark shifts the positions into the
    buffer and runs pathloss's kernel (model._gain_in_place) on it in
    place, without pathloss's NaN and inf checks, since the positions are
    finite. Row sums are np.add.reduceat over the segments of the rows that
    hold a vehicle; an empty row sums to 0. Q_s squares the gains in place
    and sums them, a pairwise sum that stays off BLAS (whose threads spin
    in np.vdot).
    """
    centre = mean_interference(traffic, geom)
    flat, counts = _stream_windows(traffic, window, n_rows, rng)
    flat -= np.repeat((window[1] - window[0]) * np.arange(n_rows), counts)
    rows = np.flatnonzero(counts)  # reduceat would give an empty segment the next gain
    starts = (np.cumsum(counts) - counts)[rows]
    gains = np.empty_like(flat)
    silent = np.empty(flat.shape, dtype=bool)

    def totals(shift: float) -> tuple[np.ndarray, float]:
        np.add(flat, shift, out=gains)
        np.abs(gains, out=gains)
        _gain_in_place(gains, geom, silent)
        sums = np.zeros(n_rows)
        sums[rows] = np.add.reduceat(gains, starts)
        return sums - centre, float(np.square(gains, out=gains).sum())

    passes = [totals(geom.speed * m) for m in marks]
    out = np.empty((len(pairs), 8))
    for j, (a, b) in enumerate(pairs):
        (da, qa), (db, qb) = passes[a], passes[b]
        out[j] = (n_rows, da.sum(), db.sum(), da @ da, db @ db, da @ db, qa, qb)
    return out


def _moments(sums: np.ndarray, lost_var: float,
             lost_cov: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance and covariance, each with the window's loss added, and the
    mean deviation, from block sums (last axis)."""
    n, a0, at, a00, att, a0t, q0, qt = np.moveaxis(sums, -1, 0)
    s00 = (a00 - a0 * a0 / n) / (n - 1.0)
    stt = (att - at * at / n) / (n - 1.0)
    cov = (a0t - a0 * at / n) / (n - 1.0)
    var = 0.5 * (s00 + stt) + 0.5 * (q0 + qt) / n
    if not np.all((q0 + qt > 0.0) & np.isfinite(var) & (var > 0.0)):
        raise EstimationError("degenerate sample variance; no vehicle outside the guard zone?")
    return var + lost_var, cov + lost_cov, 0.5 * (a0 + at) / n


def estimate_curve(traffic: TrafficModel, geom: NetworkGeometry,
                   t_grid: Sequence[float], n_samples: int, seed: int, *,
                   window: tuple[float, float] | None = None) -> list[CorrelationEstimate]:
    """Monte Carlo moments and correlation coefficient at every lag of t_grid.

    Work is split into N_BLOCKS blocks, each driven by its own
    counter-based stream keyed by (seed, block index), with seed in
    [0, 2**64). A block cuts its realizations from one stationary stream
    in the window of the largest lag (default_window unless given) and
    runs one gain pass per mark of the grid's _shift_schedule on them;
    each lag t is formed from its pair of marks (a, b), b - a = t, on the
    window moved by u a. So the curve's errors are correlated across
    lags. Fading is integrated out exactly (see _block_sums). The mean,
    variance and covariance lost outside the moved window are added back
    in closed form (analytic._losses), to the totals and to every
    leave-one-out alike, so the window must cover the guard zone at both
    slots of the largest lag, and then does at both slots of every pair;
    each estimate's bias_bound is the bound _losses gives for its lag on
    its moved window. A lag whose pair is (0, t), as lag 0, the largest
    lag and the single lag of estimate always are, is estimate(t) on the
    same window bit for bit; any other lag is the estimate its two marks
    give alone, whichever other marks the schedule holds. Standard errors
    are a leave-one-block-out jackknife over independent blocks. Raises
    DomainError, before sampling, where a block would hold more than
    _MAX_BLOCK_VEHICLES vehicles (the default window near a jam, or a
    huge sample count).
    """
    lags = [float(t) for t in t_grid]
    if not lags:
        raise ParameterError("t_grid must hold at least one lag")
    for t in lags:
        _require_lag(t, "simulation", traffic, geom, "estimate_curve")
    if n_samples < MIN_SAMPLES:
        raise ParameterError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if window is None:
        window = default_window(traffic, geom, max(lags))
    _require_window(window)
    marks, pairs = _shift_schedule(lags)
    w_lo, w_hi = window
    shifts = [geom.speed * marks[a] for a, _ in pairs]
    losses = [_losses(traffic, geom, (w_lo + s, w_hi + s), t) for s, t in zip(shifts, lags)]
    base, rem = divmod(n_samples, N_BLOCKS)
    rows = base + (1 if rem else 0)                     # the largest block's
    block = traffic.intensity * (window[1] - window[0]) * rows
    if not block <= _MAX_BLOCK_VEHICLES:
        raise DomainError(f"a block of {rows} windows of {window[1] - window[0]!r} m would "
                          f"hold about {block:.3g} vehicles, more than {_MAX_BLOCK_VEHICLES} "
                          f"(occupancy {traffic.occupancy!r})")
    blocks = np.stack([
        _block_sums(traffic, geom, marks, pairs, base + (1 if k < rem else 0), window,
                    _block_rng(seed, k))
        for k in range(N_BLOCKS)])
    centre = mean_interference(traffic, geom)
    scale = (N_BLOCKS - 1) / N_BLOCKS
    out = []
    for j, (lost_mean, lost_var, lost_cov, bias_bound) in enumerate(losses):
        sums = blocks[:, j]
        total = sums.sum(axis=0)
        variance, covariance, mean_dev = _moments(total, lost_var, lost_cov)
        loo_var, loo_cov, _ = _moments(total - sums, lost_var, lost_cov)
        loo_rho = loo_cov / loo_var
        out.append(CorrelationEstimate(
            n=n_samples,
            mean=centre + float(mean_dev) + lost_mean,
            variance=float(variance),
            covariance=float(covariance),
            rho=float(covariance / variance),
            se_rho=math.sqrt(scale * float(np.sum((loo_rho - loo_rho.mean()) ** 2))),
            se_variance=math.sqrt(scale * float(np.sum((loo_var - loo_var.mean()) ** 2))),
            bias_bound=bias_bound,
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
    """Accumulate ordered pair separations within each of n_realizations
    consecutive windows of one stationary stream (see _stream_windows).

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
    scale = _pair_density_scale(traffic)
    edges = bin_width * np.arange(bins + 1)
    max_d = edges[-1]
    pos, sizes = _stream_windows(traffic, window, n_realizations, _block_rng(seed, 0))
    owner = np.repeat(np.arange(n_realizations), sizes)
    counts = np.zeros(n_realizations * bins, dtype=np.intp)
    # Pairs `order` vehicles apart, order = 1, 2, ...: separations grow with the
    # order, and a pair that spans a window edge spans it at every higher order,
    # so the first order that keeps no pair ends the count.
    for order in range(1, pos.size):
        seps = pos[order:] - pos[:-order]
        kept = (owner[order:] == owner[:-order]) & (seps <= max_d)
        if not kept.any():
            break
        seps = seps[kept]
        # np.histogram's edge rule: bin k is [e_k, e_k+1), and the last bin also holds max_d.
        bin_index = np.searchsorted(edges, seps, side="right") - 1
        bin_index[seps == max_d] = bins - 1
        counts += np.bincount(owner[order:][kept] * bins + bin_index,
                              minlength=n_realizations * bins)
    # each unordered pair was counted once; the density is of ordered pairs
    counts = 2.0 * counts.reshape(n_realizations, bins)
    length = w_hi - w_lo
    measure = 2.0 * bin_width * (length - 0.5 * (edges[:-1] + edges[1:]))
    mean_counts = counts.mean(axis=0)
    se_counts = counts.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    density = mean_counts / measure
    se = se_counts / measure
    return PairDistanceHistogram(
        bin_edges=edges,
        density=density,
        se=se,
        normalized=density / scale,
        normalized_se=se / scale,
        n_realizations=n_realizations,
    )
