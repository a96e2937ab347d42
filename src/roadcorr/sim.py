"""Monte Carlo side: stationary sampling of the vehicle stream and
estimation of interference moments and the lag-t correlation coefficient.

Every estimate runs N_BLOCKS blocks, each on its own counter-based stream.
A block draws one renewal stream from its equilibrium delay and cuts it
into consecutive windows, one realization each (Asmussen & Glynn,
Stochastic Simulation, 2007, ch. IV); that one draw serves every lag of a
curve. The gains are evaluated once per mark of a difference basis of the
lag grid (_shift_schedule), and each lag is formed from a pair of marks
a <= b with b - a the lag: the stream is stationary, so the passes at the
shifts u a and u b are a lag sample of the window moved by u a.

Fading is never drawn: given the positions its average is known in
closed form, and the estimators use it (Rao-Blackwellisation). The window
reaches past the guard zone by the pair deviation's reach and one minimum
gap, and by at least a fifth of the guard radius, at both slots of every
pair; what the vehicles beyond it carry is added back in closed form to
second order in the renewal expansion (analytic._losses), with a bound on
the bias left. The lags served are [0, t_max] (analytic._lag_range). The
sampler runs in guard radii (model._in_guard_radii), so rho, se_rho and
the bias bound read only the dimensionless inputs; the moments take their
power of r0 at the output (model._dimensional).
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
from .model import (NetworkGeometry, TrafficModel, _dimensional, _gain_in_place,
                    _in_guard_radii, _mean, _pair_density_scale)

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


def _integer(value, what: str) -> int:
    """value as an int where operator.index takes it (an int or a numpy
    integer); ParameterError for anything else, a float such as 1000.5 too."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, got {value!r}") from None


def _block_rng(seed: int, index: int) -> Generator:
    if not 0 <= _integer(seed, "seed") < 2 ** 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return Generator(Philox(key=key))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Moment estimates of the interference at lags 0 and t.

    variance pools both slots; rho is covariance over that pooled variance,
    which keeps it within [-1, 1]; se_rho and se_variance are jackknife
    standard errors over the sampling blocks; bias_bound bounds the bias
    of rho left by the window's correction (analytic._losses). As a ratio
    of estimates, rho also carries an O(1 / n) bias, 3.5e-4 at 20 000
    samples and 1.1e-4 at 80 000 on the canonical stream (README, Outputs).
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
    W = guard_radius + max((deviation_reach + 1) * min_gap, guard_radius / 5).

    The pair deviation is below 1e-10 of the squared intensity beyond
    deviation_reach minimum gaps, so every correlated pair the window cuts
    has its inside vehicle past the guard zone at both slots of every lag
    up to t, by one minimum gap more, where _losses' closed forms hold
    with strict inequalities; moved right by u a, the window keeps both
    edges at least W from the receiver for any lag t' with a + t' <= t, so
    this holds for every pair of marks too. With the losses carried to
    second order, _losses' bound (twice the third-order term) stays under
    a tenth of the canonical curve's noise at a million samples: there W
    is 190 m and the bound at most 2.1e-6, while the residual against the
    exact route is below 8.6e-8 (scripts/window_bias.py). The floor, a
    fifth of the guard radius, serves the streams whose reach and gap are
    short: a Poisson stream, whose losses are exact at any W past the
    guard zone, and a minimum gap tending to 0, which it joins
    continuously. It keeps the share of the variance the sample holds,
    1 - (r0 / W)**(2 eta - 1) at the window's edge, at 60% or more at
    eta 3 whatever the intensity, and it is below every benchmark stream's
    (reach + 1) c (32 m at occupancy 0.08), so it moves none of them. The
    window does not depend on the sample count; it grows with the reach
    toward a jam (2.3 km at occupancy 0.95).
    """
    r0 = geom.guard_radius
    half = r0 + max((traffic.deviation_reach + 1) * traffic.min_gap, r0 / 5.0)
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
    w_hi + k L], and its vehicles less k L are realization k (consecutive
    windows are weakly dependent). Gaps are drawn in chunks into the
    stream's own buffer and summed in place until the last edge. Returns
    the positions up to it, ascending and unshifted, and each window's
    vehicle count.
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
    lag's pair of marks: a difference basis (Leech, J. London Math. Soc.
    31, 1956), one gain pass per mark.

    The marks start as {0, max lag}; while a lag is uncovered, the greedy
    tries m - t and m + t in [0, max lag], for every mark m and t the
    largest uncovered lag, and adds the one that covers the most uncovered
    lags, the smallest on a tie. A lag t is covered when b - a == t exactly
    in floats; its pair is the covering (a, b) with the smallest a, so lag
    0, the largest lag and a lone lag t take (0, t). The marks come back
    ascending, the pairs as indices into them, in the order of the lags.
    There are never more marks than one plus the distinct nonzero lags:
    10 on the canonical 31-lag grid.
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
                pairs: np.ndarray, centre: float, n_rows: int, window: tuple[float, float],
                rng: Generator, out: np.ndarray) -> None:
    """Additive moment sums of n_rows realizations into out, one row of
    sums per pair of marks, in the caller's unit of length.

    pairs is a (2, lags) index array, the first and second mark of each
    lag (see _shift_schedule), and centre the mean interference; out is a
    (lags, 8) array, which may be a strided view. Given the positions,
    fading averages out: with S_s = sum g(x + u s) and Q_s = sum
    g(x + u s)**2, E[I_a I_b | X] = S_a S_b (the slots fade independently,
    even when a == b) and E[I_b**2 | X] = S_b**2 + Q_b. For the pair
    (a, b) the columns are n, sum d_a, sum d_b, sum d_a**2, sum d_b**2,
    sum d_a d_b, sum Q_a and sum Q_b, d_s = S_s - centre (which keeps the
    later subtractions from cancelling digits): the lag-(b - a) sums of
    the window moved by u a. One position draw serves every pair: the rows
    are consecutive windows of one stream (_stream_windows), laid end to
    end less their offsets. Each mark shifts them into one gain buffer and
    runs model._gain_in_place there, without pathloss's NaN and inf
    checks, since the positions are finite. Row sums are np.add.reduceat
    over the rows that hold a vehicle, written straight into the mark's
    row of the deviations; where a row is empty, into a (marks, non-empty
    rows) array scattered into the deviations once per block (an empty
    row sums to 0), which the common case does without. Q_s squares the
    gains in place and sums them, off BLAS (whose threads spin in
    np.vdot). The deviations of every mark are the rows of one array; each
    mark's square and each pair's cross product is one np.dot of two rows
    per block (10 + 31 on the canonical grid). A BLAS matrix product D D^T
    would form them at once, but its entries' last bits depend on the
    matrix's shape, which would break the bit-for-bit match between a
    curve's lag and estimate's (estimate_curve).
    """
    flat, counts = _stream_windows(traffic, window, n_rows, rng)
    flat -= np.repeat((window[1] - window[0]) * np.arange(n_rows), counts)
    rows = np.flatnonzero(counts)  # reduceat would give an empty segment the next gain
    starts = (np.cumsum(counts) - counts)[rows]
    gains = np.empty_like(flat)
    audible = np.empty(flat.shape, dtype=bool)
    devs = np.zeros((len(marks), n_rows))
    held = devs if rows.size == n_rows else np.empty((len(marks), rows.size))
    q = np.empty(len(marks))
    for i, m in enumerate(marks):
        np.add(flat, geom.speed * m, out=gains)
        np.abs(gains, out=gains)
        _gain_in_place(gains, geom, audible)
        np.add.reduceat(gains, starts, out=held[i])
        q[i] = np.square(gains, out=gains).sum()
    if held is not devs:
        devs[:, rows] = held
    devs -= centre
    sums = devs.sum(axis=1)
    sq = np.array([np.dot(d, d) for d in devs])
    a, b = pairs
    out[:, 0] = n_rows
    out[:, 1], out[:, 2] = sums[a], sums[b]
    out[:, 3], out[:, 4] = sq[a], sq[b]
    out[:, 5] = [np.dot(devs[i], devs[j]) for i, j in pairs.T]
    out[:, 6], out[:, 7] = q[a], q[b]


def _moments(sums: np.ndarray, lost_var: np.ndarray,
             lost_cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance and covariance, each with the window's loss added, and the
    mean deviation, from block sums (last axis): a (lags, 8) array of
    totals or a (lags, blocks, 8) one of leave-one-outs, with the losses
    per lag, shaped to broadcast against the leading axes. Every
    operation is elementwise, so each entry has the bits the same sums
    alone would give. Raises EstimationError where any lag's variance is
    degenerate."""
    n, a0, at, a00, att, a0t, q0, qt = np.moveaxis(sums, -1, 0)
    s00 = (a00 - a0 * a0 / n) / (n - 1.0)
    stt = (att - at * at / n) / (n - 1.0)
    cov = (a0t - a0 * at / n) / (n - 1.0)
    var = 0.5 * (s00 + stt) + 0.5 * (q0 + qt) / n
    if not np.all((q0 + qt > 0.0) & np.isfinite(var) & (var > 0.0)):
        raise EstimationError("degenerate sample variance; no vehicle outside the guard zone?")
    return var + lost_var, cov + lost_cov, 0.5 * (a0 + at) / n


def _jackknife(values: np.ndarray) -> np.ndarray:
    """Leave-one-block-out standard error of each row's statistic: each
    row holds one lag's N_BLOCKS leave-one-out values, contiguous, so the
    row reductions add in the order a 1-D sum of that row would."""
    spread = values - values.mean(axis=1, keepdims=True)
    return np.sqrt((N_BLOCKS - 1) / N_BLOCKS * np.square(spread, out=spread).sum(axis=1))


def estimate_curve(traffic: TrafficModel, geom: NetworkGeometry,
                   t_grid: Sequence[float], n_samples: int, seed: int, *,
                   window: tuple[float, float] | None = None) -> list[CorrelationEstimate]:
    """Monte Carlo moments and correlation coefficient at every lag of t_grid.

    Work is split into N_BLOCKS blocks, each on its own counter-based
    stream keyed by (seed, block index), seed in [0, 2**64). A block cuts
    its realizations from one stationary stream in the window of the
    largest lag (default_window unless given) and runs one gain pass per
    mark of the grid's _shift_schedule; each lag t is formed from its pair
    of marks (a, b), b - a = t, on the window moved by u a, so the curve's
    errors are correlated across lags. The blocks write their sums into
    one (lags, blocks, 8) array, and the moments of every lag come from
    one _moments pass over the totals and one over the leave-one-outs,
    each lag's leave-one-outs a contiguous row. The moments lost outside
    the moved window are added back in closed form (analytic._losses), to
    the totals and every leave-one-out alike, so the window must cover
    the guard zone at both slots of the largest lag; each bias_bound is
    _losses' bound for its lag on its moved window. A lag whose pair is
    (0, t), as lag 0, the largest lag and estimate's single lag, is
    estimate(t) on the same window bit for bit; any other is what its two
    marks give alone. Standard errors are a leave-one-block-out jackknife.
    Raises DomainError, before sampling, where the moments' prefactor
    r0**(-2 eta) is not a normal float or a block would hold more than
    _MAX_BLOCK_VEHICLES vehicles (near a jam, or a huge sample count), and
    EstimationError where any lag's sample variance is degenerate.
    """
    try:
        grid = list(t_grid)
    except TypeError:
        raise ParameterError(f"t_grid must be a sequence of lags, got {t_grid!r}") from None
    if not grid:
        raise ParameterError("t_grid must hold at least one lag")
    for t in grid:
        _require_lag(t, "simulation", traffic, geom, "estimate_curve")
    lags = [float(t) for t in grid]
    if _integer(n_samples, "n_samples") < MIN_SAMPLES:
        raise ParameterError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if window is None:
        window = default_window(traffic, geom, max(lags))
    _require_window(window)
    _dimensional(1.0, geom, 2)      # before sampling; r0**(-eta) is then a normal float too
    unit_traffic, unit_geom = _in_guard_radii(traffic, geom)
    w_lo, w_hi = (edge / geom.guard_radius for edge in window)      # in guard radii too
    marks, pairs = _shift_schedule(lags)
    shifts = [unit_geom.speed * marks[a] for a, _ in pairs]
    losses = np.array([_losses(unit_traffic, unit_geom, (w_lo + s, w_hi + s), t)
                       for s, t in zip(shifts, lags)])
    base, rem = divmod(n_samples, N_BLOCKS)
    rows = base + (1 if rem else 0)                     # the largest block's
    block = unit_traffic.intensity * (w_hi - w_lo) * rows
    if not block <= _MAX_BLOCK_VEHICLES:
        raise DomainError(f"a block of {rows} windows of {window[1] - window[0]!r} m would "
                          f"hold about {block:.3g} vehicles, more than {_MAX_BLOCK_VEHICLES} "
                          f"(occupancy {traffic.occupancy!r})")
    centre = _mean(unit_traffic, unit_geom)
    index = np.array(pairs).T
    blocks = np.empty((len(lags), N_BLOCKS, 8))
    for k in range(N_BLOCKS):
        _block_sums(unit_traffic, unit_geom, marks, index, centre, base + (1 if k < rem else 0),
                    (w_lo, w_hi), _block_rng(seed, k), blocks[:, k])
    total = blocks.sum(axis=1)
    lost_mean, lost_var, lost_cov, bias_bound = losses.T
    variance, covariance, mean_dev = _moments(total, lost_var, lost_cov)
    loo_var, loo_cov, _ = _moments(total[:, None] - blocks, lost_var[:, None],
                                   lost_cov[:, None])
    se_rho = _jackknife(loo_cov / loo_var)
    se_variance = _jackknife(loo_var)
    return [CorrelationEstimate(
        n=n_samples,
        mean=_dimensional(centre + float(mean_dev[j]) + float(lost_mean[j]), geom, 1),
        variance=_dimensional(float(variance[j]), geom, 2),
        covariance=_dimensional(float(covariance[j]), geom, 2),
        rho=float(covariance[j] / variance[j]),
        se_rho=float(se_rho[j]),
        se_variance=_dimensional(float(se_variance[j]), geom, 2),
        bias_bound=float(bias_bound[j]),
    ) for j in range(len(lags))]


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
    if _integer(n_realizations, "n_realizations") < 2:
        raise ParameterError("need at least two realizations")
    if _integer(bins, "bins") < 1:
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
    density = counts.mean(axis=0) / measure
    se = counts.std(axis=0, ddof=1) / math.sqrt(n_realizations) / measure
    return PairDistanceHistogram(edges, density, se, density / scale, se / scale,
                                 n_realizations)
