"""Tests for the Monte Carlo sampling and estimation routines."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import oracles
from roadcorr.analytic import (_far_field, _losses, covariance, rho, rho_ppp,
                               same_vehicle_term, variance)
from roadcorr.errors import ConvergenceError, DomainError, EstimationError, ParameterError
from roadcorr.model import (
    _ASYMPTOTE_CUTOFF_GAPS,
    NetworkGeometry,
    TrafficModel,
    _pair_correlation_array,
    mean_interference,
    pair_correlation,
    pathloss,
)
from roadcorr.sim import (
    CorrelationEstimate,
    _block_rng,
    _block_sums,
    _equilibrium_delay,
    _shift_schedule,
    _stream_windows,
    default_window,
    estimate,
    estimate_curve,
    pair_distance_histogram,
)
from roadcorr.specfun import QuadratureSpec, integrate_finite

from conftest import SEED

# pair_distance_histogram(traffic, (-1024, 1024), 20 realizations, 24 bins,
# SEED) for the dense conftest stream, by bin index: (density, se). Frozen
# as regression anchors; any change to the sampler's draws moves the counts.
HISTOGRAM_PINS = {
    8: (0.0030825688073394496, 0.00034978811130548725),
    9: (0.003083323137158938, 0.00032754160437861274),
    12: (0.0028407003795763437, 0.0003820318330647288),
    20: (0.0023555391976444605, 0.0003369972078140899),
}

# estimate_curve(from_intensity(0.05, 4), conftest geometry, [0, 5, 30],
# 2000 samples, SEED) by lag: (rho, se_rho, variance, covariance). Frozen
# from realizations cut from one stream per block, on the default window
# (-536, 236), with the closed-form losses added; compared with ==, so any
# change to the draws or the arithmetic shows. The exact route gives rho
# 0.39388, 0.18754 and 0.01946.
CURVE_PINS = {
    0.0: (0.393992428126677, 0.0077523600533353125,
          4.310713231335001e-13, 1.6983883729714708e-13),
    5.0: (0.18801847653011008, 0.007072954365048795,
          4.3323523872689783e-13, 8.145622956458987e-14),
    30.0: (0.01631227161854477, 0.009569067175807711,
           4.323778088442151e-13, 7.053064259698067e-15),
}

# The largest bias bound of _losses over the 31 lags of the canonical
# curve on its default window (-536, 236).
BOUND_PIN = 1.716741079504846e-05


def _loop_windows(traffic, window, n_windows, rng):
    """_stream_windows re-drawn by the same calls on rng, summed one gap at
    a time, and cut window by window by a Python loop: window k's positions
    in (w_hi + (k - 1) L, w_hi + k L], not shifted. Also returns the number
    of chunks the draw took."""
    w_lo, w_hi = window
    length = w_hi - w_lo
    end = w_hi + length * (n_windows - 1)
    pos = [w_lo + _equilibrium_delay(traffic, rng.random())]
    chunks = 0
    while pos[-1] <= end:
        expected = traffic.intensity * (end - pos[-1])
        size = int(expected + 4.0 * math.sqrt(expected)) + 1
        for gap in traffic.min_gap + rng.exponential(1.0 / traffic.gap_rate, size):
            pos.append(pos[-1] + gap)
        chunks += 1
    pos = np.array(pos)
    windows = []
    for k in range(n_windows):
        lower = w_lo if k == 0 else w_hi + length * (k - 1)
        windows.append(pos[(pos > lower) & (pos <= w_hi + length * k)])
    return windows, chunks


def _reference_block_sums(traffic, geom, lags, n_rows, window, rng):
    """_block_sums on the schedule of lags, rebuilt on the oracle: the
    loop-cut windows, each less its offset, laid end to end and row-summed
    by np.add.reduceat over the rows that hold a vehicle (a row with none
    sums to 0), both shifts of every lag's pair of marks evaluated afresh
    on oracles.masked_gains."""
    length = window[1] - window[0]
    windows, _ = _loop_windows(traffic, window, n_rows, rng)
    rows = [pos - length * k for k, pos in enumerate(windows)]
    counts = np.array([row.size for row in rows])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    positions = np.concatenate(rows)

    def row_sums(gains):
        sums = np.zeros(n_rows)
        sums[counts > 0] = np.add.reduceat(gains, starts[counts > 0])
        return sums

    centre = mean_interference(traffic, geom)
    marks, pairs = _shift_schedule(lags)
    out = np.empty((len(lags), 8))
    for j, (a, b) in enumerate(pairs):
        ga = oracles.masked_gains(positions + geom.speed * marks[a], geom)
        gb = oracles.masked_gains(positions + geom.speed * marks[b], geom)
        da, db = row_sums(ga) - centre, row_sums(gb) - centre
        out[j] = (n_rows, da.sum(), db.sum(), da @ da, db @ db, da @ db,
                  float(np.square(ga).sum()), float(np.square(gb).sum()))
    return out


def _loop_histogram(traffic, window, n_realizations, bins, seed, bin_width):
    """pair_distance_histogram's (density, se) with the separations
    gathered by a Python loop over each loop-cut window's pair partners."""
    edges = bin_width * np.arange(bins + 1)
    windows, _ = _loop_windows(traffic, window, n_realizations, _block_rng(seed, 0))
    counts = np.zeros((n_realizations, bins))
    for i, pos in enumerate(windows):
        upper = np.searchsorted(pos, pos + edges[-1], side="right")
        seps = [pos[j + 1:upper[j]] - pos[j]
                for j in range(pos.size - 1) if upper[j] > j + 1]
        if seps:
            counts[i] = np.histogram(np.concatenate(seps), bins=edges)[0]
    counts *= 2.0
    measure = 2.0 * bin_width * (window[1] - window[0] - 0.5 * (edges[:-1] + edges[1:]))
    se = counts.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    return counts.mean(axis=0) / measure, se / measure


def _window_sums(traffic, geom, window, n_windows, seed, block):
    """Each of n_windows realizations' summed gain S_0, with its vehicle count."""
    pos, counts = _stream_windows(traffic, window, n_windows, _block_rng(seed, block))
    pos -= np.repeat((window[1] - window[0]) * np.arange(n_windows), counts)
    owner = np.repeat(np.arange(n_windows), counts)
    return np.bincount(owner, weights=pathloss(pos, geom), minlength=n_windows), counts


def _far_field_variance(traffic, half, n_rows, seed):
    """Monte Carlo variance of the summed gain beyond distance half, with
    its standard error: the stream on [-10 half, 10 half], whose cut tail
    is 1e-5 of the variance at eta 3."""
    far = NetworkGeometry(guard_radius=half, pathloss_exponent=3.0, speed=10.0)
    reach = 10.0 * half
    sums = np.concatenate([_window_sums(traffic, far, (-reach, reach), 2000, seed, k)[0]
                           for k in range(n_rows // 2000)])
    var = sums.var(ddof=1)
    se = math.sqrt((np.mean((sums - sums.mean()) ** 4) - var * var) / sums.size)
    return var, se


class TestWindows:
    GRID = [float(t) for t in np.linspace(0.0, 30.0, 31)]

    def test_default_window_formula(self, geom):
        """W = r0 + reach * c + r0 / 3 on every stream and geometry, and the
        window reaches u t further left for lags up to t."""
        for lam, c in [(0.05, 4.0), (0.05, 0.0), (0.2, 4.0), (0.02, 4.0)]:
            traffic = TrafficModel.from_intensity(lam, c)
            half = 150.0 + traffic.deviation_reach * c + 50.0
            for t in (0.0, 5.0, 29.2, 30.0):
                assert default_window(traffic, geom, t) == (-half - 10.0 * t, half)
        other = NetworkGeometry(guard_radius=100.0, pathloss_exponent=4.0, speed=25.0)
        # occupancy 0.2, reach 9: W = 100 + 18 + 100 / 3
        half = 100.0 + 9 * 2.0 + 100.0 / 3.0
        assert default_window(TrafficModel.from_intensity(0.1, 2.0), other, 4.0) == (
            -half - 100.0, half)

    def test_truncation_bias_bound(self, traffic, geom):
        """The bound is the next-order allowance max(rho0 * next_var,
        next_cov) / E[Q_W]: |M2| times the slope of the gain product at
        each of the four window edges seen from the two slots,
        eta (e1 e2)**-eta (1 / e1 + 1 / e2), pooled over the slots for the
        variance. Widening the window shrinks it toward zero."""
        t = 5.0
        window = default_window(traffic, geom, t)
        assert window == (-286.0, 236.0)
        _, _, rho0, spread = _far_field(traffic, geom)
        slot_0 = np.array([236.0, 286.0])
        slot_t = np.array([286.0, 236.0])
        next_var = 0.5 * spread * 3.0 * np.sum(2.0 * slot_0 ** -7.0 + 2.0 * slot_t ** -7.0)
        next_cov = spread * 3.0 * np.sum((slot_0 * slot_t) ** -3.0 * (1.0 / slot_0 + 1.0 / slot_t))
        lam = traffic.intensity
        kept_q = 2.0 * lam * 150.0 ** -5.0 / 5.0 - 0.5 * lam * np.sum(
            slot_0 ** -5.0 + slot_t ** -5.0) / 5.0
        bound = _losses(traffic, geom, window, t)[3]
        assert math.isclose(bound, max(rho0 * next_var, next_cov) / kept_q, rel_tol=1e-13)
        wider = _losses(traffic, geom, (-30000.0, 30000.0), t)[3]
        assert 0.0 < wider < 1e-4 * bound

    def test_window_pins(self, geom):
        # the canonical curve (perfbench's and the config's), check 2's
        # t = 29.2 leg and the densest sweep stream (reaches 9, 9 and 52)
        assert default_window(TrafficModel(0.05, 4.0), geom, 30.0) == (-536.0, 236.0)
        assert default_window(TrafficModel(0.05, 4.0), geom, 29.2) == (-528.0, 236.0)
        assert default_window(TrafficModel(0.2, 4.0), geom, 30.0) == (-708.0, 408.0)
        window = (-536.0, 236.0)
        assert math.isclose(max(_losses(TrafficModel(0.05, 4.0), geom, window, t)[3]
                                for t in self.GRID), BOUND_PIN, rel_tol=1e-12)

    @pytest.mark.parametrize("lam,c", [(0.05, 0.0), (0.05, 4.0), (0.2, 4.0)])
    def test_bound_monotone_in_window(self, lam, c, geom):
        """The bound falls as the window widens; for a Poisson stream the
        losses are exact and it is 0."""
        traffic = TrafficModel.from_intensity(lam, c)
        for t in (0.0, 5.0, 30.0):
            bounds = [_losses(traffic, geom, (-(half + 300.0), half), t)[3]
                      for half in (500.0, 600.0, 800.0, 1200.0, 2000.0, 5000.0)]
            if c == 0.0:
                assert bounds == [0.0] * len(bounds)
            else:
                assert all(a > b > 0.0 for a, b in zip(bounds, bounds[1:]))

    def test_window_must_cover_the_guard_zone(self, traffic, geom):
        """A window that does not cover the guard zone at both slots of
        every lag cannot be corrected: the bound, estimate and
        estimate_curve raise DomainError before sampling."""
        with pytest.raises(DomainError, match="guard zone"):
            _losses(traffic, geom, (-1000.0, 100.0), 0.0)[3]
        with pytest.raises(DomainError, match="guard zone"):
            _losses(traffic, geom, (-400.0, 1000.0), 30.0)[3]
        with pytest.raises(DomainError, match="window must be finite"):
            estimate(traffic, geom, 0.0, 1000, SEED, window=(-math.inf, 1000.0))
        silent = NetworkGeometry(guard_radius=10000.0, pathloss_exponent=3.0, speed=10.0)
        with pytest.raises(DomainError, match="guard zone"):
            estimate(traffic, silent, 0.0, 1000, SEED, window=(-3000.0, 2000.0))
        with pytest.raises(DomainError, match="guard zone"):
            estimate(traffic, geom, 0.0, 1000, SEED, window=(-1e-6, 1e-6))
        # covers the guard zone at lag 0 but not at slot t of lag 30
        with pytest.raises(DomainError, match="guard zone"):
            estimate_curve(traffic, geom, [0.0, 30.0], 1000, SEED, window=(-400.0, 1000.0))

    @pytest.mark.parametrize("t", [0.0, 5.0, 30.0])
    def test_poisson_losses_match_quadrature(self, t, traffic_ppp, geom):
        """At c = 0 the losses are exact: the mean lost is lambda times
        the integral of g outside the window, the covariance lost is
        lambda * integral of g(x) g(x + u t) there, and the variance lost
        is twice the lost E[Q]."""
        lam, shift = traffic_ppp.intensity, geom.speed * t
        w_lo, w_hi = -1100.0, 800.0

        def lost(f):
            right = quad(f, w_hi, math.inf, epsabs=0.0, epsrel=1e-12)[0]
            left = quad(f, -math.inf, w_lo, epsabs=0.0, epsrel=1e-12)[0]
            return lam * (right + left)

        lost_mean, lost_var, lost_cov, bound = _losses(traffic_ppp, geom, (w_lo, w_hi), t)
        mean = 0.5 * (lost(lambda x: abs(x) ** -3.0) + lost(lambda x: abs(x + shift) ** -3.0))
        same = lost(lambda x: abs(x) ** -3.0 * abs(x + shift) ** -3.0)
        q = 0.5 * (lost(lambda x: x ** -6.0) + lost(lambda x: (x + shift) ** -6.0))
        assert math.isclose(lost_mean, mean, rel_tol=1e-12)
        assert math.isclose(lost_cov, same, rel_tol=1e-12)
        assert math.isclose(lost_var, 2.0 * q, rel_tol=1e-12)
        assert bound == 0.0

    @pytest.mark.parametrize("lam", [0.05, 0.2])
    def test_deviation_and_edge_match_far_field_monte_carlo(self, lam, geom):
        """At occupancy 0.2 and 0.8 the variance of the gain summed beyond W
        is (1 - occupancy)**2 times the Poisson value plus the edge term
        |M1| g(W)**2 per edge: the far field's own pair deviation stops at
        the edge. At W = 300 the edge term is 14% of it at occupancy 0.8,
        well clear of the noise. The window's lost variance carries the
        same constants with the edge term subtracted: the window's own pair
        terms carry it, and the whole line's do not."""
        traffic = TrafficModel.from_intensity(lam, 4.0)
        half = 300.0
        cv2, edge, _, _ = _far_field(traffic, geom)
        lost_q = 2.0 * lam * half ** -5.0 / 5.0
        edges = 2.0 * edge * half ** -6.0
        var, se = _far_field_variance(traffic, half, 16000, SEED)
        assert abs(var - (cv2 * lost_q + edges)) <= 4.0 * se
        if lam == 0.2:
            assert var - cv2 * lost_q > 8.0 * se
        lost_var = _losses(traffic, geom, (-half, half), 0.0)[1]
        assert math.isclose(lost_var, (1.0 + cv2) * lost_q - edges, rel_tol=1e-13)

    @pytest.mark.parametrize("occupancy", [0.08, 0.2, 0.4, 0.8])
    def test_far_field_constants_are_moments_of_the_pair_density(self, occupancy, geom):
        """With h = rho2 - intensity**2, the integral of h over d > 0 is
        intensity * (cv2 - 1) / 2, that of d * h is -edge and that of
        d**2 * h is -spread. h is taken over all 64 minimum gaps the
        density resolves (it is 0 beyond): up to the deviation reach alone,
        the tail of d * h left out is 3.9e-9 of edge at occupancy 0.8. The
        weight d**2 lifts the far bands' roundoff (about 1e-14 of the
        density) to 2.7e-8 of spread at 0.8, so that moment is integrated
        to 1e-8 and held to 1e-7."""
        traffic = TrafficModel.from_intensity(occupancy / 4.0, 4.0)
        cv2, edge, _, spread = _far_field(traffic, geom)
        lam = traffic.intensity
        bands = np.arange(int(_ASYMPTOTE_CUTOFF_GAPS) + 1) * traffic.min_gap
        spec = QuadratureSpec(rel_tol=1e-11)

        def h(d):
            return _pair_correlation_array(d, traffic) - lam * lam

        assert math.isclose(integrate_finite(h, bands, spec), lam * (cv2 - 1.0) / 2.0,
                            rel_tol=1e-9)
        assert math.isclose(integrate_finite(lambda d: d * h(d), bands, spec), -edge,
                            rel_tol=1e-9)
        assert math.isclose(integrate_finite(lambda d: d * d * h(d), bands,
                                             QuadratureSpec(rel_tol=1e-8)),
                            -spread, rel_tol=1e-7)

    def test_bound_is_a_tenth_of_the_noise(self, traffic, geom):
        """At the curve's default window the residual bound is a tenth of
        the smallest se_rho at 2000 samples, and would still be at a
        million (se_rho falls as 1 / sqrt(n))."""
        grid = [0.0, 5.0, 15.0, 30.0]
        curve = estimate_curve(traffic, geom, grid, 2000, SEED)
        window = default_window(traffic, geom, 30.0)
        worst = max(_losses(traffic, geom, window, t)[3] for t in grid)
        assert worst <= 0.1 * min(est.se_rho for est in curve) * math.sqrt(2000 / 10 ** 6)

    @pytest.mark.parametrize("eta,occupancy", [(3.0, 0.08), (3.0, 0.2), (3.0, 0.4),
                                               (3.0, 0.8), (2.05, 0.2), (6.0, 0.2)])
    def test_corrected_rho_meets_the_bound(self, eta, occupancy):
        """Deterministic residual of the correction at the default window.
        The windowed moments are the exact route's less the losses
        oracles.lost_moments_defining integrates (scipy quad and
        scipy.special only); adding _losses' closed forms back must leave
        |rho_W - rho| <= their bound at every lag. The tolerance is the
        bound itself, fixed before measuring. Measured on the windows
        r0 + reach c + r0 / 3, the residual is 3.4e-9 to 3.6e-6, at most
        0.28 of the bound, while the uncorrected bias reaches 1.7e-2 at
        eta 3 (2.9e-2 at eta 2.05)."""
        geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=eta, speed=10.0)
        traffic = TrafficModel.from_intensity(occupancy / 4.0, 4.0)
        var = (same_vehicle_term(0.0, traffic, geom)
               + covariance(0.0, traffic, geom, "exact-quadrature").covariance)
        for t in (0.0, 0.8, 5.0, 15.0, 29.2, 30.0):
            window = default_window(traffic, geom, t)
            cov = covariance(t, traffic, geom, "exact-quadrature").covariance
            lost_var, lost_cov = oracles.lost_moments_defining(t, traffic, geom, window)
            _, add_var, add_cov, bound = _losses(traffic, geom, window, t)
            corrected = (cov - lost_cov + add_cov) / (var - lost_var + add_var)
            assert abs(corrected - cov / var) <= bound


class TestSampling:
    def test_sampled_realizations_satisfy_invariants(self, traffic):
        """Gaps are at least c across the whole stream, window edges
        included; every window's vehicles, less its offset, lie inside the
        window; the counts cover the returned stream, which ends at the
        last edge."""
        window = (-1200.0, 1200.0)
        pos, counts = _stream_windows(traffic, window, 200, _block_rng(SEED, 0))
        assert counts.sum() == pos.size and pos[-1] <= 1200.0 + 2400.0 * 199
        assert np.all(np.diff(pos) >= traffic.min_gap)
        local = pos - np.repeat(2400.0 * np.arange(200), counts)
        assert np.all((local > window[0]) & (local <= window[1]))

    @pytest.mark.parametrize("lam", [0.05, 0.2])
    def test_stream_starts_in_equilibrium(self, lam):
        """Each block's first vehicle lies at the forward-recurrence distance
        from w_lo: uniform at the intensity below c, and
        1 - (1 - occupancy) exp(-rate (x - c)) beyond. A Kolmogorov-Smirnov
        test over 2000 blocks must give p >= 1e-3; a start from an ordinary
        gap puts no mass below c, where this law puts the occupancy."""
        traffic = TrafficModel.from_intensity(lam, 4.0)
        c, occupancy, rate = traffic.min_gap, traffic.occupancy, traffic.gap_rate
        first = [_stream_windows(traffic, (0.0, 1000.0), 1, _block_rng(SEED, k))[0][0]
                 for k in range(2000)]

        def cdf(x):
            return np.where(x < c, lam * x, 1.0 - (1.0 - occupancy) * np.exp(-rate * (x - c)))

        assert kstest(first, cdf).pvalue >= 1e-3

    @pytest.mark.parametrize("lam", [0.05, 0.2])
    def test_consecutive_windows_are_stationary_and_nearly_independent(self, lam, geom):
        """Windows cut from one stream share its stationary law and are
        nearly independent. Over 40 blocks of 2000 windows (-400, 400): the
        first window's mean count is the other windows' within 4 se; the
        lag-1 correlation of the counts is the renewal value
        -edge / (lambda L cv2 + 2 edge) (-0.0006 and -0.0124 here), and that
        of S_0 is 0, each within 4 / sqrt(pairs) = 0.0141."""
        traffic = TrafficModel.from_intensity(lam, 4.0)
        window = (-400.0, 400.0)
        sums, counts = zip(*(_window_sums(traffic, geom, window, 2000, SEED, k)
                             for k in range(40)))
        sums, counts = np.array(sums), np.array(counts)
        cv2, edge, _, _ = _far_field(traffic, geom)
        count_var = lam * 800.0 * cv2 + 2.0 * edge
        first, rest = counts[:, 0].mean(), counts[:, 1:].mean()
        assert abs(first - rest) <= 4.0 * math.sqrt(count_var / 40)
        tolerance = 4.0 / math.sqrt(40 * 1999)

        def lag_one(values):
            return np.corrcoef(values[:, :-1].ravel(), values[:, 1:].ravel())[0, 1]

        assert abs(lag_one(counts) + edge / count_var) <= tolerance
        assert abs(lag_one(sums)) <= tolerance

    def test_window_must_cover_enough_spacings(self, traffic):
        with pytest.raises(DomainError):
            pair_distance_histogram(traffic, (0.0, 1990.0), 2, 4, SEED)
        hist = pair_distance_histogram(traffic, (0.0, 2000.0), 2, 4, SEED)
        assert hist.n_realizations == 2

    def test_empirical_intensity(self, traffic):
        window = (-1000.0, 1000.0)
        counts = _stream_windows(traffic, window, 10000, _block_rng(SEED, 2))[1]
        want = traffic.intensity * (window[1] - window[0])
        z = (counts.mean() - want) / (counts.std(ddof=1) / math.sqrt(counts.size))
        assert abs(z) <= 3.0

    def test_stationarity_across_halves(self, traffic):
        window = (-1000.0, 1000.0)
        pos, counts = _stream_windows(traffic, window, 3000, _block_rng(SEED, 3))
        owner = np.repeat(np.arange(3000), counts)
        left = np.bincount(owner[pos - 2000.0 * owner < 0.0], minlength=3000)
        diff = 2 * left - counts
        z = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
        assert abs(z) <= 3.0

    def test_poisson_counts_have_unit_dispersion(self, traffic_ppp):
        window = (0.0, 2000.0)
        counts = []
        for chunk in range(4):
            counts.append(_stream_windows(traffic_ppp, window, 25000,
                                          _block_rng(SEED, 10 + chunk))[1])
        counts = np.concatenate(counts)
        dispersion = counts.var(ddof=1) / counts.mean()
        assert 0.97 <= dispersion <= 1.03


class TestAgainstFirstMoments:
    """The estimate's mean carries the closed-form mean lost outside the
    window; the raw block sums carry no correction, so their check needs a
    window much wider than the default, where the vehicles left out carry
    far less than the Monte Carlo noise."""

    WIDE = (-8050.0, 8000.0)

    def test_mean_matches_analytic(self, traffic, geom):
        """At the default window the vehicles outside it carry 34% of the
        mean at this lag; the estimate adds that back."""
        est = estimate(traffic, geom, 5.0, 20000, SEED)
        se_mean = math.sqrt(est.variance * (1.0 + est.rho) / (2.0 * est.n))
        z = (est.mean - mean_interference(traffic, geom)) / se_mean
        assert abs(z) <= 3.0

    def test_product_moment_matches_analytic(self, traffic_ppp, geom):
        """E[I_0 I_t] = E[S_0 S_t] from the centred block sums: d_t is
        S_t less the mean m, so sum S_0 S_t = sum d_0 d_t
        + m (sum d_0 + sum d_t) + n m**2."""
        t = 5.0
        m = mean_interference(traffic_ppp, geom)
        raw = []
        for k in range(30):
            n, a0, at, _, _, a0t, _, _ = _block_sums(
                traffic_ppp, geom, *_shift_schedule([t]), 1200, self.WIDE,
                _block_rng(SEED, k))[0]
            raw.append(a0t / n + m * (a0 + at) / n + m * m)
        raw = np.array(raw)
        want = same_vehicle_term(t, traffic_ppp, geom) + m * m
        z = (raw.mean() - want) / (raw.std(ddof=1) / math.sqrt(raw.size))
        assert abs(z) <= 3.0


class TestBlockSums:
    @pytest.mark.parametrize("lam,c", [(0.02, 4.0), (0.05, 0.0), (0.05, 4.0), (0.2, 4.0)])
    def test_bit_equal_to_masked_reference(self, lam, c, geom):
        """The stream cut by searchsorted gives the loop-cut oracle's sums
        bit for bit, on the default window and a wider one; the grid's
        schedule serves 0.8 and 29.2 from marks other than 0."""
        traffic = TrafficModel.from_intensity(lam, c)
        grid = [0.0, 0.8, 5.0, 15.0, 29.2, 30.0]
        for window in (default_window(traffic, geom, 30.0), (-1100.0, 800.0)):
            for k in range(2):
                got = _block_sums(traffic, geom, *_shift_schedule(grid), 500, window,
                                  _block_rng(SEED, k))
                want = _reference_block_sums(traffic, geom, grid, 500, window,
                                             _block_rng(SEED, k))
                assert np.array_equal(got, want)

    def test_empty_rows_sum_to_zero(self, geom):
        """Windows with no vehicle, between others and at the end of the
        block, add nothing to the gain sums."""
        traffic = TrafficModel.from_intensity(0.002, 4.0)
        window = (-300.0, 300.0)
        grid = [0.0, 5.0, 30.0]
        counts = _stream_windows(traffic, window, 50, _block_rng(SEED, 4))[1]
        assert counts[-1] == 0 and np.any(counts[:-1] == 0) and np.any(counts > 0)
        got = _block_sums(traffic, geom, *_shift_schedule(grid), 50, window,
                          _block_rng(SEED, 4))
        assert np.array_equal(got, _reference_block_sums(traffic, geom, grid, 50, window,
                                                         _block_rng(SEED, 4)))
        # a one-window block whose window is empty: every deviation is -mean, Q is 0
        assert _stream_windows(traffic, window, 1, _block_rng(SEED, 0))[1][0] == 0
        centre = mean_interference(traffic, geom)
        one = _block_sums(traffic, geom, *_shift_schedule(grid), 1, window,
                          _block_rng(SEED, 0))
        assert np.array_equal(one, np.tile(
            [1.0, -centre, -centre, centre ** 2, centre ** 2, centre ** 2, 0.0, 0.0],
            (len(grid), 1)))

    def test_short_first_chunk_is_extended(self, geom):
        """A stream whose first chunk of gaps stops short of the last edge
        draws another; the cut still matches the oracle bit for bit."""
        traffic = TrafficModel.from_intensity(0.002, 4.0)
        window = (-300.0, 300.0)
        assert _loop_windows(traffic, window, 5, _block_rng(SEED, 12))[1] == 2
        got = _block_sums(traffic, geom, *_shift_schedule([0.0, 5.0]), 5, window,
                          _block_rng(SEED, 12))
        assert np.array_equal(got, _reference_block_sums(traffic, geom, [0.0, 5.0], 5, window,
                                                         _block_rng(SEED, 12)))

    def test_power_sees_only_normal_bases(self, traffic, geom, power_bases):
        """Only the block's in-window vehicles reach np.log, and guard-zone
        entries never do: log would return -inf on them and send exp down
        its special path."""
        grid = [float(t) for t in np.linspace(0.0, 30.0, 31)]
        window = default_window(traffic, geom, 30.0)
        _block_sums(traffic, geom, *_shift_schedule(grid), 500, window, _block_rng(SEED, 0))
        in_window = int(_stream_windows(traffic, window, 500, _block_rng(SEED, 0))[1].sum())
        # the sampler's equilibrium delay takes one log per block, of a 0-d base
        gain_bases = [base for base in power_bases if base.ndim == 1]
        assert len(gain_bases) == 10  # one pass per mark of the grid's schedule
        for base in gain_bases:
            assert base.size == in_window
            assert np.all(np.isfinite(base) & (base >= np.finfo(float).tiny))

    def test_curve_pinned(self, traffic, geom):
        grid = list(CURVE_PINS)
        for t, est in zip(grid, estimate_curve(traffic, geom, grid, 2000, SEED)):
            assert (est.rho, est.se_rho, est.variance, est.covariance) == CURVE_PINS[t]


class TestShiftSchedule:
    CANONICAL = [float(t) for t in np.linspace(0.0, 30.0, 31)]

    @staticmethod
    def grids():
        rng = np.random.default_rng(SEED)
        yield TestShiftSchedule.CANONICAL
        for points in (2, 7, 151, 601):
            yield [float(t) for t in np.linspace(0.0, 30.0, points)]
        yield [0.1 * k for k in range(300)]
        yield [5.0]
        yield [0.0]
        yield [29.2, 0.8, 5.0, 0.8, 15.0]
        for size in (3, 12, 40):
            yield [float(t) for t in rng.uniform(0.0, 30.0, size)]
        yield [float(t) for t in rng.integers(0, 60, 25) / 2.0]

    def test_every_lag_is_an_exact_difference(self):
        """Each lag's pair (a, b) has a <= b and marks[b] - marks[a] == t in
        floats, and no mark below marks[a] starts a pair that covers t."""
        for grid in self.grids():
            marks, pairs = _shift_schedule(grid)
            assert len(pairs) == len(grid)
            for t, (a, b) in zip(grid, pairs):
                assert a <= b and marks[b] - marks[a] == t
                assert not any(marks[j] - marks[i] == t
                               for i in range(a) for j in range(i, len(marks)))

    def test_marks_span_the_grid(self):
        """Marks ascend, are distinct, lie in [0, max lag] and include both
        ends; there are never more than one plus the distinct nonzero lags,
        the passes one lag at a time would take, so at most the distinct
        lags plus one."""
        for grid in self.grids():
            marks, _ = _shift_schedule(grid)
            assert marks == sorted(set(marks))
            assert marks[0] == 0.0 and marks[-1] == max(grid)
            assert len(marks) <= 1 + len(set(grid) - {0.0}) <= len(set(grid)) + 1

    def test_mark_counts(self):
        marks, _ = _shift_schedule(self.CANONICAL)
        assert marks == [0.0, 1.0, 4.0, 5.0, 10.0, 15.0, 20.0, 22.0, 28.0, 30.0]
        marks, _ = _shift_schedule([float(t) for t in np.linspace(0.0, 30.0, 7)])
        assert marks == [0.0, 5.0, 20.0, 30.0]
        marks, _ = _shift_schedule([float(t) for t in np.linspace(0.0, 30.0, 601)])
        assert len(marks) <= 90
        assert _shift_schedule([5.0]) == ([0.0, 5.0], [(0, 1)])
        assert _shift_schedule([0.0]) == ([0.0], [(0, 0)])

    def test_unsorted_and_repeated_lags_keep_their_order(self):
        grid = [29.2, 0.8, 5.0, 0.8, 15.0, 29.2, 0.0]
        marks, pairs = _shift_schedule(grid)
        assert [marks[b] - marks[a] for a, b in pairs] == grid
        assert pairs[1] == pairs[3] and pairs[0] == pairs[5]
        assert _shift_schedule(sorted(set(grid)))[0] == marks

    def test_deterministic(self):
        for grid in self.grids():
            assert _shift_schedule(grid) == _shift_schedule(list(grid))


class TestEstimate:
    GRID = [0.0, 0.8, 5.0, 10.0, 15.0, 29.2, 30.0]

    def test_lag_from_mark_zero_is_the_single_lag_estimate(self, traffic, geom):
        """With the window fixed, a lag the schedule serves by the pair
        (0, t) is the single-lag estimate(t), bit for bit: lag 0, the
        largest lag and here 5 and 15."""
        window = default_window(traffic, geom, 30.0)
        curve = estimate_curve(traffic, geom, self.GRID, 2000, SEED, window=window)
        marks, pairs = _shift_schedule(self.GRID)
        served = [t for t, (a, _) in zip(self.GRID, pairs) if marks[a] == 0.0]
        assert served == [0.0, 5.0, 15.0, 30.0]
        for t, est in zip(self.GRID, curve):
            if t in served:
                assert estimate(traffic, geom, t, 2000, SEED, window=window) == est

    def test_lag_is_its_pair_of_marks_alone(self, traffic, geom, monkeypatch):
        """Every other lag is the estimate its own two marks form alone: a
        lag's estimate does not depend on the other marks of the schedule.
        Here 0.8, 10 and 29.2 are served from marks other than 0."""
        window = default_window(traffic, geom, 30.0)
        curve = estimate_curve(traffic, geom, self.GRID, 2000, SEED, window=window)
        marks, pairs = _shift_schedule(self.GRID)
        moved = [j for j, (a, _) in enumerate(pairs) if marks[a] != 0.0]
        assert [self.GRID[j] for j in moved] == [0.8, 10.0, 29.2]
        for j in moved:
            a, b = pairs[j]
            monkeypatch.setattr("roadcorr.sim._shift_schedule",
                                lambda lags: ([marks[a], marks[b]], [(0, 1)]))
            assert estimate(traffic, geom, self.GRID[j], 2000, SEED, window=window) == curve[j]

    def test_bias_bound_is_the_losses_bound(self, traffic, geom):
        """Each estimate carries the bound _losses gives for its own lag on
        the window it sampled, seen from its pair's first mark a: the
        window (default_window of the largest lag, or the caller's) moved
        by u a. Lags 5, 10 and 15 are served from marks other than 0."""
        grid = [0.0, 0.8, 5.0, 10.0, 15.0, 29.2]
        marks, pairs = _shift_schedule(grid)
        assert [marks[a] for a, _ in pairs] == [0.0, 0.0, 14.2, 19.2, 14.2, 0.0]
        for window, sampled in ((None, default_window(traffic, geom, 29.2)),
                                ((-1100.0, 800.0), (-1100.0, 800.0))):
            curve = estimate_curve(traffic, geom, grid, 1000, SEED, window=window)
            shifts = [geom.speed * marks[a] for a, _ in pairs]
            assert [est.bias_bound for est in curve] == [
                _losses(traffic, geom, (sampled[0] + s, sampled[1] + s), t)[3]
                for s, t in zip(shifts, grid)]

    def test_seed_changes_the_draw(self, traffic, geom):
        a = estimate(traffic, geom, 5.0, 2000, SEED)
        b = estimate(traffic, geom, 5.0, 2000, SEED + 1)
        assert a.rho != b.rho

    def test_parameter_gates(self, traffic, geom):
        with pytest.raises(ParameterError):
            estimate(traffic, geom, 5.0, 999, SEED)
        # seeds outside [0, 2**64) would alias a seed inside it
        for bad_seed in (-1, 2 ** 64, 5 + 2 ** 64):
            with pytest.raises(ParameterError):
                estimate(traffic, geom, 5.0, 2000, bad_seed)
        # the window is keyword-only; the block count is not a parameter
        with pytest.raises(TypeError):
            estimate(traffic, geom, 5.0, 2000, SEED, 8)

    def test_lag_domain(self, traffic, geom):
        with pytest.raises(DomainError):
            estimate(traffic, geom, -0.1, 2000, SEED)
        with pytest.raises(DomainError):
            estimate(traffic, geom, 30.1, 2000, SEED)
        with pytest.raises(DomainError):
            estimate_curve(traffic, geom, [5.0, 30.1], 2000, SEED)
        with pytest.raises(ParameterError):
            estimate_curve(traffic, geom, [], 2000, SEED)

    @pytest.mark.parametrize("window", [(0.0, math.inf), (100.0, 0.0),
                                        (math.nan, 10.0)])
    def test_window_domain(self, window, traffic, geom):
        with pytest.raises(DomainError, match="window must be finite"):
            estimate(traffic, geom, 5.0, 1000, SEED, window=window)

    def test_degenerate_sample_rejected(self, geom):
        """A stream too sparse to put a vehicle in any window of any block
        leaves no sample variance to correct."""
        sparse = TrafficModel.from_intensity(1e-9, 4.0)
        with pytest.raises(EstimationError):
            estimate(sparse, geom, 0.0, 1000, SEED)

    # rho at occupancy 0.9 (t = 0) and 0.95 (t = 29.2) from the simulations
    # at earlier re-anchors (40 000 and 60 000 samples on wider windows)
    NEAR_JAM = {0.9: (0.0, 0.02179), 0.95: (29.2, -0.00288)}

    @pytest.mark.parametrize("occupancy", [0.9, 0.95])
    def test_simulation_serves_near_a_jam(self, occupancy, geom):
        """Past the occupancy (about 0.83) where the pair density and the
        exact route refuse, estimate_curve still serves: its window clears
        the guard zone by the uncapped deviation reach at both slots
        (808 m at 0.9, 2308 m at 0.95), and at 1000 samples every estimate
        is finite and the recorded rho lies within 5 se_rho."""
        traffic = TrafficModel.from_intensity(occupancy / 4.0, 4.0)
        grid = [0.0, 5.0, 29.2]
        w_lo, w_hi = default_window(traffic, geom, max(grid))
        clearance = 150.0 + traffic.deviation_reach * traffic.min_gap
        assert w_hi >= clearance and -w_lo - 292.0 >= clearance
        curve = estimate_curve(traffic, geom, grid, 1000, SEED)
        for est in curve:
            assert all(math.isfinite(value) for value in (
                est.mean, est.variance, est.covariance, est.rho, est.se_rho, est.bias_bound))
        t, recorded = self.NEAR_JAM[occupancy]
        est = curve[grid.index(t)]
        assert abs(est.rho - recorded) <= 5.0 * est.se_rho
        with pytest.raises(ConvergenceError, match="64 minimum gaps"):
            pair_correlation(65.0 * traffic.min_gap, traffic)
        with pytest.raises(ConvergenceError, match="64 minimum gaps"):
            covariance(5.0, traffic, geom, "exact-quadrature")

    def test_oversized_block_is_refused(self, geom):
        """At occupancy 0.999 the reach is 1.2 million minimum gaps and the
        default window 9600 km long: a block of 50 windows would hold about
        1.2e8 vehicles, and estimate_curve refuses before drawing any."""
        traffic = TrafficModel.from_intensity(0.999 / 4.0, 4.0)
        with pytest.raises(DomainError, match="vehicles"):
            estimate_curve(traffic, geom, [0.0, 5.0], 1000, SEED)

    def test_underflowing_far_field_is_refused(self, traffic):
        """At a guard radius of 1e300 both far-field moments underflow:
        _far_field raises DomainError naming the geometry, not a
        ZeroDivisionError."""
        far = NetworkGeometry(guard_radius=1e300, pathloss_exponent=3.0, speed=10.0)
        with pytest.raises(DomainError, match="guard radius 1e\\+300"):
            _far_field(traffic, far)

    def test_estimate_validates_its_own_fields(self):
        with pytest.raises(ParameterError):
            CorrelationEstimate(n=1, mean=1.0, variance=1.0, covariance=0.5,
                                rho=0.5, se_rho=0.01, se_variance=0.01, bias_bound=0.0)
        with pytest.raises(ParameterError):
            CorrelationEstimate(n=100, mean=1.0, variance=1.0, covariance=0.2,
                                rho=0.5, se_rho=0.01, se_variance=0.01, bias_bound=0.0)

    def test_poisson_stream_matches_analytic(self, traffic_ppp, geom):
        est = estimate(traffic_ppp, geom, 5.0, 100000, SEED)
        assert abs(est.rho - rho_ppp(5.0, geom)) <= 0.02

    def test_zero_lag_near_half(self, traffic_ppp, geom):
        est = estimate(traffic_ppp, geom, 0.0, 100000, SEED)
        assert 0.45 <= est.rho <= 0.55

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0, 15.0])
    def test_hardcore_stream_matches_analytic(self, t, traffic, geom):
        est = estimate(traffic, geom, t, 100000, SEED)
        assert abs(est.rho - rho(t, traffic, geom, "pcf-approx")) <= 0.02

    def test_window_shift_does_not_move_rho(self, traffic, geom):
        """Mirroring the window flips every realization; the stream's law
        is reflection invariant, so the estimates must agree statistically."""
        t = 5.0
        w_lo, w_hi = default_window(traffic, geom, t)
        a = estimate(traffic, geom, t, 20000, SEED)
        b = estimate(traffic, geom, t, 20000, SEED, window=(-w_hi, -w_lo))
        assert abs(a.rho - b.rho) <= 3.0 * math.hypot(a.se_rho, b.se_rho)

    def test_poisson_variance_unbiased(self, traffic_ppp, geom):
        est = estimate(traffic_ppp, geom, 5.0, 30000, SEED)
        z = (est.variance - variance(traffic_ppp, geom, "ppp")) / est.se_variance
        assert abs(z) <= 3.0


class TestPairDistanceHistogram:
    def test_parameter_gates(self, traffic):
        window = (-1024.0, 1024.0)
        with pytest.raises(ParameterError):
            pair_distance_histogram(traffic, window, 1, 16, SEED)
        with pytest.raises(ParameterError):
            pair_distance_histogram(traffic, window, 10, 0, SEED)
        with pytest.raises(ParameterError):
            pair_distance_histogram(traffic, window, 10, 16, SEED,
                                    bin_width=-1.0)
        for bad_seed in (-1, 2 ** 64):
            with pytest.raises(ParameterError):
                pair_distance_histogram(traffic, window, 10, 16, bad_seed)
        for bad_window in ((0.0, 50.0), (0.0, math.inf), (100.0, 0.0),
                           (math.nan, 10.0)):
            with pytest.raises(DomainError):
                pair_distance_histogram(traffic, bad_window, 10, 16, SEED)

    def test_underflowing_scale_raises(self):
        """intensity * gap_rate underflows to 0 at 1e-170 vehicles per
        meter and c = 1: DomainError naming the intensity, not NaN."""
        faint = TrafficModel(1e-170, 1.0)
        with pytest.raises(DomainError, match="intensity 1e-170"):
            pair_distance_histogram(faint, (0.0, 2e172), 2, 4, 1)

    def test_pinned_output(self, traffic):
        hist = pair_distance_histogram(traffic, (-1024.0, 1024.0), 20, 24, SEED)
        for k, (density, se) in HISTOGRAM_PINS.items():
            assert math.isclose(hist.density[k], density, rel_tol=1e-12)
            assert math.isclose(hist.se[k], se, rel_tol=1e-12)

    @pytest.mark.parametrize("lam,c,bin_width", [(0.05, 4.0, 0.5),
                                                 (0.05, 0.0, 1.0),
                                                 (0.2, 4.0, 0.5)])
    def test_bit_equal_to_loop_reference(self, lam, c, bin_width):
        traffic = TrafficModel.from_intensity(lam, c)
        window = (-1024.0, 1024.0)
        hist = pair_distance_histogram(traffic, window, 20, 48, SEED,
                                       bin_width=bin_width)
        density, se = _loop_histogram(traffic, window, 20, 48, SEED, bin_width)
        assert np.array_equal(hist.density, density)
        assert np.array_equal(hist.se, se)

    def test_hardcore_histogram(self, traffic, geom):
        hist = pair_distance_histogram(traffic, (-1024.0, 1024.0), 2000, 64,
                                       SEED)
        centers = hist.centers
        assert hist.bin_edges[1] - hist.bin_edges[0] == traffic.min_gap / 8.0
        assert np.array_equal(hist.normalized,
                              hist.density / (traffic.intensity * traffic.gap_rate))

        below = centers < traffic.min_gap
        assert np.all(hist.density[below] == 0.0)

        first_band = (centers > traffic.min_gap) & (centers < 2.0 * traffic.min_gap)
        want = np.array([pair_correlation(float(d), traffic)
                         for d in centers[first_band]])
        z = (hist.density[first_band] - want) / hist.se[first_band]
        assert np.all(np.abs(z) <= 4.0)

        far = centers > 6.0 * traffic.min_gap
        level = hist.normalized[far].mean()
        assert abs(level - (1.0 - traffic.occupancy)) <= 0.02

    def test_poisson_histogram_is_flat(self, traffic_ppp):
        hist = pair_distance_histogram(traffic_ppp, (-1024.0, 1024.0), 1000,
                                       32, SEED, bin_width=1.0)
        z = (hist.normalized - 1.0) / hist.normalized_se
        assert np.all(np.abs(z) <= 4.0)
