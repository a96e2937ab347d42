"""Tests for the Monte Carlo sampling and estimation routines."""

import math

import numpy as np
import pytest

from roadcorr.analytic import rho, rho_ppp, same_vehicle_term, variance
from roadcorr.errors import DomainError, EstimationError, ParameterError
from roadcorr.model import (
    NetworkGeometry,
    TrafficModel,
    mean_interference,
    pair_correlation,
)
from roadcorr.sim import (
    CorrelationEstimate,
    _block_rng,
    _block_sums,
    _position_matrix,
    default_window,
    estimate,
    estimate_curve,
    pair_distance_histogram,
    truncation_bias_bound,
)

from conftest import SEED

# pair_distance_histogram(traffic, (-1024, 1024), 20 realizations, 24 bins,
# SEED) for the dense conftest stream, by bin index: (density, se). Frozen
# as regression anchors; any change to the sampler's draws moves the counts.
HISTOGRAM_PINS = {
    8: (0.002691131498470948, 0.0003395517527003025),
    9: (0.003474856233941025, 0.000543021222130168),
    12: (0.0028896779723276604, 0.0005048807295667978),
    20: (0.0023064654643602015, 0.0004518768242627769),
}

# estimate_curve(from_intensity(0.05, 4), conftest geometry, [0, 5, 30],
# 2000 samples, SEED) by lag: (rho, se_rho, variance, covariance). Frozen
# from the masked-gain kernel the simulator used before model.pathloss;
# compared with ==, so any change to the draws or the arithmetic shows.
CURVE_PINS = {
    0.0: (0.37217691960846977, 0.006890245791751022,
          4.1611976022010667e-13, 1.5487017054693436e-13),
    5.0: (0.1737473816921518, 0.008362098146246687,
          4.239030712661945e-13, 7.365204872376292e-14),
    30.0: (0.0022721491286351037, 0.008736287488669078,
           4.273389902647847e-13, 9.709779143619356e-16),
}


def _masked_gains(r, geom):
    """The gain as a gather/scatter over the outside-guard entries:
    zeros, then |r| ** -eta placed where |r| > guard_radius."""
    dist = np.abs(r)
    gains = np.zeros_like(dist)
    outside = dist > geom.guard_radius
    np.place(gains, outside, dist[outside] ** (-geom.pathloss_exponent))
    return gains


def _reference_block_sums(traffic, geom, lags, n_rows, window, rng):
    """_block_sums rebuilt on _masked_gains, every lag evaluated afresh."""
    centre = mean_interference(traffic, geom)
    pos = _position_matrix(traffic, window, n_rows, rng)
    beyond = pos > window[1]
    pos = pos[:, :int(np.argmax(beyond, axis=1).max())]
    pos[beyond[:, :pos.shape[1]]] = np.inf
    g0 = _masked_gains(pos, geom)
    d0 = g0.sum(axis=1) - centre
    out = np.empty((len(lags), 8))
    for j, t in enumerate(lags):
        gt = _masked_gains(pos + geom.speed * t, geom)
        dt = gt.sum(axis=1) - centre
        out[j] = (n_rows, d0.sum(), dt.sum(), d0 @ d0, dt @ dt, d0 @ dt,
                  float(np.vdot(g0, g0)), float(np.vdot(gt, gt)))
    return out


def _loop_histogram(traffic, window, n_realizations, bins, seed, bin_width):
    """pair_distance_histogram's (density, se) with the separations
    gathered by a Python loop over each position's pair partners."""
    edges = bin_width * np.arange(bins + 1)
    rng = _block_rng(seed, 0)
    counts = np.zeros((n_realizations, bins))
    for i in range(n_realizations):
        pos = _position_matrix(traffic, window, 1, rng)[0]
        pos = pos[pos <= window[1]]
        upper = np.searchsorted(pos, pos + edges[-1], side="right")
        seps = [pos[j + 1:upper[j]] - pos[j]
                for j in range(pos.size - 1) if upper[j] > j + 1]
        if seps:
            counts[i] = np.histogram(np.concatenate(seps), bins=edges)[0]
    counts *= 2.0
    measure = 2.0 * bin_width * (window[1] - window[0] - 0.5 * (edges[:-1] + edges[1:]))
    se = counts.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    return counts.mean(axis=0) / measure, se / measure


class TestWindows:
    def test_default_window_formula(self, traffic, geom):
        # guard radius + traveled span + fifty mean spacings of margin
        half = 150.0 + 10.0 * 30.0 + 50.0 / 0.05
        assert default_window(traffic, geom, 0.0) == (-half, half)
        assert default_window(traffic, geom, 5.0) == (-(half + 50.0), half)

    def test_truncation_bias_bound(self, traffic, geom):
        window = default_window(traffic, geom, 5.0)
        bound = truncation_bias_bound(traffic, geom, window, 5.0)
        wider = truncation_bias_bound(traffic, geom, (-30000.0, 30000.0), 5.0)
        assert 0.0 < wider < bound
        assert bound < 0.02 * mean_interference(traffic, geom)


class TestSampling:
    def test_sampled_realizations_satisfy_invariants(self, traffic):
        window = (-1200.0, 1200.0)
        pos = _position_matrix(traffic, window, 200, _block_rng(SEED, 0))
        gaps = np.diff(pos, axis=1)
        assert np.all(gaps > 0.0)
        assert np.all(gaps >= traffic.min_gap)
        assert np.all(pos[:, 0] >= window[0])
        assert np.all(pos[:, -1] > window[1])

    def test_window_must_cover_enough_spacings(self, traffic):
        with pytest.raises(DomainError):
            pair_distance_histogram(traffic, (0.0, 1990.0), 2, 4, SEED)
        hist = pair_distance_histogram(traffic, (0.0, 2000.0), 2, 4, SEED)
        assert hist.n_realizations == 2

    def test_empirical_intensity(self, traffic):
        window = (-1000.0, 1000.0)
        pos = _position_matrix(traffic, window, 10000, _block_rng(SEED, 2))
        counts = (pos <= window[1]).sum(axis=1)
        want = traffic.intensity * (window[1] - window[0])
        z = (counts.mean() - want) / (counts.std(ddof=1) / math.sqrt(counts.size))
        assert abs(z) <= 3.0

    def test_stationarity_across_halves(self, traffic):
        window = (-1000.0, 1000.0)
        pos = _position_matrix(traffic, window, 3000, _block_rng(SEED, 3))
        in_window = pos <= window[1]
        left = (in_window & (pos < 0.0)).sum(axis=1)
        right = (in_window & (pos >= 0.0)).sum(axis=1)
        diff = left - right
        z = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
        assert abs(z) <= 3.0

    def test_poisson_counts_have_unit_dispersion(self, traffic_ppp):
        window = (0.0, 2000.0)
        counts = []
        for chunk in range(4):
            pos = _position_matrix(traffic_ppp, window, 25000,
                                   _block_rng(SEED, 10 + chunk))
            counts.append((pos <= window[1]).sum(axis=1))
        counts = np.concatenate(counts)
        dispersion = counts.var(ddof=1) / counts.mean()
        assert 0.97 <= dispersion <= 1.03


class TestAgainstFirstMoments:
    """Raw-moment checks need a window much wider than the default,
    where the truncation bias bound sits far below the Monte Carlo noise."""

    WIDE = (-8050.0, 8000.0)

    def test_mean_matches_analytic(self, traffic, geom):
        est = estimate(traffic, geom, 5.0, 20000, SEED, window=self.WIDE)
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
                traffic_ppp, geom, [t], 1200, self.WIDE, _block_rng(SEED, k))[0]
            raw.append(a0t / n + m * (a0 + at) / n + m * m)
        raw = np.array(raw)
        want = same_vehicle_term(t, traffic_ppp, geom) + m * m
        z = (raw.mean() - want) / (raw.std(ddof=1) / math.sqrt(raw.size))
        assert abs(z) <= 3.0


class TestBlockSums:
    @pytest.mark.parametrize("lam,c", [(0.05, 0.0), (0.05, 4.0), (0.2, 4.0)])
    def test_bit_equal_to_masked_reference(self, lam, c, geom):
        traffic = TrafficModel.from_intensity(lam, c)
        grid = [0.0, 0.8, 5.0, 15.0, 29.2, 30.0]
        window = default_window(traffic, geom, 30.0)
        for k in range(2):
            got = _block_sums(traffic, geom, grid, 500, window,
                              _block_rng(SEED, k))
            want = _reference_block_sums(traffic, geom, grid, 500, window,
                                         _block_rng(SEED, k))
            assert np.array_equal(got, want)

    def test_curve_pinned(self, traffic, geom):
        grid = list(CURVE_PINS)
        for t, est in zip(grid, estimate_curve(traffic, geom, grid, 2000, SEED)):
            assert (est.rho, est.se_rho, est.variance, est.covariance) == CURVE_PINS[t]


class TestEstimate:
    def test_curve_shares_one_draw_per_block(self, traffic, geom):
        """With the window fixed, a lag's estimate does not depend on the
        other lags of the grid: estimate(t) is the curve at t, bit for bit."""
        grid = [0.0, 0.8, 5.0, 10.0, 15.0, 29.2, 30.0]
        window = default_window(traffic, geom, 30.0)
        curve = estimate_curve(traffic, geom, grid, 2000, SEED, window=window)
        assert len(curve) == len(grid)
        for t, est in zip(grid, curve):
            assert estimate(traffic, geom, t, 2000, SEED, window=window) == est

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

    def test_degenerate_sample_rejected(self, traffic):
        silent = NetworkGeometry(guard_radius=10000.0, pathloss_exponent=3.0,
                                 speed=10.0)
        with pytest.raises(EstimationError):
            estimate(traffic, silent, 0.0, 1000, SEED,
                     window=(-3000.0, 2000.0))

    def test_estimate_validates_its_own_fields(self):
        with pytest.raises(ParameterError):
            CorrelationEstimate(n=1, mean=1.0, variance=1.0, covariance=0.5,
                                rho=0.5, se_rho=0.01, se_variance=0.01)
        with pytest.raises(ParameterError):
            CorrelationEstimate(n=100, mean=1.0, variance=1.0, covariance=0.2,
                                rho=0.5, se_rho=0.01, se_variance=0.01)

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
