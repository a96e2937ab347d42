"""Tests for the Monte Carlo sampling and estimation routines."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from roadcorr.analytic import rho, rho_ppp, same_vehicle_term, variance
from roadcorr.errors import DomainError, EstimationError, ParameterError
from roadcorr.model import (
    NetworkGeometry,
    TrafficModel,
    mean_interference,
    pair_correlation,
    pathloss,
)
from roadcorr.sim import (
    CorrelationEstimate,
    _block_rng,
    _block_sums,
    _far_field,
    _losses,
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
# from the exp/log gain pass on the window default_window derives for 2000
# samples, (-975, 675); compared with ==, so any change to the draws or the
# arithmetic shows. The exact route gives rho 0.39388, 0.18754 and 0.01946.
CURVE_PINS = {
    0.0: (0.39631896327232863, 0.00713937782672822,
          4.356952840048773e-13, 1.7267430325945577e-13),
    5.0: (0.18390809906664865, 0.007679271438189246,
          4.3341168939288876e-13, 7.970791990951094e-14),
    30.0: (0.02631723235355398, 0.007061437083817255,
           4.31748308433347e-13, 1.1362420551294282e-14),
}


def _reference_block_sums(traffic, geom, lags, n_rows, window, rng):
    """_block_sums rebuilt on oracles.masked_gains, every lag evaluated afresh."""
    centre = mean_interference(traffic, geom)
    pos = _position_matrix(traffic, window, n_rows, rng)
    beyond = pos > window[1]
    pos = pos[:, :int(np.argmax(beyond, axis=1).max())]
    pos[beyond[:, :pos.shape[1]]] = np.inf
    g0 = oracles.masked_gains(pos, geom)
    d0 = g0.sum(axis=1) - centre
    out = np.empty((len(lags), 8))
    for j, t in enumerate(lags):
        gt = oracles.masked_gains(pos + geom.speed * t, geom)
        dt = gt.sum(axis=1) - centre
        out[j] = (n_rows, d0.sum(), dt.sum(), d0 @ d0, dt @ dt, d0 @ dt,
                  float(np.square(g0).sum()), float(np.square(gt).sum()))
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


def _far_field_variance(traffic, half, n_rows, seed):
    """Monte Carlo variance of the summed gain beyond distance half, with
    its standard error: the stream on [-10 half, 10 half], whose cut tail
    is 1e-5 of the variance at eta 3."""
    far = NetworkGeometry(guard_radius=half, pathloss_exponent=3.0, speed=10.0)
    reach = 10.0 * half
    sums = []
    for k in range(n_rows // 2000):
        pos = _position_matrix(traffic, (-reach, reach), 2000, _block_rng(seed, k))
        pos[pos > reach] = np.inf
        sums.append(pathloss(pos, far).sum(axis=1))
    sums = np.concatenate(sums)
    var = sums.var(ddof=1)
    se = math.sqrt((np.mean((sums - sums.mean()) ** 4) - var * var) / sums.size)
    return var, se


class TestWindows:
    GRID = [float(t) for t in np.linspace(0.0, 30.0, 31)]

    def test_default_window_formula(self, geom):
        """W = r0 + u t_max + m with the smallest whole margin m whose
        lag-0 bound on [-W, W] is a tenth of the floor 0.4 rho0 / sqrt(n)."""
        for lam, c, n in [(0.05, 4.0, 10000), (0.05, 4.0, 100000), (0.05, 0.0, 5000),
                          (0.2, 4.0, 5000), (0.2, 4.0, 1000)]:
            traffic = TrafficModel.from_intensity(lam, c)
            target = 0.1 * 0.4 * _far_field(traffic, geom)[2] / math.sqrt(n)
            w_lo, w_hi = default_window(traffic, geom, 5.0, n)
            assert w_lo == -(w_hi + 50.0)
            margin = w_hi - 450.0
            assert margin == int(margin) and margin >= 0.0
            assert truncation_bias_bound(traffic, geom, (-w_hi, w_hi), 0.0) <= target
            if margin > 0.0:
                assert truncation_bias_bound(traffic, geom, (1.0 - w_hi, w_hi - 1.0), 0.0) > target
            for t in self.GRID:
                assert truncation_bias_bound(traffic, geom, default_window(traffic, geom, 30.0, n),
                                             t) <= target

    def test_truncation_bias_bound(self, traffic, geom):
        """The bound at the derived window meets its target, and widening
        the window shrinks it toward zero."""
        n = 10000
        window = default_window(traffic, geom, 5.0, n)
        bound = truncation_bias_bound(traffic, geom, window, 5.0)
        wider = truncation_bias_bound(traffic, geom, (-30000.0, 30000.0), 5.0)
        assert 0.0 < wider < bound
        assert bound <= 0.1 * 0.4 * _far_field(traffic, geom)[2] / math.sqrt(n)

    def test_window_pins(self, geom):
        # the canonical point at perfbench's and the config's sample counts,
        # and the densest sweep stream; the old 50 / intensity margin gave
        # 1450, 1450 and 700
        assert default_window(TrafficModel(0.05, 4.0), geom, 30.0, 10000) == (-1093.0, 793.0)
        assert default_window(TrafficModel(0.05, 4.0), geom, 30.0, 100000) == (-1298.0, 998.0)
        assert default_window(TrafficModel(0.2, 4.0), geom, 30.0, 5000) == (-975.0, 675.0)

    def test_window_grows_with_samples(self, traffic, geom):
        halves = [default_window(traffic, geom, 30.0, n)[1] for n in (1000, 10000, 100000, 10 ** 6)]
        assert halves == sorted(halves) and halves[0] < halves[-1]
        with pytest.raises(ParameterError):
            default_window(traffic, geom, 30.0, 0)

    @pytest.mark.parametrize("lam,c", [(0.05, 0.0), (0.05, 4.0), (0.2, 4.0)])
    def test_bound_monotone_in_window(self, lam, c, geom):
        traffic = TrafficModel.from_intensity(lam, c)
        for t in (0.0, 5.0, 30.0):
            bounds = [truncation_bias_bound(traffic, geom, (-(half + 300.0), half), t)
                      for half in (500.0, 600.0, 800.0, 1200.0, 2000.0, 5000.0)]
            assert all(a > b > 0.0 for a, b in zip(bounds, bounds[1:]))

    def test_window_must_cover_the_guard_zone(self, traffic, geom):
        with pytest.raises(DomainError, match="guard zone"):
            truncation_bias_bound(traffic, geom, (-1000.0, 100.0), 0.0)
        with pytest.raises(DomainError, match="guard zone"):
            truncation_bias_bound(traffic, geom, (-400.0, 1000.0), 30.0)
        with pytest.raises(DomainError, match="window must be finite"):
            truncation_bias_bound(traffic, geom, (-math.inf, 1000.0), 0.0)

    @pytest.mark.parametrize("t", [0.0, 5.0, 30.0])
    def test_poisson_losses_match_quadrature(self, t, traffic_ppp, geom):
        """At c = 0 the losses are exact: the covariance lost is
        lambda * integral of g(x) g(x + u t) outside the window, and the
        variance lost is twice the lost E[Q]."""
        lam, shift = traffic_ppp.intensity, geom.speed * t
        w_lo, w_hi = -1100.0, 800.0

        def lost(f):
            right = quad(f, w_hi, math.inf, epsabs=0.0, epsrel=1e-12)[0]
            left = quad(f, -math.inf, w_lo, epsabs=0.0, epsrel=1e-12)[0]
            return lam * (right + left)

        kept_q, lost_q, lost_var, lost_cov = _losses(traffic_ppp, geom, (w_lo, w_hi), t)
        same = lost(lambda x: abs(x) ** -3.0 * abs(x + shift) ** -3.0)
        q = 0.5 * (lost(lambda x: x ** -6.0) + lost(lambda x: (x + shift) ** -6.0))
        assert math.isclose(lost_cov, same, rel_tol=1e-12)
        assert math.isclose(lost_q, q, rel_tol=1e-12)
        assert lost_var == 2.0 * lost_q
        assert math.isclose(kept_q + lost_q, 2.0 * lam * 150.0 ** -5.0 / 5.0, rel_tol=1e-14)
        assert math.isclose(truncation_bias_bound(traffic_ppp, geom, (w_lo, w_hi), t),
                            max(0.5 * lost_var, lost_cov) / kept_q, rel_tol=1e-15)

    @pytest.mark.parametrize("lam", [0.05, 0.2])
    def test_deviation_and_edge_match_far_field_monte_carlo(self, lam, geom):
        """At occupancy 0.2 and 0.8 the variance of the gain summed beyond W
        is (1 - occupancy)**2 times the Poisson value plus the edge term,
        the var(S) part the bound charges to the lost variance. At W = 300
        the edge term is 14% of it at occupancy 0.8, well clear of the
        noise."""
        traffic = TrafficModel.from_intensity(lam, 4.0)
        half = 300.0
        _, lost_q, lost_var, _ = _losses(traffic, geom, (-half, half), 0.0)
        var, se = _far_field_variance(traffic, half, 16000, SEED)
        assert abs(var - (lost_var - lost_q)) <= 4.0 * se
        cv2 = (1.0 - traffic.occupancy) ** 2
        if lam == 0.2:
            assert var - cv2 * lost_q > 8.0 * se

    def test_bound_is_a_tenth_of_the_noise(self, traffic, geom):
        grid = [0.0, 5.0, 15.0, 30.0]
        curve = estimate_curve(traffic, geom, grid, 2000, SEED)
        window = default_window(traffic, geom, 30.0, 2000)
        worst = max(truncation_bias_bound(traffic, geom, window, t) for t in grid)
        assert worst <= 0.1 * min(est.se_rho for est in curve)


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
        window = default_window(traffic, geom, 30.0, 1000)
        for k in range(2):
            got = _block_sums(traffic, geom, grid, 500, window,
                              _block_rng(SEED, k))
            want = _reference_block_sums(traffic, geom, grid, 500, window,
                                         _block_rng(SEED, k))
            assert np.array_equal(got, want)

    def test_power_sees_only_normal_bases(self, traffic, geom, power_bases):
        """Window padding (inf) and guard-zone entries never reach np.log,
        which would return -inf on them and send exp down its special path."""
        grid = [float(t) for t in np.linspace(0.0, 30.0, 31)]
        _block_sums(traffic, geom, grid, 500, default_window(traffic, geom, 30.0, 10000),
                    _block_rng(SEED, 0))
        # the sampler's equilibrium delay takes one log per row, shape (500, 1)
        gain_bases = [base for base in power_bases if base.shape[1] > 1]
        assert len(gain_bases) == len(grid)  # one pass per lag, lag 0 once
        for base in gain_bases:
            assert np.all(np.isfinite(base) & (base >= np.finfo(float).tiny))

    def test_curve_pinned(self, traffic, geom):
        grid = list(CURVE_PINS)
        for t, est in zip(grid, estimate_curve(traffic, geom, grid, 2000, SEED)):
            assert (est.rho, est.se_rho, est.variance, est.covariance) == CURVE_PINS[t]


class TestEstimate:
    def test_curve_shares_one_draw_per_block(self, traffic, geom):
        """With the window fixed, a lag's estimate does not depend on the
        other lags of the grid: estimate(t) is the curve at t, bit for bit."""
        grid = [0.0, 0.8, 5.0, 10.0, 15.0, 29.2, 30.0]
        window = default_window(traffic, geom, 30.0, 2000)
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
        w_lo, w_hi = default_window(traffic, geom, t, 20000)
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
