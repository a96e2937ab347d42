"""Tests for the analytic covariance and correlation routes."""

import math

import numpy as np
import pytest

import oracles
from roadcorr.analytic import (
    CovarianceBreakdown,
    close_pairs_expansion,
    close_pairs_numeric,
    covariance,
    distant_pairs_exact,
    rho,
    rho_ppp,
    same_vehicle_term,
    variance,
)
from roadcorr.errors import ConvergenceError, DomainError, ParameterError
from roadcorr.model import NetworkGeometry, TrafficModel, mean_interference
from roadcorr.specfun import QuadratureSpec

# Reference values for the canonical configuration (intensity 0.05 /m,
# minimum gap 4 m, guard radius 150 m, exponent 3, speed 10 m/s),
# computed with the independent scipy-based integrators in oracles.py
# and frozen here as regression anchors.
MEAN_CANONICAL = 2.2222222222222225e-06
SAME_VEHICLE_ZERO_LAG = 2.6337448559670783e-13
VARIANCE_APPROX = 4.2139917695473253e-13
VARIANCE_PPP = 5.267489711934157e-13
VARIANCE_EXACT = 4.345222080952946e-13

RHO_PCF = {
    0.8: 0.3524110818351474,
    5.0: 0.1941148936293485,
    15.0: 0.06801468850809494,
    29.2: 0.024320636642400584,
}
RHO_PPP = {
    0.8: 0.43898608162803054,
    5.0: 0.24177908674148058,
    15.0: 0.08470770839917964,
    29.2: 0.030288457122182297,
}
# t = 0 and t = 30 come from a solve at rel_tol 1e-13, abs_tol 1e-300.
RHO_EXACT = {
    0.0: 0.39387566230310617,
    0.8: 0.3404864018582446,
    5.0: 0.1875439154831788,
    15.0: 0.06571338293399318,
    29.2: 0.023492573995278227,
    30.0: 0.019463443158688996,
}

# Exact-route (covariance, close_pairs) at occupancy 0.4 and 0.8 (minimum
# gap 4 m, canonical geometry), frozen as regression anchors. At t = 0.4 and
# t = 0.8 the lag shift equals one and two band widths, so the guard-zone
# crossings fall exactly on band edges.
EXACT_DENSE = {
    (0.1, 0.0): (1.9720017473217449e-13, 4.664320629582674e-13),
    (0.1, 0.4): (1.7669905987295683e-13, 4.677585205162959e-13),
    (0.1, 0.8): (1.6634800114458618e-13, 4.5276832616444133e-13),
    (0.1, 5.0): (9.166656112638663e-14, 2.4883585243556264e-13),
    (0.1, 29.2): (1.1511991801692101e-14, 3.1079449386109885e-14),
    (0.1, 30.0): (7.201341341821863e-15, 5.1551827067782127e-14),
    (0.2, 0.0): (5.634293732179389e-14, 1.907965533501871e-12),
    (0.2, 5.0): (2.0343138190900068e-14, 1.0029694869072021e-12),
    (0.2, 30.0): (-4.65673013938575e-15, 1.962908004619919e-13),
}


def exact_variance(traffic, geom):
    """Zero-lag variance assembled from the exact-quadrature route.

    The variance keeps the squared fading of each vehicle with itself,
    so it exceeds the zero-lag covariance (which refreshes the fading)
    by exactly one same-vehicle term.
    """
    zero_lag = covariance(0.0, traffic, geom, "exact-quadrature").covariance
    return same_vehicle_term(0.0, traffic, geom) + zero_lag


class TestFrozenValues:
    def test_mean_interference(self, traffic, geom):
        assert math.isclose(mean_interference(traffic, geom), MEAN_CANONICAL,
                            rel_tol=1e-12)

    def test_same_vehicle_zero_lag(self, traffic, geom):
        assert math.isclose(same_vehicle_term(0.0, traffic, geom),
                            SAME_VEHICLE_ZERO_LAG, rel_tol=1e-10)

    def test_variance_closed_forms(self, traffic, geom):
        assert math.isclose(variance(traffic, geom, "ppp"), VARIANCE_PPP,
                            rel_tol=1e-12)
        assert math.isclose(variance(traffic, geom, "approx"), VARIANCE_APPROX,
                            rel_tol=1e-12)

    def test_variance_exact_route(self, traffic, geom):
        assert math.isclose(exact_variance(traffic, geom), VARIANCE_EXACT,
                            rel_tol=1e-6)

    @pytest.mark.parametrize("t", sorted(RHO_PCF))
    def test_rho_pcf(self, t, traffic, geom):
        assert math.isclose(rho(t, traffic, geom, "pcf-approx"), RHO_PCF[t],
                            rel_tol=1e-8)

    @pytest.mark.parametrize("t", sorted(RHO_PPP))
    def test_rho_ppp(self, t, geom):
        assert math.isclose(rho_ppp(t, geom), RHO_PPP[t], rel_tol=1e-10)

    @pytest.mark.parametrize("t", sorted(RHO_EXACT))
    def test_rho_exact_route(self, t, traffic, geom):
        value = (covariance(t, traffic, geom, "exact-quadrature").covariance
                 / exact_variance(traffic, geom))
        assert math.isclose(value, RHO_EXACT[t], rel_tol=1e-8)

    @pytest.mark.parametrize("intensity,t", sorted(EXACT_DENSE))
    def test_exact_route_dense_streams(self, intensity, t, geom):
        dense = TrafficModel.from_intensity(intensity, 4.0)
        breakdown = covariance(t, dense, geom, "exact-quadrature")
        cov, close = EXACT_DENSE[intensity, t]
        assert math.isclose(breakdown.covariance, cov, rel_tol=1e-12)
        assert math.isclose(breakdown.close_pairs, close, rel_tol=1e-12)

    @pytest.mark.parametrize("eta,intensity,t", [
        (3.0, 0.02, 0.0), (4.0, 0.05, 29.2), (2.05, 0.15, 0.0)])
    def test_exact_route_default_matches_tight_solve(self, eta, intensity, t):
        # The default tolerances must already give the exact route to
        # within 1e-13 of a solve with every tolerance tightened.
        geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=eta,
                               speed=10.0)
        stream = TrafficModel.from_intensity(intensity, 4.0)
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
        got = covariance(t, stream, geom, "exact-quadrature")
        ref = covariance(t, stream, geom, "exact-quadrature", tight)
        assert math.isclose(got.covariance, ref.covariance, rel_tol=1e-13)
        assert math.isclose(got.close_pairs, ref.close_pairs, rel_tol=1e-13)


class TestSameVehicleTerm:
    @pytest.mark.parametrize("t", [0.0, 0.8, 1.0, 5.0, 15.0, 29.2, 30.0])
    def test_matches_defining_integral(self, t, traffic, geom):
        assert math.isclose(same_vehicle_term(t, traffic, geom),
                            oracles.same_vehicle_defining(t, traffic, geom),
                            rel_tol=1e-9)

    def test_linear_in_intensity(self, geom):
        lo = TrafficModel.from_intensity(0.05, 4.0)
        hi = TrafficModel.from_intensity(0.1, 4.0)
        assert math.isclose(same_vehicle_term(5.0, hi, geom),
                            2.0 * same_vehicle_term(5.0, lo, geom),
                            rel_tol=1e-14)

    def test_gap_has_no_effect(self, traffic, traffic_ppp, geom):
        assert same_vehicle_term(5.0, traffic, geom) \
            == same_vehicle_term(5.0, traffic_ppp, geom)

    def test_rejects_lag_outside_range(self, traffic, geom):
        with pytest.raises(DomainError):
            same_vehicle_term(-0.1, traffic, geom)
        with pytest.raises(DomainError):
            same_vehicle_term(30.1, traffic, geom)


class TestDistantPairs:
    @pytest.mark.parametrize("t", [0.8, 5.0, 15.0, 29.2])
    def test_matches_defining_integral(self, t, traffic, traffic_light, geom):
        for tr in (traffic, traffic_light):
            assert math.isclose(distant_pairs_exact(t, tr, geom),
                                oracles.distant_pairs_defining(t, tr, geom),
                                rel_tol=1e-9)

    def test_matches_defining_integral_random_draws(self):
        rng = np.random.default_rng(20260816)
        for _ in range(20):
            eta = rng.uniform(2.2, 5.0)
            r0 = rng.uniform(50.0, 300.0)
            u = rng.uniform(5.0, 30.0)
            c = rng.uniform(0.5, r0 / 20.0)
            lam = rng.uniform(0.02, 0.29) / c
            geom = NetworkGeometry(guard_radius=r0, pathloss_exponent=eta,
                                   speed=u)
            tr = TrafficModel.from_intensity(lam, c)
            t_lo = 2.0 * c / u
            t_hi = 2.0 * (r0 - c) / u
            t = t_lo + rng.uniform(0.05, 0.95) * (t_hi - t_lo)
            assert math.isclose(distant_pairs_exact(t, tr, geom),
                                oracles.distant_pairs_defining(t, tr, geom),
                                rel_tol=1e-8)

    @pytest.mark.parametrize("t", [0.8, 5.0, 29.2])
    def test_below_independent_pair_level(self, t, traffic, geom):
        mean_sq = mean_interference(traffic, geom) ** 2
        assert distant_pairs_exact(t, traffic, geom) < mean_sq

    def test_poisson_stream_reaches_independent_level(self, traffic_ppp, geom):
        mean_sq = mean_interference(traffic_ppp, geom) ** 2
        assert math.isclose(distant_pairs_exact(5.0, traffic_ppp, geom),
                            mean_sq, rel_tol=1e-12)
        assert math.isclose(
            covariance(5.0, traffic_ppp, geom, "expansion").distant_pairs,
            mean_sq, rel_tol=1e-12)

    def test_rejects_lag_outside_window(self, traffic, geom):
        with pytest.raises(DomainError):
            distant_pairs_exact(0.7, traffic, geom)
        with pytest.raises(DomainError):
            distant_pairs_exact(29.3, traffic, geom)

    @pytest.mark.parametrize("t", [0.8, 5.0, 15.0, 29.2])
    def test_expansion_tracks_exact(self, t, traffic, geom):
        """The closed form reproduces the hardcore correction itself
        to first order in min_gap / guard_radius, not just the total."""
        mean_sq = mean_interference(traffic, geom) ** 2
        exact = distant_pairs_exact(t, traffic, geom)
        expn = covariance(t, traffic, geom, "expansion").distant_pairs
        correction = abs(mean_sq - expn)
        bound = 2.0 * traffic.min_gap / geom.guard_radius
        assert abs(exact - expn) <= bound * correction


class TestClosePairs:
    @pytest.mark.parametrize("t", [0.8, 1.0, 5.0, 15.0, 26.0, 29.2])
    def test_numeric_matches_defining_bands(self, t, geom):
        for lam in (0.02, 0.05, 0.2):
            tr = TrafficModel.from_intensity(lam, 4.0)
            defining = 2.0 * (oracles.close_band_defining(t, tr, geom, "ahead")
                              + oracles.close_band_defining(t, tr, geom, "behind"))
            assert math.isclose(close_pairs_numeric(t, tr, geom), defining,
                                rel_tol=1e-9)

    @pytest.mark.parametrize("t", [0.8, 5.0, 29.2])
    def test_routes_share_the_band_integral(self, t, traffic, geom):
        exact = covariance(t, traffic, geom, "exact-quadrature")
        approx = covariance(t, traffic, geom, "pcf-approx")
        assert exact.close_pairs == approx.close_pairs

    def test_numeric_matches_brute_force_grid(self, traffic, geom):
        grid = oracles.close_pairs_grid_sum(1.0, traffic, geom)
        assert math.isclose(close_pairs_numeric(1.0, traffic, geom), grid,
                            rel_tol=1e-6)

    def test_numeric_decreases_with_lag(self, traffic, geom):
        values = [close_pairs_numeric(t, traffic, geom)
                  for t in (0.8, 2.0, 8.0, 20.0, 29.2)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_poisson_stream_contributes_nothing(self, traffic_ppp, geom):
        assert close_pairs_numeric(5.0, traffic_ppp, geom) == 0.0

    def test_expansion_is_occupancy_scaled_same_vehicle(self, traffic, geom):
        occ = traffic.occupancy
        want = occ * (2.0 + occ)
        for t in (0.8, 5.0, 29.2):
            ratio = (close_pairs_expansion(t, traffic, geom)
                     / same_vehicle_term(t, traffic, geom))
            assert math.isclose(ratio, want, rel_tol=1e-12)

    def test_expansion_error_grows_with_occupancy(self, geom):
        gaps = []
        for lam in (0.0025, 0.0125, 0.025, 0.05):
            tr = TrafficModel.from_intensity(lam, 4.0)
            num = close_pairs_numeric(1.0, tr, geom)
            expn = close_pairs_expansion(1.0, tr, geom)
            gaps.append(abs(expn - num) / num)
        assert gaps[0] <= 0.05
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


class TestVariance:
    def test_closed_forms(self, traffic, geom):
        eta = geom.pathloss_exponent
        ppp = (4.0 * traffic.intensity
               * geom.guard_radius ** (1.0 - 2.0 * eta) / (2.0 * eta - 1.0))
        assert math.isclose(variance(traffic, geom, "ppp"), ppp, rel_tol=1e-15)
        assert variance(traffic, geom, "approx") \
            == (1.0 - traffic.occupancy) * variance(traffic, geom, "ppp")

    def test_approx_equals_ppp_without_gap(self, traffic_ppp, geom):
        assert variance(traffic_ppp, geom, "approx") \
            == variance(traffic_ppp, geom, "ppp")

    def test_unknown_method_rejected(self, traffic, geom):
        with pytest.raises(ParameterError):
            variance(traffic, geom, "exact")


class TestCovariance:
    def test_breakdown_identity_enforced(self):
        with pytest.raises(ParameterError):
            CovarianceBreakdown(same_vehicle=1.0, distant_pairs=1.0,
                                close_pairs=0.0, mean_sq=1.0,
                                covariance=2.0, method="pcf-approx")

    def test_breakdown_rejects_unknown_method(self):
        with pytest.raises(ParameterError):
            CovarianceBreakdown(same_vehicle=1.0, distant_pairs=1.0,
                                close_pairs=0.0, mean_sq=1.0,
                                covariance=1.0, method="nope")

    @pytest.mark.parametrize("method",
                             ["exact-quadrature", "pcf-approx", "expansion"])
    def test_method_recorded(self, method, traffic, geom):
        got = covariance(5.0, traffic, geom, method)
        assert got.method == method
        total = (got.same_vehicle + got.distant_pairs + got.close_pairs
                 - got.mean_sq)
        assert math.isclose(total, got.covariance, rel_tol=1e-9)

    def test_methods_agree_for_poisson_stream(self, traffic_ppp, geom):
        values = [covariance(5.0, traffic_ppp, geom, m).covariance
                  for m in ("exact-quadrature", "pcf-approx", "expansion")]
        base = same_vehicle_term(5.0, traffic_ppp, geom)
        for value in values:
            assert math.isclose(value, base, rel_tol=1e-8)

    @pytest.mark.parametrize("t", [0.8, 5.0, 29.2])
    def test_pcf_route_tracks_exact_at_low_occupancy(self, t, traffic_light,
                                                     geom):
        approx = covariance(t, traffic_light, geom, "pcf-approx").covariance
        exact = covariance(t, traffic_light, geom, "exact-quadrature").covariance
        assert math.isclose(approx, exact, rel_tol=1e-2)

    def test_expansion_equals_scaled_poisson(self, traffic, geom):
        scale = (1.0 - traffic.occupancy) ** 2
        for t in (0.8, 5.0, 29.2):
            want = scale * same_vehicle_term(t, traffic, geom)
            got = covariance(t, traffic, geom, "expansion").covariance
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_smooth_at_window_edge(self, traffic, geom):
        t_lo, t_hi = 0.8, 29.2
        step = 0.001 * (t_hi - t_lo)
        at_edge = covariance(t_lo, traffic, geom, "pcf-approx").covariance
        inside = covariance(t_lo + step, traffic, geom, "pcf-approx").covariance
        assert abs(at_edge - inside) <= 0.01 * abs(at_edge)

    def test_domain_gates(self, traffic, geom):
        assert covariance(0.0, traffic, geom, "exact-quadrature").covariance > 0
        with pytest.raises(DomainError):
            covariance(0.0, traffic, geom, "pcf-approx")
        with pytest.raises(DomainError):
            covariance(29.3, traffic, geom, "expansion")
        with pytest.raises(DomainError):
            covariance(30.5, traffic, geom, "exact-quadrature")

    def test_exact_route_refuses_unsettled_pair_correlation(self, geom):
        """At occupancy 0.9 the pair correlation still deviates from its
        asymptote where it switches to it, 64 minimum gaps out."""
        jammed = TrafficModel.from_intensity(0.225, 4.0)
        with pytest.raises(ConvergenceError, match="64 minimum gaps"):
            covariance(5.0, jammed, geom, "exact-quadrature")

    def test_unknown_method_rejected(self, traffic, geom):
        with pytest.raises(ParameterError):
            covariance(5.0, traffic, geom, "bogus")


class TestRho:
    def test_ppp_at_zero_lag_is_half(self, geom):
        assert rho_ppp(0.0, geom) == 0.5

    def test_ppp_strictly_decreasing(self, geom):
        grid = np.linspace(0.0, 30.0, 61)
        values = np.array([rho_ppp(float(t), geom) for t in grid])
        assert np.all(np.diff(values) < 0)

    def test_expansion_is_thinned_ppp(self, traffic, geom):
        for t in (0.8, 5.0, 29.2):
            want = (1.0 - traffic.occupancy) * rho_ppp(t, geom)
            assert math.isclose(rho(t, traffic, geom, "expansion"), want,
                                rel_tol=1e-15)

    def test_pcf_exceeds_expansion_at_short_lags(self, traffic, geom):
        for t in (0.8, 5.0):
            assert rho(t, traffic, geom, "pcf-approx") \
                > rho(t, traffic, geom, "expansion")

    def test_domain_errors(self, traffic, geom):
        with pytest.raises(DomainError):
            rho_ppp(-0.1, geom)
        with pytest.raises(DomainError):
            rho_ppp(30.0001, geom)
        with pytest.raises(DomainError):
            rho(0.5, traffic, geom, "pcf-approx")
        with pytest.raises(DomainError):
            rho(0.5, traffic, geom, "expansion")

    def test_unknown_method_rejected(self, traffic, geom):
        with pytest.raises(ParameterError):
            rho(5.0, traffic, geom, "monte-carlo")
