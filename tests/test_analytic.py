"""Tests for the analytic covariance and correlation routes."""

import math
from functools import partial

import numpy as np
import pytest

import oracles
from roadcorr.analytic import (
    _TAIL_CAPS,
    COVARIANCE_METHODS,
    CovarianceBreakdown,
    _gain_kernel,
    _gain_tail,
    _lag_range,
    _lags_served,
    close_pairs_expansion,
    close_pairs_numeric,
    covariance,
    distant_pairs_exact,
    rho,
    rho_ppp,
    same_vehicle_term,
    variance,
)
from roadcorr.cli import KNOWN_METHODS
from roadcorr.errors import ConvergenceError, DomainError, ParameterError
from roadcorr.model import NetworkGeometry, TrafficModel, mean_interference
from roadcorr.sim import estimate_curve
from roadcorr.specfun import QuadratureSpec, hyp2f1

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

# Exact-route covariances at minimum gap 4 m (canonical geometry) from a
# 25-digit mpmath evaluation of the same truncated convolution, which shares
# neither the gain kernel nor the integrator with roadcorr
# (scripts/mpmath_reference.py).
MPMATH_COVARIANCE = {
    (0.05, 5.0): 8.1491996263712065e-14,
    (0.05, 29.2): 1.0208045123604691e-14,
    (0.1, 5.0): 9.1666561126387813e-14,
    (0.2, 5.0): 2.0343138190900751e-14,
}

# The gain tail over x > 1, 2F1(2 eta - 1, eta; 2 eta; -sigma) / (2 eta - 1),
# at 30 digits from mpmath (scripts/mpmath_reference.py kernel), at the
# sigmas below: the pinned points and every cap of the rule ladder.
GAIN_TAIL_SIGMAS = (
    0.0, 1e-09, 1.2649110720673518e-08, 0.0002249618304315163, 0.030450752866514493,
    0.165700878919066, 0.41517824059803266, 0.5, 1.210395865198624, 2.0,
    2.3633942655498763, 2.7, 5.69215475867066, 10.365592205633533, 16.0,
    23.728179340914103, 34.0, 42.439348219302445,
)
GAIN_TAIL = {
    2.05: (
        "0.322580645161290359549570018736", "0.322580644661290360162560182981",
        "0.322580638836735097291242009442", "0.322468195260300306916835498677",
        "0.307904752547745159104759301264", "0.253894212078847691289645067673",
        "0.186598581808023178947051279032", "0.169935385167048574674844960561",
        "0.0899751425890806661532533343192", "0.0536910473342978671242864588339",
        "0.0441076364511301058066333807423", "0.037384739065398610101855832371",
        "0.0130367686855789184727117846182", "0.00491372048518840562080937084195",
        "0.00229791011990852933455396343522", "0.0011192024662919236442360196311",
        "0.000569451119849974085407411637223", "0.00037273150491100968036106901561",
    ),
    2.5: (
        "0.25", "0.249999999500000000729166634588",
        "0.249999993675444756329907022839", "0.249887555975653025401987629708",
        "0.235425208247001345672395419891", "0.183618019044580511303376374594",
        "0.123583861257081162106537577073", "0.109603095097228718115034798256",
        "0.0485794077919314181157091951248", "0.02516636756708248387872357722",
        "0.0196031808469078869324365975625", "0.0158923388306198746051630677482",
        "0.00419667748408311602073283573944", "0.00123184351749121791552503223785",
        "0.000476239941213857148294389288313", "0.000194344500477930734532603025111",
        "0.0000839617312586868622956625210649", "0.0000496559823144466234504479306576",
    ),
    3.0: (
        "0.2", "0.199999999500000000857142824752",
        "0.19999999367544477680609712558", "0.199887562448693316796824515412",
        "0.185535493564799322361375902692", "0.136035113456515592711004957149",
        "0.0830493596744608838390438399897", "0.0715229789897835620007403913773",
        "0.0260453404609195177584101748965", "0.0115453596808261226921640374785",
        "0.00848176056058675751428662478771", "0.00654792026658316937678066150277",
        "0.00127451297581413034962262207295", "0.000284605488634964632209037578616",
        "0.0000893906060010701436341516469256", "0.0000300775287017158952279016965478",
        "0.0000108713845373151330169495497298", "0.00000575610819391608277270899536523",
    ),
    4.0: (
        "0.142857142857142857142857142857", "0.142857142357142858253968220827",
        "0.14285713653258767458387389946", "0.142744718150082422014668337133",
        "0.128608190013669997200996661516", "0.0833402800322721753181993938928",
        "0.0418778685423115503685747689977", "0.0340146011238734943111157692909",
        "0.00837617830279549902769177863923", "0.00272454594499057676887564778024",
        "0.00178214979522132627649432130993", "0.00124869609607951026919388612971",
        "0.000132923269443681002177546779448", "0.0000172999342451751436289480588394",
        "0.00000360656663633881195384432076107", "0.000000829284455050838417169399410734",
        "0.000000210765945905260502311733974621", "0.0000000896835788016098012943433188608",
    ),
    6.0: (
        "0.0909090909090909090909090909091", "0.0909090904090909107062936711529",
        "0.0909090845845358072156835041348", "0.0907966916994595067810657180302",
        "0.0770754660770673115259062648288", "0.0390210516199664875731006327293",
        "0.0132930420514799567042659172472", "0.00960696105849316093986913019805",
        "0.00108540248060347215612762277182", "0.000190847421392013361868173449983",
        "0.0000991362175652703930443347466071", "0.0000573067367809615952880545026983",
        "0.0000018449590377733356165013975299", "0.0000000824760189189630193071236369647",
        "0.00000000763792410710070038133359532516", "8.26045027971767201917962118792e-10",
        "1.04416673947719654439127628343e-10", "2.87896446706033804189968863549e-11",
    ),
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

    @pytest.mark.parametrize("intensity,t", sorted(MPMATH_COVARIANCE))
    def test_exact_route_matches_independent_reference(self, intensity, t, geom):
        stream = TrafficModel.from_intensity(intensity, 4.0)
        got = covariance(t, stream, geom, "exact-quadrature").covariance
        scale = same_vehicle_term(0.0, stream, geom)
        assert abs(got - MPMATH_COVARIANCE[intensity, t]) <= 1e-14 * scale

    def test_tight_solve_below_roundoff_raises(self):
        # At eta 6 the deviation part nearly cancels, so a 1e-13 relative
        # target sits below its roundoff; the default spec still converges.
        geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=6.0,
                               speed=10.0)
        stream = TrafficModel.from_intensity(0.15, 4.0)
        got = covariance(29.2, stream, geom, "exact-quadrature")
        assert math.isclose(got.covariance, 4.8152358124944e-29, rel_tol=1e-12)
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
        with pytest.raises(ConvergenceError, match="roundoff") as info:
            covariance(29.2, stream, geom, "exact-quadrature", tight)
        assert math.isfinite(info.value.best_estimate)
        assert info.value.error_bound > 0.0


class TestGainKernel:
    @pytest.mark.parametrize("eta", [2.05, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 3.7])
    def test_matches_defining_integral(self, s, eta):
        assert math.isclose(_gain_kernel(s, eta),
                            oracles.pair_kernel_defining(s, eta), rel_tol=1e-13)

    def test_even_and_vectorized(self):
        s = np.linspace(0.0, 3.7, 38).reshape(2, 19)
        values = _gain_kernel(s, 3.0)
        assert values.shape == s.shape
        assert np.array_equal(_gain_kernel(-s, 3.0), values)
        scalars = [[_gain_kernel(float(v), 3.0) for v in row] for row in s]
        assert np.array_equal(values, scalars)

    def test_same_vehicle_term_is_intensity_times_kernel(self, traffic, geom):
        for t in (0.0, 5.0, 30.0):
            kernel = _gain_kernel(t * geom.speed / geom.guard_radius, 3.0)
            assert same_vehicle_term(t, traffic, geom) == (
                traffic.intensity * geom.guard_radius ** -5.0 * kernel)


class TestGainTail:
    @pytest.mark.parametrize("eta", sorted(GAIN_TAIL))
    def test_matches_30_digit_values(self, eta):
        got = _gain_tail(1.0, np.array(GAIN_TAIL_SIGMAS), eta)
        want = np.array([float(v) for v in GAIN_TAIL[eta]])
        assert np.all(np.abs(got / want - 1.0) <= 2e-15)

    def test_pins_cover_every_rung_cap(self):
        assert set(_TAIL_CAPS.tolist()) <= set(GAIN_TAIL_SIGMAS)

    def test_top_rung_covers_every_route(self):
        """The exact route's largest sigma is 2 + 64 c / r0 with c <= r0 / 2."""
        assert _TAIL_CAPS[-1] >= 2.0 + 64 * 0.5

    def test_zero_sigma_is_the_prefactor(self):
        """sigma = 0 takes the 1-node rule, whose one weight is 1, so the
        tail is its prefactor exactly at every exponent (a wider rule's
        normalised weights need not sum to exactly 1)."""
        for eta in [*np.linspace(2.01, 12.0, 200).tolist(), 92.0]:
            power = 2.0 * eta - 1.0
            for a in (1.0, 0.37, 150.0):
                assert _gain_tail(a, 0.0, eta) == np.power(a, -power) / power
            assert np.array_equal(_gain_tail(150.0, np.zeros(3), eta),
                                  np.full(3, np.power(150.0, -power) / power))

    @pytest.mark.parametrize("eta", [2.05, 3.0, 6.0])
    def test_scalar_equals_array_entry(self, eta):
        sigma = np.array(sorted({*GAIN_TAIL_SIGMAS, *np.linspace(0.0, 42.0, 57).tolist()}))
        batch = _gain_tail(1.0, sigma, eta)
        assert np.array_equal(batch, [_gain_tail(1.0, x, eta) for x in sigma.tolist()])
        a = np.linspace(0.5, 300.0, sigma.size)
        batch = _gain_tail(a, sigma * a, eta)
        assert np.array_equal(batch, [_gain_tail(x, y, eta)
                                      for x, y in zip(a.tolist(), (sigma * a).tolist())])

    def test_entry_keeps_its_bytes_in_any_batch(self):
        own = _gain_tail(1.0, np.array([0.5, 2.0]), 3.0)
        for others in ([0.0], [1e-9, 34.0], np.linspace(0.0, 42.0, 40).tolist()):
            mixed = _gain_tail(1.0, np.array([*others, 0.5, 2.0, *others]), 3.0)
            assert mixed[len(others):len(others) + 2].tobytes() == own.tobytes()

    def test_refuses_past_the_top_rung(self):
        with pytest.raises(ConvergenceError, match="sigma = 50.0") as info:
            _gain_tail(1.0, 50.0, 3.0)
        want = hyp2f1(5.0, 3.0, 6.0, -50.0) / 5.0
        assert math.isclose(info.value.best_estimate, want, rel_tol=1e-13)
        assert 0.0 <= info.value.error_bound <= 1e-12 * want
        with pytest.raises(ConvergenceError, match="sigma = 60.0") as info:
            _gain_tail(2.0, np.array([[1.0, 3.0], [120.0, 200.0]]), 3.0)
        assert math.isclose(info.value.best_estimate,
                            2.0 ** -5 * hyp2f1(5.0, 3.0, 6.0, -60.0) / 5.0, rel_tol=1e-13)


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
        """Up to occupancy 0.999, where a sum of the three addends would
        cancel to 3.7e-10 relative."""
        for stream in (traffic, TrafficModel.from_intensity(0.95 / 4.0, 4.0),
                       TrafficModel.from_intensity(0.999 / 4.0, 4.0)):
            scale = (1.0 - stream.occupancy) ** 2
            for t in (0.8, 5.0, 29.2):
                want = scale * same_vehicle_term(t, stream, geom)
                got = covariance(t, stream, geom, "expansion").covariance
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

    def test_overflowing_squared_mean_raises_domain_error(self, geom):
        """At an intensity of 1e300 the squared mean overflows: every method
        raises one DomainError naming it before a breakdown is formed,
        instead of the breakdown's inconsistency or an OverflowError."""
        traffic = TrafficModel.from_intensity(1e300, 0.0)
        want = r"^squared mean interference inf is not finite at intensity 1e\+300"
        for method in COVARIANCE_METHODS:
            with pytest.raises(DomainError, match=want):
                covariance(5.0, traffic, geom, method)
        with pytest.raises(DomainError, match=want):
            rho(5.0, traffic, geom, "pcf-approx")


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

    @pytest.mark.parametrize("lam,c,r0,eta", [(0.05, 4.0, 1e300, 3.0), (0.05, 4.0, 150.0, 500.0),
                                              (5e-324, 0.0, 150.0, 3.0), (1e-299, 0.0, 150.0, 3.0)])
    def test_pcf_refuses_a_vanishing_variance(self, lam, c, r0, eta):
        """Where the thinned variance underflows to zero, or to a subnormal
        (1.05e-310 at intensity 1e-299), pcf-approx raises DomainError
        naming it, not ZeroDivisionError or a digitless quotient; ppp and
        expansion, which never form it, still evaluate."""
        traffic = TrafficModel.from_intensity(lam, c)
        geom = NetworkGeometry(guard_radius=r0, pathloss_exponent=eta, speed=10.0)
        with pytest.raises(DomainError, match=r"^variance .* below the smallest normal float "
                                              r"at guard radius .*, exponent .* and intensity"):
            rho(5.0, traffic, geom, "pcf-approx")
        for method in ("ppp", "expansion"):
            assert math.isfinite(rho(5.0, traffic, geom, method))

    def test_overflowing_same_vehicle_prefactor_raises_domain_error(self):
        """At a guard radius of 0.0113 and an exponent of 92, r0**(1 - 2 eta)
        and the squared mean overflow: every route that forms either raises
        DomainError naming the geometry, not OverflowError; ppp and
        expansion, which form neither, still evaluate."""
        traffic = TrafficModel.from_intensity(0.05, 0.0)
        geom = NetworkGeometry(guard_radius=0.0113, pathloss_exponent=92.0, speed=10.0)
        for call in (partial(rho, 0.001, traffic, geom, "pcf-approx"),
                     partial(covariance, 0.001, traffic, geom, "exact-quadrature"),
                     partial(same_vehicle_term, 0.001, traffic, geom),
                     partial(variance, traffic, geom)):
            with pytest.raises(DomainError, match=r"guard radius 0\.0113 and exponent 92\.0$"):
                call()
        for method in ("ppp", "expansion"):
            assert 0.0 < rho(0.001, traffic, geom, method) < 1e-25


class TestLagRule:
    """Every route evaluates exactly at the lags its rule gives, written
    out here: [t_lo, t_hi] = [2c / u, 2 (r0 - c) / u] for the closed pair
    forms, [0, 2 r0 / u] for ppp on any stream, and [0, t_max] =
    [0, 2 r0 / u] for the exact route, the simulation and the same-vehicle
    term. A stream with c > r0 / 2 has no lag window, so only ppp
    evaluates on it. Everywhere else a route raises DomainError. The lags
    are t_lo, t_hi and t_max with one floating-point step on each side."""

    ROUTES = {
        **{f"rho {m}": partial(rho, method=m) for m in KNOWN_METHODS if m != "simulation"},
        **{f"covariance {m}": partial(covariance, method=m) for m in COVARIANCE_METHODS},
        "same_vehicle_term": same_vehicle_term,
        "distant_pairs_exact": distant_pairs_exact,
        "close_pairs_numeric": close_pairs_numeric,
        "close_pairs_expansion": close_pairs_expansion,
    }
    PAIR_FORMS = {"rho expansion", "rho pcf-approx", "covariance expansion",
                  "covariance pcf-approx", "distant_pairs_exact", "close_pairs_numeric",
                  "close_pairs_expansion"}

    @classmethod
    def inside(cls, route, c, geom, lags):
        """The lags the route must evaluate on a stream with min gap c."""
        r0, u = geom.guard_radius, geom.speed
        if route == "rho ppp":
            lo, hi = 0.0, 2.0 * r0 / u
        elif c > r0 / 2.0:
            return []
        elif route in cls.PAIR_FORMS:
            lo, hi = 2.0 * c / u, 2.0 * (r0 - c) / u
        else:
            lo, hi = 0.0, 2.0 * r0 / u
        return [t for t in lags if lo <= t <= hi]

    def test_canonical_boundaries(self, traffic, geom):
        for route in ("expansion", "pcf-approx"):
            assert _lag_range(route, traffic, geom) == (2.0 * 4.0 / 10.0,
                                                        2.0 * (150.0 - 4.0) / 10.0)
        for route in ("ppp", "exact-quadrature", "simulation", "same-vehicle"):
            assert _lag_range(route, traffic, geom) == (0.0, 2.0 * 150.0 / 10.0)

    def test_poisson_window_starts_at_zero(self, traffic_ppp, geom):
        assert _lag_range("pcf-approx", traffic_ppp, geom) == (0.0, 30.0)
        assert _lag_range("exact-quadrature", traffic_ppp, geom) == (0.0, 30.0)

    def test_rejects_gap_wider_than_half_guard(self, geom):
        wide = TrafficModel.from_intensity(0.005, 80.0)
        for route in ("expansion", "pcf-approx", "exact-quadrature", "simulation"):
            with pytest.raises(DomainError, match="half the guard radius"):
                _lag_range(route, wide, geom)
        assert _lag_range("ppp", wide, geom) == (0.0, 30.0)

    def test_rejects_overflowing_t_max(self, traffic):
        """2 r0 / u overflows: only ppp, which reads the geometry alone,
        still answers, with an unbounded range."""
        huge = NetworkGeometry(guard_radius=1e308, pathloss_exponent=3.0, speed=1e-300)
        for route in ("expansion", "pcf-approx", "exact-quadrature", "simulation"):
            with pytest.raises(DomainError, match="not finite"):
                _lag_range(route, traffic, huge)
        assert _lag_range("ppp", traffic, huge) == (0.0, math.inf)

    @pytest.mark.parametrize("lam,c", [(0.05, 0.0), (0.05, 4.0), (0.005, 75.0), (0.005, 80.0)])
    def test_routes_evaluate_exactly_where_the_rule_says(self, lam, c, geom):
        traffic = TrafficModel.from_intensity(lam, c)
        r0, u = geom.guard_radius, geom.speed
        edges = {2.0 * c / u, 2.0 * (r0 - c) / u, 2.0 * r0 / u}
        lags = sorted(edges | {float(np.nextafter(t, side)) for t in edges
                               for side in (-np.inf, np.inf)})
        for route, fn in self.ROUTES.items():
            inside = self.inside(route, c, geom, lags)
            for t in lags:
                if t in inside:
                    value = fn(t, traffic, geom)
                    assert math.isfinite(getattr(value, "covariance", value)), (route, t)
                else:
                    with pytest.raises(DomainError):
                        fn(t, traffic, geom)
        inside = self.inside("simulation", c, geom, lags)
        if inside:
            curve = estimate_curve(traffic, geom, inside, 1000, 20260816)
            assert all(math.isfinite(est.rho) for est in curve)
        for t in sorted(set(lags) - set(inside)):
            with pytest.raises(DomainError):
                estimate_curve(traffic, geom, [t], 1000, 20260816)
        # the CLI's filter serves the same lags
        for method in KNOWN_METHODS:
            route = method if method == "simulation" else f"rho {method}"
            assert [lags[i] for i in _lags_served(method, traffic, geom, lags)] \
                == self.inside(route, c, geom, lags)
