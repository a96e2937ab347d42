import dataclasses
import math

import numpy as np
import pytest

import oracles
import roadcorr.model
from roadcorr import (ConvergenceError, DomainError, NetworkGeometry,
                      ParameterError, TrafficModel, covariance,
                      integrate_semi_infinite, mean_interference,
                      normalized_pair_correlation, pair_correlation, pathloss, rho)
from roadcorr.model import _pair_correlation_array, _settled_reach


class TestTrafficModel:
    def test_rate_identity_from_intensity(self, traffic):
        lam, c = traffic.intensity, traffic.min_gap
        assert traffic.gap_rate == lam / (1.0 - lam * c)
        assert traffic.occupancy == lam * c

    def test_zero_gap_degenerates_to_poisson(self, traffic_ppp):
        assert traffic_ppp.gap_rate == traffic_ppp.intensity

    @pytest.mark.parametrize("lam,c", [
        (0.0, 4.0), (-0.05, 4.0), (0.05, -1.0),
        (0.05, 20.0), (0.25, 4.0),  # occupancy at or above 1
        (float("nan"), 4.0), (0.05, float("inf")),
    ])
    def test_rejects_bad_parameters(self, lam, c):
        with pytest.raises(ParameterError):
            TrafficModel(lam, c)
        with pytest.raises(ParameterError):
            TrafficModel.from_intensity(lam, c)

    def test_two_fields_and_a_derived_rate(self):
        assert [f.name for f in dataclasses.fields(TrafficModel)] == [
            "intensity", "min_gap"]
        assert TrafficModel(0.05, 4.0) == TrafficModel.from_intensity(0.05, 4.0)


class TestNetworkGeometry:
    @pytest.mark.parametrize("kwargs", [
        {"guard_radius": 0.0}, {"guard_radius": -5.0},
        {"pathloss_exponent": 2.0}, {"pathloss_exponent": 1.5},
        {"speed": 0.0}, {"speed": float("nan")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(guard_radius=150.0, pathloss_exponent=3.0, speed=10.0)
        with pytest.raises(ParameterError):
            NetworkGeometry(**{**base, **kwargs})


class TestPathloss:
    def test_power_law_outside_guard(self, geom):
        # exp(-3 log 300) is within (|3 ln 300| + 2) ulp of the power
        tol = (3.0 * math.log(300.0) + 2.0) * np.finfo(float).eps
        assert math.isclose(pathloss(300.0, geom), 300.0 ** -3, rel_tol=tol, abs_tol=0.0)

    def test_zero_inside_guard(self, geom):
        assert pathloss(100.0, geom) == 0.0

    def test_boundary_counts_as_inside(self, geom):
        assert pathloss(150.0, geom) == 0.0
        assert pathloss(-150.0, geom) == 0.0

    def test_even_in_position(self, geom):
        assert pathloss(-300.0, geom) == pathloss(300.0, geom)

    def test_vectorized_matches_scalar(self, geom):
        r = np.array([-400.0, -150.0, 0.0, 149.9, 151.0, 1e6])
        gains = pathloss(r, geom)
        assert gains.shape == r.shape
        for ri, gi in zip(r, gains):
            assert gi == pathloss(float(ri), geom)

    def test_nan_rejected(self, geom):
        with pytest.raises(ParameterError, match="NaN"):
            pathloss(math.nan, geom)
        with pytest.raises(ParameterError, match="NaN"):
            pathloss(np.array([300.0, math.nan, 100.0]), geom)

    def test_infinite_distance_has_no_gain(self, geom):
        assert pathloss(math.inf, geom) == 0.0
        assert pathloss(-math.inf, geom) == 0.0

    def test_argument_left_unchanged(self, geom):
        r = np.array([-400.0, -150.0, 0.0, 149.9, 151.0, math.inf])
        before = r.copy()
        pathloss(r, geom)
        assert np.array_equal(r, before)

    @staticmethod
    def _edge_distances(r0):
        """Silent and audible edge cases, then a block-like stretch of
        distances with a run of inf padding."""
        tiny = np.finfo(float).tiny
        edges = [math.inf, -math.inf, 0.0, -0.0, r0, -r0, 5e-324, -tiny / 4,
                 tiny, 0.5 * r0, np.nextafter(r0, 0.0), np.nextafter(r0, math.inf),
                 -np.nextafter(r0, math.inf), 2.0 * r0, 1e6]
        stretch = np.random.default_rng(3).uniform(-3000.0, 3000.0, 500)
        stretch[400:] = math.inf
        return np.concatenate([edges, stretch])

    @pytest.mark.parametrize("eta", [2.05, 3.0, 4.0, 6.0])
    def test_bit_equal_to_masked_reference(self, eta):
        geom = NetworkGeometry(150.0, eta, 10.0)
        r = self._edge_distances(geom.guard_radius)
        assert np.array_equal(pathloss(r, geom), oracles.masked_gains(r, geom))

    def test_scalar_and_0d_edges_bit_equal_to_masked_reference(self, geom):
        """Infinite distances are silenced before the guard-radius clamp,
        which would leave them infinite; the guard radius itself is silent
        and the next double beyond it is not."""
        r0 = geom.guard_radius
        for r in (math.inf, -math.inf, r0, np.nextafter(r0, math.inf)):
            want = oracles.masked_gains(np.array([r]), geom)[0]
            for arg in (float(r), np.array(r)):
                got = pathloss(arg, geom)
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes()

    def test_power_sees_only_normal_bases(self, geom, power_bases):
        """Silent entries (|r| <= guard_radius, subnormal, zero or infinite)
        never reach np.log, which would return -inf or nan on them and
        send exp down its special-value path."""
        pathloss(self._edge_distances(geom.guard_radius), geom)
        assert power_bases
        for base in power_bases:
            assert np.all(np.isfinite(base) & (base >= np.finfo(float).tiny))


    @pytest.mark.parametrize("eta", [2.05, 3.0, 4.0, 6.0])
    def test_within_stated_error_of_power(self, eta):
        """exp(-eta * log r) against numpy's pow: relative error at most
        (|eta ln r| + 2) ulp, from the guard radius out to 1e12 m."""
        geom = NetworkGeometry(150.0, eta, 10.0)
        r = np.geomspace(np.nextafter(150.0, math.inf), 1e12, 20001)
        r = np.concatenate([r, np.random.default_rng(5).uniform(150.0, 5000.0, 20000)])
        want = np.power(r, -eta)
        err = np.abs(pathloss(r, geom) / want - 1.0)
        assert np.all(err <= (np.abs(eta * np.log(r)) + 2.0) * np.finfo(float).eps)


class TestPairCorrelation:
    def test_zero_below_minimum_gap(self, traffic):
        assert pair_correlation(2.0, traffic) == 0.0
        assert pair_correlation(0.0, traffic) == 0.0

    def test_jump_at_minimum_gap(self, traffic):
        lam, rate = traffic.intensity, traffic.gap_rate
        assert math.isclose(pair_correlation(4.0, traffic), lam * rate,
                            rel_tol=1e-12)

    def test_first_band_is_shifted_exponential(self, traffic):
        lam, rate, c = traffic.intensity, traffic.gap_rate, traffic.min_gap
        d = 1.5 * c
        expected = lam * rate * math.exp(-rate * (d - c))
        assert math.isclose(pair_correlation(d, traffic), expected, rel_tol=1e-12)

    def test_continuous_at_band_joints(self, traffic):
        lam, rate, c = traffic.intensity, traffic.gap_rate, traffic.min_gap
        eps = 1e-8 * c
        for k in (2, 3, 4, 5):
            below = pair_correlation(k * c - eps, traffic)
            above = pair_correlation(k * c + eps, traffic)
            assert abs(above - below) < 1e-6 * lam * rate

    def test_far_field_asymptote(self, traffic):
        assert pair_correlation(100.0 * traffic.min_gap, traffic) \
            == traffic.intensity ** 2

    def test_unsettled_far_field_raises(self):
        """At occupancy 0.9 the density still deviates from the squared
        intensity where it would switch to it, 64 minimum gaps out."""
        jammed = TrafficModel.from_intensity(0.225, 4.0)
        with pytest.raises(ConvergenceError, match="64 minimum gaps") as info:
            pair_correlation(65.0 * jammed.min_gap, jammed)
        assert info.value.error_bound > 1e-10

    def test_poisson_is_flat(self, traffic_ppp):
        for d in (1e-6, 1.0, 100.0):
            assert pair_correlation(d, traffic_ppp) == traffic_ppp.intensity ** 2

    def test_rejects_negative_separation(self, traffic):
        with pytest.raises(ParameterError):
            pair_correlation(-1.0, traffic)
        with pytest.raises(ParameterError):
            pair_correlation(float("nan"), traffic)

    def test_vectorized_matches_scalar(self, traffic):
        d = np.concatenate([np.linspace(0.0, 40.0, 201), [256.0, 1000.0]])
        values = _pair_correlation_array(d, traffic)
        for di, vi in zip(d, values):
            assert vi == pair_correlation(float(di), traffic)


    @pytest.mark.parametrize("lam,c", [(0.05, 0.0), (0.02, 4.0), (0.05, 4.0), (0.1, 4.0),
                                       (0.15, 4.0), (0.2, 4.0), (0.1, 1.0), (0.012, 20.0)])
    def test_bits_match_the_per_band_loop(self, lam, c):
        """The bands summed as one (band, entry) array give the bytes of the
        per-band masked loop, from below the minimum gap to past the cutoff."""
        stream = TrafficModel.from_intensity(lam, c)
        unit = c or 4.0
        d = np.concatenate([np.linspace(0.0, 70.0 * unit, 7001), unit * np.array([1.0, 2.0, 64.0])])
        expected = oracles.frozen_pair_correlation_array(d, stream)
        assert _pair_correlation_array(d, stream).tobytes() == expected.tobytes()
        for i in (1, 100, 6400):
            one = _pair_correlation_array(d[i:i + 1], stream)
            assert one.tobytes() == expected[i:i + 1].tobytes()


class TestDeviationReach:
    @pytest.mark.parametrize("occupancy", np.geomspace(1e-3, 0.82, 25))
    def test_density_settled_on_the_reach_band(self, occupancy):
        """On band reach, from reach to reach + 1 minimum gaps, the density
        sits within 1e-10 relative of the squared intensity."""
        stream = TrafficModel.from_intensity(occupancy / 4.0, 4.0)
        reach = stream.deviation_reach
        d = stream.min_gap * (reach + np.linspace(0.0, 1.0, 2001))
        ratio = _pair_correlation_array(d, stream) / stream.intensity ** 2
        assert np.max(np.abs(ratio - 1.0)) <= 1e-10

    def test_pinned_reaches(self):
        """The reaches of the streams behind the frozen exact-route values
        (RHO_EXACT, EXACT_DENSE, MPMATH_COVARIANCE in test_analytic.py),
        which are integrated out to these bands."""
        reaches = [TrafficModel.from_intensity(lam, 4.0).deviation_reach
                   for lam in (0.02, 0.05, 0.1, 0.2)]
        assert reaches == [7, 9, 13, 52]

    def test_poisson_stream_has_no_deviation(self, traffic_ppp):
        assert traffic_ppp.deviation_reach == 0

    def test_reach_is_not_capped(self):
        """Past the 64 minimum gaps the package's density resolves, the
        reach is still the envelope's count (the simulator's window reads
        it there): on band reach the oracle's sum over every band sits
        within 1e-10 relative of the squared intensity."""
        streams = [TrafficModel.from_intensity(occ / 4.0, 4.0) for occ in (0.83, 0.9, 0.95)]
        assert [stream.deviation_reach for stream in streams] == [65, 152, 527]
        for stream in streams[1:]:
            d = stream.min_gap * (stream.deviation_reach + np.linspace(0.0, 1.0, 41))
            deviation = [oracles.pair_deviation_defining(float(x), stream) for x in d]
            assert np.max(np.abs(deviation)) <= 1e-10 * stream.intensity ** 2

    @pytest.mark.parametrize("occupancy", [1.0 - 1e-6, 1.0 - 1e-9])
    def test_refuses_where_the_decay_is_lost(self, occupancy):
        """Within about 1e-6 of a jam the envelope's decay per gap is lost
        to rounding: the reach raises the typed error, never a division by
        zero or a negative count."""
        stream = TrafficModel.from_intensity(occupancy / 4.0, 4.0)
        with pytest.raises(ConvergenceError, match="does not decay"):
            stream.deviation_reach

    @pytest.mark.parametrize("occupancy", [0.83, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_refuses_near_jam_with_a_finite_bound(self, occupancy, geom):
        """Up to a jammed road the reach takes no overflowing x * exp(x):
        both callers raise the typed error, never a NaN or a warning."""
        stream = TrafficModel.from_intensity(occupancy / 4.0, 4.0)
        for call in (lambda: covariance(5.0, stream, geom, "exact-quadrature"),
                     lambda: pair_correlation(65.0 * stream.min_gap, stream)):
            with pytest.raises(ConvergenceError, match="64 minimum gaps") as info:
                call()
            assert math.isfinite(info.value.error_bound)
            assert info.value.error_bound > 1e-10

    def test_vanishing_occupancy_is_served(self, geom):
        stream = TrafficModel.from_intensity(1e-12 / 4.0, 4.0)
        assert math.isfinite(covariance(5.0, stream, geom, "exact-quadrature").covariance)
        assert pair_correlation(65.0 * stream.min_gap, stream) == stream.intensity ** 2


    def test_solved_once_per_stream(self, geom, monkeypatch):
        """A 31-lag exact-route curve solves for the leading pole once."""
        calls = []
        omega = roadcorr.model._wright_omega

        def counted(z):
            calls.append(z)
            return omega(z)

        monkeypatch.setattr(roadcorr.model, "_wright_omega", counted)
        stream = TrafficModel.from_intensity(0.1, 4.0)
        for t in np.linspace(0.0, 30.0, 31):
            covariance(float(t), stream, geom, "exact-quadrature")
        assert len(calls) == 1

    # c = 4 from a vanishing occupancy to within 1e-12 of a jam, both refusing past ~0.83
    OMEGA_OCCUPANCIES = np.concatenate([np.geomspace(1e-6, 0.5, 300),
                                        1.0 - np.geomspace(1e-12, 0.5, 300)])

    def test_omega_matches_scipy(self):
        """The Newton solve agrees with scipy's wrightomega within 4 ulp
        wherever deviation_reach calls it."""
        from scipy.special import wrightomega

        for occupancy in self.OMEGA_OCCUPANCIES:
            x = TrafficModel.from_intensity(occupancy / 4.0, 4.0).gap_rate * 4.0
            z = complex(x + math.log(x), 2.0 * math.pi)
            expected = wrightomega(z)
            assert abs(roadcorr.model._wright_omega(z) - expected) <= 4 * 2.0 ** -52 * abs(expected)

    def test_reach_matches_scipy_omega(self, monkeypatch):
        """The settled reach (_settled_reach, which the pair density and the
        exact route read) by the Newton solve is the one scipy's
        wrightomega gives, or both refuse with ConvergenceError."""
        from scipy.special import wrightomega

        def reach(occupancy):
            try:
                return _settled_reach(TrafficModel.from_intensity(occupancy / 4.0, 4.0))
            except ConvergenceError:
                return "refused"

        ours = [reach(o) for o in self.OMEGA_OCCUPANCIES]
        monkeypatch.setattr(roadcorr.model, "_wright_omega", wrightomega)
        assert ours == [reach(o) for o in self.OMEGA_OCCUPANCIES]
        assert "refused" in ours and len(set(ours)) > 20   # many reaches, and refusals

    def test_omega_refuses_when_steps_run_out(self, monkeypatch):
        """With too few Newton steps the solve raises, never returns an unsettled w."""
        monkeypatch.setattr(roadcorr.model, "_OMEGA_STEPS", 1)
        with pytest.raises(ConvergenceError, match="Newton steps") as info:
            roadcorr.model._wright_omega(complex(-20.0, 2.0 * math.pi))
        assert isinstance(info.value.best_estimate, complex)
        assert 0.0 < info.value.error_bound < math.inf


class TestVanishingMinimumGap:
    """As min_gap tends to 0 every route tends to its Poisson (min_gap 0)
    value. The hardcore corrections scale with the occupancy, at most 5e-22
    here, so the tolerance is a few ulp: rel_tol 1e-15. At 5e-324 the
    product rate * min_gap underflows to 0; at 1e-300 the reach's envelope
    over the occupancy would overflow if formed as a quotient."""

    GAPS = (5e-324, 1e-300, 1e-250, 1e-20)

    @pytest.mark.parametrize("c", GAPS)
    def test_covariance_and_rho_routes(self, c, geom, traffic_ppp):
        stream = TrafficModel.from_intensity(traffic_ppp.intensity, c)
        for method in ("exact-quadrature", "pcf-approx"):
            assert math.isclose(covariance(5.0, stream, geom, method).covariance,
                                covariance(5.0, traffic_ppp, geom, method).covariance,
                                rel_tol=1e-15)
        for method in ("expansion", "pcf-approx"):
            assert math.isclose(rho(5.0, stream, geom, method),
                                rho(5.0, traffic_ppp, geom, method), rel_tol=1e-15)

    @pytest.mark.parametrize("c", GAPS)
    def test_densities_and_reach(self, c, traffic_ppp):
        """The densities at and beyond one minimum gap (below it the
        density is 0 for any min_gap > 0), and the reach's length, which
        tends to the Poisson stream's 0."""
        stream = TrafficModel.from_intensity(traffic_ppp.intensity, c)
        for d in (1e-3, 1.0, 100.0):
            assert math.isclose(pair_correlation(d, stream),
                                pair_correlation(d, traffic_ppp), rel_tol=1e-15)
        for d_over_c in (1.0, 1.5, 8.0, 100.0):
            assert math.isclose(normalized_pair_correlation(d_over_c, stream),
                                normalized_pair_correlation(d_over_c, traffic_ppp),
                                rel_tol=1e-15)
        assert stream.deviation_reach <= 2
        assert stream.deviation_reach * c <= 2.0 * c


class TestDensityArrays:
    @pytest.mark.parametrize("density", [pair_correlation, normalized_pair_correlation])
    def test_keeps_the_shape(self, density, traffic):
        d = np.linspace(0.0, 70.0, 24).reshape(4, 6)
        values = density(d, traffic)
        assert values.shape == (4, 6)
        assert values.tobytes() == density(d.ravel(), traffic).tobytes()

    @pytest.mark.parametrize("density", [pair_correlation, normalized_pair_correlation])
    @pytest.mark.parametrize("stream", [(0.05, 4.0), (0.05, 0.0)])
    def test_scalar_and_zero_d_give_a_float(self, density, stream):
        stream = TrafficModel.from_intensity(*stream)
        for d in (6.0, np.float64(6.0), np.array(6.0)):
            value = density(d, stream)
            assert type(value) is float
            assert value == density(np.array([6.0]), stream)[0]

    @pytest.mark.parametrize("density", [pair_correlation, normalized_pair_correlation])
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_any_bad_entry_raises(self, density, bad, traffic, traffic_ppp):
        for stream in (traffic, traffic_ppp):
            with pytest.raises(ParameterError):
                density(np.array([[1.0, 2.0], [bad, 3.0]]), stream)

    def test_an_unsettled_entry_raises(self):
        jammed = TrafficModel.from_intensity(0.225, 4.0)
        with pytest.raises(ConvergenceError, match="64 minimum gaps"):
            pair_correlation(np.array([4.0, 65.0 * 4.0]), jammed)
        with pytest.raises(ConvergenceError, match="64 minimum gaps"):
            normalized_pair_correlation(np.array([1.0, 65.0]), jammed)


class TestNormalizedPairCorrelation:
    def test_unit_at_first_contact(self, traffic):
        assert math.isclose(normalized_pair_correlation(1.0, traffic), 1.0,
                            rel_tol=1e-12)

    def test_zero_below_one(self, traffic):
        assert normalized_pair_correlation(0.9, traffic) == 0.0

    def test_far_field_level(self, traffic):
        assert math.isclose(normalized_pair_correlation(100.0, traffic),
                            1.0 - traffic.occupancy, rel_tol=1e-12)

    def test_poisson_stream_is_identically_one(self, traffic_ppp):
        for d_over_c in (0.5, 1.0, 7.0):
            assert normalized_pair_correlation(d_over_c, traffic_ppp) == 1.0

    @pytest.mark.parametrize("lam", [1e-170, 1e-200])
    def test_underflowing_scale_raises(self, lam):
        """At c = 1 the scale intensity * gap_rate underflows to 0 below an
        intensity of about 1e-162: a scalar and an array both raise
        DomainError naming the intensity, not ZeroDivisionError or NaN."""
        faint = TrafficModel.from_intensity(lam, 1.0)
        for d_over_c in (2.0, np.array([1.0, 2.0])):
            with pytest.raises(DomainError, match=f"intensity {lam!r}"):
                normalized_pair_correlation(d_over_c, faint)


class TestMeanInterference:
    def test_closed_form(self, traffic, geom):
        assert math.isclose(mean_interference(traffic, geom),
                            2.0 * 0.05 * 150.0 ** -2 / 2.0, rel_tol=1e-15)

    def test_against_quadrature(self, traffic, geom):
        lam = traffic.intensity
        result = integrate_semi_infinite(lambda r: 2.0 * lam * r ** -3.0,
                                         150.0)
        assert math.isclose(mean_interference(traffic, geom), result,
                            rel_tol=1e-10)

    def test_linear_in_intensity(self, traffic, geom):
        doubled = TrafficModel.from_intensity(2.0 * traffic.intensity,
                                              traffic.min_gap)
        assert mean_interference(doubled, geom) \
            == 2.0 * mean_interference(traffic, geom)

    def test_independent_of_gap(self, traffic, traffic_ppp, geom):
        assert mean_interference(traffic, geom) \
            == mean_interference(traffic_ppp, geom)
