"""Property tests over the parameter space: the exact route against the
Poisson model, whose overstatement of the correlation is the paper's
claim, and against the renewal far field that the simulator's window
correction rests on; and every route's invariance under a power-of-two
rescaling of the lengths."""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcorr import (DomainError, NetworkGeometry, TrafficModel, close_pairs_expansion,
                      close_pairs_numeric, distant_pairs_exact, estimate_curve,
                      mean_interference, rho, variance)
from roadcorr.analytic import (COVARIANCE_METHODS, RHO_METHODS, VARIANCE_METHODS, _far_field,
                               _lag_range, _lags_served, covariance, rho_ppp, same_vehicle_term)
from roadcorr.model import _in_guard_radii

# Derandomised, so every run draws the same examples, and few of them: an
# example runs one or two exact-route quadratures of a few ms each.
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def _stream(eta, c, occupancy):
    geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=eta, speed=10.0)
    return TrafficModel.from_intensity(occupancy / c, c), geom


@PROFILE
@given(eta=st.floats(2.05, 3.0), c=st.floats(1.0, 20.0), occupancy=st.floats(0.005, 0.8),
       where=st.floats(0.0, 1.0))
def test_poisson_model_overstates_the_exact_correlation(eta, c, occupancy, where):
    """For eta up to 3, at every lag of [t_lo, t_hi], rho_exact is a
    correlation coefficient and the Poisson model's rho_ppp is at least
    it. Both are asserted without slack: on a grid the smallest margin
    rho_ppp - rho_exact is +1.5e-4 (eta 3, occupancy 0.005, c 1, at t_hi),
    far above the quadrature's error. The claim fails at larger eta, so
    it is not asserted there: at eta 6, c 4, occupancy 0.8 and t 29.2,
    rho_exact is 0.00208 against rho_ppp 0.00116."""
    traffic, geom = _stream(eta, c, occupancy)
    t_lo, t_hi = _lag_range("pcf-approx", traffic, geom)
    t = t_lo + where * (t_hi - t_lo)
    exact = rho(t, traffic, geom, "exact-quadrature")
    assert -1.0 <= exact <= 1.0
    assert rho_ppp(t, geom) >= exact


@PROFILE
@given(eta=st.floats(2.05, 6.0), c=st.floats(1.0, 20.0), occupancy=st.floats(0.005, 0.8),
       where=st.floats(0.0, 1.0))
def test_exact_correlation_is_a_coefficient_up_to_eta_6(eta, c, occupancy, where):
    """For eta up to 6, at every lag of the exact route's [0, t_max],
    rho_exact lies in [-1, 1]. Neither rho_ppp >= rho_exact nor a decay
    with the lag is asserted: near t_hi at eta 6 the first fails, and
    near a jam rho ripples with the lag."""
    traffic, geom = _stream(eta, c, occupancy)
    t_lo, t_max = _lag_range("exact-quadrature", traffic, geom)
    t = t_lo + where * (t_max - t_lo)
    assert -1.0 <= rho(t, traffic, geom, "exact-quadrature") <= 1.0


@PROFILE
@given(eta=st.floats(2.05, 6.0), c=st.floats(1.0, 4.0), occupancy=st.floats(0.005, 0.8))
def test_far_field_rho0_tracks_the_exact_zero_lag_coefficient(eta, c, occupancy):
    """The far field's zero-lag coefficient rho0, which sizes the
    simulator's bias bound, is within 3e-3 relative of rho_exact(0) for
    minimum gaps up to 4 (2.7 percent of the guard radius). The tolerance
    is half again the grid's largest miss, 2.1e-3 at eta 6 (5.2e-4 at
    eta 3). The miss grows with the gap, to 9e-2 at c 75, so c is kept
    small."""
    traffic, geom = _stream(eta, c, occupancy)
    exact = rho(0.0, traffic, geom, "exact-quadrature")
    assert abs(_far_field(*_in_guard_radii(traffic, geom))[2] - exact) <= 3e-3 * exact


# Scale every length by a = 2**k (guard radius, min gap, speed; intensity by
# 1 / a). In guard radii the inputs are then the same bits, so a correlation
# coefficient keeps its bits, and a dimensional moment of order n (the mean
# 1, the covariances 2) is a**(-n eta) times its value at a = 1, or the one
# prefactor refusal where that product leaves the floats.
SCALES = (-1000, -600, -200, -60, -1, 1, 60, 200, 600, 1000)
NORMAL_SCALES = (-60, -1, 1, 60)     # where r0**(-2 eta) stays a normal float
PREFACTOR = r"^dimensional prefactor r0\*\*\(-[12] eta\)"


def _at_scale(k):
    """The canonical stream and geometry with every length times 2**k."""
    return (TrafficModel(math.ldexp(0.05, -k), math.ldexp(4.0, k)),
            NetworkGeometry(math.ldexp(150.0, k), 3.0, math.ldexp(10.0, k)))


def _lags():
    """0, t_lo, 5, t_hi and t_max of the canonical stream, in seconds."""
    traffic, geom = _at_scale(0)
    t_lo, t_hi = _lag_range("pcf-approx", traffic, geom)
    return [0.0, t_lo, 5.0, t_hi, _lag_range("ppp", traffic, geom)[1]]


def _served(route, traffic, geom):
    """The lags of _lags that the route serves."""
    return [_lags()[i] for i in _lags_served(route, traffic, geom, _lags())]


def _outcome(call):
    """call's value, or the DomainError it raised."""
    try:
        return call()
    except DomainError as exc:
        return exc


@pytest.mark.parametrize("k", SCALES)
def test_rho_is_bit_for_bit_scale_free(k):
    """Every analytic rho at every lag it serves is the a = 1 value bit for
    bit, and never raises; at the lags it does not serve both refuse."""
    base, scaled = _at_scale(0), _at_scale(k)
    for method in RHO_METHODS:
        for t in _lags():
            if t in _served(method, *base):
                assert rho(t, *scaled, method) == rho(t, *base, method), (method, t)
            else:
                with pytest.raises(DomainError, match="requires lag"):
                    rho(t, *scaled, method)


def _breakdown(t, traffic, geom, method):
    """The five fields of the covariance breakdown."""
    b = covariance(t, traffic, geom, method)
    return b.same_vehicle, b.distant_pairs, b.close_pairs, b.mean_sq, b.covariance


def _moments(traffic, geom):
    """Every dimensional output, as (order, call), at each canonical lag
    that serves it; a call gives a float or a breakdown's fields."""
    out = [(1, partial(mean_interference, traffic, geom))]
    out += [(2, partial(variance, traffic, geom, m)) for m in VARIANCE_METHODS]
    out += [(2, partial(same_vehicle_term, t, traffic, geom)) for t in _lags()]
    for method in COVARIANCE_METHODS:
        out += [(2, partial(_breakdown, t, traffic, geom, method))
                for t in _served(method, traffic, geom)]
    out += [(2, partial(f, t, traffic, geom)) for t in _served("pcf-approx", traffic, geom)
            for f in (distant_pairs_exact, close_pairs_numeric, close_pairs_expansion)]
    return out


@pytest.mark.parametrize("k", SCALES)
def test_dimensional_outputs_carry_one_prefactor(k):
    """Each dimensional output is a**(-n eta) times its a = 1 value within
    1e-14 relative, or raises the prefactor's DomainError: never an
    OverflowError, a ZeroDivisionError or the breakdown's ParameterError."""
    for (order, base), (_, scaled) in zip(_moments(*_at_scale(0)), _moments(*_at_scale(k))):
        got = _outcome(scaled)
        if isinstance(got, DomainError):
            assert k not in NORMAL_SCALES and re.match(PREFACTOR, str(got)), got
            continue
        for value, want in zip(np.atleast_1d(got), np.atleast_1d(base())):
            assert math.isclose(value, math.ldexp(want, -3 * order * k), rel_tol=1e-14)


@pytest.mark.parametrize("k", SCALES)
def test_simulation_is_scale_free(k):
    """The simulated rho, se_rho and bias bound keep their bits, and the
    estimate's moments carry the prefactor, where it is a normal float;
    elsewhere the estimate raises the prefactor's DomainError."""
    lags, seed = _lags(), 20260816
    base = estimate_curve(*_at_scale(0), lags, 1000, seed)
    got = _outcome(lambda: estimate_curve(*_at_scale(k), lags, 1000, seed))
    if k not in NORMAL_SCALES:
        assert isinstance(got, DomainError) and re.match(PREFACTOR, str(got)), got
        return
    for want, est in zip(base, got):
        assert (est.rho, est.se_rho, est.bias_bound) == (want.rho, want.se_rho, want.bias_bound)
        for field, order in (("mean", 1), ("variance", 2), ("covariance", 2),
                             ("se_variance", 2)):
            assert math.isclose(getattr(est, field),
                                math.ldexp(getattr(want, field), -3 * order * k), rel_tol=1e-14)
