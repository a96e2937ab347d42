"""Property tests over the parameter space: the exact route against the
Poisson model, whose overstatement of the correlation is the paper's
claim, and against the renewal far field that the simulator's window
correction rests on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from roadcorr import NetworkGeometry, TrafficModel
from roadcorr.analytic import _far_field, _lag_range, covariance, rho_ppp, same_vehicle_term

# Derandomised, so every run draws the same examples, and few of them: an
# example runs one or two exact-route quadratures of a few ms each.
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def _stream(eta, c, occupancy):
    geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=eta, speed=10.0)
    return TrafficModel.from_intensity(occupancy / c, c), geom


def _exact_cov(t, traffic, geom):
    return covariance(t, traffic, geom, "exact-quadrature").covariance


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
    var = same_vehicle_term(0.0, traffic, geom) + _exact_cov(0.0, traffic, geom)
    exact = _exact_cov(t, traffic, geom) / var
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
    var = same_vehicle_term(0.0, traffic, geom) + _exact_cov(0.0, traffic, geom)
    assert -1.0 <= _exact_cov(t, traffic, geom) / var <= 1.0


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
    cov = _exact_cov(0.0, traffic, geom)
    exact = cov / (same_vehicle_term(0.0, traffic, geom) + cov)
    assert abs(_far_field(traffic, geom)[2] - exact) <= 3e-3 * exact
