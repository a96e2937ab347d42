import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from roadcorr import (ConvergenceError, DomainError, ParameterError,
                      QuadratureSpec, hyp2f1, integrate_finite,
                      integrate_semi_infinite, upper_incomplete_gamma)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class TestQuadratureSpec:
    def test_defaults_are_tight(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-10
        assert spec.abs_tol == 1e-14
        assert spec.max_depth == 60

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"abs_tol": -1e-9},
        {"abs_tol": float("nan")},
        {"max_depth": 9},
        {"max_depth": 12.5},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureSpec(**kwargs)


class TestHyp2F1:
    def test_unit_value_at_zero(self):
        for a, b, c in oracles.hypergeometric_family(3.0):
            assert hyp2f1(a, b, c, 0.0) == 1.0

    def test_log_identity(self):
        for z in (0.9, 0.5, -0.5, -2.0):
            expected = -math.log1p(-z) / z
            assert rel_err(hyp2f1(1.0, 1.0, 2.0, z), expected) < 1e-12

    def test_example_against_euler_integral(self):
        value = hyp2f1(5.0, 3.0, 6.0, -1.0)
        assert rel_err(value, oracles.euler_hyp2f1(5.0, 3.0, 6.0, -1.0)) < 1e-10

    def test_random_family_against_euler_integral(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eta = rng.uniform(2.05, 5.0)
            triple = oracles.hypergeometric_family(eta)[rng.integers(0, 4)]
            z = rng.uniform(-2.1, 0.0)
            assert rel_err(hyp2f1(*triple, z),
                           oracles.euler_hyp2f1(*triple, z)) < 1e-8

    def test_derivative_contiguity(self):
        step = 1e-6
        for z in (-2.0, -0.8, 0.3):
            for a, b, c in oracles.hypergeometric_family(2.7):
                closed = a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
                finite = (hyp2f1(a, b, c, z + step)
                          - hyp2f1(a, b, c, z - step)) / (2.0 * step)
                assert rel_err(finite, closed) < 1e-5

    @pytest.mark.parametrize("args", [
        (5.0, 3.0, 3.0, 0.5),    # c == b
        (5.0, 3.0, 2.0, 0.5),    # c < b
        (5.0, 0.0, 6.0, 0.5),    # b == 0
        (5.0, -1.0, 6.0, 0.5),   # b < 0
        (5.0, 3.0, 6.0, 1.0),    # z at the branch point
        (5.0, 3.0, 6.0, 1.5),    # z beyond it
    ])
    def test_rejects_out_of_contract_arguments(self, args):
        with pytest.raises(DomainError):
            hyp2f1(*args)

    @pytest.mark.parametrize("z", [[-1.0, 0.5], np.array([-1.0, 0.5]), np.array([0.5]),
                                   np.empty(0), np.zeros((2, 2))])
    def test_non_scalar_argument_is_refused(self, z):
        with pytest.raises(ParameterError, match="z must be a scalar"):
            hyp2f1(5.0, 3.0, 6.0, z)

    @pytest.mark.parametrize("eta", [2.05, 2.5, 3.0, 4.0, 6.0])
    def test_bits_match_the_frozen_series(self, eta):
        """A float, a numpy float and a 0-d array each give the bytes of
        the one-row-per-entry series the function replaced."""
        rng = np.random.default_rng(23)
        z = rng.uniform(-50.0, 0.9, size=12)
        z[:4] = (0.0, -0.0, -1e-9, -2.0)
        for triple in oracles.hypergeometric_family(eta) + [(1.0, 1.0, 2.0)]:
            for v in z:
                expected = np.float64(oracles.frozen_hyp2f1(*triple, float(v))).tobytes()
                for form in (float(v), np.float64(v), np.array(v)):
                    value = hyp2f1(*triple, form)
                    assert type(value) is float
                    assert np.float64(value).tobytes() == expected

    @pytest.mark.parametrize("z", [-1e6, 1.0 - 1e-7])
    def test_unsettled_series_names_the_callers_argument(self, z):
        """The error names the caller's z, not the Pfaff-mapped argument,
        and its estimate carries the prefactor."""
        with pytest.raises(ConvergenceError) as scalar:
            hyp2f1(5.0, 3.0, 6.0, z)
        assert f"z = {z!r} " in str(scalar.value)
        if z < 0.0:
            # mpmath.hyp2f1(5, 3, 6, -10**6) at 30 digits: 2.49998500039696536673889e-18
            assert scalar.value.error_bound < 1e-6 * scalar.value.best_estimate
            assert (abs(scalar.value.best_estimate - 2.49998500039696536673889e-18)
                    <= scalar.value.error_bound)
        else:
            # the terms grow towards the end of the sum: no finite bound on the rest
            assert scalar.value.error_bound == math.inf


class TestUpperIncompleteGamma:
    def test_exponential_identity(self):
        assert rel_err(upper_incomplete_gamma(1.0, 2.0), math.exp(-2.0)) < 1e-12

    def test_small_cutoff_approaches_complete_gamma(self):
        assert rel_err(upper_incomplete_gamma(0.5, 1e-12), math.sqrt(math.pi)) < 1e-5

    def test_negative_parameter_against_quadrature(self):
        reference, _ = quad(lambda s: s ** -3.0 * math.exp(-s), 1.0, np.inf,
                            epsabs=1e-18, epsrel=1e-13)
        assert rel_err(upper_incomplete_gamma(-2.0, 1.0), reference) < 1e-10

    def test_recurrence_closure(self):
        for a in (-4.5, -3.3, -2.5, -1.7, -0.5, 0.5, 1.5, 2.7, 3.5, 4.5):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
                lhs = a * upper_incomplete_gamma(a, x) + x ** a * math.exp(-x)
                rhs = upper_incomplete_gamma(a + 1.0, x)
                assert rel_err(lhs, rhs) < 1e-10, (a, x)

    def test_rejects_nonpositive_cutoff_for_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(-2.0, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(-0.5, -1.0)


class TestIntegrateFinite:
    def test_constant(self):
        assert abs(integrate_finite(lambda x: np.ones_like(x), (0.0, 3.0)) - 3.0) < 1e-12

    def test_power_law_antiderivative(self):
        value = integrate_finite(lambda x: x ** -3.0, (150.0, 300.0))
        expected = (150.0 ** -2 - 300.0 ** -2) / 2.0
        assert rel_err(value, expected) < 1e-12

    def test_empty_interval(self):
        assert integrate_finite(lambda x: x ** 2, (2.0, 2.0)) == 0.0

    def test_deterministic(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        assert integrate_finite(f, (0.0, 10.0)) == integrate_finite(f, (0.0, 10.0))

    def test_depth_exhaustion_reports_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_depth=10)
        with pytest.raises(ConvergenceError) as info:
            integrate_finite(lambda x: x ** -0.9, (1e-12, 1.0), spec)
        err = info.value
        assert math.isfinite(err.best_estimate)
        assert err.error_bound > 0.0
        assert 0.0 < err.best_estimate < 10.0

    def test_breakpoints_leave_smooth_pieces_for_one_batch(self):
        # |x - 0.3| is linear on each side of its kink, so with the kink as
        # a breakpoint the first batch, one integrand call, is exact.
        calls = []

        def kinked(x):
            calls.append(x.size)
            return np.abs(x - 0.3)

        value = integrate_finite(kinked, (0.0, 0.3, 1.0))
        assert math.isclose(value, (0.3 ** 2 + 0.7 ** 2) / 2.0, rel_tol=1e-15)
        assert calls == [30]

    def test_zero_width_pieces_are_skipped(self):
        value = integrate_finite(lambda x: x ** 2, (0.0, 1.0, 1.0, 2.0))
        assert math.isclose(value, 8.0 / 3.0, rel_tol=1e-14)

    @pytest.mark.parametrize("points", [
        (1.0,), (2.0, 1.0), (0.0, 2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_points(self, points):
        with pytest.raises(ParameterError):
            integrate_finite(np.sin, points)

    def test_target_below_roundoff_raises(self):
        # The integral of sin over [-1, 1] is zero, so its relative target
        # sits below the roundoff of the two pieces, which do not cancel
        # until they are summed; bisection can only churn that roundoff.
        calls = []

        def counted(x):
            calls.append(x.size)
            return np.sin(x)

        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300)
        with pytest.raises(ConvergenceError, match="roundoff") as info:
            integrate_finite(counted, (-1.0, 0.3, 1.0), spec)
        assert abs(info.value.best_estimate) < 1e-15
        assert 0.0 < info.value.error_bound < 1e-15
        assert len(calls) < 100


class TestIntegrateSemiInfinite:
    def test_cubic_tail(self):
        result = integrate_semi_infinite(lambda x: x ** -3.0, 150.0)
        assert rel_err(result, 150.0 ** -2 / 2.0) < 1e-10

    def test_sixth_power_tail(self):
        # the integral is ~2.6e-12, below the default abs_tol floor, so the
        # default spec only promises a few correct digits; shrinking abs_tol
        # restores full relative control
        result = integrate_semi_infinite(lambda x: x ** -6.0, 150.0)
        assert rel_err(result, 150.0 ** -5 / 5.0) < 1e-6
        tight = QuadratureSpec(abs_tol=1e-30)
        result = integrate_semi_infinite(lambda x: x ** -6.0, 150.0, tight)
        assert rel_err(result, 150.0 ** -5 / 5.0) < 1e-10

    @pytest.mark.parametrize("lo", [1.0, 150.0])
    @pytest.mark.parametrize("p", [1.5, 2.1, 3.0, 4.1, 6.0, 12.0])
    def test_power_law_tails(self, p, lo):
        # the slowest tail, p = 1.5, is the hardest case (6e-11)
        result = integrate_semi_infinite(lambda x: x ** -p, lo)
        assert rel_err(result, lo ** (1.0 - p) / (p - 1.0)) < 1e-9

    def test_zero_integrand(self):
        result = integrate_semi_infinite(lambda x: np.zeros_like(x), 5.0)
        assert result == 0.0

    def test_rejects_shallow_tail(self):
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda x: x ** -0.5, 1.0)

    @pytest.mark.parametrize("lo", [0.0, -1.0, math.inf])
    def test_rejects_lower_limit_off_the_positive_axis(self, lo):
        with pytest.raises(ParameterError):
            integrate_semi_infinite(lambda x: x ** -3.0, lo)
