"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (they run with -s) before asserting,
so the verdicts survive in captured logs either way. Monte Carlo checks
use the frozen seed from conftest and tolerances sized in advance from
the estimator standard errors, so they are deterministic.
"""

import math

import numpy as np
import pytest

import oracles
from roadcorr.analytic import (
    close_pairs_expansion,
    close_pairs_numeric,
    covariance,
    distant_pairs_exact,
    rho,
    rho_ppp,
    same_vehicle_term,
    variance,
)
from roadcorr.model import TrafficModel, pair_correlation
from roadcorr.sim import estimate, pair_distance_histogram
from roadcorr.specfun import hyp2f1, upper_incomplete_gamma

from conftest import SEED


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_poisson_simulation_matches_analytic(traffic_ppp, geom):
    """Simulated correlation for a Poisson stream tracks the closed form."""
    lags = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    gaps = {}
    for t in lags:
        est = estimate(traffic_ppp, geom, t, 100_000, SEED)
        gaps[t] = abs(est.rho - rho_ppp(t, geom))
    zero_lag = estimate(traffic_ppp, geom, 0.0, 100_000, SEED).rho
    worst = max(gaps.values())
    ok = worst <= 0.02 and 0.48 <= zero_lag <= 0.52
    report(1, ok, f"poisson stream, 7 lags: worst |simulated - analytic| = "
                  f"{worst:.4f} (tol 0.02); rho at zero lag = {zero_lag:.4f} "
                  f"(want 0.48..0.52)")
    assert ok, f"gaps {gaps}, zero-lag rho {zero_lag}"


def test_hardcore_simulation_and_ppp_overestimation(geom):
    """Hardcore simulation tracks the pair-correlation route; the Poisson
    coefficient overestimates it, more so at higher occupancy."""
    lags = [0.8, 5.0, 10.0, 15.0, 20.0, 29.2]
    sims = {}
    worst_fit = 0.0
    for lam, n in ((0.02, 100_000), (0.05, 300_000)):
        traffic = TrafficModel.from_intensity(lam, 4.0)
        for t in lags:
            est = estimate(traffic, geom, t, n, SEED)
            sims[lam, t] = est.rho
            worst_fit = max(worst_fit,
                            abs(est.rho - rho(t, traffic, geom, "pcf-approx")))

    light = TrafficModel.from_intensity(0.02, 4.0)
    route_gap = max(abs(rho(t, light, geom, "expansion")
                        - rho(t, light, geom, "pcf-approx")) for t in lags)

    over = {(lam, t): rho_ppp(t, geom) - sims[lam, t]
            for lam in (0.02, 0.05) for t in (0.8, 5.0)}
    overestimates = all(gap > 0.0 for gap in over.values())
    grows = all(over[0.05, t] > over[0.02, t] for t in (0.8, 5.0))

    ok = worst_fit <= 0.02 and route_gap <= 0.01 and overestimates and grows
    report(2, ok, f"hardcore stream, 2 intensities x 6 lags: worst "
                  f"|simulated - analytic| = {worst_fit:.4f} (tol 0.02); "
                  f"analytic routes differ by {route_gap:.1e} at occupancy "
                  f"0.08 (tol 0.01); poisson overestimation gaps "
                  f"{[f'{v:.3f}' for v in over.values()]} all positive and "
                  f"growing with occupancy: {overestimates and grows}")
    assert ok, f"fit {worst_fit}, routes {route_gap}, overestimation {over}"


def test_analytic_terms_match_defining_integrals(traffic, traffic_light, geom):
    """Closed forms agree with direct scipy quadrature of their defining
    integrals, and the shifted strips obey the forward/backward symmetry."""
    worst_same = max(
        abs(same_vehicle_term(t, traffic, geom)
            / oracles.same_vehicle_defining(t, traffic, geom) - 1.0)
        for t in (0.0, 0.8, 5.0, 15.0, 29.2, 30.0))

    worst_distant = max(
        abs(distant_pairs_exact(t, tr, geom)
            / oracles.distant_pairs_defining(t, tr, geom) - 1.0)
        for t in (0.8, 5.0, 15.0, 29.2) for tr in (traffic, traffic_light))

    worst_sym = 0.0
    for t in (0.8, 5.0, 15.0, 29.2):
        ahead, behind = oracles.distant_half_sums(t, traffic, geom)
        worst_sym = max(worst_sym, abs(ahead / behind - 1.0))

    errors = []
    for lam in (0.0025, 0.0125, 0.025, 0.05):
        tr = TrafficModel.from_intensity(lam, 4.0)
        num = close_pairs_numeric(1.0, tr, geom)
        errors.append(abs(close_pairs_expansion(1.0, tr, geom) - num) / num)
    close_ok = errors[0] <= 0.05 and all(
        a < b for a, b in zip(errors, errors[1:]))

    ok = (worst_same <= 1e-9 and worst_distant <= 1e-8
          and worst_sym <= 1e-8 and close_ok)
    report(3, ok, f"defining integrals: same-vehicle rel err {worst_same:.1e} "
                  f"(tol 1e-9), distant-pairs rel err {worst_distant:.1e} "
                  f"(tol 1e-8), strip symmetry rel err {worst_sym:.1e} "
                  f"(tol 1e-8); close-pairs expansion err at occupancy "
                  f"0.01..0.2 = {[f'{e:.4f}' for e in errors]} "
                  f"(first <= 0.05, increasing)")
    assert ok, (f"same {worst_same}, distant {worst_distant}, "
                f"sym {worst_sym}, close {errors}")


def test_variance_formula_within_monte_carlo_error(traffic, traffic_ppp, geom):
    """Closed-form variance vs simulation, three jackknife standard errors.

    The Poisson leg passes. The hardcore leg fails reproducibly: the
    thinned formula is a leading-order occupancy expansion, and at
    occupancy 0.2 its bias (about 2.8 percent) is several times the
    Monte Carlo standard error at this sample size. The exact-quadrature
    variance confirms the simulation, not the formula; see the README.
    """
    legs = {}
    for label, tr, method in (("poisson", traffic_ppp, "ppp"),
                              ("hardcore", traffic, "approx")):
        est = estimate(tr, geom, 5.0, 100_000, SEED)
        want = variance(tr, geom, method)
        legs[label] = (est.variance - want) / est.se_variance
    ok = all(abs(z) <= 3.0 for z in legs.values())
    report(4, ok, f"variance vs formula: poisson z = {legs['poisson']:+.2f}, "
                  f"hardcore z = {legs['hardcore']:+.2f} (|z| <= 3 required; "
                  f"the hardcore formula is a leading-order occupancy "
                  f"expansion and sits above its own bias at this precision)")
    assert ok, f"z-scores {legs}"


def test_variance_matches_exact_quadrature(traffic, geom):
    """The hardcore leg of check 4 against the exact variance instead of
    the leading-order formula: same-vehicle term plus the exact-quadrature
    pair covariance at zero lag, within three jackknife standard errors."""
    est = estimate(traffic, geom, 5.0, 100_000, SEED)
    want = (same_vehicle_term(0.0, traffic, geom)
            + covariance(0.0, traffic, geom, "exact-quadrature").covariance)
    z = (est.variance - want) / est.se_variance
    ok = abs(z) <= 3.0
    report(7, ok, f"variance vs exact quadrature at occupancy 0.2: "
                  f"simulated {est.variance:.5e}, exact {want:.5e}, "
                  f"z = {z:+.2f} (|z| <= 3 required)")
    assert ok, f"z {z}, simulated {est.variance}, exact {want}"


def test_sampled_pair_distances_match_pair_correlation(traffic):
    """Empirical pair-distance density reproduces the analytic pair
    correlation bin by bin."""
    hist = pair_distance_histogram(traffic, (-1024.0, 1024.0), 10_000, 64,
                                   SEED)
    centers = hist.centers
    c = traffic.min_gap

    below = hist.bin_edges[1:] <= c
    hard_zero = bool(np.all(hist.density[below] == 0.0))

    above = ~below
    want = np.array([pair_correlation(float(d), traffic)
                     for d in centers[above]])
    z = (hist.density[above] - want) / hist.se[above]
    worst_z = float(np.max(np.abs(z)))

    far = centers > 6.0 * c
    far_err = abs(float(hist.normalized[far].mean()) - (1.0 - traffic.occupancy))

    ok = hard_zero and worst_z <= 3.0 and far_err <= 0.01
    report(5, ok, f"pair-distance histogram, 64 bins: zero below the "
                  f"minimum gap: {hard_zero}; worst per-bin |z| = "
                  f"{worst_z:.2f} (tol 3); far-field level error = "
                  f"{far_err:.1e} (tol 0.01)")
    assert ok, f"zero {hard_zero}, worst z {worst_z}, far {far_err}"


def test_special_functions_match_references():
    """Gauss 2F1 and the upper incomplete gamma agree with independent
    references: the Euler integral, a log identity, and the recurrence."""
    unit_ok = all(hyp2f1(a, b, cc, 0.0) == 1.0
                  for eta in (2.5, 3.0, 3.75)
                  for a, b, cc in oracles.hypergeometric_family(eta))

    log_err = max(abs(hyp2f1(1.0, 1.0, 2.0, z) / (-math.log1p(-z) / z) - 1.0)
                  for z in (-2.0, -0.5, -0.01, 0.5))

    rng = np.random.default_rng(SEED)
    euler_err = 0.0
    for _ in range(200):
        eta = rng.uniform(2.05, 5.0)
        z = rng.uniform(-2.1, 0.0)
        a, b, cc = oracles.hypergeometric_family(eta)[rng.integers(4)]
        euler_err = max(euler_err, abs(
            hyp2f1(a, b, cc, z) / oracles.euler_hyp2f1(a, b, cc, z) - 1.0))

    gamma_err = 0.0
    for a in np.arange(-4.5, 5.0, 1.0):
        for x in (0.1, 1.0, 5.0, 50.0):
            lhs = upper_incomplete_gamma(a + 1.0, x)
            rhs = a * upper_incomplete_gamma(a, x) + x ** a * math.exp(-x)
            scale = max(abs(lhs), abs(rhs))
            gamma_err = max(gamma_err, abs(lhs - rhs) / scale)

    ok = (unit_ok and log_err <= 1e-12 and euler_err <= 1e-8
          and gamma_err <= 1e-10)
    report(6, ok, f"special functions: 2F1(.,.;.;0) exact: {unit_ok}; log "
                  f"identity rel err {log_err:.1e} (tol 1e-12); 200 draws vs "
                  f"Euler integral rel err {euler_err:.1e} (tol 1e-8); gamma "
                  f"recurrence rel err {gamma_err:.1e} (tol 1e-10)")
    assert ok, (f"unit {unit_ok}, log {log_err}, euler {euler_err}, "
                f"gamma {gamma_err}")
