"""Slow checks of the simulator's window: the far-field model behind its
closed-form losses, and the bias the corrected window leaves.

1. Far field. The variance of the gain summed beyond a distance W is, to
   leading order, (1 - occupancy)**2 times its Poisson value plus the edge
   term 2 |M1| W**(-2 eta) (analytic._far_field). For each occupancy and W
   this prints the Monte Carlo ratio to the Poisson value, with its
   standard error, next to (1 - occupancy)**2 and the model with the edge
   term.
2. Residual. For each benchmark stream (perfbench's canonical-run and
   occupancy-sweep traffic and lags) this prints its deviation reach and
   the curve's default window, W = r0 + max((reach + 1) * c, r0 / 5) on
   each side of the guard zone (r0 + r0 / 5 on the Poisson stream), and
   then for each lag, deterministically, the bias of rho in the window
   before the correction, the residual after analytic._losses' closed
   forms (to second order in the renewal expansion) are added back, and
   their bias bound, twice the third-order term with M3 taken at its
   majorant (analytic._far_field). The windowed moments are the exact
   route's less the losses tests/oracles.py integrates by scipy
   quadrature, out to the reach; the window clears the guard zone by the
   reach and one minimum gap, as the oracle requires.

Usage:
  python scripts/window_bias.py

Geometry r0 150, eta 3, u 10. The two parts take about 10 s together on
one core.
"""

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
import oracles  # noqa: E402
from roadcorr import NetworkGeometry, TrafficModel, pathloss  # noqa: E402
from roadcorr import analytic, model, sim  # noqa: E402

GEOM = NetworkGeometry(guard_radius=150.0, pathloss_exponent=3.0, speed=10.0)
STREAMS = [((0.05, 4.0), 31)] + [
    (traffic, 7) for traffic in ((0.05, 0.0), (0.02, 4.0), (0.05, 4.0),
                                 (0.1, 4.0), (0.15, 4.0), (0.2, 4.0))]


def far_field(traffic, half, n_rows, seed):
    """Ratio of the far-field variance beyond half to its Poisson value,
    its standard error, and the model's ratio."""
    far = NetworkGeometry(guard_radius=half, pathloss_exponent=3.0, speed=10.0)
    reach = 10.0 * half
    sums = []
    for k in range(n_rows // 2000):
        pos, counts = sim._stream_windows(traffic, (-reach, reach), 2000,
                                          sim._block_rng(seed, k))
        owner = np.repeat(np.arange(2000), counts)
        pos -= 2.0 * reach * owner
        sums.append(np.bincount(owner, weights=pathloss(pos, far), minlength=2000))
    sums = np.concatenate(sums)
    var = sums.var(ddof=1)
    se = math.sqrt((np.mean((sums - sums.mean()) ** 4) - var * var) / sums.size)
    poisson = 2.0 * traffic.intensity * half ** -5.0 / 5.0
    cv2, edge, _, _, _ = analytic._far_field(*model._in_guard_radii(traffic, far))
    return var / poisson, se / poisson, cv2 + 2.0 * edge * half ** -6.0 / poisson


def residuals(traffic, t, window):
    """Bias of rho in the window before and after the correction, and the bound."""
    var = (analytic.same_vehicle_term(0.0, traffic, GEOM)
           + analytic.covariance(0.0, traffic, GEOM, "exact-quadrature").covariance)
    cov = analytic.covariance(t, traffic, GEOM, "exact-quadrature").covariance
    lost_var, lost_cov = oracles.lost_moments_defining(t, traffic, GEOM, window)
    r0 = GEOM.guard_radius
    _, add_var, add_cov, bound = analytic._losses(*model._in_guard_radii(traffic, GEOM),
                                                  (window[0] / r0, window[1] / r0), t)
    add_var, add_cov = (model._dimensional(x, GEOM, 2) for x in (add_var, add_cov))
    raw = (cov - lost_cov) / (var - lost_var) - cov / var
    corrected = (cov - lost_cov + add_cov) / (var - lost_var + add_var) - cov / var
    return raw, corrected, bound


def main():
    print("far field: occupancy W  var/poisson +- se  (1-occ)^2  model  z")
    for lam in (0.05, 0.1, 0.2):
        traffic = TrafficModel(lam, 4.0)
        for half in (300.0, 600.0, 1000.0):
            ratio, se, expected = far_field(traffic, half, 16000, 77)
            print(f"  {traffic.occupancy:.1f} {half:6.0f}  {ratio:.4f} +- {se:.4f}  "
                  f"{(1.0 - traffic.occupancy) ** 2:.4f}  {expected:.4f}  "
                  f"{(ratio - expected) / se:+.2f}")
    print("residual: lambda c reach window, then t  raw bias  corrected  bound (2 x third order)")
    for (lam, c), points in STREAMS:
        traffic = TrafficModel(lam, c)
        window = sim.default_window(traffic, GEOM, 30.0)
        print(f"  {lam} {c} {traffic.deviation_reach} {window}")
        for t in np.linspace(0.0, 30.0, points):
            raw, corrected, bound = residuals(traffic, float(t), window)
            print(f"    {t:4.1f}  {raw:+.2e}  {corrected:+.2e}  {bound:.2e}")


if __name__ == "__main__":
    main()
