"""Slow checks of the simulator's window: the far-field model behind its
bias bound, and the standard-error floor it is sized against.

1. Far field. The variance of the gain summed beyond a distance W is, to
   leading order, (1 - occupancy)**2 times its Poisson value plus the edge
   term 2 |M1| W**(-2 eta) (sim._far_field). For each occupancy and W this
   prints the Monte Carlo ratio to the Poisson value, with its standard
   error, next to (1 - occupancy)**2 and the model with the edge term.
2. Floor and bound. For each benchmark stream (perfbench's canonical-run
   and occupancy-sweep traffic, lags and sample counts) this prints the
   old window (50 / intensity of margin), the derived one, the largest
   bound over the lags, and the smallest jackknife se_rho over the lags
   and over the seeds, also as a multiple of rho0 / sqrt(n); the window's
   se floor is 0.4 rho0 / sqrt(n).

Usage:
  python scripts/window_bias.py [SEEDS]     # default 30 seeds per stream

Geometry r0 150, eta 3, u 10. With 30 seeds part 2 takes about a minute
and part 1 about 20 s on one core.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from roadcorr import NetworkGeometry, TrafficModel, pathloss  # noqa: E402
from roadcorr import sim  # noqa: E402

GEOM = NetworkGeometry(guard_radius=150.0, pathloss_exponent=3.0, speed=10.0)
STREAMS = [((0.05, 4.0), 10000, 31)] + [
    (traffic, 5000, 7) for traffic in ((0.05, 0.0), (0.02, 4.0), (0.05, 4.0),
                                       (0.1, 4.0), (0.15, 4.0), (0.2, 4.0))]


def far_field(traffic, half, n_rows, seed):
    """Ratio of the far-field variance beyond half to its Poisson value,
    its standard error, and the model's ratio."""
    far = NetworkGeometry(guard_radius=half, pathloss_exponent=3.0, speed=10.0)
    reach = 10.0 * half
    sums = []
    for k in range(n_rows // 2000):
        pos = sim._position_matrix(traffic, (-reach, reach), 2000, sim._block_rng(seed, k))
        pos[pos > reach] = np.inf
        sums.append(pathloss(pos, far).sum(axis=1))
    sums = np.concatenate(sums)
    var = sums.var(ddof=1)
    se = math.sqrt((np.mean((sums - sums.mean()) ** 4) - var * var) / sums.size)
    poisson = 2.0 * traffic.intensity * half ** -5.0 / 5.0
    cv2, edge, _ = sim._far_field(traffic, far)
    return var / poisson, se / poisson, cv2 + 2.0 * edge * half ** -6.0 / poisson


def main(argv):
    seeds = int(argv[0]) if argv else 30
    print("far field: occupancy W  var/poisson +- se  (1-occ)^2  model  z")
    for lam in (0.05, 0.1, 0.2):
        traffic = TrafficModel(lam, 4.0)
        for half in (300.0, 600.0, 1000.0):
            ratio, se, model = far_field(traffic, half, 16000, 77)
            print(f"  {traffic.occupancy:.1f} {half:6.0f}  {ratio:.4f} +- {se:.4f}  "
                  f"{(1.0 - traffic.occupancy) ** 2:.4f}  {model:.4f}  {(ratio - model) / se:+.2f}")
    print("streams: lambda c n  old W  new W  max bound  min se_rho  min se sqrt(n)/rho0")
    for (lam, c), n, points in STREAMS:
        traffic = TrafficModel(lam, c)
        grid = [float(t) for t in np.linspace(0.0, 30.0, points)]
        window = sim.default_window(traffic, GEOM, 30.0, n)
        bound = max(sim.truncation_bias_bound(traffic, GEOM, window, t) for t in grid)
        rho0 = sim._far_field(traffic, GEOM)[2]
        least = min(min(est.se_rho for est in sim.estimate_curve(traffic, GEOM, grid, n, seed))
                    for seed in range(seeds))
        print(f"  {lam} {c} {n}  {450.0 + 50.0 / lam:.0f}  {window[1]:.0f}  {bound:.2e}  "
              f"{least:.2e}  {least * math.sqrt(n) / rho0:.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
