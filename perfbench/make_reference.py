"""Regenerate perfbench/reference.json, the stored analytic values.

For every traffic line and lag of every workload it stores rho by the ppp,
expansion and pcf-approx methods (null where the method flags the lag) and
rho_exact from the exact-quadrature route; for occupancy-sweep also the
normalized pair correlation rows `roadcorr pcf` writes. The runner checks
the analytic outputs against these values and the simulated points against
rho_exact. Takes about two minutes, most of it on the exact route at
occupancy 0.8:

  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import (CLI_WORKLOADS, DEFAULT_SEED, DENSE_LAGS, DENSE_TRAFFIC,
                       GEOMETRY, SRC, config_text, traffic_key)

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from roadcorr import NetworkGeometry, TrafficModel, analytic, cli  # noqa: E402
from roadcorr.model import normalized_pair_correlation  # noqa: E402

from child import analytic_curves  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _curves(traffics, geom, grid) -> dict[str, dict[str, list]]:
    out = {}
    for lam, c in traffics:
        traffic = TrafficModel.from_intensity(lam, c)
        out[traffic_key(lam, c)] = {"t": grid,
                                    **analytic_curves(analytic, traffic, geom, grid)}
        print(f"  {traffic_key(lam, c)} done", file=sys.stderr)
    return out


def main() -> None:
    reference: dict[str, dict] = {}
    for workload in CLI_WORKLOADS:
        print(workload, file=sys.stderr)
        config = cli.parse_config(config_text(workload, DEFAULT_SEED))
        grid = [float(t) for t in config.t_grid()]
        entry = {"curves": _curves(config.traffics, config.geometry(), grid)}
        if workload == "occupancy-sweep":
            entry["pcf"] = {
                traffic_key(lam, c): [
                    normalized_pair_correlation(k / cli.PCF_POINTS_PER_GAP,
                                                TrafficModel.from_intensity(lam, c))
                    for k in range(1, cli.PCF_POINTS_PER_GAP * cli.PCF_MAX_GAPS + 1)]
                for lam, c in config.traffics}
        reference[workload] = entry
    print("exact-dense", file=sys.stderr)
    geom = NetworkGeometry(guard_radius=GEOMETRY["r0"], pathloss_exponent=GEOMETRY["eta"],
                           speed=GEOMETRY["u"])
    grid = [float(t) for t in np.linspace(*DENSE_LAGS)]
    reference["exact-dense"] = {"curves": _curves([DENSE_TRAFFIC], geom, grid)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
