"""Workload definitions shared by the runner, the workload process and the
reference generator.

Geometry everywhere is the canonical one: guard radius 150 m, pathloss
exponent 3, speed 10 m/s.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CANONICAL_CONFIG = ROOT / "configs" / "default.cfg"

DEFAULT_SEED = 20260816
GEOMETRY = {"r0": 150.0, "eta": 3.0, "u": 10.0}
ANALYTIC_METHODS = ("ppp", "expansion", "pcf-approx")

# canonical-run is configs/default.cfg as committed, except for the seed and
# the sample count. At the committed 100 000 samples one repeat takes about a
# minute, more than a whole run may measure, so the benchmark runs it at
# CANONICAL_SAMPLES. The per-call size stays CANONICAL_SAMPLES /
# SWEEP_SAMPLES = 2 times that of occupancy-sweep.
CANONICAL_SAMPLES = 10_000

SWEEP_TRAFFICS = ((0.05, 0.0), (0.02, 4.0), (0.05, 4.0),
                  (0.1, 4.0), (0.15, 4.0), (0.2, 4.0))
SWEEP_LAGS = (0.0, 30.0, 7)
SWEEP_SAMPLES = 5_000

DENSE_TRAFFIC = (0.1, 4.0)
DENSE_LAGS = (0.0, 30.0, 31)

CLI_WORKLOADS = ("canonical-run", "occupancy-sweep")
WORKLOADS = ("canonical-run", "exact-dense", "occupancy-sweep")


def traffic_key(lam: float, c: float) -> str:
    """Key of one traffic line in the reference table and the result files."""
    return f"lambda={lam!r} c={c!r}"


def _set_key(text: str, key: str, value: object) -> str:
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    if not pattern.search(text):
        raise ValueError(f"{CANONICAL_CONFIG} has no {key!r} line")
    return pattern.sub(f"{key} = {value}", text, count=1)


def config_text(workload: str, seed: int) -> str:
    """The config file the CLI workload reads, with the Monte Carlo seed."""
    if workload == "canonical-run":
        text = CANONICAL_CONFIG.read_text(encoding="utf-8")
        text = _set_key(text, "seed", seed)
        return _set_key(text, "n_samples", CANONICAL_SAMPLES)
    if workload == "occupancy-sweep":
        lo, hi, points = SWEEP_LAGS
        lines = [f"{k} = {v!r}" for k, v in GEOMETRY.items()]
        lines += [f"traffic = lambda={lam!r} c={c!r}" for lam, c in SWEEP_TRAFFICS]
        lines += [f"t_lo = {lo!r}", f"t_hi = {hi!r}", f"t_points = {points}",
                  "methods = ppp,expansion,pcf-approx,simulation",
                  f"n_samples = {SWEEP_SAMPLES}", f"seed = {seed}",
                  "n_partitions = 8", "format = csv"]
        return "\n".join(lines) + "\n"
    raise ValueError(f"{workload!r} is not a CLI workload")
