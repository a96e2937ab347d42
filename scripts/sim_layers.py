"""CPU time of the simulator's layers in sim.estimate_curve.

Times estimate_curve on perfbench's canonical-run stream (31 lags at its
sample count) and on each occupancy-sweep stream (7 lags), with these
functions wrapped by name in roadcorr.sim:

- sample: _stream_windows, the position draw of each block;
- gain: _gain_in_place, one pass per mark of the lag grid's schedule;
- losses: _losses, the closed-form window losses of each lag;
- moments: _moments, the variance and covariance of every lag;
- rest: estimate_curve less the four, chiefly _block_sums' shift, row
  sums, squares and dot products, and the jackknife.

Each stream runs once untimed, then once per seed; the table gives the
median CPU seconds (time.process_time) of each layer over the seeds. The
wrappers add about a microsecond per call, a few hundred calls per curve.

Usage:
  python scripts/sim_layers.py [REPEATS]

REPEATS defaults to 10 (seeds 1 to REPEATS). Takes about 2 s on one core
at the default.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from roadcorr import NetworkGeometry, TrafficModel, sim  # noqa: E402

LAYERS = {"sample": "_stream_windows", "gain": "_gain_in_place", "losses": "_losses",
          "moments": "_moments"}


def streams():
    """(label, traffic, lags, n_samples) of each timed curve, the lags as
    the CLI forms them from configs/default.cfg and the sweep's config."""
    canonical = [float(t) for t in np.linspace(0.0, 30.0, 31)]
    sweep = [float(t) for t in np.linspace(*workloads.SWEEP_LAGS)]
    yield ("canonical 0.05 4", TrafficModel.from_intensity(0.05, 4.0), canonical,
           workloads.CANONICAL_SAMPLES)
    for lam, c in workloads.SWEEP_TRAFFICS:
        yield (f"sweep {lam} {c:g}", TrafficModel.from_intensity(lam, c), sweep,
               workloads.SWEEP_SAMPLES)


def wrapped(spent: dict, layer: str, fn):
    def timed(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[layer] += time.process_time() - start
    return timed


def layer_times(traffic, geom, lags, n_samples, seed) -> dict:
    """CPU seconds of one estimate_curve call, per layer and in all."""
    spent = dict.fromkeys(LAYERS, 0.0)
    saved = {name: getattr(sim, name) for name in LAYERS.values()}
    try:
        for layer, name in LAYERS.items():
            setattr(sim, name, wrapped(spent, layer, saved[name]))
        start = time.process_time()
        sim.estimate_curve(traffic, geom, lags, n_samples, seed)
        total = time.process_time() - start
    finally:
        for name, fn in saved.items():
            setattr(sim, name, fn)
    spent["rest"] = total - sum(spent.values())
    spent["total"] = total
    return spent


def main(argv: list[str]) -> None:
    repeats = int(argv[0]) if argv else 10
    g = workloads.GEOMETRY
    geom = NetworkGeometry(guard_radius=g["r0"], pathloss_exponent=g["eta"], speed=g["u"])
    columns = [*LAYERS, "rest", "total"]
    print(f"median CPU ms over {repeats} seeds")
    print(f"{'stream':<18} {'lags':>4} {'samples':>7} " + " ".join(f"{c:>8}" for c in columns))
    for label, traffic, lags, n_samples in streams():
        sim.estimate_curve(traffic, geom, lags, n_samples, 0)
        runs = [layer_times(traffic, geom, lags, n_samples, seed)
                for seed in range(1, repeats + 1)]
        medians = [1e3 * statistics.median(run[c] for run in runs) for c in columns]
        print(f"{label:<18} {len(lags):>4} {n_samples:>7} "
              + " ".join(f"{m:8.2f}" for m in medians))


if __name__ == "__main__":
    main(sys.argv[1:])
