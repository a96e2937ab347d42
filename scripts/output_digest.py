"""One sha256 per output tree, to show that a change leaves every output bit.

Prints a digest for each of:

- canonical-run/run: `roadcorr run` on perfbench's canonical-run config;
- occupancy-sweep/run and occupancy-sweep/pcf: `roadcorr run` and
  `roadcorr pcf` on perfbench's occupancy-sweep config;
- exact-dense/covariance: every field of the exact-quadrature covariance
  breakdown over perfbench's exact-dense stream and lags;
- edges/run: `roadcorr run` with all four methods on 151 lags over [0, 30]
  and streams at c = 0, 4, r0 / 2 and just past it, so every method's
  valid/invalid decision at t_lo, t_hi and t_max, and on a stream whose lag
  window is empty, is covered;
- edges/pcf: `roadcorr pcf` on the same four streams;
- edges/run.json: edges/run with `--format json`, the one line that
  covers the JSON writer;
- method/<method>: the curve files of one method (`curve_<method>_*`)
  across every run tree above, so a change that moves one method's
  numbers shows which curves moved and which stayed byte-identical.

The perfbench configs are built by perfbench/workloads.config_text, and the
edges config by edges_config_text, at the seed given (perfbench's default
seed otherwise). A tree's digest covers each file's
path, relative to the output directory, and its bytes, manifest.json
included. Run it in two checkouts and compare the lines.

Usage:
  python scripts/output_digest.py [SEED]

Takes a few seconds on one core.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from roadcorr import NetworkGeometry, TrafficModel, analytic, cli  # noqa: E402


def files_digest(base: Path, pattern: str) -> str:
    """sha256 over the files under base that match the glob pattern, each
    one's path relative to base and its bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in base.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def tree_digest(out_dir: Path) -> str:
    return files_digest(out_dir, "*")


def edges_config_text(seed: int) -> str:
    """Streams (lambda, c) = (0.05, 0), (0.05, 4), (0.005, 75) and
    (0.005, 80) in the canonical geometry: c = 75 is half the guard
    radius, where t_lo = t_hi, and c = 80 leaves only ppp a lag window."""
    lines = [f"{k} = {v!r}" for k, v in workloads.GEOMETRY.items()]
    lines += [f"traffic = lambda={lam!r} c={c!r}"
              for lam, c in ((0.05, 0.0), (0.05, 4.0), (0.005, 75.0), (0.005, 80.0))]
    lines += ["t_lo = 0.0", "t_hi = 30.0", "t_points = 151",
              "methods = ppp, expansion, pcf-approx, simulation",
              "n_samples = 1000", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def cli_digest(workload: str, command: str, fmt: str, seed: int, scratch: Path) -> str:
    config = scratch / f"{workload}.cfg"
    text = edges_config_text(seed) if workload == "edges" else workloads.config_text(workload, seed)
    config.write_text(text, encoding="utf-8")
    out_dir = scratch / workload / f"{command}.{fmt}"
    code = cli.main([command, "--config", str(config), "--out", str(out_dir), "--format", fmt])
    if code != 0:
        raise SystemExit(f"roadcorr {command} on {workload} exited with {code}")
    return tree_digest(out_dir)


def dense_digest() -> str:
    traffic = TrafficModel.from_intensity(*workloads.DENSE_TRAFFIC)
    g = workloads.GEOMETRY
    geom = NetworkGeometry(guard_radius=g["r0"], pathloss_exponent=g["eta"], speed=g["u"])
    digest = hashlib.sha256()
    for t in np.linspace(*workloads.DENSE_LAGS):
        b = analytic.covariance(float(t), traffic, geom, "exact-quadrature")
        fields = (b.same_vehicle, b.distant_pairs, b.close_pairs, b.mean_sq, b.covariance)
        digest.update(",".join(repr(float(v)) for v in fields).encode() + b"\n")
    return digest.hexdigest()


def main(argv: list[str]) -> None:
    seed = int(argv[0]) if argv else workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory() as scratch:
        for workload, command, fmt in (
                ("canonical-run", "run", "csv"), ("occupancy-sweep", "run", "csv"),
                ("occupancy-sweep", "pcf", "csv"), ("edges", "run", "csv"),
                ("edges", "pcf", "csv"), ("edges", "run", "json")):
            label = f"{workload}/{command}" + ("" if fmt == "csv" else f".{fmt}")
            print(label, cli_digest(workload, command, fmt, seed, Path(scratch)))
        for method in cli.KNOWN_METHODS:
            print(f"method/{method}", files_digest(Path(scratch), f"curve_{method}_*"))
    print("exact-dense/covariance", dense_digest())


if __name__ == "__main__":
    main(sys.argv[1:])
