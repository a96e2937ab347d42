"""One repeat of one workload, in a fresh interpreter.

Usage (the runner starts it; see run.py):

  python3 perfbench/child.py WORKLOAD --spawned-at T [--config CFG --out DIR]
                             [--trace] [--setup-only]

T is the runner's time.monotonic() just before it started this process, so
setup_s covers interpreter start, `import roadcorr` and building the
workload's inputs. The result is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import (ANALYTIC_METHODS, CLI_WORKLOADS, DENSE_LAGS, DENSE_TRAFFIC,
                       GEOMETRY, SRC, WORKLOADS)


def analytic_curves(analytic, traffic, geom, grid, covariance=None) -> dict[str, list]:
    """rho by every analytic CLI method, None where it raises DomainError,
    and rho_exact from the exact-quadrature covariance over the exact
    zero-lag variance (same-vehicle term plus covariance at lag 0)."""
    from roadcorr.errors import DomainError

    covariance = covariance or analytic.covariance
    out: dict[str, list] = {m: [] for m in ANALYTIC_METHODS}
    for t in grid:
        for method in ANALYTIC_METHODS:
            try:
                out[method].append(analytic.rho(t, traffic, geom, method))
            except DomainError:
                out[method].append(None)
    covs = [covariance(t, traffic, geom, "exact-quadrature").covariance for t in grid]
    cov0 = covs[0] if grid[0] == 0.0 else covariance(
        0.0, traffic, geom, "exact-quadrature").covariance
    variance = analytic.same_vehicle_term(0.0, traffic, geom) + cov0
    out["exact"] = [c / variance for c in covs]
    return out


def _outputs(out_dir: Path) -> tuple[int, int]:
    """Artifacts listed in the manifests under out_dir, and bytes of all files."""
    artifacts = 0
    size = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            size += path.stat().st_size
            if path.name == "manifest.json":
                artifacts += len(json.loads(path.read_text())["files"])
    return artifacts, size


def _usage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import roadcorr
    from roadcorr import analytic, cli
    if Path(roadcorr.__file__).resolve().parent != SRC / "roadcorr":
        print(f"roadcorr imported from {roadcorr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload in CLI_WORKLOADS:
        config = cli.load_config_file(args.config)
        config.geometry()
        config.traffic_models()
    else:
        traffic = roadcorr.TrafficModel.from_intensity(*DENSE_TRAFFIC)
        geom = roadcorr.NetworkGeometry(guard_radius=GEOMETRY["r0"],
                                        pathloss_exponent=GEOMETRY["eta"],
                                        speed=GEOMETRY["u"])
        grid = [float(t) for t in np.linspace(*DENSE_LAGS)]
    result: dict[str, object] = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wrap = tracer.wrap if tracer else (lambda _label, fn: fn)
    wrap_by_method = tracer.wrap_by_method if tracer else (lambda _label, fn: fn)

    self0, children0 = _usage()
    start = time.perf_counter()
    if args.workload in CLI_WORKLOADS:
        main_fn = wrap("cli.main", cli.main)
        commands = ("run", "pcf") if args.workload == "occupancy-sweep" else ("run",)
        for command in commands:
            code = main_fn([command, "--config", args.config,
                            "--out", os.path.join(args.out, command)])
            if code != 0:
                print(f"roadcorr {command} exited with {code}", file=sys.stderr)
                return 3
    else:
        result["curves"] = analytic_curves(
            analytic, traffic, geom, grid,
            wrap_by_method("analytic.covariance", analytic.covariance))
    wall_s = time.perf_counter() - start
    self1, children1 = _usage()
    if tracer:
        tracer.uninstall()

    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": (self1.ru_maxrss + children1.ru_maxrss) / 1024.0,
        "cpu_s": sum(getattr(b, f) - getattr(a, f)
                     for a, b in ((self0, self1), (children0, children1))
                     for f in ("ru_utime", "ru_stime")),
        "sys_s": (self1.ru_stime - self0.ru_stime) + (children1.ru_stime - children0.ru_stime),
        "minor_faults": (self1.ru_minflt - self0.ru_minflt)
                        + (children1.ru_minflt - children0.ru_minflt),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "roadcorr": roadcorr.__version__},
    })
    if tracer:
        layers = tracer.metrics(wall_s)
        if args.workload in CLI_WORKLOADS:
            layers["cli.artifacts"], layers["cli.bytes_written"] = _outputs(Path(args.out))
        else:
            layers["cli.artifacts"], layers["cli.bytes_written"] = 0, 0
        result["layers"] = layers
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
