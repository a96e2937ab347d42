"""roadcorr benchmark: run one workload, check its outputs, print its metrics.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each repeat of the workload runs in a fresh
interpreter (perfbench/child.py) with the package imported from ./src. The
runner repeats the workload, at least twice, until --seconds of measured
work is done, times the host-speed calibration (perfbench/calibrate.py)
before the first repeat and after every repeat, and checks every output of
every repeat (see README.md). With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, as medians over the repeats; with --trace 1 it alternates untraced and traced repeats
and reports the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line before
it records the machine, the versions, the Monte Carlo cases and every
repeat's raw figures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (ANALYTIC_METHODS, CANONICAL_SAMPLES, CLI_WORKLOADS, DEFAULT_SEED,
                       ROOT, SRC, SWEEP_SAMPLES, WORKLOADS, config_text, traffic_key)

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

REL_TOL = 1e-8            # analytic values: the RHO_PCF pin tolerance
ABS_FLOOR = 1e-12         # below this size two values count as equal
SIM_TOL = 0.02            # acceptance check 2: simulation vs rho_exact
SIM_Z = 6.0               # ... widened to this many jackknife standard errors
SIM_MEAN_Z2 = 4.0         # mean squared z-score of one repeat's simulated points
MIN_REPEATS = 2           # the byte-identical rerun check needs a second repeat
SETUP_ONLY = 4            # extra fresh interpreters that only set up
RUN_LIMIT_S = 170.0       # the whole run, children included
CAL_REF_S = 0.4           # calibration time that wall_norm_s is scaled to


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


class Checks:
    """Counts correctness checks; keeps the first failures for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def _close(value: float | None, expected: float | None) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    return abs(value - expected) <= max(REL_TOL * abs(expected), ABS_FLOOR)


def _number(text: str) -> float | None:
    return float(text) if text else None


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.reference = json.loads((HERE / "reference.json").read_text())[workload]
        self.checks = Checks()
        self.work = WORK / workload
        self.config = None
        self.first_digests: dict[str, str] | None = None
        self.setup_s: list[float] = []

    def prepare(self) -> None:
        if not (SRC / "roadcorr" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'roadcorr'}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.workload in CLI_WORKLOADS:
            self.config = self.work / "workload.cfg"
            self.config.write_text(config_text(self.workload, self.seed), encoding="utf-8")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, *options: str, out: Path | None = None) -> dict:
        args = [sys.executable, str(HERE / "child.py"), self.workload]
        if self.config is not None:
            args += ["--config", str(self.config)]
        if out is not None:
            args += ["--out", str(out)]
        args += list(options)
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before the repeat could start")
        args += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repeat exceeded the run's time limit: {exc}") from exc
        if proc.returncode != 0:
            raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_s.append(result["setup_s"])
        return result

    def calibrate(self) -> float:
        """Time the calibration kernel in a fresh interpreter."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before the calibration could start")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"calibration exceeded the run's time limit: {exc}") from exc
        if proc.returncode != 0:
            raise BenchError(f"calibration exited with {proc.returncode}:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    def repeat(self, index: int, traced: bool) -> dict:
        out = self.work / f"repeat{index}"
        result = self.spawn(*(["--trace"] if traced else []), out=out)
        if self.workload in CLI_WORKLOADS:
            result["se_rho2"], result["z2"] = self.check_cli(out)
            shutil.rmtree(out, ignore_errors=True)
        else:
            self.check_curves(result.pop("curves"))
        return result

    # -- correctness -------------------------------------------------------

    def check_curves(self, produced: dict) -> None:
        """exact-dense: every analytic value and flag against the table."""
        for key, ref in self.reference["curves"].items():
            for method in ANALYTIC_METHODS + ("exact",):
                values = produced.get(method, [])
                if not self.checks.check(len(values) == len(ref[method]),
                                         f"{key} {method}: {len(values)} points"):
                    continue
                for i, (value, expected) in enumerate(zip(values, ref[method])):
                    self.checks.check(_close(value, expected),
                                      f"{key} {method} t={ref['t'][i]!r}: "
                                      f"{value!r} vs {expected!r}")

    def check_cli(self, out: Path) -> tuple[list[float], list[float]]:
        """Check one CLI repeat's files; return se_rho**2 and the squared
        z-score against rho_exact of its simulated points."""
        digests: dict[str, str] = {}
        curves: dict[tuple[str, str], list[dict]] = {}
        flagged: dict[tuple[str, str], list[int]] = {}
        commands = ("run", "pcf") if "pcf" in self.reference else ("run",)
        for command in commands:
            manifest = json.loads((out / command / "manifest.json").read_text())
            for name, entry in manifest["files"].items():
                digests[f"{command}/{name}"] = entry["sha256"]
                with open(out / command / name, newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                if command == "pcf":
                    self.check_pcf(name, rows)
                    continue
                key = traffic_key(float(rows[0]["lambda"]), float(rows[0]["c"]))
                curves[(key, rows[0]["method"])] = rows
                flagged[(key, rows[0]["method"])] = entry["invalid_points"]

        if self.first_digests is None:
            self.first_digests = digests
        for name in sorted(set(digests) | set(self.first_digests)):
            self.checks.check(digests.get(name) == self.first_digests.get(name),
                              f"{name}: sha256 differs from the first repeat")

        se2: list[float] = []
        z2: list[float] = []
        for key, ref in self.reference["curves"].items():
            for method in ANALYTIC_METHODS + ("simulation",):
                rows = curves.get((key, method))
                if not self.checks.check(rows is not None and len(rows) == len(ref["t"]),
                                         f"{key} {method}: curve missing or wrong length"):
                    continue
                values = [_number(row["value"]) for row in rows]
                self.checks.check(
                    flagged[(key, method)] == [i for i, v in enumerate(values) if v is None],
                    f"{key} {method}: manifest invalid_points disagree with the rows")
                for i, (row, value) in enumerate(zip(rows, values)):
                    where = f"{key} {method} t={row['t']}"
                    if not self.checks.check(_close(float(row["t"]), ref["t"][i]),
                                             f"{where}: lag differs from the table"):
                        continue
                    if method != "simulation":
                        self.checks.check(_close(value, ref[method][i]),
                                          f"{where}: {value!r} vs {ref[method][i]!r}")
                        continue
                    se = _number(row["stderr"])
                    exact = ref["exact"][i]
                    if not self.checks.check(value is not None and se is not None and se > 0,
                                             f"{where}: no simulated value"):
                        continue
                    tol = max(SIM_TOL, SIM_Z * se)
                    self.checks.check(abs(value - exact) <= tol,
                                      f"{where}: {value!r} vs rho_exact {exact!r} "
                                      f"(tolerance {tol:.4f})")
                    se2.append(se * se)
                    z2.append(((value - exact) / se) ** 2)
        if z2:
            self.checks.check(statistics.fmean(z2) <= SIM_MEAN_Z2,
                              f"mean squared z-score {statistics.fmean(z2):.2f} of the "
                              "simulated points: the standard errors are too small")
        return se2, z2

    def check_pcf(self, name: str, rows: list[dict]) -> None:
        key = traffic_key(float(rows[0]["lambda"]), float(rows[0]["c"]))
        ref = self.reference["pcf"].get(key)
        if not self.checks.check(ref is not None and len(ref) == len(rows),
                                 f"{name}: not in the table or wrong length"):
            return
        for row, expected in zip(rows, ref):
            self.checks.check(_close(float(row["value"]), expected),
                              f"{name} d/c={row['d_over_c']}: {row['value']} vs {expected!r}")


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                build = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": model, **build}


def _mc_cases(workload: str, seed: int) -> list[dict]:
    n = {"canonical-run": CANONICAL_SAMPLES, "occupancy-sweep": SWEEP_SAMPLES}.get(workload)
    return [] if n is None else [{"seed": seed, "n_samples": n}]


def _metric_specs(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Checks]:
    start = time.monotonic()
    runner = Runner(workload, seed, start + RUN_LIMIT_S)
    runner.prepare()
    try:
        runner.spawn("--setup-only")       # fills the bytecode and file caches
        runner.setup_s.clear()
        for _ in range(SETUP_ONLY):
            runner.spawn("--setup-only")
        repeats: list[dict] = []
        begun = time.monotonic()
        calibrations = [runner.calibrate()]
        while True:
            traced = trace and len(repeats) % 2 == 1
            repeats.append(runner.repeat(len(repeats), traced))
            calibrations.append(runner.calibrate())
            elapsed = time.monotonic() - begun
            if len(repeats) >= MIN_REPEATS and elapsed + elapsed / len(repeats) > seconds:
                break
    finally:
        runner.cleanup()

    untraced = [r for r in repeats if "layers" not in r]
    traced_runs = [r for r in repeats if "layers" in r]
    wall = statistics.median(r["wall_s"] for r in untraced)
    se2 = untraced[0].get("se_rho2")
    se2_mean = statistics.fmean(se2) if se2 else 0.0
    values = {
        "setup_s": statistics.median(runner.setup_s),
        "wall_norm_s": CAL_REF_S * statistics.fmean(r["wall_s"] for r in untraced)
                       / statistics.fmean(calibrations),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    absent: list[str] = []
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        layers.update({
            "run.mc_cost": wall * se2_mean,
            "error_rate": runner.checks.failed / max(runner.checks.attempted, 1),
            "proc.cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "proc.sys_s": statistics.median(r["sys_s"] for r in untraced),
            "proc.minor_faults": statistics.median(r["minor_faults"] for r in untraced),
            "trace.overhead_s": statistics.median(r["wall_s"] for r in traced_runs) - wall,
        })
        absent = sorted({a for r in traced_runs for a in r["absent"]})
        values = layers
    specs = _metric_specs("per_layer" if trace else "end_to_end")
    metrics = {}
    for spec in specs:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        else:
            absent.append(spec["name"])
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": _machine(), "versions": repeats[0]["versions"],
        "monte_carlo": _mc_cases(workload, seed),
        "mc_cost": wall * se2_mean if se2_mean else None,
        "sim_mean_z2": statistics.fmean(untraced[0]["z2"]) if se2_mean else None,
        "wall_s": wall,
        "repeats": [{k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "cpu_s", "sys_s")}
                    | {"traced": "layers" in r} for r in repeats],
        "setup_samples": runner.setup_s,
        "calibration_samples": calibrations,
        "absent": absent,
        "check_failures": runner.checks.messages,
    }
    return {"info": info, "metrics": metrics}, runner.checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        report, checks = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("perfbench-info " + json.dumps(report["info"], sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
