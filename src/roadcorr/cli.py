"""Command line driver: parameter sweeps serialized to CSV or JSON.

Two subcommands. `run` evaluates correlation-coefficient curves for each
configured traffic model and method (analytic routes and simulation) over a
lag grid. A method is evaluated at the grid lags its range serves, the one
rule in analytic._lag_range, and written invalid at the others; a
DomainError at a lag it serves fails the run. `pcf` emits the normalized pair
correlation against separation in units of the minimum gap, from one
normalized_pair_correlation call per stream, with its far-field level for
reference.

Both commands check the whole config, the geometry and every traffic line,
before they create the output directory. Each then hands its artifacts,
every one a name, a header, rows and its own manifest fields, to one
writer, _write, which writes each file atomically and lists it with its
row count and sha256 in manifest.json. Outputs are deterministic
byte-for-byte for a fixed config and seed: no timestamps, stable float
repr, atomic writes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, DomainError, EstimationError, ParameterError
from .model import NetworkGeometry, TrafficModel, normalized_pair_correlation
from . import analytic, sim

__all__ = ["RunConfig", "parse_config", "load_config_file", "main"]

KNOWN_METHODS = analytic.RHO_METHODS + ("simulation",)
CSV_HEADER = "t,value,stderr,method,lambda,c,r0,eta,u,valid"
PCF_HEADER = "d_over_c,value,asymptote,lambda,c"
PCF_POINTS_PER_GAP = 8
PCF_MAX_GAPS = 8


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep settings; defaults reproduce the canonical setup."""

    traffics: tuple[tuple[float, float], ...] = ((0.05, 4.0),)
    r0: float = 150.0
    eta: float = 3.0
    u: float = 10.0
    t_lo: float = 0.0
    t_hi: float = 30.0
    t_points: int = 31
    methods: tuple[str, ...] = KNOWN_METHODS
    n_samples: int = 100_000
    seed: int = 20260816
    out_dir: str = "results"
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if not self.traffics:
            raise ConfigError("at least one traffic line is required")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {', '.join(KNOWN_METHODS)}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.t_points < 1:
            raise ConfigError("t_points must be at least 1")
        if not (math.isfinite(self.t_lo) and math.isfinite(self.t_hi)
                and 0.0 <= self.t_lo <= self.t_hi):
            raise ConfigError(f"bad lag range [{self.t_lo!r}, {self.t_hi!r}]")
        if "simulation" in self.methods and self.n_samples < sim.MIN_SAMPLES:
            raise ConfigError(f"simulation needs n_samples >= {sim.MIN_SAMPLES}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed!r}")

    def geometry(self) -> NetworkGeometry:
        try:
            return NetworkGeometry(guard_radius=self.r0, pathloss_exponent=self.eta,
                                   speed=self.u)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def traffic_models(self) -> list[TrafficModel]:
        out = []
        for lam, c in self.traffics:
            try:
                out.append(TrafficModel.from_intensity(lam, c))
            except ParameterError as exc:
                raise ConfigError(f"traffic lambda={lam!r} c={c!r}: {exc}") from exc
        return out

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_lo, self.t_hi, self.t_points)


_SCALARS = {
    "r0": ("r0", float),
    "eta": ("eta", float),
    "u": ("u", float),
    "t_lo": ("t_lo", float),
    "t_hi": ("t_hi", float),
    "t_points": ("t_points", int),
    "n_samples": ("n_samples", int),
    "seed": ("seed", int),
    "format": ("fmt", str),
    "out": ("out_dir", str),
}


def _parse_traffic(value: str, line_no: int) -> tuple[float, float]:
    fields: dict[str, float] = {}
    for token in value.split():
        name, sep, raw = token.partition("=")
        if not sep or name not in ("lambda", "c") or name in fields:
            raise ConfigError(f"traffic takes 'lambda=<x> c=<y>' once each, got {token!r}", line_no)
        try:
            fields[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad number {raw!r} for traffic {name}", line_no) from exc
    if set(fields) != {"lambda", "c"}:
        raise ConfigError("traffic line must set both lambda and c", line_no)
    return (fields["lambda"], fields["c"])


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value config format.

    Unknown keys, malformed lines, and bad values are reported with their
    line numbers. Traffic lines accumulate and other keys overwrite; a
    traffic line or a method given twice is an error.
    """
    values: dict[str, object] = {}
    traffics: list[tuple[float, float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line_no)
        if key == "traffic":
            traffic = _parse_traffic(value, line_no)
            if traffic in traffics:
                raise ConfigError(f"traffic {value!r} repeats an earlier line", line_no)
            traffics.append(traffic)
        elif key == "methods":
            values["methods"] = methods = tuple(m.strip() for m in value.split(",") if m.strip())
            if len(set(methods)) < len(methods):
                raise ConfigError(f"methods lists a method twice: {value!r}", line_no)
        elif key == "n_partitions":
            # Retired: the simulation always runs sim.N_BLOCKS blocks, which
            # any count from 1 to N_BLOCKS left unchanged. Still parsed
            # because perfbench's occupancy-sweep config writes it.
            if not (value.isdecimal() and 1 <= int(value) <= sim.N_BLOCKS):
                raise ConfigError(f"n_partitions is retired; the simulation always uses "
                                  f"{sim.N_BLOCKS} blocks, got {value!r}", line_no)
        elif key in _SCALARS:
            attr, cast = _SCALARS[key]
            try:
                values[attr] = cast(value)
            except ValueError as exc:
                raise ConfigError(f"bad value {value!r} for {key}", line_no) from exc
        else:
            raise ConfigError(f"unknown key {key!r}", line_no)
    if traffics:
        values["traffics"] = tuple(traffics)
    return RunConfig(**values)


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _format_value(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_atomic(path: str, data: str) -> str:
    """Write data to <path>.tmp and rename it over path; on any failure the
    temporary file is removed before the error propagates."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _rows_to_csv(header: str, rows: list[list[object]]) -> str:
    lines = [header]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_to_json(header: str, rows: list[list[object]]) -> str:
    names = header.split(",")
    objs = [dict(zip(names, row)) for row in rows]
    return json.dumps(objs, sort_keys=True, indent=0) + "\n"


class _Artifact(NamedTuple):
    """One output file; fields are its manifest entry's beyond rows and sha256."""

    name: str
    header: str
    rows: list[list[object]]
    fields: dict[str, object]


def _artifact_name(kind: str, traffic: TrafficModel, method: str | None, fmt: str) -> str:
    middle = f"_{method}" if method else ""
    return f"{kind}{middle}_lam{traffic.intensity!r}_c{traffic.min_gap!r}.{fmt}"


def _curve(config: RunConfig, traffic: TrafficModel, method: str,
           geom: NetworkGeometry) -> _Artifact:
    """One method's rho curve over the lag grid. Its manifest fields are the
    indices of its invalid points and, for a simulated curve with a
    simulated lag, the largest bound on the truncation bias of rho over
    those lags.

    The lags the method serves (analytic._lags_served) are evaluated and
    the others are invalid; an error at a served lag propagates."""
    lam, c = traffic.intensity, traffic.min_gap
    grid = [float(t) for t in config.t_grid()]
    inside = analytic._lags_served(method, traffic, geom, grid)
    values: dict[int, tuple[float, float | None]] = {}
    fields: dict[str, object] = {}
    if method != "simulation":
        values = {i: (analytic.rho(grid[i], traffic, geom, method), None) for i in inside}
    elif inside:
        results = sim.estimate_curve(traffic, geom, [grid[i] for i in inside],
                                     config.n_samples, config.seed)
        values = {i: (r.rho, r.se_rho) for i, r in zip(inside, results)}
        fields["truncation_bias_bound"] = max(r.bias_bound for r in results)
    rows = [[t, *values.get(i, (None, None)), method, lam, c,
             config.r0, config.eta, config.u, i in values]
            for i, t in enumerate(grid)]
    fields["invalid_points"] = [i for i in range(len(grid)) if i not in values]
    return _Artifact(_artifact_name("curve", traffic, method, config.fmt), CSV_HEADER,
                     rows, fields)


def _pcf_rows(traffic: TrafficModel) -> list[list[object]]:
    """normalized_pair_correlation at k / PCF_POINTS_PER_GAP minimum gaps,
    k = 1 .. PCF_POINTS_PER_GAP * PCF_MAX_GAPS, from one call on the whole
    grid, with the far-field level 1 - occupancy. The grid stays inside
    the 64 gaps the density resolves."""
    d_over_c = np.arange(1, PCF_POINTS_PER_GAP * PCF_MAX_GAPS + 1) / PCF_POINTS_PER_GAP
    values = normalized_pair_correlation(d_over_c, traffic).tolist()
    stream = [1.0 - traffic.occupancy, traffic.intensity, traffic.min_gap]
    return [[x, value, *stream] for x, value in zip(d_over_c.tolist(), values)]


def _write(config: RunConfig, command: str, artifacts: Iterable[_Artifact]) -> None:
    """Create the output directory, write each artifact atomically as it
    comes, then manifest.json, which lists every artifact with its row
    count, sha256 and own fields. An error while the artifacts are produced
    propagates before the manifest is written."""
    os.makedirs(config.out_dir, exist_ok=True)
    to_text = _rows_to_csv if config.fmt == "csv" else _rows_to_json
    files: dict[str, dict[str, object]] = {}
    for artifact in artifacts:
        digest = _write_atomic(os.path.join(config.out_dir, artifact.name),
                               to_text(artifact.header, artifact.rows))
        files[artifact.name] = {"rows": len(artifact.rows), "sha256": digest, **artifact.fields}
    # the config as recorded: every config-file scalar but the output directory
    recorded = {key: getattr(config, attr) for key, (attr, _) in _SCALARS.items() if key != "out"}
    recorded["traffics"] = [{"lambda": lam, "c": c} for lam, c in config.traffics]
    recorded["methods"] = list(config.methods)
    manifest = {"command": command, "config": recorded, "files": files, "version": __version__}
    _write_atomic(os.path.join(config.out_dir, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _run(config: RunConfig) -> None:
    geom = config.geometry()
    traffics = config.traffic_models()
    _write(config, "run", (_curve(config, traffic, method, geom)
                           for traffic in traffics for method in config.methods))


def _pcf(config: RunConfig) -> None:
    config.geometry()  # the density needs no geometry, but the manifest records it
    traffics = config.traffic_models()
    _write(config, "pcf", (_Artifact(_artifact_name("pcf", traffic, None, config.fmt),
                                     PCF_HEADER, _pcf_rows(traffic), {})
                           for traffic in traffics))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="roadcorr",
                     description="Temporal interference correlation curves "
                                 "for a one-dimensional vehicular network.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "evaluate correlation curves per traffic model and method"),
            ("pcf", "emit the normalized pair correlation vs separation")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (default: results)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    config = load_config_file(args.config) if args.config else RunConfig()
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.format is not None:
        overrides["fmt"] = args.format
    return replace(config, **overrides) if overrides else config


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _resolve(args)
        try:
            (_run if args.command == "run" else _pcf)(config)
        except OSError as exc:  # creating or writing the output
            raise ConfigError(f"cannot write the output: {exc}") from exc
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except (DomainError, EstimationError) as exc:
        print(f"evaluation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
