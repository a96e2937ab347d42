"""Spans and counts at the boundaries between roadcorr's modules.

The tracer replaces, for the length of one traced repeat, each function one
module calls in another with a wrapper that records a span (label, duration,
and the part of it covered by nested spans) and the counts the per-layer
metrics need. An integrand that analytic hands to specfun is analytic code:
its self time is charged to the analytic route that started the quadrature,
so specfun's self time is the quadrature's own bookkeeping. Every name is
looked up when the tracer is installed, so a boundary a later refactor
removes is reported as absent instead of failing. Spans stay in memory; the
metrics are computed from them at the end.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import ANALYTIC_METHODS

# (module, attribute, span label, metric prefixes the boundary feeds).
# Each attribute is the name as bound in the calling module, so the span
# covers exactly the calls that cross from one layer into the next.
BOUNDARIES = (
    ("roadcorr.analytic", "rho", "analytic.rho", ("analytic.rho.",)),
    ("roadcorr.sim", "estimate", "sim.estimate", ("sim.",)),
    ("roadcorr.cli", "normalized_pair_correlation", "model.pair_correlation",
     ("model.pair_correlation.",)),
    ("roadcorr.analytic", "_pair_correlation_array", "model.pair_correlation",
     ("model.pair_correlation.",)),
    ("roadcorr.analytic", "hyp2f1", "specfun.hyp2f1", ("specfun.hyp2f1.",)),
    ("roadcorr.analytic", "integrate_finite", "specfun.integrate_finite",
     ("specfun.integrate_finite.", "specfun.integrand_")),
    ("roadcorr.analytic", "integrate_semi_infinite", "specfun.integrate_semi_infinite",
     ("specfun.integrate_semi_infinite.", "specfun.integrand_")),
)


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least ten
    samples beyond it; the median for samples too few to have one."""
    return max(n - 11, (n - 1) // 2)


class Tracer:
    """Boundary spans and counts for one traced repeat."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.estimates: list[tuple[int, float]] = []
        self.absent: list[str] = []
        self._open: list[list] = []     # [label, time covered by nested spans]
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, label: str, fn, args, kwargs, charge_to: str | None = None):
        """Call fn inside a span; its self time goes to charge_to if given,
        in which case the call itself is not counted."""
        frame = [charge_to or label, 0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{label}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            duration = perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][1] += duration
            self.self_s[frame[0]] += duration - frame[1]
            if charge_to is None:
                self.durations.setdefault(label, []).append(duration)

    def _route(self) -> str:
        """Label of the innermost open analytic span."""
        for label, _ in reversed(self._open):
            if label.startswith("analytic."):
                return label
        return "analytic.integrand"

    def wrap(self, label: str, fn):
        """A wrapper recording one span per call of fn under label."""
        def traced(*args, **kwargs):
            return self._call(label, fn, args, kwargs)
        return traced

    def wrap_by_method(self, label: str, fn):
        """Like wrap, with the call's method argument appended to the label."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return self._call(f"{label}.{bound.arguments['method']}", fn, args, kwargs)
        return traced

    def _estimate(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            result = self._call("sim.estimate", fn, args, kwargs)
            self.estimates.append((bound.arguments.get("n_samples", 0), result.se_rho))
            return result
        return traced

    def _pair_correlation(self, fn):
        def traced(d, *args, **kwargs):
            self.counts["model.pair_correlation.points"] += int(np.size(d))
            return self._call("model.pair_correlation", fn, (d,) + args, kwargs)
        return traced

    def _integrator(self, label: str, fn):
        def integrand_of(f):
            def counted(x):
                self.counts["specfun.integrand_calls"] += 1
                self.counts["specfun.integrand_points"] += int(np.size(x))
                return self._call("analytic.integrand", f, (x,), {}, self._route())
            return counted

        def traced(f, *args, **kwargs):
            return self._call(label, fn, (integrand_of(f),) + args, kwargs)
        return traced

    def _wrapper_for(self, attr: str, label: str, fn):
        if attr == "rho":
            return self.wrap_by_method(label, fn)
        if attr == "estimate":
            return self._estimate(fn)
        if label == "model.pair_correlation":
            return self._pair_correlation(fn)
        if attr.startswith("integrate_"):
            return self._integrator(label, fn)
        return self.wrap(label, fn)

    def install(self) -> None:
        for module_name, attr, label, _ in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper_for(attr, label, fn))
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _absent_prefixes(self) -> set[str]:
        present = {prefix for module, attr, _, prefixes in BOUNDARIES
                   if f"{module}.{attr}" not in self.absent for prefix in prefixes}
        return {prefix for *_, prefixes in BOUNDARIES
                for prefix in prefixes if prefix not in present}

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced repeat, keyed by metric name.

        Metrics fed only by absent boundaries are left out.
        """
        out: dict[str, float] = {}

        def stats(label: str):
            durations = sorted(self.durations.get(label, []))
            n = len(durations)
            return {
                "calls": n,
                "total_s": sum(durations),
                "self_s": self.self_s[label],
                "p50": statistics.median(durations) if n else 0.0,
                "ptail": durations[tail_index(n)] if n else 0.0,
            }

        main = stats("cli.main")
        out["cli.main.total_s"] = main["total_s"]
        out["cli.self_s"] = main["self_s"]

        est = stats("sim.estimate")
        samples = sum(n for n, _ in self.estimates)
        se2 = [se * se for _, se in self.estimates]
        se2_mean = statistics.fmean(se2) if se2 else 0.0
        out["sim.estimate.calls"] = est["calls"]
        out["sim.estimate.total_s"] = est["total_s"]
        out["sim.estimate.p50_s"] = est["p50"]
        out["sim.estimate.ptail_s"] = est["ptail"]
        out["sim.samples_per_s"] = samples / est["total_s"] if est["calls"] else 0.0
        out["sim.se_rho2_mean"] = se2_mean
        out["sim.mc_cost"] = est["total_s"] / est["calls"] * se2_mean if est["calls"] else 0.0

        for label in ([f"analytic.rho.{m}" for m in ANALYTIC_METHODS]
                      + ["analytic.covariance.exact-quadrature"]):
            s = stats(label)
            out[f"{label}.calls"] = s["calls"]
            out[f"{label}.self_s"] = s["self_s"]
            out[f"{label}.p50_ms"] = 1e3 * s["p50"]
            out[f"{label}.ptail_ms"] = 1e3 * s["ptail"]
        out["analytic.domain_errors"] = sum(
            n for key, n in self.counts.items()
            if key.startswith("analytic.") and key.endswith(".raised.DomainError"))

        out["specfun.hyp2f1.calls"] = stats("specfun.hyp2f1")["calls"]
        for name in ("integrate_finite", "integrate_semi_infinite"):
            s = stats(f"specfun.{name}")
            out[f"specfun.{name}.calls"] = s["calls"]
            out[f"specfun.{name}.self_s"] = s["self_s"]
        out["specfun.integrand_calls"] = self.counts["specfun.integrand_calls"]
        out["specfun.integrand_points"] = self.counts["specfun.integrand_points"]

        pcf = stats("model.pair_correlation")
        out["model.pair_correlation.calls"] = pcf["calls"]
        out["model.pair_correlation.total_s"] = pcf["total_s"]
        out["model.pair_correlation.points"] = self.counts["model.pair_correlation.points"]

        out["trace.self_share"] = sum(self.self_s.values()) / wall_s

        absent = self._absent_prefixes()
        return {k: v for k, v in out.items()
                if not any(k.startswith(prefix) for prefix in absent)}
