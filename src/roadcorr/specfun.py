"""Real-argument special functions and adaptive quadrature.

One adaptive Gauss-Kronrod rule integrates every range: a finite one
directly, a semi-infinite one after mapping it onto (0, 1]. Everything
here is deterministic: the same inputs always produce the same floating
point outputs, so results can be frozen into regression tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "hyp2f1",
    "upper_incomplete_gamma",
    "integrate_finite",
    "integrate_semi_infinite",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrator.

    rel_tol and abs_tol control acceptance of the bisection refinement and
    max_depth bounds how often any subinterval may be halved. A
    semi-infinite range is mapped onto a finite one, so the same three
    settings govern it.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 60

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be a positive finite number, got {value!r}")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 10):
            raise ParameterError(f"max_depth must be an integer >= 10, got {self.max_depth!r}")


DEFAULT_QUADRATURE = QuadratureSpec()


# 15-point Kronrod extension of the 7-point Gauss rule (nodes on [-1, 1]).
_GK_X = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_GK_WK = np.array([
    0.022935322010529224, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225018, 0.06309209262997855, 0.022935322010529224,
])
# Gauss weights sit on every second Kronrod node; zero elsewhere.
_GK_WG = np.array([
    0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0,
    0.3818300505051189, 0.0, 0.4179591836734694, 0.0,
    0.3818300505051189, 0.0, 0.27970539148927664, 0.0,
    0.1294849661688697, 0.0,
])

Integrand = Callable[[np.ndarray], np.ndarray]


def _gk15_batch(f: Integrand, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the Gauss-Kronrod pair on a batch of intervals.

    Returns (kronrod, error) arrays, one entry per interval. The error is
    the conservative |K15 - G7| bound on the Kronrod value.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_X[None, :]
    fx = np.asarray(f(nodes.reshape(-1)), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(fx)):
        bad = nodes.reshape(-1)[~np.isfinite(fx.reshape(-1))][0]
        raise ConvergenceError(
            f"integrand returned a non-finite value near x = {bad!r}",
            best_estimate=math.nan,
            error_bound=math.inf,
        )
    kron = half * (fx @ _GK_WK)
    gauss = half * (fx @ _GK_WG)
    return kron, np.abs(kron - gauss)


def integrate_finite(
    f: Integrand,
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive Gauss-Kronrod integration of a vectorized integrand on [lo, hi].

    The integrand must accept a 1-D numpy array and return values of the
    same shape. Subintervals are bisected, worst error first, until the
    summed error bound satisfies max(abs_tol, rel_tol * |integral|).

    Raises ConvergenceError (carrying the best estimate and its error
    bound) if an interval would need more than max_depth bisections.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"integration limits must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ParameterError(f"lower limit {lo!r} exceeds upper limit {hi!r}")
    if lo == hi:
        return 0.0

    kron, err = _gk15_batch(f, np.array([lo]), np.array([hi]))
    # Heap entries: (-error, sequence, lo, hi, value, error, depth).
    seq = 0
    heap = [(-float(err[0]), seq, lo, hi, float(kron[0]), float(err[0]), 0)]
    while True:
        total = math.fsum(entry[4] for entry in heap)
        total_err = math.fsum(entry[5] for entry in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        _, _, a, b, _, worst_err, depth = heapq.heappop(heap)
        if depth >= spec.max_depth:
            raise ConvergenceError(
                f"interval [{a!r}, {b!r}] exceeded max_depth={spec.max_depth}",
                best_estimate=total,
                error_bound=total_err,
            )
        m = 0.5 * (a + b)
        kron, err = _gk15_batch(f, np.array([a, m]), np.array([m, b]))
        seq += 1
        heapq.heappush(heap, (-float(err[0]), seq, a, m, float(kron[0]), float(err[0]), depth + 1))
        seq += 1
        heapq.heappush(heap, (-float(err[1]), seq, m, b, float(kron[1]), float(err[1]), depth + 1))


def integrate_semi_infinite(
    f: Integrand,
    lo: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate a vectorized integrand over [lo, inf), lo > 0.

    The substitution x = lo / u maps the range onto u in (0, 1], where
    integrate_finite applies its adaptive rule to f(lo / u) * lo / u**2
    under the same error control. The Kronrod nodes never touch u = 0. A
    tail that decays too slowly to be integrable keeps the mapped
    integrand from settling near u = 0 and raises ConvergenceError.
    """
    lo = float(lo)
    if not (math.isfinite(lo) and lo > 0.0):
        raise ParameterError(f"lower limit must be positive and finite, got {lo!r}")
    return integrate_finite(lambda u: f(lo / u) * (lo / (u * u)), 0.0, 1.0, spec)


def _gauss_series(a: float, b: float, c: float, z: float) -> float:
    """Sum the Gauss hypergeometric series at z, |z| < 1 with geometric tail."""
    total = 1.0
    term = 1.0
    for n in range(100_000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ConvergenceError(
        f"hypergeometric series did not settle for z = {z!r}",
        best_estimate=total,
        error_bound=abs(term),
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for c > b > 0 and z < 1.

    Nonnegative z is summed directly; negative z is first mapped into
    [0, 1) with the Pfaff transformation
    2F1(a, b; c; z) = (1 - z)**(-b) * 2F1(c - a, b; c; z / (z - 1)),
    which keeps the series argument small even for z near -2.
    """
    for name, value in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if not c > b > 0.0:
        raise DomainError(f"parameters must satisfy c > b > 0, got b = {b!r}, c = {c!r}")
    if z >= 1.0:
        raise DomainError(f"argument must satisfy z < 1, got z = {z!r}")
    if z == 0.0:
        return 1.0
    if z < 0.0:
        return (1.0 - z) ** (-b) * _gauss_series(c - a, b, c, z / (z - 1.0))
    return _gauss_series(a, b, c, z)


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma function Gamma(a, x) for real order a.

    Positive orders defer to the regularized library routine. Orders a <= 0
    (where the library routine is unavailable) are reached by repeatedly
    applying Gamma(a, x) = (Gamma(a + 1, x) - x**a * exp(-x)) / a downward
    from a base order in (0, 1], or from Gamma(0, x) = E1(x) when a is a
    nonpositive integer. Requires x > 0 when a <= 0.
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ParameterError(f"arguments must be finite, got a = {a!r}, x = {x!r}")
    if a > 0.0:
        if x < 0.0:
            raise DomainError(f"x must be nonnegative for positive a, got x = {x!r}")
        if x == 0.0:
            return float(_sp.gamma(a))
        return float(_sp.gammaincc(a, x) * _sp.gamma(a))
    if x <= 0.0:
        raise DomainError(f"x must be positive when a <= 0, got x = {x!r}")

    if a == math.floor(a):
        order = 0.0
        value = float(_sp.exp1(x))
    else:
        order = a - math.floor(a)
        value = float(_sp.gammaincc(order, x) * _sp.gamma(order))
    decay = math.exp(-x)
    while order > a + 0.5:
        order -= 1.0
        value = (value - x**order * decay) / order
    return value
