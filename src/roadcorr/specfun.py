"""Real-argument special functions and quadrature rules.

One adaptive Gauss-Kronrod rule integrates every range: a finite one
split at the caller's breakpoints, a semi-infinite one after mapping it
onto (0, 1]. Gauss-Jacobi rules for the weight u**beta on [0, 1] are
built on first use and cached (_gauss_jacobi). Everything here is
deterministic: the same inputs always produce the same floating point
outputs, so results can be frozen into regression tests. All of it needs
numpy alone except upper_incomplete_gamma, which imports scipy.special on
its first call, so importing this module does not load scipy.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    points: Sequence[float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive Gauss-Kronrod integration of a vectorized integrand.

    points is one nondecreasing sequence: the lower limit, any interior
    breakpoints (kinks or jumps of the integrand), then the upper limit,
    as in QUADPACK's QAGP. The integrand maps a 1-D numpy array to values
    of the same shape. One batch evaluates every piece in one integrand
    call; then the piece with the largest error is bisected until the
    running error sum meets max(abs_tol, rel_tol * |integral|), and the
    exact sum of the pieces is returned.

    Raises ConvergenceError, carrying the best estimate and its error
    bound, if an interval would need more than max_depth bisections, or
    after six bisections that each left a piece's value (to 1e-5) and
    error bound (to 1%) where they were: roundoff then keeps the target
    out of reach (QUADPACK's ier = 2).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 2 or not np.all(np.isfinite(pts)) or np.any(np.diff(pts) < 0):
        raise ParameterError(f"points must be two or more finite, nondecreasing values, "
                             f"got {points!r}")
    keep = pts[1:] > pts[:-1]
    if not np.any(keep):
        return 0.0

    lo, hi = pts[:-1][keep], pts[1:][keep]
    kron, err = _gk15_batch(f, lo, hi)
    # Heap entries: (-error, sequence, lo, hi, value, error, depth).
    heap = [(-e, seq, a, b, k, e, 0) for seq, (a, b, k, e)
            in enumerate(zip(lo.tolist(), hi.tolist(), kron.tolist(), err.tolist()))]
    heapq.heapify(heap)
    seq = len(heap)
    total, total_err = math.fsum(kron.tolist()), math.fsum(err.tolist())
    stuck = 0
    while total_err > (target := max(spec.abs_tol, spec.rel_tol * abs(total))):
        _, _, a, b, value, worst_err, depth = heapq.heappop(heap)
        if depth >= spec.max_depth or stuck == 6:
            why = (f"interval [{a!r}, {b!r}] exceeded max_depth={spec.max_depth}"
                   if stuck < 6 else f"roundoff holds the error bound above the target {target!r}")
            raise ConvergenceError(why, best_estimate=math.fsum([value, *(e[4] for e in heap)]),
                                   error_bound=total_err)
        m = 0.5 * (a + b)
        kron, err = _gk15_batch(f, np.array([a, m]), np.array([m, b]))
        (k1, k2), (e1, e2) = kron.tolist(), err.tolist()
        if abs(value - (k1 + k2)) <= 1e-5 * abs(k1 + k2) and e1 + e2 >= 0.99 * worst_err:
            stuck += 1
        total += k1 + k2 - value
        total_err += e1 + e2 - worst_err
        heapq.heappush(heap, (-e1, seq + 1, a, m, k1, e1, depth + 1))
        heapq.heappush(heap, (-e2, seq + 2, m, b, k2, e2, depth + 1))
        seq += 2
    return math.fsum(entry[4] for entry in heap)


@functools.cache
def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule for the weight u**beta on [0, 1], beta > 0.

    Returns (nodes, weights), the nodes ascending and the weights
    normalised to sum to 1, both read-only. Golub and Welsch (Math. Comp.
    23, 1969): the nodes are the eigenvalues of the Jacobi matrix of the
    shifted Jacobi polynomials P_k^(0, beta)(2u - 1), and each weight is
    the squared first component of its eigenvector. Built once per
    (n, beta) per process.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + beta
    diag = 0.5 * (1.0 + beta * beta / (s * (s + 2.0)))
    j, sj = k[1:], s[1:]
    off = j * (j + beta) / (sj * np.sqrt(sj * sj - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    weights = vectors[0] ** 2
    weights /= weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate_semi_infinite(
    f: Integrand,
    lo: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate a vectorized integrand over [lo, inf), lo > 0.

    The substitution x = lo / u maps the range onto u in (0, 1], where
    integrate_finite integrates f(lo / u) * lo / u**2; its Kronrod nodes
    never touch u = 0. A tail too slow to be integrable keeps the mapped
    integrand from settling near u = 0 and raises ConvergenceError.
    """
    lo = float(lo)
    if not (math.isfinite(lo) and lo > 0.0):
        raise ParameterError(f"lower limit must be positive and finite, got {lo!r}")
    return integrate_finite(lambda u: f(lo / u) * (lo / (u * u)), (0.0, 1.0), spec)


# The most terms one series entry may take, and the cells of one step's
# (term, entry) arrays on the array path.
_SERIES_TERMS = 100_000
_STEP_CELLS = 8192


def _gauss_series(a: float, b: float, c: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the Gauss hypergeometric series at each entry of z, 0 <= z < 1.

    The array path of the series arithmetic: term n + 1 is term n times
    (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z, and each entry's sum is
    its running total at its first term below 1e-16 of that total, or
    after _SERIES_TERMS terms. A step lays a chunk of terms out as
    (term, entry) from one row of ratios; cumprod and cumsum down the term
    axis accumulate sequentially, so every product and sum is the one
    _gauss_series_scalar forms, and no entry depends on the others or on
    the chunk size. Chunks hold up to 128 terms, fewer while many entries
    are open, so that a step's arrays stay within _STEP_CELLS cells.

    Returns (sums, tails): tails is 0.0 where the series settled and the
    magnitude of its last term where it did not.
    """
    sums = np.empty_like(z)
    tails = np.zeros_like(z)
    todo = np.arange(z.size)
    term = total = 1.0
    start = 0
    while todo.size and start < _SERIES_TERMS:
        chunk = min(max(16, min(128, _STEP_CELLS // todo.size)), _SERIES_TERMS - start)
        n = np.arange(start, start + chunk, dtype=float)
        terms = np.multiply.outer((a + n) * (b + n) / ((c + n) * (n + 1.0)), z)
        terms[0] *= term
        terms = terms.cumprod(axis=0)
        totals = terms.copy()
        totals[0] += total
        totals.cumsum(axis=0, out=totals)
        settled = np.abs(terms) <= 1e-16 * np.abs(totals)
        first = settled.argmax(axis=0)              # 0 where none settled
        entry = np.arange(todo.size)
        sums[todo] = totals[first, entry]           # open entries are overwritten later
        going = ~settled[first, entry]
        todo, z, term, total = todo[going], z[going], terms[-1, going], totals[-1, going]
        start += chunk
    if todo.size:
        sums[todo] = total
        tails[todo] = np.abs(term)
    return sums, tails


def _gauss_series_scalar(a: float, b: float, c: float, z: float) -> tuple[float, float]:
    """The scalar path of _gauss_series: the same terms and sums, in the
    same order, as Python floats; returns (sum, tail) as it does."""
    term = total = 1.0
    for k in range(_SERIES_TERMS):
        n = float(k)
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total, 0.0
    return total, abs(term)


def _unsettled(z: float, a: float, b: float, c: float, x: float,
               scale: float, total: float, tail: float) -> ConvergenceError:
    """The error for a series at caller argument z that has not settled.

    The series is the one in a with argument x, and scale (the Pfaff
    prefactor, or 1) turns its partial sum total into the caller's
    estimate. Past N = _SERIES_TERMS terms, far more than any parameter,
    the ratio of successive terms moves monotonically towards x, so no
    later ratio exceeds r = x * max(1, (a + N) * (b + N) / ((c + N) *
    (N + 1))), and the terms left sum to at most tail * r / (1 - r).
    """
    n = float(_SERIES_TERMS)
    r = x * max(1.0, (a + n) * (b + n) / ((c + n) * (n + 1.0)))
    rest = tail * r / (1.0 - r) if r < 1.0 else math.inf
    return ConvergenceError(f"hypergeometric series did not settle for z = {z!r}",
                            best_estimate=scale * total, error_bound=scale * rest)


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for c > b > 0 and z < 1.

    z is a scalar (a float is returned) or an array (an array of its shape
    is returned). Nonnegative z is summed directly; negative z is first
    mapped into [0, 1) with the Pfaff transformation
    2F1(a, b; c; z) = (1 - z)**(-b) * 2F1(c - a, b; c; z / (z - 1)),
    which keeps the series argument small even for z near -2. One series
    arithmetic has two paths: a scalar runs it as a Python-float loop
    (_gauss_series_scalar), an array in at most two batched calls, one per
    transformation (_gauss_series). They form the same products and sums
    in the same order, and the prefactor is numpy's power in both, so each
    entry of an array equals the scalar call bit for bit.

    Raises ConvergenceError, naming the caller's z and carrying the partial
    value and a bound on the terms left (both times the prefactor), where
    the series has not settled after _SERIES_TERMS terms (from z of order
    -1e4 on, depending on the parameters); for an array, at the first such
    entry.
    """
    zs = np.asarray(z, dtype=float)
    if zs.ndim == 0:
        x = float(zs)
        finite, beyond = math.isfinite(x), x >= 1.0
    else:
        finite, beyond = np.isfinite(zs).all(), (zs >= 1.0).any()
    if not (finite and all(math.isfinite(v) for v in (a, b, c))):
        raise ParameterError(f"arguments must be finite, got {(a, b, c, z)!r}")
    if not c > b > 0.0:
        raise DomainError(f"parameters must satisfy c > b > 0, got b = {b!r}, c = {c!r}")
    if beyond:
        raise DomainError(f"argument must satisfy z < 1, got z = {z!r}")
    if zs.ndim == 0:
        scale = 1.0
        if x < 0.0:
            a, x, scale = c - a, x / (x - 1.0), float(np.power(np.array([1.0 - x]), -b)[0])
        total, tail = _gauss_series_scalar(a, b, c, x)
        if tail:
            raise _unsettled(float(zs), a, b, c, x, scale, total, tail)
        return scale * total

    flat = zs.reshape(-1)
    pfaff = flat < 0.0
    x = np.where(pfaff, flat / (flat - 1.0), flat)
    scale = np.where(pfaff, np.power(1.0 - flat, -b), 1.0)
    sums, tails = np.empty((2, flat.size))
    for group, a_group in ((pfaff, c - a), (~pfaff, a)):
        if group.any():
            sums[group], tails[group] = _gauss_series(a_group, b, c, x[group])
    if tails.any():
        i = int(np.flatnonzero(tails)[0])
        raise _unsettled(float(flat[i]), c - a if pfaff[i] else a, b, c, float(x[i]),
                         float(scale[i]), float(sums[i]), float(tails[i]))
    return (scale * sums).reshape(zs.shape)


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma function Gamma(a, x) for real order a.

    Positive orders defer to the regularized library routine. Orders a <= 0
    (where the library routine is unavailable) are reached by repeatedly
    applying Gamma(a, x) = (Gamma(a + 1, x) - x**a * exp(-x)) / a downward
    from a base order in (0, 1], or from Gamma(0, x) = E1(x) when a is a
    nonpositive integer. Requires x > 0 when a <= 0. Imports scipy.special
    on its first call.
    """
    from scipy import special as _sp

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
