"""Independent reference implementations used to cross-check the package.

Everything here is built on scipy quadrature, raw grid sums and plain
gather/scatter numpy, on purpose: none of it shares code with roadcorr's
own integrators, closed forms or gain pass, so an agreement between the two
routes actually means something. The exceptions are the frozen copies at the
end of an earlier hyp2f1 and pair density, kept as bit-for-bit references
for rewrites that must leave every output bit as it was.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as _beta
from scipy.special import gammaln, hyp2f1, xlogy

from roadcorr import (ConvergenceError, DomainError, NetworkGeometry, ParameterError,
                      TrafficModel, mean_interference)


def quad_tail(f, lo: float, points=None) -> float:
    """Integral of f over (lo, inf) via the substitution x = lo / s.

    The transformed integrand lives on (0, 1], which lets scipy place
    breakpoints (kinks of f, given as x locations) and control relative
    error tightly even though the range is infinite.
    """
    def transformed(s):
        x = lo / s
        return f(x) * lo / (s * s)

    pts = None
    if points:
        inside = [p for p in points if p > lo]
        pts = sorted(lo / np.asarray(inside)) if inside else None
    value, _ = quad(transformed, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                    limit=400, points=pts)
    return value


def pair_kernel_defining(s: float, eta: float) -> float:
    """Gain autocorrelation: the integral of g(x) * g(x + s) over the line.

    g(x) = |x|**-eta outside the guard zone |x| <= 1, zero inside (lengths
    in guard radii). The product is nonzero on at most three stretches:
    x > 1, x < -1 - |s| (mirrored onto x > 1 + |s|), and, when |s| > 2,
    1 - |s| < x < -1, where the guard zone sits between the two positions.
    """
    s = abs(s)

    def product(x):
        return abs(x) ** -eta * abs(x + s) ** -eta

    total = quad_tail(product, 1.0) + quad_tail(lambda x: product(-x), 1.0 + s)
    if s > 2.0:
        total += quad(product, 1.0 - s, -1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


def same_vehicle_defining(t: float, traffic: TrafficModel,
                          geom: NetworkGeometry) -> float:
    """Both-slot contribution of one vehicle: 2 lam int g(r) g(r + t u) dr."""
    eta, u = geom.pathloss_exponent, geom.speed
    shift = t * u
    value = quad_tail(lambda r: r ** -eta * (r + shift) ** -eta, geom.guard_radius)
    return 2.0 * traffic.intensity * value


def distant_pairs_defining(t: float, traffic: TrafficModel,
                           geom: NetworkGeometry) -> float:
    """Distant-pair term from its defining double integral.

    Pairs farther apart than two minimum gaps, weighted by the squared
    intensity: the full-plane product integral is the squared mean, and the
    excluded strip |x - y| < 2c maps to gain arguments that stay beyond the
    guard radius for lags in the closed-form window, so the inner integral
    has an elementary antiderivative. Both road halves fold onto one strip
    because the pair integrand is symmetric under swapping the two points.
    """
    lam, c = traffic.intensity, traffic.min_gap
    r0, eta, u = geom.guard_radius, geom.pathloss_exponent, geom.speed
    shift = t * u

    def strip(x):
        lo = x + shift - 2.0 * c
        hi = x + shift + 2.0 * c
        return x ** -eta * (lo ** (1.0 - eta) - hi ** (1.0 - eta)) / (eta - 1.0)

    excluded = quad_tail(strip, r0)
    return mean_interference(traffic, geom) ** 2 - 2.0 * lam ** 2 * excluded


def _gain_antiderivative_up(lo: float, r0: float, eta: float) -> float:
    """Integral of |z|**-eta 1{|z| > r0} over (lo, inf)."""
    if lo >= r0:
        return lo ** (1.0 - eta) / (eta - 1.0)
    total = r0 ** (1.0 - eta) / (eta - 1.0)
    if lo < -r0:
        total += (r0 ** (1.0 - eta) - (-lo) ** (1.0 - eta)) / (eta - 1.0)
    return total


def _gain_antiderivative_down(hi: float, r0: float, eta: float) -> float:
    """Integral of |z|**-eta 1{|z| > r0} over (-inf, hi)."""
    return _gain_antiderivative_up(-hi, r0, eta)


def distant_half_sums(t: float, traffic: TrafficModel,
                      geom: NetworkGeometry) -> tuple[float, float]:
    """Distant-pair double integrals split by which road half holds x.

    Returns (right, left): the x > r0 half pairs x with partners beyond
    2c on either side evaluated at the shifted instant, and the x < -r0
    half is mirrored onto positive x. The inner gain integrals keep the
    guard-zone cut explicit; the outer integration passes the cut
    locations to the quadrature as breakpoints. The two halves are equal
    by a change of integration order, which is exactly what the caller
    asserts.
    """
    lam, c = traffic.intensity, traffic.min_gap
    r0, eta, u = geom.guard_radius, geom.pathloss_exponent, geom.speed
    shift = t * u

    def right(x):
        return x ** -eta * (
            _gain_antiderivative_up(x + 2.0 * c + shift, r0, eta)
            + _gain_antiderivative_down(x - 2.0 * c + shift, r0, eta))

    def left(x):
        return x ** -eta * (
            _gain_antiderivative_up(-x + 2.0 * c + shift, r0, eta)
            + _gain_antiderivative_down(-x - 2.0 * c + shift, r0, eta))

    kinks = [shift + 2.0 * c - r0, shift + 2.0 * c + r0,
             shift - 2.0 * c - r0, shift - 2.0 * c + r0]
    return (lam ** 2 * quad_tail(right, r0, points=kinks),
            lam ** 2 * quad_tail(left, r0, points=kinks))


def close_band_defining(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                        side: str) -> float:
    """One neighbor-band pair integral from its definition, nested scipy.

    side 'ahead' weights partners one band in front of the reference
    vehicle, 'behind' one band in back, both against the exponential gap
    density restricted to separations in (c, 2c).
    """
    lam, c, rate = traffic.intensity, traffic.min_gap, traffic.gap_rate
    r0, eta, u = geom.guard_radius, geom.pathloss_exponent, geom.speed
    shift = t * u
    sign = 1.0 if side == "ahead" else -1.0

    def inner(x):
        def f(s):
            return np.exp(-rate * s) * np.abs(x + sign * (c + s) + shift) ** -eta

        value, _ = quad(f, 0.0, c, epsabs=0.0, epsrel=1e-12, limit=200)
        return value

    return lam * rate * quad_tail(lambda x: x ** -eta * inner(x), r0)


def close_pairs_grid_sum(t: float, traffic: TrafficModel,
                         geom: NetworkGeometry) -> float:
    """Brute-force midpoint grid sum of the close-pair double integral.

    A 10^4 x 10^3 midpoint grid on the truncated outer range plus a
    transformed grid for the tail, refined once with a Richardson step to
    cancel the leading quadratic discretization error.
    """
    lam, c, rate = traffic.intensity, traffic.min_gap, traffic.gap_rate
    r0, eta, u = geom.guard_radius, geom.pathloss_exponent, geom.speed
    shift = t * u
    x_split = 20.0 * r0

    def level(nx: int, ny: int) -> float:
        edges_v = np.linspace(0.0, c, ny + 1)
        v = 0.5 * (edges_v[1:] + edges_v[:-1])[None, :]
        hv = c / ny

        def band_sum(x):
            x = x[:, None]
            gains = (np.abs(x + c + v + shift) ** -eta
                     + np.where(np.abs(x - c - v + shift) > r0,
                                np.abs(x - c - v + shift) ** -eta, 0.0))
            return ((x ** -eta) * gains * np.exp(-rate * v)).sum(axis=1) * hv

        edges_x = np.linspace(r0, x_split, nx + 1)
        xm = 0.5 * (edges_x[1:] + edges_x[:-1])
        finite = band_sum(xm).sum() * (x_split - r0) / nx

        edges_s = np.linspace(0.0, 1.0, nx // 4 + 1)
        sm = 0.5 * (edges_s[1:] + edges_s[:-1])
        hs = 1.0 / (nx // 4)
        tail = (band_sum(x_split / sm) * x_split / sm ** 2).sum() * hs
        return 2.0 * lam * rate * (finite + tail)

    coarse = level(10_000, 1_000)
    fine = level(20_000, 2_000)
    return (4.0 * fine - coarse) / 3.0


def euler_hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric via its Euler integral, valid for c > b > 0."""
    def f(s):
        return s ** (b - 1.0) * (1.0 - s) ** (c - b - 1.0) * (1.0 - z * s) ** -a

    value, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=300)
    return value / _beta(b, c - b)


def hypergeometric_family(eta: float) -> list[tuple[float, float, float]]:
    """The four (a, b, c) parameter triples the closed forms rely on."""
    return [
        (2.0 * eta - 1.0, eta, 2.0 * eta),
        (2.0 * eta - 2.0, eta, 2.0 * eta - 1.0),
        (2.0 * eta, eta + 1.0, 2.0 * eta + 1.0),
        (eta, 2.0 * eta - 1.0, 2.0 * eta),
    ]


def masked_gains(r, geom: NetworkGeometry) -> np.ndarray:
    """The gain as a gather/scatter over the outside-guard entries:
    zeros, then exp(-eta * log|r|) placed where |r| > guard_radius.

    The same arithmetic as model.pathloss, numpy's log, product and exp,
    on the gathered entries only; Python's ** and math.pow go through
    libm's pow, which differs from it by a few ulp.
    """
    dist = np.abs(r)
    gains = np.zeros_like(dist)
    outside = dist > geom.guard_radius
    np.place(gains, outside, np.exp(np.log(dist[outside]) * -geom.pathloss_exponent))
    return gains


def pair_deviation_defining(d: float, traffic: TrafficModel) -> float:
    """rho2(d) - intensity**2 at a separation d > 0 from the renewal density.

    rho2 is the intensity times the sum over k of the density of k gaps,
    c + Exp(rate) each: an Erlang(k, rate) density at d - k c, formed in
    the log domain with scipy.special.
    """
    lam, c, rate = traffic.intensity, traffic.min_gap, traffic.gap_rate
    k = np.arange(1.0, np.floor(d / c) + 1.0) if d > c else np.zeros(0)
    rem = d - k * c
    log_terms = k * np.log(rate) + xlogy(k - 1.0, rem) - rate * rem - gammaln(k)
    return lam * float(np.exp(log_terms).sum()) - lam * lam


def _far_pair(lo: float, shift: float, eta: float) -> float:
    """Integral of x**-eta (x + shift)**-eta over x > lo, with lo and
    lo + shift positive. As an incomplete beta function it is
    hi**(1 - 2 eta) / (2 eta - 1) * 2F1(2 eta - 1, eta; 2 eta; |shift| / hi)
    with hi = max(lo, lo + shift), so the argument stays in [0, 1)."""
    hi = max(lo, lo + shift)
    return hi ** (1.0 - 2.0 * eta) / (2.0 * eta - 1.0) * hyp2f1(
        2.0 * eta - 1.0, eta, 2.0 * eta, abs(shift) / hi)


def lost_moments_defining(t: float, traffic: TrafficModel, geom: NetworkGeometry,
                          window: tuple[float, float]) -> tuple[float, float]:
    """Pooled variance and covariance that sampling only the slot-0
    positions in window loses at lag t, from their defining integrals.

    A moment between the gains at slot offsets a and b, g(x + a) g(y + b),
    loses the single-vehicle integral over x outside the window and the
    pair integral of h(y - x) = rho2 - intensity**2 over every (x, y) not
    both inside it. Over the separation d = y - x the pairs lost are
    x > w_hi - max(d, 0) and x < w_lo + max(-d, 0); every lost position
    lies beyond the guard zone at both slots (the window must clear it by
    the deviation reach, past which |h| is below 1e-10 of intensity**2
    and is left out), where the inner x integral is _far_pair. The outer
    integral over d runs on (0, reach] by scipy quad, with the first seven
    band edges k c as breakpoints: h jumps at c, and the k-th Erlang term
    has k - 2 continuous derivatives at k c, so past 7 c it is smooth
    enough for the adaptive rule. The reach is the one number taken from
    the package (TrafficModel.deviation_reach); h is pair_deviation_defining,
    summed over every band, so it is resolved past 64 minimum gaps too.
    The pooled variance adds the lost E[Q] of both slots to the lost var(S).
    """
    lam, c = traffic.intensity, traffic.min_gap
    r0, eta = geom.guard_radius, geom.pathloss_exponent
    w_lo, w_hi = window
    shift = geom.speed * t
    reach = traffic.deviation_reach * c
    if not (w_hi - reach > r0 and -w_lo - shift - reach > r0):
        raise ValueError("window must clear the guard zone by the deviation reach")

    def lost(a, b):
        def kernel(d):
            return (_far_pair(w_hi - max(d, 0.0) + a, d + b - a, eta)
                    + _far_pair(-w_lo - max(-d, 0.0) - a, a - b - d, eta))

        single = lam * kernel(0.0)
        if c == 0.0:
            return single
        pairs = quad(lambda d: pair_deviation_defining(d, traffic) * (kernel(d) + kernel(-d)),
                     0.0, reach, points=c * np.arange(1.0, 8.0), limit=400,
                     epsabs=0.0, epsrel=1e-10)[0]
        return single + pairs

    lost_q = 0.5 * lam * (_far_pair(w_hi, 0.0, eta) + _far_pair(-w_lo, 0.0, eta)
                          + _far_pair(w_hi + shift, 0.0, eta) + _far_pair(-w_lo - shift, 0.0, eta))
    return lost_q + 0.5 * (lost(0.0, 0.0) + lost(shift, shift)), lost(0.0, shift)


# Frozen copies of the one-row-per-entry series loop and the per-band
# pair density loop, as the package had them before both were batched.
# Tests compare the package's outputs with these by their bytes.

def frozen_gauss_series(a: np.ndarray, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Sum the Gauss hypergeometric series at each z, |z| < 1, with its own a.

    Terms and partial sums are formed in order (cumprod and cumsum
    accumulate sequentially), a chunk of up to 128 terms per step, fewer
    for many arguments so that a step's arrays stay small. Each entry stops
    at its first term below 1e-16 of its sum, so it does not depend on the
    other entries or on the chunk size.
    """
    out = np.empty_like(z)
    todo = np.arange(z.size)
    term, total = np.ones((2, z.size, 1))
    chunk = max(16, min(128, 8192 // max(z.size, 1)))
    for start in range(0, 100_000, chunk):
        n = np.arange(start, start + chunk, dtype=float)
        terms = (a[todo, None] + n) * (b + n) / ((c + n) * (n + 1.0)) * z[todo, None]
        terms = np.cumprod(np.concatenate([term, terms], axis=1), axis=1)[:, 1:]
        totals = np.cumsum(np.concatenate([total, terms], axis=1), axis=1)[:, 1:]
        settled = np.abs(terms) <= 1e-16 * np.abs(totals)
        done = settled.any(axis=1)
        out[todo[done]] = totals[done, settled[done].argmax(axis=1)]
        if done.all():
            return out
        todo, term, total = todo[~done], terms[~done, -1:], totals[~done, -1:]
    raise ConvergenceError(f"hypergeometric series did not settle for z = {float(z[todo[0]])!r}",
                           best_estimate=float(total[0, 0]), error_bound=float(abs(term[0, 0])))


def frozen_hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for c > b > 0 and z < 1.

    z is a scalar (a float is returned) or an array (an array of its shape
    is returned); both take the one series path, so each entry equals the
    scalar call. Nonnegative z is summed directly; negative z is first
    mapped into [0, 1) with the Pfaff transformation
    2F1(a, b; c; z) = (1 - z)**(-b) * 2F1(c - a, b; c; z / (z - 1)),
    which keeps the series argument small even for z near -2.
    """
    zs = np.asarray(z, dtype=float)
    if not (all(math.isfinite(v) for v in (a, b, c)) and np.all(np.isfinite(zs))):
        raise ParameterError(f"arguments must be finite, got {(a, b, c, z)!r}")
    if not c > b > 0.0:
        raise DomainError(f"parameters must satisfy c > b > 0, got b = {b!r}, c = {c!r}")
    if np.any(zs >= 1.0):
        raise DomainError(f"argument must satisfy z < 1, got z = {z!r}")
    flat = zs.reshape(-1)
    pfaff = flat < 0.0
    series = frozen_gauss_series(np.where(pfaff, c - a, a), b, c,
                                 np.where(pfaff, flat / (flat - 1.0), flat))
    values = np.where(pfaff, np.power(1.0 - flat, -b) * series, series)
    return float(values[0]) if zs.ndim == 0 else values.reshape(zs.shape)


_ASYMPTOTE_CUTOFF_GAPS = 64.0


def frozen_pair_correlation_array(d: np.ndarray, traffic: TrafficModel) -> np.ndarray:
    """Vectorized core of pair_correlation; d must be nonnegative."""
    d = np.asarray(d, dtype=float)
    lam = traffic.intensity
    c = traffic.min_gap
    out = np.full(d.shape, lam * lam)
    if c == 0.0:
        return out
    out[d < c] = 0.0
    mid = (d >= c) & (d <= _ASYMPTOTE_CUTOFF_GAPS * c)
    if not np.any(mid):
        return out
    dm = d[mid]
    rate = traffic.gap_rate
    k_max = int(math.floor(float(np.max(dm)) / c))
    total = rate * np.exp(-rate * (dm - c))
    for j in range(2, k_max + 1):
        rem = dm - j * c
        sel = rem > 0.0
        if not np.any(sel):
            continue
        log_term = (j * math.log(rate) + (j - 1.0) * np.log(rem[sel])
                    - rate * rem[sel] - math.lgamma(j))
        total[sel] += np.exp(log_term)
    out[mid] = lam * total
    return out
