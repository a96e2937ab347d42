"""Independent reference implementations used to cross-check the package.

Everything here is built on scipy quadrature, raw grid sums and plain
gather/scatter numpy, on purpose: none of it shares code with roadcorr's
own integrators, closed forms or gain pass, so an agreement between the two
routes actually means something.
"""
import numpy as np
from scipy.integrate import quad
from scipy.special import beta as _beta
from scipy.special import gammaln, hyp2f1, xlogy

from roadcorr import NetworkGeometry, TrafficModel, mean_interference


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
    64 minimum gaps, the reach of h resolved here), where the inner x
    integral is _far_pair. The outer integral over d runs on (0, 64 c]
    by scipy quad, with the first seven band edges k c as breakpoints:
    h jumps at c, and the k-th Erlang term has k - 2 continuous
    derivatives at k c, so past 7 c it is smooth enough for the adaptive
    rule (all 63 edges as breakpoints give the same residuals). The pooled
    variance adds the lost E[Q] of both slots to the lost var(S).
    """
    lam, c = traffic.intensity, traffic.min_gap
    r0, eta = geom.guard_radius, geom.pathloss_exponent
    w_lo, w_hi = window
    shift = geom.speed * t
    reach = 64.0 * c
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
