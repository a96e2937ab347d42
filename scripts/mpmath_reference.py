"""Exact-route covariances at 25 digits, independent of roadcorr's numerics.

Evaluates cov(t) = lam * K(u t) + integral of h(d) * K(d + u t) over the
separation d, where K(s) is the autocorrelation of the gain |x|**-eta
outside the guard radius r0 and h(d) = rho2(d) - lam**2 is the deviation
of the stream's pair density from its squared intensity. K comes from
mpmath's 2F1 plus, past |s| = 2 r0, an mpmath quadrature of the crossing
piece; rho2 is the sum of shifted Erlang renewal densities. The integral
runs over both signs of d, with every band edge k * c and every kink of K
as a breakpoint, and is cut at the same number of minimum gaps as the
exact-quadrature route (TrafficModel.deviation_reach), so the two differ
only by the error of the numerics. Each point takes 15 to 20 s on one core.

The kernel mode prints the gain tail, the integral of x**-eta (x + s)**-eta
over x > 1, as 1 / (2 eta - 1) * 2F1(2 eta - 1, eta; 2 eta; -sigma) at 30
digits, for eta in KERNEL_ETAS and sigma in KERNEL_SIGMAS plus every cap of
roadcorr's Gauss-Jacobi ladder (analytic._TAIL_CAPS), one line per eta.

Usage:
  python scripts/mpmath_reference.py                 # the pinned points
  python scripts/mpmath_reference.py ETA LAM T [C]   # one point
  python scripts/mpmath_reference.py kernel          # the gain-tail pins

The pinned points use c 4, r0 150, eta 3, u 10; their values are frozen in
tests/test_analytic.py as MPMATH_COVARIANCE, and the gain-tail pins as
GAIN_TAIL. The kernel mode takes about a second.
"""

import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from roadcorr.analytic import _TAIL_CAPS  # noqa: E402
from roadcorr.model import TrafficModel  # noqa: E402

mp.mp.dps = 25
R0, U = 150, 10
PINNED = ((3, 0.05, 5), (3, 0.05, 29.2), (3, 0.1, 5), (3, 0.2, 5))
KERNEL_ETAS = (2.05, 2.5, 3.0, 4.0, 6.0)
KERNEL_SIGMAS = (0.0, 1e-9, 0.5, 2.0, 2.7, 16.0, 34.0)


def kernel(s, eta, r0):
    """Gain autocorrelation in metres: the integral of g(x) g(x + s) over x."""
    s = abs(s)
    same = 2 / (2 * eta - 1) * mp.hyp2f1(2 * eta - 1, eta, 2 * eta, -s / r0)
    if s > 2 * r0:
        same += mp.quad(lambda y: y ** -eta * (s / r0 - y) ** -eta,
                        [1, s / (2 * r0), s / r0 - 1])
    return r0 ** (1 - 2 * eta) * same


def pair_density(d, lam, c):
    """Second-order product density of the shifted-exponential renewal stream."""
    rate = lam / (1 - lam * c)
    d = abs(d)
    total = mp.mpf(0)
    j = 1
    while j * c < d:
        rem = d - j * c
        total += rate ** j * rem ** (j - 1) * mp.exp(-rate * rem) / mp.factorial(j - 1)
        j += 1
    return lam * total


def covariance(eta, lam, t, c=4.0):
    """Covariance at lag t for the stream and geometry roadcorr builds from
    the same float parameters."""
    eta, lam, t, c = (mp.mpf(float(x)) for x in (eta, lam, t, c))
    reach = TrafficModel(float(lam), float(c)).deviation_reach
    shift = U * t
    edge = reach * c
    points = {k * c for k in range(-reach, reach + 1)}
    points |= {p for p in (-shift, -shift - 2 * R0, -shift + 2 * R0) if -edge < p < edge}
    deviation = mp.quad(
        lambda d: (pair_density(d, lam, c) - lam ** 2) * kernel(d + shift, eta, R0),
        sorted(points))
    return lam * kernel(shift, eta, R0) + deviation


def kernel_pins():
    """The gain tail over x > 1 at every pinned (eta, sigma), at 30 digits;
    each float is taken exactly as roadcorr receives it."""
    sigmas = sorted(set(KERNEL_SIGMAS) | set(_TAIL_CAPS))
    print("sigmas", *(repr(x) for x in sigmas))
    with mp.workdps(40):
        for eta in KERNEL_ETAS:
            e = mp.mpf(eta)
            tails = (mp.hyp2f1(2 * e - 1, e, 2 * e, -mp.mpf(x)) / (2 * e - 1) for x in sigmas)
            print(repr(eta), *(mp.nstr(v, 30) for v in tails))


def main(argv):
    if argv == ["kernel"]:
        kernel_pins()
        return
    cases = [tuple(argv)] if argv else PINNED
    for case in cases:
        print(*case, mp.nstr(covariance(*case), 17))


if __name__ == "__main__":
    main(sys.argv[1:])
