"""Exact local data of the four classic oscillatory/Laplace integrals.

Each worked problem supplies its saddle normal form, amplitude series,
validation contour and exact rational coefficient table; the problem
registry in :mod:`saddlepoint.problemfile` assembles them into
``Problem`` values that run through the one expansion pipeline.  Each
phase and amplitude is written once, as ``f(z, m=cmath)``: the oracle
integrates f itself, and :func:`taylor` gives its Taylor data (exact
when the saddle and the constants are rational):

* gamma      - int e^{N(-z + log z)} dz near z = 1, the factorial
  asymptotics; coefficients are the Stirling correction rationals
  1/12, 1/288, -139/51840, ...
* kepler     - int_{-pi}^{pi} e^{N i (z - sin z)} dz, saddle of order
  mu = 3 at 0, rational table d(s).
* center     - int_{-pi}^{pi} e^{N i (z - eps sin z)} / (1 - eps cos z) dz
  for eccentricity 0 < eps < 1: a simple pole rides on the saddle
  (a = 0) and the contour circles below it.
* parabolic  - the eps = 1 limit with the double pole at the saddle
  (a = -1), rational table d*(s).

Rational tables are :func:`saddlepoint.expansion.bell_sums` on exact
Taylor data; normal forms and amplitude series are double precision.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import series
from .expansion import bell_sums
from .quadrature import Arc, Contour, Segment
from .saddle import SaddleNormalForm, normalize
from .series import TruncatedSeries

__all__ = [
    "taylor",
    "normal_form",
    "gamma_phase",
    "sine_phase",
    "kepler_phase",
    "center_phase",
    "center_amplitude",
    "parabolic_amplitude",
    "agreement_digits",
    "gamma_stirling",
    "gamma_normal_form",
    "gamma_contour",
    "kepler_d_table",
    "kepler_normal_form",
    "kepler_contour",
    "center_gamma",
    "center_saddle",
    "center_q_coeffs",
    "center_normal_form",
    "center_d_values",
    "center_contour",
    "center_fs_polynomial",
    "parabolic_q_table",
    "parabolic_d_table",
    "parabolic_contour",
]


def agreement_digits(value: complex, reference: complex) -> int:
    """floor(-log10(relative difference)), capped at 16.

    0 when the reference is zero or the difference is not finite (a
    non-finite input or an overflow): an underflowed or overflowed
    comparison shows no agreement at all.
    """
    diff = complex(value) - complex(reference)
    reference = complex(reference)
    if reference == 0 or not cmath.isfinite(diff):
        return 0
    try:
        rel = abs(diff) / abs(reference)
    except OverflowError:       # a modulus past the float range: halve
        half_ref = abs(0.5 * reference)
        rel = abs(0.5 * diff) / half_ref if half_ref else math.inf
    if not rel < 1.0:
        return 0
    if rel < 1e-16:
        return 16
    return math.floor(-math.log10(rel))


def taylor(f: Callable, z0: complex, order: int) -> TruncatedSeries:
    """Taylor series of f(z, m) about z0 to ``order``: f(identity, series).

    Exact when z0 and the constants of f are rational.  f runs two
    orders higher, for a division that cancels a double zero at z0.
    """
    value = f(TruncatedSeries.identity(z0, order + 2), series)
    if not isinstance(value, TruncatedSeries):      # a constant
        return TruncatedSeries.constant(value, z0, order)
    return value.truncate(order)


def normal_form(phase: Callable, z0: complex, order: int) -> SaddleNormalForm:
    """``normalize`` of the :func:`taylor` series, phi to ``order``."""
    nf = normalize(taylor(phase, z0, order + 3))     # mu <= 3
    return SaddleNormalForm(nf.z0, nf.p_at_z0, nf.mu, nf.p0, nf.omega0,
                            nf.phi.truncate(order))


@lru_cache(maxsize=32)
def _ratios(phase: Callable, z0: complex, count: int) -> tuple:
    """The exact p_i/p0 = -phi_i, i = 1..count, of a phase definition at a
    rational z0, as ``bell_sums`` takes them; constants of the definition,
    so computed once per session."""
    return tuple([-c for c in normal_form(phase, z0, count).phi.coeffs[1:]])


# ----------------------------------------------------------------------
# Factorial / Stirling-series problem
# ----------------------------------------------------------------------

def gamma_phase(z, m=cmath):
    return -z + m.log(z)


def gamma_stirling(m_max: int) -> list:
    """Exact Stirling correction rationals gamma_1..gamma_{m_max}.

    gamma_m = (2m)!/(m! 2^m) sum_j C(-m - 1/2, j) B^_{2m,j}(-2/3, 2/4, ...),
    the coefficient of N^-m relative to sqrt(2 pi N) (N/e)^N.
    """
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    sums = bell_sums([1] + [0] * (2 * m_max), _ratios(gamma_phase, 1, 2 * m_max),
                     1, 2, 2 * m_max + 1)
    return [Fraction(math.factorial(2 * m), math.factorial(m) * 2 ** m)
            * sums[2 * m] for m in range(1, m_max + 1)]


def gamma_normal_form(order: int) -> SaddleNormalForm:
    """Normal form of -z + log z at z0 = 1: mu = 2, p0 = 1/2."""
    return normal_form(gamma_phase, 1.0, order)


def gamma_contour() -> Contour:
    # [0.05, 4] keeps the endpoint contributions below e^{-25} of the
    # saddle scale for every N >= 25, far under the series resolution
    return Contour.from_points([0.05, 4.0])


# ----------------------------------------------------------------------
# Oscillatory Kepler problem, mu = 3
# ----------------------------------------------------------------------

def sine_phase(z, m=cmath):
    """z - sin z: the Kepler phase over i, with its ratios p_i/p0 exact."""
    return z - m.sin(z)


def kepler_phase(z, m=cmath):
    return 1j * sine_phase(z, m)


def kepler_d_table(s_max: int) -> list:
    """Exact d(0)..d(s_max): d(s) = sum_j C(-(s+1)/3, j) B^_{s,j}(0, -3!/5!, ...).

    These carry the whole expansion
    (2/3) sum_s cos(pi (s+1)/6) Gamma((s+1)/3) d(s) (6/N)^{(s+1)/3};
    d(s) = 0 for odd s.
    """
    return bell_sums([1] + [0] * s_max, _ratios(sine_phase, 0, s_max), 1, 3,
                     s_max + 1)


def kepler_normal_form(order: int) -> SaddleNormalForm:
    """Normal form of i(z - sin z) at 0: mu = 3, p0 = -i/6."""
    return normal_form(kepler_phase, 0.0, order)


def kepler_contour() -> Contour:
    """From -pi up to the valley line, through 0, and back down to pi."""
    top = math.pi / math.sqrt(3.0)
    return Contour.from_points(
        [-math.pi, complex(-math.pi, top), 0.0, complex(math.pi, top), math.pi])


# ----------------------------------------------------------------------
# Equation of the center, simple pole at the saddle (a = 0)
# ----------------------------------------------------------------------

def center_gamma(eps: float) -> float:
    """gamma = (1 + sqrt(1 - eps^2)) / eps > 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eccentricity must lie in (0, 1)")
    return (1.0 + math.sqrt(1.0 - eps * eps)) / eps


def center_saddle(eps: float) -> complex:
    """The usable zero of 1 - eps cos z in the upper half plane: i log gamma."""
    return 1j * math.log(center_gamma(eps))


def center_phase(eps: float) -> Callable:
    return lambda z, m=cmath: 1j * (z - eps * m.sin(z))


def center_amplitude(eps: float) -> Callable:
    """q(z) = (z - z0)/(1 - eps cos z) about its zero z0 = i log gamma.

    cos z0 = 1/eps and sin z0 = i sqrt(1 - eps^2)/eps, so with h = z - z0
    q = h/(1 - cos h + i sqrt(1 - eps^2) sin h): the zero at h = 0 is
    exact, where 1 - eps cos z0 rounds to ~1e-16 and costs q a digit.
    """
    z0, iw = center_saddle(eps), 1j * math.sqrt(1.0 - eps * eps)

    def amplitude(z, m=cmath):
        h = z - z0
        return h / (1 - m.cos(h) + iw * m.sin(h))
    return amplitude


def center_q_coeffs(eps: float, s_max: int) -> list:
    """Taylor coefficients q_0..q_{s_max} of the center amplitude at z0."""
    return list(taylor(center_amplitude(eps), center_saddle(eps), s_max).coeffs)


def center_normal_form(eps: float, order: int) -> SaddleNormalForm:
    """Normal form of i(z - eps sin z) at i log gamma: mu = 2."""
    return normal_form(center_phase(eps), center_saddle(eps), order)


def center_d_values(eps: float, s_max: int) -> list:
    """d(s) = 2 p0^{s/2} alpha_s, the :func:`bell_sums` of q and the
    phase ratios at mu = 2, a = 0; for odd s these are the real numbers
    with d(s) (1 - eps^2)^{(s+1)/2} an apparent polynomial in eps^2."""
    phi = center_normal_form(eps, s_max + 1).phi
    return bell_sums(center_q_coeffs(eps, s_max + 1),
                     [-c for c in phi.coeffs[1:s_max + 1]], 0, 2, s_max + 1)


def center_contour(eps: float, dip_radius: float = 0.25) -> Contour:
    """Valley-line path dipping below the pole at i log gamma.

    The original path along [-pi, pi] deforms to height log gamma; the
    two vertical edges cancel exactly by 2 pi periodicity of the
    integrand and are omitted, which is essential numerically: they
    carry O(1) oscillations while the whole integral is exponentially
    small.  The half circle passes below z0 (winding +1/2).
    """
    z0 = center_saddle(eps)
    return Contour([
        Segment(-math.pi + z0, z0 - dip_radius),
        Arc(z0, dip_radius, math.pi, 2.0 * math.pi),
        Segment(z0 + dip_radius, math.pi + z0),
    ])


def center_fs_polynomial(s: int, sample_eps: Optional[Sequence[float]] = None):
    """Recover the polynomial f_s with d(s) = f_s(eps^2)/(1-eps^2)^{(s+1)/2}.

    The polynomial form is observed, not proven, so it is fitted by
    exact least squares over sample eccentricities (degree (s-1)/2 needs
    (s+1)/2 coefficients): the normal equations V^T V c = V^T y are
    solved by Gauss-Jordan elimination on the samples as Fractions.
    Returns the coefficients as floats with the fit residual; a
    residual above ~1e-10 means the form failed at this order.
    """
    if s < 1 or s % 2 == 0:
        raise ValueError("the polynomial structure applies to odd s >= 1")
    n = (s + 1) // 2
    if sample_eps is None:
        sample_eps = [0.15 + 0.07 * i for i in range(n + 3)]
    rows, ys = [], []
    for e in sample_eps:
        rows.append([Fraction(e * e) ** k for k in range(n)])
        d = center_d_values(e, s)[s]
        ys.append(Fraction(d.real * (1.0 - e * e) ** ((s + 1) / 2.0)))
    aug = [[sum(r[i] * r[j] for r in rows) for j in range(n)]
           + [sum(r[i] * y for r, y in zip(rows, ys))] for i in range(n)]
    for col in range(n):   # V^T V is positive definite: no pivoting
        if aug[col][col] == 0:
            raise ValueError(f"need at least {n} distinct sample eccentricities")
        for r in range(n):
            if r != col:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    coeffs = [aug[i][n] / aug[i][i] for i in range(n)]
    residual = max(abs(sum(c * v for c, v in zip(coeffs, r)) - y)
                   for r, y in zip(rows, ys))
    return [float(c) for c in coeffs], float(residual)


# ----------------------------------------------------------------------
# Parabolic limit eps = 1, double pole at the saddle (a = -1)
# ----------------------------------------------------------------------

def parabolic_amplitude(z, m=cmath):
    return z * z / (1 - m.cos(z))


def parabolic_q_table(s_max: int) -> list:
    """Exact Taylor coefficients q_0..q_{s_max} of z^2/(1 - cos z); the
    float series drifts, to 5e-13 relative by order 84."""
    return list(taylor(parabolic_amplitude, 0, s_max).coeffs)


def parabolic_d_table(s_max: int) -> list:
    """Exact d*(0)..d*(s_max):

    d*(s) = sum_i q_{s-i} sum_j C(-(s-1)/3, j) B^_{i,j}(0, -3!/5!, ...),
    zero for odd s.
    """
    return bell_sums(parabolic_q_table(s_max), _ratios(sine_phase, 0, s_max), -1, 3,
                     s_max + 1)


def parabolic_contour(radius: float = 0.3) -> Contour:
    """The valley path of the mu = 3 saddle, rounded above the double pole.

    Runs from -pi up to -pi + i pi/sqrt(3), down the incoming valley
    line to radius ``radius``, clockwise over the top of 0 to the
    outgoing valley line (winding -1/3 of a turn), and on to pi.  The
    residue at 0 vanishes, so any pole-avoiding path gives the same
    value; this one is fixed for determinism.
    """
    top = math.pi / math.sqrt(3.0)
    a_in = radius * cmath.exp(5j * math.pi / 6.0)
    a_out = radius * cmath.exp(1j * math.pi / 6.0)
    return Contour([
        Segment(-math.pi, complex(-math.pi, top)),
        Segment(complex(-math.pi, top), a_in),
        Arc(0.0, radius, 5.0 * math.pi / 6.0, math.pi / 6.0),
        Segment(a_out, complex(math.pi, top)),
        Segment(complex(math.pi, top), math.pi),
    ])
