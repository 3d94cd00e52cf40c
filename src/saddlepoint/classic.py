"""Exact local data of the four classic oscillatory/Laplace integrals.

Each worked problem supplies its saddle normal form, amplitude series,
validation contour and exact rational coefficient table; the problem
registry in :mod:`saddlepoint.problemfile` assembles them into
``Problem`` values that run through the one expansion pipeline:

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
from fractions import Fraction
from typing import Optional, Sequence

from .expansion import bell_sums
from .quadrature import Arc, Contour, Segment
from .saddle import SaddleNormalForm
from .series import TruncatedSeries

__all__ = [
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


# ----------------------------------------------------------------------
# Factorial / Stirling-series problem
# ----------------------------------------------------------------------

def _gamma_bell_args(i_max: int) -> list:
    """Normalized phase ratios (-1)^i 2/(i+2) of -z + log z at z = 1."""
    return [Fraction(2 * (-1) ** i, i + 2) for i in range(1, i_max + 1)]


def gamma_stirling(m_max: int) -> list:
    """Exact Stirling correction rationals gamma_1..gamma_{m_max}.

    gamma_m = (2m)!/(m! 2^m) sum_j C(-m - 1/2, j) B^_{2m,j}(-2/3, 2/4, ...),
    the coefficient of N^-m relative to sqrt(2 pi N) (N/e)^N.
    """
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    sums = bell_sums([1] + [0] * (2 * m_max), _gamma_bell_args(2 * m_max),
                     1, 2, 2 * m_max + 1)
    return [Fraction(math.factorial(2 * m), math.factorial(m) * 2 ** m)
            * sums[2 * m] for m in range(1, m_max + 1)]


def gamma_normal_form(order: int) -> SaddleNormalForm:
    """Normal form of -z + log z at z0 = 1: mu = 2, p0 = 1/2."""
    phi = [0.0 + 0.0j] + [complex(-r) for r in _gamma_bell_args(order)]
    return SaddleNormalForm(z0=1.0, p_at_z0=-1.0, mu=2, p0=0.5,
                            omega0=0.0, phi=TruncatedSeries(1.0, phi))


def gamma_contour() -> Contour:
    # [0.05, 4] keeps the endpoint contributions below e^{-25} of the
    # saddle scale for every N >= 25, far under the series resolution
    return Contour.from_points([0.05, 4.0])


# ----------------------------------------------------------------------
# Oscillatory Kepler problem, mu = 3
# ----------------------------------------------------------------------

def _sine_bell_args(i_max: int) -> list:
    """Ratios p_i/p0 = 6 (-1)^{i/2}/(i+3)! of i(z - sin z) at 0 (0 for odd i)."""
    return [Fraction(6 * (-1) ** (i // 2), math.factorial(i + 3)) if i % 2 == 0
            else Fraction(0) for i in range(1, i_max + 1)]


def kepler_d_table(s_max: int) -> list:
    """Exact d(0)..d(s_max): d(s) = sum_j C(-(s+1)/3, j) B^_{s,j}(0, -3!/5!, ...).

    These carry the whole expansion
    (2/3) sum_s cos(pi (s+1)/6) Gamma((s+1)/3) d(s) (6/N)^{(s+1)/3};
    d(s) = 0 for odd s.
    """
    return bell_sums([1] + [0] * s_max, _sine_bell_args(s_max), 1, 3, s_max + 1)


def kepler_normal_form(order: int) -> SaddleNormalForm:
    """Normal form of i(z - sin z) at 0: mu = 3, p0 = -i/6."""
    phi = [0.0 + 0.0j] + [complex(-r) for r in _sine_bell_args(order)]
    return SaddleNormalForm(z0=0.0, p_at_z0=0.0, mu=3, p0=-1j / 6.0,
                            omega0=-math.pi / 2.0,
                            phi=TruncatedSeries(0.0, phi))


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


def center_q_coeffs(eps: float, s_max: int) -> list:
    """Taylor coefficients q_0..q_{s_max} at z0 = i log gamma of
    q(z) = (z - z0)/(1 - eps cos z).

    cos z0 = 1/eps and sin z0 = i sqrt(1 - eps^2)/eps, so with h = z - z0
    the denominator is 1 - cos h + i sqrt(1 - eps^2) sin h, and q is the
    series reciprocal of that denominator divided by h.
    """
    z0 = center_saddle(eps)     # validates the eccentricity range
    w = math.sqrt(1.0 - eps * eps)
    den_over_h = [(-1) ** (k // 2) * (1j * w if k % 2 else -1.0)
                  / math.factorial(k) for k in range(1, s_max + 2)]
    return list(TruncatedSeries(z0, den_over_h).recip().coeffs)


def center_normal_form(eps: float, order: int) -> SaddleNormalForm:
    """Normal form of i(z - eps sin z) at i log gamma: mu = 2.

    p0 = sqrt(1 - eps^2)/2 and the phase ratios are
    p_s/p0 = 2 i^s/(s+2)! times (1 for even s, -1/sqrt(1-eps^2) odd).
    """
    gam = center_gamma(eps)     # validates the eccentricity range
    w = math.sqrt(1.0 - eps * eps)
    z0 = center_saddle(eps)
    phi = [0.0 + 0.0j]
    for s in range(1, order + 1):
        ratio = 2.0 * (1j) ** s / math.factorial(s + 2)
        if s % 2 == 1:
            ratio = ratio * (-1.0 / w)
        phi.append(-ratio)
    return SaddleNormalForm(z0=z0, p_at_z0=complex(w - math.log(gam)),
                            mu=2, p0=complex(w / 2.0), omega0=0.0,
                            phi=TruncatedSeries(z0, phi))


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

def parabolic_q_table(s_max: int) -> list:
    """Exact Taylor coefficients q_0..q_{s_max} of z^2/(1 - cos z).

    The exact series reciprocal of (1 - cos z)/z^2 =
    sum_k (-1)^k z^{2k}/(2k+2)!; q_s = 0 for odd s.
    """
    den = [Fraction((-1) ** (s // 2), math.factorial(s + 2)) if s % 2 == 0 else 0
           for s in range(s_max + 1)]
    return list(TruncatedSeries(0.0, den).recip().coeffs)


def parabolic_d_table(s_max: int) -> list:
    """Exact d*(0)..d*(s_max):

    d*(s) = sum_i q_{s-i} sum_j C(-(s-1)/3, j) B^_{i,j}(0, -3!/5!, ...),
    zero for odd s.
    """
    return bell_sums(parabolic_q_table(s_max), _sine_bell_args(s_max), -1, 3,
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
