"""Asymptotics of the leading Sylvester waves of restricted partitions.

The sum of the first hundred waves W_k(N, lambda N) grows like

    Re[ w0^{-N} / N^2 * (a_0(lambda) + a_1(lambda)/N + ...) ]

where w0 is the unique solution of Li2(w) - 2 pi i log w = 0 and the
saddle point z0 = 1 + log(1 - w0) / (2 pi i) of the phase

    p(z) = (Li2(e^{2 pi i z}) - Li2(1)) / (2 pi i z)

satisfies e^{p(z0)} = 1 / w0.  The coefficients are

    a_t(lambda) = -2i sum_{m=0}^{t} c_{2m}(f_lambda u_{t-m})

with c_{2m} = 2 Gamma(m + 1/2) alpha_{2m} the opposite-valley term 2m
(mu = 2, a = 1) of the amplitude f_lambda(z) u_j(z) built from

    f_lambda(z) = (z / (2 sin(pi (z-1))))^{1/2} e^{-pi i z (2 lambda + 1/2)},
    g_l(z) = -B_{2l}/(2l)! (pi z)^{2l-1} cot^{(2l-2)}(pi z),
    u_j(z) = sum over m_1 + 3 m_2 + 5 m_3 + ... = j of
             g_1^{m_1}/m_1! g_2^{m_2}/m_2! ...,   u_0 = 1.

Only the lambda-dependent factor f_lambda changes between wave
families; the phase and u_j series are cached per session and reused.
The caches are immutable after first construction, so evaluation is
safe concurrently.  Exact wave values are not computed here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from ._record import Record
from .expansion import EvenOpposite, alpha_bell, assemble
from .saddle import SaddleNormalForm, normalize
from .series import TruncatedSeries, bernoulli, exp

__all__ = [
    "WaveConstants",
    "WaveExpansion",
    "dilog",
    "solve_constants",
    "p_wave_series",
    "f_lambda_series",
    "u_series",
    "wave_coefficients",
    "wave_main_term",
]

Rat = Union[int, Fraction, float]

_PI2_OVER_6 = math.pi * math.pi / 6.0


def dilog(z: complex) -> complex:
    """Principal dilogarithm Li2(z) = sum z^n / n^2, cut along [1, oo).

    Points on the cut (real z >= 1) are rejected: the two one-sided
    values differ and the caller must perturb to pick a side.  The
    argument is reduced with the inversion and reflection functional
    equations until the Bernoulli series applies; accuracy is about
    1e-13 relative for |z| <= 4.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise ValueError("dilogarithm evaluated on its branch cut [1, oo)")
    if abs(z) > 1.0:
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2
        lg = cmath.log(-z)
        return -_PI2_OVER_6 - 0.5 * lg * lg - dilog(1.0 / z)
    if z.real > 0.5:
        # Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z)
        return _PI2_OVER_6 - cmath.log(z) * cmath.log(1.0 - z) - _dilog_small(1.0 - z)
    return _dilog_small(z)


def _dilog_small(z: complex) -> complex:
    """Bernoulli series in u = -log(1-z); valid |z| <= 1, Re z <= 1/2."""
    if z == 0:
        return 0.0 + 0.0j
    u = -cmath.log(1.0 - z)
    term = u                     # u^{k+1} / (k+1)!
    acc = 0.0 + 0.0j
    for k in range(0, 80):
        b = bernoulli(k)
        if b != 0:
            piece = float(b) * term
            acc += piece
            if k > 4 and abs(piece) < 1e-18 * max(abs(acc), 1e-30):
                break
        term = term * u / (k + 2)
    return acc


class WaveConstants(Record):
    """Saddle data of the wave phase function.

    ``residual`` is |Li2(w0) - 2 pi i log w0| at the computed root;
    z0_wave = 1 + log(1 - w0) / (2 pi i), so e^{2 pi i z0_wave} = 1 - w0.
    """

    __slots__ = ("w0", "z0_wave", "p0_wave", "residual")


@lru_cache(maxsize=None)
def _root_w0() -> tuple:
    """Newton root of Li2(w) - 2 pi i log(w) from the standard seed."""
    w = 0.92 - 0.18j
    for _ in range(60):
        f = dilog(w) - 2j * math.pi * cmath.log(w)
        if abs(f) < 1e-14:
            break
        # d/dw [Li2(w) - 2 pi i log w] = -(log(1-w) + 2 pi i) / w
        df = -(cmath.log(1.0 - w) + 2j * math.pi) / w
        w = w - f / df
    residual = abs(dilog(w) - 2j * math.pi * cmath.log(w))
    if residual > 1e-12:
        raise RuntimeError(f"Newton search for w0 stalled (residual {residual:.3g})")
    z0 = 1.0 + cmath.log(1.0 - w) / (2j * math.pi)
    return w, z0, residual


def solve_constants() -> WaveConstants:
    w0, z0, residual = _root_w0()
    nf = _phase_normal_form(6)
    return WaveConstants(w0=w0, z0_wave=z0, p0_wave=nf.p0, residual=residual)


@lru_cache(maxsize=None)
def p_wave_series(order: int) -> TruncatedSeries:
    """Taylor series at z0 of p(z) = (Li2(e^{2 pi i z}) - Li2(1)) / (2 pi i z).

    With g = e^{2 pi i z}, g(z0) = 1 - w0, the series of log(1 - g) and
    Li2(g) are the termwise integrals from z0 of -2 pi i g / (1 - g)
    and -2 pi i log(1 - g), starting at log(w0) and Li2(1 - w0).  The
    constant term is -log(w0), hence e^{p(z0)} = 1/w0, and the linear
    term vanishes: z0 is a saddle point.
    """
    if order > 24:
        raise ValueError("wave phase series supported up to order 24")
    w0, z0, _ = _root_w0()
    c = 2j * math.pi
    g = _exp_series(c, order)
    log_1mg = (g * (1.0 - g).recip() * -c).integral(cmath.log(w0))
    li2 = (log_1mg * -c).integral(dilog(1.0 - w0)).truncate(order)
    return (li2 - _PI2_OVER_6) * (TruncatedSeries.identity(z0, order) * c).recip()


@lru_cache(maxsize=None)
def _phase_normal_form(order: int) -> SaddleNormalForm:
    return normalize(p_wave_series(order))


def _exp_series(c: complex, order: int) -> TruncatedSeries:
    """Taylor series of e^{c z} about z0."""
    return exp(c * TruncatedSeries.identity(_root_w0()[1], order))


@lru_cache(maxsize=None)
def _cot_series(order: int) -> TruncatedSeries:
    """Series of cot(pi z) = i + 2i / (e^{2 pi i z} - 1) about z0."""
    return (_exp_series(2j * math.pi, order) - 1.0).recip() * 2j + 1j


def _cot_derivative_series(m: int, order: int) -> TruncatedSeries:
    """Series about z0 of cot^{(m)} evaluated at pi z.

    Differentiating the cot(pi z) series in z brings down one factor
    of pi per order, so the plain m-th derivative of cot is the series
    derivative divided by pi^m.
    """
    ser = _cot_series(order + m)
    for _ in range(m):
        ser = ser.differentiate()
    return ser * (math.pi ** (-m))


@lru_cache(maxsize=None)
def _g_series(ell: int, order: int) -> TruncatedSeries:
    """g_l(z) = -B_{2l}/(2l)! (pi z)^{2l-1} cot^{(2l-2)}(pi z) about z0."""
    if ell < 1:
        raise ValueError("g index must be >= 1")
    _, z0, _ = _root_w0()
    cot_part = _cot_derivative_series(2 * ell - 2, order)
    lin = TruncatedSeries.identity(z0, order) * math.pi
    poly = TruncatedSeries.constant(1.0, z0, order)
    for _ in range(2 * ell - 1):
        poly = poly * lin
    scale = -float(bernoulli(2 * ell)) / math.factorial(2 * ell)
    return cot_part * poly * scale


@lru_cache(maxsize=None)
def u_series(j: int, order: int = 12) -> TruncatedSeries:
    """Series of u_j about z0; u_0 = 1.

    u_j is the coefficient of x^j in U = exp(sum_l g_l x^{2l-1}), so
    U' = G' U gives the recurrence

        u_j = (1/j) sum_{2l-1 <= j} (2l-1) g_l u_{j-2l+1},

    each term a product of cached series.
    """
    if j < 0:
        raise ValueError("u index must be >= 0")
    if j > 8:
        raise ValueError("u series supported up to j = 8")
    _, z0, _ = _root_w0()
    if j == 0:
        return TruncatedSeries.constant(1.0, z0, order)
    total = TruncatedSeries.constant(0.0, z0, order)
    for ell in range(1, (j + 1) // 2 + 1):
        weight = 2 * ell - 1
        total = total + _g_series(ell, order) * u_series(j - weight, order) * weight
    return total * (1.0 / j)


@lru_cache(maxsize=None)
def f_lambda_series(lam: Rat, order: int = 12) -> TruncatedSeries:
    """Series of f_lambda about z0, on the branch with

        f_lambda(z0) = -e^{pi i/4} z0^{1/2} w0^{-1/2} e^{-2 pi i lambda z0}.

    Since 2 sin(pi (z - 1)) = i e^{-pi i z} (e^{2 pi i z} - 1), f_lambda
    is a square root of -i z / (e^{2 pi i z} - 1) times e^{-2 pi i lambda z}.
    The root is the principal fractional power of that series scaled to
    constant term 1; the overall sign is then fixed against the closed
    form above (numerically the principal root already lands on it).
    """
    w0, z0, _ = _root_w0()
    lam_c = float(Fraction(lam)) if isinstance(lam, (int, Fraction)) else float(lam)
    ratio = (TruncatedSeries.identity(z0, order)
             * (_exp_series(2j * math.pi, order) - 1.0).recip() * -1j)
    c_head = ratio.coeffs[0]
    unit = TruncatedSeries(z0, [1.0] + [c / c_head for c in ratio.coeffs[1:]])
    f = (unit.cpow(0.5) * cmath.sqrt(c_head)
         * _exp_series(-2j * math.pi * lam_c, order))

    target = (-cmath.exp(0.25j * math.pi) * cmath.sqrt(z0) / cmath.sqrt(w0)
              * cmath.exp(-2j * math.pi * lam_c * z0))
    if abs(f.coeffs[0] - target) > abs(f.coeffs[0] + target):
        f = f * (-1.0)
    return f


class WaveExpansion(Record):
    """Coefficients a_0..a_{t_max} of one wave family.

    Evaluation at integer-compatible N is
    Re[w0^{-N} N^{-2} sum_t coeffs[t] N^{-t}].
    """

    __slots__ = ("lam", "coeffs", "w0", "z0_wave")

    def main_term(self, n: int, terms: Optional[int] = None) -> float:
        if terms is None:
            terms = len(self.coeffs)
        if terms > len(self.coeffs):
            raise ValueError(
                f"requested {terms} coefficients, have {len(self.coeffs)}")
        _check_integral(self.lam, n)
        acc = 0.0 + 0.0j
        for t in range(terms):
            acc += self.coeffs[t] * float(n) ** (-t - 2)
        growth = cmath.exp(-n * cmath.log(self.w0))
        return (growth * acc).real


def _check_integral(lam: Rat, n: int) -> None:
    if n < 1:
        raise ValueError("wave argument N must be >= 1")
    product = Fraction(lam) * n
    if product.denominator != 1:
        raise ValueError(f"lambda * N = {product} is not an integer")


def wave_coefficients(lam: Rat, t_max: int = 3) -> WaveExpansion:
    """Coefficients a_t(lambda) for t = 0..t_max.

    a_t = -2i sum_{m <= t} c_{2m}(f_lambda u_{t-m}), with c_{2m} the
    term 2m of ``assemble(alpha_bell(nf, f_lambda u_j, 1, S), nf,
    EvenOpposite(0))`` on the wave phase normal form (mu = 2, a = 1).
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > 6:
        raise ValueError("wave coefficients supported up to t_max = 6")
    w0, z0, _ = _root_w0()
    order = 2 * t_max + 2
    nf = _phase_normal_form(order + 2)
    terms_by_j = []
    for j in range(t_max + 1):
        q = f_lambda_series(lam, order) * u_series(j, order)
        s_count = 2 * (t_max - j) + 1
        terms_by_j.append(assemble(alpha_bell(nf, q, 1, s_count), nf,
                                   EvenOpposite(0)).terms)
    coeffs = []
    for t in range(t_max + 1):
        acc = 0.0 + 0.0j
        for m in range(t + 1):
            acc += terms_by_j[t - m][2 * m].coefficient
        coeffs.append(complex(-2j * acc))
    return WaveExpansion(lam=lam, coeffs=tuple(coeffs), w0=w0, z0_wave=z0)


def wave_main_term(lam: Rat, n: int, terms: int = 1) -> float:
    """Re[w0^{-N} N^{-2} sum_{t < terms} a_t(lambda) N^{-t}]."""
    if terms < 1:
        raise ValueError("need at least one term")
    expansion = wave_coefficients(lam, t_max=terms - 1)
    return expansion.main_term(n, terms)
