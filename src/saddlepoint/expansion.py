"""Expansion coefficients and assembly of saddle-point asymptotics.

For an integral of e^{N p(z)} (z - z0)^(a-1) q(z) along a contour
interacting with the saddle z0, the coefficient core is

    alpha_s = (1 / (mu s!)) p0^(-(s+a)/mu)
              d^s/dz^s [ q(z) (1 - phi(z))^(-(s+a)/mu) ]  at z = z0,

computed here by two independent routes: the partial-ordinary-Bell
polynomial sum :func:`bell_sums` over the Taylor data (``alpha_bell``;
on ``Fraction`` data it also gives the exact tables of ``classic``)
and per-order series powering by J.C.P. Miller's recurrence
(``alpha_direct``), which shares no arithmetic with ``bell_sums``.
All fractional powers of p0 and N are principal; the contour enters
only through the sector phases of :func:`term_factors`, which
:func:`assemble` applies, one rule for every variant: the coefficient
of N^(-e_s), e_s = (s+a)/mu, is

    Gamma(e_s) alpha_s (e^{2 pi i k_out e_s} - e^{2 pi i k_in e_s})

with Gamma from ``math.gamma`` on the real axis and from Lanczos'
approximation (g = 7, n = 9; SIAM J. Numer. Anal. B 1, 1964) with
reflection elsewhere, and (k_in, k_out) from the variant:

* ``Endpoint(k)``      - starts at z0 into valley k: no entry term;
* ``Through(k1, k2)``  - enters through valley k1, leaves through k2;
* ``EvenOpposite(k)``  - straight passage between opposite valleys,
  ``Through(k + mu/2, k)`` (mu even);
* ``CirclePath(k1, k2)`` - circles z0 from valley k1 to k2, winding
  (k2 - k1)/mu turns; an exponent e_s exactly equal to an integer
  m <= 0 hits a Gamma pole and takes the finite factor
  2 pi i (k2 - k1) (-1)^m / |m|! instead.

Phases at quarter turns are exactly 1, i, -1 or -i, so a term whose
phases cancel is an exact zero.

All values are immutable and all operations pure; the per-order loops
share no state and the module is safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._record import Record
from .saddle import SaddleNormalForm
from .series import TruncatedSeries, _miller_power, power_rows

__all__ = [
    "AlphaSequence",
    "Endpoint",
    "Through",
    "EvenOpposite",
    "CirclePath",
    "BranchSpec",
    "Term",
    "AsymptoticExpansion",
    "bell_sums",
    "alpha_bell",
    "alpha_direct",
    "assemble",
    "term_factors",
    "vanishing_shift",
    "VanishingShiftReport",
]

ExponentParam = Union[int, Fraction, float, complex]

#: floats this close to a non-positive integer exponent draw a warning
NEAR_POLE_TOL = 1e-8

_LANCZOS_G = 7
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _cgamma(z: complex) -> complex:
    """Gamma(z): ``math.gamma`` on the real axis, Lanczos elsewhere."""
    if z.imag == 0:
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _cgamma(1 - z))
    z -= 1
    x = _LANCZOS[0] + sum(c / (z + i) for i, c in enumerate(_LANCZOS[1:], 1))
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


class AlphaSequence(Record):
    """Coefficients alpha_0..alpha_{S-1} for exponent parameter a."""

    __slots__ = ("a", "alphas", "mu", "p0")

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, s: int) -> complex:
        return self.alphas[s]


class Endpoint(Record):
    __slots__ = ("k",)


class Through(Record):
    __slots__ = ("k1", "k2")


class EvenOpposite(Record):
    __slots__ = ("k",)


class CirclePath(Record):
    __slots__ = ("k1", "k2")

    @property
    def winding(self) -> int:
        return self.k2 - self.k1


BranchSpec = Union[Endpoint, Through, EvenOpposite, CirclePath]


class Term(Record):
    """One term coeff * N^(-exponent) of an asymptotic expansion."""

    __slots__ = ("s", "exponent", "coefficient")

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0


class AsymptoticExpansion(Record):
    """Prefactor exponent and term list of the expansion in N.

    Evaluation at N > 0 is e^{N p_at_z0} * sum coeff_s N^(-exponent_s)
    over the first ``terms`` entries.  Zero terms are kept so that the
    index s always matches the expansion order.
    """

    __slots__ = ("p_at_z0", "terms", "a")

    def __init__(self, p_at_z0: complex, terms: tuple, a: ExponentParam = 1):
        object.__setattr__(self, "p_at_z0", p_at_z0)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "a", a)

    @property
    def order(self) -> int:
        return len(self.terms)

    def evaluate(self, n: float, terms: Optional[int] = None) -> complex:
        acc = self.partial_sum(n, terms)
        return cmath.exp(n * self.p_at_z0) * acc

    def partial_sum(self, n: float, terms: Optional[int] = None) -> complex:
        """The bracketed sum without the e^{N p(z0)} prefactor."""
        if n <= 0:
            raise ValueError("expansion parameter N must be positive")
        if terms is None:
            terms = len(self.terms)
        if terms > len(self.terms):
            raise ValueError(
                f"requested {terms} terms, only {len(self.terms)} available")
        log_n = math.log(n)
        acc = 0.0 + 0.0j
        for term in self.terms[:terms]:
            if term.coefficient == 0:
                continue
            acc += term.coefficient * cmath.exp(-term.exponent * log_n)
        return acc


def _exponents(a: ExponentParam, mu: int, s_count: int) -> list:
    """The exponents e_s = (s + a)/mu for s < s_count, as complex.

    For an exact a = num/den each is the int quotient
    (s den + num)/(mu den), the correctly rounded value of the exact
    exponent (what ``complex`` of the ``Fraction`` gives).
    """
    if isinstance(a, (int, Fraction)):
        num, den = a.numerator, a.denominator
        return [complex((s * den + num) / (mu * den)) for s in range(s_count)]
    a = complex(a)
    return [(a + s) / mu for s in range(s_count)]


def _require_resolved(nf: SaddleNormalForm, q: TruncatedSeries, s_count: int) -> None:
    if q.order < s_count - 1:
        raise ValueError(
            f"amplitude series resolved to order {q.order}, "
            f"need {s_count - 1} for {s_count} coefficients")
    if nf.phi.order < s_count - 1:
        raise ValueError(
            f"phase series phi resolved to order {nf.phi.order}, "
            f"need {s_count - 1} for {s_count} coefficients")
    if abs(q.base - nf.z0) > 1e-12:
        raise ValueError("amplitude series must be expanded at the saddle point")


def _p0_powers(p0: complex, exponents: list) -> list:
    """Principal p0^(-e) for each exponent e."""
    log_p0 = cmath.log(p0)
    return [cmath.exp(-e * log_p0) for e in exponents]


def bell_sums(q: Sequence, ratios: Sequence, a: ExponentParam, mu: int,
              s_count: int) -> list:
    """The paper's coefficient sum, for s < s_count:

    c_s = sum_{i<=s} q_{s-i} sum_{j<=i} C(-(s+a)/mu, j) B^_{i,j}(ratios)

    with ``ratios[i - 1]`` the normalized phase coefficient p_i/p0.
    Exact ``Fraction`` arithmetic when a, q[:s_count] and
    ratios[:s_count - 1] are all ints or Fractions, complex floating
    point otherwise.

    Both kinds of data take c_s = sum_j C(tau_s, j) [x^s] q P^j, with
    tau_s = -(s+a)/mu and P(x) = sum_i ratios[i-1] x^i, folding in each
    row q P^j of :func:`series.power_rows` seeded with q as it comes:
    no Bell table is built.  The rows cost O(s_count^2) multiply-adds
    each; the fold after them is O(s_count^2) in all.  In floating point
    acc[s] += C(tau_s, j) row_j[s] over nonzero row_j[s], s >= j, with
    the running quotient C(tau_s, j) = C(tau_s, j-1) (tau_s - j + 1)/j of
    :func:`series.binomial`: no j! is formed, so a modest C(tau, j) stays
    finite for any j.  On exact rows, gcd-reduced ints over their own
    denominators, with tau_s = T/M, M = mu a.den and
    T = -(s a.den + a.num), an ascending Horner pass over j sums
    F_j row_j[s] M^(s-j) s!/j!, F_j = prod_{k<j} (T - k M), in ints over
    the lcm L_s of the denominators of rows 0..s, and c_s is one
    ``Fraction`` over L_s M^s s!: O(s) integer operations per
    coefficient.
    """
    if s_count < 1:
        return []
    if len(q) < s_count:
        raise ValueError(f"need amplitude coefficients q_0..q_{s_count - 1}, "
                         f"got {len(q)}")
    if all(isinstance(x, (int, Fraction))
           for x in (a, *q[:s_count], *ratios[:s_count - 1])):
        return _exact_bell_sums(q, ratios, Fraction(a), mu, s_count)
    taus = [-e_s for e_s in _exponents(a, mu, s_count)]
    binoms = [1.0 + 0.0j] * s_count     # C(tau_s, j) for the current j
    acc = [0j] * s_count
    rows = power_rows([complex(c) for c in q[:s_count]],
                      [complex(r) for r in ratios[:s_count - 1]], s_count)
    for j, (row, _) in enumerate(rows):     # complex even for exact q, ratios
        acc[j:] = [c + b * x if x else c
                   for c, b, x in zip(acc[j:], binoms[j:], row[j:])]
        binoms[j + 1:] = [b * (t - j) / (j + 1)
                          for b, t in zip(binoms[j + 1:], taus[j + 1:])]
    return acc


def _exact_bell_sums(q: Sequence, ratios: Sequence, a: Fraction, mu: int,
                     s_count: int) -> list:
    """:func:`bell_sums` on exact data: one ``Fraction`` per coefficient.

    Each row of q P^j enters the sums of every s >= j as it is made, so
    only one row is held: acc[s] is the ascending Horner sum over the lcm
    of the row denominators so far, and c_j is complete after row j.
    """
    m = mu * a.denominator
    t = [-(s * a.denominator + a.numerator) for s in range(s_count)]
    acc = [0] * s_count
    falling = [1] * s_count         # F_j for each s
    common = 1                      # lcm of the row denominators so far
    scale = 1                       # M^j j!
    out = []
    for j, (row, den) in enumerate(power_rows(q, ratios, s_count)):
        lcm = math.lcm(common, den)
        jm, k, common = j * m * (lcm // common), lcm // den, lcm
        for s in range(j, s_count):
            acc[s] = acc[s] * jm + falling[s] * (row[s] * k)
            falling[s] *= t[s] - j * m
        if j:
            scale *= m * j
        out.append(Fraction(acc[j], common * scale))
    return out


def alpha_bell(nf: SaddleNormalForm, q: TruncatedSeries,
               a: ExponentParam, s_count: int) -> AlphaSequence:
    """Coefficients alpha_s = (1/mu) p0^(-(s+a)/mu) c_s, with c_s the
    :func:`bell_sums` of q and the normalized phase coefficients
    p_i/p0 = -phi_i.  Needs q and phi resolved to order s_count - 1.
    """
    _require_resolved(nf, q, s_count)
    ratios = [-c for c in nf.phi.coeffs[1:s_count]]
    sums = bell_sums(q.coeffs, ratios, a, nf.mu, s_count)
    powers = _p0_powers(nf.p0, _exponents(a, nf.mu, s_count))
    out = tuple([power * c / nf.mu for power, c in zip(powers, sums)])
    return AlphaSequence(a=a, alphas=out, mu=nf.mu, p0=nf.p0)


def alpha_direct(nf: SaddleNormalForm, q: TruncatedSeries,
                 a: ExponentParam, s_count: int) -> AlphaSequence:
    """Coefficients via per-order series powering.

    For each s, w = (1 - phi)^(-(s+a)/mu) is formed to order s by
    Miller's recurrence, the kernel of :meth:`TruncatedSeries.cpow`
    run on the one coefficient list of 1 - phi, so no series object is
    built per order; then alpha_s = p0^(-(s+a)/mu) / mu *
    sum_{i<=s} q_{s-i} w_i.  When the nonzero phi_i sit at multiples of
    a stride d > 1 (d = 2 for the odd phases of kepler and parabolic),
    the recurrence runs over those indices only and the other w_i are
    exact zeros, the values the dense recurrence gives.  Shares no
    arithmetic with :func:`bell_sums`, so it cross-checks the Bell route.
    """
    _require_resolved(nf, q, s_count)
    base = nf.one_minus_phi().coeffs
    exponents = _exponents(a, nf.mu, s_count)
    out = []
    for s, (e_s, power) in enumerate(zip(exponents, _p0_powers(nf.p0, exponents))):
        w = _miller_power(base, -e_s, s)
        c_s = sum(q.coeffs[s - i] * w[i] for i in range(s + 1))
        out.append(power * c_s / nf.mu)
    return AlphaSequence(a=a, alphas=tuple(out), mu=nf.mu, p0=nf.p0)


def _degenerate_order(e_s: complex) -> Optional[int]:
    """m when the exponent e_s is exactly an integer m <= 0, else None."""
    if e_s.imag == 0 and e_s.real <= 0 and e_s.real.is_integer():
        return int(e_s.real)
    return None


def _warn_near_pole(e_s: complex, s: int) -> None:
    m = round(e_s.real)
    if m <= 0 and abs(e_s - m) < NEAR_POLE_TOL:
        warnings.warn(
            f"exponent (s+a)/mu = {e_s} at s = {s} is within {NEAR_POLE_TOL} "
            f"of the Gamma pole at {m}; supply a as an exact rational to use "
            f"the finite replacement rule", RuntimeWarning, stacklevel=3)


_QUARTER_TURNS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _phase(k: int, e_s: complex) -> complex:
    """e^{2 pi i k e_s}, exactly 1, i, -1 or -i on a quarter turn."""
    quarters = 4 * k * e_s
    if quarters.imag == 0 and quarters.real.is_integer():
        return _QUARTER_TURNS[int(quarters.real) % 4]
    return cmath.exp(2j * math.pi * k * e_s)


def term_factors(a: ExponentParam, mu: int, branch: BranchSpec,
                 s_count: int) -> list:
    """The factors of each term that do not depend on alpha_s.

    Entry s is (e_s, gamma, weight).  A term with sector phases is
    gamma alpha_s weight, gamma = Gamma(e_s) and weight the phase
    difference; a term whose phases cancel has gamma and weight None
    (an exact zero); a CirclePath term at a Gamma pole has gamma None
    and weight its finite replacement factor.  They depend on a, mu,
    the branch and S only, so a pipeline can call this before forming
    any coefficient: a Gamma(e_s) that overflows double precision
    raises ``OverflowError``, and a variant that does not fit the
    saddle or hits a Gamma pole raises ``ValueError``.
    """
    if isinstance(branch, EvenOpposite):
        if mu % 2 != 0:
            raise ValueError("opposite-sector variant requires even mu")
        branch = Through(branch.k + mu // 2, branch.k)
    if isinstance(branch, Endpoint):
        k_in, k_out = None, branch.k
    elif isinstance(branch, (Through, CirclePath)):
        k_in, k_out = branch.k1, branch.k2
    else:
        raise TypeError(f"unknown branch variant {branch!r}")
    exact = isinstance(a, (int, Fraction))
    factors = []
    for s, e_s in enumerate(_exponents(a, mu, s_count)):
        m = _degenerate_order(e_s)
        if m is None:
            if not exact:
                _warn_near_pole(e_s, s)
            phases = _phase(k_out, e_s)
            if k_in is not None:
                phases -= _phase(k_in, e_s)
            factors.append((e_s, None, None) if phases == 0
                           else (e_s, _cgamma(e_s), phases))
        elif isinstance(branch, CirclePath):
            factors.append((e_s, None, 2j * math.pi * branch.winding
                            * (-1.0) ** m / math.factorial(abs(m))))
        else:
            raise ValueError(
                f"exponent (s+a)/mu = {m} at s = {s} hits a Gamma "
                f"pole; only a circling path has a finite replacement")
    return factors


def assemble(alphas: AlphaSequence, nf: SaddleNormalForm,
             branch: BranchSpec) -> AsymptoticExpansion:
    """Attach Gamma factors and sector phases to an alpha sequence.

    Every variant takes the one rule Gamma(e_s) alpha_s (e^{2 pi i k_out
    e_s} - e^{2 pi i k_in e_s}), with no entry term for Endpoint and
    EvenOpposite(k) = Through(k + mu/2, k).  Quarter-turn phases are
    exact, so a term whose phases cancel is an exact zero.  An exponent
    exactly equal to an integer m <= 0 (a Fraction, or a float or
    complex value with zero imaginary part) takes the CirclePath
    replacement 2 pi i (k2 - k1) (-1)^m / |m|! alpha_s; under any other
    variant it is a hard error.
    """
    a = alphas.a
    factors = term_factors(a, nf.mu, branch, len(alphas.alphas))
    terms = []
    for s, ((e_s, gamma, weight), alpha) in enumerate(
            zip(factors, alphas.alphas)):
        if gamma is not None:
            coeff = gamma * alpha * weight
        elif weight is not None:    # the replacement at a Gamma pole
            coeff = weight * alpha
        else:                       # the sector phases cancel
            coeff = 0j
        terms.append(Term(s, e_s, complex(coeff)))
    return AsymptoticExpansion(p_at_z0=nf.p_at_z0, terms=tuple(terms), a=a)


class VanishingShiftReport(Record):
    """Outcome of factoring q = (z - z0)^m psi inside the coefficients."""

    __slots__ = ("psi", "max_abs_error", "leading_alphas_zero")

    @property
    def passed(self) -> bool:
        return self.leading_alphas_zero and self.max_abs_error < 1e-9


def vanishing_shift(nf: SaddleNormalForm, q: TruncatedSeries,
                    a: ExponentParam, m: int,
                    s_count: Optional[int] = None) -> VanishingShiftReport:
    """Factor out an exact zero of order m from q and check the shift law.

    With q = (z - z0)^m psi the coefficients obey alpha_s(q, a) = 0 for
    s < m and alpha_{s+m}(q, a) = alpha_s(psi, a + m).  The first m
    coefficients of q must vanish exactly; the identity is then checked
    numerically over ``s_count`` shifted orders.
    """
    if m < 0:
        raise ValueError("vanishing order must be >= 0")
    psi = q.shift_down(m)
    if m == 0:
        return VanishingShiftReport(psi=psi, max_abs_error=0.0,
                                    leading_alphas_zero=True)
    if s_count is None:
        s_count = min(psi.order + 1, nf.phi.order + 1 - m)
    if s_count < 1:
        raise ValueError("series too short to check the shift identity")
    full = alpha_direct(nf, q, a, s_count + m)
    a_shift = a + m if isinstance(a, (int, Fraction)) else complex(a) + m
    shifted = alpha_direct(nf, psi, a_shift, s_count)
    scale = max(max(abs(x) for x in shifted.alphas), 1e-300)
    lead_ok = all(abs(full.alphas[s]) <= 1e-12 * scale for s in range(m))
    worst = max(abs(full.alphas[s + m] - shifted.alphas[s])
                for s in range(s_count)) / scale
    return VanishingShiftReport(psi=psi, max_abs_error=worst,
                                leading_alphas_zero=lead_ok)
