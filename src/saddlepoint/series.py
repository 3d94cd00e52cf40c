"""Truncated power series and the exact combinatorial kernels.

The combinatorial kernels (Bernoulli numbers, Stirling set numbers,
partial ordinary Bell polynomials, generalized binomials), the
arithmetic of :class:`TruncatedSeries` and the elementary functions
:func:`exp`, :func:`log`, :func:`sin` and :func:`cos` of a series are
exact on ``int`` and ``Fraction`` data, so rational tables come out
exact; any other data is double-precision ``complex``.  A formula
``f(z, m)`` over these cmath names gives its Taylor series about z0 as
``f(TruncatedSeries.identity(z0, order), series)`` (Taylor-mode
evaluation: Griewank & Walther, *Evaluating Derivatives*, SIAM 2008,
ch. 13).  One power kernel, :func:`power_rows`, forms the truncated
powers seed(x) P(x)^j.  On rational data they are plain ints over one
denominator per power, divided after each multiply by the gcd of the
denominator and the row, so the integers stay near the size of the
true coefficients (denominators of at most 93 digits for the Stirling
arguments to j = 80, where the common scale D^80 has 2775); on any
other data the same multiply runs in complex floating point.  The Bell
table is this kernel seeded with 1, and the Bell sums of ``expansion``
seed it with the amplitude series.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

from ._record import Record

Scalar = Union[int, float, complex, Fraction]

__all__ = [
    "TruncatedSeries",
    "bernoulli",
    "stirling2",
    "binomial",
    "bell_hat",
    "bell_hat_table",
    "power_rows",
    "exp",
    "log",
    "sin",
    "cos",
]


# ----------------------------------------------------------------------
# Exact combinatorics
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m with the convention B_1 = -1/2.

    These are the coefficients of z/(e^z - 1) = sum B_m z^m / m!.
    Computed from the defining recurrence sum_k C(m+1, k) B_k = 0.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m == 0:
        return Fraction(1)
    if m % 2 == 1 and m > 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * bernoulli(k)
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def stirling2(m: int, j: int) -> int:
    """Number of partitions of an m-element set into j nonempty blocks."""
    if m < 0 or j < 0:
        raise ValueError("Stirling indices must be >= 0")
    if m == 0 and j == 0:
        return 1
    if m == 0 or j == 0 or j > m:
        return 0
    return j * stirling2(m - 1, j) + stirling2(m - 1, j - 1)


def binomial(tau: Scalar, j: int) -> Scalar:
    """Generalized binomial coefficient C(tau, j) for integer j >= 0.

    Exact when ``tau`` is an int or Fraction T/M: the falling factorial
    prod_{i<j} (T - i M) is formed in ints and divided once, as one
    ``Fraction`` over M^j j!.  Otherwise evaluates in complex floating
    point as the running quotient C(tau, i + 1) = C(tau, i) (tau - i) /
    (i + 1): no j! is formed, so it stays finite past j = 170.
    """
    if j < 0:
        raise ValueError("lower binomial index must be >= 0")
    if isinstance(tau, (int, Fraction)):
        t, m = tau.numerator, tau.denominator
        falling = 1
        for i in range(j):
            falling *= t - i * m
        return Fraction(falling, m ** j * _factorial(j))
    out = 1.0 + 0.0j
    for i in range(j):
        out = out * (tau - i) / (i + 1)
    return out


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def bell_hat(i: int, j: int, p: Sequence[Scalar]) -> Scalar:
    """Partial ordinary Bell polynomial B^_{i,j}(p_1, p_2, ...).

    Defined as the coefficient of x^i in (p_1 x + p_2 x^2 + ...)^j,
    with ``p[i - 1]`` the value attached to index i.
    Exact when the arguments are ints or Fractions.  By convention
    B^_{0,0} = 1, and B^_{i,j} = 0 when j > i or when i > 0, j = 0.
    """
    if i < 0 or j < 0:
        raise ValueError("Bell indices must be >= 0")
    if i == 0:
        return 1 if j == 0 else 0
    if j == 0 or j > i:
        return 0
    if len(p) < i:
        raise ValueError(f"need Bell arguments p_1..p_{i}, got {len(p)}")
    return bell_hat_table(i, p)[i][j]


def bell_hat_table(i_max: int, p: Sequence[Scalar]) -> list:
    """Table t with t[i][j] = B^_{i,j} for 0 <= j <= i <= i_max.

    Column j is row j of :func:`power_rows` seeded with 1, the power P^j
    of the argument series at O(i_max^2) per power, for exact and float
    data alike: one ``Fraction`` per entry from the gcd-reduced integer
    row over its denominator for exact inputs, the complex row itself
    for any other.
    """
    if i_max > 0 and len(p) < i_max:
        raise ValueError(f"need Bell arguments p_1..p_{i_max}, got {len(p)}")
    rows = list(power_rows([1], [p[k] for k in range(i_max)], i_max + 1))
    exact = type(rows[0][0][0]) is int
    zero = Fraction(0) if exact else 0j
    return [[(Fraction(row[i], den) if exact else row[i]) if row[i] else zero
             for row, den in rows] for i in range(i_max + 1)]


def power_rows(seed: Sequence[Scalar], args: Sequence[Scalar],
               n: int) -> Iterator[tuple]:
    """Truncated powers of the series P(x) = sum_k args[k-1] x^k.

    Yields row j, for 0 <= j < n, as (row, den) with
    row[i] / den = [x^i] seed(x) P(x)^j for 0 <= i < n; reads
    ``seed[:n]`` and ``args[:n - 1]``, skipping zero arguments.  When
    all of them are ints or Fractions the rows are exact: the seed is
    scaled by the lcm of its denominators and P by the lcm D of its own,
    so each power is a product of plain ints, and after each multiply
    the row and its denominator are divided by their gcd.  Otherwise
    the rows are complex and den is 1.  Costs O(n^2) multiply-adds per
    power.  A generator, so a caller that folds each row in as it comes
    holds only one.
    """
    if n < 1:
        return
    if len(args) < n - 1:
        raise ValueError(f"need power arguments p_1..p_{n - 1}, got {len(args)}")
    args = args[:n - 1]
    seed = seed[:n]
    exact = all(isinstance(c, (int, Fraction)) for c in (*seed, *args))
    if exact:
        scale = math.lcm(*(a.denominator for a in args))
        den = math.lcm(*(c.denominator for c in seed))
        row = [c.numerator * (den // c.denominator) for c in seed]
        args = [a.numerator * (scale // a.denominator) for a in args]
        zero = 0
    else:
        den, row, zero = 1, [complex(c) for c in seed], 0j
    row += [zero] * (n - len(row))
    terms = [(b, a) for b, a in enumerate(args, 1) if a != 0]
    upto = [0] * n          # number of terms with b <= k
    for b, _ in terms:
        upto[b] = 1
    for k in range(1, n):
        upto[k] += upto[k - 1]
    yield row, den
    for j in range(1, n):
        row = _times_terms(row, terms, upto, j - 1, zero)
        if exact:
            den *= scale
            g = math.gcd(den, *row)
            if g > 1:
                den //= g
                row = [x // g for x in row]
        yield row, den


def _times_terms(power: list, terms: list, upto: list, lo: int, zero) -> list:
    """power(x) times sum_b pb x^b over (b, pb) in ``terms``, truncated to
    len(power) entries; power vanishes below index ``lo`` and upto[k]
    counts the terms with b <= k."""
    top = len(power) - 1
    new = [zero] * (top + 1)
    for a in range(lo, top):
        pa = power[a]
        if pa == 0:
            continue
        for b, pb in terms[:upto[top - a]]:
            new[a + b] = new[a + b] + pa * pb
    return new


# ----------------------------------------------------------------------
# Truncated power series
# ----------------------------------------------------------------------

_BASE_TOL = 1e-12


class TruncatedSeries(Record):
    """Finite Taylor expansion sum_s coeffs[s] (z - base)^s.

    ``order`` is the highest retained index; ``coeffs`` has exactly
    order + 1 entries and arithmetic never reads beyond it.  A binary
    operation between series at different base points is an error, and
    the result of a binary operation is truncated to the smaller order.

    The coefficients are all ``Fraction`` when every given one is an
    ``int`` or ``Fraction``, and all ``complex`` otherwise.  +, -, *, /,
    ``recip``, ``differentiate``, ``integral``, ``truncate``,
    ``shift_down`` and an ``int`` or ``Fraction`` scalar operand keep
    exact series exact, as does ``identity`` about an exact base; any
    other scalar, ``constant``, ``cpow`` and evaluation work in floating
    point.  Division first cancels the m orders of a zero that both
    series share exactly at the base, and so returns m orders fewer.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base: complex, coeffs: Sequence[Scalar]):
        if len(coeffs) == 0:
            raise ValueError("a truncated series needs at least one coefficient")
        # built from a list, not a generator: tuple(<generator>) resizes
        # its result, so it never reuses a tuple from the free list yet
        # fills the list when freed, which holds memory until a full gc
        if all(isinstance(c, (int, Fraction)) for c in coeffs):
            coeffs = tuple([c if type(c) is Fraction else Fraction(c)
                            for c in coeffs])
        else:
            coeffs = tuple([complex(c) for c in coeffs])
        object.__setattr__(self, "base", complex(base))
        object.__setattr__(self, "coeffs", coeffs)

    # -- basic structure ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: Scalar, base: complex = 0.0, order: int = 0) -> "TruncatedSeries":
        return TruncatedSeries(base, (complex(value),) + (0.0 + 0.0j,) * order)

    @staticmethod
    def identity(base: complex = 0.0, order: int = 1) -> "TruncatedSeries":
        """The series of z itself about ``base``: base + (z - base)."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return TruncatedSeries(base, [_scalar(base), 1] + [0] * (order - 1))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series by truncation")
        return TruncatedSeries(self.base, self.coeffs[: order + 1])

    def _check_base(self, other: "TruncatedSeries") -> None:
        if abs(self.base - other.base) > _BASE_TOL:
            raise ValueError(
                f"series base points differ: {self.base} vs {other.base}")

    def __call__(self, z: complex) -> complex:
        """Horner evaluation of the truncated polynomial at z."""
        h = complex(z) - self.base
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * h + c
        return acc

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            c = list(self.coeffs)
            c[0] += _scalar(other)
            return TruncatedSeries(self.base, c)
        self._check_base(other)
        n = min(self.order, other.order)
        return TruncatedSeries(
            self.base, [self.coeffs[s] + other.coeffs[s] for s in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.base, [-c for c in self.coeffs])

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -_scalar(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            w = _scalar(other)
            return TruncatedSeries(self.base, [c * w for c in self.coeffs])
        self._check_base(other)
        n = min(self.order, other.order)
        f, g, den = self.coeffs[:n + 1], other.coeffs[:n + 1], 0
        if type(f[0]) is Fraction and type(g[0]) is Fraction:
            # exact: each factor as ints over the lcm of its denominators
            df = math.lcm(*(c.denominator for c in f))
            dg = math.lcm(*(c.denominator for c in g))
            f = [c.numerator * (df // c.denominator) for c in f]
            g = [c.numerator * (dg // c.denominator) for c in g]
            den = df * dg
        out = [0] * (n + 1)
        for a in range(n + 1):
            ca = f[a]
            if ca == 0:
                continue
            for b in range(n + 1 - a):
                out[a + b] += ca * g[b]
        return TruncatedSeries(self.base, [Fraction(x, den) for x in out] if den else out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self * (Fraction(1) / _scalar(other))
        self._check_base(other)
        m, n = 0, min(self.order, other.order)
        while m < n and self.coeffs[m] == 0 and other.coeffs[m] == 0:
            m += 1
        b = other.coeffs[m:n + 1]
        if b[0] == 0:
            raise ValueError("cannot divide by a series with zero constant term")
        terms = [(i, c) for i, c in enumerate(b[1:], 1) if c != 0]
        out = []        # q_k = (a_k - sum_i b_i q_{k-i}) / b_0, nonzero b_i only
        for k, acc in enumerate(self.coeffs[m:n + 1]):
            for i, bi in terms:
                if i > k:
                    break
                acc -= bi * out[k - i]
            out.append(acc / b[0])
        return TruncatedSeries(self.base, out)

    # -- structural operations --------------------------------------------

    def shift_down(self, m: int) -> "TruncatedSeries":
        """Divide by (z - base)^m; the first m coefficients must vanish."""
        if m == 0:
            return self
        if m < 0 or m > self.order:
            raise ValueError("invalid shift")
        if any(c != 0 for c in self.coeffs[:m]):
            raise ValueError(f"series does not vanish to order {m} at its base")
        return TruncatedSeries(self.base, self.coeffs[m:])

    def differentiate(self) -> "TruncatedSeries":
        if self.order == 0:
            zero = Fraction(0) if isinstance(self.coeffs[0], Fraction) else 0j
            return TruncatedSeries(self.base, (zero,))
        return TruncatedSeries(
            self.base,
            [(s + 1) * self.coeffs[s + 1] for s in range(self.order)])

    def integral(self, constant: Scalar) -> "TruncatedSeries":
        """Termwise antiderivative, one order higher, equal to
        ``constant`` at the base: the inverse of :meth:`differentiate`."""
        return TruncatedSeries(
            self.base,
            [constant] + [c / (s + 1) for s, c in enumerate(self.coeffs)])

    # -- analytic operations ----------------------------------------------

    def recip(self) -> "TruncatedSeries":
        """Series g with self * g = 1 up to the truncation order."""
        return TruncatedSeries(self.base, [1] + [0] * self.order) / self

    def cpow(self, tau: Scalar) -> "TruncatedSeries":
        """Principal complex power self**tau for constant term exactly 1,
        by the list kernel :func:`_miller_power`."""
        w = _miller_power(self.coeffs, tau, self.order)
        return TruncatedSeries(self.base, w)

    def __repr__(self) -> str:
        head = ", ".join(f"{complex(c):.6g}" for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"TruncatedSeries(base={self.base:.6g}, order={self.order}, [{head}{tail}])"


def _miller_power(f: Sequence[Scalar], tau: Scalar, n: int) -> list:
    """Coefficients w_0..w_n of f**tau, for f_0 exactly 1, as complex.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7):
    w_0 = 1 and k w_k = sum_{i=1..k} ((tau + 1) i - k) f_i w_{k-i},
    the coefficient form of f w' = tau f' w.  Reads f[:n + 1] only:
    ``expansion.alpha_direct`` runs it on one list for every order.

    With d the gcd of the indices i >= 1 of the nonzero f_i (d = 2 for
    the kepler and parabolic 1 - phi), the sum runs over i = d, 2d, ...
    only and every w_k with d not dividing k is 0j.  For finite data
    that is the dense recurrence bit for bit: each skipped term is a
    signed zero, added to an accumulator that starts at +0 and so never
    holds -0.
    """
    if f[0] != 1:
        raise ValueError("cpow requires constant term exactly 1")
    d = math.gcd(*[i for i in range(1, n + 1) if f[i] != 0]) or n + 1
    t1 = complex(tau) + 1.0
    terms = [(t1 * i, f[i]) for i in range(d, n + 1, d)]
    ws = [1.0 + 0.0j]       # w_0, w_d, w_2d, ...
    for k in range(d, n + 1, d):
        acc = 0.0 + 0.0j
        for (t1_i, f_i), w_ki in zip(terms, reversed(ws)):   # i = d, 2d, ..., k
            acc += (t1_i - k) * f_i * w_ki
        ws.append(acc / k)
    w = [0j] * (n + 1)
    w[::d] = ws
    return w


def _scalar(x) -> Scalar:
    return x if isinstance(x, (int, Fraction)) else complex(x)


# ----------------------------------------------------------------------
# exp, sin, cos and log of a series (Knuth, TAOCP vol. 2, section 4.7)
# ----------------------------------------------------------------------

def _flow(f: TruncatedSeries, exact: list, start: list, links: list,
          out: int) -> TruncatedSeries:
    """Series g_out of the g_j with g_j' = sign f' g_src, (src, sign) =
    links[j]: k g_jk = sign sum_i i f_i g_src,k-i over the nonzero f_i,
    so a linear f costs O(n).  An exact f with f_0 = 0 starts from
    exact[j] and sums ints G_jk = g_jk D^k k!, D clearing the
    denominators of the i f_i; any other f starts from start[j](f_0) in
    complex arithmetic."""
    terms = [(i, i * c) for i, c in enumerate(f.coeffs[1:], 1) if c != 0]
    ints = type(f.coeffs[0]) is Fraction and f.coeffs[0] == 0
    if ints:
        d = math.lcm(*(w.denominator for _, w in terms))
        terms = [(i, w.numerator * (d // w.denominator) * d ** (i - 1))
                 for i, w in terms]
    gs = [[x] for x in exact] if ints else [[fn(f.coeffs[0])] for fn in start]
    for k in range(1, f.order + 1):
        for g, (src, sign) in zip(gs, links):
            h, acc = gs[src], 0
            for i, w in terms:
                if i > k:
                    break
                acc += (w * math.perm(k - 1, i - 1) if ints else w) * h[k - i]
            acc = acc if ints else acc / k
            g.append(acc if sign > 0 else -acc)
    if ints:
        return TruncatedSeries(f.base, [Fraction(x, math.factorial(k) * d ** k)
                                        for k, x in enumerate(gs[out])])
    return TruncatedSeries(f.base, gs[out])


def exp(f: TruncatedSeries) -> TruncatedSeries:
    """e^f, from g' = f' g; exact for exact f with f_0 = 0."""
    return _flow(f, [1], [cmath.exp], [(0, 1)], 0)


def sin(f: TruncatedSeries) -> TruncatedSeries:
    """sin f, from s' = f' c, c' = -f' s; exact for exact f with f_0 = 0."""
    return _flow(f, [0, 1], [cmath.sin, cmath.cos], [(1, 1), (0, -1)], 0)


def cos(f: TruncatedSeries) -> TruncatedSeries:
    """cos f, from s' = f' c, c' = -f' s; exact for exact f with f_0 = 0."""
    return _flow(f, [0, 1], [cmath.sin, cmath.cos], [(1, 1), (0, -1)], 1)


def log(f: TruncatedSeries) -> TruncatedSeries:
    """Principal log f = log f_0 + the integral of f'/f; exact for exact
    f with f_0 = 1.  For f = 1 + z, f'/f = 1 - z + z^2 - ... exactly, so
    each 1/k is rounded once."""
    f0 = f.coeffs[0]
    if f0 == 0:
        raise ValueError("log of a series with zero constant term")
    start = 0 if type(f0) is Fraction and f0 == 1 else cmath.log(f0)
    return (f.differentiate() / f).integral(start)
