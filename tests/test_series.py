"""Series algebra and exact combinatorial kernels."""

import cmath
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from saddlepoint import classic, expansion, series
from saddlepoint.saddle import normalize
from saddlepoint.series import (TruncatedSeries, bell_hat, bell_hat_table,
                                bernoulli, binomial, power_rows, stirling2)


def random_series(rng, base=0.0, order=8, constant=None):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return TruncatedSeries(base, coeffs)


def max_coeff_diff(f, g):
    return max(abs(a - b) for a, b in zip(f.coeffs, g.coeffs))


def reference_bell_table(i_max, p):
    """The Bell table by convolution on the argument type itself: every
    multiply-add in ``Fraction`` (or ``complex``) arithmetic."""
    zero = Fraction(0) if all(
        isinstance(a, (int, Fraction)) for a in p[:i_max]) else 0.0 + 0.0j
    base = [zero] + [p[k] for k in range(i_max)]
    table = [[zero] * (i_max + 1) for _ in range(i_max + 1)]
    table[0][0] = zero + 1
    power = [zero] * (i_max + 1)
    power[0] = zero + 1
    for j in range(1, i_max + 1):
        new = [zero] * (i_max + 1)
        for a in range(j - 1, i_max):
            pa = power[a]
            if pa == 0:
                continue
            for b in range(1, i_max + 1 - a):
                new[a + b] = new[a + b] + pa * base[b]
        power = new
        for i in range(j, i_max + 1):
            table[i][j] = power[i]
    return table


def reference_bell_sums(q, ratios, a, mu, s_count):
    """The defining sum c_s = sum_i q_{s-i} sum_j C(-(s+a)/mu, j) B^_{i,j}
    in ``Fraction`` arithmetic over :func:`reference_bell_table`."""
    if s_count == 0:
        return []
    table = reference_bell_table(s_count - 1, ratios)
    out = []
    for s in range(s_count):
        binoms = [binomial(-(Fraction(a) + s) / mu, j) for j in range(s + 1)]
        out.append(sum((q[s - i] * binoms[j] * table[i][j]
                        for i in range(s + 1) for j in range(i + 1)),
                       Fraction(0)))
    return out


def dense_miller(f, tau, n):
    """Miller's recurrence over every i = 1..k, zero f_i included, with
    (tau + 1) i formed inside the inner loop: the reference for the
    strided kernel."""
    t1 = complex(tau) + 1.0
    w = [1.0 + 0.0j]
    for k in range(1, n + 1):
        acc = 0.0 + 0.0j
        for i in range(1, k + 1):
            acc += (t1 * i - k) * f[i] * w[k - i]
        w.append(acc / k)
    return w


def assert_exact_table(table, want):
    assert table == want
    assert all(type(x) is Fraction for row in table for x in row)


class TestArithmetic:
    def test_add_cancellation(self):
        f = TruncatedSeries(0.0, [1, 1])
        g = TruncatedSeries(0.0, [1, -1])
        assert (f + g).coeffs == (2 + 0j, 0j)

    def test_add_identity(self):
        f = TruncatedSeries(0.0, [2, 3, 4])
        zero = TruncatedSeries(0.0, [0, 0, 0])
        assert max_coeff_diff(f + zero, f) == 0

    def test_add_matches_termwise_oracle(self):
        rng = random.Random(101)
        f = random_series(rng, order=8)
        g = random_series(rng, order=8)
        oracle = [f.coeffs[s] + g.coeffs[s] for s in range(9)]
        assert list((f + g).coeffs) == oracle

    def test_mul_difference_of_squares(self):
        f = TruncatedSeries(0.0, [1, 1, 0])
        g = TruncatedSeries(0.0, [1, -1, 0])
        assert (f * g).coeffs == (1 + 0j, 0j, -1 + 0j)

    def test_mul_identity(self):
        rng = random.Random(102)
        f = random_series(rng, order=6)
        one = TruncatedSeries(0.0, [1] + [0] * 6)
        assert max_coeff_diff(f * one, f) == 0

    def test_mul_matches_convolution_oracle(self):
        rng = random.Random(103)
        f = random_series(rng, order=6)
        g = random_series(rng, order=6)
        oracle = [sum(f.coeffs[i] * g.coeffs[s - i] for i in range(s + 1))
                  for s in range(7)]
        got = (f * g).coeffs
        assert max(abs(a - b) for a, b in zip(got, oracle)) < 1e-15

    def test_mismatched_base_rejected(self):
        f = TruncatedSeries(0.0, [1, 1])
        g = TruncatedSeries(1.0, [1, 1])
        with pytest.raises(ValueError, match="base"):
            f + g
        with pytest.raises(ValueError, match="base"):
            f * g

    def test_result_truncated_to_min_order(self):
        f = TruncatedSeries(0.0, [1, 1, 1, 1, 1])
        g = TruncatedSeries(0.0, [1, 1])
        assert (f + g).order == 1
        assert (f * g).order == 1


class TestRecip:
    def test_geometric(self):
        got = TruncatedSeries(0.0, [1, -1, 0, 0]).recip()
        assert max(abs(c - 1) for c in got.coeffs) < 1e-15

    def test_involution(self):
        rng = random.Random(105)
        f = random_series(rng, order=7, constant=0.7 - 1.1j)
        assert max_coeff_diff(f.recip().recip(), f) < 1e-13

    def test_constant(self):
        got = TruncatedSeries(0.0, [2.0]).recip()
        assert got.coeffs == (0.5 + 0j,)

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            TruncatedSeries(0.0, [0, 1]).recip()

    def test_sparse_exact_matches_dense_reference(self):
        # recip loops over the nonzero coefficients only; the reference
        # runs the defining convolution over every one of them
        rng = random.Random(107)
        for _ in range(40):
            order = rng.randint(0, 30)
            coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                      if rng.random() < 0.3 else 0 for _ in range(order + 1)]
            coeffs[0] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 9))
            want = [1 / coeffs[0]]
            for k in range(1, order + 1):
                want.append(-sum((coeffs[i] * want[k - i]
                                  for i in range(1, k + 1)), Fraction(0))
                            / coeffs[0])
            got = TruncatedSeries(0, coeffs).recip().coeffs
            assert list(got) == want
            assert all(type(c) is Fraction for c in got)


class TestDivision:
    def test_common_exact_zero_cancels(self):
        # z^2 / (z^2 - z^4/12) = 1/(1 - z^2/12): two orders fewer
        num = TruncatedSeries(0, [0, 0, 1, 0, 0, 0])
        den = TruncatedSeries(0, [0, 0, 1, 0, Fraction(-1, 12), 0])
        got = num / den
        assert got.order == 3
        assert got.coeffs == (1, 0, Fraction(1, 12), 0)

    def test_float_exact_zero_cancels(self):
        num = TruncatedSeries(0.0, [0.0, 2.0, 1.0])
        got = num / TruncatedSeries(0.0, [0.0, 1.0, 0.0])
        assert got.order == 1 and got.coeffs == (2, 1)

    def test_zero_in_denominator_only_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            TruncatedSeries(0, [1, 1]) / TruncatedSeries(0, [0, 1])


class TestElementaryFunctions:
    ORDER = 20

    def exact_argument(self):
        """f = z/2 - z^2/3 + z^3 + z^7/5 (f(0) = 0), exact to order 20."""
        coeffs = [0] * (self.ORDER + 1)
        coeffs[1:4] = [Fraction(1, 2), Fraction(-1, 3), 1]
        coeffs[7] = Fraction(1, 5)
        return TruncatedSeries(0, coeffs)

    def test_exact_identities(self):
        f = self.exact_argument()
        one = (1,) + (0,) * self.ORDER
        s, c = series.sin(f), series.cos(f)
        assert (s * s + c * c).coeffs == one
        assert series.exp(series.log(1 + f)).coeffs == (1 + f).coeffs
        assert series.log(series.exp(f)).coeffs == f.coeffs
        assert (series.exp(f) * series.exp(-f)).coeffs == one
        for r in (s, c, series.exp(f), series.log(1 + f)):
            assert all(type(x) is Fraction for x in r.coeffs)

    def test_exact_values_on_the_identity(self):
        z = TruncatedSeries.identity(0, 12)
        fact = math.factorial
        assert series.exp(z).coeffs == tuple(Fraction(1, fact(k)) for k in range(13))
        assert series.log(1 + z).coeffs == tuple(
            [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, 13)])
        assert series.sin(z).coeffs == tuple(
            Fraction((-1) ** (k // 2), fact(k)) if k % 2 else 0 for k in range(13))
        assert series.cos(z).coeffs == tuple(
            0 if k % 2 else Fraction((-1) ** (k // 2), fact(k)) for k in range(13))

    def test_type_rule(self):
        f = self.exact_argument()
        for r in (series.exp(f + 1), series.sin(f + Fraction(1, 2)),
                  series.cos(f + 1), series.log(f + 2),
                  series.exp(f * 1.0), series.log(1.0 + f), series.sin(f * 1j)):
            assert all(type(x) is complex for x in r.coeffs)
        assert series.exp(f + 1).coeffs[0] == pytest.approx(math.e)
        assert series.log(f + 2).coeffs[0] == pytest.approx(math.log(2))

    def test_log_of_zero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant"):
            series.log(TruncatedSeries.identity(0, 3))

    @pytest.mark.parametrize("name", ["exp", "log", "sin", "cos"])
    def test_float_series_agree_with_cmath(self, name):
        # each function of a non-linear argument g, as a series about z0
        # summed at z0 + h, against cmath on g(z0 + h)
        z0, h = 0.3 - 0.4j, 0.01
        g = lambda z, m: 0.7 + z - 0.2 * z * z  # noqa: E731
        ser = getattr(series, name)(g(TruncatedSeries.identity(z0, 30), series))
        want = getattr(cmath, name)(g(z0 + h, cmath))
        assert abs(ser(z0 + h) - want) <= 1e-13 * abs(want)


class TestCpow:
    def test_geometric(self):
        for order in (3, 13, 30):
            got = TruncatedSeries(0.0, [1, -1] + [0] * (order - 1)).cpow(-1)
            assert got.order == order
            assert max(abs(c - 1) for c in got.coeffs) < 1e-14

    def test_binomial_by_hand(self):
        # (1+z)^{1/2} = 1 + z/2 - z^2/8 + ... = sum_k C(1/2, k) z^k
        for order in (2, 13, 30):
            got = TruncatedSeries(0.0, [1, 1] + [0] * (order - 1)).cpow(0.5)
            assert got.order == order
            for k, c in enumerate(got.coeffs):
                assert abs(c - float(binomial(Fraction(1, 2), k))) < 1e-15

    @pytest.mark.parametrize("order", [8, 16])
    def test_power_addition_property(self, order):
        rng = random.Random(106 + order)
        for _ in range(20):
            f = random_series(rng, order=order, constant=1.0)
            t1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = f.cpow(t1) * f.cpow(t2)
            rhs = f.cpow(t1 + t2)
            scale = max(max(abs(c) for c in rhs.coeffs), 1.0)
            assert max_coeff_diff(lhs, rhs) / scale < 1e-12

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant"):
            TruncatedSeries(0.0, [2, 1]).cpow(0.5)

    def test_bit_identical_to_series_loop(self):
        # Miller's recurrence as cpow ran it on the series itself
        rng = random.Random(109)
        for order in (0, 1, 13, 40):
            f = random_series(rng, order=order, constant=1.0)
            for tau in (0.5, -3, Fraction(-7, 2), complex(rng.uniform(-9, 9),
                                                         rng.uniform(-9, 9))):
                assert (repr(f.cpow(tau).coeffs)
                        == repr(tuple(dense_miller(f.coeffs, tau, order))))


class TestStridedMiller:
    """The kernel sums over the multiples of the gcd d of the nonzero
    indices only; the dense recurrence must give the same bits."""

    @staticmethod
    def sparse_series(rng, gcd, order):
        # nonzero f_i exactly at i = gcd and at random further multiples
        f = [1.0 + 0.0j] + [0j] * order
        for i in range(gcd, order + 1, gcd):
            if i == gcd or rng.random() < 0.7:
                f[i] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return f

    @pytest.mark.parametrize("a", [1, -1], ids=["kepler", "parabolic"])
    def test_sine_phase_one_minus_phi(self, a):
        # 1 - phi of z - sin z has only even powers, so d = 2
        s_count = 80
        base = classic.kepler_normal_form(s_count).one_minus_phi().coeffs
        assert all(c == 0 for c in base[1::2]) and base[2] != 0
        for s in range(s_count):
            tau = -(s + a) / 3
            got = series._miller_power(base, tau, s)
            assert repr(got) == repr(dense_miller(base, tau, s)), s
            assert all(repr(w) == "0j" for w in got[1::2])

    @pytest.mark.parametrize("gcd", [1, 2, 3])
    def test_random_series_by_gcd(self, gcd):
        rng = random.Random(150 + gcd)
        for _ in range(20):
            order = rng.randint(0, 40)
            f = self.sparse_series(rng, gcd, order)
            for tau in (0.5, -3, Fraction(-7, 2),
                        complex(rng.uniform(-9, 9), rng.uniform(-9, 9))):
                want = repr(dense_miller(f, tau, order))
                assert repr(series._miller_power(f, tau, order)) == want
                assert repr(list(TruncatedSeries(0.0, f).cpow(tau).coeffs)) == want

    def test_no_nonzero_index(self):
        # f = 1 to the truncation order: every w_k past w_0 is +0
        for order in (0, 1, 6):
            f = [1.0 + 0.0j] + [0j] * order
            assert (repr(TruncatedSeries(0.0, f).cpow(-2.5).coeffs)
                    == repr(tuple(dense_miller(f, -2.5, order))))
        # a nonzero f_i past n is not read
        assert series._miller_power([1, 0, 0, 5], 0.5, 2) == [1, 0, 0]


class TestRingLaws:
    def test_associativity_and_distributivity(self):
        rng = random.Random(108)
        for _ in range(25):
            f = random_series(rng, order=8)
            g = random_series(rng, order=8)
            h = random_series(rng, order=8)
            scale = max(max(abs(c) for c in ((f * g) * h).coeffs), 1e-9)
            assert max_coeff_diff((f * g) * h, f * (g * h)) / scale < 1e-12
            assert max_coeff_diff(f * (g + h), f * g + f * h) / scale < 1e-12


class TestBinomial:
    @staticmethod
    def reference(tau, j):
        """C(tau, j) by j ``Fraction`` multiplications, then one division."""
        out = Fraction(1)
        for i in range(j):
            out = out * (Fraction(tau) - i)
        return out / math.factorial(j)

    @pytest.mark.parametrize("tau", [0, 5, -4, Fraction(7, 2), Fraction(-7, 2),
                                     Fraction(1, 3)], ids=str)
    def test_integer_product_equals_fraction_product(self, tau):
        for j in range(41):
            got = binomial(tau, j)
            assert type(got) is Fraction
            assert got == self.reference(tau, j), j

    @pytest.mark.parametrize("tau, j", [(0.5, 171), (-80.5, 200)])
    def test_float_past_the_factorial_range(self, tau, j):
        # j! passes the double range at j = 171; C(tau, j) need not
        mpmath = pytest.importorskip("mpmath")
        got = binomial(tau, j)
        want = complex(mpmath.binomial(mpmath.mpf(tau), j))
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_float_and_negative_index(self):
        assert binomial(0.5, 3) == 0.5 * -0.5 * -1.5 / 6
        with pytest.raises(ValueError, match="index"):
            binomial(Fraction(1, 2), -1)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)

    def test_defining_recurrence_oracle(self):
        # sum_{k=0}^{m} C(m+1, k) B_k = 0 pins every value
        for m in range(1, 31):
            acc = sum((binomial(m + 1, k) * bernoulli(k) for k in range(m + 1)),
                      Fraction(0))
            assert acc == 0, m

    def test_b2_and_b12(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(m) == 0 for m in range(3, 25, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


def _partitions_into_blocks(m, j):
    """Brute-force count of set partitions of {0..m-1} into j blocks."""
    if m == 0:
        return 1 if j == 0 else 0
    count = 0
    for assignment in itertools.product(range(j), repeat=m):
        used = set(assignment)
        if len(used) != j:
            continue
        # normalize: block labels must appear in first-use order
        order = []
        for a in assignment:
            if a not in order:
                order.append(a)
        if order == sorted(order):
            count += 1
    return count


class TestStirling:
    def test_corners(self):
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(4, 7) == 0

    def test_single_block(self):
        assert all(stirling2(m, 1) == 1 for m in range(1, 10))

    @pytest.mark.parametrize("m,j", [(3, 2), (4, 2), (5, 3), (6, 3)])
    def test_against_enumeration_oracle(self, m, j):
        assert stirling2(m, j) == _partitions_into_blocks(m, j)

    def test_recurrence(self):
        for m in range(1, 21):
            for j in range(1, m + 1):
                assert stirling2(m, j) == (j * stirling2(m - 1, j)
                                           + stirling2(m - 1, j - 1))


class TestBellHat:
    def test_single_part(self):
        args = [3, 1, 4, 1, 5]
        for i in range(1, 6):
            assert bell_hat(i, 1, args) == args[i - 1]

    def test_two_parts_by_hand(self):
        # compositions of 3 into 2 parts: (1,2) and (2,1)
        assert bell_hat(3, 2, [Fraction(2), Fraction(5), Fraction(7)]) == 20

    def test_conventions(self):
        assert bell_hat(0, 0, []) == 1
        assert bell_hat(4, 0, [1, 1, 1, 1]) == 0
        assert bell_hat(2, 5, [1, 1]) == 0

    def test_generating_identity_oracle(self):
        rng = random.Random(109)
        p = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
        table = bell_hat_table(6, p)
        power = TruncatedSeries(0.0, [1] + [0] * 6)
        base = TruncatedSeries(0.0, [0] + p)
        for j in range(1, 5):
            power = power * base
            for i in range(7):
                want = power.coeffs[i]
                got = complex(table[i][j]) if j <= i else 0.0
                assert abs(want - got) < 1e-12

    def test_exact_for_rational_input(self):
        args = [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)]
        assert bell_hat(3, 3, args) == Fraction(1, 8)
        assert bell_hat(3, 2, args) == 2 * Fraction(1, 2) * Fraction(-1, 3)

    def test_three_forms_agree_exactly(self):
        # the powering route must match both the composition-sum form
        # (ordered parts) and the multi-index multiplicity form, all in
        # exact arithmetic
        rng = random.Random(110)
        args = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                for _ in range(8)]

        def by_compositions(i, j):
            if i == 0:
                return Fraction(int(j == 0))
            if j == 0 or j > i:
                return Fraction(0)
            total = Fraction(0)

            def rec(remaining, parts, acc):
                nonlocal total
                if parts == 1:
                    total += acc * args[remaining - 1]
                    return
                for n in range(1, remaining - parts + 2):
                    rec(remaining - n, parts - 1, acc * args[n - 1])

            rec(i, j, Fraction(1))
            return total

        def by_multiplicities(i, j):
            if i == 0:
                return Fraction(int(j == 0))
            if j == 0 or j > i:
                return Fraction(0)
            total = Fraction(0)

            def rec(idx, weight_left, parts_left, acc):
                nonlocal total
                if idx > i:
                    if weight_left == 0 and parts_left == 0:
                        total += acc
                    return
                max_l = min(weight_left // idx, parts_left)
                for ell in range(max_l + 1):
                    rec(idx + 1, weight_left - idx * ell, parts_left - ell,
                        acc * args[idx - 1] ** ell
                        / math.factorial(ell))
                return

            rec(1, i, j, Fraction(math.factorial(j)))
            return total

        for i in range(8):
            for j in range(i + 1):
                fast = bell_hat(i, j, args)
                assert fast == by_compositions(i, j), (i, j)
                assert fast == by_multiplicities(i, j), (i, j)

    def test_insufficient_arguments(self):
        with pytest.raises(ValueError, match="argument"):
            bell_hat(5, 2, [1, 2])


class TestBellHatTableExact:
    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97)

    def random_argument(self, rng):
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-7, 7)
        if kind == 2:
            return Fraction(rng.choice((-1, 1)), rng.choice(self.PRIMES))
        if kind == 3:
            return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        return Fraction(0)

    def test_random_rationals_match_reference(self):
        rng = random.Random(141)
        for _ in range(30):
            i_max = rng.randint(1, 30)
            args = [self.random_argument(rng) for _ in range(i_max)]
            assert_exact_table(bell_hat_table(i_max, args),
                               reference_bell_table(i_max, args))

    def test_corners(self):
        assert_exact_table(bell_hat_table(0, []), [[Fraction(1)]])
        for zeros in ([0] * 6, [Fraction(0)] * 6):
            table = bell_hat_table(6, zeros)
            assert_exact_table(table, reference_bell_table(6, zeros))
            assert table[0][0] == 1
            assert all(x == 0 for row in table[1:] for x in row)

    def test_kepler_and_parabolic_tables_match_reference(self):
        args = [-c for c in normalize(
            classic.taylor(classic.sine_phase, 0, 43)).phi.coeffs[1:41]]
        for got, q, a in ((classic.kepler_d_table(40), [1] + [0] * 40, 1),
                          (classic.parabolic_d_table(40),
                           classic.parabolic_q_table(40), -1)):
            assert got == reference_bell_sums(q, args, a, 3, 41)
            assert all(type(x) is Fraction for x in got)

    def test_bell_sums_match_defining_sum(self):
        # the integer kernel against the defining triple sum, with zeros,
        # integers and denominators up to 10^6 among q and the ratios
        rng = random.Random(143)
        exponents = (0, 1, -2, 3, Fraction(1, 3), Fraction(5, 2),
                     Fraction(-7, 2), Fraction(-1, 6))
        for trial in range(60):
            s_count = 0 if trial == 0 else rng.randint(1, 30)
            a = exponents[trial % len(exponents)]
            mu = rng.randint(1, 4)
            q = [self.random_argument(rng) for _ in range(s_count)]
            ratios = [self.random_argument(rng)
                      for _ in range(max(s_count - 1, 0))]
            got = expansion.bell_sums(q, ratios, a, mu, s_count)
            assert got == reference_bell_sums(q, ratios, a, mu, s_count)
            assert len(got) == s_count
            assert all(type(x) is Fraction for x in got)

    def test_power_rows_are_reduced_products(self):
        # row j is seed * P^j truncated, as ints over a denominator that
        # shares no factor with all of them
        rng = random.Random(144)
        for _ in range(20):
            n = rng.randint(1, 20)
            seed = [self.random_argument(rng) for _ in range(rng.randint(0, n))]
            args = [self.random_argument(rng) for _ in range(n - 1)]
            want = [Fraction(c) for c in seed] + [Fraction(0)] * (n - len(seed))
            for j, (row, den) in enumerate(power_rows(seed, args, n)):
                assert [Fraction(x, den) for x in row] == want, j
                assert math.gcd(den, *row) == 1
                want = [sum((want[i - b] * args[b - 1] for b in range(1, i + 1)),
                            Fraction(0)) for i in range(n)]
        assert list(power_rows([1], [], 0)) == []

    def test_bell_sums_of_no_terms(self):
        assert expansion.bell_sums([], [], 1, 2, 0) == []
        # with s_count = 0, ratios[:s_count - 1] is all but the last ratio
        assert expansion.bell_sums([1, 2], [Fraction(1, 2), 0.5j], 1, 2, 0) == []

    def test_bell_sums_reject_short_amplitude(self):
        # a missing q_s must not be read as zero
        for q in ([1], [1.0 + 0j]):
            with pytest.raises(ValueError, match="amplitude"):
                expansion.bell_sums(q, [Fraction(1, 2)], 1, 2, 2)

    def test_complex_input_matches_reference_bit_for_bit(self):
        rng = random.Random(142)
        args = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
        args[2], args[5], args[11] = 0j, 0.0, 3
        table = bell_hat_table(20, args)
        want = reference_bell_table(20, args)
        assert [[repr(x) for x in row] for row in table] == \
            [[repr(x) for x in row] for row in want]
        assert all(type(x) is complex for row in table for x in row)


class TestStructure:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0.0, [])

    def test_shift_down_requires_exact_zeros(self):
        f = TruncatedSeries(0.0, [0, 0, 3, 4])
        assert f.shift_down(2).coeffs == (3 + 0j, 4 + 0j)
        with pytest.raises(ValueError, match="vanish"):
            TruncatedSeries(0.0, [1e-30, 0, 3]).shift_down(1)

    def test_evaluation_horner(self):
        f = TruncatedSeries(1.0, [2, 3, 4])
        z = 1.5
        assert abs(f(z) - (2 + 3 * 0.5 + 4 * 0.25)) < 1e-15

    def test_differentiate(self):
        f = TruncatedSeries(0.0, [5, 1, 2, 3])
        assert f.differentiate().coeffs == (1 + 0j, 4 + 0j, 9 + 0j)

    def test_integral_inverts_differentiate(self):
        rng = random.Random(107)
        f = random_series(rng, base=0.3 - 0.2j, order=7)
        back = f.integral(0.5 + 2j).differentiate()
        assert back.order == f.order and back.base == f.base
        assert max_coeff_diff(back, f) < 1e-15
        g = TruncatedSeries(0.0, [Fraction(3, 7), -2, Fraction(5, 11)])
        assert g.integral(Fraction(1, 3)).differentiate().coeffs == g.coeffs

    def test_integral_by_hand(self):
        # the antiderivative of 1/(1 - z) with value 0 at 0 is -log(1 - z)
        got = TruncatedSeries(0.0, [1] * 5).integral(0)
        assert got.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3),
                              Fraction(1, 4), Fraction(1, 5))

    def test_dropped_series_hold_no_tuple_memory(self):
        # a coefficient tuple that never comes from the tuple free list but
        # is freed into it piles up there until the next full collection
        coeffs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        was_enabled = gc.isenabled()
        gc.collect()   # a full collection empties the free lists
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                TruncatedSeries(0.0, coeffs)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert held < 64 * 1024


class TestExactCoefficients:
    def _assert_exact(self, f):
        assert all(type(c) is Fraction for c in f.coeffs), f.coeffs

    def test_int_and_fraction_input_is_exact(self):
        f = TruncatedSeries(0.0, [1, Fraction(1, 3), 0, -2])
        self._assert_exact(f)
        assert f.coeffs == (1, Fraction(1, 3), 0, -2)

    def test_operations_stay_exact(self):
        f = TruncatedSeries(0.0, [Fraction(2, 3), 1, Fraction(-1, 5), 4, 0])
        g = TruncatedSeries(0.0, [3, Fraction(1, 7), 0, Fraction(5, 2), -1])
        results = [f + g, f - g, -f, f * g, f.recip(), f.differentiate(),
                   f.integral(Fraction(1, 2)), f.integral(0), f.truncate(2),
                   (f * TruncatedSeries(0.0, [0, 0, 1, 0, 0])).shift_down(2),
                   TruncatedSeries(0.0, [7]).differentiate()]
        for r in results:
            self._assert_exact(r)
        # f * f^{-1} is exactly 1 to the truncation order
        assert (f * f.recip()).coeffs == (1, 0, 0, 0, 0)

    def test_exact_product_by_hand(self):
        f = TruncatedSeries(0.0, [Fraction(1, 2), Fraction(1, 3)])
        g = TruncatedSeries(0.0, [2, Fraction(3, 4)])
        assert (f * g).coeffs == (1, Fraction(3, 8) + Fraction(2, 3))

    def test_float_input_gives_complex(self):
        for coeffs in ([1.0, 2.0], [1, 0.5], [Fraction(1, 2), 1j], [1.5j, 2]):
            f = TruncatedSeries(0.0, coeffs)
            assert all(type(c) is complex for c in f.coeffs), coeffs
        f = TruncatedSeries(0.0, [1.0, 0.25, 0.0])
        for r in (f * f, f.recip(), f.integral(1), f.differentiate(), f + f):
            assert all(type(c) is complex for c in r.coeffs)

    def test_mixed_operands_give_complex(self):
        exact = TruncatedSeries(0.0, [1, Fraction(1, 2)])
        floating = TruncatedSeries(0.0, [1.0, 0.5])
        for r in (exact + floating, exact * floating, floating * exact,
                  exact.integral(0.5), exact + 0.5, exact * 2.0, exact / 1j,
                  exact.cpow(2), TruncatedSeries.constant(1, 0.0, 2),
                  TruncatedSeries.identity(0.0, 2)):
            assert all(type(c) is complex for c in r.coeffs)
        assert type(exact(0.5)) is complex

    def test_exact_scalar_operands_stay_exact(self):
        exact = TruncatedSeries(0.0, [1, Fraction(1, 2)])
        for r in (exact + 1, 1 + exact, exact - Fraction(1, 3), 2 - exact,
                  exact * 2, Fraction(2, 3) * exact, exact / 3,
                  TruncatedSeries.identity(Fraction(1, 2), 3),
                  TruncatedSeries.identity(1, 2)):
            self._assert_exact(r)
        assert (2 - exact).coeffs == (1, Fraction(-1, 2))
        assert (exact / 3).coeffs == (Fraction(1, 3), Fraction(1, 6))
        assert TruncatedSeries.identity(1, 2).coeffs == (1, 1, 0)

    def test_repr_of_exact_series(self):
        assert "0.5" in repr(TruncatedSeries(0.0, [Fraction(1, 2)]))
