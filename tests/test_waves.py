"""Dilogarithm, wave-phase constants and leading-wave coefficients."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from saddlepoint.expansion import alpha_bell
from saddlepoint.saddle import find_saddle, normalize, theta
from saddlepoint.series import TruncatedSeries
from saddlepoint.waves import (WaveExpansion, dilog, f_lambda_series,
                               p_wave_series, solve_constants, u_series,
                               wave_coefficients, wave_main_term)
from saddlepoint.waves import _g_series  # noqa: F401  (cross-checks below)
from saddlepoint.waves import _phase_normal_form

W0_REF = 0.916198 - 0.182459j
Z0_REF = 1.181475 + 0.255528j


class TestDilog:
    def test_zero(self):
        assert dilog(0) == 0

    def test_half_classical_identity(self):
        want = math.pi ** 2 / 12 - math.log(2.0) ** 2 / 2
        assert abs(dilog(0.5) - want) < 1e-14

    def test_reflection_identity_point(self):
        z = 0.3 + 0.4j
        lhs = dilog(z) + dilog(1 - z) + cmath.log(z) * cmath.log(1 - z)
        assert abs(lhs - math.pi ** 2 / 6) < 1e-13

    def test_reflection_identity_random(self):
        rng = random.Random(61)
        count = 0
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 1e-2 or abs(z - 1) < 1e-2 or abs(z.imag) < 1e-6:
                continue
            if abs(z) > 4 or abs(1 - z) > 4:
                continue
            lhs = dilog(z) + dilog(1 - z) + cmath.log(z) * cmath.log(1 - z)
            assert abs(lhs - math.pi ** 2 / 6) < 1e-12, z
            count += 1
            if count >= 50:
                break
        assert count >= 50

    def test_against_power_series(self):
        rng = random.Random(62)
        for _ in range(25):
            z = cmath.rect(rng.uniform(0.1, 0.6), rng.uniform(-math.pi, math.pi))
            direct = sum(z ** n / n ** 2 for n in range(1, 200))
            assert abs(dilog(z) - direct) < 1e-13

    def test_cut_rejected(self):
        for bad in (1.0, 1.5, 100.0):
            with pytest.raises(ValueError, match="cut"):
                dilog(bad)

    def test_just_off_cut_differs_by_sides(self):
        up = dilog(2.0 + 1e-12j)
        down = dilog(2.0 - 1e-12j)
        # jump of 2 pi i log z across the cut
        assert abs((up - down) - 2j * math.pi * math.log(2.0)) < 1e-6


class TestConstants:
    def test_reference_values(self):
        wc = solve_constants()
        assert abs(wc.w0 - W0_REF) < 1e-6
        assert abs(wc.z0_wave - Z0_REF) < 1e-6
        assert wc.residual < 1e-12

    def test_z0_consistency(self):
        wc = solve_constants()
        assert abs(cmath.exp(2j * math.pi * wc.z0_wave) - (1 - wc.w0)) < 1e-12

    def test_growth_modulus(self):
        wc = solve_constants()
        assert abs(1 / abs(wc.w0) - math.exp(0.068)) < 5e-4

    def test_p0_reference(self):
        # 0.504 - 0.241i is a 3-decimal rounding: compare per component
        wc = solve_constants()
        assert abs(wc.p0_wave.real - 0.504) < 5e-4
        assert abs(wc.p0_wave.imag - (-0.241)) < 5e-4


class TestPhaseSeries:
    def test_constant_term_inverts_w0(self):
        wc = solve_constants()
        ps = p_wave_series(10)
        assert abs(cmath.exp(ps.coeffs[0]) - 1 / wc.w0) < 1e-10

    def test_saddle_condition(self):
        ps = p_wave_series(10)
        assert abs(ps.coeffs[1]) < 1e-9

    def test_normal_form(self):
        nf = normalize(p_wave_series(12))
        assert nf.mu == 2
        assert abs(nf.p0.real - 0.504) < 5e-4
        assert abs(nf.p0.imag - (-0.241)) < 5e-4
        assert abs(theta(nf, 0) - 0.223) < 5e-4

    def test_saddle_agrees_with_newton_on_numeric_phase(self):
        # independent route: Newton on p built pointwise from dilog
        wc = solve_constants()

        def phase(z: complex) -> complex:
            return (dilog(cmath.exp(2j * math.pi * z)) - math.pi ** 2 / 6) \
                / (2j * math.pi * z)

        res = find_saddle(phase, wc.z0_wave + 0.05 + 0.02j, tol=1e-11,
                          sample_radius=5e-3)
        assert abs(res.root - wc.z0_wave) < 1e-8

    def test_order_cap(self):
        with pytest.raises(ValueError):
            p_wave_series(30)

    def test_against_mpmath_cauchy_integral(self):
        # 30-digit reference: w0 refined by findroot, then every Taylor
        # coefficient at z0 by the trapezoid rule for the Cauchy integral
        # on |z - z0| = 0.12 (the nearest singularity, z = 1, is ~0.32 away)
        mpmath = pytest.importorskip("mpmath")
        got = p_wave_series(24).coeffs
        with mpmath.workdps(30):
            two_pi_i = 2j * mpmath.pi
            w0 = mpmath.findroot(
                lambda w: mpmath.polylog(2, w) - two_pi_i * mpmath.log(w),
                mpmath.mpc(solve_constants().w0))
            z0 = 1 + mpmath.log(1 - w0) / two_pi_i
            radius, nodes = mpmath.mpf("0.12"), 128
            units = [mpmath.expjpi(mpmath.mpf(2 * j) / nodes) for j in range(nodes)]
            values = [(mpmath.polylog(2, mpmath.exp(two_pi_i * (z0 + radius * u)))
                       - mpmath.pi ** 2 / 6) / (two_pi_i * (z0 + radius * u))
                      for u in units]
            for k in range(25):
                want = complex(mpmath.fsum(v * mpmath.conj(u) ** k
                                           for v, u in zip(values, units))
                               / (nodes * radius ** k))
                if k == 1:
                    assert abs(got[1]) < 1e-14
                else:
                    assert abs(got[k] - want) <= 5e-14 * abs(want), k


class TestFLambda:
    def test_constant_matches_closed_form(self):
        wc = solve_constants()
        for lam in (0, 1, Fraction(1, 2)):
            f = f_lambda_series(lam, 8)
            lam_f = float(Fraction(lam))
            want = (-cmath.exp(0.25j * math.pi) * cmath.sqrt(wc.z0_wave)
                    / cmath.sqrt(wc.w0)
                    * cmath.exp(-2j * math.pi * lam_f * wc.z0_wave))
            assert abs(f.coeffs[0] - want) < 1e-10 * abs(want)

    def test_lambda_ratio(self):
        wc = solve_constants()
        f0 = f_lambda_series(0, 8)
        f1 = f_lambda_series(1, 8)
        assert abs(f0.coeffs[0] / f1.coeffs[0] - (1 - wc.w0)) < 1e-12

    def test_square_matches_reference_series_termwise(self):
        # rebuilding z/(2 sin(pi(z-1))) e^{-pi i z(2 lam + 1/2)} with
        # reciprocal and product only (no fractional power) checks the
        # square root's branch and coefficients
        wc = solve_constants()
        z0 = wc.z0_wave
        lam = 1
        order = 12
        f = f_lambda_series(lam, order)
        sq = f * f
        sin2 = []
        s0 = cmath.sin(math.pi * (z0 - 1))
        c0 = cmath.cos(math.pi * (z0 - 1))
        for k in range(order + 1):
            cyc = (s0, c0, -s0, -c0)[k % 4]
            sin2.append(2 * math.pi ** k / math.factorial(k) * cyc)
        mu_exp = -2j * math.pi * (2 * lam + 0.5)
        expc = [cmath.exp(mu_exp * z0) * mu_exp ** k / math.factorial(k)
                for k in range(order + 1)]
        want = (TruncatedSeries.identity(z0, order)
                * TruncatedSeries(z0, sin2).recip()
                * TruncatedSeries(z0, expc))
        scale = max(abs(c) for c in want.coeffs)
        assert max(abs(a - b) for a, b in zip(sq.coeffs, want.coeffs)) \
            < 1e-11 * scale


class TestUSeries:
    def test_u0_is_one(self):
        u0 = u_series(0, 6)
        assert u0.coeffs[0] == 1
        assert all(c == 0 for c in u0.coeffs[1:])

    def test_u1_constant_closed_form(self):
        wc = solve_constants()
        u1 = u_series(1, 8)
        want = -(math.pi * wc.z0_wave / 12) / cmath.tan(math.pi * wc.z0_wave)
        assert abs(u1.coeffs[0] - want) < 1e-12 * abs(want)

    def test_u3_multi_index_content(self):
        # solutions of m1 + 3 m2 = 3: (3, 0) and (0, 1)
        order = 8
        g1 = _g_series(1, order)
        g2 = _g_series(2, order)
        want = g1 * g1 * g1 * (1 / 6.0) + g2
        got = u_series(3, order)
        scale = max(abs(c) for c in want.coeffs)
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) \
            < 1e-13 * scale

    def test_generating_function_cross_check(self):
        # u_j = [x^j] exp(sum_l g_l x^{2l-1}), expanded with polynomial
        # arithmetic over series coefficients
        order = 10
        j_max = 5
        zero = TruncatedSeries.constant(0.0, u_series(0, order).base, order)
        one = TruncatedSeries.constant(1.0, zero.base, order)
        poly = [zero] * (j_max + 1)       # coefficient of x^w is a series
        for ell in range(1, (j_max + 1) // 2 + 1):
            w = 2 * ell - 1
            if w <= j_max:
                poly[w] = _g_series(ell, order)

        def poly_mul(a, b):
            out = [zero] * (j_max + 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    if i + j <= j_max:
                        out[i + j] = out[i + j] + ai * bj
            return out

        expo = [one] + [zero] * j_max
        power = [one] + [zero] * j_max
        fact = 1.0
        for m in range(1, j_max + 1):
            power = poly_mul(power, poly)
            fact *= m
            expo = [e + p * (1.0 / fact) for e, p in zip(expo, power)]
        for j in range(j_max + 1):
            got = u_series(j, order)
            want = expo[j]
            scale = max(max(abs(c) for c in want.coeffs), 1e-12)
            assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) \
                < 1e-11 * scale, j

    def test_index_cap(self):
        with pytest.raises(ValueError):
            u_series(9, 4)


class TestWaveCoefficients:
    def test_a0_three_routes(self):
        wc = solve_constants()
        lam = 1
        pipeline = wave_coefficients(lam, 0).coeffs[0]
        closed = 2 * wc.z0_wave * cmath.exp(-1j * math.pi * wc.z0_wave * (1 + 2 * lam))
        f0 = f_lambda_series(lam, 6).coeffs[0]
        via_alpha = -2j * math.sqrt(math.pi) * f0 / cmath.sqrt(wc.p0_wave)
        assert abs(pipeline - closed) < 1e-10 * abs(closed)
        assert abs(pipeline - via_alpha) < 1e-10 * abs(closed)

    def test_a0_closed_form_other_lambdas(self):
        wc = solve_constants()
        for lam in (0, 2, Fraction(1, 2)):
            got = wave_coefficients(lam, 0).coeffs[0]
            lam_f = float(Fraction(lam))
            want = 2 * wc.z0_wave * cmath.exp(
                -1j * math.pi * wc.z0_wave * (1 + 2 * lam_f))
            assert abs(got - want) < 1e-9 * abs(want)

    @pytest.mark.parametrize("lam", [0, 1, Fraction(3, 2), Fraction(7, 4)])
    def test_coefficients_match_gamma_weighted_alphas(self, lam):
        # reference: a_t = -4i sum_m Gamma(m + 1/2) alpha_{2m}(f_lambda u_{t-m})
        t_max = 6
        order = 2 * t_max + 2
        nf = _phase_normal_form(order + 2)
        alpha_by_j = [alpha_bell(nf, f_lambda_series(lam, order)
                                 * u_series(j, order), 1, 2 * (t_max - j) + 1)
                      for j in range(t_max + 1)]
        want = []
        for t in range(t_max + 1):
            acc = 0.0 + 0.0j
            for m in range(t + 1):
                acc += math.gamma(m + 0.5) * alpha_by_j[t - m].alphas[2 * m]
            want.append(complex(-4j * acc))
        assert wave_coefficients(lam, t_max).coeffs == tuple(want)

    def test_main_term_reference_values(self):
        one = wave_main_term(1, 2000, 1)
        three = wave_main_term(1, 2000, 3)
        assert abs(one - 4.56e53) < 0.005e53
        assert abs(three - 4.37e53) < 0.005e53

    def test_integrality_guard(self):
        with pytest.raises(ValueError, match="integer"):
            wave_main_term(Fraction(1, 3), 100, 1)
        # lambda N integral: fine
        assert isinstance(wave_main_term(Fraction(1, 2), 100, 1), float)

    def test_expansion_object(self):
        we = wave_coefficients(1, 2)
        assert isinstance(we, WaveExpansion)
        assert len(we.coeffs) == 3
        with pytest.raises(ValueError):
            we.main_term(2000, 5)

    def test_caps(self):
        with pytest.raises(ValueError):
            wave_coefficients(1, 9)
        with pytest.raises(ValueError):
            wave_main_term(1, 0, 1)
