"""Worked integrals: exact tables, reference digits, structure checks."""

import cmath
import math
from fractions import Fraction

import pytest

from saddlepoint.classic import (agreement_digits,
                                 center_d_values, center_fs_polynomial,
                                 center_gamma, center_normal_form,
                                 center_q_coeffs, center_saddle,
                                 gamma_normal_form, gamma_phase,
                                 gamma_stirling, kepler_d_table,
                                 kepler_normal_form, parabolic_d_table,
                                 parabolic_q_table, sine_phase, taylor)
from saddlepoint.expansion import alpha_direct
from saddlepoint.problemfile import example_problem, run_problem
from saddlepoint.quadrature import builtin_integrand
from saddlepoint.saddle import normalize
from saddlepoint.series import TruncatedSeries, bernoulli

# reference values for the worked integrals at N = 50 (12-digit
# evaluations of the integrals themselves)
KEPLER_REF = 0.762835382546
CENTER_REF = 2.8171413884e-14
PARABOLIC_REF = -9.357585773084


def run_example(name, terms, eps=0.4):
    """The built-in example at N = 50: (expansion, validation point)."""
    example = example_problem(name, n=50.0, eps=eps, terms=terms)
    run = run_problem(example.problem, example.rel_tol)
    return run.expansion, run.validations[0]


class TestExactTables:
    def test_stirling_rationals(self):
        # OEIS A001163/A001164
        assert gamma_stirling(8) == [
            Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840),
            Fraction(-571, 2488320), Fraction(163879, 209018880),
            Fraction(5246819, 75246796800), Fraction(-534703531, 902961561600),
            Fraction(-4483131259, 86684309913600)]

    def test_kepler_d(self):
        d = kepler_d_table(8)
        assert d[0] == 1
        assert d[2] == Fraction(1, 20)
        assert d[4] == Fraction(1, 280)
        assert d[6] == Fraction(1, 3600)
        assert d[8] == Fraction(387, 17248000)
        assert all(d[s] == 0 for s in (1, 3, 5, 7))

    def test_parabolic_dstar(self):
        d = parabolic_d_table(8)
        assert d[0] == 2
        assert d[2] == Fraction(1, 5)
        assert d[4] == Fraction(27, 1400)
        assert d[6] == Fraction(23, 12600)
        assert d[8] == Fraction(947, 5544000)
        assert all(d[s] == 0 for s in (1, 3, 5, 7))

    @pytest.mark.parametrize("table, q_table, a", [
        (kepler_d_table, lambda s_max: [1] + [0] * s_max, 1),
        (parabolic_d_table, parabolic_q_table, -1)])
    def test_sine_tables_to_index_80_against_direct_route(self, table, q_table, a):
        # on the mu = 3 saddle of i(z - sin z),
        # alpha_s = e^{pi i (s+a)/6} 6^{(s+a)/3} d(s) / 3; the direct route
        # (Miller powering in floating point) shares no arithmetic with the
        # exact Bell sums
        s_max = 80
        q = TruncatedSeries(0.0, [complex(x) for x in q_table(s_max)])
        direct = alpha_direct(kepler_normal_form(s_max), q, a, s_max + 1).alphas
        d = table(s_max)
        assert len(d) == s_max + 1 and all(type(x) is Fraction for x in d)
        for s, ds in enumerate(d):
            if s % 2:
                assert ds == 0, s
                continue
            want = (cmath.exp(1j * math.pi * (s + a) / 6)
                    * 6.0 ** ((s + a) / 3) * float(ds) / 3)
            assert ds != 0 and abs(direct[s] - want) <= 1e-12 * abs(want), s

    def test_stirling_against_exp_of_log_series_oracle(self):
        # N!/(sqrt(2 pi N) (N/e)^N) = exp(h(1/N)) with
        # h(x) = sum_k B_2k / (2k (2k - 1)) x^(2k - 1); the exponential by
        # m g_m = sum_k k h_k g_{m-k}, which shares nothing with the Bell table
        m_max = 40
        h = [Fraction(0)] * (m_max + 1)
        for k in range(1, (m_max + 1) // 2 + 1):
            h[2 * k - 1] = bernoulli(2 * k) / (2 * k * (2 * k - 1))
        g = [Fraction(1)]
        for m in range(1, m_max + 1):
            g.append(sum(k * h[k] * g[m - k] for k in range(1, m + 1)) / m)
        table = gamma_stirling(m_max)
        assert table == g[1:]
        assert all(type(x) is Fraction for x in table)

    def test_parabolic_q_against_series_recip_oracle(self):
        # z^2/(1 - cos z) = (z/2)^2 / sin^2(z/2) as a product of two
        # Bernoulli generating functions:
        # q_s = 2 (-1)^{s/2} sum_n (-1)^n B_n B_{s-n} / (n! (s-n)!)
        order = 40
        table = parabolic_q_table(order)
        for s in range(order + 1):
            want = Fraction(0)
            if s % 2 == 0:
                for n in range(s + 1):
                    want += ((-1) ** n * bernoulli(n) * bernoulli(s - n)
                             / (math.factorial(n) * math.factorial(s - n)))
                want *= 2 * (-1) ** (s // 2)
            assert table[s] == want and type(table[s]) is Fraction, s


class TestDefinitions:
    def test_exact_ratios_match_closed_forms(self):
        # -z + log z at 1: p_i/p0 = (-1)^i 2/(i+2); z - sin z at 0:
        # 6 (-1)^{i/2}/(i+3)! for even i, 0 for odd i
        gamma = normalize(taylor(gamma_phase, 1, 82))
        sine = normalize(taylor(sine_phase, 0, 83))
        assert (gamma.mu, gamma.p0, gamma.p_at_z0) == (2, Fraction(1, 2), -1)
        assert (sine.mu, sine.p0, sine.p_at_z0) == (3, Fraction(-1, 6), 0)
        assert [-c for c in gamma.phi.coeffs[1:]] == [
            Fraction(2 * (-1) ** i, i + 2) for i in range(1, 81)]
        assert [-c for c in sine.phi.coeffs[1:]] == [
            Fraction(6 * (-1) ** (i // 2), math.factorial(i + 3)) if i % 2 == 0
            else 0 for i in range(1, 81)]
        for nf in (gamma, sine):
            assert all(type(c) is Fraction for c in nf.phi.coeffs)

    def test_float_gamma_normal_form_is_the_rounded_exact_one(self):
        nf = gamma_normal_form(84)
        exact = normalize(taylor(gamma_phase, 1, 86))
        assert [repr(c) for c in nf.phi.coeffs[1:]] == [
            repr(complex(c)) for c in exact.phi.coeffs[1:]]
        assert nf.phi.order == 84
        assert (nf.mu, nf.p0, nf.p_at_z0, nf.omega0) == (2, 0.5, -1.0, 0.0)

    @pytest.mark.parametrize("name, eps", [
        ("gamma", 0.4), ("kepler", 0.4), ("parabolic", 0.4),
        ("center", 0.1), ("center", 0.4), ("center", 0.7), ("center", 0.97)])
    def test_integrand_matches_reference(self, name, eps):
        # e^{N p} q (z - z0)^(a - 1) from the one definition against the
        # independent reference integrands, on circles about the saddle
        # that miss the poles (the center pole is z0 itself)
        n = 30.0
        problem = example_problem(name, n=n, eps=eps).problem
        z0 = problem.normal_form.z0
        reference = builtin_integrand(
            "kepler_plain" if name == "kepler" else name,
            **({"n": n, "eps": eps} if name == "center" else {"n": n}))
        for radius in (0.05, 0.3, 0.9):
            for k in range(12):
                z = z0 + radius * cmath.exp(2j * math.pi * (k + 0.3) / 12)
                got = (cmath.exp(n * problem.p_callable(z)) * problem.q_callable(z)
                       * (z - z0) ** (problem.a - 1))
                want = reference(z)
                assert abs(got - want) <= 1e-12 * abs(want), (name, eps, z)


class TestGammaReport:
    def test_agreement(self):
        _, point = run_example("gamma", 3)
        assert point.digits >= 9
        assert point.oracle.converged
        # relative to the factorial integral over the whole half line
        full = math.exp(math.lgamma(51.0) - 51.0 * math.log(50.0))
        assert abs(point.oracle.value - full) / full < 1e-11

    def test_table_contents(self):
        example = example_problem("gamma", n=50.0, terms=3)
        assert example.coefficient_table == (
            Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840))
        assert example.name == "gamma"

    def test_digits_nondecreasing_in_corrections(self):
        quad = run_example("gamma", 1)[1].oracle.value
        prev = -1
        for m in range(1, 5):
            _, point = run_example("gamma", m)
            digits = agreement_digits(point.value, quad)
            assert digits >= prev
            prev = digits


class TestKepler:
    def test_reference_digits(self):
        _, point = run_example("kepler", 10)
        assert point.oracle.converged
        assert abs(point.oracle.value - KEPLER_REF) / KEPLER_REF < 2e-12
        rel = abs(point.value - point.oracle.value) / abs(point.oracle.value)
        assert rel < 5e-9
        assert point.digits >= 8
        assert f"{point.value.real:.8f}".startswith("0.76283538")

    def test_digits_nondecreasing_in_order(self):
        quad = run_example("kepler", 1)[1].oracle.value
        prev = -1
        for s_count in range(1, 11):
            _, point = run_example("kepler", s_count)
            digits = agreement_digits(point.value, quad)
            assert digits >= prev
            prev = digits

    def test_term_closed_form(self):
        # coefficient of N^{-(s+1)/3} is
        # (2/3) cos(pi (s+1)/6) Gamma((s+1)/3) d(s) 6^{(s+1)/3}
        expansion, _ = run_example("kepler", 10)
        d = kepler_d_table(9)
        for t in expansion.terms:
            s = t.s
            want = (2.0 / 3.0 * math.cos(math.pi * (s + 1) / 6)
                    * math.gamma((s + 1) / 3) * float(d[s]) * 6.0 ** ((s + 1) / 3))
            assert abs(t.coefficient - want) < 1e-12 * max(1.0, abs(want))
            assert abs(t.exponent - (s + 1) / 3) < 1e-15


class TestCenter:
    def test_q_formula_against_series_oracle(self):
        # q = (z - z0)/(1 - eps cos z) by Cauchy's integral on |h| = log
        # gamma, half the distance to the next pole -i log gamma: the
        # 256-node trapezoid sum aliases at 2^-256, far below 50 digits
        mpmath = pytest.importorskip("mpmath")
        nodes_count, s_max = 256, 40
        with mpmath.workdps(50):
            for eps in (0.1, 0.4, 0.7, 0.97):
                e = mpmath.mpf(eps)
                r = mpmath.log((1 + mpmath.sqrt(1 - e * e)) / e)
                nodes = [mpmath.expjpi(mpmath.mpf(2 * m) / nodes_count)
                         for m in range(nodes_count)]
                terms = [r * u / (1 - e * mpmath.cos(1j * r + r * u))
                         for u in nodes]
                got = center_q_coeffs(eps, s_max)
                for s in range(s_max + 1):
                    want = mpmath.fsum(terms) / (nodes_count * r ** s)
                    assert abs(got[s] - want) < 5e-13 * abs(want), (eps, s)
                    terms = [t * mpmath.conj(u) for t, u in zip(terms, nodes)]

    def test_phase_ratios_against_taylor_oracle(self):
        # i(z - eps sin z) - p(z0) at z0 has the closed Taylor series
        # i h - i eps sin(z0 + h) + i eps sin z0; compare the ratios
        eps = 0.4
        z0 = center_saddle(eps)
        nf = center_normal_form(eps, 10)
        rebuilt = nf.reconstruct()
        for k in range(0, 13):
            h_coeff = 0.0 + 0.0j
            if k == 0:
                h_coeff = 1j * (z0 - eps * cmath.sin(z0))
            elif k == 1:
                h_coeff = 1j * (1 - eps * cmath.cos(z0))
            else:
                # -i eps d^k/dh^k sin(z0 + h) / k!
                cycle = (cmath.sin(z0), cmath.cos(z0),
                         -cmath.sin(z0), -cmath.cos(z0))[k % 4]
                h_coeff = -1j * eps * cycle / math.factorial(k)
            if k <= rebuilt.order:
                assert abs(rebuilt.coeffs[k] - h_coeff) < 1e-14, k

    def test_reference_digits(self):
        _, point = run_example("center", 13)
        assert point.oracle.converged
        assert abs(point.oracle.value - CENTER_REF) / CENTER_REF < 1e-10
        assert point.digits >= 10
        _, short = run_example("center", 5)
        assert short.digits >= 5
        assert f"{short.value.real:.4e}".startswith("2.8171")

    def test_degenerate_term_constant(self):
        eps = 0.4
        expansion, _ = run_example("center", 3, eps)
        c0 = expansion.terms[0].coefficient
        target = math.pi / math.sqrt(1 - eps * eps)
        assert abs(c0 - target) < 1e-12 * target
        assert expansion.terms[0].exponent == 0

    def test_even_terms_vanish(self):
        expansion, _ = run_example("center", 9)
        for t in expansion.terms[2::2]:
            assert abs(t.coefficient) < 1e-13

    @pytest.mark.parametrize("eps", [0.1 * k for k in range(1, 10)])
    def test_polynomial_structure_f1_f3(self, eps):
        d = center_d_values(eps, 3)
        x = eps * eps
        assert abs(d[1].real * (1 - x) - 2.0 / 3.0) < 1e-12
        assert abs(d[1].imag) < 1e-12
        want3 = -(46 + 189 * x) / 540
        assert abs(d[3].real * (1 - x) ** 2 - want3) < 1e-12

    def test_fs_polynomial_recovery(self):
        coeffs1, res1 = center_fs_polynomial(1)
        assert res1 < 1e-10
        assert abs(coeffs1[0] - 2 / 3) < 1e-10
        coeffs3, res3 = center_fs_polynomial(3)
        assert res3 < 1e-10
        assert abs(coeffs3[0] + 46 / 540) < 1e-9
        assert abs(coeffs3[1] + 189 / 540) < 1e-9
        coeffs5, res5 = center_fs_polynomial(5)
        assert res5 < 1e-10
        for got, want in zip(coeffs5, (92 / 36288, 6228 / 36288, 4887 / 36288)):
            assert abs(got - want) < 1e-8

    def test_fs_polynomial_floats_match_lstsq(self):
        # coefficients of the earlier floating-point least-squares fit
        earlier = {1: [0.6666666666666666],
                   3: [-0.08518518518518507, -0.3500000000000001],
                   5: [0.002535273368606728, 0.1716269841269839,
                       0.13467261904761985]}
        for s, want in earlier.items():
            coeffs, _ = center_fs_polynomial(s)
            assert all(type(c) is float for c in coeffs)
            assert len(coeffs) == len(want)
            for got, w in zip(coeffs, want):
                assert abs(got - w) < 1e-12

    def test_prefactor_contracts(self):
        for k in range(1, 10):
            eps = k / 10
            nf = center_normal_form(eps, 4)
            gam = center_gamma(eps)
            want = math.exp(math.sqrt(1 - eps * eps)) / gam
            assert abs(abs(cmath.exp(nf.p_at_z0)) - want) < 1e-13
            assert want < 1.0

    def test_digits_nondecreasing_in_order(self):
        quad = run_example("center", 1)[1].oracle.value
        prev = -1
        for s_count in range(1, 14):
            _, point = run_example("center", s_count)
            digits = agreement_digits(point.value, quad)
            assert digits >= prev
            prev = digits

    def test_eps_range_rejected(self):
        with pytest.raises(ValueError):
            example_problem("center", n=50.0, eps=1.2, terms=5)
        with pytest.raises(ValueError):
            center_gamma(0.0)


class TestParabolic:
    def test_reference_digits(self):
        _, point = run_example("parabolic", 8)
        assert point.oracle.converged
        assert abs(point.oracle.value - PARABOLIC_REF) / abs(PARABOLIC_REF) < 1e-10
        assert point.digits >= 6
        assert f"{point.value.real:.5f}".startswith("-9.35758")

    def test_first_term_grows_with_n(self):
        # leading exponent (0 - 1)/3 < 0: the main term carries N^{1/3}
        expansion, _ = run_example("parabolic", 8)
        assert expansion.terms[0].exponent.real == pytest.approx(-1 / 3)

    def test_s1_term_vanishes_via_dstar(self):
        expansion, _ = run_example("parabolic", 8)
        assert expansion.terms[1].coefficient == 0

    def test_nonzero_pattern(self):
        expansion, _ = run_example("parabolic", 8)
        for t in expansion.terms:
            if t.s % 6 in (0, 2):
                assert abs(t.coefficient) > 1e-12
            else:
                assert abs(t.coefficient) < 1e-13

    def test_digits_nondecreasing_in_order(self):
        quad = run_example("parabolic", 1)[1].oracle.value
        prev = -1
        for s_count in range(1, 9):
            _, point = run_example("parabolic", s_count)
            digits = agreement_digits(point.value, quad)
            assert digits >= prev
            prev = digits


class TestAgreementDigits:
    def test_formula(self):
        assert agreement_digits(1.0 + 1e-7, 1.0) == 6
        assert agreement_digits(1.0, 1.0) == 16
        assert agreement_digits(2.0, 1.0) == 0

    def test_zero_reference(self):
        # two zeros are an underflow, not an agreement
        assert agreement_digits(0.0, 0.0) == 0
        assert agreement_digits(1.0, 0.0) == 0

    def test_non_finite(self):
        assert agreement_digits(math.inf, 1.0) == 0
        assert agreement_digits(math.nan, 1.0) == 0
        assert agreement_digits(1.0, complex(math.inf, 0.0)) == 0

    def test_subnormal_reference(self):
        assert agreement_digits(1.0, 5e-324) == 0

    def test_huge_finite_values(self):
        z = complex(1.5e308, 1.5e308)
        assert agreement_digits(z, z) == 16

    def test_overflowing_difference(self):
        assert agreement_digits(1.5e308, -1.5e308) == 0
        assert agreement_digits(complex(1.5e308, 1.5e308), 1e-300) == 0
