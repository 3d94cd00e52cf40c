"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one line naming the criterion and its outcome; the
assertions enforce the exact tolerances and runtime ceilings.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from saddlepoint.classic import (agreement_digits, center_d_values,
                                 gamma_contour, gamma_normal_form,
                                 gamma_stirling, kepler_d_table,
                                 parabolic_d_table)
from saddlepoint.expansion import (EvenOpposite, Through, alpha_bell,
                                   alpha_direct, assemble, vanishing_shift)
from saddlepoint.problemfile import example_problem, run_problem
from saddlepoint.quadrature import builtin_integrand, integrate
from saddlepoint.saddle import normalize, theta
from saddlepoint.series import TruncatedSeries
from saddlepoint.waves import (p_wave_series, solve_constants,
                               wave_coefficients, wave_main_term)
from test_expansion import random_instance


def _report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def _sig8(x: float) -> str:
    return f"{x:.8g}"


def _example(name, terms, eps=0.4):
    """The built-in example at N = 50: (expansion, validation point)."""
    example = example_problem(name, n=50.0, eps=eps, terms=terms)
    run = run_problem(example.problem, example.rel_tol)
    return run.expansion, run.validations[0]


def test_criterion_1_exact_tables():
    start = time.perf_counter()
    ok = gamma_stirling(3) == [Fraction(1, 12), Fraction(1, 288),
                               Fraction(-139, 51840)]
    d = kepler_d_table(8)
    ok &= (d[0], d[2], d[4], d[6], d[8]) == (
        Fraction(1), Fraction(1, 20), Fraction(1, 280), Fraction(1, 3600),
        Fraction(387, 17248000))
    ds = parabolic_d_table(8)
    ok &= (ds[0], ds[2], ds[4], ds[6], ds[8]) == (
        Fraction(2), Fraction(1, 5), Fraction(27, 1400), Fraction(23, 12600),
        Fraction(947, 5544000))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, ok, f"exact rational tables in {elapsed:.3f}s")


def test_criterion_2_kepler_agreement():
    start = time.perf_counter()
    _, point = _example("kepler", 10)
    rel = abs(point.value - point.oracle.value) / abs(point.oracle.value)
    elapsed = time.perf_counter() - start
    ok = (_sig8(point.value.real) == "0.76283538"
          and _sig8(point.oracle.value.real) == "0.76283538"
          and rel <= 5e-9
          and point.oracle.converged
          and elapsed < 30.0)
    _report(2, ok, f"N=50 S=10 rel={rel:.2e} in {elapsed:.1f}s")


def test_criterion_3_center_agreement():
    start = time.perf_counter()
    _, long = _example("center", 13)
    _, short = _example("center", 5)
    elapsed = time.perf_counter() - start
    quad_ok = abs(long.oracle.value - 2.8171413884e-14) / 2.8171413884e-14 < 1e-10
    d5 = agreement_digits(short.value, long.oracle.value)
    d13 = agreement_digits(long.value, long.oracle.value)
    ok = (quad_ok and d5 >= 5 and d13 >= 10
          and f"{short.value.real:.4e}".startswith("2.8171")
          and long.oracle.converged and elapsed < 60.0)
    _report(3, ok, f"N=50 eps=2/5: S=5 -> {d5} digits, S=13 -> {d13} digits "
                   f"in {elapsed:.1f}s")


def test_criterion_4_parabolic_agreement():
    start = time.perf_counter()
    _, point = _example("parabolic", 8)
    elapsed = time.perf_counter() - start
    quad_ok = abs(point.oracle.value - (-9.357585773084)) / 9.357585773084 < 1e-10
    ok = (quad_ok
          and f"{point.value.real:.5f}".startswith("-9.35758")
          and point.digits >= 6
          and point.oracle.converged and elapsed < 60.0)
    _report(4, ok, f"N=50 S=8 -> {point.digits} digits "
                   f"in {elapsed:.1f}s")


def test_criterion_5_polynomial_structure():
    worst = 0.0
    for k in range(1, 10):
        eps = k / 10.0
        x = eps * eps
        d = center_d_values(eps, 3)
        worst = max(worst, abs(d[1].real * (1 - x) - 2.0 / 3.0),
                    abs(d[1].imag), abs(d[3].imag),
                    abs(d[3].real * (1 - x) ** 2 + (46 + 189 * x) / 540))
    ok = worst < 1e-12
    _report(5, ok, f"d(1), d(3) structure, max deviation {worst:.2e}")


def test_criterion_6_wave_constants():
    wc = solve_constants()
    nf = normalize(p_wave_series(10))
    ok = (abs(wc.w0 - (0.916198 - 0.182459j)) < 1e-6
          and abs(wc.z0_wave - (1.181475 + 0.255528j)) < 1e-6
          and abs(wc.p0_wave.real - 0.504) < 5e-4
          and abs(wc.p0_wave.imag + 0.241) < 5e-4
          and abs(theta(nf, 0) - 0.223) < 5e-4
          and abs(1 / abs(wc.w0) - math.exp(0.068)) < 5e-4)
    _report(6, ok, f"w0={wc.w0:.6f}, z0={wc.z0_wave:.6f}, "
                   f"p0={wc.p0_wave:.3f}, theta0={theta(nf, 0):.3f}")


def test_criterion_7_wave_main_terms():
    one = wave_main_term(1, 2000, 1)
    three = wave_main_term(1, 2000, 3)
    wc = solve_constants()
    a0 = wave_coefficients(1, 0).coeffs[0]
    closed = 2 * wc.z0_wave * cmath.exp(-3j * math.pi * wc.z0_wave)
    ok = (abs(one - 4.56e53) < 0.005e53
          and abs(three - 4.37e53) < 0.005e53
          and abs(a0 - closed) < 1e-9 * abs(closed))
    _report(7, ok, f"1 term = {one:.3e}, 3 terms = {three:.3e}, "
                   f"a0 deviation {abs(a0 - closed):.2e}")


def test_criterion_8_property_suite():
    rng = random.Random(314159)
    exponents = [1, Fraction(1, 2), -1, 0.3 + 0.7j]
    worst = 0.0
    for trial in range(200):
        mu = rng.randint(1, 4)
        nf, q = random_instance(rng, mu)
        a = exponents[trial % 4]
        s_count = rng.randint(2, 8)
        bell = alpha_bell(nf, q, a, s_count)
        direct = alpha_direct(nf, q, a, s_count)
        scale = max(max(abs(x) for x in bell.alphas), 1e-12)
        worst = max(worst, max(abs(x - y) for x, y in
                               zip(bell.alphas, direct.alphas)) / scale)
    routes_ok = worst < 1e-10

    nf2, q2 = random_instance(rng, 2)
    even = assemble(alpha_bell(nf2, q2, 1, 8), nf2, EvenOpposite(0))
    even_ok = all(t.coefficient == 0 for t in even.terms if t.s % 2 == 1)

    nf3, q3 = random_instance(rng, 3)
    same = assemble(alpha_bell(nf3, q3, 1, 6), nf3, Through(2, 2))
    same_ok = all(t.coefficient == 0 for t in same.terms)

    shift_ok = True
    for m in (1, 2, 3):
        nfm, psim = random_instance(rng, 2)
        qm = TruncatedSeries(nfm.z0,
                             ((0.0,) * m + psim.coeffs)[: nfm.phi.order + 1])
        rep = vanishing_shift(nfm, qm, 1, m)
        shift_ok &= rep.passed

    eps = 0.4
    degen = _example("center", 3, eps)[0].terms[0].coefficient
    degen_ok = abs(degen - math.pi / math.sqrt(1 - eps * eps)) \
        < 1e-12 * math.pi / math.sqrt(1 - eps * eps)

    ok = routes_ok and even_ok and same_ok and shift_ok and degen_ok
    _report(8, ok, f"route deviation {worst:.2e}; parity, cancellation, "
                   f"shift, degenerate constant all hold")


def test_criterion_9_error_order():
    nf = gamma_normal_form(8)
    q = TruncatedSeries.constant(1.0, 1.0, 8)
    expansion = assemble(alpha_bell(nf, q, 1, 6), nf, EvenOpposite(0))
    ratios = {}
    for s_terms in (2, 4):
        scaled = []
        for n in (25.0, 50.0, 100.0, 200.0, 400.0):
            quad = integrate(builtin_integrand("gamma", n=n), gamma_contour(),
                             abs_tol=0.0, rel_tol=1e-12)
            partial = expansion.partial_sum(n, s_terms)
            remainder = abs(quad.value * math.exp(n) - partial)
            scaled.append(remainder * n ** ((s_terms + 1) / 2))
        ratios[s_terms] = max(scaled) / min(scaled)
    ok = all(r < 4.0 for r in ratios.values())
    _report(9, ok, f"scaled remainder spread: S=2 -> {ratios[2]:.2f}x, "
                   f"S=4 -> {ratios[4]:.2f}x (limit 4x)")
