"""Built-in invariant suite behind the ``selftest`` CLI command.

Every check is a named, deterministic verification of one of the
package's core identities: exact combinatorial tables, oracle
equivalences between independent code paths, branch/sector structure
and the special-function constants.  Checks rerun from scratch on
every invocation; a corrupted kernel (say a wrong Bernoulli number)
fails the specific invariant that consumes it.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from . import classic
from . import expansion
from . import problemfile
from . import quadrature
from . import saddle
from . import series
from . import waves
from ._record import Record

__all__ = ["CheckResult", "run_all", "CHECKS"]


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail")


def _random_series(rng, base, order, constant=None):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return series.TruncatedSeries(base, coeffs)


def check_bernoulli_recurrence():
    for m in range(1, 31):
        acc = Fraction(0)
        for k in range(m + 1):
            acc += series.binomial(m + 1, k) * series.bernoulli(k)
        if acc != 0:
            raise AssertionError(f"sum_k C({m+1},k) B_k = {acc} != 0")
    return "orders 1..30 exact"


def check_stirling_recurrence():
    for m in range(1, 21):
        for j in range(1, m + 1):
            lhs = series.stirling2(m, j)
            rhs = j * series.stirling2(m - 1, j) + series.stirling2(m - 1, j - 1)
            if lhs != rhs:
                raise AssertionError(f"S({m},{j}) recurrence broken: {lhs} != {rhs}")
    return "m <= 20 exact"


def _bell_by_compositions(i, j, args):
    if i == 0:
        return Fraction(1) if j == 0 else Fraction(0)
    if j == 0 or j > i:
        return Fraction(0)

    total = Fraction(0)

    def rec(remaining, parts, acc):
        nonlocal total
        if parts == 1:
            if 1 <= remaining <= len(args):
                total += acc * args[remaining - 1]
            return
        for n in range(1, remaining - parts + 2):
            rec(remaining - n, parts - 1, acc * args[n - 1])

    rec(i, j, Fraction(1))
    return total


def check_bell_two_forms():
    rng = random.Random(11)
    for trial in range(6):
        args = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(7)]
        for i in range(8):
            for j in range(i + 1):
                fast = series.bell_hat(i, j, args)
                slow = _bell_by_compositions(i, j, args)
                if fast != slow:
                    raise AssertionError(
                        f"B^_{i},{j} mismatch: table {fast} vs compositions {slow}")
    return "6 random rational argument sets, i <= 7, exact"


def check_ring_laws():
    rng = random.Random(12)
    worst = 0.0
    for _ in range(10):
        f = _random_series(rng, 0.3 - 0.2j, 8)
        g = _random_series(rng, 0.3 - 0.2j, 8)
        h = _random_series(rng, 0.3 - 0.2j, 8)
        assoc = (f * g) * h - f * (g * h)
        dist = f * (g + h) - (f * g + f * h)
        scale = max(max(abs(c) for c in (f * g * h).coeffs), 1.0)
        worst = max(worst,
                    max(abs(c) for c in assoc.coeffs) / scale,
                    max(abs(c) for c in dist.coeffs) / scale)
    if worst > 1e-12:
        raise AssertionError(f"ring law deviation {worst:.3g} > 1e-12")
    return f"max deviation {worst:.3g}"


def check_cpow_addition():
    rng = random.Random(14)
    worst = 0.0
    for _ in range(8):
        f = _random_series(rng, 0.0, 9, constant=1.0)
        t1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = f.cpow(t1) * f.cpow(t2)
        rhs = f.cpow(t1 + t2)
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)))
    if worst > 1e-11:
        raise AssertionError(f"cpow addition law deviates by {worst:.3g}")
    return f"max deviation {worst:.3g}"


def check_series_functions():
    # f = z/2 - z^2/3 + z^3, f(0) = 0: exact identities to order 20
    f = series.TruncatedSeries(0, [0, Fraction(1, 2), Fraction(-1, 3), 1] + [0] * 17)
    s, c = series.sin(f), series.cos(f)
    for name, lhs, rhs in (("sin^2 + cos^2", s * s + c * c, f * 0 + 1),
                           ("exp(log(1 + f))", series.exp(series.log(1 + f)), 1 + f),
                           ("log(exp(f))", series.log(series.exp(f)), f)):
        if lhs.coeffs != rhs.coeffs or type(lhs.coeffs[-1]) is not Fraction:
            raise AssertionError(f"{name} is not exact to order 20")
    return "sin^2 + cos^2 = 1, exp(log(1 + f)) = 1 + f, log(exp(f)) = f exact"


def _random_instance(rng, mu, order):
    z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    coeffs = [0.0] * (mu) + [
        complex(rng.uniform(0.4, 1.5) * rng.choice([-1, 1]),
                rng.uniform(-0.5, 0.5))] + [
        complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        for _ in range(order)]
    p = series.TruncatedSeries(z0, coeffs)
    q = _random_series(rng, z0, mu + order)
    return saddle.normalize(p), q


def check_alpha_routes_agree():
    rng = random.Random(15)
    exponents = [1, Fraction(1, 2), -1, 0.3 + 0.7j]
    worst = 0.0
    for trial in range(40):
        mu = rng.randint(1, 4)
        nf, q = _random_instance(rng, mu, 9)
        a = exponents[trial % len(exponents)]
        s_count = rng.randint(3, 8)
        bell = expansion.alpha_bell(nf, q, a, s_count)
        direct = expansion.alpha_direct(nf, q, a, s_count)
        scale = max(max(abs(x) for x in bell.alphas), 1e-12)
        dev = max(abs(x - y) for x, y in zip(bell.alphas, direct.alphas)) / scale
        worst = max(worst, dev)
    if worst > 1e-10:
        raise AssertionError(f"alpha route disagreement {worst:.3g} > 1e-10")
    return f"40 instances, max relative deviation {worst:.3g}"


def check_stirling_table():
    expected = [Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840)]
    got = classic.gamma_stirling(3)
    if got != expected:
        raise AssertionError(f"Stirling corrections {got} != {expected}")
    return "1/12, 1/288, -139/51840 exact"


def check_kepler_table():
    expected = {0: Fraction(1), 2: Fraction(1, 20), 4: Fraction(1, 280),
                6: Fraction(1, 3600), 8: Fraction(387, 17248000)}
    got = classic.kepler_d_table(8)
    for s, val in expected.items():
        if got[s] != val:
            raise AssertionError(f"d({s}) = {got[s]} != {val}")
    if any(got[s] != 0 for s in (1, 3, 5, 7)):
        raise AssertionError("odd d(s) must vanish")
    return "d(0)..d(8) exact"


def check_parabolic_table():
    expected = {0: Fraction(2), 2: Fraction(1, 5), 4: Fraction(27, 1400),
                6: Fraction(23, 12600), 8: Fraction(947, 5544000)}
    got = classic.parabolic_d_table(8)
    for s, val in expected.items():
        if got[s] != val:
            raise AssertionError(f"d*({s}) = {got[s]} != {val}")
    return "d*(0)..d*(8) exact"


def check_even_opposite_structure():
    # negative quadratic coefficient: real maximum, p0 > 0, omega0 = 0
    rng = random.Random(16)
    coeffs = [0.0, 0.0, -rng.uniform(0.5, 1.5)] + [
        rng.uniform(-0.3, 0.3) for _ in range(8)]
    nf = saddle.normalize(series.TruncatedSeries(0.0, [complex(c) for c in coeffs]))
    q = series.TruncatedSeries(0.0, [complex(rng.uniform(-1, 1)) for _ in range(9)])
    alphas = expansion.alpha_bell(nf, q, 1, 8)
    exp = expansion.assemble(alphas, nf, expansion.EvenOpposite(0))
    for term in exp.terms:
        if term.s % 2 == 1 and term.coefficient != 0:
            raise AssertionError(f"odd term s={term.s} is {term.coefficient}")
        if term.s % 2 == 0 and abs(term.coefficient.imag) > 1e-12 * abs(term.coefficient):
            raise AssertionError(f"real-data term s={term.s} not real")
    return "odd terms exactly zero, even terms real"


def check_equal_sector_cancellation():
    rng = random.Random(17)
    nf, q = _random_instance(rng, 3, 8)
    alphas = expansion.alpha_bell(nf, q, 1, 6)
    exp = expansion.assemble(alphas, nf, expansion.Through(2, 2))
    if any(t.coefficient != 0 for t in exp.terms):
        raise AssertionError("equal entry/exit sectors must cancel exactly")
    return "all terms exactly zero"


def check_vanishing_shift():
    rng = random.Random(18)
    for m in (1, 2, 3):
        nf, psi = _random_instance(rng, 2, 9)
        q_coeffs = (0.0 + 0.0j,) * m + psi.coeffs
        q = series.TruncatedSeries(nf.z0, q_coeffs[: nf.phi.order + 1])
        report = expansion.vanishing_shift(nf, q, 1, m)
        if not report.leading_alphas_zero:
            raise AssertionError(f"alpha_0..alpha_{m-1} not zero at m={m}")
        if report.max_abs_error > 1e-11:
            raise AssertionError(
                f"shift identity off by {report.max_abs_error:.3g} at m={m}")
    return "m in {1,2,3}"


def check_degenerate_constant():
    eps = 0.4
    problem = problemfile.example_problem("center", eps=eps, terms=3).problem
    nf = problem.normal_form
    alphas = expansion.alpha_bell(nf, problem.q, problem.a, problem.order)
    c0 = expansion.assemble(alphas, nf, problem.branch).terms[0].coefficient
    target = math.pi / math.sqrt(1.0 - eps * eps)
    if abs(c0 - target) > 1e-12 * target:
        raise AssertionError(f"degenerate term {c0} != pi/sqrt(1-eps^2) = {target}")
    return "replacement rule reproduces pi/sqrt(1-eps^2)"


def check_normal_form_roundtrip():
    rng = random.Random(19)
    worst = 0.0
    for mu in (1, 2, 3, 4):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))] + [0.0] * (mu - 1) + [
            complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))] + [
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            for _ in range(7)]
        p = series.TruncatedSeries(0.2 + 0.1j, coeffs)
        nf = saddle.normalize(p)
        if nf.mu != mu:
            raise AssertionError(f"detected mu {nf.mu} != {mu}")
        rebuilt = nf.reconstruct()
        scale = max(abs(c) for c in p.coeffs)
        dev = max(abs(a - b) for a, b in zip(rebuilt.coeffs, p.coeffs)) / scale
        worst = max(worst, dev)
    if worst > 1e-12:
        raise AssertionError(f"round trip deviation {worst:.3g} > 1e-12")
    return f"mu in {{1,2,3,4}}; max relative deviation {worst:.3g}"


def check_dilog_identities():
    v = waves.dilog(0.5)
    target = math.pi ** 2 / 12 - math.log(2.0) ** 2 / 2
    if abs(v - target) > 1e-13:
        raise AssertionError(f"Li2(1/2) = {v} != {target}")
    rng = random.Random(20)
    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-2, 0.95), rng.uniform(-2, 2))
        if abs(z) < 1e-3 or abs(1 - z) < 1e-3 or abs(z.imag) < 1e-6:
            continue
        lhs = (waves.dilog(z) + waves.dilog(1 - z)
               + cmath.log(z) * cmath.log(1 - z))
        worst = max(worst, abs(lhs - math.pi ** 2 / 6))
    if worst > 1e-12:
        raise AssertionError(f"reflection identity off by {worst:.3g}")
    return f"reflection residual {worst:.3g}"


def check_wave_constants():
    wc = waves.solve_constants()
    if wc.residual > 1e-12:
        raise AssertionError(f"defining equation residual {wc.residual:.3g}")
    if abs(wc.w0 - (0.916198 - 0.182459j)) > 1.5e-6:
        raise AssertionError(f"w0 = {wc.w0}")
    if abs(wc.z0_wave - (1.181475 + 0.255528j)) > 1.5e-6:
        raise AssertionError(f"z0 = {wc.z0_wave}")
    if abs(cmath.exp(2j * math.pi * wc.z0_wave) - (1 - wc.w0)) > 1e-12:
        raise AssertionError("e^{2 pi i z0} != 1 - w0")
    return "w0, z0 to 6 decimals; residual below 1e-12"


def check_wave_leading_coefficient():
    wc = waves.solve_constants()
    we = waves.wave_coefficients(1, 0)
    closed = 2 * wc.z0_wave * cmath.exp(-1j * math.pi * wc.z0_wave * 3)
    f0 = waves.f_lambda_series(1, 6).coeffs[0]
    via_alpha = -2j * math.sqrt(math.pi) * f0 / cmath.sqrt(wc.p0_wave)
    dev = max(abs(we.coeffs[0] - closed), abs(we.coeffs[0] - via_alpha))
    if dev > 1e-9:
        raise AssertionError(f"a_0 routes disagree by {dev:.3g}")
    return f"three a_0 routes agree to {dev:.3g}"


def check_branch_periodicity():
    rng = random.Random(21)
    nf, q = _random_instance(rng, 3, 7)
    alphas = expansion.alpha_bell(nf, q, 1, 6)
    e1 = expansion.assemble(alphas, nf, expansion.Endpoint(1))
    e2 = expansion.assemble(alphas, nf, expansion.Endpoint(1 + nf.mu))
    worst = max(abs(a.coefficient - b.coefficient)
                for a, b in zip(e1.terms, e2.terms))
    if worst > 1e-12:
        raise AssertionError(f"k and k+mu differ by {worst:.3g} for integer a")
    return f"max deviation {worst:.3g}"


def check_theta_structure():
    rng = random.Random(22)
    nf, _ = _random_instance(rng, 3, 5)
    for ell in range(-3, 4):
        gap = saddle.theta(nf, ell + nf.mu) - saddle.theta(nf, ell) - 2 * math.pi
        if abs(gap) > 1e-13:
            raise AssertionError(f"theta period broken at ell={ell}")
        cls = saddle.classify_direction(nf, saddle.theta(nf, ell))
        if cls.kind != "valley":
            raise AssertionError(f"descent angle {ell} not a valley")
    return "period 2 pi; descent angles are valleys"


def check_quadrature_residue():
    circle = quadrature.Contour(
        [quadrature.Arc(0.0, 1.0, 0.0, 2 * math.pi)])
    res = quadrature.integrate(lambda z: 1.0 / z, circle)
    if abs(res.value - 2j * math.pi) > 1e-12:
        raise AssertionError(f"circle integral of 1/z = {res.value}")
    rev = quadrature.integrate(lambda z: 1.0 / z, circle.reversed())
    if abs(rev.value + res.value) > 1e-12:
        raise AssertionError("orientation reversal does not negate")
    return "residue 2 pi i; reversal negates"



def check_quadrature_branch():
    # z0 close inside the circle lies between the arc and its longer
    # chords, where an unwrap along chords would be off by 2 pi
    z0 = 0.985 * cmath.exp(1j * math.pi / 16)
    circle = quadrature.Contour([quadrature.Arc(0.0, 1.0, 0.0, 2 * math.pi)])
    worst = 0.0
    for a in (0.5, 0.3 + 0.7j):
        res = quadrature.integrate_power_factor(lambda z: 1.0, a, z0, circle)
        exact = (1 - z0) ** a * (cmath.exp(2j * math.pi * a) - 1) / a
        dev = abs(res.value - exact) / abs(exact)
        if not res.converged or dev > 1e-12:
            raise AssertionError(f"loop about z0 at a = {a}: {res.value} "
                                 f"!= (1 - z0)^a (e^(2 pi i a) - 1)/a = {exact}")
        worst = max(worst, dev)
    return f"a = 1/2 and 0.3+0.7i round |z0| = 0.985; max relative deviation {worst:.3g}"

CHECKS = (
    ("bernoulli-recurrence", check_bernoulli_recurrence),
    ("stirling-recurrence", check_stirling_recurrence),
    ("bell-polynomial-forms", check_bell_two_forms),
    ("series-ring-laws", check_ring_laws),
    ("series-cpow-addition", check_cpow_addition),
    ("series-functions", check_series_functions),
    ("alpha-route-agreement", check_alpha_routes_agree),
    ("stirling-table", check_stirling_table),
    ("kepler-table", check_kepler_table),
    ("parabolic-table", check_parabolic_table),
    ("even-opposite-structure", check_even_opposite_structure),
    ("equal-sector-cancellation", check_equal_sector_cancellation),
    ("vanishing-shift", check_vanishing_shift),
    ("degenerate-constant", check_degenerate_constant),
    ("normal-form-roundtrip", check_normal_form_roundtrip),
    ("dilog-identities", check_dilog_identities),
    ("wave-constants", check_wave_constants),
    ("wave-leading-coefficient", check_wave_leading_coefficient),
    ("branch-periodicity", check_branch_periodicity),
    ("theta-structure", check_theta_structure),
    ("quadrature-residue", check_quadrature_residue),
    ("quadrature-branch", check_quadrature_branch),
)


def run_all() -> list:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - report, never crash the suite
            results.append(CheckResult(name, False, str(exc)))
    return results
