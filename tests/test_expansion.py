"""Coefficient routes, branch assembly, degenerate rule, shift identity."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest

from saddlepoint import classic
from saddlepoint.classic import gamma_normal_form
from saddlepoint.expansion import (CirclePath, Endpoint, EvenOpposite, Through,
                                   _cgamma, _warn_near_pole, alpha_bell,
                                   alpha_direct, assemble, bell_sums,
                                   term_factors, vanishing_shift)
from saddlepoint.problemfile import example_problem
from saddlepoint.saddle import normalize
from saddlepoint.series import TruncatedSeries, bell_hat_table


def random_instance(rng, mu, order=9):
    z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    coeffs = ([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
              + [0.0] * (mu - 1)
              + [complex(rng.uniform(0.4, 1.5) * rng.choice([-1, 1]),
                         rng.uniform(-0.5, 0.5))]
              + [complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                 for _ in range(order)])
    p = TruncatedSeries(z0, coeffs)
    q = TruncatedSeries(z0, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                             for _ in range(mu + order + 1)])
    return normalize(p), q


def kepler_nf(order=12):
    coeffs = [0.0 + 0.0j] * (order + 4)
    for k in range(3, order + 4, 2):
        coeffs[k] = -1j * (-1) ** ((k - 1) // 2) / math.factorial(k)
    return normalize(TruncatedSeries(0.0, coeffs))


class TestAlphaFormulas:
    def test_alpha0_closed_form(self):
        # alpha_0 = p0^{-1/mu} q0 / mu
        rng = random.Random(31)
        for mu in (1, 2, 3, 4):
            nf, q = random_instance(rng, mu)
            got = alpha_bell(nf, q, 1, 1).alphas[0]
            want = cmath.exp(-cmath.log(nf.p0) / mu) * q.coeffs[0] / mu
            assert abs(got - want) < 1e-13 * max(1, abs(want))

    def test_alpha1_closed_form(self):
        # alpha_1 = (1/mu) p0^{-2/mu} (-2 p1 q0 / (mu p0) + q1)
        rng = random.Random(32)
        for mu in (1, 2, 3):
            nf, q = random_instance(rng, mu)
            p1 = -nf.phi.coeffs[1] * nf.p0
            want = (cmath.exp(-2 * cmath.log(nf.p0) / mu) / mu
                    * (-2 * p1 * q.coeffs[0] / (mu * nf.p0) + q.coeffs[1]))
            got = alpha_bell(nf, q, 1, 2).alphas[1]
            assert abs(got - want) < 1e-12 * max(1, abs(want))

    def test_kepler_alpha_structure(self):
        # alpha_s = e^{pi i (s+1)/6} 6^{(s+1)/3} d(s) / 3 with the known
        # rational d table
        from saddlepoint.classic import kepler_d_table
        nf = kepler_nf()
        q = TruncatedSeries.constant(1.0, 0.0, 12)
        alphas = alpha_bell(nf, q, 1, 10)
        d = kepler_d_table(9)
        for s in range(10):
            want = (cmath.exp(1j * math.pi * (s + 1) / 6)
                    * 6.0 ** ((s + 1) / 3) * float(d[s]) / 3)
            assert abs(alphas.alphas[s] - want) < 1e-13 * max(1, abs(want))

    def test_trivial_phase(self):
        # phi = 0, q = 1: alpha_0 = p0^{-1/mu}/mu and nothing else
        nf = normalize(TruncatedSeries(0.0, [0, 0, -2.0, 0, 0, 0, 0, 0]))
        q = TruncatedSeries.constant(1.0, 0.0, 5)
        alphas = alpha_direct(nf, q, 1, 6)
        assert abs(alphas.alphas[0] - 2.0 ** (-0.5) / 2) < 1e-15
        assert all(abs(a) < 1e-15 for a in alphas.alphas[1:])

    def test_parabolic_dstar_structure(self):
        from saddlepoint.classic import parabolic_d_table, parabolic_q_table
        nf = kepler_nf()
        q = TruncatedSeries(0.0, [complex(x) for x in parabolic_q_table(12)])
        alphas = alpha_direct(nf, q, -1, 10)
        d = parabolic_d_table(9)
        for s in range(10):
            want = (cmath.exp(1j * math.pi * (s - 1) / 6)
                    * 6.0 ** ((s - 1) / 3) * float(d[s]) / 3)
            assert abs(alphas.alphas[s] - want) < 1e-13 * max(1, abs(want))

    def test_bell_sums_exact_matches_float(self):
        # rational data stays exact; complex a or q takes the float path
        rng = random.Random(34)

        def rat():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        for trial in range(120):
            mu = rng.randint(1, 4)
            a = [1, Fraction(1, 2), -1, Fraction(-2, 3)][trial % 4]
            s_count = rng.randint(1, 10)
            q = [rat() for _ in range(s_count)]
            ratios = [rat() for _ in range(s_count - 1)]
            exact = bell_sums(q, ratios, a, mu, s_count)
            assert all(type(c) is Fraction for c in exact)
            scale = max(abs(c) for c in exact)
            for floats in (bell_sums([complex(c) for c in q], ratios, a, mu, s_count),
                           bell_sums(q, ratios, complex(a), mu, s_count)):
                assert all(type(c) is complex for c in floats)
                for e, f in zip(exact, floats):
                    assert abs(f - complex(e)) <= 1e-12 * (abs(e) or scale)

    def test_under_resolved_rejected(self):
        nf, q = random_instance(random.Random(33), 2, order=3)
        with pytest.raises(ValueError, match="resolved"):
            alpha_bell(nf, q, 1, 12)
        with pytest.raises(ValueError, match="resolved"):
            alpha_direct(nf, q, 1, 12)

    @pytest.mark.parametrize("s_count", [20, 40])
    def test_direct_prefix_independent_of_count(self, s_count):
        nf = gamma_normal_form(s_count + 2)
        q = TruncatedSeries.constant(1.0, nf.z0, s_count)
        assert (alpha_direct(nf, q, 1, s_count).alphas[:10]
                == alpha_direct(nf, q, 1, 10).alphas)


class TestOracleEquivalence:
    def test_routes_agree_on_200_instances(self):
        rng = random.Random(34)
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
            dev = max(abs(x - y) for x, y in
                      zip(bell.alphas, direct.alphas)) / scale
            worst = max(worst, dev)
        assert worst < 1e-10, worst


# ----------------------------------------------------------------------
# The expansion as computed before the exponents became one list per
# call, alpha_direct called Miller's list kernel and the float Bell sums
# became a fold over power rows: each exponent a Fraction (exact a) or
# complex, converted where used, one truncated series powered per order
# (cpow itself is checked against the dense recurrence in test_series),
# and the float Bell sums over the Bell table.  The references the
# bit-identity and accuracy tests use.
# ----------------------------------------------------------------------

def reference_exponent(s, a, mu):
    if isinstance(a, (int, Fraction)):
        return (Fraction(a) + s) / mu
    return (complex(a) + s) / mu


def reference_alpha_direct(nf, q, a, s_count):
    base = nf.one_minus_phi()
    out = []
    for s in range(s_count):
        e_s = reference_exponent(s, a, nf.mu)
        w = base.truncate(s).cpow(-complex(e_s)).coeffs
        c_s = sum(q.coeffs[s - i] * w[i] for i in range(s + 1))
        out.append(cmath.exp(-complex(e_s) * cmath.log(nf.p0)) * c_s / nf.mu)
    return tuple(out)


def reference_float_bell_sums(q, ratios, a, mu, s_count):
    table = bell_hat_table(s_count - 1, ratios)
    out = []
    for s in range(s_count):
        tau = -(complex(reference_exponent(s, a, mu)))
        binoms, falling = [], complex(1)
        for j in range(s + 1):
            binoms.append(falling / math.factorial(j))
            falling = falling * (tau - j)
        acc = complex(0)
        for i in range(s + 1):
            qc = q[s - i]
            if qc == 0:
                continue
            bsum = complex(0)
            for j in range(i + 1):
                b = table[i][j]
                if b == 0:
                    continue
                bsum += binoms[j] * b
            acc += qc * bsum
        out.append(acc)
    return out


def reference_alpha_bell(nf, q, a, s_count):
    ratios = [-c for c in nf.phi.coeffs[1:s_count]]
    sums = reference_float_bell_sums(q.coeffs, ratios, a, nf.mu, s_count)
    return tuple([cmath.exp(-complex(reference_exponent(s, a, nf.mu))
                            * cmath.log(nf.p0)) * c / nf.mu
                  for s, c in enumerate(sums)])


def reference_phase(k, e_s):
    quarters = 4 * k * complex(e_s)
    if quarters.imag == 0 and quarters.real.is_integer():
        return (1 + 0j, 1j, -1 + 0j, -1j)[int(quarters.real) % 4]
    return cmath.exp(2j * math.pi * k * complex(e_s))


def reference_assemble(alphas, nf, branch):
    """[(s, exponent, coefficient)] of each term."""
    mu, a = nf.mu, alphas.a
    if isinstance(branch, EvenOpposite):
        branch = Through(branch.k + mu // 2, branch.k)
    k_in, k_out = ((None, branch.k) if isinstance(branch, Endpoint)
                   else (branch.k1, branch.k2))
    terms = []
    for s, alpha in enumerate(alphas.alphas):
        e_s = reference_exponent(s, a, mu)
        e = complex(e_s)
        if e.imag == 0 and e.real <= 0 and e.real.is_integer():
            m = int(e.real)
            if not isinstance(branch, CirclePath):
                raise ValueError(
                    f"exponent (s+a)/mu = {m} at s = {s} hits a Gamma "
                    f"pole; only a circling path has a finite replacement")
            coeff = (2j * math.pi * branch.winding * (-1.0) ** m
                     / math.factorial(abs(m))) * alpha
        else:
            if not isinstance(e_s, Fraction):
                _warn_near_pole(complex(e_s), s)
            phases = reference_phase(k_out, e_s)
            if k_in is not None:
                phases -= reference_phase(k_in, e_s)
            coeff = 0j if phases == 0 else _cgamma(complex(e_s)) * alpha * phases
        terms.append((s, complex(e_s), complex(coeff)))
    return terms


def first_off(got, want, tol=1e-12):
    """First s with got[s] more than tol off want[s], relative to |want[s]|
    (to the largest |want| where want[s] = 0); len(got) if there is none."""
    scale = max(abs(w) for w in want)
    for s, (g, w) in enumerate(zip(got, want)):
        if not abs(g - complex(w)) <= tol * (abs(w) or scale):
            return s
    return len(got)


def bits(x):
    """repr tells -0.0 from 0.0, so equal reprs are equal bits."""
    return repr(x)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised, with the
    messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except ValueError as exc:
            value = (type(exc), str(exc))
    return value, [str(w.message) for w in caught]


WORKED = [("gamma", {}), ("kepler", {}), ("parabolic", {}),
          ("center", {"eps": 0.1}), ("center", {"eps": 0.4}),
          ("center", {"eps": 0.7})]


class TestBitIdentity:
    @pytest.mark.parametrize("s_count", [10, 40, 80])
    @pytest.mark.parametrize("name, params", WORKED,
                             ids=["gamma", "kepler", "parabolic", "center-0.1",
                                  "center-0.4", "center-0.7"])
    def test_worked_problems(self, name, params, s_count):
        terms = s_count // 2 if name == "gamma" else s_count   # gamma: order 2t+1
        problem = example_problem(name, terms=terms, **params).problem
        nf, q, a = problem.normal_form, problem.q, problem.a
        direct = alpha_direct(nf, q, a, s_count)
        assert bits(direct.alphas) == bits(reference_alpha_direct(nf, q, a, s_count))
        # the Bell fold moves at rounding level: wherever the table sum
        # is within 1e-13 of the direct route, the fold is within 1e-12
        bell = alpha_bell(nf, q, a, s_count)
        table = reference_alpha_bell(nf, q, a, s_count)
        for s, (x, old, want) in enumerate(zip(bell.alphas, table, direct.alphas)):
            if abs(old - want) <= 1e-13 * abs(want):
                assert abs(x - want) <= 1e-12 * abs(want), s
        got = [(t.s, t.exponent, t.coefficient)
               for t in assemble(bell, nf, problem.branch).terms]
        assert bits(got) == bits(reference_assemble(bell, nf, problem.branch))

    def test_random_instances(self):
        rng = random.Random(211)
        exponents = [1, Fraction(1, 2), -1, 0.3 + 0.7j]
        for trial in range(40):
            mu = rng.randint(1, 4)
            order = rng.randint(1, 25)
            nf, q = random_instance(rng, mu, order)
            a = exponents[trial % 4]
            s_count = rng.randint(1, order + 1)
            assert (bits(alpha_direct(nf, q, a, s_count).alphas)
                    == bits(reference_alpha_direct(nf, q, a, s_count)))

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_every_branch_variant(self, mu):
        # a = -2 and -2.0 meet Gamma poles (replacement or error), and
        # -2.0 + 1e-12 draws the near-pole warning
        rng = random.Random(212 + mu)
        nf, q = random_instance(rng, mu, 12)
        branches = [Endpoint(0), Endpoint(1), Through(1, 0), Through(2, 2),
                    CirclePath(1, 0), CirclePath(0, 3), CirclePath(1, 2)]
        if mu % 2 == 0:
            branches += [EvenOpposite(0), EvenOpposite(1)]
        for a in (1, 2, Fraction(1, 2), Fraction(-7, 3), -1, -2, -2.0,
                  -2.0 + 1e-12, 0.3 + 0.7j, 2.5):
            alphas = alpha_bell(nf, q, a, 12)
            for branch in branches:
                got, got_warned = outcome(assemble, alphas, nf, branch)
                want, want_warned = outcome(reference_assemble, alphas, nf,
                                            branch)
                if not isinstance(want, tuple):
                    assert got.a == a and got.p_at_z0 == nf.p_at_z0
                    got = [(t.s, t.exponent, t.coefficient) for t in got.terms]
                assert bits(got) == bits(want), (a, branch)
                assert got_warned == want_warned


class TestFloatBellAccuracy:
    """The float Bell sums against exact sums on the same rational data,
    and against the table sum they replaced."""

    def test_random_rational_instances(self):
        # q_i >= 0, ratios <= 0 and tau_s < 0 make every term
        # C(tau_s, j) [x^s] q P^j >= 0: no cancellation, so the float sum
        # must be exact to rounding for any number of terms
        rng = random.Random(213)

        def rat():
            return Fraction(rng.randint(0, 999), rng.randint(1, 999))

        for trial in range(60):
            mu = rng.randint(1, 4)
            a = (1, Fraction(1, 2), Fraction(1, 3), 2)[trial % 4]
            s_count = rng.randint(1, 40)
            q = [rat() for _ in range(s_count)]
            ratios = [-rat() for _ in range(s_count - 1)]
            exact = bell_sums(q, ratios, a, mu, s_count)
            floats = bell_sums([complex(c) for c in q],
                               [complex(c) for c in ratios], a, mu, s_count)
            assert first_off(floats, exact) == s_count

    @pytest.mark.parametrize("a", [1, -1], ids=["kepler", "parabolic"])
    def test_sine_phase_to_30(self, a):
        s_count = 31
        ratios = classic._ratios(classic.sine_phase, 0, s_count - 1)
        q = [1] + [0] * (s_count - 1) if a == 1 else classic.parabolic_q_table(s_count - 1)
        exact = bell_sums(q, ratios, a, 3, s_count)
        floats = bell_sums([complex(c) for c in q], [complex(c) for c in ratios],
                           a, 3, s_count)
        assert first_off(floats, exact) == s_count

    @pytest.mark.parametrize("name, s_count", [("kepler", 81), ("parabolic", 81),
                                               ("gamma", 41)])
    def test_first_loss_no_earlier_than_table_sum(self, name, s_count):
        # the float data of the worked problem against the exact sums of its
        # exact Taylor data: the fold keeps 1e-12 at least as long as the
        # Bell-table sum did (kepler 32, parabolic 38, gamma 5)
        problem = example_problem(
            name, terms=s_count // 2 if name == "gamma" else s_count).problem
        nf, q, a = problem.normal_form, problem.q.coeffs, problem.a
        phase, z0 = ((classic.gamma_phase, 1) if name == "gamma"
                     else (classic.sine_phase, 0))
        exact_q = (classic.parabolic_q_table(s_count - 1) if name == "parabolic"
                   else [1] + [0] * (s_count - 1))
        exact = bell_sums(exact_q, classic._ratios(phase, z0, s_count - 1), a,
                          nf.mu, s_count)
        ratios = [-c for c in nf.phi.coeffs[1:s_count]]
        fold = bell_sums(q, ratios, a, nf.mu, s_count)
        table = reference_float_bell_sums(q, ratios, a, nf.mu, s_count)
        assert first_off(fold, exact) >= first_off(table, exact)


class TestAssemble:
    def test_through_same_sector_vanishes(self):
        rng = random.Random(35)
        nf, q = random_instance(rng, 3)
        exp = assemble(alpha_bell(nf, q, 1, 6), nf, Through(2, 2))
        assert all(t.coefficient == 0 for t in exp.terms)

    def test_endpoint_coefficients(self):
        rng = random.Random(36)
        nf, q = random_instance(rng, 2)
        alphas = alpha_bell(nf, q, 1, 5)
        exp = assemble(alphas, nf, Endpoint(1))
        for s, term in enumerate(exp.terms):
            e_s = (s + 1) / 2
            want = (math.gamma(e_s) * alphas.alphas[s]
                    * cmath.exp(2j * math.pi * 1 * e_s))
            assert abs(term.coefficient - want) < 1e-12 * max(1, abs(want))
            assert abs(term.exponent - e_s) < 1e-15

    def test_even_opposite_doubles_even_terms(self):
        rng = random.Random(37)
        nf, q = random_instance(rng, 2)
        alphas = alpha_bell(nf, q, 1, 6)
        single = assemble(alphas, nf, Endpoint(0))
        double = assemble(alphas, nf, EvenOpposite(0))
        for s in range(6):
            if s % 2 == 1:
                assert double.terms[s].coefficient == 0
            else:
                assert abs(double.terms[s].coefficient
                           - 2 * single.terms[s].coefficient) < 1e-13 * max(
                               1, abs(single.terms[s].coefficient))

    @pytest.mark.parametrize("a", [1, 2, 3, Fraction(1, 2), 0.3 + 0.7j],
                             ids=["1", "2", "3", "1/2", "complex"])
    def test_even_opposite_is_through_half_turn(self, a):
        rng = random.Random(37)
        nf, q = random_instance(rng, 2)
        alphas = alpha_bell(nf, q, a, 6)
        assert (assemble(alphas, nf, EvenOpposite(0))
                == assemble(alphas, nf, Through(1, 0)))

    def test_unknown_variant_is_type_error(self):
        rng = random.Random(37)
        nf, q = random_instance(rng, 2)
        with pytest.raises(TypeError, match="unknown branch variant"):
            assemble(alpha_bell(nf, q, 1, 3), nf, (1, 0))

    def test_structural_zeros_are_exact(self):
        def terms(name, count):
            problem = example_problem(name, terms=count).problem
            nf = problem.normal_form
            return assemble(alpha_bell(nf, problem.q, problem.a, problem.order),
                            nf, problem.branch).terms
        kepler = terms("kepler", 10)
        assert all(kepler[s].is_zero for s in (2, 5, 8))
        assert terms("parabolic", 8)[4].is_zero
        center = terms("center", 13)
        assert all(center[s].is_zero for s in range(2, 13, 2))
        assert all(center[s].coefficient.imag == 0 for s in range(1, 13, 2))

    def test_even_opposite_needs_even_mu(self):
        rng = random.Random(38)
        nf, q = random_instance(rng, 3)
        with pytest.raises(ValueError, match="even mu"):
            assemble(alpha_bell(nf, q, 1, 4), nf, EvenOpposite(0))

    def test_branch_periodicity_for_integer_a(self):
        rng = random.Random(39)
        nf, q = random_instance(rng, 3)
        alphas = alpha_bell(nf, q, 1, 6)
        e1 = assemble(alphas, nf, Endpoint(0))
        e2 = assemble(alphas, nf, Endpoint(nf.mu))
        for a, b in zip(e1.terms, e2.terms):
            assert abs(a.coefficient - b.coefficient) < 1e-12 * max(
                1, abs(a.coefficient))

    def test_real_symmetry_even_opposite(self):
        # real maximum with real amplitude: every surviving coefficient real
        rng = random.Random(40)
        coeffs = [0.0, 0.0, -rng.uniform(0.5, 1.5)] + [
            rng.uniform(-0.3, 0.3) for _ in range(8)]
        nf = normalize(TruncatedSeries(0.0, [complex(c) for c in coeffs]))
        q = TruncatedSeries(0.0, [complex(rng.uniform(-1, 1)) for _ in range(9)])
        exp = assemble(alpha_bell(nf, q, 1, 8), nf, EvenOpposite(0))
        for t in exp.terms:
            assert abs(t.coefficient.imag) <= 1e-12 * max(1, abs(t.coefficient))

    def test_degenerate_outside_circle_path_is_error(self):
        rng = random.Random(41)
        nf, q = random_instance(rng, 2)
        for a in (-2, -2.0):   # (s + a)/mu = 0 at s = 2
            alphas = alpha_bell(nf, q, a, 4)
            with pytest.raises(ValueError, match="pole"):
                assemble(alphas, nf, Through(0, 1))
            with pytest.raises(ValueError, match="pole"):
                assemble(alphas, nf, Endpoint(0))

    def test_degenerate_replacement_in_circle_path(self):
        rng = random.Random(42)
        nf, q = random_instance(rng, 2)
        for a in (Fraction(-2), -2.0):
            alphas = alpha_bell(nf, q, a, 5)
            exp = assemble(alphas, nf, CirclePath(0, 1))
            # s = 0: e = -1 -> 2 pi i (k2-k1) (-1)^(-1) / 1! = -2 pi i
            assert abs(exp.terms[0].coefficient
                       - (-2j * math.pi) * alphas.alphas[0]) \
                < 1e-12 * abs(alphas.alphas[0])
            # s = 2: e = 0 -> 2 pi i
            assert abs(exp.terms[2].coefficient
                       - (2j * math.pi) * alphas.alphas[2]) \
                < 1e-12 * abs(alphas.alphas[2])
            # s = 1: e = -1/2, regular difference formula applies
            e_s = -0.5
            want = (math.gamma(e_s) * alphas.alphas[1]
                    * (cmath.exp(2j * math.pi * 1 * e_s) - 1.0))
            assert abs(exp.terms[1].coefficient - want) \
                < 1e-12 * max(1, abs(want))

    def test_gamma_overflow_only_where_the_phases_survive(self):
        # mu = 2, a = 1, opposite valleys: e_s = (s+1)/2, and the integer
        # exponents cancel.  Gamma(171.5) is finite, Gamma(172) is not but
        # its term cancels, so 344 terms pass and the 345th raises
        factors = term_factors(1, 2, EvenOpposite(0), 344)
        assert factors[-1] == (172 + 0j, None, None)
        assert factors[-2][1] == _cgamma(171.5 + 0j)
        with pytest.raises(OverflowError):
            term_factors(1, 2, EvenOpposite(0), 345)

    def test_float_a_near_pole_warns(self):
        rng = random.Random(43)
        nf, q = random_instance(rng, 2)
        alphas = alpha_bell(nf, q, -2.0 + 1e-12, 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assemble(alphas, nf, CirclePath(0, 1))
        assert any("pole" in str(w.message) for w in caught)


class TestComplexGamma:
    POINTS = [complex(x, y)
              for x in (-9.63, -4.3, -1.5, -0.25, 0.3, 0.5, 1.0, 2.7, 7.5,
                        20.2, 55.5, 89.9)
              for y in (-3.0, -0.7, 0.4, 1.0, 2.95)]

    @staticmethod
    def rel(got, want):
        return abs(got - want) / abs(want)

    def test_real_axis_is_math_gamma(self):
        for x in (0.5, 1.5, -0.5, 3.25, 40.0, 171.5):
            assert _cgamma(complex(x)) == math.gamma(x)
        assert _cgamma(0.5 + 0j) == math.sqrt(math.pi)

    def test_identities(self):
        for z in self.POINTS:
            g = _cgamma(z)
            assert self.rel(_cgamma(z + 1), z * g) < 1e-13
            assert self.rel(g * _cgamma(1 - z),
                            math.pi / cmath.sin(math.pi * z)) < 1e-13
            if z.real < 80:   # Gamma(2z) overflows past 171.6
                assert self.rel(g * _cgamma(z + 0.5),
                                2 ** (1 - 2 * z) * math.sqrt(math.pi)
                                * _cgamma(2 * z)) < 1e-13
            assert self.rel(_cgamma(z.conjugate()), g.conjugate()) < 1e-15
        for y in (-5.0, -1.3, 0.2, 0.9, 3.0, 8.0):
            assert self.rel(abs(_cgamma(0.5 + 1j * y)) ** 2,
                            math.pi / math.cosh(math.pi * y)) < 1e-13

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        points = self.POINTS + [(s + 0.3 + 0.7j) / mu
                                for mu in range(1, 5) for s in range(100)]
        with mpmath.workdps(40):
            for z in points:
                want = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
                assert self.rel(_cgamma(z), want) < 1e-13, z


class TestEvaluate:
    def test_empty_sum(self):
        rng = random.Random(44)
        nf, q = random_instance(rng, 2)
        exp = assemble(alpha_bell(nf, q, 1, 3), nf, Through(1, 1))
        assert exp.evaluate(10.0) == 0

    def test_term_count_bounds(self):
        rng = random.Random(45)
        nf, q = random_instance(rng, 2)
        exp = assemble(alpha_bell(nf, q, 1, 3), nf, Endpoint(0))
        with pytest.raises(ValueError, match="terms"):
            exp.evaluate(10.0, 7)
        with pytest.raises(ValueError, match="positive"):
            exp.evaluate(-1.0, 2)

    def test_gamma_against_quadrature(self):
        from saddlepoint.classic import gamma_contour, gamma_normal_form
        from saddlepoint.quadrature import builtin_integrand, integrate
        nf = gamma_normal_form(8)
        q = TruncatedSeries.constant(1.0, 1.0, 8)
        exp = assemble(alpha_bell(nf, q, 1, 6), nf, EvenOpposite(0))
        quad = integrate(builtin_integrand("gamma", n=50.0), gamma_contour(),
                         abs_tol=0.0, rel_tol=1e-12)
        # four expansion orders leave the first omitted correction
        # 1/(288 N^2) ~ 1.4e-6; six orders push it to ~2e-8
        v4 = exp.evaluate(50.0, 4)
        assert abs(v4 - quad.value) / abs(quad.value) < 2e-6
        v6 = exp.evaluate(50.0, 6)
        assert abs(v6 - quad.value) / abs(quad.value) < 1e-7

    def test_even_opposite_with_even_a_against_quadrature(self):
        # p = -z^2/2 + z^3/10, a = 2: the odd orders survive and the even
        # ones cancel, the opposite of the a = 1 pattern
        from saddlepoint.quadrature import Contour, integrate
        n = 40.0
        p = TruncatedSeries(0.0, [0.0, 0.0, -0.5, 0.1] + [0.0] * 8)
        nf = normalize(p)
        q = TruncatedSeries.constant(1.0, 0.0, 10)
        exp = assemble(alpha_bell(nf, q, 2, 8), nf, EvenOpposite(0))
        assert all(t.is_zero == (t.s % 2 == 0) for t in exp.terms)
        quad = integrate(lambda z: z * cmath.exp(n * p(z)),
                         Contour.from_points([-2.5, 2.5]),
                         abs_tol=0.0, rel_tol=1e-12)
        assert abs(exp.evaluate(n) - quad.value) < 1e-5 * abs(quad.value)

    def test_partial_sum_without_prefactor(self):
        # e^{-800} underflows, but the bracketed Stirling sum is 0.0886
        problem = example_problem("gamma").problem
        nf = problem.normal_form
        exp = assemble(alpha_bell(nf, problem.q, problem.a, problem.order),
                       nf, problem.branch)
        n = 800.0
        want = math.sqrt(2 * math.pi / n) * (
            1 + 1 / 9600 + 1 / (288 * n ** 2) - 139 / (51840 * n ** 3))
        assert abs(exp.partial_sum(n) - want) < 1e-13 * want

    def test_kepler_reference_number(self):
        from saddlepoint.classic import kepler_normal_form
        nf = kepler_normal_form(12)
        q = TruncatedSeries.constant(1.0, 0.0, 12)
        exp = assemble(alpha_bell(nf, q, 1, 10), nf, Through(1, 0))
        value = exp.evaluate(50.0, 10)
        assert abs(value - 0.762835382546) / 0.762835382546 < 5e-9
        # nonzero orders sit at s = 0, 4 mod 6 only
        for t in exp.terms:
            if t.s % 6 in (0, 4):
                assert abs(t.coefficient) > 1e-12
            else:
                assert abs(t.coefficient) < 1e-14


class TestVanishingShift:
    def test_exact_zero_of_order_two(self):
        rng = random.Random(47)
        nf, _ = random_instance(rng, 2)
        q = TruncatedSeries(nf.z0, (0.0, 0.0, 1.0) + (0.0,) * 6)
        alphas = alpha_direct(nf, q, 1, 4)
        assert abs(alphas.alphas[0]) < 1e-14
        assert abs(alphas.alphas[1]) < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shift_identity(self, m):
        rng = random.Random(48 + m)
        nf, psi = random_instance(rng, 2)
        q = TruncatedSeries(nf.z0,
                            ((0.0,) * m + psi.coeffs)[: nf.phi.order + 1])
        report = vanishing_shift(nf, q, 1, m)
        assert report.leading_alphas_zero
        assert report.max_abs_error < 1e-11
        assert report.passed

    def test_m_zero_is_identity(self):
        rng = random.Random(52)
        nf, q = random_instance(rng, 2)
        report = vanishing_shift(nf, q, 1, 0)
        assert report.psi is q or report.psi.coeffs == q.coeffs
        assert report.passed

    def test_nonzero_leading_rejected(self):
        rng = random.Random(53)
        nf, q = random_instance(rng, 2)
        with pytest.raises(ValueError, match="vanish"):
            vanishing_shift(nf, q, 1, 2)
