"""Contour quadrature: exactness, branch tracking, oracle duty."""

import cmath
import math
import random

import pytest

from saddlepoint import quadrature
from saddlepoint.problemfile import example_problem, run_problem
from saddlepoint.quadrature import (_WG, _WK, _XK, MAX_DEPTH, Arc, Contour,
                                    Segment, builtin_integrand, integrate,
                                    integrate_power_factor)


class TestContourStructure:
    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share endpoints"):
            Contour([Segment(0, 1), Segment(1.1, 2)])

    def test_arc_validation(self):
        with pytest.raises(ValueError, match="radius"):
            Arc(0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            Arc(0, 1.0, 0.0, math.inf)

    def test_from_points(self):
        c = Contour.from_points([0, 1j, 1 + 1j])
        assert len(c.pieces) == 2
        assert c.first == 0 and c.last == 1 + 1j

    def test_needs_pieces(self):
        with pytest.raises(ValueError):
            Contour([])


class TestIntegrate:
    def test_unit_segment(self):
        r = integrate(lambda z: 1.0, Contour.from_points([0, 1]))
        assert abs(r.value - 1.0) < 1e-14
        assert r.converged

    def test_residue(self):
        circle = Contour([Arc(0.0, 1.0, 0.0, 2 * math.pi)])
        r = integrate(lambda z: 1.0 / z, circle)
        assert abs(r.value - 2j * math.pi) < 1e-12

    def test_kepler_reference_value(self):
        top = math.pi / math.sqrt(3)
        path = Contour.from_points(
            [-math.pi, complex(-math.pi, top), 0.0, complex(math.pi, top), math.pi])
        r = integrate(builtin_integrand("kepler_plain", n=50.0), path,
                      abs_tol=0.0, rel_tol=1e-12)
        assert r.converged
        assert abs(r.value - 0.762835382546) < 2e-12

    def test_kepler_oscillatory_real_line(self):
        # same value straight along [-pi, pi], fully oscillatory
        r = integrate(builtin_integrand("kepler_plain", n=50.0),
                      Contour.from_points([-math.pi, math.pi]),
                      abs_tol=0.0, rel_tol=1e-11)
        assert r.converged
        assert abs(r.value - 0.762835382546) < 1e-12

    def test_path_splitting(self):
        f = builtin_integrand("gamma", n=30.0)
        whole = integrate(f, Contour.from_points([0.25, 3.0]),
                          abs_tol=0.0, rel_tol=1e-12)
        parts = (integrate(f, Contour.from_points([0.25, 1.1]),
                           abs_tol=0.0, rel_tol=1e-12).value
                 + integrate(f, Contour.from_points([1.1, 3.0]),
                             abs_tol=0.0, rel_tol=1e-12).value)
        assert abs(whole.value - parts) / abs(whole.value) < 1e-11

    def test_orientation_reversal(self):
        f = builtin_integrand("kepler_plain", n=10.0)
        path = Contour.from_points([-1.0, 0.5j, 1.0])
        fwd = integrate(f, path).value
        bwd = integrate(f, path.reversed()).value
        assert abs(fwd + bwd) < 1e-13

    def test_depth_limit(self, monkeypatch):
        f = builtin_integrand("gamma", n=200.0)
        deep = integrate(f, Contour.from_points([0.05, 4.0]),
                         abs_tol=0.0, rel_tol=1e-12)
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 1)
        shallow = integrate(f, Contour.from_points([0.05, 4.0]),
                            abs_tol=0.0, rel_tol=1e-12)
        assert deep.evaluations > shallow.evaluations
        assert deep.converged

    def test_unreachable_tolerance_flagged(self, monkeypatch):
        # the two long opposite edges cancel; double precision cannot
        # deliver 1e-11 of the tiny remainder, so the result must come
        # back flagged instead of looping forever
        f = builtin_integrand("center", n=50.0, eps=0.4)
        gam = (1 + math.sqrt(1 - 0.16)) / 0.4
        z0 = 1j * math.log(gam)
        path = Contour([Segment(-math.pi, -math.pi + z0),
                        Segment(-math.pi + z0, z0 - 0.25),
                        Arc(z0, 0.25, math.pi, 2 * math.pi),
                        Segment(z0 + 0.25, math.pi + z0),
                        Segment(math.pi + z0, math.pi)])
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
        r = integrate(f, path, abs_tol=0.0, rel_tol=1e-11)
        assert not r.converged

    @pytest.mark.parametrize("a", [1, 0, 0.5])
    def test_all_zero_result_not_converged(self, a):
        # a value and an error both exactly 0 show nothing about f
        c = Contour.from_points([1.0, 2 + 1j, 3.0])
        r = integrate_power_factor(lambda z: 0.0, a, 0j, c)
        assert (r.value, r.error_estimate, r.evaluations) == (0, 0.0, 30)
        assert not r.converged


class TestPowerFactor:
    def test_a_one_reduces_to_plain(self):
        c = Contour.from_points([1.0, 2 + 1j, 3.0])
        ra = integrate_power_factor(lambda z: cmath.exp(z), 1.0, 0.0, c)
        rb = integrate(lambda z: cmath.exp(z), c)
        assert abs(ra.value - rb.value) < 1e-13

    @pytest.mark.parametrize("name", ["gamma", "kepler"])
    def test_integrate_is_the_a_one_case(self, name):
        f, a, z0, contour, rel_tol = _oracle_problem(name, 50.0)
        assert a == 1
        plain = integrate(f, contour, abs_tol=0.0, rel_tol=rel_tol)
        power = integrate_power_factor(f, 1, z0, contour, abs_tol=0.0,
                                       rel_tol=rel_tol)
        assert plain.converged
        assert repr(plain) == repr(power)

    def test_full_circle_winding(self):
        z0 = 0.3 + 0.2j
        circle = Contour([Arc(z0, 0.5, 0.1, 0.1 + 2 * math.pi)])
        r = integrate_power_factor(lambda z: 1.0, 0.0, z0, circle)
        assert abs(r.value - 2j * math.pi) < 1e-12

    def test_double_winding(self):
        z0 = 0.0
        circle = Contour([Arc(z0, 1.0, 0.0, 4 * math.pi)])
        r = integrate_power_factor(lambda z: 1.0, 0.0, z0, circle)
        assert abs(r.value - 4j * math.pi) < 1e-12

    def test_center_reference_value(self):
        # pole factored out: (z - z0)^(a-1) f with a = 0 and
        # f = e^{N p} (z - z0) / (1 - eps cos z) rebuilds the integrand
        eps, n = 0.4, 50.0
        gam = (1 + math.sqrt(1 - eps * eps)) / eps
        z0 = 1j * math.log(gam)
        path = Contour([Segment(-math.pi + z0, z0 - 0.25),
                        Arc(z0, 0.25, math.pi, 2 * math.pi),
                        Segment(z0 + 0.25, math.pi + z0)])
        full = builtin_integrand("center", n=n, eps=eps)
        r = integrate_power_factor(lambda z: full(z) * (z - z0), 0.0, z0, path,
                                   abs_tol=0.0, rel_tol=1e-11)
        assert r.converged
        assert abs(r.value - 2.8171413884e-14) / 2.8171413884e-14 < 1e-9

    def test_branch_consistent_under_reparameterization(self):
        z0 = 0.1 + 0.1j
        a = 0.3 + 0.2j
        pts = [1.0, 1 + 1j, -1 + 1j, -1 - 1j]
        coarse = Contour.from_points(pts, initial_branch_angle=cmath.phase(pts[0] - z0))
        halved = []
        for s, e in zip(pts, pts[1:]):
            mid = (s + e) / 2
            halved += [s, mid]
        halved.append(pts[-1])
        fine = Contour.from_points(halved, initial_branch_angle=cmath.phase(pts[0] - z0))
        ra = integrate_power_factor(lambda z: cmath.exp(0.3 * z), a, z0, coarse)
        rb = integrate_power_factor(lambda z: cmath.exp(0.3 * z), a, z0, fine)
        assert abs(ra.value - rb.value) < 1e-12

    def test_contour_through_branch_point_rejected(self):
        c = Contour.from_points([-1.0, 1.0])
        with pytest.raises(ValueError, match="branch point"):
            integrate_power_factor(lambda z: 1.0, 0.5, 0.0, c)

    @pytest.mark.parametrize("a, exact", [(1, 2.0), (2, 0.0), (3, 2.0 / 3.0),
                                          (4.0, 0.0), (5 + 0j, 0.4)])
    def test_integer_a_is_a_polynomial_through_z0(self, a, exact):
        # (z - z0)^(a-1) has no branch point for integer a >= 1
        r = integrate_power_factor(lambda z: 1.0, a, 0j,
                                   Contour.from_points([-1, 1]))
        assert r.converged
        assert abs(r.value - exact) < 1e-14

    @pytest.mark.parametrize("a", [0, -1, -2])
    def test_integer_a_is_the_explicit_weight(self, a):
        # for integer a <= 0 the weight is the single-valued power, and
        # the contour winds 1.5 times round the pole without a tracked arg
        z0 = 0.3 + 0.2j
        c = Contour([Segment(-2.0, z0 - 0.5), Arc(z0, 0.5, math.pi, 4 * math.pi),
                     Segment(z0 + 0.5, 2.0)])

        def f(z):
            return cmath.exp(0.7j * z)

        r = integrate_power_factor(f, a, z0, c)
        ref = integrate(lambda z: (z - z0) ** (a - 1) * f(z), c)
        assert r == ref

    @pytest.mark.parametrize("a", [0, -1])
    def test_integer_a_ignores_branch_angle(self, a):
        z0 = 0.3 + 0.2j
        pts = [-2.0, 1.0 + 1.5j, 2.0]
        rs = [integrate_power_factor(lambda z: cmath.exp(0.7j * z), a, z0,
                                     Contour.from_points(pts, angle))
              for angle in (0.0, 6 * math.pi)]
        assert rs[0] == rs[1]

    @pytest.mark.parametrize("a", [0, -1])
    def test_pole_on_contour_rejected(self, a):
        with pytest.raises(ValueError, match="through the pole z0"):
            integrate_power_factor(lambda z: 1.0, a, 0j,
                                   Contour.from_points([-1, 1]))

    @pytest.mark.parametrize("angle", [0.3 * math.pi / 64, 0.5 * math.pi / 64])
    def test_arc_through_branch_point_rejected(self, angle):
        # z0 sits on the arc between the points a coarse sampling checks
        z0 = cmath.exp(1j * angle)
        c = Contour([Arc(0.0, 1.0, 0.0, math.pi)])
        with pytest.raises(ValueError, match="branch point"):
            integrate_power_factor(lambda z: 1.0, 0.5, z0, c)

    def test_arc_distance_is_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            arc = Arc(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                      rng.uniform(0.1, 2.0), rng.uniform(-7, 7),
                      rng.uniform(-7, 7))
            p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            samples = 4000
            sampled = min(abs(arc.point(i / samples) - p)
                          for i in range(samples + 1))
            step = arc.radius * abs(arc.angle_to - arc.angle_from) / samples
            exact = arc.distance(p)
            assert exact <= sampled + 1e-12
            assert sampled - exact <= step


def _random_turn_cases(rng):
    """(piece, z0) pairs: segments with z0 anywhere or close to them, and
    arcs, with sweeps up to 2.5 turns, with z0 inside within 0.5 % of the
    circle, outside, well inside, or on the circle off the arc."""
    cases = []
    for _ in range(40):
        a, b = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in "ab")
        seg = Segment(a, b)
        near = seg.point(rng.uniform(0, 1)) + 1j * (b - a) * 10 ** rng.uniform(-9, -2)
        cases += [(seg, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))), (seg, near)]
    for _ in range(40):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(0.1, 2.0)
        lo = rng.uniform(-7, 7)
        sweep = rng.choice([-1, 1]) * rng.uniform(0.1, 5 * math.pi)
        arc = Arc(c, r, lo, lo + sweep)
        phi = rng.uniform(0, 2 * math.pi)
        cases += [(arc, c + r * (1 - rng.uniform(1e-6, 5e-3)) * cmath.exp(1j * phi)),
                  (arc, c + r * rng.uniform(1.001, 3.0) * cmath.exp(1j * phi)),
                  (arc, c + r * rng.uniform(0.0, 0.99) * cmath.exp(1j * phi))]
        short = Arc(c, r, lo, lo + math.copysign(min(abs(sweep), 6.0), sweep))
        gap = rng.uniform(0.02, 2 * math.pi - abs(short.angle_to - lo) - 0.02)
        cases.append((short, c + r * cmath.exp(1j * (lo - math.copysign(gap, sweep)))))
    return cases


class TestTurns:
    """``turns`` against an unwrap that never calls the code under test."""

    def test_random_pieces_against_unwrapped_reference(self):
        ts = [0.0, 0.013, 0.25, 0.5, 0.61, 0.9, 1.0]
        for piece, z0 in _random_turn_cases(random.Random(26)):
            got = piece.turns(ts, [piece.point(t) for t in ts], z0)
            assert abs(got[0]) < 1e-15
            for t, turn in zip(ts, got):
                assert abs(turn - _reference_turn(piece, z0, t)) < 1e-9, (piece, z0, t)

    def test_arc_about_z0_turns_by_its_sweep(self):
        arc = Arc(0.3 - 0.2j, 0.7, 0.4, 0.4 - 9.0)
        ts = [0.0, 0.3, 0.77, 1.0]
        assert arc.turns(ts, [arc.point(t) for t in ts], 0.3 - 0.2j) == \
            [-9.0 * t for t in ts]

    @pytest.mark.parametrize("radius", [0.9, 0.985, 0.99, 0.999])
    @pytest.mark.parametrize("a", [0.5, 0.3 + 0.7j])
    def test_full_circle_closed_form(self, radius, a):
        # z0 close inside the circle lies between the arc and its chords
        z0 = radius * cmath.exp(1j * math.pi / 16)
        r = integrate_power_factor(lambda z: 1.0, a, z0,
                                   Contour([Arc(0j, 1.0, 0.0, 2 * math.pi)]))
        exact = (1 - z0) ** a * (cmath.exp(2j * math.pi * a) - 1) / a
        assert r.converged
        assert abs(r.value - exact) <= 1e-12 * abs(exact)

    def test_random_arcs_against_antiderivative(self):
        # the integral of (z - z0)^(a-1) is the change of (z - z0)^a / a
        # along the branch the reference unwrap follows
        rng = random.Random(27)
        converged = 0
        for arc, z0 in _random_turn_cases(rng)[80::2]:
            a = complex(rng.uniform(-0.9, 1.9), rng.uniform(-1, 1))
            w0, w1 = arc.first - z0, arc.last - z0
            arg0 = cmath.phase(w0)
            arg1 = arg0 + _reference_turn(arc, z0, 1.0)
            exact = (cmath.exp(a * complex(math.log(abs(w1)), arg1))
                     - cmath.exp(a * complex(math.log(abs(w0)), arg0))) / a
            r = integrate_power_factor(lambda z: 1.0, a, z0, Contour([arc]))
            if r.converged:
                converged += 1
                assert abs(r.value - exact) <= 1e-9 * abs(exact), (arc, z0, a)
        assert converged >= 75


def _reference_gk15(g, t0, t1):
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    k = 0.0 + 0.0j
    gauss = 0.0 + 0.0j
    for i in range(15):
        v = g(mid + half * _XK[i])
        k += _WK[i] * v
        if i % 2 == 1:
            gauss += _WG[i // 2] * v
    return k * half, abs(k - gauss) * abs(half)


def _reference_adapt(g, t0, t1, budget, rel_floor, depth, max_depth, counter):
    value, err = _reference_gk15(g, t0, t1)
    counter[0] += 15
    done = err <= budget or err <= rel_floor * abs(value)
    if done or depth >= max_depth or counter[0] >= counter[1]:
        return value, err, done
    mid = 0.5 * (t0 + t1)
    lv, le, lok = _reference_adapt(g, t0, mid, budget / 2.0, rel_floor,
                                   depth + 1, max_depth, counter)
    rv, re_, rok = _reference_adapt(g, mid, t1, budget / 2.0, rel_floor,
                                    depth + 1, max_depth, counter)
    return lv + rv, le + re_, lok and rok


def _reference_integrate(integrands, abs_tol, rel_tol, max_depth=MAX_DEPTH):
    """An independent depth-first oracle: a rough pass sets a local
    error budget, and up to three sweeps bisect every panel over its
    budget, each starting afresh with its own evaluation cap; returns
    (value, error, converged)."""
    value = sum(_reference_gk15(g, 0.0, 1.0)[0] for g in integrands)
    rel_floor = rel_tol / 16.0
    for _ in range(3):
        budget = max(abs_tol, rel_tol * abs(value)) / max(len(integrands), 1)
        counter = [0, quadrature.MAX_EVALUATIONS]
        total = 0.0 + 0.0j
        err = 0.0
        ok = True
        for g in integrands:
            v, e, flag = _reference_adapt(g, 0.0, 1.0, budget, rel_floor,
                                          0, max_depth, counter)
            total += v
            err += e
            ok = ok and flag
        value = total
        if err <= max(abs_tol, rel_tol * abs(value)):
            return value, err, ok
        if counter[0] >= counter[1]:
            break
    return value, err, False


def _reference_velocity(piece, t):
    if isinstance(piece, Segment):
        return piece.end - piece.start
    sweep = piece.angle_to - piece.angle_from
    return piece.radius * 1j * sweep * cmath.exp(1j * piece.angle(t))


def _reference_integrands(f, a, z0, contour):
    """Per-piece integrands as built before the geometry was hoisted;
    the weight is the plain power for integer a, else branch-tracked."""
    if a == 1:
        return [lambda t, piece=piece: f(piece.point(t)) * _reference_velocity(piece, t)
                for piece in contour.pieces]
    aa = complex(a)
    if aa.imag == 0.0 and aa.real.is_integer():
        m = int(aa.real) - 1

        def power(t, piece):
            z = piece.point(t)
            return (z - z0) ** m * f(z) * _reference_velocity(piece, t)

        return [lambda t, piece=piece: power(t, piece) for piece in contour.pieces]
    if contour.initial_branch_angle is None:
        angle = cmath.phase(contour.first - z0)
    else:
        angle = float(contour.initial_branch_angle)
    out = []
    for piece in contour.pieces:
        def g(t, piece=piece, start=angle):
            z = piece.point(t)
            arg = start + _reference_turn(piece, z0, t)
            power = cmath.exp((aa - 1.0) * complex(math.log(abs(z - z0)), arg))
            return power * f(z) * _reference_velocity(piece, t)

        out.append(g)
        angle += _reference_turn(piece, z0, 1.0)
    return out


def _reference_turn(piece, z0, t):
    """arg(z(t) - z0) - arg(z(0) - z0), unwrapped in steps whose path
    length is half the distance from the step's start to z0: such a step
    stays in a disc that misses z0, so it turns by less than pi."""
    speed = abs(_reference_velocity(piece, 0.0))
    turn, s, w = 0.0, 0.0, piece.point(0.0) - z0
    while s < t:
        s = min(t, s + 0.5 * abs(w) / speed)
        nxt = piece.point(s) - z0
        turn += cmath.phase(nxt / w)
        w = nxt
    return turn


def _oracle_problem(name, n, **params):
    """(f, a, z0, contour, rel_tol) of a built-in worked problem at N = n.

    ``gamma_half`` is the gamma integrand under the non-integer weight
    (z - 1)^(-1/2), a = 1/2, on a path that detours above z0 = 1.
    """
    if name == "gamma_half":
        contour = Contour([Segment(0.05, 0.75), Arc(1.0, 0.25, math.pi, 0.0),
                           Segment(1.25, 4.0)])
        return builtin_integrand("gamma", n=n), 0.5, 1.0 + 0j, contour, 1e-11
    example = example_problem(name, n=n, **params)
    problem = example.problem

    def f(z):
        return cmath.exp(n * complex(problem.p_callable(z))) \
            * complex(problem.q_callable(z))

    return (f, problem.a, problem.normal_form.z0, problem.contour,
            example.rel_tol)


def _run_oracle(f, a, z0, contour, rel_tol):
    if a == 1:
        return integrate(f, contour, abs_tol=0.0, rel_tol=rel_tol)
    return integrate_power_factor(f, complex(a), z0, contour,
                                  abs_tol=0.0, rel_tol=rel_tol)


ORACLE_CASES = [("gamma", 200.0, {}), ("parabolic", 400.0, {}),
                ("center", 400.0, {"eps": 0.4}), ("gamma_half", 200.0, {})]


class TestBatchGeometry:
    @pytest.mark.parametrize("piece", [
        Segment(0.05 + 0j, 4.0 - 0.5j),
        Arc(1.0 + 0j, 0.25, math.pi, 0.0),
        Arc(0.3 - 0.1j, 1.7, -0.4, 13.0),
    ], ids=["segment", "arc", "winding-arc"])
    def test_points_and_velocities_per_node(self, piece):
        ts = [0.5 + 0.5 * x for x in _XK] + [0.0, 1.0]
        points, velocities = piece.points_velocities(ts)
        assert points == [piece.point(t) for t in ts]
        assert velocities == [_reference_velocity(piece, t) for t in ts]


class TestPanelMemo:
    @pytest.mark.parametrize("name, n, params", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_agrees_with_reference_sweeps(self, name, n, params):
        f, a, z0, contour, rel_tol = _oracle_problem(name, n, **params)
        r = _run_oracle(f, a, z0, contour, rel_tol)
        value, _, converged = _reference_integrate(
            _reference_integrands(f, a, z0, contour), 0.0, rel_tol)
        assert abs(r.value - value) <= rel_tol * abs(value)
        assert r.converged or not converged

    @pytest.mark.parametrize("name, n, params", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_each_node_evaluated_once(self, name, n, params):
        f, a, z0, contour, rel_tol = _oracle_problem(name, n, **params)
        seen = []

        def counting(z):
            seen.append(z)
            return f(z)

        r = _run_oracle(counting, a, z0, contour, rel_tol)
        assert r.evaluations == len(seen)
        # the pieces do not overlap, so a repeated z is a repeated (piece, t)
        assert len(set(seen)) == len(seen)

    def test_cap_is_per_call(self, monkeypatch):
        f, a, z0, contour, rel_tol = _oracle_problem("center", 400.0, eps=0.4)
        cap = 600   # below the 885 evaluations the call makes uncapped
        monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", cap)
        calls = []
        r = _run_oracle(lambda z: calls.append(z) or f(z), a, z0, contour, rel_tol)
        assert not r.converged
        # the cap is checked before each split, which costs two panels
        assert len(calls) == r.evaluations < cap + 30


class TestRoundingFloor:
    """A panel within 2**-52 of its own value is final, so a tolerance
    below double precision ends at the rounding floor, not at the cap."""

    @pytest.mark.parametrize("name", ["gamma", "kepler", "center", "parabolic"])
    def test_examples_converge_at_1e_15(self, name):
        example = example_problem(name, rel_tol=1e-15)
        (validation,) = run_problem(example.problem, example.rel_tol).validations
        assert validation.oracle.converged
        assert validation.oracle.evaluations < 10_000

    def test_unreachable_tolerance_stops_early(self):
        example = example_problem("kepler", rel_tol=1e-300)
        (validation,) = run_problem(example.problem, example.rel_tol).validations
        assert not validation.oracle.converged
        assert validation.oracle.evaluations < 100_000
        assert validation.digits >= 8


class TestBuiltinIntegrands:
    def test_gamma_value(self):
        f = builtin_integrand("gamma", n=1.0)
        assert abs(f(1.0) - math.exp(-1)) < 1e-15

    def test_kepler_at_zero(self):
        f = builtin_integrand("kepler_plain", n=7.0)
        assert f(0.0) == 1.0

    def test_center_pole_offset_finite(self):
        eps = 0.4
        gam = (1 + math.sqrt(1 - eps * eps)) / eps
        f = builtin_integrand("center", n=5.0, eps=eps)
        val = f(1j * math.log(gam) + 0.1)
        assert abs(val) < math.inf

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            builtin_integrand("laplace", n=1.0)

    def test_center_eps_range(self):
        with pytest.raises(ValueError, match="eccentricity"):
            builtin_integrand("center", n=1.0, eps=1.5)


class TestOracleDuty:
    def test_gamma_error_order(self):
        """|quadrature - S-term expansion| N^{(S+1)/2} stays flat.

        The scaled remainder (relative to the e^{N p(z0)} prefactor)
        must stay within a factor 4 while N grows 16-fold, matching a
        O(N^{-(S+1)/2}) truncation error for mu = 2.
        """
        from saddlepoint.classic import gamma_contour, gamma_normal_form
        from saddlepoint.expansion import EvenOpposite, alpha_bell, assemble
        from saddlepoint.series import TruncatedSeries

        nf = gamma_normal_form(8)
        q = TruncatedSeries.constant(1.0, 1.0, 8)
        expansion = assemble(alpha_bell(nf, q, 1, 6), nf, EvenOpposite(0))
        for s_terms in (2, 4):
            scaled = []
            for n in (25.0, 50.0, 100.0, 200.0, 400.0):
                quad = integrate(builtin_integrand("gamma", n=n),
                                 gamma_contour(), abs_tol=0.0, rel_tol=1e-12)
                partial = expansion.partial_sum(n, s_terms)
                remainder = abs(quad.value * math.exp(n) - partial)
                scaled.append(remainder * n ** ((s_terms + 1) / 2))
            assert max(scaled) / min(scaled) < 4.0, (s_terms, scaled)
