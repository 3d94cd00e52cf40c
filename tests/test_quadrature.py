"""Contour quadrature: exactness, branch tracking, oracle duty."""

import cmath
import math

import pytest

from saddlepoint.quadrature import (Arc, Contour, Segment, builtin_integrand,
                                    integrate, integrate_power_factor)


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

    def test_depth_limit(self):
        f = builtin_integrand("gamma", n=200.0)
        shallow = integrate(f, Contour.from_points([0.05, 4.0]),
                            abs_tol=0.0, rel_tol=1e-12, max_depth=1)
        deep = integrate(f, Contour.from_points([0.05, 4.0]),
                         abs_tol=0.0, rel_tol=1e-12)
        assert deep.evaluations > shallow.evaluations
        assert deep.converged

    def test_unreachable_tolerance_flagged(self):
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
        r = integrate(f, path, abs_tol=0.0, rel_tol=1e-11, max_depth=6)
        assert not r.converged


class TestPowerFactor:
    def test_a_one_reduces_to_plain(self):
        c = Contour.from_points([1.0, 2 + 1j, 3.0])
        ra = integrate_power_factor(lambda z: cmath.exp(z), 1.0, 0.0, c)
        rb = integrate(lambda z: cmath.exp(z), c)
        assert abs(ra.value - rb.value) < 1e-13

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
