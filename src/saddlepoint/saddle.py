"""Saddle-point normal form, sector geometry and contour checks.

Near a point z0 where the phase function p is analyzed, p is written as

    p(z) = p(z0) - p0 (z - z0)^mu (1 - phi(z)),   phi(z0) = 0,

with mu the lowest order of vanishing of p - p(z0) and p0 nonzero.
The descent directions theta_l = -omega0/mu + 2 pi l / mu (omega0 =
arg p0) bisect the mu valley sectors in which Re(p - p(z0)) < 0 to
leading order; hills alternate with valleys and the sector index k
selects a valley.

Everything here is a pure function over immutable inputs and safe for
concurrent use; a callable handed to the saddle search must itself
tolerate concurrent calls if used that way.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

from ._record import Record
from .series import TruncatedSeries

__all__ = [
    "SaddleNormalForm",
    "DirectionClass",
    "RootResult",
    "MaxConditionReport",
    "normalize",
    "theta",
    "sector_index",
    "classify_direction",
    "find_saddle",
    "check_max_condition",
]

#: a coefficient below this fraction of the largest one counts as zero
#: when detecting mu from floating Taylor data
MU_DETECTION_RTOL = 1e-9

#: |cos(omega0 + mu*theta)| below this is a sector boundary (ridge)
BOUNDARY_TOL = 1e-8


class SaddleNormalForm(Record):
    """Local data (z0, p(z0), mu, p0, omega0, phi) of the phase function."""

    __slots__ = ("z0", "p_at_z0", "mu", "p0", "omega0", "phi")

    def one_minus_phi(self) -> TruncatedSeries:
        return 1.0 - self.phi

    def reconstruct(self) -> TruncatedSeries:
        """Taylor series of p rebuilt from the normal form."""
        n = self.mu + self.phi.order
        coeffs = [0.0 + 0.0j] * (n + 1)
        coeffs[0] = self.p_at_z0
        omp = self.one_minus_phi().coeffs
        for j in range(self.phi.order + 1):
            coeffs[self.mu + j] = -self.p0 * omp[j]
        return TruncatedSeries(self.z0, coeffs)


class DirectionClass(Record):
    """Classification of a ray from z0: ``kind`` is "valley", "hill" or
    "boundary"; a valley also has its ``sector_index``."""

    __slots__ = ("kind", "sector_index")

    def __init__(self, kind: str, sector_index: Optional[int] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sector_index", sector_index)


class RootResult(Record):
    __slots__ = ("root", "residual", "iterations")


class MaxConditionReport(Record):
    """Result of sampling Re p along a contour against Re p(z0).

    ``max_excess`` is the largest Re p(z) - Re p(z0) over the samples,
    reached at ``argmax``; ``excluded`` counts the samples skipped inside
    the z0 disk.
    """

    __slots__ = ("passed", "max_excess", "argmax", "samples", "excluded")


def normalize(p: TruncatedSeries) -> SaddleNormalForm:
    """Extract the normal form from the Taylor series of p at z0.

    mu is the smallest index >= 1 whose coefficient survives the
    relative threshold MU_DETECTION_RTOL; p0 is minus that coefficient
    and phi collects the higher ones: phi_j = coeff(mu + j) / p0.  An
    exact series gives an exact normal form: p(z0), p0 and phi stay
    ``Fraction``.  Raises if every non-constant coefficient is below
    threshold.
    """
    tail = p.coeffs[1:]
    scale = max((abs(c) for c in tail), default=0.0)
    if scale == 0.0:
        raise ValueError("phase series is constant to its truncation order")
    mu = None
    for s, c in enumerate(tail, start=1):
        if abs(c) >= MU_DETECTION_RTOL * scale:
            mu = s
            break
    if mu is None:
        raise ValueError("phase series is degenerate: no coefficient "
                         "above the detection threshold")
    p0 = 0 - p.coeffs[mu]      # not -c: omega0 of a real p0 > 0 is 0, not -0
    phi_coeffs = [0]
    for j in range(1, p.order - mu + 1):
        phi_coeffs.append(p.coeffs[mu + j] / p0)
    return SaddleNormalForm(
        z0=p.base,
        p_at_z0=p.coeffs[0],
        mu=mu,
        p0=p0,
        omega0=cmath.phase(p0),
        phi=TruncatedSeries(p.base, phi_coeffs),
    )


def theta(nf: SaddleNormalForm, ell: int) -> float:
    """Steepest-descent angle theta_ell = -omega0/mu + 2 pi ell / mu."""
    return -nf.omega0 / nf.mu + 2.0 * math.pi * ell / nf.mu


def classify_direction(nf: SaddleNormalForm, direction: float) -> DirectionClass:
    """Valley / hill / boundary test for the ray z0 + r e^{i direction}.

    To leading order Re(p(z) - p(z0)) = -r^mu |p0| cos(omega0 + mu
    direction), so the sign of that cosine decides.
    """
    c = math.cos(nf.omega0 + nf.mu * direction)
    if c > BOUNDARY_TOL:
        return DirectionClass("valley", _nearest_sector(nf, direction))
    if c < -BOUNDARY_TOL:
        return DirectionClass("hill")
    return DirectionClass("boundary")


def _nearest_sector(nf: SaddleNormalForm, direction: float) -> int:
    return round((direction + nf.omega0 / nf.mu) * nf.mu / (2.0 * math.pi))


def sector_index(nf: SaddleNormalForm, direction: float) -> int:
    """Index k of the valley sector of width 2 pi / mu containing the ray.

    The sector about theta_k is open; a direction within BOUNDARY_TOL
    of a ridge is rejected, since the choice there is genuinely
    ambiguous and must be made by the caller.
    """
    cls = classify_direction(nf, direction)
    if cls.kind != "valley":
        raise ValueError(
            f"direction {direction:.6g} is not interior to a valley sector "
            f"(classified as {cls.kind}); perturb it or pick k explicitly")
    k = _nearest_sector(nf, direction)
    diff = _wrap_angle(direction - theta(nf, k))
    if abs(diff) >= math.pi / nf.mu:
        raise ValueError(f"direction {direction:.6g} lies on a sector ridge")
    return k


def _wrap_angle(x: float) -> float:
    return math.remainder(x, 2.0 * math.pi)


def _circle_derivatives(f: Callable[[complex], complex], z: complex,
                        radius: float = 1e-2, nodes: int = 16):
    """First two derivatives of an analytic f by circle sampling.

    The trapezoid rule on |w - z| = radius computes the Cauchy
    coefficients with aliasing error O((radius/R)^nodes) for R the
    distance to the nearest singularity, and rounding error about
    eps |f| / radius, far below plain difference quotients.
    """
    first = 0.0 + 0.0j
    second = 0.0 + 0.0j
    for k in range(nodes):
        w = cmath.exp(2j * math.pi * k / nodes)
        val = f(z + radius * w)
        first += val / w
        second += val / (w * w)
    first /= nodes * radius
    second *= 2.0 / (nodes * radius * radius)
    return first, second


def find_saddle(p: Callable[[complex], complex],
                guess: complex,
                tol: float = 1e-13,
                dp: Optional[Callable[[complex], complex]] = None,
                max_iterations: int = 100,
                sample_radius: float = 1e-2) -> RootResult:
    """Damped Newton search for a zero of p' starting from ``guess``.

    ``dp`` is p' when available; otherwise both derivatives come from
    circle sampling of p (legitimate because p is holomorphic; p must
    be analytic within ``sample_radius`` of the iterates).  Multiple
    saddles need distinct guesses; there is no global search.  Raises
    RuntimeError if |p'| does not reach ``tol`` within the caps.
    """
    if dp is None:
        def fdf(z: complex):
            return _circle_derivatives(p, z, sample_radius)
    else:
        def fdf(z: complex):
            d2, _ = _circle_derivatives(dp, z, sample_radius)
            return dp(z), d2

    z = complex(guess)
    fz, dfz = fdf(z)
    for it in range(1, max_iterations + 1):
        if abs(fz) <= tol:
            return RootResult(z, abs(fz), it - 1)
        if dfz == 0:
            raise RuntimeError("second derivative vanished during Newton search")
        step = fz / dfz
        lam = 1.0
        for _ in range(30):
            zn = z - lam * step
            fn, dfn = fdf(zn)
            if abs(fn) < abs(fz) or abs(fn) <= tol:
                break
            lam *= 0.5
        else:
            raise RuntimeError(
                f"Newton damping failed to reduce |p'| below {abs(fz):.3g}")
        z, fz, dfz = zn, fn, dfn
    if abs(fz) <= tol:
        return RootResult(z, abs(fz), max_iterations)
    raise RuntimeError(
        f"saddle search did not converge in {max_iterations} iterations "
        f"(residual {abs(fz):.3g})")


def check_max_condition(p: Callable[[complex], complex],
                        contour,
                        z0: complex,
                        samples: int = 2048,
                        exclusion_radius: float = 1e-6) -> MaxConditionReport:
    """Sample Re p(z) - Re p(z0) along a contour; pass iff negative.

    The strict inequality is required away from z0 only, so sample
    points inside ``exclusion_radius`` of z0 are skipped.  This is a
    report, not a proof: it samples uniformly in each piece parameter,
    ``samples`` points per piece (at least 2).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per contour piece")
    ref = p(z0).real
    worst = -math.inf
    arg = complex(z0)
    used = 0
    skipped = 0
    for piece in contour.pieces:
        for i in range(samples):
            t = i / (samples - 1)
            z = piece.point(t)
            if abs(z - z0) < exclusion_radius:
                skipped += 1
                continue
            used += 1
            excess = p(z).real - ref
            if excess > worst:
                worst = excess
                arg = z
    return MaxConditionReport(
        passed=(worst < 0.0),
        max_excess=worst,
        argmax=arg,
        samples=used,
        excluded=skipped,
    )
