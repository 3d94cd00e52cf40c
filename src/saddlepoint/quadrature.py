"""Adaptive complex contour quadrature with branch tracking.

Contours are chains of straight segments and circular arcs, each
parameterized over [0, 1].  Every piece starts as one panel of an
embedded 7/15-point Gauss-Kronrod pair, whose G/K discrepancy is the
panel's error estimate.  One refinement loop (QUADPACK's QAG) keeps
the panels that can still improve on a heap and always bisects the one
with the largest error, until the total error meets
max(abs_tol, rel_tol |value|).  A panel is final once its error is
within max(rel_tol / 16, 2**-52) of its own value, the rounding floor
past which bisection only chases noise, or once it is ``MAX_DEPTH``
bisections deep.  The loop gives up, not converged, when no panel is
left to split, when ``MAX_EVALUATIONS`` integrand calls are spent, or
when the final panels alone hold more error than the target and at
least as much as the panels still open: a tolerance below what double
precision resolves ends there, close to the best value it allows.

One builder makes every per-piece integrand w(z) f(z) dz/dt.
``integrate_power_factor`` integrates (z - z0)^(a-1) f(z) through it;
``integrate`` is its a = 1 case, which has no weight.  For any other
integer a the weight is the single-valued power (z - z0)**(a-1) and no
branch is tracked.  Only a non-integer a makes it multivalued; then
arg(z - z0) starts at a declared initial branch angle and each piece
adds its own turn, arg(z - z0) less its value at the piece's start,
from a closed form with no sampling.  On a segment, and on an arc
about c of radius R < |c - z0|, the turn is phase((z - z0) / (z_start -
z0)): a segment, like a disc that misses z0, subtends less than pi at
z0.  On an arc with |c - z0| <= R it is the change of the arc angle
plus that of phase((z - z0) / (z - c)), a ratio 1 + u with
|u| = |c - z0| / R <= 1.  No principal phase here can jump, however
close z0 comes to the path or however often an arc winds about it; an
arc centred on z0 turns by exactly its swept angle.  The tracked angle
is a function of the path parameter alone, independent of the order
in which nodes are visited.

Every panel is evaluated once, as one batch: its piece gives the
points and velocities of all 15 nodes in one call, and the weighted
integrand maps over them.  ``QuadratureResult.evaluations`` counts the
integrand calls, 15 per panel.  Ties on the heap go to the earlier
panel along the contour, and the leaf panels are summed in contour
order, so results are deterministic given a reentrant integrand.
"""

from __future__ import annotations

import cmath
import heapq
import math
from typing import Callable, Optional, Sequence, Union

from ._record import Record

__all__ = [
    "Segment",
    "Arc",
    "Contour",
    "QuadratureResult",
    "integrate",
    "integrate_power_factor",
    "builtin_integrand",
    "BUILTIN_INTEGRANDS",
]

_ENDPOINT_TOL = 1e-12

DEFAULT_ABS_TOL = 1e-13
DEFAULT_REL_TOL = 1e-11


#: cap on the bisection depth of one contour piece
MAX_DEPTH = 40


class Segment(Record):
    __slots__ = ("start", "end")

    def point(self, t: float) -> complex:
        return self.start + (self.end - self.start) * t

    def points_velocities(self, ts: Sequence[float]) -> tuple:
        """The lists of ``point(t)`` and dz/dt over ``ts``."""
        velocity = self.end - self.start
        return [self.start + velocity * t for t in ts], [velocity] * len(ts)

    def turns(self, ts: Sequence[float], zs: Sequence[complex],
              z0: complex) -> list:
        """arg(z - z0) at the points ``zs`` less its value at the start."""
        w0 = self.start - z0
        return [cmath.phase((z - z0) / w0) for z in zs]

    def distance(self, p: complex) -> float:
        """Distance from p to the nearest point of the segment."""
        d = self.end - self.start
        t = ((p - self.start) * d.conjugate()).real / (abs(d) ** 2 or 1.0)
        return abs(p - self.point(min(1.0, max(0.0, t))))

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)

    @property
    def first(self) -> complex:
        return self.start

    @property
    def last(self) -> complex:
        return self.end


class Arc(Record):
    """Circular arc about ``center`` from ``angle_from`` to ``angle_to``.

    Orientation and winding are encoded by the signed angle sweep;
    sweeps beyond 2 pi are allowed and meaningful for branch tracking.
    """

    __slots__ = ("center", "radius", "angle_from", "angle_to")

    def __init__(self, center: complex, radius: float, angle_from: float,
                 angle_to: float):
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError(f"arc radius must be positive and finite, not {radius}")
        if not (math.isfinite(angle_from) and math.isfinite(angle_to)):
            raise ValueError("arc angles must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "angle_from", angle_from)
        object.__setattr__(self, "angle_to", angle_to)

    def angle(self, t: float) -> float:
        return self.angle_from + (self.angle_to - self.angle_from) * t

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.angle(t))

    def points_velocities(self, ts: Sequence[float]) -> tuple:
        """The lists of ``point(t)`` and dz/dt over ``ts``, from one
        complex exponential per parameter."""
        sweep = self.angle_to - self.angle_from
        turns = [cmath.exp(1j * (self.angle_from + sweep * t)) for t in ts]
        scale = self.radius * 1j * sweep
        return ([self.center + self.radius * turn for turn in turns],
                [scale * turn for turn in turns])

    def turns(self, ts: Sequence[float], zs: Sequence[complex],
              z0: complex) -> list:
        """arg(z - z0) at the points ``zs`` (parameters ``ts``) less its
        value at the start, continuous along the arc."""
        c = self.center
        if abs(c - z0) <= self.radius:
            sweep = self.angle_to - self.angle_from
            w0 = self.first
            t0 = cmath.phase((w0 - z0) / (w0 - c))
            return [sweep * t + cmath.phase((z - z0) / (z - c)) - t0
                    for t, z in zip(ts, zs)]
        w0 = self.first - z0
        return [cmath.phase((z - z0) / w0) for z in zs]

    def distance(self, p: complex) -> float:
        """Exact distance from p: radial when the ray from the center
        through p crosses the swept angles, else to an endpoint."""
        d = p - self.center
        lo = min(self.angle_from, self.angle_to)
        span = abs(self.angle_to - self.angle_from)
        # the representative of arg(d) at or above the lower sweep angle
        phi = cmath.phase(d)
        phi += 2.0 * math.pi * math.ceil((lo - phi) / (2.0 * math.pi))
        if span >= 2.0 * math.pi or phi <= lo + span:
            return abs(abs(d) - self.radius)
        return min(abs(p - self.first), abs(p - self.last))

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.angle_to, self.angle_from)

    @property
    def first(self) -> complex:
        return self.point(0.0)

    @property
    def last(self) -> complex:
        return self.point(1.0)


Piece = Union[Segment, Arc]


class Contour(Record):
    """Piecewise path of segments and arcs with shared endpoints.

    ``initial_branch_angle`` is the value of arg(z - z0) assigned at
    the starting point when the contour carries a power factor; it is
    optional and ignored by plain integration.
    """

    __slots__ = ("pieces", "initial_branch_angle")

    def __init__(self, pieces: Sequence[Piece],
                 initial_branch_angle: Optional[float] = None):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("contour needs at least one piece")
        for prev, nxt in zip(pieces, pieces[1:]):
            gap = abs(prev.last - nxt.first)
            scale = max(1.0, abs(prev.last))
            if gap > _ENDPOINT_TOL * scale:
                raise ValueError(
                    f"consecutive contour pieces do not share endpoints: "
                    f"{prev.last} vs {nxt.first} (gap {gap:.3g})")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "initial_branch_angle", initial_branch_angle)

    @staticmethod
    def from_points(points: Sequence[complex],
                    initial_branch_angle: Optional[float] = None) -> "Contour":
        """Polyline through the given vertices."""
        if len(points) < 2:
            raise ValueError("need at least two points")
        segs = [Segment(complex(a), complex(b))
                for a, b in zip(points, points[1:])]
        return Contour(segs, initial_branch_angle)

    @property
    def first(self) -> complex:
        return self.pieces[0].first

    @property
    def last(self) -> complex:
        return self.pieces[-1].last

    def reversed(self) -> "Contour":
        return Contour([piece.reversed() for piece in reversed(self.pieces)])


class QuadratureResult(Record):
    __slots__ = ("value", "error_estimate", "evaluations", "converged")


# 7/15 Gauss-Kronrod pair on [-1, 1]; Kronrod nodes with weights, the
# Gauss rule reuses every second node.
_XK = (
    -0.9914553711208126392068547, -0.9491079123427585245261897,
    -0.8648644233597690727897128, -0.7415311855993944398638648,
    -0.5860872354676911302941448, -0.4058451513773971669066064,
    -0.2077849550078984676006894, 0.0,
    0.2077849550078984676006894, 0.4058451513773971669066064,
    0.5860872354676911302941448, 0.7415311855993944398638648,
    0.8648644233597690727897128, 0.9491079123427585245261897,
    0.9914553711208126392068547,
)
_WK = (
    0.0229353220105292249637320, 0.0630920926299785532907007,
    0.1047900103222501838398763, 0.1406532597155259187451896,
    0.1690047266392679028265834, 0.1903505780647854099132564,
    0.2044329400752988924141620, 0.2094821410847278280129992,
    0.2044329400752988924141620, 0.1903505780647854099132564,
    0.1690047266392679028265834, 0.1406532597155259187451896,
    0.1047900103222501838398763, 0.0630920926299785532907007,
    0.0229353220105292249637320,
)
_WG = (
    0.1294849661688696932706114, 0.2797053914892766679014678,
    0.3818300505051189449503698, 0.4179591836734693877551020,
    0.3818300505051189449503698, 0.2797053914892766679014678,
    0.1294849661688696932706114,
)


def _gk15(g: Callable[[list], list], t0: float, t1: float):
    """One Gauss-Kronrod step of g over [t0, t1]: (K15, |K15 - G7|),
    from one call of g on the 15 nodes."""
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    vs = g([mid + half * x for x in _XK])
    k = 0.0 + 0.0j
    for w, v in zip(_WK, vs):
        k += w * v
    gauss = 0.0 + 0.0j
    for w, v in zip(_WG, vs[1::2]):
        gauss += w * v
    return k * half, abs(k - gauss) * abs(half)


#: hard cap on integrand evaluations per integrate() call; an integrand
#: the panels cannot resolve (non-finite values, oscillation far past
#: the panel width) comes back flagged non-converged instead of running
#: away
MAX_EVALUATIONS = 2_000_000


def _integrate_parameterized(f, pieces, weights, abs_tol, rel_tol):
    """Adaptive integral of w(z) f(z) dz along ``pieces``: the one
    builder of the per-piece batch integrands.  ``weights`` is None
    (w = 1, no weight list) or, per piece, a callable from the node
    parameters and points to their weights.

    The refinement loop of the module docstring runs on running totals;
    on exit the leaf panels are summed afresh in contour order.  A value
    and an error both exactly 0 (an integrand that underflowed on every
    node) show nothing, so they come back not converged.
    """

    def make(i: int):
        trace = pieces[i].points_velocities
        if weights is None:
            def g(ts: list) -> list:
                zs, vs = trace(ts)
                return [f(z) * v for z, v in zip(zs, vs)]
        else:
            weight = weights[i]

            def g(ts: list) -> list:
                zs, vs = trace(ts)
                return [w * f(z) * v for w, z, v in zip(weight(ts, zs), zs, vs)]
        return g

    integrands = [make(i) for i in range(len(pieces))]
    floor = max(rel_tol / 16.0, 2.0 ** -52)
    final = []      # (piece, t0, value, error) of the final panels
    heap = []       # (-error, piece, t0, t1, depth, value) of the others
    value = 0j
    final_err = open_err = 0.0

    def panel(i: int, t0: float, t1: float, depth: int) -> None:
        nonlocal value, final_err, open_err
        v, e = _gk15(integrands[i], t0, t1)
        value += v
        if e <= floor * abs(v) or depth >= MAX_DEPTH:
            final.append((i, t0, v, e))
            final_err += e
        else:
            heapq.heappush(heap, (-e, i, t0, t1, depth, v))
            open_err += e

    for i in range(len(integrands)):
        panel(i, 0.0, 1.0, 0)
    evaluations = 15 * len(integrands)
    while heap and evaluations < MAX_EVALUATIONS:
        target = max(abs_tol, rel_tol * abs(value))
        if final_err + open_err <= target or target < final_err >= open_err:
            break
        neg_err, i, t0, t1, depth, v = heapq.heappop(heap)
        value -= v
        open_err += neg_err
        mid = 0.5 * (t0 + t1)
        panel(i, t0, mid, depth + 1)
        panel(i, mid, t1, depth + 1)
        evaluations += 30
    leaves = sorted(final + [(i, t0, v, -e) for e, i, t0, _, _, v in heap])
    value = sum(v for _, _, v, _ in leaves)
    err = sum(e for _, _, _, e in leaves)
    converged = (err <= max(abs_tol, rel_tol * abs(value))
                 and not (value == 0 and err == 0))
    return QuadratureResult(value, err, evaluations, converged)


def integrate(f: Callable[[complex], complex],
              contour: Contour,
              abs_tol: float = DEFAULT_ABS_TOL,
              rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Contour integral of f along ``contour``: the unweighted a = 1
    case of ``integrate_power_factor``.

    f must be finite on the path; singularities are allowed only off
    it.  A result with ``converged=False`` is the best estimate when the
    error target was out of reach: every panel final at its rounding
    floor or ``MAX_DEPTH``, the final panels' error over the target and
    at least that of the open ones, ``MAX_EVALUATIONS`` integrand calls
    spent, or an all-zero result.
    Heavily oscillatory integrands (phase parameters in the thousands)
    are outside this oracle's intended scope; the cost grows with the
    oscillation count.
    """
    return integrate_power_factor(f, 1, 0j, contour, abs_tol, rel_tol)


def integrate_power_factor(f: Callable[[complex], complex],
                           a: complex,
                           z0: complex,
                           contour: Contour,
                           abs_tol: float = DEFAULT_ABS_TOL,
                           rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Integral of (z - z0)^(a-1) f(z) along ``contour``.

    Every a goes through the one per-piece integrand builder; a = 1
    (``integrate``) has no weight.  For any other integer a the weight
    is single-valued, the plain power (z - z0)**(a-1), and no branch is
    tracked: ``initial_branch_angle`` has no effect.  For a >= 1 it is
    a polynomial and the contour may pass through z0; for a <= 0, z0 is
    a pole the contour must avoid.  For a non-integer a the contour must
    avoid z0, and the branch starts at ``contour.initial_branch_angle``
    (principal arg of the starting point when unset); each piece adds
    its closed-form ``turns`` (module docstring) at its nodes and its
    end turn to the running angle, so windings around z0 accumulate
    phase, exactly at any distance of z0 from the path.  The limits and
    the not-converged cases are those of ``integrate``.
    """
    pieces = contour.pieces
    aa = complex(a)
    single_valued = aa.imag == 0.0 and aa.real.is_integer()
    if (not single_valued or aa.real < 1.0) and any(
            piece.distance(z0) <= 1e-12 for piece in pieces):
        kind = "pole" if single_valued else "branch point"
        raise ValueError(f"contour passes through the {kind} z0")
    if aa == 1.0:
        return _integrate_parameterized(f, pieces, None, abs_tol, rel_tol)
    if single_valued:
        m = int(aa.real) - 1

        def power(ts: list, zs: list) -> list:
            return [(z - z0) ** m for z in zs]

        return _integrate_parameterized(f, pieces, [power] * len(pieces),
                                        abs_tol, rel_tol)

    if contour.initial_branch_angle is None:
        angle = cmath.phase(contour.first - z0)
    else:
        angle = float(contour.initial_branch_angle)
    exponent = aa - 1.0
    weights = []
    for piece in pieces:
        def power(ts: list, zs: list, start=angle, turns=piece.turns) -> list:
            return [cmath.exp(exponent * complex(math.log(abs(z - z0)),
                                                 start + turn))
                    for z, turn in zip(zs, turns(ts, zs, z0))]

        weights.append(power)
        angle += piece.turns([1.0], [piece.last], z0)[0]
    return _integrate_parameterized(f, pieces, weights, abs_tol, rel_tol)


# ----------------------------------------------------------------------
# Built-in integrands for the worked problems
# ----------------------------------------------------------------------

def _gamma_integrand(n: float) -> Callable[[complex], complex]:
    def f(z: complex) -> complex:
        return cmath.exp(n * (-z + cmath.log(z)))
    return f


def _kepler_plain_integrand(n: float) -> Callable[[complex], complex]:
    def f(z: complex) -> complex:
        return cmath.exp(n * 1j * (z - cmath.sin(z)))
    return f


def _center_integrand(n: float, eps: float) -> Callable[[complex], complex]:
    if not 0.0 < eps < 1.0:
        raise ValueError("eccentricity must lie in (0, 1)")

    def f(z: complex) -> complex:
        return cmath.exp(n * 1j * (z - eps * cmath.sin(z))) / (1.0 - eps * cmath.cos(z))
    return f


def _parabolic_integrand(n: float) -> Callable[[complex], complex]:
    def f(z: complex) -> complex:
        return cmath.exp(n * 1j * (z - cmath.sin(z))) / (1.0 - cmath.cos(z))
    return f


BUILTIN_INTEGRANDS = {
    "gamma": _gamma_integrand,
    "kepler_plain": _kepler_plain_integrand,
    "center": _center_integrand,
    "parabolic": _parabolic_integrand,
}


def builtin_integrand(name: str, **params) -> Callable[[complex], complex]:
    """Named integrand factory.

    gamma:        e^{N(-z + log z)}            params: n
    kepler_plain: e^{N i (z - sin z)}          params: n
    center:       e^{N i (z - eps sin z)} / (1 - eps cos z)   params: n, eps
    parabolic:    e^{N i (z - sin z)} / (1 - cos z)           params: n
    """
    try:
        factory = BUILTIN_INTEGRANDS[name]
    except KeyError:
        raise ValueError(f"unknown integrand {name!r}; "
                         f"choose from {sorted(BUILTIN_INTEGRANDS)}") from None
    return factory(**params)
