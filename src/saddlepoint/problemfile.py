"""Saddle problems: the problem-file parser, the built-in worked
problems and the one pipeline that runs either.

``parse_problem_text`` turns a problem file into a ``Problem``;
``example_problem`` builds one from the ``EXAMPLES`` registry (the
worked problems of :mod:`saddlepoint.classic`); ``run_problem``
computes the expansion and checks it against the quadrature oracle.

The format is line oriented: ``key = <json value>`` with ``#``
comments and blank lines ignored.  Keys, one line each, no repeats:

    z0       [re, im]; optional when p names a builtin (which brings
             its own expansion point)
    p        Taylor coefficients of the phase at z0 as [[re, im], ...]
             (index = power of z - z0), or {"builtin": name, "order":
             M} with name in gamma | kepler | center | parabolic;
             center also takes "eps", and no other key is accepted
    q        amplitude, same two forms; builtin names: one | center |
             parabolic
    a        exponent parameter of the (z - z0)^(a-1) factor: an
             integer, an exact rational "num/den", or [re, im]
    variant  endpoint | through | even_opposite | circle_path
    k        sector index (endpoint, even_opposite)
    k1, k2   sector indices (through, circle_path)
    order    number S of expansion terms
    contour  optional validation path: list of
             {"segment": [[re,im],[re,im]]} and
             {"arc": {"center": [re,im], "radius": r, "from": t0, "to": t1}}
    initial_branch_angle   optional float for the power-factor branch
    n_values optional list of N at which to compare with quadrature

Coefficient lists must resolve the requested order: the phase needs
mu + S - 1 coefficients past the constant and the amplitude S - 1.
When validating on a contour, coefficient-list inputs are integrated
as the polynomials they literally define, while a builtin name stands
for one definition of :mod:`saddlepoint.classic` that gives both its
Taylor data and the transcendental function the oracle integrates.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from ._record import Record
from .classic import (agreement_digits, center_amplitude, center_contour,
                      center_d_values, center_phase, center_saddle,
                      gamma_contour, gamma_phase, gamma_stirling,
                      kepler_contour, kepler_d_table, kepler_phase,
                      normal_form, parabolic_amplitude, parabolic_contour,
                      parabolic_d_table, taylor)
from .expansion import (BranchSpec, CirclePath, Endpoint, EvenOpposite,
                        ExponentParam, Through, alpha_bell, alpha_direct,
                        assemble, term_factors)
from .quadrature import (DEFAULT_REL_TOL, Arc, Contour, Segment,
                         integrate_power_factor)
from .saddle import normalize
from .series import TruncatedSeries

__all__ = ["Problem", "ProblemFileError", "parse_problem_file", "parse_problem_text",
           "EXAMPLES", "Example", "example_problem",
           "Validation", "ProblemRun", "run_problem"]


class ProblemFileError(ValueError):
    """Problem file rejected; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class Problem(Record):
    """A fully resolved saddle problem ready for the expansion pipeline.

    ``normal_form``, the amplitude series ``q``, ``a``, ``branch`` and
    ``order`` give the expansion; the oracle integrates ``p_callable``
    and ``q_callable`` along ``contour`` (``None`` when there is nothing
    to validate) at each N of ``n_values``.
    """

    __slots__ = ("normal_form", "q", "a", "branch", "order", "p_callable",
                 "q_callable", "contour", "n_values")


def _as_complex(value, key: str, line: int) -> complex:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, (int, float)) for x in value)):
        raise ProblemFileError(f"{key} must be a pair [re, im]", line)
    z = complex(value[0], value[1])
    if not cmath.isfinite(z):
        raise ProblemFileError(f"{key} must be finite, not {value}", line)
    return z


def _coeff_list(value, key: str, line: int) -> list:
    if not isinstance(value, list) or not value:
        raise ProblemFileError(f"{key} coefficient list must be non-empty", line)
    return [_as_complex(item, f"{key}[{i}]", line) for i, item in enumerate(value)]


def _one(z, m=cmath):
    return 1.0 + 0.0j


#: builtin kind -> name -> eps -> (definition f(z, m=cmath), expansion
#: point, None for the phase's); the parabolic amplitude expands at the
#: exact 0 and is rounded once, since its float series drifts
_BUILTINS = {
    "phase": {
        "gamma": lambda eps: (gamma_phase, 1.0),
        "kepler": lambda eps: (kepler_phase, 0.0),
        "parabolic": lambda eps: (kepler_phase, 0.0),
        "center": lambda eps: (center_phase(eps), center_saddle(eps)),
    },
    "amplitude": {
        "one": lambda eps: (_one, None),
        "center": lambda eps: (center_amplitude(eps), center_saddle(eps)),
        "parabolic": lambda eps: (parabolic_amplitude, 0),
    },
}


def _eccentricity(eps, what: str, line: Optional[int]) -> float:
    if eps is None:
        raise ProblemFileError(f"{what} needs \"eps\"", line)
    if (isinstance(eps, bool) or not isinstance(eps, (int, float))
            or not 0.0 < eps < 1.0):
        raise ProblemFileError(
            f"{what}: \"eps\" must be an eccentricity in (0, 1), not {eps!r}", line)
    return eps


def _builtin_name(spec: dict, what: str, line: int) -> str:
    """The builtin's name; the spec may hold only builtin, order and,
    for center, eps."""
    name = spec.get("builtin")
    if not isinstance(name, str):
        raise ProblemFileError(f"{what} needs a \"builtin\" name", line)
    accepted = ("builtin", "order", "eps") if name == "center" else ("builtin", "order")
    for key in spec:
        if key not in accepted:
            raise ProblemFileError(
                f"{what} {name!r}: unknown key {key!r}; accepted: "
                f"{', '.join(accepted)}", line)
    return name


def _builtin_order(spec: dict, order: int, what: str, line: int) -> int:
    """The builtin's own series order: at least the order - 1 the routes read."""
    own = spec.get("order", order - 1)
    if not isinstance(own, int) or isinstance(own, bool):
        raise ProblemFileError(f"{what}: \"order\" must be an integer", line)
    return max(own, order - 1)


def _builtin(kind: str, name: str, order: int, eps, z0, line: Optional[int]):
    """(normal form or amplitude series to ``order``, oracle callable) of
    the ``kind`` builtin ``name``; ``z0`` is the phase's expansion point."""
    table = _BUILTINS[kind]
    if name not in table:
        raise ProblemFileError(
            f"unknown {kind} builtin {name!r}; choose from {sorted(table)}", line)
    eps = (_eccentricity(eps, f"builtin {kind} 'center'", line)
           if name == "center" else None)
    return _builtin_data(kind, name, order, eps, z0)


@lru_cache(maxsize=128)
def _builtin_data(kind: str, name: str, order: int, eps, z0):
    """The Taylor data and callable of a valid builtin.  They depend on
    these arguments alone and are immutable, so a session that parses the
    same builtin again (at other N, say) reuses them."""
    f, point = _BUILTINS[kind][name](eps)
    if kind == "phase":
        return normal_form(f, point, order), f
    return taylor(f, z0 if point is None else point, order) * 1.0, f


class _Worked(NamedTuple):
    """A built-in worked problem; ``order`` maps terms to the order S."""

    phase: str
    amplitude: str
    a: ExponentParam
    branch: BranchSpec
    contour: Callable[[float], Contour]
    terms: int
    table: Callable[[int, float], list]
    order: Callable[[int], int] = lambda terms: terms
    rel_tol_cap: float = math.inf


EXAMPLES = {
    # terms counts the Stirling rationals; odd orders vanish
    "gamma": _Worked("gamma", "one", 1, EvenOpposite(0),
                     lambda eps: gamma_contour(), 3,
                     lambda terms, eps: gamma_stirling(terms),
                     lambda terms: 2 * terms + 1, 1e-12),
    "kepler": _Worked("kepler", "one", 1, Through(1, 0),
                      lambda eps: kepler_contour(), 10,
                      lambda terms, eps: kepler_d_table(terms - 1)),
    "center": _Worked("center", "center", 0, CirclePath(1, 2),
                      center_contour, 13,
                      lambda terms, eps: center_d_values(eps, min(terms - 1, 9))),
    "parabolic": _Worked("parabolic", "parabolic", -1, CirclePath(1, 0),
                         lambda eps: parabolic_contour(), 8,
                         lambda terms, eps: parabolic_d_table(terms - 1)),
}


class Example(Record):
    """A built-in worked problem at concrete parameters."""

    __slots__ = ("name", "parameters", "problem", "rel_tol")

    @property
    def coefficient_table(self) -> tuple:
        """The example's coefficient table, built anew on each access,
        so a run that fails first never pays for it."""
        p = self.parameters
        return tuple(EXAMPLES[self.name].table(p["terms"], p.get("eps")))


def example_problem(name: str, n: float = 50.0, eps: float = 0.4,
                    terms: Optional[int] = None,
                    rel_tol: float = DEFAULT_REL_TOL) -> Example:
    """``EXAMPLES[name]`` validated at N = ``n``; ``eps`` is read by
    ``center`` only.  Bad parameters raise ``ProblemFileError``."""
    entry = EXAMPLES[name]
    terms = entry.terms if terms is None else terms
    if terms < 1:
        raise ProblemFileError("need at least one term")
    if not n > 0:
        raise ProblemFileError("expansion parameter N must be positive")
    if not math.isfinite(n):
        raise ProblemFileError(f"expansion parameter N must be finite, not {n}")
    order = entry.order(terms)
    nf, p_callable = _builtin("phase", entry.phase, order - 1, eps, None, None)
    q, q_callable = _builtin("amplitude", entry.amplitude, order - 1, eps,
                             nf.z0, None)
    problem = Problem(nf, q, entry.a, entry.branch, order, p_callable,
                      q_callable, entry.contour(eps), (n,))
    parameters = ({"n": n, "eps": eps, "terms": terms} if entry.phase == "center"
                  else {"n": n, "terms": terms})
    return Example(name, parameters, problem, min(rel_tol, entry.rel_tol_cap))


def _parse_a(value, line: int) -> ExponentParam:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ProblemFileError(f"bad rational {value!r} for a", line) from None
    if isinstance(value, list):
        return _as_complex(value, "a", line)
    if isinstance(value, float) and math.isfinite(value):
        return value
    raise ProblemFileError(f"a must be a finite number, rational string or pair, "
                           f"not {value}", line)


def _parse_contour(value, initial_branch_angle, line: int) -> Contour:
    if not isinstance(value, list) or not value:
        raise ProblemFileError("contour must be a non-empty list of pieces", line)
    pieces = []
    for i, raw in enumerate(value):
        if not isinstance(raw, dict) or len(raw) != 1:
            raise ProblemFileError(
                f"contour[{i}] must be a single-key object", line)
        kind, body = next(iter(raw.items()))
        if kind == "segment":
            if not isinstance(body, list) or len(body) != 2:
                raise ProblemFileError(
                    f"contour[{i}].segment needs [start, end]", line)
            pieces.append(Segment(_as_complex(body[0], "segment start", line),
                                  _as_complex(body[1], "segment end", line)))
        elif kind == "arc":
            try:
                pieces.append(Arc(
                    center=_as_complex(body["center"], "arc center", line),
                    radius=float(body["radius"]),
                    angle_from=float(body["from"]),
                    angle_to=float(body["to"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ProblemFileError(f"bad arc in contour[{i}]: {exc}", line) from None
        else:
            raise ProblemFileError(
                f"contour[{i}] kind must be 'segment' or 'arc', not {kind!r}", line)
    try:
        return Contour(pieces, initial_branch_angle)
    except ValueError as exc:
        raise ProblemFileError(str(exc), line) from None


_VARIANTS = {"endpoint", "through", "even_opposite", "circle_path"}


def _parse_branch(entries) -> BranchSpec:
    variant, line = entries.require("variant")
    if variant not in _VARIANTS:
        raise ProblemFileError(
            f"variant must be one of {sorted(_VARIANTS)}, not {variant!r}", line)
    if variant in ("endpoint", "even_opposite"):
        k, kline = entries.require("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise ProblemFileError("k must be an integer", kline)
        entries.forbid("k1", f"variant {variant} takes k, not k1/k2")
        entries.forbid("k2", f"variant {variant} takes k, not k1/k2")
        return Endpoint(k) if variant == "endpoint" else EvenOpposite(k)
    k1, l1 = entries.require("k1")
    k2, l2 = entries.require("k2")
    for name, val, ln in (("k1", k1, l1), ("k2", k2, l2)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ProblemFileError(f"{name} must be an integer", ln)
    entries.forbid("k", f"variant {variant} takes k1/k2, not k")
    return Through(k1, k2) if variant == "through" else CirclePath(k1, k2)


class _Entries:
    def __init__(self):
        self.data = {}

    def put(self, key: str, value, line: int) -> None:
        if key in self.data:
            raise ProblemFileError(
                f"duplicate key {key!r} (first on line {self.data[key][1]})", line)
        self.data[key] = (value, line)

    def take(self, key: str, default=None):
        if key in self.data:
            value, line = self.data.pop(key)
            return value, line
        return default, None

    def require(self, key: str):
        if key not in self.data:
            raise ProblemFileError(f"missing required key {key!r}")
        return self.data.pop(key)

    def forbid(self, key: str, reason: str) -> None:
        if key in self.data:
            _, line = self.data[key]
            raise ProblemFileError(reason, line)

    def reject_unknown(self) -> None:
        if self.data:
            key = sorted(self.data)[0]
            raise ProblemFileError(f"unknown key {key!r}", self.data[key][1])


def parse_problem_text(text: str) -> Problem:
    entries = _Entries()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProblemFileError("expected 'key = <json value>'", lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        try:
            value = json.loads(rhs.strip())
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"bad JSON value for {key!r}: {exc.msg}",
                                   lineno) from None
        entries.put(key, value, lineno)

    order, oline = entries.require("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ProblemFileError("order must be a positive integer", oline)

    a_raw, aline = entries.take("a")
    a = 1 if a_raw is None else _parse_a(a_raw, aline)

    z0_raw, z0line = entries.take("z0")
    z0 = None if z0_raw is None else _as_complex(z0_raw, "z0", z0line)

    p_raw, pline = entries.require("p")
    eps_for_builtin = None
    if isinstance(p_raw, dict):
        name = _builtin_name(p_raw, "builtin phase", pline)
        eps_for_builtin = p_raw.get("eps")
        nf, p_callable = _builtin(
            "phase", name, _builtin_order(p_raw, order, "builtin phase", pline),
            eps_for_builtin, None, pline)
        if z0 is not None and abs(z0 - nf.z0) > 1e-9:
            raise ProblemFileError(
                f"z0 = {z0} conflicts with builtin expansion point {nf.z0}", z0line)
    else:
        if z0 is None:
            raise ProblemFileError("z0 is required when p is a coefficient list",
                                   pline)
        coeffs = _coeff_list(p_raw, "p", pline)
        series = TruncatedSeries(z0, coeffs)
        try:
            nf = normalize(series)
        except ValueError as exc:
            raise ProblemFileError(f"degenerate phase: {exc}", pline) from None
        p_callable = series

    q_raw, qline = entries.take("q")
    if q_raw is None:
        q, q_callable = taylor(_one, nf.z0, order - 1), _one
    elif isinstance(q_raw, dict):
        name = _builtin_name(q_raw, "builtin amplitude", qline)
        q, q_callable = _builtin(
            "amplitude", name, _builtin_order(q_raw, order, "builtin amplitude", qline),
            q_raw.get("eps", eps_for_builtin), nf.z0, qline)
        if abs(q.base - nf.z0) > 1e-9:
            raise ProblemFileError(
                f"amplitude builtin {name!r} expands at {q.base}, "
                f"but the phase expands at {nf.z0}", qline)
    else:
        coeffs = _coeff_list(q_raw, "q", qline)
        q = TruncatedSeries(nf.z0, coeffs)
        q_callable = q

    if nf.phi.order < order - 1:
        raise ProblemFileError(
            f"phase coefficients resolve only {nf.phi.order + 1} expansion "
            f"terms (need mu + {order - 1} powers past the constant for "
            f"order {order})", pline)
    if q.order < order - 1:
        raise ProblemFileError(
            f"amplitude coefficients resolve only {q.order + 1} expansion "
            f"terms (need {order - 1} powers for order {order})",
            qline if qline else pline)

    branch = _parse_branch(entries)

    iba_raw, ibaline = entries.take("initial_branch_angle")
    iba = None
    if iba_raw is not None:
        if (not isinstance(iba_raw, (int, float)) or isinstance(iba_raw, bool)
                or not math.isfinite(iba_raw)):
            raise ProblemFileError("initial_branch_angle must be a finite number",
                                   ibaline)
        iba = float(iba_raw)

    contour_raw, cline = entries.take("contour")
    contour = None
    if contour_raw is not None:
        contour = _parse_contour(contour_raw, iba, cline)

    n_raw, nline = entries.take("n_values")
    n_values = ()
    if n_raw is not None:
        if (not isinstance(n_raw, list) or not n_raw
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           and 0 < x < math.inf for x in n_raw)):
            raise ProblemFileError(
                "n_values must be a list of positive finite numbers", nline)
        n_values = tuple([float(x) for x in n_raw])
    if n_values and contour is None:
        raise ProblemFileError("n_values given without a contour", nline)

    entries.reject_unknown()

    return Problem(normal_form=nf, q=q, a=a, branch=branch, order=order,
                   p_callable=p_callable, q_callable=q_callable,
                   contour=contour, n_values=n_values)


def parse_problem_file(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc.strerror}") from None
    return parse_problem_text(text)


class Validation(Record):
    """The expansion against the quadrature oracle at one N."""

    __slots__ = ("n", "value", "oracle", "digits")


class ProblemRun(Record):
    """What ``run_problem`` computed for one problem: the expansion, the
    route deviation and one ``Validation`` per N."""

    __slots__ = ("expansion", "route_deviation", "validations")


def run_problem(problem: Problem, rel_tol: float = DEFAULT_REL_TOL) -> ProblemRun:
    """Both alpha routes, assembly, and the expansion against the oracle
    at each N of the problem.

    The route deviation is max_s |bell_s - direct_s| / |bell_s|, with
    the largest |alpha| in place of a zero |bell_s|.  The oracle is one
    ``integrate_power_factor`` call per N for every a (branch-tracked
    unless a is an integer).  A branch variant that
    does not fit the saddle raises ``ValueError``, and so does an N at
    which N p(z) is not finite on the contour; a coefficient that
    overflows double precision on either route raises ``OverflowError``.
    ``term_factors`` is called first as a check, so a Gamma(e_s) past
    double precision raises ``OverflowError`` before either route runs.
    """
    nf = problem.normal_form
    term_factors(problem.a, nf.mu, problem.branch, problem.order)
    alphas = alpha_bell(nf, problem.q, problem.a, problem.order)
    cross = alpha_direct(nf, problem.q, problem.a, problem.order)
    if not all(cmath.isfinite(x) for x in alphas.alphas + cross.alphas):
        raise OverflowError("an expansion coefficient alpha_s is not finite")
    scale = max(abs(x) for x in alphas.alphas) or 1.0
    route_dev = max(abs(x - y) / (abs(x) if x != 0 else scale)
                    for x, y in zip(alphas.alphas, cross.alphas))
    expansion = assemble(alphas, nf, problem.branch)

    validations = []
    for n in problem.n_values:
        def f(z, n=n):
            exponent = n * complex(problem.p_callable(z))
            try:
                growth = cmath.exp(exponent)
            except ValueError:
                raise ValueError(
                    f"at N = {n:.17g} the integrand e^{{N p(z)}} q(z) is outside "
                    f"double precision (N p(z) = {exponent})") from None
            return growth * complex(problem.q_callable(z))
        oracle = integrate_power_factor(f, complex(problem.a), nf.z0,
                                        problem.contour,
                                        abs_tol=0.0, rel_tol=rel_tol)
        value = expansion.evaluate(n, problem.order)
        validations.append(Validation(n, value, oracle,
                                      agreement_digits(value, oracle.value)))
    return ProblemRun(expansion, route_dev, tuple(validations))
