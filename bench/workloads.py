"""Seeded inputs, operations and output checks for the three workloads.

Every operation calls the library only through entry points that stay
public: ``parse_problem_text``, ``normalize``, ``alpha_bell``,
``alpha_direct``, ``assemble``, ``AsymptoticExpansion.evaluate``,
``integrate``, ``integrate_power_factor``, the exact ``classic`` tables,
``waves.wave_coefficients`` and ``cli.main``.  Each call goes through
``tracer.call`` so that a traced run can put a span around it.

An operation returns the list of reasons it failed its check (empty
when it passed).  Known defects of the library are not filtered out:
underflow to zero, oracle non-convergence and lost coefficient digits
all count as failures.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from saddlepoint import classic, cli, waves
from saddlepoint.expansion import (CirclePath, EvenOpposite, Through,
                                   alpha_bell, alpha_direct, assemble)
from saddlepoint.problemfile import parse_problem_text
from saddlepoint.quadrature import integrate, integrate_power_factor
from saddlepoint.saddle import normalize
from saddlepoint.series import TruncatedSeries

#: fewest digits of agreement an expansion may share with its oracle;
#: the CLI's MIN_EXAMPLE_DIGITS
MIN_DIGITS = 4

#: largest relative error of a float coefficient against its exact table
COEFF_REL_TOL = 1e-6

#: largest relative difference between overlapping wave coefficients
#: computed with different t_max
WAVE_REL_TOL = 1e-9

#: seconds one CLI subprocess may take before it counts as hung
CLI_TIMEOUT = 120


@dataclass
class Op:
    """One operation: ``run(tracer)`` returns its failure reasons."""

    id: str
    run: Callable


@dataclass
class Workload:
    ops: list
    digest: str


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _nonzero_finite(label: str, z: complex, reasons: list) -> bool:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        reasons.append(f"{label} is not finite")
        return False
    if z == 0:
        reasons.append(f"{label} is exactly zero")
        return False
    return True


def agreement(value: complex, reference: complex) -> int:
    """floor(-log10 |value - reference| / |reference|), capped at 16."""
    rel = abs(value - reference) / abs(reference)
    if rel < 1e-16:
        return 16
    return max(0, math.floor(-math.log10(rel)))


def route_deviation(bell, direct) -> float:
    """Largest per-coefficient |bell - direct| / |bell|.

    A coefficient that is exactly zero on the Bell route is measured
    against the largest |alpha| instead, so a zero next to rounding
    noise does not read as a 100 % deviation.
    """
    scale = max(abs(x) for x in bell) or 1.0
    worst = 0.0
    for b, d in zip(bell, direct):
        dev = abs(b - d) / (abs(b) if b != 0 else scale)
        if math.isfinite(dev):
            worst = max(worst, dev)
    return worst


# ----------------------------------------------------------------------
# cli-stock: the README commands, each a fresh interpreter
# ----------------------------------------------------------------------

def check_cli(key: str, code: int, stdout: str) -> list:
    """Failure reasons for one ``--format json`` CLI run.

    An exit code outside the documented 0/1/2 or output that is not
    JSON raises: the run could not be checked at all.
    """
    if code not in (0, 1, 2):
        raise RuntimeError(f"exit code {code}")
    payload = json.loads(stdout)
    reasons = [] if code == 0 else [f"exit code {code}"]
    if key == "selftest":
        if payload["failed"] != 0:
            reasons.append(f"{payload['failed']} selftest checks failed")
    elif key == "example_sylvester":
        for item in payload["main_terms"]:
            _nonzero_finite(f"main term ({item['terms']} terms)", item["value"], reasons)
    elif key.startswith("example_"):
        reasons += _validation_reasons(
            complex(payload["expansion_value"]["re"], payload["expansion_value"]["im"]),
            complex(payload["quadrature_value"]["re"], payload["quadrature_value"]["im"]),
            payload["converged"])
    else:
        if not payload["validation"]:
            reasons.append("no validation points")
        for item in payload["validation"]:
            reasons += [f"N={item['n']:g}: {r}" for r in _validation_reasons(
                complex(item["expansion"]["re"], item["expansion"]["im"]),
                complex(item["quadrature"]["re"], item["quadrature"]["im"]),
                item["converged"])]
    return reasons


def _validation_reasons(value: complex, oracle: complex, converged: bool) -> list:
    reasons = []
    if not converged:
        reasons.append("oracle did not converge")
    ok = _nonzero_finite("expansion", value, reasons)
    ok = _nonzero_finite("oracle", oracle, reasons) and ok
    if ok:
        digits = agreement(value, oracle)
        if digits < MIN_DIGITS:
            reasons.append(f"agreement {digits} digits")
    return reasons


def _cli_workload(seed: int, commands, make) -> Workload:
    """One operation per (key, argv) command, in an order the seed fixes."""
    commands = list(commands)
    random.Random(seed).shuffle(commands)
    return Workload([make(key, argv) for key, argv in commands],
                    _digest(key for key, _ in commands))


def cli_stock(seed: int, commands, root, env) -> Workload:
    """Each command in a fresh ``python -m saddlepoint.cli`` process."""
    def make(key, argv):
        def run(tracer):
            proc = subprocess.run(
                [sys.executable, "-m", "saddlepoint.cli", *argv, "--format", "json"],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT)
            return check_cli(key, proc.returncode, proc.stdout)
        return Op(key, run)
    return _cli_workload(seed, commands, make)


def cli_in_process(seed: int, commands, root) -> Workload:
    """The same commands through ``cli.main`` in this interpreter, for
    the traced run's per-command busy time."""
    def make(key, argv):
        argv = [str(root / a) if a.startswith("demos/") else a for a in argv]

        def run(tracer):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tracer.call("cli.main", cli.main, [*argv, "--format", "json"])
            return check_cli(key, code, out.getvalue())
        return Op(key, run)
    return _cli_workload(seed, commands, make)


# ----------------------------------------------------------------------
# high-order: coefficient routes and exact tables, no oracle
# ----------------------------------------------------------------------

S_GRID = (10, 20, 40, 80)
TABLE_INDEX = 40
TABLE_INDICES = (10, 20, TABLE_INDEX)
WAVE_T_MAX = (3, 6)


def _gamma_phase(order: int) -> TruncatedSeries:
    """-z + log z at z0 = 1."""
    return TruncatedSeries(1.0, [-1.0, 0.0] + [(-1.0) ** (k + 1) / k
                                               for k in range(2, order + 1)])


def _kepler_phase(order: int) -> TruncatedSeries:
    """i (z - sin z) at z0 = 0."""
    coeffs = [0j] * (order + 1)
    for k in range(3, order + 1, 2):
        coeffs[k] = 1j * (-1) ** ((k - 1) // 2 + 1) / math.factorial(k)
    return TruncatedSeries(0.0, coeffs)


def _center_phase(eps: float, order: int) -> TruncatedSeries:
    """i (z - eps sin z) at its saddle z0 = i log gamma (p'(z0) = 0)."""
    z0 = classic.center_saddle(eps)
    s0, c0 = cmath.sin(z0), cmath.cos(z0)
    derivs = (s0, c0, -s0, -c0)
    coeffs = [1j * (z0 - eps * s0), 0j]
    for k in range(2, order + 1):
        coeffs.append(-1j * eps * derivs[k % 4] / math.factorial(k))
    return TruncatedSeries(z0, coeffs)


def _gamma_reference(table) -> dict:
    """alpha_{2m} = gamma_m alpha_0 Gamma(1/2) / Gamma(m + 1/2), alpha_0 = 2^{-1/2}."""
    ref = {0: 2.0 ** -0.5}
    for m, g in enumerate(table, start=1):
        ref[2 * m] = float(g) * 2.0 ** -0.5 * math.gamma(0.5) / math.gamma(m + 0.5)
    return ref


def _sine_reference(table, a: int) -> dict:
    """alpha_s = e^{pi i (s+a)/6} 6^{(s+a)/3} d(s) / 3 on the mu = 3 saddle."""
    return {s: cmath.exp(1j * math.pi * (s + a) / 6) * 6.0 ** ((s + a) / 3)
            * float(d) / 3 for s, d in enumerate(table)}


def high_order(seed: int) -> Workload:
    """Coefficients at S = 10..80 on four problems, the exact tables
    they are checked against, and Sylvester-wave coefficients.

    The seed draws the center eccentricity, the N each expansion is
    evaluated at, the wave family parameters and the operation order.
    The tables to index 40 always run first in a pass: the warm-up pass
    leaves their output as the reference for the coefficient checks and
    for the shorter tables, which must be its prefixes.
    """
    rng = random.Random(seed)
    eps = round(rng.uniform(0.1, 0.7), 3)
    lams = rng.sample(sorted({Fraction(p, q) for p in range(1, 6)
                              for q in range(1, 5)}), 2)
    refs = {}

    s_max = max(S_GRID)
    pad = s_max + 4
    parabolic_q = [complex(x) for x in classic.parabolic_q_table(pad)]
    center_q = classic.center_q_coeffs(eps, pad)
    problems = {
        "gamma": (lambda s: _gamma_phase(s + 4),
                  TruncatedSeries.constant(1.0, 1.0, pad), 1, EvenOpposite(0)),
        "kepler": (lambda s: _kepler_phase(s + 4),
                   TruncatedSeries.constant(1.0, 0.0, pad), 1, Through(1, 0)),
        "parabolic": (lambda s: _kepler_phase(s + 4),
                      TruncatedSeries(0.0, parabolic_q), -1, CirclePath(1, 0)),
        f"center(eps={eps})": (lambda s: _center_phase(eps, s + 4),
                               TruncatedSeries(classic.center_saddle(eps), center_q),
                               0, CirclePath(1, 2)),
    }

    def table_op(name, fn, index, reference, known):
        def run(tracer):
            table = tracer.call("classic.exact_tables", fn, index)
            reasons = [f"entry {i} is {table[i]}, expected {v}"
                       for i, v in known.items() if table[i] != v]
            if name in refs:
                if table != refs[name][0][:len(table)]:
                    reasons.append(f"differs from {fn.__name__}({TABLE_INDEX})")
            elif index == TABLE_INDEX:
                refs[name] = (table, reference(table))
            return reasons
        return Op(f"table {fn.__name__}({index})", run)

    table_specs = [
        ("gamma", classic.gamma_stirling, _gamma_reference,
         {0: Fraction(1, 12), 1: Fraction(1, 288), 2: Fraction(-139, 51840)}),
        ("kepler", classic.kepler_d_table, lambda t: _sine_reference(t, 1),
         {0: 1, 1: 0, 3: 0}),
        ("parabolic", classic.parabolic_d_table, lambda t: _sine_reference(t, -1),
         {1: 0, 3: 0}),
    ]
    tables = [table_op(name, fn, TABLE_INDEX, ref, known)
              for name, fn, ref, known in table_specs]
    small_tables = [table_op(name, fn, index, ref, known)
                    for name, fn, ref, known in table_specs
                    for index in TABLE_INDICES if index != TABLE_INDEX]

    def alpha_op(name, s_count, n):
        phase_fn, q_full, a, branch = problems[name]
        q = q_full.truncate(s_count + 1)

        def run(tracer):
            nf = tracer.call("saddle.normal_form", normalize, phase_fn(s_count))
            bell = tracer.call("expansion.alpha_bell", alpha_bell, nf, q, a, s_count)
            direct = tracer.call("expansion.alpha_direct", alpha_direct, nf, q, a, s_count)
            expansion = tracer.call("expansion.assemble", assemble, bell, nf, branch)
            value = tracer.call("expansion.evaluate", expansion.evaluate, n, s_count)
            tracer.count("expansion.alphas", 2 * s_count)
            tracer.gauge_max("expansion.route_dev_max",
                             route_deviation(bell.alphas, direct.alphas))
            reasons = []
            _nonzero_finite(f"expansion at N={n}", value, reasons)
            ref = refs.get(name, (None, {}))[1]
            checked = [s for s in range(s_count) if s in ref]
            if not checked:
                return reasons
            scale = max(abs(ref[s]) for s in checked)
            for route, alphas in (("alpha_bell", bell.alphas),
                                  ("alpha_direct", direct.alphas)):
                bad = []
                for s in checked:
                    want = ref[s]
                    err = abs(alphas[s] - want)
                    limit = COEFF_REL_TOL * (abs(want) if want != 0 else scale)
                    if not err <= limit:
                        bad.append(s)
                if bad:
                    tracer.count("expansion.exact_mismatch", len(bad))
                    reasons.append(f"{route}: {len(bad)} of {len(checked)} "
                                   f"coefficients off the exact table, first at s={bad[0]}")
            return reasons
        return Op(f"{name} S={s_count} N={n:g}", run)

    wave_seen = {}

    def wave_op(lam, t_max):
        def run(tracer):
            coeffs = tracer.call("waves.wave_coefficients", waves.wave_coefficients,
                                 lam, t_max).coeffs
            reasons = []
            for t, c in enumerate(coeffs):
                _nonzero_finite(f"a_{t}", c, reasons)
            # a_t must not depend on how many later coefficients were asked for
            for other in wave_seen.get(lam, {}).values():
                for x, y in zip(coeffs, other):
                    if not abs(x - y) <= WAVE_REL_TOL * abs(y):
                        reasons.append("a_t changes with t_max")
                        break
            wave_seen.setdefault(lam, {})[t_max] = coeffs
            return reasons
        return Op(f"waves lambda={lam} t_max={t_max}", run)

    rest = [alpha_op(name, s, round(math.exp(rng.uniform(math.log(50), math.log(400))), 2))
            for name in problems for s in S_GRID]
    rest += [wave_op(lam, t) for lam in lams for t in WAVE_T_MAX] + small_tables
    rng.shuffle(rest)
    ops = tables + rest
    return Workload(ops, _digest(op.id for op in ops))


# ----------------------------------------------------------------------
# validate-sweep: problem texts through the full pipeline and the oracle
# ----------------------------------------------------------------------

N_STRATA = (25, 50, 100, 200, 400, 800)
CENTER_EPS = (0.2, 0.4, 0.7)
SEEDED_EPS = 3
#: seeded draws per octave; more inputs steady the failed fraction
N_PER_OCTAVE = 2


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _segments(points) -> list:
    return [{"segment": [_pair(a), _pair(b)]} for a, b in zip(points, points[1:])]


def _arc(center, radius, t0, t1) -> dict:
    return {"arc": {"center": _pair(center), "radius": radius, "from": t0, "to": t1}}


def problem_text(phase: str, n: int, eps: float = None) -> str:
    """Problem-file text for one builtin phase at one N, with the same
    sectors, orders and validation contours as the CLI examples."""
    top = math.pi / math.sqrt(3.0)
    if phase == "gamma":
        lines = ['p = {"builtin": "gamma"}', 'q = {"builtin": "one"}', "a = 1",
                 'variant = "even_opposite"', "k = 0", "order = 7"]
        contour = _segments([0.05, 4.0])
    elif phase == "kepler":
        lines = ['p = {"builtin": "kepler"}', 'q = {"builtin": "one"}', "a = 1",
                 'variant = "through"', "k1 = 1", "k2 = 0", "order = 10"]
        contour = _segments([-math.pi, complex(-math.pi, top), 0.0,
                             complex(math.pi, top), math.pi])
    elif phase == "parabolic":
        r = 0.3
        a_in = r * cmath.exp(5j * math.pi / 6.0)
        a_out = r * cmath.exp(1j * math.pi / 6.0)
        lines = ['p = {"builtin": "parabolic"}', 'q = {"builtin": "parabolic"}',
                 "a = -1", 'variant = "circle_path"', "k1 = 1", "k2 = 0", "order = 8"]
        contour = (_segments([-math.pi, complex(-math.pi, top), a_in])
                   + [_arc(0.0, r, 5.0 * math.pi / 6.0, math.pi / 6.0)]
                   + _segments([a_out, complex(math.pi, top), math.pi]))
    elif phase == "center":
        z0 = classic.center_saddle(eps)
        r = 0.25
        lines = [f'p = {{"builtin": "center", "eps": {eps!r}}}',
                 'q = {"builtin": "center"}', "a = 0", 'variant = "circle_path"',
                 "k1 = 1", "k2 = 2", "order = 13"]
        contour = (_segments([-math.pi + z0, z0 - r])
                   + [_arc(z0, r, math.pi, 2.0 * math.pi)]
                   + _segments([z0 + r, math.pi + z0]))
    else:
        raise ValueError(phase)
    lines.append(f"contour = {json.dumps(contour)}")
    lines.append(f"n_values = [{n}]")
    return "\n".join(lines) + "\n"


def validate_sweep(seed: int) -> Workload:
    """Problem texts for gamma, kepler, parabolic and center at six
    eccentricities; N = 25, N = 800 and two seeded N in each octave
    between them.  The seed also draws three of the eccentricities."""
    rng = random.Random(seed)
    eps_values = list(CENTER_EPS) + [round(rng.uniform(0.1, 0.7), 3)
                                     for _ in range(SEEDED_EPS)]
    phases = [("gamma", None), ("kepler", None), ("parabolic", None)]
    phases += [("center", e) for e in eps_values]
    inputs = []
    for phase, eps in phases:
        ns = [N_STRATA[0], N_STRATA[-1]]
        for lo, hi in zip(N_STRATA, N_STRATA[1:]):
            ns += rng.sample(range(lo, hi), N_PER_OCTAVE)
        for n in sorted(ns):
            label = phase if eps is None else f"center(eps={eps})"
            inputs.append((f"{label} N={n}", problem_text(phase, n, eps),
                           1e-12 if phase == "gamma" else 1e-11))
    rng.shuffle(inputs)

    def make(op_id, text, rel_tol):
        def run(tracer):
            problem = tracer.call("problemfile.parse", parse_problem_text, text)
            tracer.count("problemfile.parse.calls")
            nf, q, a, order = problem.normal_form, problem.q, problem.a, problem.order
            n = problem.n_values[0]
            bell = tracer.call("expansion.alpha_bell", alpha_bell, nf, q, a, order)
            direct = tracer.call("expansion.alpha_direct", alpha_direct, nf, q, a, order)
            expansion = tracer.call("expansion.assemble", assemble, bell, nf, problem.branch)
            value = tracer.call("expansion.evaluate", expansion.evaluate, n, order)
            tracer.count("expansion.alphas", 2 * order)
            tracer.gauge_max("expansion.route_dev_max",
                             route_deviation(bell.alphas, direct.alphas))

            p, qf = problem.p_callable, problem.q_callable

            def f(z):
                return cmath.exp(n * complex(p(z))) * complex(qf(z))

            f = tracer.counting("quadrature.integrand_calls", f)
            if a == 1:
                result = tracer.call("quadrature.integrate", integrate, f,
                                     problem.contour, abs_tol=0.0, rel_tol=rel_tol)
            else:
                result = tracer.call("quadrature.power_factor", integrate_power_factor,
                                     f, complex(a), nf.z0, problem.contour,
                                     abs_tol=0.0, rel_tol=rel_tol)
            tracer.count("quadrature.calls")
            tracer.count("quadrature.evaluations", result.evaluations)
            if not result.converged:
                tracer.count("quadrature.not_converged")
            return _validation_reasons(value, result.value, result.converged)
        return Op(op_id, run)

    ops = [make(*item) for item in inputs]
    return Workload(ops, _digest(t for _, t, _ in inputs))
