"""Command-line front end.

Three commands:

* ``expand <problem-file>`` runs the expansion pipeline on a
  user-defined problem, printing the term table and, when the file
  supplies a contour and N values, the quadrature comparison.
* ``example <name>`` runs the same pipeline on a built-in worked
  problem (gamma, kepler, center, parabolic); ``sylvester`` prints
  the partition-wave asymptotics.
* ``selftest`` runs the invariant suite and sets the exit status.

Every command prints one report shape through ``_emit``: an ordered
list of fields, each a (JSON key or None, JSON value, text or None)
triple, and a TSV table (header, rows).  ``--format json`` prints the
keyed fields as one object, ``text`` the texts in order, and ``tsv``
the table; ``expand`` and ``example`` share their run's fields
(``_run_fields``) and table.

Exit codes: 0 success, 1 invariant or agreement failure (at some N the
oracle did not converge or agrees to fewer than MIN_EXAMPLE_DIGITS
digits), 2 input error.  All numbers are printed with 17 significant
digits so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .problemfile import (EXAMPLES, example_problem, parse_problem_file,
                          run_problem)
from .quadrature import DEFAULT_REL_TOL

#: a validation point counts as agreeing when expansion and oracle share
#: at least this many digits (loose: asymptotic accuracy at small N is
#: legitimately poor, but the stock parameters sit far above this)
MIN_EXAMPLE_DIGITS = 4


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def fmt_rational(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def json_complex(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _coefficient_cell(value) -> str:
    if isinstance(value, (int, Fraction)):
        return fmt_rational(value)
    return fmt_complex(value)


def _emit(fmt: str, fields, table) -> None:
    """Print the report whose ``fields()`` yield its triples in order and
    whose ``table()`` gives its TSV (header, rows); each is called only
    by the formats that print it."""
    if fmt == "json":
        report = json.dumps({key: value for key, value, _ in fields()
                             if key is not None}, indent=2) + "\n"
    elif fmt == "tsv":
        header, rows = table()
        report = "".join("\t".join(map(str, row)) + "\n"
                         for row in (header, *rows))
    else:
        report = "".join(text for _, _, text in fields() if text is not None)
    sys.stdout.write(report)


def _parameters_field(parameters: dict) -> tuple:
    listed = ", ".join(f"{k} = {fmt_float(v) if isinstance(v, float) else v}"
                       for k, v in parameters.items())
    return ("parameters", parameters, f"parameters: {listed}\n")


def _run_fields(run):
    """The fields ``expand`` and ``example`` share: the route deviation
    and the term list, with the warning when every term vanishes."""
    terms = run.expansion.terms
    yield ("alpha_route_deviation", run.route_deviation,
           f"alpha cross-route deviation: {run.route_deviation:.3e}\n")
    yield ("terms",
           [{"s": t.s,
             "exponent": json_complex(t.exponent),
             "coefficient": json_complex(t.coefficient),
             "zero": t.is_zero} for t in terms],
           "terms (s, exponent, coefficient):\n" + "".join(
               f"  {t.s:3d}  {fmt_complex(t.exponent)}  "
               f"{fmt_complex(t.coefficient)}{'  (zero)' if t.is_zero else ''}\n"
               for t in terms))
    if all(t.is_zero for t in terms):
        yield (None, None,
               "warning: every term vanishes (entry and exit phases cancel)\n")


def _run_table(run) -> tuple:
    return (("s", "exp_re", "exp_im", "coeff_re", "coeff_im"),
            [(t.s, fmt_float(t.exponent.real), fmt_float(t.exponent.imag),
              fmt_float(t.coefficient.real), fmt_float(t.coefficient.imag))
             for t in run.expansion.terms])


def _status(run) -> int:
    """The exit rule of ``expand`` and ``example``."""
    ok = all(v.oracle.converged and v.digits >= MIN_EXAMPLE_DIGITS
             for v in run.validations)
    return 0 if ok else 1


def _quadrature_line(oracle) -> str:
    return (f"{fmt_complex(oracle.value)}  "
            f"(error {oracle.error_estimate:.3e}, "
            f"evaluations {oracle.evaluations}, "
            f"{'converged' if oracle.converged else 'NOT converged'})\n")


def _input_error(exc: Exception) -> str:
    if isinstance(exc, OverflowError):
        return (f"a coefficient or N^(-exponent) overflows double precision "
                f"({exc}); use fewer terms or a larger N")
    return str(exc)


def cmd_expand(args) -> int:
    try:
        problem = parse_problem_file(args.file)
        run = run_problem(problem, args.tol)
    except (ValueError, OverflowError) as exc:
        print(f"error: {args.file}: {_input_error(exc)}", file=sys.stderr)
        return 2
    nf = problem.normal_form
    variant = type(problem.branch).__name__

    def fields():
        yield ("problem", args.file, f"problem: {args.file}\n")
        yield ("mu", nf.mu,
               f"saddle: z0 = {fmt_complex(nf.z0)}  mu = {nf.mu}  "
               f"p0 = {fmt_complex(nf.p0)}  omega0 = {fmt_float(nf.omega0)}\n")
        yield ("p0", json_complex(nf.p0), None)
        yield ("omega0", nf.omega0, None)
        yield ("variant", variant, f"variant: {variant} {problem.branch}\n")
        yield ("order", problem.order, None)
        yield from _run_fields(run)
        yield ("validation",
               [{"n": v.n, "expansion": json_complex(v.value),
                 "quadrature": json_complex(v.oracle.value),
                 "quadrature_error": v.oracle.error_estimate,
                 "evaluations": v.oracle.evaluations,
                 "converged": v.oracle.converged,
                 "agreement_digits": v.digits}
                for v in run.validations],
               "".join(f"validation at N = {fmt_float(v.n)}:\n"
                       f"  expansion  = {fmt_complex(v.value)}\n"
                       f"  quadrature = {_quadrature_line(v.oracle)}"
                       f"  agreement digits: {v.digits}\n"
                       for v in run.validations))

    _emit(args.format, fields, lambda: _run_table(run))
    return _status(run)


def cmd_example(args) -> int:
    if args.name == "sylvester":
        return _cmd_example_sylvester(args)
    try:
        example = example_problem(args.name, args.n, args.eps, args.terms,
                                  args.tol)
        run = run_problem(example.problem, example.rel_tol)
    except (ValueError, OverflowError) as exc:
        print(f"error: {_input_error(exc)}", file=sys.stderr)
        return 2
    (point,) = run.validations
    oracle = point.oracle
    status = _status(run)

    def fields():
        cells = [_coefficient_cell(c) for c in example.coefficient_table]
        yield ("example", example.name, f"example: {example.name}\n")
        yield _parameters_field(example.parameters)
        yield ("coefficients", cells, "coefficient table:\n" + "".join(
            f"  {s:3d}  {cell}\n" for s, cell in enumerate(cells)))
        yield from _run_fields(run)
        yield ("expansion_value", json_complex(point.value),
               f"expansion value:  {fmt_complex(point.value)}\n")
        yield ("quadrature_value", json_complex(oracle.value),
               f"quadrature value: {_quadrature_line(oracle)}")
        yield ("quadrature_error", oracle.error_estimate, None)
        yield ("evaluations", oracle.evaluations, None)
        yield ("converged", oracle.converged, None)
        yield ("agreement_digits", point.digits,
               f"agreement: {point.digits} digits\n")
        if status:
            yield (None, None, "agreement FAILURE\n")

    _emit(args.format, fields, lambda: _run_table(run))
    return status


def _cmd_example_sylvester(args) -> int:
    from . import waves         # only this command needs it: keeps start-up short
    terms = 3 if args.terms is None else args.terms
    try:
        if terms < 1:
            raise ValueError("need at least one term")
        try:
            lam = Fraction(args.lam) if args.lam is not None else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"lambda {args.lam} has a zero denominator") from None
        if not args.n.is_integer():
            raise ValueError(f"N must be an integer for wave evaluation, not {args.n}")
        n = int(args.n)
        try:
            expansion = waves.wave_coefficients(lam, t_max=terms - 1)
            if not all(cmath.isfinite(c) for c in expansion.coeffs):
                raise OverflowError     # complex arithmetic gave inf or nan
        except OverflowError:
            raise ValueError(f"the wave coefficients overflow double precision "
                             f"at lambda = {args.lam}") from None
        try:
            values = [(t, expansion.main_term(n, t)) for t in range(1, terms + 1)]
        except OverflowError:
            raise ValueError(
                f"w0^(-N) overflows double precision at N = {n}") from None
        if not all(math.isfinite(v) for _, v in values):
            raise ValueError(f"the main terms overflow double precision at N = {n}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wc = waves.solve_constants()

    def fields():
        yield ("example", "sylvester", "example: sylvester\n")
        yield _parameters_field({"n": n, "lambda": fmt_rational(lam),
                                 "terms": terms})
        for key, z in (("w0", wc.w0), ("z0", wc.z0_wave), ("p0", wc.p0_wave)):
            yield (key, json_complex(z), f"{key} = {fmt_complex(z)}\n")
        yield ("coefficients", [json_complex(c) for c in expansion.coeffs],
               "wave coefficients a_t:\n" + "".join(
                   f"  {t}  {fmt_complex(c)}\n"
                   for t, c in enumerate(expansion.coeffs)))
        yield ("main_terms", [{"terms": t, "value": v} for t, v in values],
               "leading-wave values:\n" + "".join(
                   f"  {t} term(s): {fmt_float(v)}\n" for t, v in values))

    _emit(args.format, fields,
          lambda: (("terms", "value"), [(t, fmt_float(v)) for t, v in values]))
    return 0


def cmd_selftest(args) -> int:
    from . import selftest      # only this command needs it: keeps start-up short
    results = selftest.run_all()
    failed = sum(not r.ok for r in results)
    passed = len(results) - failed

    def fields():
        yield ("passed", passed, None)
        yield ("failed", failed, None)
        yield ("checks",
               [{"name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results],
               "".join(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}\n"
                       for r in results)
               + f"{passed} passed, {failed} failed\n")

    _emit(args.format, fields,
          lambda: (("name", "ok", "detail"),
                   [(r.name, int(r.ok), r.detail) for r in results]))
    return 1 if failed else 0


def _tolerance(text: str) -> float:
    """The ``--tol`` argument: a positive finite float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, not {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlepoint",
        description="Asymptotic expansions of saddle-point integrals, "
                    "validated by adaptive contour quadrature.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a problem file")
    p_expand.add_argument("file")
    p_expand.add_argument("--format", choices=("text", "json", "tsv"),
                          default="text")
    p_expand.add_argument("--tol", type=_tolerance, default=DEFAULT_REL_TOL,
                          help="quadrature relative tolerance")
    p_expand.set_defaults(func=cmd_expand)

    p_example = sub.add_parser("example", help="run a built-in worked problem")
    p_example.add_argument("name", choices=(*EXAMPLES, "sylvester"))
    p_example.add_argument("--n", type=float, default=50.0)
    p_example.add_argument("--eps", type=float, default=0.4)
    p_example.add_argument("--lambda", dest="lam", default=None,
                           help="wave family parameter (rational, e.g. 1 or 3/2)")
    p_example.add_argument("--terms", type=int, default=None)
    p_example.add_argument("--format", choices=("text", "json", "tsv"),
                           default="text")
    p_example.add_argument("--tol", type=_tolerance, default=DEFAULT_REL_TOL,
                           help="quadrature relative tolerance")
    p_example.set_defaults(func=cmd_example)

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--format", choices=("text", "json", "tsv"),
                        default="text")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
