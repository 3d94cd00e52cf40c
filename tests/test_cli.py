"""Command-line behavior: outputs, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import saddlepoint
from saddlepoint import cli, problemfile, quadrature, series
from saddlepoint.cli import main

GAMMA_PROBLEM = """\
p = {"builtin": "gamma", "order": 12}
a = 1
variant = "even_opposite"
k = 0
order = 6
contour = [{"segment": [[0.05, 0.0], [4.0, 0.0]]}]
n_values = [50.0]
"""


CUBIC_PROBLEM = """\
z0 = {z0}
p = [[0,0],[0,0],[-0.5,0],[0.1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]]
a = {a}
variant = "even_opposite"
k = 0
order = 8
contour = {contour}
n_values = [40.0]
"""


#: entry and exit through one sector: every term cancels
EQUAL_SECTORS = """\
p = {"builtin": "kepler", "order": 12}
variant = "through"
k1 = 1
k2 = 1
order = 4
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(capsys, argv):
    """``run``, also for argument errors that argparse ends with SystemExit."""
    try:
        return run(capsys, argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


class TestExample:
    def test_gamma_exact_rationals(self, capsys):
        code, out, _ = run(capsys, ["example", "gamma", "--terms", "8"])
        assert code == 0
        assert "1/12" in out and "1/288" in out and "-139/51840" in out

    def test_gamma_agreement_line(self, capsys):
        code, out, _ = run(capsys, ["example", "gamma", "--terms", "6"])
        assert code == 0
        digits = int(out.split("agreement: ")[1].split(" ")[0])
        assert digits >= 6

    def test_center_agreement(self, capsys):
        code, out, _ = run(capsys, ["example", "center", "--n", "50",
                                    "--eps", "0.4", "--terms", "13"])
        assert code == 0
        assert "agreement: 10 digits" in out
        assert "2.8171413884" in out.replace("e-14", "")[:10000] or "2.817141388" in out

    def test_sylvester_values(self, capsys):
        code, out, _ = run(capsys, ["example", "sylvester", "--n", "2000",
                                    "--lambda", "1", "--terms", "3"])
        assert code == 0
        one = float(out.split("1 term(s): ")[1].splitlines()[0])
        three = float(out.split("3 term(s): ")[1].splitlines()[0])
        assert abs(one - 4.56e53) < 0.005e53
        assert abs(three - 4.37e53) < 0.005e53

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["example", "kepler", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["example"] == "kepler"
        assert payload["agreement_digits"] >= 8
        assert payload["coefficients"][2] == "1/20"
        assert {"re", "im"} == set(payload["expansion_value"])

    def test_route_deviation_reported(self, capsys):
        # the Bell route loses center eps = 0.1 from s = 22; example reports
        # the cross-route deviation in text and json, as expand does
        argv = ["example", "center", "--eps", "0.1", "--terms", "40"]
        _, text, _ = run(capsys, argv)
        _, js, _ = run(capsys, argv + ["--format", "json"])
        deviation = json.loads(js)["alpha_route_deviation"]
        assert deviation > 1.0
        assert f"alpha cross-route deviation: {deviation:.3e}\n" in text

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, ["example", "parabolic", "--format", "tsv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s\texp_re\texp_im\tcoeff_re\tcoeff_im"
        assert len(lines) == 9

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, ["example", "center", "--terms", "9"])
        _, second, _ = run(capsys, ["example", "center", "--terms", "9"])
        assert first == second

    def test_underflow_is_not_agreement(self, capsys):
        # e^{-800} underflows: expansion and oracle are both 0, which
        # shows no agreement at all
        code, out, _ = run(capsys, ["example", "gamma", "--n", "800"])
        assert code == 1
        assert "agreement: 0 digits" in out
        assert "agreement FAILURE" in out

    def test_zero_oracle_is_not_converged(self, capsys):
        # e^{N p(z)} underflows on every node at N = 1e200: the oracle's
        # exact 0 with error 0 is no evidence, so it has not converged
        code, out, _ = run(capsys, ["example", "kepler", "--n", "1e200",
                                    "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["quadrature_value"] == {"re": 0.0, "im": 0.0}
        assert payload["quadrature_error"] == 0.0
        assert payload["converged"] is False
        code, out, _ = run(capsys, ["example", "kepler", "--n", "1e200"])
        assert code == 1
        assert ("quadrature value: 0+0i  (error 0.000e+00, evaluations 60, "
                "NOT converged)\n") in out

    @pytest.mark.parametrize("name", ["kepler", "parabolic"])
    def test_integrand_outside_double_precision(self, capsys, name):
        # N p(z) has an infinite part on the contour: cmath.exp fails
        code, out, err = run(capsys, ["example", name, "--n", "1e308"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: at N = 1e+308 the integrand "
                              "e^{N p(z)} q(z) is outside double precision")

    @pytest.mark.parametrize("argv", [["example", "center", "--eps", "0.999999",
                                       "--terms", "80"],
                                      ["example", "kepler", "--n", "1e308"]],
                             ids=["coefficient-overflow", "integrand-domain"])
    def test_failed_run_builds_no_table(self, capsys, monkeypatch, argv):
        # run_problem raises on both; the exact table must not be built
        name = argv[1]
        built = []
        entry = problemfile.EXAMPLES[name]
        monkeypatch.setitem(problemfile.EXAMPLES, name, entry._replace(
            table=lambda *args: built.append(args) or entry.table(*args)))
        code, out, err = run(capsys, argv)
        assert (code, out, built) == (2, "", [])
        assert "double precision" in err

    @pytest.mark.parametrize("argv", [["center", "--terms", "400"],
                                      ["gamma", "--terms", "200"],
                                      ["kepler", "--terms", "600"]])
    def test_gamma_overflow_before_the_routes(self, capsys, monkeypatch, argv):
        # Gamma(e_s) passes 1e308 past e_s = 171.6, which the order alone
        # fixes: the run stops before either coefficient route starts
        called = []
        for route in ("alpha_bell", "alpha_direct"):
            monkeypatch.setattr(problemfile, route,
                                lambda *args, route=route: called.append(route))
        code, out, err = run(capsys, ["example", *argv])
        assert (code, out, called) == (2, "", [])
        assert "overflows double precision" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
    def test_table_built_after_the_run(self, capsys, monkeypatch, fmt):
        events = []
        entry = problemfile.EXAMPLES["kepler"]
        monkeypatch.setitem(problemfile.EXAMPLES, "kepler", entry._replace(
            table=lambda *args: events.append("table") or entry.table(*args)))
        monkeypatch.setattr(cli, "run_problem", lambda *args: events.append(
            "run") or problemfile.run_problem(*args))
        code, _, _ = run(capsys, ["example", "kepler", "--format", fmt])
        # tsv prints no table, so it never builds one
        assert code == 0
        assert events == (["run"] if fmt == "tsv" else ["run", "table"])

    def test_bad_eps_is_input_error(self, capsys):
        code, _, err = run(capsys, ["example", "center", "--eps", "1.7"])
        assert code == 2
        assert "eccentricity" in err

    def test_sylvester_non_integer_lambda_n(self, capsys):
        code, _, err = run(capsys, ["example", "sylvester", "--n", "101",
                                    "--lambda", "1/2"])
        assert code == 2
        assert "integer" in err

    def test_sylvester_zero_terms_is_input_error(self, capsys):
        code, out, err = run(capsys, ["example", "sylvester", "--terms", "0"])
        assert code == 2
        assert out == ""
        assert "need at least one term" in err

    @pytest.mark.parametrize("argv, message", [
        (["--n", "20000"], "overflows"),
        (["--n", "inf"], "integer"),
        (["--lambda", "1/0"], "zero denominator"),
        (["--lambda", "450", "--n", "10"], "overflow"),
        (["--lambda", "1e300", "--n", "1"], "overflow"),
        (["--lambda", "1e400"], "overflow"),
        (["--lambda", "420", "--terms", "7"], "overflow"),
    ])
    def test_sylvester_crash_is_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, ["example", "sylvester", *argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_sylvester_main_term_near_overflow(self, capsys):
        # w0^(-N) a_0 / N^2 fits in a double although w0^(-N) a_0 does not
        code, out, _ = run(capsys, ["example", "sylvester", "--lambda", "441",
                                    "--terms", "1", "--n", "2",
                                    "--format", "json"])
        assert code == 0
        value = json.loads(out)["main_terms"][0]["value"]
        assert value == -4.7936855388383955e+307

    def test_sylvester_large_finite_lambda(self, capsys):
        # the largest coefficients here are ~1e292: finite, so exit 0
        code, out, _ = run(capsys, ["example", "sylvester", "--lambda", "400",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        values = [c[part] for c in payload["coefficients"] for part in ("re", "im")]
        values += [t["value"] for t in payload["main_terms"]]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("argv, message", [
        (["gamma", "--n", "inf"], "finite"),
        (["kepler", "--tol", "-1"], "--tol"),
        (["gamma", "--tol", "nan"], "--tol"),
        # |alpha_s| passes 1e308 near s = 70 as the saddle nears degeneracy
        (["center", "--eps", "0.999999", "--terms", "80"], "overflows"),
        # Gamma(e_s) overflows for e_s = s/2 > 171.6
        (["center", "--terms", "400"], "overflows"),
        (["gamma", "--n", "1e-100"], "overflows"),
    ])
    def test_bad_n_or_tol_is_input_error(self, capsys, argv, message):
        code, out, err = run_or_exit(capsys, ["example", *argv])
        assert code == 2
        assert out == ""
        assert "error:" in err and message in err

    def test_terms_past_the_factorial_range(self, capsys):
        # the Bell route forms C(tau, j) as a running quotient, not over j!,
        # so an order past 171 (171! > 1.8e308) still gives finite terms
        outcomes = []
        for terms in ("171", "172"):
            code, out, _ = run(capsys, ["example", "kepler", "--terms", terms,
                                        "--format", "json"])
            payload = json.loads(out)
            assert len(payload["terms"]) == int(terms)
            assert all(math.isfinite(t["coefficient"][part])
                       for t in payload["terms"] for part in ("re", "im"))
            outcomes.append(code)
        assert outcomes[0] == outcomes[1]

    def test_sylvester_json(self, capsys):
        code, out, _ = run(capsys, ["example", "sylvester", "--n", "2000",
                                    "--lambda", "1", "--terms", "2",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["w0"]["re"] - 0.916198) < 1e-6
        assert payload["main_terms"][0]["terms"] == 1
        assert abs(payload["main_terms"][0]["value"] - 4.56e53) < 0.005e53


class TestExpand:
    def test_gamma_problem_file(self, tmp_path, capsys):
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM)
        code, out, _ = run(capsys, ["expand", str(path)])
        assert code == 0
        assert "mu = 2" in out
        digits = int(out.split("agreement digits: ")[1].split()[0])
        assert digits >= 6

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(GAMMA_PROBLEM.replace("order = 6", "order = {6"))
        code, _, err = run(capsys, ["expand", str(path)])
        assert code == 2
        assert "line" in err

    def test_agreement_failure_exit_1(self, tmp_path, capsys):
        # same exit rule as example: underflow to 0 at N = 800 agrees
        # to no digits
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM.replace("[50.0]", "[800.0]"))
        code, out, _ = run(capsys, ["expand", str(path)])
        assert code == 1
        assert "agreement digits: 0" in out

    @pytest.mark.parametrize("old, new", [
        ('"gamma", "order": 12', '"center", "eps": 1.5'),
        ('"gamma", "order": 12', '"center", "eps": "x"'),
        ('"order": 12', '"order": 7.5'),
        ('"order": 12', '"ordr": 12'),
    ])
    def test_bad_builtin_parameter_exit_2(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.txt"
        text = GAMMA_PROBLEM.replace(old, new)
        if '"center"' in text:
            text = text.replace("a = 1", "a = 0")
        path.write_text(text)
        code, _, err = run(capsys, ["expand", str(path)])
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("n_values, argv", [
        ("[Infinity]", []),
        ("[50.0]", ["--tol", "0"]),
        ("[1e-150]", []),
    ])
    def test_bad_n_or_tol_exit_2(self, tmp_path, capsys, n_values, argv):
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM.replace("[50.0]", n_values))
        code, out, err = run_or_exit(capsys, ["expand", str(path), *argv])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["expand", "/no/such/file.txt"])
        assert code == 2

    def test_even_opposite_odd_mu_named_error(self, tmp_path, capsys):
        text = """\
p = {"builtin": "kepler", "order": 12}
variant = "even_opposite"
k = 0
order = 4
"""
        path = tmp_path / "odd.txt"
        path.write_text(text)
        code, _, err = run(capsys, ["expand", str(path)])
        assert code == 2
        assert "even mu" in err

    def test_equal_sector_warning(self, tmp_path, capsys):
        path = tmp_path / "same.txt"
        path.write_text(EQUAL_SECTORS)
        code, out, _ = run(capsys, ["expand", str(path)])
        assert code == 0
        assert "warning" in out
        assert "(zero)" in out

    def test_determinism(self, tmp_path, capsys):
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM)
        _, first, _ = run(capsys, ["expand", str(path)])
        _, second, _ = run(capsys, ["expand", str(path)])
        assert first == second

    def test_shipped_center_problem_file(self, tmp_path, capsys):
        shipped = Path(__file__).resolve().parent.parent / "demos" / "problems" / "center.txt"
        float_a = tmp_path / "center.txt"
        float_a.write_text(shipped.read_text().replace("\na = 0\n", "\na = 0.0\n"))
        for path in (shipped, float_a):   # the Gamma pole is found by value
            code, out, _ = run(capsys, ["expand", str(path)])
            assert code == 0
            digits = int(out.split("agreement digits: ")[1].split()[0])
            assert digits >= 10

    def test_even_opposite_with_even_a(self, tmp_path, capsys):
        path = tmp_path / "cubic.txt"
        path.write_text(CUBIC_PROBLEM.format(
            z0="[0, 0]", a="2",
            contour='[{"segment": [[-2.5, 0.0], [-0.3, 0.0]]}, '
                    '{"arc": {"center": [0.0, 0.0], "radius": 0.3, '
                    '"from": 3.141592653589793, "to": 0.0}}, '
                    '{"segment": [[0.3, 0.0], [2.5, 0.0]]}]'))
        code, out, _ = run(capsys, ["expand", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["validation"][0]["agreement_digits"] >= 5

    def test_even_a_straight_through_z0(self, tmp_path, capsys):
        # for integer a >= 1 the weight (z - z0)^(a-1) is a polynomial,
        # so the contour may run straight through z0
        path = tmp_path / "cubic.txt"
        path.write_text(CUBIC_PROBLEM.format(
            z0="[0, 0]", a="2",
            contour='[{"segment": [[-2.5, 0.0], [2.5, 0.0]]}]'))
        code, out, _ = run(capsys, ["expand", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["validation"][0]["agreement_digits"] >= 5

    @pytest.mark.parametrize("angle", [0.3 * math.pi / 64, 0.5 * math.pi / 64])
    def test_arc_through_branch_point_is_input_error(self, tmp_path, capsys, angle):
        # z0 on the unit arc, between the points a coarse sampling checks
        path = tmp_path / "arc.txt"
        path.write_text(CUBIC_PROBLEM.format(
            z0=f"[{math.cos(angle)!r}, {math.sin(angle)!r}]", a='"1/2"',
            contour='[{"arc": {"center": [0.0, 0.0], "radius": 1.0, '
                    '"from": 0.0, "to": 3.141592653589793}}]'))
        code, _, err = run(capsys, ["expand", str(path)])
        assert code == 2
        assert "branch point" in err

    @pytest.mark.parametrize("contour", [
        '[{"segment": [[0.05, 0.0], [NaN, 0.0]]}]',
        '[{"segment": [[0.05, 0.0], [0.5, 0.0]]}, {"arc": {"center": [1.0, 0.0], '
        '"radius": NaN, "from": 3.141592653589793, "to": 0.0}}]',
    ], ids=["segment-end", "arc-radius"])
    def test_non_finite_contour_is_input_error(self, tmp_path, capsys, contour):
        # rejected where it is read, before any quadrature runs
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM.replace(
            '[{"segment": [[0.05, 0.0], [4.0, 0.0]]}]', contour))
        code, out, err = run(capsys, ["expand", str(path)])
        assert (code, out) == (2, "")
        assert "line 6: " in err and "finite" in err

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM)
        code, out, _ = run(capsys, ["expand", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 2
        assert payload["validation"][0]["agreement_digits"] >= 6
        assert payload["alpha_route_deviation"] < 1e-10

    def test_polynomial_phase_with_contour(self, tmp_path, capsys):
        # coefficient lists are integrated as the polynomials they
        # define: p = -z^2 through the origin gives the plain Gaussian
        text = """\
z0 = [0.0, 0.0]
p = [[0,0],[0,0],[-1,0],[0,0],[0,0],[0,0],[0,0],[0,0]]
q = [[1,0],[0,0],[0,0],[0,0],[0,0],[0,0]]
variant = "even_opposite"
k = 0
order = 6
contour = [{"segment": [[-2.0, 0.0], [2.0, 0.0]]}]
n_values = [20.0]
"""
        path = tmp_path / "gauss.txt"
        path.write_text(text)
        code, out, _ = run(capsys, ["expand", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        entry = payload["validation"][0]
        import math
        want = math.sqrt(math.pi / 20.0)
        assert abs(entry["expansion"]["re"] - want) < 1e-12
        assert entry["agreement_digits"] >= 12

    def test_tol_flag_loosens_quadrature(self, tmp_path, capsys):
        path = tmp_path / "gamma.txt"
        path.write_text(GAMMA_PROBLEM)
        code, out, _ = run(capsys, ["expand", str(path), "--format", "json",
                                    "--tol", "1e-4"])
        assert code == 0
        loose = json.loads(out)["validation"][0]["evaluations"]
        code, out, _ = run(capsys, ["expand", str(path), "--format", "json"])
        tight = json.loads(out)["validation"][0]["evaluations"]
        assert loose < tight


class TestSelftest:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "0 failed" in out

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"])

    def test_fault_injection_fails_named_check(self, capsys, monkeypatch):
        # corrupt one Bernoulli value: the recurrence that pins the
        # table must fail and name itself, and the exit code flips
        real = series.bernoulli

        def corrupted(m):
            if m == 12:
                return Fraction(-691, 2731)
            return real(m)

        monkeypatch.setattr(series, "bernoulli", corrupted)
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert "FAIL  bernoulli-recurrence" in out

    def test_fault_injection_json_counts(self, capsys, monkeypatch):
        real = series.stirling2

        def corrupted(m, j):
            if (m, j) == (7, 3):
                return real(m, j) + 1
            return real(m, j)

        monkeypatch.setattr(series, "stirling2", corrupted)
        code, out, _ = run(capsys, ["selftest", "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] >= 1
        names = {c["name"] for c in payload["checks"] if not c["ok"]}
        assert "stirling-recurrence" in names


class TestFlags:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_example_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["example", "laplace"])
        assert exc.value.code == 2

    def test_cli_imports_only_the_standard_library(self):
        src = str(Path(saddlepoint.__file__).parents[1])
        code = ("import sys; before = set(sys.modules); import saddlepoint.cli; "
                "new = set(sys.modules) - before; "
                "print(sorted({m.split('.')[0] for m in new}"
                " - set(sys.stdlib_module_names) - {'saddlepoint'})); "
                "print(sorted(new & {'dataclasses', 'inspect', "
                "'saddlepoint.selftest', 'saddlepoint.waves'}))")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        # selftest and waves are imported by their own commands only, and
        # records generate no code, so dataclasses and inspect stay out
        assert done.stdout.split() == ["[]", "[]"]


# ----------------------------------------------------------------------
# Layout: every command's output with each number masked
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
LAYOUT_FILE = Path(__file__).with_name("cli_layout.json")

#: a number, with its sign, fraction and exponent, that is not part of a
#: name (so ``z0`` and ``exp_re`` stay as they are)
NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")

#: (command line, oracle evaluation budget or None for the default): the
#: eight ``cli-stock`` commands, then the branches only some runs reach:
#: every term vanishing, and an oracle stopped by its budget (NOT
#: converged, agreement FAILURE)
LAYOUT_COMMANDS = [
    ("example gamma", None),
    ("example kepler", None),
    ("example center", None),
    ("example parabolic", None),
    ("example sylvester --n 2000", None),
    ("expand demos/problems/center.txt", None),
    ("expand demos/problems/gamma.txt", None),
    ("selftest", None),
    ("expand same.txt", None),
    ("example kepler", 30),
    ("expand demos/problems/gamma.txt", 30),
]
LAYOUT_CASES = [(line, budget, fmt) for line, budget in LAYOUT_COMMANDS
                for fmt in ("text", "json", "tsv")]


def layout_key(line, budget, fmt) -> str:
    return f"{line} --format {fmt}" + (f" (budget {budget})" if budget else "")


def layout_workdir(path: Path) -> Path:
    """``path`` holding the two demo problem files and ``same.txt``."""
    problems = path / "demos" / "problems"
    problems.mkdir(parents=True, exist_ok=True)
    for name in ("center.txt", "gamma.txt"):
        shutil.copy(ROOT / "demos" / "problems" / name, problems)
    (path / "same.txt").write_text(EQUAL_SECTORS)
    return path


def layout(line, budget, fmt) -> dict:
    """Exit code and masked stdout lines of one command, run in-process
    in the current directory."""
    default = quadrature.MAX_EVALUATIONS
    out = io.StringIO()
    try:
        quadrature.MAX_EVALUATIONS = budget or default
        with contextlib.redirect_stdout(out):
            code = main([*line.split(), "--format", fmt])
    finally:
        quadrature.MAX_EVALUATIONS = default
    return {"exit": code, "stdout": NUMBER.sub("#", out.getvalue()).split("\n")}


class TestLayout:
    """Each command's output skeleton: JSON key order, text labels,
    spacing and line order, TSV headers and row counts.  The skeletons in
    ``cli_layout.json`` were recorded from the renderers before they
    became one; ``python tests/test_cli.py`` records them anew."""

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads(LAYOUT_FILE.read_text())

    @pytest.mark.parametrize("line, budget, fmt", LAYOUT_CASES,
                             ids=[layout_key(*case) for case in LAYOUT_CASES])
    def test_layout(self, tmp_path, monkeypatch, expected, line, budget, fmt):
        monkeypatch.chdir(layout_workdir(tmp_path))
        assert layout(line, budget, fmt) == expected[layout_key(line, budget, fmt)]

    def test_every_recorded_layout_is_checked(self, expected):
        assert sorted(expected) == sorted(layout_key(*case) for case in LAYOUT_CASES)

    def test_text_only_branches_are_recorded(self, expected):
        text = {key: "\n".join(entry["stdout"]) for key, entry in expected.items()
                if " --format text" in key}
        assert "warning: every term vanishes" in text["expand same.txt --format text"]
        assert "(zero)" in text["expand same.txt --format text"]
        budgeted = text["example kepler --format text (budget 30)"]
        assert "NOT converged" in budgeted and "agreement FAILURE" in budgeted

    def test_one_field_reaches_text_and_json_of_both_commands(
            self, capsys, monkeypatch, tmp_path):
        # a field added to _run_fields shows in expand and example alike,
        # in text and JSON; the TSV table does not change
        monkeypatch.chdir(layout_workdir(tmp_path))
        commands = (["expand", "demos/problems/gamma.txt"], ["example", "kepler"])
        tables = [run(capsys, [*argv, "--format", "tsv"])[1] for argv in commands]
        real = cli._run_fields
        monkeypatch.setattr(cli, "_run_fields", lambda problem_run: [
            *real(problem_run), ("dummy_field", 42, "dummy field: 42\n")])
        for argv, table in zip(commands, tables):
            _, text, _ = run(capsys, argv)
            _, js, _ = run(capsys, [*argv, "--format", "json"])
            _, tsv, _ = run(capsys, [*argv, "--format", "tsv"])
            assert "\nalpha cross-route deviation: " in text
            assert "dummy field: 42\n" in text
            assert json.loads(js)["dummy_field"] == 42
            assert tsv == table


if __name__ == "__main__":
    # record the layouts of the current renderers into cli_layout.json
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(layout_workdir(Path(tmp)))
        recorded = {layout_key(*case): layout(*case) for case in LAYOUT_CASES}
        os.chdir(ROOT)
    LAYOUT_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
