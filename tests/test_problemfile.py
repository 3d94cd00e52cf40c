"""Problem-file parsing: formats, builtins, validation, line numbers."""

import math
from fractions import Fraction

import pytest

from saddlepoint.expansion import CirclePath, Endpoint, EvenOpposite
from saddlepoint.problemfile import (EXAMPLES, ProblemFileError,
                                     example_problem, parse_problem_text,
                                     run_problem)

GAMMA_TEXT = """\
# factorial integral about its interior maximum
p = {"builtin": "gamma", "order": 12}
q = {"builtin": "one"}
a = 1
variant = "even_opposite"
k = 0
order = 6
contour = [{"segment": [[0.05, 0.0], [4.0, 0.0]]}]
n_values = [50.0]
"""

#: center at eps = 0.2 and N = 800: e^{N p(z)} underflows on the whole path
CENTER_UNDERFLOW_TEXT = """\
p = {"builtin": "center", "eps": 0.2}
q = {"builtin": "center"}
a = 0
variant = "circle_path"
k1 = 1
k2 = 2
order = 13
contour = [{"segment": [[-3.141592653589793, 2.2924316695611777], [-0.25, 2.2924316695611777]]}, {"arc": {"center": [0.0, 2.2924316695611777], "radius": 0.25, "from": 3.141592653589793, "to": 6.283185307179586}}, {"segment": [[0.25, 2.2924316695611777], [3.141592653589793, 2.2924316695611777]]}]
n_values = [800]
"""

CENTER_TAIL = """\
a = 0
variant = "circle_path"
k1 = 1
k2 = 2
order = 5
"""


class TestParsing:
    def test_gamma_builtin(self):
        prob = parse_problem_text(GAMMA_TEXT)
        assert prob.normal_form.mu == 2
        assert prob.branch == EvenOpposite(0)
        assert prob.order == 6
        assert prob.n_values == (50.0,)
        assert abs(prob.p_callable(1.0) + 1.0) < 1e-15

    def test_coefficient_lists(self):
        text = """\
z0 = [0.0, 0.0]
p = [[0,0],[0,0],[-1,0],[0.25,0],[0,0],[0,0],[0,0],[0,0]]
q = [[1,0],[0.5,0],[0,0],[0,0],[0,0],[0,0]]
a = "1/2"
variant = "endpoint"
k = 0
order = 4
"""
        prob = parse_problem_text(text)
        assert prob.normal_form.mu == 2
        assert prob.a == Fraction(1, 2)
        assert isinstance(prob.branch, Endpoint)
        assert prob.q.coeffs[1] == 0.5

    def test_complex_a(self):
        text = GAMMA_TEXT.replace('a = 1', 'a = [0.3, 0.7]')
        prob = parse_problem_text(text.replace('variant = "even_opposite"',
                                               'variant = "through"')
                                  .replace('k = 0', 'k1 = 0\nk2 = 1'))
        assert prob.a == 0.3 + 0.7j

    def test_circle_path_and_arc_contour(self):
        eps = 0.4
        gam = (1 + math.sqrt(1 - eps * eps)) / eps
        y = math.log(gam)
        pieces = (
            f'[{{"segment": [[-3.141592653589793, {y}], [-0.25, {y}]]}}, '
            f'{{"arc": {{"center": [0.0, {y}], "radius": 0.25, '
            f'"from": 3.141592653589793, "to": 6.283185307179586}}}}, '
            f'{{"segment": [[0.25, {y}], [3.141592653589793, {y}]]}}]')
        text = f"""\
p = {{"builtin": "center", "order": 16, "eps": 0.4}}
q = {{"builtin": "center", "order": 16}}
a = 0
variant = "circle_path"
k1 = 1
k2 = 2
order = 13
contour = {pieces}
n_values = [50.0]
"""
        prob = parse_problem_text(text)
        assert prob.branch == CirclePath(1, 2)
        assert prob.a == 0
        assert len(prob.contour.pieces) == 3

    def test_default_q_is_one(self):
        text = "\n".join(line for line in GAMMA_TEXT.splitlines()
                         if not line.startswith("q")) + "\n"
        prob = parse_problem_text(text)
        assert prob.q.coeffs[0] == 1.0


class TestRejections:
    def test_bad_json_reports_line(self):
        bad = GAMMA_TEXT.replace('order = 6', 'order = {6')
        with pytest.raises(ProblemFileError, match="line 7"):
            parse_problem_text(bad)

    def test_duplicate_key(self):
        with pytest.raises(ProblemFileError, match="duplicate"):
            parse_problem_text(GAMMA_TEXT + "order = 4\n")

    def test_two_variant_blocks(self):
        with pytest.raises(ProblemFileError, match="duplicate key 'variant'"):
            parse_problem_text(GAMMA_TEXT + 'variant = "endpoint"\n')

    def test_unknown_key(self):
        with pytest.raises(ProblemFileError, match="unknown key"):
            parse_problem_text(GAMMA_TEXT + 'tolerance = 3\n')

    def test_missing_variant(self):
        text = "\n".join(line for line in GAMMA_TEXT.splitlines()
                         if not line.startswith("variant"))
        with pytest.raises(ProblemFileError, match="variant"):
            parse_problem_text(text)

    def test_under_resolved_coefficients(self):
        text = """\
z0 = [0.0, 0.0]
p = [[0,0],[0,0],[-1,0],[0.25,0]]
q = [[1,0]]
variant = "endpoint"
k = 0
order = 6
"""
        with pytest.raises(ProblemFileError, match="resolve"):
            parse_problem_text(text)

    def test_k_and_k1_mixing(self):
        bad = GAMMA_TEXT + "k1 = 1\n"
        with pytest.raises(ProblemFileError, match="k1"):
            parse_problem_text(bad)

    def test_constant_phase(self):
        text = """\
z0 = [0.0, 0.0]
p = [[1,0],[0,0],[0,0]]
variant = "endpoint"
k = 0
order = 1
"""
        with pytest.raises(ProblemFileError, match="degenerate"):
            parse_problem_text(text)

    def test_n_without_contour(self):
        text = "\n".join(line for line in GAMMA_TEXT.splitlines()
                         if not line.startswith("contour")) + "\n"
        with pytest.raises(ProblemFileError, match="contour"):
            parse_problem_text(text)

    def test_z0_required_for_lists(self):
        text = """\
p = [[0,0],[0,0],[-1,0],[0,0],[0,0]]
variant = "endpoint"
k = 0
order = 2
"""
        with pytest.raises(ProblemFileError, match="z0"):
            parse_problem_text(text)

    def test_z0_conflicts_with_builtin(self):
        bad = "z0 = [2.5, 0.0]\n" + GAMMA_TEXT
        with pytest.raises(ProblemFileError, match="conflicts"):
            parse_problem_text(bad)

    @pytest.mark.parametrize("builtin", [
        '{"builtin": "center", "eps": 1.7}',
        '{"builtin": "center", "eps": 0}',
        '{"builtin": "center", "eps": "0.4"}',
        '{"builtin": "center", "eps": true}',
    ])
    def test_bad_builtin_eps(self, builtin):
        text = f"p = {builtin}\n" + CENTER_TAIL
        with pytest.raises(ProblemFileError, match="line 1: .*eccentricity"):
            parse_problem_text(text)

    def test_bad_amplitude_eps(self):
        text = ('p = {"builtin": "center", "eps": 0.4}\n'
                'q = {"builtin": "center", "eps": -2}\n' + CENTER_TAIL)
        with pytest.raises(ProblemFileError, match="line 2: .*eccentricity"):
            parse_problem_text(text)

    @pytest.mark.parametrize("line, text", [
        (2, GAMMA_TEXT.replace('"order": 12', '"order": 12.5')),
        (2, GAMMA_TEXT.replace('"order": 12', '"order": "12"')),
        (3, GAMMA_TEXT.replace('{"builtin": "one"}',
                               '{"builtin": "one", "order": [8]}')),
    ], ids=["phase-float", "phase-string", "amplitude-list"])
    def test_bad_builtin_order(self, line, text):
        with pytest.raises(ProblemFileError, match=f"line {line}: .*order"):
            parse_problem_text(text)

    @pytest.mark.parametrize("line, key, text", [
        (2, "ordr", GAMMA_TEXT.replace('"order": 12', '"ordr": 12, "eps": 0.3')),
        (2, "eps", GAMMA_TEXT.replace('"order": 12', '"order": 12, "eps": 0.3')),
        (3, "colour", GAMMA_TEXT.replace('{"builtin": "one"}',
                                         '{"builtin": "one", "colour": 1}')),
        (1, "epsilon", 'p = {"builtin": "center", "eps": 0.4, "epsilon": 0.4}\n'
                       + CENTER_TAIL),
    ], ids=["phase-typo", "phase-eps", "amplitude-extra", "center-extra"])
    def test_unknown_builtin_key(self, line, key, text):
        with pytest.raises(ProblemFileError,
                           match=f"line {line}: .*unknown key '{key}'"):
            parse_problem_text(text)

    @pytest.mark.parametrize("line, message, old, new", [
        (8, "segment end must be finite", "[4.0, 0.0]]", "[NaN, 0.0]]"),
        (8, "segment start must be finite", "[[0.05, 0.0]", "[[0.05, -Infinity]"),
        (8, r"bad arc in contour\[0\]: arc radius must be positive and finite",
         '[{"segment": [[0.05, 0.0], [4.0, 0.0]]}]',
         '[{"arc": {"center": [2.0, 0.0], "radius": NaN, "from": 3.14, "to": 0}}]'),
        (4, "a must be a finite number", "a = 1", "a = NaN"),
        (4, "a must be a finite number", "a = 1", "a = 1e999"),
        (4, "a must be finite", "a = 1", "a = [0.5, Infinity]"),
        (1, "z0 must be finite", "# factorial", "z0 = [NaN, 0]\n#"),
        (9, "initial_branch_angle must be a finite number", "n_values",
         "initial_branch_angle = NaN\nn_values"),
    ], ids=["segment-end", "segment-start", "arc-radius", "a-nan", "a-overflow",
            "a-pair", "z0", "branch-angle"])
    def test_non_finite_number_is_input_error(self, line, message, old, new):
        with pytest.raises(ProblemFileError, match=f"line {line}: {message}"):
            parse_problem_text(GAMMA_TEXT.replace(old, new, 1))

    def test_non_finite_coefficient_is_input_error(self):
        text = """\
z0 = [0.0, 0.0]
p = [[0,0],[0,0],[-1,0],[NaN,0],[0,0],[0,0]]
variant = "endpoint"
k = 0
order = 2
"""
        with pytest.raises(ProblemFileError, match=r"line 2: p\[3\] must be finite"):
            parse_problem_text(text)


class TestExamples:
    def test_registry_builds_every_example(self):
        for name in EXAMPLES:
            example = example_problem(name)
            assert example.name == name
            assert example.problem.n_values == (50.0,)
            assert example.coefficient_table

    def test_gamma_orders_and_tolerance_cap(self):
        example = example_problem("gamma", terms=4, rel_tol=1e-6)
        assert example.problem.order == 9
        assert example.rel_tol == 1e-12
        assert example.parameters == {"n": 50.0, "terms": 4}

    def test_bad_parameters(self):
        for terms in (0, -1):
            with pytest.raises(ProblemFileError, match="term"):
                example_problem("kepler", terms=terms)
        with pytest.raises(ProblemFileError, match="positive"):
            example_problem("kepler", n=0.0)
        with pytest.raises(ProblemFileError, match="eccentricity"):
            example_problem("center", eps=1.7)

    def test_route_deviation_is_per_coefficient(self):
        # the Bell route keeps no correct digit from s = 22 on; measured
        # against max|alpha| instead of |alpha_s| that reads only ~1e-8
        run = run_problem(example_problem("center", eps=0.1, terms=40).problem)
        assert run.route_deviation > 1e-3

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_builtins_expanded_to_the_order_the_routes_read(self, name):
        problem = example_problem(name).problem
        assert problem.normal_form.phi.order == problem.order - 1
        assert problem.q.order == problem.order - 1
        # a file without q takes the amplitude 1 to the same order
        bare = parse_problem_text(GAMMA_TEXT.replace('q = {"builtin": "one"}\n', ""))
        assert bare.q.order == bare.order - 1

    def test_builtin_order_is_a_floor(self):
        # "order": 12 is kept; without it the builtin stops at order - 1
        assert parse_problem_text(GAMMA_TEXT).normal_form.phi.order == 12
        bare = GAMMA_TEXT.replace(', "order": 12', "")
        assert parse_problem_text(bare).normal_form.phi.order == 5
        low = GAMMA_TEXT.replace('"order": 12', '"order": 2')
        assert parse_problem_text(low).normal_form.phi.order == 5


class TestRunProblem:
    @pytest.mark.parametrize("text", [
        CENTER_UNDERFLOW_TEXT,
        GAMMA_TEXT.replace("[50.0]", "[800.0]"),
    ], ids=["center", "gamma"])
    def test_underflow_oracle_not_converged(self, text):
        (validation,) = run_problem(parse_problem_text(text)).validations
        oracle = validation.oracle
        assert (oracle.value, oracle.error_estimate) == (0, 0.0)
        assert not oracle.converged
        assert validation.digits == 0
