"""Package surface: lazily resolved exports and immutable records."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import saddlepoint
from saddlepoint.expansion import (AlphaSequence, AsymptoticExpansion,
                                   CirclePath, Endpoint, EvenOpposite, Term,
                                   Through, VanishingShiftReport)
from saddlepoint.problemfile import Example, Problem, ProblemRun, Validation
from saddlepoint.quadrature import Arc, Contour, QuadratureResult, Segment
from saddlepoint.saddle import (DirectionClass, MaxConditionReport,
                                RootResult, SaddleNormalForm)
from saddlepoint.selftest import CheckResult
from saddlepoint.series import TruncatedSeries
from saddlepoint.waves import WaveConstants, WaveExpansion

SERIES = TruncatedSeries(0.0, (Fraction(1), Fraction(1, 2)))
NF = SaddleNormalForm(0j, -1 + 0j, 2, 0.5 + 0j, 0.0, SERIES)
SEGMENT = Segment(0j, 1 + 0j)
CONTOUR = Contour((SEGMENT,), None)
ORACLE = QuadratureResult(1 + 0j, 1e-15, 15, True)
TERM = Term(0, 0.5 + 0j, 2 + 0j)
EXPANSION = AsymptoticExpansion(-1 + 0j, (TERM,), 1)

#: (class, fields in __slots__ order, the same with one field changed);
#: fields are passed by keyword
RECORDS = [
    (TruncatedSeries, {"base": 0j, "coeffs": (Fraction(1), Fraction(2))},
     {"base": 0j, "coeffs": (Fraction(1), Fraction(3))}),
    (SaddleNormalForm, {"z0": 0j, "p_at_z0": -1 + 0j, "mu": 2, "p0": 0.5 + 0j,
                        "omega0": 0.0, "phi": SERIES},
     {"z0": 0j, "p_at_z0": -1 + 0j, "mu": 3, "p0": 0.5 + 0j,
      "omega0": 0.0, "phi": SERIES}),
    (DirectionClass, {"kind": "valley", "sector_index": 1},
     {"kind": "valley", "sector_index": 0}),
    (RootResult, {"root": 1j, "residual": 0.0, "iterations": 3},
     {"root": 1j, "residual": 0.0, "iterations": 4}),
    (MaxConditionReport, {"passed": True, "max_excess": -0.5, "argmax": 1j,
                          "samples": 100, "excluded": 2},
     {"passed": False, "max_excess": -0.5, "argmax": 1j,
      "samples": 100, "excluded": 2}),
    (AlphaSequence, {"a": Fraction(1, 2), "alphas": (1 + 0j, 0j), "mu": 2,
                     "p0": 0.5 + 0j},
     {"a": Fraction(1, 3), "alphas": (1 + 0j, 0j), "mu": 2, "p0": 0.5 + 0j}),
    (Endpoint, {"k": 0}, {"k": 1}),
    (Through, {"k1": 1, "k2": 0}, {"k1": 1, "k2": 2}),
    (EvenOpposite, {"k": 0}, {"k": 1}),
    (CirclePath, {"k1": 1, "k2": 0}, {"k1": 1, "k2": 2}),
    (Term, {"s": 0, "exponent": 0.5 + 0j, "coefficient": 2 + 0j},
     {"s": 1, "exponent": 0.5 + 0j, "coefficient": 2 + 0j}),
    (AsymptoticExpansion, {"p_at_z0": -1 + 0j, "terms": (TERM,), "a": 1},
     {"p_at_z0": -1 + 0j, "terms": (TERM,), "a": 2}),
    (VanishingShiftReport, {"psi": SERIES, "max_abs_error": 0.0,
                            "leading_alphas_zero": True},
     {"psi": SERIES, "max_abs_error": 1e-3, "leading_alphas_zero": True}),
    (Segment, {"start": 0j, "end": 1 + 0j}, {"start": 0j, "end": 2 + 0j}),
    (Arc, {"center": 0j, "radius": 1.0, "angle_from": 0.0, "angle_to": 3.0},
     {"center": 0j, "radius": 2.0, "angle_from": 0.0, "angle_to": 3.0}),
    (Contour, {"pieces": (SEGMENT,), "initial_branch_angle": 0.0},
     {"pieces": (SEGMENT,), "initial_branch_angle": 1.0}),
    (QuadratureResult, {"value": 1 + 0j, "error_estimate": 1e-15,
                        "evaluations": 15, "converged": True},
     {"value": 1 + 0j, "error_estimate": 1e-15, "evaluations": 15,
      "converged": False}),
    (Problem, {"normal_form": NF, "q": SERIES, "a": 1, "branch": Through(1, 0),
               "order": 4, "p_callable": SERIES, "q_callable": SERIES,
               "contour": CONTOUR, "n_values": (50.0,)},
     {"normal_form": NF, "q": SERIES, "a": 1, "branch": CirclePath(1, 0),
      "order": 4, "p_callable": SERIES, "q_callable": SERIES,
      "contour": CONTOUR, "n_values": (50.0,)}),
    (Example, {"name": "gamma", "parameters": {"n": 50.0},
               "problem": None, "rel_tol": 1e-11},
     {"name": "gamma", "parameters": {"n": 60.0},
      "problem": None, "rel_tol": 1e-11}),
    (Validation, {"n": 50.0, "value": 1 + 0j, "oracle": ORACLE, "digits": 12},
     {"n": 50.0, "value": 1 + 0j, "oracle": ORACLE, "digits": 11}),
    (ProblemRun, {"expansion": EXPANSION, "route_deviation": 0.0,
                  "validations": ()},
     {"expansion": EXPANSION, "route_deviation": 1e-16, "validations": ()}),
    (WaveConstants, {"w0": 0.5 + 0j, "z0_wave": 1j, "p0_wave": 2j,
                     "residual": 0.0},
     {"w0": 0.5 + 0j, "z0_wave": 1j, "p0_wave": 3j, "residual": 0.0}),
    (WaveExpansion, {"lam": Fraction(3, 2), "coeffs": (1j,), "w0": 0.5 + 0j,
                     "z0_wave": 1j},
     {"lam": Fraction(1), "coeffs": (1j,), "w0": 0.5 + 0j, "z0_wave": 1j}),
    (CheckResult, {"name": "bernoulli", "ok": True, "detail": "exact"},
     {"name": "bernoulli", "ok": False, "detail": "exact"}),
]

#: the fields a record may leave out, with the value it then takes
DEFAULTS = [
    (DirectionClass, ("hill",), "sector_index", None),
    (AsymptoticExpansion, (-1 + 0j, (TERM,)), "a", 1),
    (Contour, ((SEGMENT,),), "initial_branch_angle", None),
]


@pytest.mark.parametrize("cls, fields, other", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
class TestRecordSemantics:
    def test_slots_are_the_fields(self, cls, fields, other):
        assert cls.__slots__ == tuple(fields)
        assert not hasattr(cls(**fields), "__dict__")

    def test_equal_fields_equal_records(self, cls, fields, other):
        first, second = cls(**fields), cls(*fields.values())
        assert first == second and not first != second
        assert first != cls(**other)
        try:
            hash(tuple(fields.values()))
        except TypeError:                    # Example holds a dict
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)

    def test_frozen(self, cls, fields, other):
        record = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert cls(**fields) == record

    def test_repr(self, cls, fields, other):
        record = cls(**fields)
        if "__repr__" in vars(cls):          # TruncatedSeries: its own summary
            assert repr(record).startswith(f"{cls.__name__}(")
            return
        inner = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({inner})"

    def test_copies_are_equal(self, cls, fields, other):
        record = cls(**fields)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record


@pytest.mark.parametrize("args, kwargs", [
    ((1, 0, 2), {}),
    ((1,), {}),
    ((1, 0), {"k1": 1}),
    ((), {"k1": 1, "k2": 0, "k3": 2}),
], ids=["too-many", "missing", "repeated", "unknown"])
def test_generic_constructor_rejects_bad_fields(args, kwargs):
    with pytest.raises(TypeError, match="Through"):
        Through(*args, **kwargs)


def test_records_of_different_classes_differ():
    assert Through(1, 0) != CirclePath(1, 0)
    assert Endpoint(0) != EvenOpposite(0)
    assert len({Through(1, 0), CirclePath(1, 0), Through(1, 0)}) == 2


def test_records_are_not_sequences():
    with pytest.raises(TypeError):
        iter(Through(1, 0))


def test_pickle_round_trip():
    for record in (TERM, EXPANSION, CONTOUR, Arc(0j, 1.0, 0.0, 1.0), NF):
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, given, name, value", DEFAULTS,
                         ids=[cls.__name__ for cls, *_ in DEFAULTS])
def test_defaults(cls, given, name, value):
    assert getattr(cls(*given), name) == value


def test_quadrature_result_states_convergence():
    # a result never claims convergence by default
    with pytest.raises(TypeError, match="converged"):
        QuadratureResult(1 + 0j, 1e-15, 15)


def test_every_export_resolves():
    for name in saddlepoint.__all__:
        value = getattr(saddlepoint, name)
        if name != "__version__":
            assert value.__module__.startswith("saddlepoint.")
    assert set(saddlepoint.__all__) <= set(dir(saddlepoint))
    with pytest.raises(AttributeError):
        saddlepoint.no_such_name


def test_exports_load_on_first_use():
    src = str(Path(saddlepoint.__file__).parents[1])
    code = ("import sys, saddlepoint; "
            "print(sorted(m for m in sys.modules if m.startswith('saddlepoint.'))); "
            "print(saddlepoint.quadrature is sys.modules['saddlepoint.quadrature'], "
            "'quadrature' in dir(saddlepoint)); "
            "from saddlepoint import TruncatedSeries; "
            "print('saddlepoint.series' in sys.modules, "
            "'saddlepoint.waves' in sys.modules); "
            "names = {}; exec('from saddlepoint import *', names); "
            "print(sorted(set(saddlepoint.__all__) - set(names)))")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[:4] == ["[]", "True True", "True False",
                                            "[]"]
