"""Complete asymptotic expansions of saddle-point integrals.

The package computes, in closed form from local Taylor data, every
coefficient of the large-N expansion of contour integrals

    int e^{N p(z)} (z - z0)^(a-1) q(z) dz

whose contour starts at, passes through, or winds around a point z0
where Re p is maximal, and validates each expansion against an
adaptive complex contour-quadrature oracle.

Modules:

* :mod:`saddlepoint.series`     truncated power series, exact kernels
* :mod:`saddlepoint.saddle`     normal form, sectors, saddle search
* :mod:`saddlepoint.expansion`  alpha coefficients and term assembly
* :mod:`saddlepoint.quadrature` adaptive contour integration oracle
* :mod:`saddlepoint.classic`    exact data of four worked integrals
* :mod:`saddlepoint.problemfile` problems, built-in examples, pipeline
* :mod:`saddlepoint.waves`      Sylvester-wave asymptotics
* :mod:`saddlepoint.cli`        the ``saddlepoint`` command

The names below, and the modules that define them, load on first use,
so ``import saddlepoint`` (and the command line) pays only for the
modules it uses.
"""

__version__ = "1.0.0"

#: the public names of each module, re-exported here
_EXPORTS = {
    "series": ("TruncatedSeries", "bernoulli", "stirling2", "binomial",
               "bell_hat", "bell_hat_table"),
    "saddle": ("SaddleNormalForm", "DirectionClass", "RootResult",
               "MaxConditionReport", "normalize", "theta", "sector_index",
               "classify_direction", "find_saddle", "check_max_condition"),
    "expansion": ("AlphaSequence", "AsymptoticExpansion", "Term", "Endpoint",
                  "Through", "EvenOpposite", "CirclePath", "bell_sums",
                  "alpha_bell", "alpha_direct", "assemble", "vanishing_shift"),
    "quadrature": ("Segment", "Arc", "Contour", "QuadratureResult",
                   "integrate", "integrate_power_factor", "builtin_integrand"),
    "classic": ("agreement_digits", "gamma_stirling", "kepler_d_table",
                "center_q_coeffs", "center_d_values", "center_fs_polynomial",
                "parabolic_q_table", "parabolic_d_table"),
    "waves": ("WaveConstants", "WaveExpansion", "dilog", "solve_constants",
              "p_wave_series", "f_lambda_series", "u_series",
              "wave_coefficients", "wave_main_term"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import the module ``name``, or the one that defines ``name``
    (PEP 562), and keep the value."""
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})
