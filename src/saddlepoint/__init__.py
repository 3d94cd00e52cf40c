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
"""

__version__ = "1.0.0"

from .series import (TruncatedSeries, bernoulli, stirling2, binomial,
                     bell_hat, bell_hat_table)
from .saddle import (SaddleNormalForm, DirectionClass, RootResult,
                     MaxConditionReport, normalize, theta, sector_index,
                     classify_direction, find_saddle, check_max_condition)
from .expansion import (AlphaSequence, AsymptoticExpansion, Term,
                        Endpoint, Through, EvenOpposite, CirclePath,
                        bell_sums, alpha_bell, alpha_direct, assemble,
                        vanishing_shift)
from .quadrature import (Segment, Arc, Contour, QuadratureResult,
                         integrate, integrate_power_factor, builtin_integrand)
from .classic import (agreement_digits, gamma_stirling, kepler_d_table,
                      center_q_coeffs, center_d_values, center_fs_polynomial,
                      parabolic_q_table, parabolic_d_table)
from .waves import (WaveConstants, WaveExpansion, dilog, solve_constants,
                    p_wave_series, f_lambda_series, u_series,
                    wave_coefficients, wave_main_term)

__all__ = [
    "__version__",
    "TruncatedSeries", "bernoulli", "stirling2", "binomial", "bell_hat",
    "bell_hat_table",
    "SaddleNormalForm", "DirectionClass", "RootResult", "MaxConditionReport",
    "normalize", "theta", "sector_index", "classify_direction", "find_saddle",
    "check_max_condition",
    "AlphaSequence", "AsymptoticExpansion", "Term", "Endpoint", "Through",
    "EvenOpposite", "CirclePath", "bell_sums", "alpha_bell", "alpha_direct",
    "assemble", "vanishing_shift",
    "Segment", "Arc", "Contour", "QuadratureResult", "integrate",
    "integrate_power_factor", "builtin_integrand",
    "agreement_digits", "gamma_stirling", "kepler_d_table", "center_q_coeffs",
    "center_d_values", "center_fs_polynomial", "parabolic_q_table",
    "parabolic_d_table",
    "WaveConstants", "WaveExpansion", "dilog", "solve_constants",
    "p_wave_series", "f_lambda_series", "u_series", "wave_coefficients",
    "wave_main_term",
]
