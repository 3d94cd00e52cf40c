"""A simple pole riding on the saddle point.

The Fourier coefficients of the equation of the center lead to

    int_{-pi}^{pi} e^{N i (z - eps sin z)} / (1 - eps cos z) dz,

whose integrand has a pole exactly at the saddle z0 = i log(gamma),
gamma = (1 + sqrt(1 - eps^2))/eps.  Factoring the pole into a
(z - z0)^(a-1) weight with a = 0 and circling the contour below z0
produces an expansion whose leading term is the exact constant
pi/sqrt(1 - eps^2) (the exponent hits a Gamma pole and the finite
replacement rule takes over), plus half-integer powers of 1/N.
"""

import cmath
import math

from saddlepoint import find_saddle
from saddlepoint.classic import (center_d_values, center_fs_polynomial,
                                 center_gamma)
from saddlepoint.problemfile import example_problem, run_problem

eps = 0.4
gamma = center_gamma(eps)
print(f"eccentricity {eps}: gamma = {gamma:.12f}, saddle z0 = i log gamma "
      f"= {math.log(gamma):.12f} i")

# the Newton search recovers the same point from the black-box phase
found = find_saddle(lambda z: 1j * (z - eps * cmath.sin(z)), 1j)
print(f"Newton from the raw phase: {found.root:.12f} "
      f"({found.iterations} iterations, residual {found.residual:.1e})")
print()

# the built-in "center" problem: a = 0, circling path from sector 1 to 2
example = example_problem("center", n=50.0, eps=eps, terms=13)
run = run_problem(example.problem, example.rel_tol)
point = run.validations[0]
c0 = run.expansion.terms[0].coefficient
print(f"leading (constant) coefficient: {c0.real:.15f}")
print(f"pi/sqrt(1 - eps^2)            : {math.pi / math.sqrt(1 - eps * eps):.15f}")
print()
print(f"value at N = 50:   expansion  {point.value.real:.12e}")
print(f"                   quadrature {point.oracle.value.real:.12e}")
print(f"agreement: {point.digits} digits "
      f"({point.oracle.evaluations} integrand evaluations)")
print()

print("Structure of the odd coefficients: d(s) (1-eps^2)^{(s+1)/2} is a")
print("polynomial in eps^2 (observed, checked by least squares):")
for s in (1, 3, 5):
    coeffs, residual = center_fs_polynomial(s)
    poly = " + ".join(f"{c:.9f} x^{k}" for k, c in enumerate(coeffs))
    print(f"  s = {s}: {poly}   (fit residual {residual:.1e})")
print()

print("Sweep of the first two structure identities over eccentricities:")
for k in range(1, 10):
    e = k / 10.0
    d = center_d_values(e, 3)
    lhs1 = d[1].real * (1 - e * e)
    lhs3 = d[3].real * (1 - e * e) ** 2
    rhs3 = -(46 + 189 * e * e) / 540
    print(f"  eps = {e:.1f}: d(1)(1-eps^2) = {lhs1:.15f}   "
          f"d(3)(1-eps^2)^2 - target = {lhs3 - rhs3:+.1e}")
