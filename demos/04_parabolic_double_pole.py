"""The parabolic limit: a double pole on a third-order saddle.

At eccentricity 1 the equation-of-center integrand degenerates to
e^{N i (z - sin z)} / (1 - cos z) with a double pole at the saddle
z0 = 0.  The weight exponent becomes a = -1, the leading exponent
(s + a)/mu = -1/3 is negative, and the "expansion" actually grows
like N^{1/3}.  The residue at 0 vanishes, so every pole-avoiding path
from -pi to pi gives the same value; the oracle checks that too.
"""

from saddlepoint import builtin_integrand, integrate
from saddlepoint.classic import parabolic_contour, parabolic_d_table
from saddlepoint.problemfile import example_problem, run_problem

print("Exact tables")
print("------------")
for s, val in enumerate(parabolic_d_table(8)):
    print(f"  d*({s}) = {val}")
print()

example = example_problem("parabolic", n=50.0, terms=8)
run = run_problem(example.problem, example.rel_tol)
point = run.validations[0]
print(f"value at N = 50:   expansion  {point.value.real:.12f}")
print(f"                   quadrature {point.oracle.value.real:.12f}")
print(f"agreement: {point.digits} digits")
print()

print("terms (note the negative leading exponent):")
for t in run.expansion.terms:
    if not t.is_zero:
        print(f"  s = {t.s}: coefficient {t.coefficient.real:+.10f}  "
              f"x N^{-t.exponent.real:+.4f}")
print()

print("Path independence of the oracle (two different dip radii):")
f = builtin_integrand("parabolic", n=50.0)
for radius in (0.2, 0.45):
    r = integrate(f, parabolic_contour(radius), abs_tol=0.0, rel_tol=1e-11)
    print(f"  radius {radius:.2f}: {r.value.real:.12f} "
          f"({r.evaluations} evaluations)")
