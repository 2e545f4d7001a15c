"""Exact invariants of singular holomorphic distributions on projective space.

Modules are organized by calculus:

- ``chow``: split bundles on P^n, the closed-form degree of the singular
  scheme (integer Chow-ring arithmetic) and the classification rows.
- ``cohomology``: Bott-style closed-form cohomology of sums of line bundles
  and twisted cotangent powers, with certified vanishing windows.
- ``criteria``: splitting, ACM, Buchsbaum and regularity decision procedures
  over cohomology tables.
- ``chase``: long-exact-sequence dimension chases over Eagon-Northcott style
  complexes.
- ``forms``: polynomial differential forms on C^{n+1} with exact rational
  coefficients, wedge/contraction, singular-ideal extraction, and the one
  reader of the form syntax.
- ``hilbert``: exact Hilbert functions of graded ideals from a Groebner
  basis and the Hilbert series of its leading monomials; the independent
  numeric oracle for the rest of the library.
- ``cli``: the ``singscheme`` command-line driver.
"""

__version__ = "0.1.0"
