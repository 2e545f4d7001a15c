"""Exact invariants of singular holomorphic distributions on projective space.

Subpackages are organized by calculus:

- ``chow``: integer arithmetic in the Chow ring of P^n, Chern classes,
  degeneracy-degree formulas.
- ``cohomology``: Bott-style closed-form cohomology of sums of line bundles
  and twisted cotangent powers, with certified vanishing windows.
- ``criteria``: splitting, ACM, Buchsbaum and regularity decision procedures
  over cohomology tables.
- ``chase``: long-exact-sequence dimension chases over Eagon-Northcott style
  complexes.
- ``forms``: polynomial differential forms on C^{n+1} with exact rational
  coefficients, wedge/contraction, singular-ideal extraction.
- ``hilbert``: exact Hilbert functions of graded ideals from a Groebner
  basis and the Hilbert series of its leading monomials; the independent
  numeric oracle for the rest of the library.
- ``cli``: the ``singscheme`` command-line driver.
"""

__version__ = "0.1.0"
