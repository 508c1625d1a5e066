"""Exact engine for integral characteristic-class polynomials and their verification.

Modules by concern:

- arith:      Todd denominators, Bernoulli numbers, divisibility facts
- poly:       sparse graded polynomials over exact rationals, symmetric reduction
- series:     universal class polynomials (Todd, Chern character, combined, ...)
- geometry:   Chow rings and K-groups of towers of split projective bundles
- specparse:  parser of the CLI's geometry and class-expression text
- grr:        two-sided Riemann-Roch checkers on model geometries
- identities: formal power-series identities, checked degree by degree
- report:     pass/fail records, the one check runner and the JSON wire format
- suites:     named verification suites (the CLI surface)
- cli:        command line front end
"""

__version__ = "0.1.0"
