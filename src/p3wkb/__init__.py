"""Exact-WKB data of the Painleve III equations of types D6 and D7.

Modules by layer:

- ``numerics``  — Bernoulli numbers, jets, Laurent series, exact Laurent
                  polynomials (``ExactLaurent``), roots, the square-root
                  sign chain and ``binet``
- ``algebra``   — parameters, branches of the leading algebraic equations,
                  turning points, the u-plane charts of D6 and D7 and their
                  quadratic differentials
- ``series``    — formal eta-series engine: the D6 and D7 equation models,
                  0-parameter solutions, Riccati solutions, odd/even parts,
                  instanton prefactor, Backlund maps
- ``geometry``  — Stokes-curve tracing on the u-plane, degeneration detection
- ``voros``     — Voros coefficients: one endpoint table of closed forms,
                  difference-equation verification, numeric contour oracle
- ``borel``     — Borel sums of the building-block series, Laplace oracle,
                  jump factors, connection multipliers
- ``walls``     — parameter-space walls and chambers
"""

__version__ = "0.1.0"
