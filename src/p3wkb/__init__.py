"""Exact-WKB data of the Painleve III equations of types D6 and D7.

Subpackages by layer:

- ``numerics``  — rationals, Bernoulli numbers, jets, Laurent series, roots,
                  Binet's function ``binet`` and ``log_gamma``
- ``algebra``   — parameters, branches of the leading algebraic equation,
                  turning points, the u-plane chart and its quadratic
                  differential
- ``series``    — formal eta-series engine: 0-parameter solutions, Riccati
                  solutions, odd/even parts, instanton prefactor, Backlund maps
- ``geometry``  — Stokes-curve tracing on the u-plane, degeneration detection,
                  SVG/JSON rendering
- ``voros``     — Voros coefficients: closed forms, difference-equation
                  verification, numeric contour oracle, the D7 model
- ``borel``     — Borel sums of the building-block series, Laplace oracle,
                  jump factors, connection multipliers
- ``walls``     — parameter-space walls and chambers
"""

__version__ = "0.1.0"
