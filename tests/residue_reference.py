"""Contour oracle for the chart's closed-form residues of sqrt(q) du
(``UChart.pole_residues``): each residue is confirmed by one numerical
contour integral around its pole, independent of the closed forms.
"""

import numpy as np

from p3wkb import algebra
from p3wkb.algebra import AlgebraError
from p3wkb.numerics import _chain_signs, _nearer_negated

_CONTOUR_SAMPLES = 1024


def _contour_residue(f, center: complex, radius: float) -> complex:
    """(1/2 pi i) * contour integral of f around |u - center| = radius,
    with sign-continuous square-root values supplied by f (f returns the
    principal value; continuity is enforced here)."""
    theta = 2 * np.pi * np.arange(_CONTOUR_SAMPLES) / _CONTOUR_SAMPLES
    z = center + radius * np.exp(1j * theta)
    vals = np.array([f(zz) for zz in z])
    vals = vals * _chain_signs(vals)
    if _nearer_negated(vals[-1], vals[0]):
        raise AlgebraError("residue contour did not close (odd branching inside)")
    return complex(radius / _CONTOUR_SAMPLES * np.sum(vals * np.exp(1j * theta)))


def residues(p, tol: float = 1e-8) -> dict:
    """Residues of the 1-form sqrt(q) du at its poles (up to overall sign),
    keyed like the chart's ``pole_residues``.  For D6 (``Parameters``):

        u = infinity        -> +/- c_p        ("inf12")
        u = 0               -> +/- c_m        ("inf34")
        u = +c_m/c_p        -> +/- c_inf      ("zero_cinf")
        u = -c_m/c_p        -> +/- c_0        ("zero_c0")

    and for D7 (a complex c): 0 at u = infinity ("escaped"), +/- c at u = c
    ("zero_c").  Each closed form is confirmed by one contour integral, on
    a circle that holds no other singular point: 0.3 of ``special_gap``
    around a finite pole, and five times beyond the farthest singular point
    for u = infinity.  A contour that disagrees by ``tol`` or more (relative
    to max(1, |residue|)) raises ``AlgebraError``."""
    chart = algebra.u_chart(p)
    for label, expect in chart.pole_residues.items():
        if label == chart.escape_label:      # u = infinity, integrated in w = 1/u
            center, radius = 0j, 0.2 / max(abs(s) for s in chart.singular_points())
            f = lambda w: np.sqrt(complex(chart.q(1 / w))) / w ** 2
        else:
            center = chart.capture_points()[label]
            radius = 0.3 * chart.special_gap(center)
            f = lambda u: np.sqrt(complex(chart.q(u)))
        val = _contour_residue(f, center, radius)
        if not min(abs(val - expect), abs(val + expect)) < tol * max(1.0, abs(expect)):
            raise AlgebraError(f"residue at {label}: contour {val} vs closed form +/-{expect}")
    return dict(chart.pole_residues)
