"""Parameter-space stratification of the generic family.

The four real parts Re c_inf, Re c_0, Re c_p, Re c_m cut the parameter
space into eight walls and eight chambers.  Projected to the
(Re c_inf, Re c_0)-plane the walls are the rays from the origin at
multiples of 45 degrees, labeled counterclockwise starting from the
positive Re c_inf axis:

    W1: Re c_0   = 0, Re c_inf > 0        W5: Re c_0   = 0, Re c_inf < 0
    W2: Re c_m   = 0, Re c_p   > 0        W6: Re c_m   = 0, Re c_p   < 0
    W3: Re c_inf = 0, Re c_0   > 0        W7: Re c_inf = 0, Re c_0   < 0
    W4: Re c_p   = 0, Re c_m   < 0        W8: Re c_p   = 0, Re c_m   > 0

Chamber k sits between walls Wk and W(k+1); chamber I is the sector with
all four real parts positive.  Crossing a wall makes exactly one of the
Voros building blocks F(c_p), F(c_m), G(c_inf), G(c_0) lose Borel
summability (its argument becomes purely imaginary) and jump, and the
degenerations the curve tracer reports — loops on the c_inf/c_0 walls,
saddle triangles on the c_p/c_m walls — occur on the walls and, as far
as sampling shows, only there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Parameters

__all__ = [
    "StratificationError",
    "Stratum",
    "WALL_TABLE",
    "CHAMBER_SIGNS",
    "classify",
    "jumping_coefficients",
    "on_imaginary_axis",
]

#: relative half-width of each wall's defining hyperplane Re(·) = 0.
WALL_TOL = 1e-10


class StratificationError(ValueError):
    """Parameter cannot be assigned to a single wall or chamber."""


@dataclass(frozen=True)
class Stratum:
    kind: str    # "chamber" | "wall"
    label: str   # I..VIII | W1..W8


_QUANTITIES = ("c_inf", "c_0", "c_p", "c_m")

#: wall -> (quantity whose real part vanishes, companion, companion sign)
WALL_TABLE = {
    "W1": ("c_0", "c_inf", +1),
    "W2": ("c_m", "c_p", +1),
    "W3": ("c_inf", "c_0", +1),
    "W4": ("c_p", "c_m", -1),
    "W5": ("c_0", "c_inf", -1),
    "W6": ("c_m", "c_p", -1),
    "W7": ("c_inf", "c_0", -1),
    "W8": ("c_p", "c_m", +1),
}

#: sign vector (Re c_inf, Re c_0, Re c_p, Re c_m) -> chamber label
CHAMBER_SIGNS = {
    (+1, +1, +1, +1): "I",
    (+1, +1, +1, -1): "II",
    (-1, +1, +1, -1): "III",
    (-1, +1, -1, -1): "IV",
    (-1, -1, -1, -1): "V",
    (-1, -1, -1, +1): "VI",
    (+1, -1, -1, +1): "VII",
    (+1, -1, +1, +1): "VIII",
}

#: vanishing quantity -> its companion, and (quantity, companion real part
#: > 0) -> wall label
_COMPANION = {eq: companion for eq, companion, _ in WALL_TABLE.values()}
_WALL_OF = {(eq, sgn > 0): label for label, (eq, _, sgn) in WALL_TABLE.items()}

_JUMPING = {
    "c_0": "G(c_0)",
    "c_inf": "G(c_inf)",
    "c_m": "F(c_m)",
    "c_p": "F(c_p)",
}


def on_imaginary_axis(z: complex) -> bool:
    """Re z = 0 up to the relative tolerance ``WALL_TOL`` (z = 0 included).

    The one test behind "on a wall" here and "not Borel summable" in
    :mod:`p3wkb.borel`, so the two can never disagree."""
    z = complex(z)
    return abs(z.real) <= WALL_TOL * abs(z)


def classify(p: Parameters) -> Stratum:
    """Assign ``p`` to its wall or chamber.

    A wall label requires its defining real part to vanish (relative
    tolerance ``WALL_TOL``) and the companion inequality to hold
    strictly; otherwise the chamber is read off the sign vector
    (Re c_inf, Re c_0, Re c_p, Re c_m).  Points where several wall
    equalities hold at once (the codimension-two corner locus, e.g. both
    parameters purely imaginary) belong to no single stratum and raise
    :class:`StratificationError`.
    """
    values = {
        "c_inf": complex(p.c_inf),
        "c_0": complex(p.c_0),
        "c_p": complex(p.c_p),
        "c_m": complex(p.c_m),
    }
    vanishing = [name for name in _QUANTITIES if on_imaginary_axis(values[name])]

    if not vanishing:
        key = tuple(+1 if values[name].real > 0 else -1 for name in _QUANTITIES)
        label = CHAMBER_SIGNS.get(key)
        if label is None:
            # impossible for genuine complex inputs: the four real parts
            # satisfy c_p + c_m = c_inf and c_p - c_m = c_0
            raise StratificationError(f"inconsistent sign vector {key}")
        return Stratum("chamber", label)

    if len(vanishing) == 1:
        # The companion is one of the four quantities and not the vanishing
        # one, so its real part is off zero and its sign picks the wall.
        name = vanishing[0]
        companion = _COMPANION[name]
        return Stratum("wall", _WALL_OF[name, values[companion].real > 0])

    raise StratificationError(
        "several wall equalities hold simultaneously (corner of the "
        f"stratification): Re {', '.join(vanishing)} all vanish")


def jumping_coefficients(stratum: Stratum) -> set:
    """Voros building blocks whose Borel sum jumps across ``stratum``.

    Each wall carries exactly one of F(c_p), F(c_m), G(c_inf), G(c_0)
    (the series whose argument is purely imaginary there); a chamber
    carries none.
    """
    if stratum.kind != "wall":
        return set()
    quantity = WALL_TABLE[stratum.label][0]
    return {_JUMPING[quantity]}
