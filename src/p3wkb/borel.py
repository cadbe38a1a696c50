"""Lateral Borel sums of the two model series F and G.

With z = c eta, the formal series

    F(z) = sum_{n>=1} (2^{1-2n} - 1) / (2n(2n-1)) B_{2n} z^{1-2n}
    G(z) = sum_{n>=1} B_{2n} / (2n(2n-1)) z^{1-2n}

are Borel summable precisely when z is not purely imaginary, and the sums
taken on either side of the imaginary axis have Gamma-function closed
forms (principal branches throughout, arg z in (-pi, pi]; on the cut
Re z < 0, Im z = 0 the sums use arg z = +pi whatever the sign of the zero
imaginary part, and ``BorelSumValue.argument`` reports that normalised z):

    S-[F](z) =  log Gamma( z + 1/2) - (1/2) log 2 pi - z (log z - 1)
    S+[F](z) = -log Gamma(-z + 1/2) + (1/2) log 2 pi - z (log z - 1) + pi i z
    S-[G](z) =  log Gamma( z)       - (1/2) log 2 pi - z (log z - 1) + (1/2) log z
    S+[G](z) = -log Gamma(-z)       + (1/2) log 2 pi - z (log z - 1)
                                                     - (1/2) log z + pi i (z + 1/2)

The minus side is the natural one for Re z > 0 (S-[G] is Binet's first
log-Gamma formula), the plus side for Re z < 0.  The sums are evaluated
through Binet's function J(w) = log Gamma(w) - (w - 1/2) log w + w -
(1/2) log 2 pi (``numerics.binet``), whose asymptotic series is G itself:

    S-[G](z) = J(z)
    S-[F](z) = J(z + 1/2) + z log1p(1/(2z)) - 1/2
    S+[K](z) = -S-[K](-z) + 2 pi i m (z + 1/2 for G, z for F)

with m = 1 where arg(-z) > arg z and 0 otherwise.  On the real axis both
plus sides are the limits from Im z > 0, the lip of the normalised +0
imaginary part: S+[F](x) and S+[G](x) at real x > 0 are the values just
above the axis, and the lips of their Gamma factors at -x follow.  So no
terms of size |z log z| are added to leave a sum of size 1/(12 z), and
the sums keep their relative accuracy at large |z|.  Crossing the
imaginary axis produces the exponentiated jumps

    exp(S+[F] - S-[F]) = 1 + e^{2 pi i z}
    exp(S+[G] - S-[G]) = 1 - e^{2 pi i z}

which feed the connection multipliers attached to the degeneration walls:
the Stokes multiplier of a formal solution changes by one of these
factors (evaluated at the jumping parameter combination) when the
parameters cross a wall, with the active factor depending on where the
independent variable sits relative to the degenerate curve.

An independent Laplace-integral oracle evaluates the same sums directly,

    S-[K](z) = int_0^infty e^{-z y} k_K(y) dy,       Re z > 0,
    k_G(y) = (1/(e^y - 1) - 1/y + 1/2) / y,
    k_F(y) = (1/(2 sinh(y/2)) - 1/y) / y = (1/2) k_G(y/2) - k_G(y),

along the ray arg y = -theta, theta = sign(arg z) max(0, |arg z| - pi/4),
which is the real axis for |Im z| <= Re z and keeps |Im(z y)| <= Re(z y)
beyond it (the poles of both kernels, y = 2 pi i k with k != 0, lie on the
imaginary axis, so the ray may turn).  One graded grid in |y| serves every
z: eight equal Gauss-Legendre panels out to 10 min(1, 1/x), x =
Re(z e^{-i theta}), then panels growing by 1.6 out to 60/x.  All panels
but the last are scaled from one cached unit template.  Each node costs
one kernel evaluation: the even Taylor series, summed by Horner's rule in
y^2, where |y| < 1, and elsewhere the kernel's closed form in expm1(-y)
and e^{-y} (e^{-y/2} for k_F), which cannot overflow on Re y > 0.  The
oracle runs only after passing a mandatory exact-rational gate: the Taylor
coefficients of the kernels at y = 0, computed by power-series inversion
of (e^y - 1)/y in Fractions (no Bernoulli numbers), must reproduce the
series coefficients F_n/(2n-2)! and G_n/(2n-2)! exactly, for every term
the series sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Parameters
from .numerics import _atanh_excess, _read_only, binet
from .voros import f_coefficient, g_coefficient
from .walls import WALL_TABLE, on_imaginary_axis

__all__ = [
    "GammaPoleError",
    "KernelGateError",
    "UnsupportedCaseError",
    "BorelSumValue",
    "ConnectionMultiplier",
    "borel_sum_F",
    "borel_sum_G",
    "jump_factor",
    "laplace_oracle",
    "connection_multiplier",
]


class GammaPoleError(ValueError):
    """The requested lateral sum sits on a pole of its Gamma factor."""


class KernelGateError(RuntimeError):
    """The Laplace kernels failed their exact-rational coefficient gate."""


class UnsupportedCaseError(RuntimeError):
    """A wall/position combination with no known connection multiplier."""


# ---------------------------------------------------------------------------
# Lateral sums in closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BorelSumValue:
    """One lateral Borel sum.

    ``value`` is ``None`` exactly when ``summable`` is false, i.e. when the
    argument z = c eta is purely imaginary (``walls.on_imaginary_axis``)
    and no lateral sum is defined.
    """

    value: complex | None
    side: str            # "plus" | "minus"
    summable: bool
    kind: str            # "F" | "G"
    argument: complex    # z = c eta


def _argument(c: complex, eta: complex) -> complex:
    """z = c eta, refused with ``ValueError`` unless finite."""
    z = complex(c) * complex(eta)
    if not cmath.isfinite(z):
        raise ValueError(f"c eta must be finite, got c = {c!r}, eta = {eta!r}")
    return z


def _gamma_term(w: complex) -> complex:
    """Binet's J(w) = log Gamma(w) - (w - 1/2) log w + w - (1/2) log 2 pi
    (:func:`numerics.binet`), raising :class:`GammaPoleError` at a pole of
    Gamma (w = 0, -1, -2, ...).  Next to a pole J is large but finite and
    accurate.  J is log Gamma less its Stirling part, so the closed forms
    built on it add no terms of size |w log w|."""
    try:
        return binet(w)
    except ValueError as exc:
        raise GammaPoleError(f"log Gamma pole at w = {w}") from exc


def _minus_sum(kind: str, z: complex) -> complex:
    """S-[G](z) = J(z), and S-[F](z) = J(z + 1/2) + z log1p(1/(2z)) - 1/2.

    For F, with t = 1/(4z + 1), z log1p(1/(2z)) - 1/2 is
    ((atanh(t)/t - 1) - atanh(t))/2, which is free of cancellation where
    |t| < 1/2; nearer the origin the two logs are taken apart.  The shift
    z + 1/2 keeps the sign of a zero imaginary part (adding a float would
    make it +0), so J(z + 1/2), log(z + 1/2) and log z take one lip."""
    if kind == "G":
        return _gamma_term(z)
    shifted = complex(z.real + 0.5, z.imag)
    a = 4.0 * z + 1.0
    if abs(a) > 2.0:
        t = 1.0 / a
        excess = _atanh_excess(t)
        rest = 0.5 * (excess - t * (1.0 + excess))
    else:
        rest = z * (cmath.log(shifted) - cmath.log(z)) - 0.5
    return _gamma_term(shifted) + rest


def _lateral_sum(kind: str, z: complex, side: str) -> complex:
    if side == "minus":
        return _minus_sum(kind, z)
    # S+[K](z) = -S-[K](u) + 2 pi i m (z + 1/2 for G), u = -z: the Gamma
    # factor of S+ is Gamma(u) for G and Gamma(u + 1/2) for F, and
    # log u - log z + pi i = 2 pi i m.  On the real axis z carries +0, so
    # u = -z carries -0 and both kinds take the limit from Im z > 0.  The
    # arguments come from atan2, which unlike cmath.phase does not raise
    # when a subnormal imaginary part makes the angle underflow.
    u = -z
    m = math.atan2(u.imag, u.real) > math.atan2(z.imag, z.real)
    return -_minus_sum(kind, u) + 2j * math.pi * m * (z + 0.5 if kind == "G" else z)


def _borel_sum(kind: str, c: complex, eta: complex, side: str) -> BorelSumValue:
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    z = _argument(c, eta)
    # A -0.0 imaginary part becomes +0.0: J(z) and log z honour the zero's
    # sign but the shifted argument z + 1/2 drops it, so without this the
    # terms of one sum would sit on opposite lips of the cut.
    z = complex(z.real, z.imag + 0.0)
    if on_imaginary_axis(z):
        return BorelSumValue(None, side, False, kind, z)
    return BorelSumValue(_lateral_sum(kind, z, side), side, True, kind, z)


def borel_sum_F(c: complex, eta: complex, side: str = "minus") -> BorelSumValue:
    """Lateral Borel sum of F(c eta) on the requested side of Re(c eta) = 0."""
    return _borel_sum("F", c, eta, side)


def borel_sum_G(c: complex, eta: complex, side: str = "minus") -> BorelSumValue:
    """Lateral Borel sum of G(c eta) on the requested side of Re(c eta) = 0."""
    return _borel_sum("G", c, eta, side)


def jump_factor(kind: str, c: complex, eta: complex) -> complex:
    """Predicted ratio exp(S+ - S-) for the exponentiated series.

    Equals 1 + e^{2 pi i c eta} for F and 1 - e^{2 pi i c eta} for G.
    """
    if kind not in ("F", "G"):
        raise ValueError(f"kind must be 'F' or 'G', got {kind!r}")
    e = cmath.exp(2j * math.pi * _argument(c, eta))
    return 1.0 + e if kind == "F" else 1.0 - e


# ---------------------------------------------------------------------------
# Laplace-integral oracle
# ---------------------------------------------------------------------------

_SERIES_RADIUS = 1.0        # |y| below which the kernels are summed as Taylor series
_KERNEL_TERMS = 12          # even Taylor terms summed there; the gate checks each
_KERNEL_CACHE: dict[str, np.ndarray] | None = None
_UNIT_GRID: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _kernel_table(n_terms: int) -> list[Fraction]:
    """Taylor coefficients of k_G at y = 0, in exact rationals.

    Computed by power-series inversion of (e^y - 1)/y = sum y^k/(k+1)!,
    deliberately avoiding the Bernoulli-number route used by the series
    coefficients so the gate compares two independent derivations.
    """
    order = n_terms + 2
    expy = [Fraction(1, math.factorial(k + 1)) for k in range(order)]
    inv = [Fraction(1)]
    for k in range(1, order):
        inv.append(-sum(expy[j] * inv[k - j] for j in range(1, k + 1)))
    # 1/(e^y-1) - 1/y + 1/2 = sum_{k>=2} inv[k] y^{k-1}, so dividing by y
    # makes inv[m+2] the coefficient of y^m in k_G.
    if inv[1] != Fraction(-1, 2):
        raise KernelGateError("series inversion lost the -1/2 constant term")
    return inv[2:order]


def _f_factor(m: int) -> Fraction:
    """k_F's coefficient of y^m over k_G's: (1/2) k_G(y/2) - k_G(y) scales
    y^m by 2^{-m-1} - 1."""
    return Fraction(1, 2 ** (m + 1)) - 1


def _validate_kernels(f_coeff=f_coefficient, g_coeff=g_coefficient,
                      n_max: int = _KERNEL_TERMS) -> list[Fraction]:
    """Exact-rational gate tying both kernels to the series coefficients.

    The coefficient of y^{2n-2} in k_G must equal G_n/(2n-2)!; in k_F it
    is k_G's times 2^{1-2n} - 1, which must equal F_n/(2n-2)!.  Odd
    coefficients must vanish.  Any mismatch aborts the oracle.  The default
    ``n_max`` covers every coefficient the small-|y| series sums.
    """
    table = _kernel_table(2 * n_max)
    for n in range(1, n_max + 1):
        m = 2 * n - 2
        fact = Fraction(math.factorial(m))
        if table[m] != g_coeff(n) / fact:
            raise KernelGateError(
                f"k_G coefficient of y^{m} disagrees with G_{n}/({m})!")
        if table[m] * _f_factor(m) != f_coeff(n) / fact:
            raise KernelGateError(
                f"k_F coefficient of y^{m} disagrees with F_{n}/({m})!")
        if table[m + 1] != 0:
            raise KernelGateError(f"odd kernel coefficient of y^{m + 1} nonzero")
    return table


def _kernel_series(kind: str) -> np.ndarray:
    """Float coefficients of y^0, y^2, ..., y^22 in k_F or k_G, validated
    once per process.  The arrays are shared by every caller, so they are
    read-only."""
    global _KERNEL_CACHE
    if _KERNEL_CACHE is None:
        even = _validate_kernels()[::2]
        g = np.array([float(a) for a in even])
        f = np.array([float(a * _f_factor(2 * j)) for j, a in enumerate(even)])
        _KERNEL_CACHE = dict(zip("GF", _read_only(g, f)))
    return _KERNEL_CACHE[kind]


def _kernel_values(kind: str, y: np.ndarray) -> np.ndarray:
    """k_F or k_G at the points ``y`` (any shape), one pass per node.

    Where |y| < 1 the even Taylor series is summed by Horner's rule in
    y^2; it converges for |y| < 2 pi, and its first omitted term is below
    1e-19 relative.  Elsewhere, with m = -y taken on Re m <= 0 through the
    kernels' evenness,

        k_G = (e^m / expm1(m) - 1/m - 1/2) / m,
        k_F = (e^{m/2} / expm1(m) - 1/m) / m,

    where neither exponential can overflow.  The second is the closed form
    (1/(2 sinh(y/2)) - 1/y)/y of (1/2) k_G(y/2) - k_G(y).  The closed forms
    lose up to about 24 eps/|y|^2 of relative accuracy to cancellation, so
    the series is taken out to |y| = 1, where the two forms agree to 1e-14;
    at |y| = 0.1 they would differ by up to 5e-13.
    """
    out = np.empty_like(y)
    small = np.abs(y) < _SERIES_RADIUS
    if small.any():
        w = y[small] ** 2
        series = _kernel_series(kind)
        acc = series[-1] * w
        for a in series[-2:0:-1]:
            acc += a
            acc *= w
        out[small] = acc + series[0]
    m = y[~small]
    m = np.where(m.real > 0.0, -m, m)
    if kind == "F":
        out[~small] = (np.exp(0.5 * m) / np.expm1(m) - 1.0 / m) / m
    else:
        out[~small] = (np.exp(m) / np.expm1(m) - 1.0 / m - 0.5) / m
    return out


def _unit_grid(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``panels`` panels of the oracle's grid in units of
    rho_split: their right edges, and their 32 Gauss-Legendre nodes and
    weights each, flat and panel by panel.

    The panels are the eight equal ones on [0, 1], then [1.6^{k-1}, 1.6^k]
    for k = 1, 2, ...; every grid is a prefix of this sequence plus one
    partial panel, so one read-only template serves every x.  It is
    rebuilt, longer, when a grid needs more panels than it holds; the
    edges 1.6^k do not depend on its length.
    """
    global _UNIT_GRID
    if _UNIT_GRID is None or _UNIT_GRID[0].size < panels:
        edges = np.concatenate((np.linspace(0.0, 1.0, 9), 1.6 ** np.arange(1, panels - 7)))
        half = 0.5 * np.diff(edges)
        nodes = (edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES
        _UNIT_GRID = _read_only(edges[1:], nodes.ravel(), (half[:, None] * _GL_WEIGHTS).ravel())
    right, nodes, weights = _UNIT_GRID
    return right[:panels], nodes[:32 * panels], weights[:32 * panels]


def _ray_grid(rho_split: float, rho_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights in rho of the oracle's grid on [0, rho_max]: eight
    equal panels out to rho_split, then panels growing by 1.6 while their
    right edge rho_split 1.6^k stays below rho_max, then one last panel
    out to rho_max.  All panels but the last are read off ``_unit_grid``."""
    panels = 7 + math.ceil(math.log(rho_max / rho_split, 1.6))
    right, nodes, weights = _unit_grid(panels)
    while rho_split * right[panels - 1] >= rho_max:
        panels -= 1
    lo = rho_split * right[panels - 1]
    half = 0.5 * (rho_max - lo)
    n = 32 * panels
    return (np.concatenate((rho_split * nodes[:n], (lo + half) + half * _GL_NODES)),
            np.concatenate((rho_split * weights[:n], half * _GL_WEIGHTS)))


def laplace_oracle(kind: str, c: complex, eta: complex) -> complex:
    """Evaluate the minus-side sum by direct Laplace quadrature.

    Requires Re(c eta) > 0.  The kernels' poles lie on the imaginary axis
    (y = 2 pi i k, k != 0: the zeros of e^y - 1 for k_G and of sinh(y/2)
    for k_F), so by Cauchy's theorem the integral may run along the ray
    y = rho e^{-i theta} with

        theta = sign(arg z) max(0, |arg z| - pi/4),

    the real axis where |Im z| <= Re z and otherwise the ray on which
    |Im(z y)| = Re(z y).  Re(z e^{-i psi}) stays positive for psi between 0
    and theta, and pole k lies 2 pi |k| cos(theta) >= 4.4 |k| from the ray.
    With x = Re(z e^{-i theta}), the integrand is sampled on 32-point
    Gauss-Legendre panels in rho: eight equal panels on [0, 10 min(1, 1/x)],
    resolving both the kernel's unit scale and the exponential's 1/x, then
    panels growing by a factor 1.6 out to rho = 60/x, where the dropped tail
    is below e^{-60} (1/(2 rho) + 1/rho^2)/x.  That is 12 panels for x >= 1,
    42 at x = 1e-6 and about 1,500 at the smallest x the float range
    admits, so the grid's size is bounded without a cap.  All panels but
    the last, partial one are read off one cached unit template
    (``_unit_grid``), in units of 10 min(1, 1/x).  Each node then costs one
    pass of ``_kernel_values`` and one exponential e^{-z y}.  Since |theta|
    < pi/4, Re y > 0 on every ray taken, so the kernels' evenness fold
    serves only direct calls of ``_kernel_values``.

    Raises ``ValueError`` for an unknown kind, a non-finite z, Re z <= 0, z
    on the imaginary axis (``walls.on_imaginary_axis``: the sums' walls), or
    a ray end 60/x beyond the float range.
    """
    if kind not in ("F", "G"):
        raise ValueError(f"kind must be 'F' or 'G', got {kind!r}")
    z = _argument(c, eta)
    if z.real <= 0.0 or on_imaginary_axis(z):
        raise ValueError(f"Laplace oracle needs Re(c eta) > 0 off the imaginary axis, got z = {z}")
    arg = math.atan2(z.imag, z.real)
    theta = math.copysign(max(0.0, abs(arg) - math.pi / 4), arg)
    ray = cmath.exp(-1j * theta) if theta else 1.0     # real nodes on the real axis
    x = (z * ray).real
    rho_split, rho_max = 10.0 * min(1.0, 1.0 / x), 60.0 / x
    if not math.isfinite(rho_max):
        raise ValueError(f"Laplace oracle at z = {z}: the ray end 60/Re(z e^(-i theta)) "
                         "overflows a float")
    rho, weights = _ray_grid(rho_split, rho_max)
    ys = ray * rho
    integrand = _kernel_values(kind, ys) * np.exp(-z * ys)
    return complex(ray * (weights * integrand).sum())


# ---------------------------------------------------------------------------
# Connection multipliers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionMultiplier:
    """Factor relating a Stokes multiplier across a degeneration wall."""

    wall: str
    position: str
    expression: str
    value: complex


_WALLS = set(WALL_TABLE)
#: walls whose degeneration is a loop (argument of a G series imaginary).
_LOOP_WALLS = {w for w, (vanishing, *_) in WALL_TABLE.items() if vanishing in ("c_inf", "c_0")}
_POSITIONS = {
    "t0", "t1", "outside-triangle", "inside-triangle",
    "outside-loop", "inside-loop",
}


def connection_multiplier(wall: str, position: str, p: Parameters,
                          eta: complex, *, sign: int = 1) -> ConnectionMultiplier:
    """Multiplier picked up by a Stokes multiplier across ``wall``.

    ``position`` locates the independent variable relative to the
    degenerate curve.  On the triangle wall W2 the two distinguished base
    points are ``"t0"`` (inside the triangle, nontrivial factor) and
    ``"t1"`` (outside, trivial).  On W4 the nontrivial factor appears
    outside the triangle and carries an exponent ``sign`` in {+1, -1}
    reflecting the choice of square-root branch of the discriminant.  On
    the loop wall W3 the region outside the loop is trivial; inside the
    loop infinitely many curves spiral into the double pole and no
    multiplier is known -- that case raises :class:`UnsupportedCaseError`,
    as does every combination not listed.
    """
    if wall not in _WALLS:
        raise ValueError(f"unknown wall label {wall!r}")
    if position not in _POSITIONS:
        raise ValueError(f"unknown position {position!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")

    key = (wall, position)
    if key == ("W2", "t0"):
        value = 1.0 + cmath.exp(1j * math.pi * (p.c_inf - p.c_0) * eta)
        expr = "1 + exp(pi*i*(c_inf - c_0)*eta)"
    elif key == ("W2", "t1"):
        value, expr = 1.0 + 0.0j, "1"
    elif key == ("W4", "outside-triangle"):
        base = 1.0 + cmath.exp(1j * math.pi * (p.c_inf + p.c_0) * eta)
        value = base if sign > 0 else 1.0 / base
        expr = f"(1 + exp(pi*i*(c_inf + c_0)*eta))**({sign:+d})"
    elif key == ("W4", "inside-triangle"):
        value, expr = 1.0 + 0.0j, "1"
    elif key == ("W3", "outside-loop"):
        value, expr = 1.0 + 0.0j, "1"
    elif wall in _LOOP_WALLS and position == "inside-loop":
        raise UnsupportedCaseError(
            f"{wall} at position 'inside-loop': infinitely many curves spiral "
            "into the enclosed double pole and no connection multiplier is "
            "available")
    else:
        raise UnsupportedCaseError(
            f"no connection multiplier is available for wall {wall} at "
            f"position {position!r}")
    return ConnectionMultiplier(wall, position, expr, complex(value))
