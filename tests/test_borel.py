"""Lateral Borel sums: Gamma closed forms against the Laplace oracle,
jump factors across the non-summable axis, summability flags, and the
wall-crossing connection multipliers."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from p3wkb import borel
from p3wkb.algebra import Parameters
from p3wkb.borel import (
    BorelSumValue,
    GammaPoleError,
    KernelGateError,
    UnsupportedCaseError,
    _kernel_series,
    _kernel_values,
    _validate_kernels,
    borel_sum_F,
    borel_sum_G,
    connection_multiplier,
    jump_factor,
    laplace_oracle,
)
from p3wkb.voros import f_coefficient, g_coefficient

from test_walls import _summable

ORACLE_POINTS = [3.0, 7 + 2j, 2.5, 4 + 1j, 6 - 3j]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_frozen_reference_values():
    expected = {
        ("G", 3.0): 0.027677925684996496 + 0j,
        ("G", 7 + 2j): 0.011001463945161993 - 0.0031393555266375217j,
        ("F", 3.0): -0.013801796861929061 + 0j,
        ("F", 7 + 2j): -0.005498923132653211 + 0.0015676943241005326j,
    }
    for (kind, c), want in expected.items():
        fn = borel_sum_G if kind == "G" else borel_sum_F
        got = fn(c, 1.0).value
        assert abs(got - want) < 1e-12 * abs(want)


def test_leading_asymptotics():
    # G(z) ~ 1/(12 z), F(z) ~ -1/(24 z) for large z.
    z = 300.0
    assert abs(borel_sum_G(z, 1.0).value - 1 / (12 * z)) < 1e-6 / z
    assert abs(borel_sum_F(z, 1.0).value + 1 / (24 * z)) < 1e-6 / z


def test_result_fields():
    v = borel_sum_F(2 + 1j, 2.0, "plus")
    assert isinstance(v, BorelSumValue)
    assert v.kind == "F" and v.side == "plus" and v.summable
    assert v.argument == (2 + 1j) * 2.0
    with pytest.raises(ValueError):
        borel_sum_F(2.0, 1.0, "upper")


def test_eta_enters_only_through_product():
    a = borel_sum_G(3 + 1j, 2.0).value
    b = borel_sum_G((3 + 1j) * 2, 1.0).value
    assert abs(a - b) < 1e-14


def test_not_summable_on_imaginary_axis():
    for kind_fn in (borel_sum_F, borel_sum_G):
        for side in ("plus", "minus"):
            v = kind_fn(2j, 1.5, side)
            assert not v.summable
            assert v.value is None
            assert v.argument == 3j
    # just off the axis both sides are defined
    assert borel_sum_G(1e-6 + 2j, 1.0, "minus").summable
    assert borel_sum_G(-1e-6 + 2j, 1.0, "plus").summable


def test_gamma_pole_errors():
    with pytest.raises(GammaPoleError):
        borel_sum_G(-3.0, 1.0, "minus")
    with pytest.raises(GammaPoleError):
        borel_sum_G(2.0, 1.0, "plus")
    with pytest.raises(GammaPoleError):
        borel_sum_F(-2.5, 1.0, "minus")
    with pytest.raises(GammaPoleError):
        borel_sum_F(1.5, 1.0, "plus")
    # same abscissas on the pole-free side are fine
    assert borel_sum_G(-3.0 , 1.0, "plus").summable
    assert borel_sum_F(1.5, 1.0, "minus").summable


@pytest.mark.parametrize("z", [3e-13, -1 + 1e-13j])
def test_gamma_term_next_to_a_pole(z):
    # log Gamma is finite a hair away from a pole: the minus-side sum of G
    # there is a number, and it matches the closed form in mpmath.
    zm = mp.mpc(z)
    with mp.workdps(30):
        want = (mp.loggamma(zm) - mp.log(2 * mp.pi) / 2 - zm * (mp.log(zm) - 1)
                + mp.log(zm) / 2)
    got = borel_sum_G(z, 1.0, "minus")
    assert got.summable
    assert abs(got.value - complex(want)) < 1e-12 * abs(complex(want))


def _closed_form_mp(kind, z, side):
    """The Gamma closed forms of the module docstring in 30-digit mpmath,
    for z off the real axis (the minus sides also for real z > 0)."""
    with mp.workdps(30):
        z = mp.mpc(z)
        half_log_2pi, base = mp.log(2 * mp.pi) / 2, -z * (mp.log(z) - 1)
        if kind == "F" and side == "minus":
            value = mp.loggamma(z + 0.5) - half_log_2pi + base
        elif kind == "F":
            value = -mp.loggamma(-z + 0.5) + half_log_2pi + base + 1j * mp.pi * z
        elif side == "minus":
            value = mp.loggamma(z) - half_log_2pi + base + mp.log(z) / 2
        else:
            value = (-mp.loggamma(-z) + half_log_2pi + base - mp.log(z) / 2
                     + 1j * mp.pi * (z + 0.5))
        return complex(value)


@pytest.mark.parametrize("side", ["minus", "plus"])
@pytest.mark.parametrize("z", [4.454 - 363.37j, 2.305 - 215.64j])
def test_closed_forms_at_large_imaginary_z(z, side):
    # Here log Gamma and z (log z - 1) are each near 2000 in size while the
    # sums are near 1e-4: the closed forms must not lose digits to that.
    for kind, fn in (("F", borel_sum_F), ("G", borel_sum_G)):
        want = _closed_form_mp(kind, z, side)
        got = fn(z, 1.0, side).value
        assert abs(got - want) < 1e-14 * max(1.0, abs(want)), kind


# ---------------------------------------------------------------------------
# Optimal truncation of the asymptotic series (high-precision oracle)
# ---------------------------------------------------------------------------

def _g_partial_mp(z, n_terms):
    total = mp.mpf(0)
    for n in range(1, n_terms + 1):
        g = g_coefficient(n)
        total += mp.mpf(g.numerator) / mp.mpf(g.denominator) * z ** (1 - 2 * n)
    return total


@pytest.mark.parametrize("z,checks", [
    (10, (3, 10, 31)),
    (20, (3, 10, 25)),
    (40, (3, 10, 20)),
])
def test_truncation_error_below_first_omitted_term(z, checks):
    with mp.workdps(90):
        zm = mp.mpf(z)
        exact = (mp.loggamma(zm) - mp.mpf(0.5) * mp.log(2 * mp.pi)
                 - zm * (mp.log(zm) - 1) + mp.mpf(0.5) * mp.log(zm))
        # ties the high-precision route to the module's float route
        assert abs(float(exact) - borel_sum_G(z, 1.0).value.real) < 1e-13
        for n_terms in checks:
            remainder = abs(exact - _g_partial_mp(zm, n_terms))
            g = g_coefficient(n_terms + 1)
            omitted = abs(mp.mpf(g.numerator) / mp.mpf(g.denominator)
                          * zm ** (1 - 2 * (n_terms + 1)))
            assert remainder < omitted


# ---------------------------------------------------------------------------
# Jump factors and branch continuity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [1.0, 2.2])
@pytest.mark.parametrize("c", [0.1 + 1.3j, -0.1 + 1.3j, 0.05 + 2.2j,
                               0.3 + 1.1j, -0.2 + 1.7j])
def test_exponentiated_jump_ratios(c, eta):
    for kind, fn in (("F", borel_sum_F), ("G", borel_sum_G)):
        plus = fn(c, eta, "plus").value
        minus = fn(c, eta, "minus").value
        ratio = cmath.exp(plus - minus)
        predicted = jump_factor(kind, c, eta)
        assert abs(ratio - predicted) < 1e-10 * abs(predicted)


def test_jump_factor_validates_kind():
    with pytest.raises(ValueError):
        jump_factor("H", 1.0, 1.0)


def test_reflection_branch_continuity():
    # S+[F] - S-[F] - log(1 + e^{2 pi i z}) is 2 pi i times an integer
    # that stays constant along an arc crossing arg c = pi/2.
    rho, eta = 2.3, 1.0
    ks = []
    for j in range(40):
        # midpoints, so the purely-imaginary axis itself is never sampled
        theta = math.pi / 2 - 0.3 + 0.6 * (j + 0.5) / 40
        c = rho * cmath.exp(1j * theta)
        diff = (borel_sum_F(c, eta, "plus").value
                - borel_sum_F(c, eta, "minus").value)
        k = (diff - cmath.log(jump_factor("F", c, eta))) / (2j * math.pi)
        assert abs(k.imag) < 1e-10
        assert abs(k.real - round(k.real)) < 1e-10
        ks.append(round(k.real))
    assert len(set(ks)) == 1


def test_duplication_of_closed_forms():
    for c in (2.0, 1.5 + 0.7j, 3 - 1j, 0.8 + 0.2j):
        for eta in (1.0, 1.3):
            lhs = borel_sum_F(c, eta).value
            rhs = borel_sum_G(2 * c, eta).value - borel_sum_G(c, eta).value
            assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("fn", [borel_sum_F, borel_sum_G], ids=["F", "G"])
@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("z", [complex(2.23, 5e-324), complex(2.23, -5e-324),
                               complex(-2.23, 5e-324), complex(-2.23, -5e-324)])
def test_subnormal_imaginary_part_is_the_limit_from_its_half_plane(z, side, fn):
    # The argument of z underflows; the sum must still be the one just
    # off the axis on the side of the subnormal imaginary part.
    near = complex(z.real, math.copysign(1e-300, z.imag))
    assert abs(fn(z, 1.0, side).value - fn(near, 1.0, side).value) < 1e-12


@pytest.mark.parametrize("x", [0.7, 2.3, 5.2])
def test_plus_sides_on_the_positive_axis_are_the_upper_lip(x):
    # Both kinds take the limit from Im z > 0 (the lip of the normalised
    # +0 imaginary part); the lower lip is 2 pi i n away.
    for fn in (borel_sum_F, borel_sum_G):
        on = fn(x, 1.0, "plus").value
        assert abs(on - fn(complex(x, 1e-12), 1.0, "plus").value) < 1e-9
        assert abs(on - fn(complex(x, -1e-12), 1.0, "plus").value) > 1.0
    # so the plus sides obey the duplication identity on the axis too
    rhs = borel_sum_G(2 * x, 1.0, "plus").value - borel_sum_G(x, 1.0, "plus").value
    assert abs(borel_sum_F(x, 1.0, "plus").value - rhs) < 1e-9


@given(st.complex_numbers(min_magnitude=0.7, max_magnitude=6,
                          allow_infinity=False, allow_nan=False))
@settings(max_examples=60, deadline=None)
@example(complex(-1.75, -0.0))   # signed zero on the cut of log z
@example(complex(2, 5e-324))     # the argument of a subnormal Im z underflows
def test_identities_on_random_arguments(c):
    if abs(c.real) < 0.3:
        c += 0.5 if c.real >= 0 else -0.5
    if abs(c.imag) < 1e-9 and abs(2 * c.real - round(2 * c.real)) < 1e-6:
        # real arguments on the half-integer lattice hit log-Gamma poles of
        # the lateral closed forms (including through the 2c argument)
        c += 0.23
    lhs = borel_sum_F(c, 1.0).value
    rhs = borel_sum_G(2 * c, 1.0).value - borel_sum_G(c, 1.0).value
    assert abs(lhs - rhs) < 1e-9
    plus = borel_sum_F(c, 1.0, "plus").value
    ratio = cmath.exp(plus - lhs)
    assert abs(ratio - jump_factor("F", c, 1.0)) < 1e-9 * (
        1 + abs(jump_factor("F", c, 1.0)))


# ---------------------------------------------------------------------------
# Laplace oracle
# ---------------------------------------------------------------------------

def test_kernel_gate_passes_and_matches_series():
    table = _validate_kernels()
    assert table[0] == Fraction(1, 12)            # G_1 / 0!
    assert table[1] == 0
    assert table[2] == Fraction(-1, 720)          # G_2 / 2!
    for n in range(1, 9):
        m = 2 * n - 2
        assert table[m] == g_coefficient(n) / Fraction(math.factorial(m))


def test_kernel_series_are_the_gated_coefficients():
    # Every coefficient the small-|y| series sums is one the gate checks:
    # G_n/(2n-2)! for k_G and F_n/(2n-2)! for k_F, rounded once, and the
    # gate refuses a change to the last of them.
    last = _kernel_series("G").size
    for kind, coeff in (("G", g_coefficient), ("F", f_coefficient)):
        want = [float(coeff(n) / math.factorial(2 * n - 2)) for n in range(1, last + 1)]
        assert _kernel_series(kind).tolist() == want
    with pytest.raises(KernelGateError, match=f"y\\^{2 * last - 2} "):
        _validate_kernels(g_coeff=lambda n: g_coefficient(n) * (1 + Fraction(n == last, 10 ** 30)))


def test_kernel_gate_detects_corruption():
    with pytest.raises(KernelGateError):
        _validate_kernels(g_coeff=lambda n: g_coefficient(n) + Fraction(1, 10 ** 9))
    with pytest.raises(KernelGateError):
        _validate_kernels(f_coeff=lambda n: -f_coefficient(n))


def test_kernel_branch_is_chosen_by_modulus():
    # Complex y with Re y < 0.1 but |y| far beyond the series radius 2 pi
    # must take the direct formula; small |y| keeps the series.
    y = np.array([0.05 + 20j, -0.3 + 9j, 0.02 + 0.03j])
    got = _kernel_values("G", y)
    direct = (1.0 / np.expm1(y) - 1.0 / y + 0.5) / y
    assert np.all(np.abs(got - direct) < 1e-12 * np.abs(direct))


EPS = np.finfo(float).eps


def _kernel_mp(kind, y):
    """k_F or k_G at complex y in 40-digit mpmath, from their definitions."""
    with mp.workdps(40):
        y = mp.mpc(y)
        if kind == "G":
            return complex((1 / mp.expm1(y) - 1 / y + mp.mpf(1) / 2) / y)
        return complex((1 / (2 * mp.sinh(y / 2)) - 1 / y) / y)


def _kernel_points(seed, n):
    # |y| log-uniform on [1e-2, 1e3], |arg y| <= pi/4 as on the oracle's
    # rays, plus points with Re y < 0, where the kernels' evenness serves.
    rng = np.random.default_rng(seed)
    y = 10 ** rng.uniform(-2, 3, n) * np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4, n))
    return np.concatenate((y, [-0.3 + 0.2j, -5 + 1j, -40 - 30j, -2.0, -0.7 - 0.05j, -0.05 + 0.5j]))


@pytest.mark.parametrize("kind", ["F", "G"])
def test_kernels_match_mpmath(kind):
    # The series is good to rounding where |y| < 1; the closed forms lose
    # up to ~24 eps/|y|^2 to cancellation beyond it.
    y = _kernel_points(5, 300)
    want = np.array([_kernel_mp(kind, v) for v in y])
    err = np.abs(_kernel_values(kind, y) - want) / np.abs(want)
    r = np.abs(y)
    assert np.all(err < np.where(r < 1.0, 4 * EPS, 32 * EPS * (1 + r ** -2.0)))


def test_closed_form_k_f_matches_the_two_pass_reference():
    # k_F = (1/(2 sinh(y/2)) - 1/y)/y against its definition (1/2) k_G(y/2)
    # - k_G(y), evaluated in two passes.  The reference itself loses eps |y|
    # where its two 1/(2y) terms cancel, and both lose eps/|y|^2 near the
    # series switch.
    y = _kernel_points(7, 2000)
    y = y[np.abs(y) >= 0.1]
    reference = 0.5 * _kernel_values("G", 0.5 * y) - _kernel_values("G", y)
    err = np.abs(_kernel_values("F", y) - reference) / np.abs(reference)
    r = np.abs(y)
    assert np.all(err < 64 * EPS * (r + r ** -2.0))


@pytest.mark.parametrize("kind", ["F", "G"])
def test_series_and_closed_form_agree_at_the_switch(kind):
    # Just inside |y| = 1 the series is summed, just outside the closed
    # form: the series is good to rounding, the closed form to ~1e-14
    # (at |y| = 0.1 the closed form is off by up to 5e-13).
    unit = np.exp(1j * np.linspace(-np.pi / 4, np.pi / 4, 41))
    inside, outside = unit * (1 - 4 * EPS), unit * (1 + 4 * EPS)
    want = np.array([_kernel_mp(kind, v) for v in inside])
    series, closed = _kernel_values(kind, inside), _kernel_values(kind, outside)
    assert np.all(np.abs(series - want) < 4 * EPS * np.abs(want))
    assert np.all(np.abs(closed - series) < 64 * EPS * np.abs(series))


@pytest.mark.parametrize("kind,fn", [("G", borel_sum_G), ("F", borel_sum_F)])
@pytest.mark.parametrize("c", ORACLE_POINTS)
def test_laplace_oracle_matches_closed_form(kind, fn, c):
    closed = fn(c, 1.0).value
    direct = laplace_oracle(kind, c, 1.0)
    assert abs(direct - closed) < 1e-8 * max(1.0, abs(closed))


@pytest.mark.parametrize("kind,fn", [("G", borel_sum_G), ("F", borel_sum_F)])
@pytest.mark.parametrize("c", [0.05, 0.05 + 5j])
def test_laplace_oracle_at_small_real_part(kind, fn, c):
    # At z = 0.05 the real-axis grid reaches y = 1200, where e^y overflows a
    # float; the kernel must not (RuntimeWarnings from p3wkb.borel are
    # errors, pyproject.toml).  z = 0.05 + 5j is integrated on the tilted
    # ray arg y = -(arg z - pi/4), where Re(z y) = |Im(z y)|.
    closed = fn(c, 1.0).value
    direct = laplace_oracle(kind, c, 1.0)
    assert abs(direct - closed) < 1e-8 * max(1.0, abs(closed))


def test_kernel_series_is_read_only():
    for kind in ("F", "G"):
        with pytest.raises(ValueError):
            _kernel_series(kind)[0] = 0.0


@pytest.mark.parametrize("kind", ["F", "G"])
@pytest.mark.parametrize("z", [0.01, 1e-3, 1e-6, 1e-12, 1e-3 + 1e-3j, 1e-6 + 1e-5j,
                               1e-9 + 1j, 1e-6 + 1e3j])
def test_laplace_oracle_at_small_modulus_or_real_part(z, kind):
    # The first panels must resolve the kernel's unit scale, not only
    # 1/Re z, and on the tilted ray the grid does not grow with |Im z|/Re z.
    want = _closed_form_mp(kind, z, "minus")
    assert abs(laplace_oracle(kind, z, 1.0) - want) < 1e-14 * max(1.0, abs(want))


def test_ray_end_beyond_float_range_is_refused():
    # 60 / Re z overflows a float: refused before any grid is built.
    with pytest.raises(ValueError, match="float"):
        laplace_oracle("G", 1e-320, 1.0)


#: |Im z| / Re z bands of the borel_laplace benchmark workload.
RATIO_BANDS = ((0.0, 0.0), (0.0, 0.3), (0.3, 1.0), (1.0, 3.0),
               (3.0, 10.0), (10.0, 30.0), (30.0, 100.0))


def _reference_edges(z):
    # The panel rule edge by edge, as laplace_oracle once built it.
    x = z.real
    y_split, y_max = 10.0 / x, 60.0 / x
    n_lin = max(8, math.ceil(4.0 * (1.0 + abs(z.imag) / x)))
    edges = list(np.linspace(0.0, y_split, n_lin + 1))
    width_cap = 6.0 / abs(z.imag) if z.imag else math.inf
    while edges[-1] < y_max:
        edges.append(min(edges[-1] * 1.6, edges[-1] + width_cap, y_max))
    return np.array(edges)


def _reference_oracle(kind, z):
    # One panel at a time, as laplace_oracle once summed them.
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = _reference_edges(z)
    total = 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ys = 0.5 * (a + b) + half * nodes
        kv = _kernel_values(kind, ys)
        total += half * np.sum(weights * kv * np.exp(-z * ys))
    return complex(total)


@pytest.mark.parametrize("kind", ["F", "G"])
@pytest.mark.parametrize("x", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("band", RATIO_BANDS)
def test_block_quadrature_matches_per_panel_rule(band, x, kind):
    # The oracle's one graded grid, on the tilted ray where |Im z| > Re z,
    # against the old real-axis rule summed one panel at a time.
    z = complex(x, x * 0.5 * sum(band))
    want = _reference_oracle(kind, z)
    assert abs(laplace_oracle(kind, z, 1.0) - want) < 1e-14 * max(1.0, abs(want))


def _ray_ends(x):
    return 10.0 * min(1.0, 1.0 / x), 60.0 / x


def _per_call_grid(rho_split, rho_max):
    # The grid as laplace_oracle built it on every call before the unit
    # template: its edges, and its nodes and weights in rho panel by panel.
    grown = rho_split * 1.6 ** np.arange(1, math.ceil(math.log(rho_max / rho_split, 1.6)))
    edges = np.concatenate((np.linspace(0.0, rho_split, 9), grown[grown < rho_max], [rho_max]))
    half = 0.5 * np.diff(edges)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    return edges, (edges[:-1] + half)[:, None] + half[:, None] * nodes, half[:, None] * weights


#: x = 6/1.6^k puts the grown edge 10 * 1.6^k within an ulp of 60/x, so
#: the last bit decides whether that edge is kept.
BOUNDARY_X = [float(v) for k in (4, 7, 12, 30) for v in
              (np.nextafter(6 / 1.6 ** k, 0), 6 / 1.6 ** k, np.nextafter(6 / 1.6 ** k, 1))]
#: Ray ends at which log(rho_max/rho_split, 1.6) rounds up past 6 while
#: rho_split * 1.6^6 rounds to rho_max, so the filter grown < rho_max must
#: drop that edge.  No x tried near the edges 10 * 1.6^k gave such ends:
#: there the log bound alone leaves out every edge at or beyond rho_max.
FILTERED_ENDS = (0.23841857910156286, 4.000000000000008)


@pytest.mark.parametrize("ends", [_ray_ends(x) for x in
                                  [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 1.0, 2.5, 5.0] + BOUNDARY_X]
                         + [FILTERED_ENDS])
def test_unit_grid_gives_the_panels_of_the_per_call_rule(ends):
    edges, nodes, weights = _per_call_grid(*ends)
    rho, w = borel._ray_grid(*ends)
    assert rho.shape == w.shape == (nodes.size,)
    # Nodes within a few ulps of their panel's right edge, weights of their own size.
    assert np.all(np.abs(rho.reshape(nodes.shape) - nodes) <= 4 * EPS * edges[1:, None])
    assert np.all(np.abs(w.reshape(weights.shape) - weights) <= 4 * EPS * weights)


def test_boundary_ends_exercise_the_edge_filter():
    # Among BOUNDARY_X an edge within an ulp below rho_max is kept, and at
    # FILTERED_ENDS the filter drops the edge the log bound let in.
    last_two = [_per_call_grid(*_ray_ends(x))[0][-2:] for x in BOUNDARY_X]
    assert any(edge >= rho_max * (1 - EPS) for edge, rho_max in last_two)
    rho_split, rho_max = FILTERED_ENDS
    powers = 1.6 ** np.arange(7)
    assert rho_split * powers[6] >= rho_max > rho_split * powers[5]
    assert math.ceil(math.log(rho_max / rho_split, 1.6)) == 7
    assert len(_per_call_grid(*FILTERED_ENDS)[0]) == 8 + 5 + 2


def test_unit_grid_is_one_read_only_template(monkeypatch):
    monkeypatch.setattr(borel, "_UNIT_GRID", None)
    first = [a.copy() for a in borel._unit_grid(20)]
    for x in np.geomspace(1e-12, 5.0, 200):
        laplace_oracle("G", complex(x, 0.5 * x), 1.0)
    template = borel._UNIT_GRID
    # One template, as long as the largest grid served (x = 1e-12) needs.
    assert template[0].size == len(_per_call_grid(*_ray_ends(1e-12))[0]) - 2
    for a in template:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # A shorter grid is a view of that template, and rebuilding the
    # template longer left the first 20 panels bit for bit as they were.
    for a, b, before in zip(borel._unit_grid(20), template, first):
        assert np.shares_memory(a, b)
        assert np.array_equal(a, before)


def test_laplace_oracle_eta_scaling():
    a = laplace_oracle("G", 3.0, 1.0)
    b = laplace_oracle("G", 1.5, 2.0)
    assert abs(a - b) < 1e-12


NON_FINITE = [(math.nan, 1.0), (math.inf, 1.0), (complex(1.0, math.inf), 1.0),
              (1.0, math.nan), (1e200, 1e200)]


@pytest.mark.parametrize("c,eta", NON_FINITE)
def test_borel_sum_F_refuses_non_finite_argument(c, eta):
    with pytest.raises(ValueError, match="finite"):
        borel_sum_F(c, eta)


@pytest.mark.parametrize("c,eta", NON_FINITE)
def test_borel_sum_G_refuses_non_finite_argument(c, eta):
    with pytest.raises(ValueError, match="finite"):
        borel_sum_G(c, eta, "plus")


@pytest.mark.parametrize("c,eta", NON_FINITE)
def test_jump_factor_refuses_non_finite_argument(c, eta):
    with pytest.raises(ValueError, match="finite"):
        jump_factor("G", c, eta)


@pytest.mark.parametrize("c,eta", NON_FINITE)
def test_laplace_oracle_refuses_non_finite_argument(c, eta):
    with pytest.raises(ValueError, match="finite"):
        laplace_oracle("G", c, eta)


@pytest.mark.parametrize("kind", ["F", "G"])
@pytest.mark.parametrize("z", [1e-11 + 1j, 1e-9 - 1e2j, 1e-302 + 1e-291j])
def test_laplace_oracle_refuses_where_the_borel_sums_are_not_summable(z, kind):
    # One Re z = 0 test (walls.on_imaginary_axis) for the sums and the oracle:
    # where the sums report summable=False, the oracle integrates nothing.
    sum_ = borel_sum_F if kind == "F" else borel_sum_G
    assert not sum_(z, 1.0).summable
    with pytest.raises(ValueError, match="imaginary axis"):
        laplace_oracle(kind, z, 1.0)


def test_laplace_oracle_preconditions():
    with pytest.raises(ValueError):
        laplace_oracle("G", -2.0, 1.0)
    with pytest.raises(ValueError):
        laplace_oracle("G", 2j, 1.0)
    with pytest.raises(ValueError):
        laplace_oracle("H", 2.0, 1.0)


# ---------------------------------------------------------------------------
# Summability at the endpoint arguments
# ---------------------------------------------------------------------------

def test_summability_printed_examples():
    assert _summable(Parameters(2, 2 - 1j)) == {
        "F(c_p)": True, "F(c_m)": False, "G(c_inf)": True, "G(c_0)": True}
    assert _summable(Parameters(2 + 1j, 3)) == {
        "F(c_p)": True, "F(c_m)": True, "G(c_inf)": True, "G(c_0)": True}
    report = _summable(Parameters(1j, 3 + 0.5j))
    assert report["G(c_inf)"] is False
    assert report["F(c_p)"] and report["F(c_m)"] and report["G(c_0)"]


def test_summability_relative_tolerance():
    # c_m = i/2 + tiny real part: flips back to summable once the real
    # part exceeds the relative tolerance.
    p = Parameters(2, 2 - 1j + 1e-6)
    assert borel_sum_F(p.c_m, 1.0).summable is True
    p = Parameters(2, 2 - 1j + 1e-12)
    assert borel_sum_F(p.c_m, 1.0).summable is False


# ---------------------------------------------------------------------------
# Connection multipliers
# ---------------------------------------------------------------------------

def test_w2_multiplier_printed_value():
    p = Parameters(2, 2 - 1j)
    m = connection_multiplier("W2", "t0", p, 10.0)
    assert m.wall == "W2" and m.position == "t0"
    assert abs(m.value - (1 + math.exp(-10 * math.pi))) < 1e-15
    assert "c_inf - c_0" in m.expression
    trivial = connection_multiplier("W2", "t1", p, 10.0)
    assert trivial.value == 1
    assert trivial.expression == "1"


def test_w2_multiplier_exponentially_small_correction():
    p = Parameters(2, 2 - 1j)     # Im(c_inf - c_0) = 1 > 0
    previous = None
    for eta in (2.0, 5.0, 10.0):
        m = connection_multiplier("W2", "t0", p, eta)
        correction = abs(m.value - 1)
        assert correction < math.exp(-math.pi * eta) * (1 + 1e-9)
        if previous is not None:
            assert correction < previous
        previous = correction
    assert abs(connection_multiplier("W2", "t0", p, 10.0).value - 1) < 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_w4_multiplier_signs(sign):
    p = Parameters(-2 + 1j, 2 + 0.5j)
    m = connection_multiplier("W4", "outside-triangle", p, 3.0, sign=sign)
    base = 1 + cmath.exp(1j * math.pi * (p.c_inf + p.c_0) * 3.0)
    want = base if sign > 0 else 1 / base
    assert abs(m.value - want) < 1e-14 * abs(want)
    assert f"({sign:+d})" in m.expression


def test_w4_multiplier_signs_are_reciprocal():
    p = Parameters(-2 + 1j, 2 + 0.5j)
    plus = connection_multiplier("W4", "outside-triangle", p, 3.0, sign=1)
    minus = connection_multiplier("W4", "outside-triangle", p, 3.0, sign=-1)
    assert abs(plus.value * minus.value - 1) < 1e-12
    inside = connection_multiplier("W4", "inside-triangle", p, 3.0)
    assert inside.value == 1


def test_w3_multiplier_outside_loop_trivial():
    p = Parameters(1j, 3 + 0.5j)
    m = connection_multiplier("W3", "outside-loop", p, 4.0)
    assert m.value == 1


def test_inside_loop_is_unsupported():
    p = Parameters(1j, 3 + 0.5j)
    with pytest.raises(UnsupportedCaseError, match="spiral"):
        connection_multiplier("W3", "inside-loop", p, 4.0)
    with pytest.raises(UnsupportedCaseError):
        connection_multiplier("W5", "inside-loop", Parameters(-3 + 1j, 0.5j), 4.0)


def test_unresolved_combinations_are_unsupported():
    p = Parameters(2, 2 - 1j)
    with pytest.raises(UnsupportedCaseError):
        connection_multiplier("W1", "t0", p, 4.0)
    with pytest.raises(UnsupportedCaseError):
        connection_multiplier("W2", "outside-loop", p, 4.0)
    with pytest.raises(ValueError):
        connection_multiplier("W9", "t0", p, 4.0)
    with pytest.raises(ValueError):
        connection_multiplier("W2", "nowhere", p, 4.0)
    with pytest.raises(ValueError):
        connection_multiplier("W4", "outside-triangle", p, 4.0, sign=2)
