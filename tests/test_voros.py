"""Voros coefficients: closed forms, difference equations, shift lemmas,
and agreement with the independent contour oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p3wkb.algebra import Parameters
from p3wkb.numerics import LaurentAtInfinity
from p3wkb.voros import (
    EndpointSpec,
    PathError,
    cycle_symbolic,
    f_coefficient,
    f_difference_rhs,
    f_series,
    g_coefficient,
    g_difference_rhs,
    g_series,
    increments_match,
    parse_endpoint,
    reconstruct_from_difference,
    verify_difference_equation,
    voros_closed_form,
    voros_increment,
    voros_increment_printed,
    voros_numeric_oracle,
    voros_symbolic,
)

P_GEN = Parameters(3 + 1j, 1 + 0.5j)


# ---------------------------------------------------------------------------
# Endpoint specs
# ---------------------------------------------------------------------------

def test_parse_endpoint_roundtrip():
    spec = parse_endpoint("d6:inf3:+")
    assert spec == EndpointSpec("d6", "inf3", +1)
    assert parse_endpoint("d7:zero_c:-").sign == -1
    assert str(parse_endpoint("d6:zero_cinf:-")) == "d6:zero_cinf:-"


@pytest.mark.parametrize("bad", ["d6:inf3", "d8:inf3:+", "d6:nowhere:+", "d7:zero_cinf:+"])
def test_parse_endpoint_rejects(bad):
    with pytest.raises(ValueError):
        parse_endpoint(bad)


# ---------------------------------------------------------------------------
# Model series coefficients
# ---------------------------------------------------------------------------

def test_leading_coefficients():
    assert f_coefficient(1) == Fraction(-1, 24)
    assert g_coefficient(1) == Fraction(1, 12)
    assert g_coefficient(2) == Fraction(-1, 360)


def test_series_powers_are_odd_inverse():
    for series in (f_series(21), g_series(21)):
        assert all(p <= -1 and p % 2 == 1 for p in series.coeffs)


# ---------------------------------------------------------------------------
# Difference equations (exact through z^-19 and beyond)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["F", "G"])
def test_difference_equation_exact(kind):
    ok, mismatch = verify_difference_equation(kind, depth=21)
    assert ok, f"first mismatch at power {mismatch}"


@pytest.mark.parametrize("kind,series,rhs", [
    ("F", f_series, f_difference_rhs),
    ("G", g_series, g_difference_rhs),
])
def test_unique_reconstruction_from_difference(kind, series, rhs):
    rebuilt = reconstruct_from_difference(rhs(25), depth=23)
    assert rebuilt.first_mismatch(series(23)) is None


def test_reconstruction_rejects_nondecaying_rhs():
    bad = LaurentAtInfinity.monomial(0, Fraction(1), 10)
    with pytest.raises(ValueError):
        reconstruct_from_difference(bad, depth=10)


@given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_reconstruction_inverts_difference(coeffs):
    phi = LaurentAtInfinity({-m: c for m, c in enumerate(coeffs, start=1)}, 17)
    rhs = phi.shift(1) - phi
    rebuilt = reconstruct_from_difference(rhs, depth=16)
    assert rebuilt.first_mismatch(phi) is None


def test_duplication_identity():
    g = g_series(41)
    g_at_2z = LaurentAtInfinity({p: c * Fraction(2) ** p for p, c in g.coeffs.items()}, 41)
    assert (g_at_2z - g).first_mismatch(f_series(41)) is None


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_symbolic_tables():
    assert voros_symbolic(EndpointSpec("d6", "inf1", +1)) == {"c_p": (1, "F")}
    assert voros_symbolic(EndpointSpec("d6", "inf4", -1)) == {"c_m": (-1, "F")}
    assert voros_symbolic(EndpointSpec("d6", "zero_cinf", +1)) == {
        "c_p": (1, "F"), "c_m": (1, "F"), "c_inf": (-3, "G")}
    assert voros_symbolic(EndpointSpec("d6", "zero_c0", +1)) == {
        "c_p": (1, "F"), "c_m": (-1, "F"), "c_0": (-3, "G")}
    assert voros_symbolic(EndpointSpec("d7", "zero_c", -1)) == {"c": (3, "G")}
    assert voros_symbolic(EndpointSpec("d7", "inf2", +1)) == {}


def test_closed_form_sign_antisymmetry():
    for target in ("inf1", "inf3", "zero_cinf", "zero_c0"):
        plus = voros_closed_form(EndpointSpec("d6", target, +1), P_GEN, 3)
        minus = voros_closed_form(EndpointSpec("d6", target, -1), P_GEN, 3)
        assert all(plus[n] == -minus[n] for n in plus)


def test_closed_form_parameter_swap():
    # Swapping the two parameters exchanges the roles of the t = 0 branches.
    swapped = P_GEN.swapped()
    a = voros_closed_form(EndpointSpec("d6", "zero_cinf", +1), P_GEN, 4)
    b = voros_closed_form(EndpointSpec("d6", "zero_c0", +1), swapped, 4)
    assert all(abs(a[n] - b[n]) < 1e-14 * abs(a[n]) for n in a)


def test_closed_form_values():
    w = voros_closed_form(EndpointSpec("d6", "inf1", +1), P_GEN, 2)
    assert abs(w[1] - complex(Fraction(-1, 24)) / P_GEN.c_p) < 1e-15
    w7 = voros_closed_form(EndpointSpec("d7", "zero_c", +1), 2 + 1j, 1)
    assert abs(w7[1] - (-3) * complex(Fraction(1, 12)) / (2 + 1j)) < 1e-15


# ---------------------------------------------------------------------------
# Shift lemmas: computed increments match the literal right-hand sides
# ---------------------------------------------------------------------------

_LEMMA_CASES = [(k, w, "d6") for k in
                ("cycle", "inf1", "inf2", "inf3", "inf4", "zero_cinf", "zero_c0")
                for w in (1, 2)] + [("zero_c", 1, "d7")]


@pytest.mark.parametrize("key,which,equation", _LEMMA_CASES)
def test_shift_lemma(key, which, equation):
    if key == "cycle":
        sym = cycle_symbolic()
    else:
        sym = voros_symbolic(EndpointSpec(equation, key, +1))
    computed = voros_increment(sym, which, equation, depth=21)
    ok, detail = increments_match(computed, voros_increment_printed(key, which, depth=21))
    assert ok, detail


# ---------------------------------------------------------------------------
# Contour oracle vs closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [2 + 1j, -2 + 1j])
@pytest.mark.parametrize("sign", [+1, -1])
def test_oracle_degenerate_family(c, sign):
    spec = EndpointSpec("d7", "zero_c", sign)
    res = voros_numeric_oracle(spec, c, n_max=2)
    closed = voros_closed_form(spec, c, 2)
    for n in (1, 2):
        rel = abs(res.values[n] - closed[n]) / abs(closed[n])
        assert rel < 1e-5, f"n={n}: rel {rel:.2e}"
    assert res.diagnostics[1]["even_ratio"] < 1e-9


def test_oracle_degenerate_infinity_vanishes():
    res = voros_numeric_oracle(EndpointSpec("d7", "inf1", +1), 2 + 1j, n_max=2)
    assert abs(res.values[1]) < 1e-8
    assert abs(res.values[2]) < 1e-5


@pytest.mark.parametrize("target", ["zero_cinf", "zero_c0", "inf3"])
def test_oracle_two_parameter_family(target):
    spec = EndpointSpec("d6", target, +1)
    res = voros_numeric_oracle(spec, P_GEN, n_max=2)
    closed = voros_closed_form(spec, P_GEN, 2)
    for n in (1, 2):
        rel = abs(res.values[n] - closed[n]) / abs(closed[n])
        assert rel < 1e-5, f"n={n}: rel {rel:.2e}"


def test_oracle_infinity_target_uses_second_chart():
    spec = EndpointSpec("d6", "inf1", +1)
    res = voros_numeric_oracle(spec, P_GEN, n_max=2)
    closed = voros_closed_form(spec, P_GEN, 2)
    for n in (1, 2):
        assert abs(res.values[n] - closed[n]) / abs(closed[n]) < 1e-5


def test_oracle_sign_flip_consistency():
    plus = voros_numeric_oracle(EndpointSpec("d6", "zero_c0", +1), P_GEN, n_max=2)
    minus = voros_numeric_oracle(EndpointSpec("d6", "zero_c0", -1), P_GEN, n_max=2)
    for n in (1, 2):
        assert abs(plus.values[n] + minus.values[n]) < 1e-12 * abs(plus.values[n])


def test_oracle_rejects_endpoint_of_the_other_family():
    with pytest.raises(ValueError):
        voros_numeric_oracle(EndpointSpec("d7", "zero_c", +1), P_GEN, n_max=1)
    with pytest.raises(ValueError):
        voros_numeric_oracle(EndpointSpec("d6", "inf1", +1), 2 + 1j, n_max=1)


def test_oracle_results_are_not_shared_between_calls():
    spec = EndpointSpec("d7", "zero_c", +1)
    first = voros_numeric_oracle(spec, 2 + 1j, n_max=1)
    first.values[1] = 0j
    assert voros_numeric_oracle(spec, 2 + 1j, n_max=1).values[1] != 0


def test_oracle_returns_the_refined_leg():
    # A chamber-V point where W_2's two parts cancel by about 1e8: the leg
    # from the coarser rule passes its convergence gate yet leaves W_2 off
    # by 2.6 relative; the leg from the rule with twice the panels does not.
    spec = EndpointSpec("d6", "inf1", +1)
    p = Parameters(-2.28992598346274 + 0.3078450670676809j,
                   -1.8157789096795514 + 0.23112540915714153j)
    res = voros_numeric_oracle(spec, p, n_max=2)
    closed = voros_closed_form(spec, p, 2)
    assert abs(res.values[2] - closed[2]) / abs(closed[2]) < 1e-3


@pytest.mark.parametrize("target", ["inf1", "zero_c0"])
def test_oracle_reports_the_cancellation_between_its_parts(target):
    res = voros_numeric_oracle(EndpointSpec("d6", target, +1), P_GEN, n_max=2)
    for n, diag in res.diagnostics.items():
        parts = abs(diag["mode_sum"]) + abs(diag["leg"])
        assert diag["cancellation"] >= 1
        assert diag["cancellation"] == pytest.approx(parts / abs(res.values[n]), rel=1e-12)


@pytest.mark.parametrize("spec, params, center", [
    (EndpointSpec("d7", "zero_c", +1), 2 + 1j, -(2 + 1j)),
    (EndpointSpec("d6", "zero_c0", +1), P_GEN, 5 + 5j),
])
def test_oracle_refuses_a_circle_around_no_turning_point(spec, params, center):
    # The second turn of the circle reuses the values solved on the first;
    # with no branch point inside, the signs do not flip after one turn and
    # the integer-power modes must still give the circle away.
    with pytest.raises(PathError, match="integer-power"):
        voros_numeric_oracle(spec, params, n_max=2, tp_override=center)


def test_oracle_needs_an_even_sample_count():
    with pytest.raises(ValueError):
        voros_numeric_oracle(EndpointSpec("d7", "zero_c", +1), 2 + 1j, n_max=1, samples=511)
