"""Voros coefficients: closed forms, difference equations, shift lemmas,
and agreement with the independent contour oracle."""

import cmath
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb import series, voros
from p3wkb.algebra import BranchPoint, Parameters, u_chart
from p3wkb.numerics import LaurentAtInfinity
from p3wkb.series import (
    ConditioningError,
    D7Model,
    riccati_solution,
    zero_param_solution,
)
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


# ---------------------------------------------------------------------------
# The oracle's quadrature rule and its batched series solve
# ---------------------------------------------------------------------------

def _gl_segment_by_panels(a, b, n_panels):
    """Reference: the segment rule built one panel at a time."""
    x, w = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    for k in range(n_panels):
        lo = a + (b - a) * (k / n_panels)
        hi = a + (b - a) * ((k + 1) / n_panels)
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        nodes.append(mid + half * x)
        weights.append(half * w.astype(complex))
    return np.concatenate(nodes), np.concatenate(weights)


def test_gl_segment_is_bit_identical_to_the_panel_loop():
    rng = np.random.default_rng(11)
    for k in range(200):
        a, b = rng.uniform(-5, 5, 2) + 1j * rng.uniform(-5, 5, 2)
        a, b = (complex(a), complex(b)) if k % 2 else (a, b)   # Python and numpy scalars
        n = int(rng.integers(4, 97))
        for got, want in zip(voros._gl_segment(a, b, n), _gl_segment_by_panels(a, b, n)):
            assert got.tobytes() == want.tobytes()


def _oracle_batch(spec, params, monkeypatch):
    """(t, lambda_0, keyword arguments) of the oracle's batched solve."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return zero_param_solution(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(voros, "zero_param_solution", spy)
        voros_numeric_oracle(spec, params, n_max=2)
    (ts, branch), kwargs = calls[0]
    return ts, branch.lambda0, kwargs


_BATCH_CASES = [(EndpointSpec("d6", "inf1", +1), P_GEN), (EndpointSpec("d7", "inf1", +1), 2 + 1j)]


@pytest.mark.parametrize("spec, params", _BATCH_CASES, ids=["d6-inf1", "d7-inf1"])
def test_chunk_size_does_not_change_the_solve(spec, params, monkeypatch):
    # 1,100 circle and leg nodes: four chunks and a rest of 76 against one
    # and the same rest (both above the outer-product threshold).
    ts, lams, kwargs = _oracle_batch(spec, params, monkeypatch)
    ts, lams = ts[:1100], lams[:1100]
    solved = []
    for nodes in (256, 1024):
        monkeypatch.setattr(series, "_CHUNK_NODES", nodes)
        zp = zero_param_solution(ts, BranchPoint(ts, lams), **kwargs)
        coeffs = [np.array(jet.coeffs) for s in (zp.lam, riccati_solution(zp, +1).R)
                  for jet in s.terms]
        solved.append((coeffs, zp.diagnostics))
    (first, diag_first), (second, diag_second) = solved
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    assert diag_first == diag_second


@pytest.mark.parametrize("spec, params", _BATCH_CASES + [
    (EndpointSpec("d6", "zero_c0", +1), P_GEN), (EndpointSpec("d7", "zero_c", +1), 2 + 1j)],
    ids=["d6-inf1", "d7-inf1", "d6-zero_c0", "d7-zero_c"])
def test_lowest_jet_order_gives_the_same_r_values(spec, params, monkeypatch):
    # The oracle reads only R's values; K = N + 2 certifies them as K = N + 4 does.
    ts, lams, kwargs = _oracle_batch(spec, params, monkeypatch)
    N = kwargs["N"]
    assert kwargs["K"] == N + 2
    low, high = (riccati_solution(zero_param_solution(
        ts, BranchPoint(ts, lams), N=N, K=K, model=kwargs["model"]), +1).R for K in (N + 2, N + 4))
    for power in low.powers():
        a, b = low.slot_value(power), high.slot_value(power)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _double_pole_nodes():
    """The 32 smallest-|t| nodes of the d7:zero_c:+ leg with four times the
    oracle's panels, at a c where that leg runs to |t| = 6e-5 beside the
    double pole: (t, lambda_0, model)."""
    c = -0.7638629002045076 + 1.259755939720333j
    spec = EndpointSpec("d7", "zero_c", +1)
    chart = u_chart(c)
    u_tp = voros._select_turning_point(chart, spec)
    _, u_star = voros._target_of(chart, spec)
    rho = voros._RADIUS_FACTOR * min(abs(s - u_tp) for s in chart.singular_points()
                                     if abs(s - u_tp) > 1e-9)
    P = u_tp + rho * cmath.exp(1j * cmath.phase(u_star - u_tp))
    us = voros._leg_quadrature(chart, *voros._leg_waypoints(chart, spec, u_tp, P), rho, 4)[0]
    us = us[np.argsort(np.abs(chart.t_of_u(us)))[:32]]
    return chart.t_of_u(us), chart.lambda0_of_u(us), D7Model(c)


def test_newton_gate_names_the_failing_node():
    # At K = N + 4 the shifted-row products leave lambda_0's residual above
    # the gate at the smallest |t|; its one-node solve passes.
    ts, lams, model = _double_pole_nodes()
    with pytest.raises(ConditioningError, match=re.escape(f"at node 0, t0={ts[0]}:")) as err:
        zero_param_solution(ts, BranchPoint(ts, lams), N=4, K=8, model=model)
    ratio = float(re.search(r"residual (\S+) of its scale", str(err.value)).group(1))
    assert ratio > 1e-8
    zero_param_solution(complex(ts[0]), BranchPoint(ts[0], lams[0]), N=4, K=8, model=model)


def test_double_pole_batch_at_the_oracle_order_matches_one_node_solves():
    ts, lams, model = _double_pole_nodes()
    R = riccati_solution(zero_param_solution(ts, BranchPoint(ts, lams), N=4, K=6,
                                             model=model), +1).R
    for k in range(len(ts)):
        one = riccati_solution(zero_param_solution(
            complex(ts[k]), BranchPoint(ts[k], lams[k]), N=4, K=6, model=model), +1).R
        for power in one.powers():
            want = one.slot_value(power)
            assert abs(R.slot_value(power)[k] - want) <= 1e-11 * abs(want)
