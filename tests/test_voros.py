"""Voros coefficients: closed forms, difference equations, shift lemmas,
and agreement with the independent contour oracle."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb import series, voros
from p3wkb.algebra import AlgebraError, BranchPoint, D6Chart, D7Chart, Parameters, u_chart
from p3wkb.numerics import LaurentAtInfinity
from p3wkb.series import (
    D7Model,
    odd_slot_ratios,
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

from w2_sweep import _workloads

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


def _spoil_variables(bare, parts):
    return bare, {"c_p": parts["c_p"]}


def _spoil_coefficients(bare, parts):
    # Two wrong coefficients; the first mismatch is the higher power, z^-4.
    off = (LaurentAtInfinity.monomial(-7, Fraction(1, 3), 21)
           + LaurentAtInfinity.monomial(-4, Fraction(1, 1000), 21))
    return bare, {**parts, "c_inf": parts["c_inf"] + off}


def _spoil_constant(bare, parts):
    return bare + 1, parts


@pytest.mark.parametrize("spoil, detail", [
    (_spoil_variables, "variables differ: ['c_inf', 'c_p'] vs ['c_p']"),
    (_spoil_coefficients, "c_inf: first mismatch at power -4"),
    (_spoil_constant, "constants do not cancel: total 1"),
], ids=["variables", "coefficient", "constant"])
def test_increments_match_refuses_a_spoiled_right_hand_side(spoil, detail):
    sym = voros_symbolic(EndpointSpec("d6", "zero_cinf", +1))
    computed = voros_increment(sym, 1, "d6", depth=21)
    printed = voros_increment_printed("zero_cinf", 1, depth=21)
    assert increments_match(computed, printed) == (True, "ok")
    assert increments_match(computed, spoil(*printed)) == (False, detail)


# ---------------------------------------------------------------------------
# Contour oracle vs closed forms
# ---------------------------------------------------------------------------

# Relative errors of W_1..W_3 allowed at these points, each at least ten
# times the largest measured there (D7 zero_c: 1.7e-10 and 7.1e-7; D6 at
# P_GEN: 1.3e-9 and 1.1e-5, both at zero_c0).
_D7_ZERO_C_TOL = {1: 1e-5, 2: 5e-9, 3: 2e-5}
_D6_TOL = {1: 1e-5, 2: 2e-8, 3: 2e-4}


@pytest.mark.parametrize("c", [2 + 1j, -2 + 1j])
@pytest.mark.parametrize("sign", [+1, -1])
def test_oracle_degenerate_family(c, sign):
    spec = EndpointSpec("d7", "zero_c", sign)
    res = voros_numeric_oracle(spec, c, n_max=3)
    closed = voros_closed_form(spec, c, 3)
    for n, tol in _D7_ZERO_C_TOL.items():
        rel = abs(res.values[n] - closed[n]) / abs(closed[n])
        assert rel < tol, f"n={n}: rel {rel:.2e}"
    assert res.diagnostics[1]["even_ratio"] < 1e-9


def test_oracle_degenerate_infinity_vanishes():
    # Measured |W_2| 1.3e-13 and |W_3| 1.6e-11 at every endpoint and sign.
    for target in ("inf1", "inf2", "inf3"):
        for sign in (+1, -1):
            res = voros_numeric_oracle(EndpointSpec("d7", target, sign), 2 + 1j, n_max=3)
            assert abs(res.values[1]) < 1e-8
            assert abs(res.values[2]) < 2e-12
            assert abs(res.values[3]) < 3e-10


@pytest.mark.parametrize("target", ["zero_cinf", "zero_c0", "inf1", "inf2", "inf3", "inf4"])
def test_oracle_two_parameter_family(target):
    for sign in (+1, -1):
        spec = EndpointSpec("d6", target, sign)
        res = voros_numeric_oracle(spec, P_GEN, n_max=3)
        closed = voros_closed_form(spec, P_GEN, 3)
        for n, tol in _D6_TOL.items():
            rel = abs(res.values[n] - closed[n]) / abs(closed[n])
            assert rel < tol, f"sign {sign}, n={n}: rel {rel:.2e}"


_TABLE_ROWS = [(EndpointSpec(family, target), params)
               for family, params in (("d6", P_GEN), ("d7", 2 + 1j))
               for target in voros._ENDPOINTS[family]]


@pytest.mark.parametrize("spec, params", _TABLE_ROWS, ids=[str(s) for s, _ in _TABLE_ROWS])
def test_each_row_anchor_is_the_limit_at_its_endpoint(spec, params):
    # R_{-1} = sqrt(q)/(dt/du) up to sign, from the chart alone.  Towards the
    # endpoint lambda_0 R_{-1} tends to the row's +/-2 at t = infinity, and
    # t R_{-1} to the chart's residue at a double pole.
    chart, row = u_chart(params), spec.row
    u_star = voros._target_of(chart, spec)
    eps = 10.0 ** -np.arange(2, 7) * cmath.exp(0.3j)
    us = 1 / eps if u_star is None else u_star + eps
    r = np.sqrt(chart.q(us)) / chart.dt_du(us)
    ts, lams = chart.t_of_u(us), chart.lambda0_of_u(us)
    if row.lam_r_limit is not None:
        a, ref = lams * r, row.lam_r_limit
    elif row.capture is not None:
        a, ref = ts * r, chart.pole_residues[row.capture]
    else:
        assert voros._anchor_label(spec, chart, ts[-1], lams[-1], r[-1]) == +1
        return
    err = np.minimum(np.abs(a - ref), np.abs(a + ref)) / abs(ref)
    assert np.all(np.diff(err) < 0) and err[-1] < 1e-4, err
    labels = [voros._anchor_label(spec, chart, ts[-1], lams[-1], s * r[-1]) for s in (+1, -1)]
    assert sorted(labels) == [-1, +1]


#: (endpoint at p.swapped(), endpoint at p) with equal W_n.  c_inf <-> c_0
#: leaves q unchanged, exchanges the double poles over t = 0 and negates c_m,
#: and F is odd, so the inf3 row changes sign.
_SWAP_PAIRS = [("d6:zero_cinf:+", "d6:zero_c0:+"), ("d6:zero_c0:+", "d6:zero_cinf:+"),
               ("d6:inf3:+", "d6:inf3:-")]


@pytest.mark.parametrize("p", [Parameters(2 + 1j, 0.7 - 0.4j), P_GEN])
@pytest.mark.parametrize("at_swapped, at_p", _SWAP_PAIRS)
def test_oracle_under_parameter_swap(p, at_swapped, at_p):
    a = voros_numeric_oracle(parse_endpoint(at_swapped), p.swapped(), n_max=2)
    b = voros_numeric_oracle(parse_endpoint(at_p), p, n_max=2)
    closed = voros_closed_form(parse_endpoint(at_p), p, 2)
    for n in (1, 2):
        rel = abs(a.values[n] - b.values[n]) / abs(closed[n])
        assert rel < 1e-5, f"n={n}: rel {rel:.2e}"


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


#: A chamber-V point where W_2's two parts cancel by about 1e6.
_REPRODUCER = (EndpointSpec("d6", "inf1", +1),
               Parameters(-2.28992598346274 + 0.3078450670676809j,
                          -1.8157789096795514 + 0.23112540915714153j))


def test_oracle_returns_the_refined_leg():
    # W_2's parts cancel by about 1e6 here, so a leg that passes its own
    # gate can still leave W_2 off: it must meet the benchmark's 1e-5.
    spec, p = _REPRODUCER
    res = voros_numeric_oracle(spec, p, n_max=2)
    closed = voros_closed_form(spec, p, 2)
    assert abs(res.values[2] - closed[2]) / abs(closed[2]) < 1e-5


@pytest.mark.parametrize("target", ["inf1", "zero_c0"])
def test_oracle_reports_the_cancellation_between_its_parts(target):
    res = voros_numeric_oracle(EndpointSpec("d6", target, +1), P_GEN, n_max=2)
    for n, diag in res.diagnostics.items():
        parts = abs(diag["mode_sum"]) + abs(diag["leg"])
        assert diag["cancellation"] >= 1
        assert diag["cancellation"] == pytest.approx(parts / abs(res.values[n]), rel=1e-12)


@pytest.mark.parametrize("spec, params", [
    *((EndpointSpec("d6", t, +1), P_GEN)
      for t in ("zero_cinf", "zero_c0", "inf1", "inf2", "inf3", "inf4")),
    (EndpointSpec("d7", "zero_c", +1), 2 + 1j),
])
def test_oracle_error_stays_below_its_rounding_scale(spec, params):
    # rounding_scale is the size of the rounding the circle's samples carry
    # into mode_sum; the oracle's error was measured at up to 5.1e-14 of it
    # here.  even_ratio is kept at 0.0 for the benchmark's tracer.
    res = voros_numeric_oracle(spec, params, n_max=3)
    closed = voros_closed_form(spec, params, 3)
    for n, diag in res.diagnostics.items():
        assert abs(res.values[n] - closed[n]) <= 1e-12 * diag["rounding_scale"]
        assert diag["even_ratio"] == 0.0


@pytest.mark.parametrize("spec, params, center", [
    (EndpointSpec("d7", "zero_c", +1), 2 + 1j, -(2 + 1j)),
    (EndpointSpec("d6", "zero_c0", +1), P_GEN, 5 + 5j),
])
def test_oracle_refuses_a_circle_around_no_turning_point(spec, params, center, monkeypatch):
    # With no branch point inside, the square root does not flip after one
    # turn, and the closure check gives the circle away.
    monkeypatch.setattr(voros, "_select_turning_point", lambda chart, spec: center)
    with pytest.raises(PathError, match="does not flip after one turn"):
        voros_numeric_oracle(spec, params, n_max=2)


def test_oracle_refuses_a_circle_with_too_few_samples(monkeypatch):
    # 16 samples on one turn hold the modes up to |s| = 8 only; the rest fold
    # onto them and fill the high-frequency bins.
    monkeypatch.setattr(voros, "_CIRCLE_SAMPLES", 16)
    with pytest.raises(PathError, match="high-frequency"):
        voros_numeric_oracle(EndpointSpec("d6", "zero_c0", +1), P_GEN, n_max=2)


def _two_turn_modes(f):
    """Reference: the half-odd modes read off the double cover, an FFT of
    the samples followed by their negation (the root's sign after one
    turn); the odd bins k hold the modes s = k/2."""
    M = 2 * f.shape[-1]
    k = np.fft.fftfreq(M, d=1.0 / M)
    chat = np.fft.fft(np.concatenate([f, -f], axis=-1)) / M
    odd = k % 2 == 1
    return k[odd] / 2, chat[..., odd]


@pytest.mark.parametrize("spec, params", [
    *((EndpointSpec("d6", t, +1), P_GEN)
      for t in ("zero_cinf", "zero_c0", "inf1", "inf2", "inf3", "inf4")),
    (EndpointSpec("d7", "zero_c", +1), 2 + 1j),
])
def test_one_turn_modes_match_the_two_turn_reference(spec, params, monkeypatch):
    # Both routes get the oracle's own circle samples; the one-turn mode_sum
    # was measured within 1.6e-15 of rounding_scale of the reference.
    seen, one_turn = [], voros._half_odd_modes

    def recording(f):
        seen.append(f)
        return one_turn(f)

    monkeypatch.setattr(voros, "_half_odd_modes", recording)
    res = voros_numeric_oracle(spec, params, n_max=3)
    chart = u_chart(params)
    u_star = voros._target_of(chart, spec)
    theta_P = 0.0 if u_star is None else cmath.phase(u_star - res.turning_point_u)
    z = voros._RADIUS_FACTOR * chart.special_gap(res.turning_point_u) * cmath.exp(1j * theta_P)  # P - u_tp
    (f,) = seen
    s, modes = _two_turn_modes(f)
    for n, diag in res.diagnostics.items():
        ref = np.sum(modes[n - 1] * z / (s + 1))
        assert abs(diag["mode_sum"] - ref) <= 1e-13 * diag["rounding_scale"]


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
        edges = a + (b - a) * (np.arange(n + 1) / n)
        for got, want in zip(voros._gl_rule(edges), _gl_segment_by_panels(a, b, n)):
            assert got.tobytes() == want.tobytes()


def _leg_of(spec, params, radius_factor=None):
    """(chart, circle radius, u-chart waypoints, w-chart waypoints, special
    points) of the oracle's leg at an endpoint; the circle's radius factor
    is the oracle's own unless given."""
    chart = u_chart(params)
    u_tp = voros._select_turning_point(chart, spec)
    u_star = voros._target_of(chart, spec)
    factor = voros._RADIUS_FACTOR if radius_factor is None else radius_factor
    rho = factor * chart.special_gap(u_tp)
    theta = 0.0 if u_star is None else cmath.phase(u_star - u_tp)
    P = u_tp + rho * cmath.exp(1j * theta)
    u_pts, w_pts = voros._leg_waypoints(chart, spec, u_tp, P)
    return chart, rho, u_pts, w_pts, voros._leg_specials(chart, spec)


def _oracle_reads(spec, params, monkeypatch, n_max=2):
    """(result, x of every node in the oracle's order, the index k from
    which x is w = 1/u, B_2n as read off the family's table (0 at a node
    not read there), and per node the read taken: 0 in complex128, 1 in
    clongdouble, 2 none, the node solve) of the oracle at an endpoint."""
    calls, table_reads = [], voros._table_reads

    def spy(chart, params, n_max, xs, k):
        calls.append((xs, k, *table_reads(chart, params, n_max, xs, k)))
        return calls[-1][2:]

    with monkeypatch.context() as patch:
        patch.setattr(voros, "_table_reads", spy)
        result = voros_numeric_oracle(spec, params, n_max=n_max)
    (xs, k, values, read), = calls
    return result, xs, k, values, read


def _oracle_nodes(spec, params, monkeypatch, n_max=2):
    """(u of every node in the oracle's order, t, lambda_0, and the B_2n
    and read of ``_oracle_reads``) of the oracle at an endpoint."""
    _, xs, k, values, read = _oracle_reads(spec, params, monkeypatch, n_max)
    us = np.concatenate([xs[:k], 1 / xs[k:]])
    chart = u_chart(params)
    return us, chart.t_of_u(us), chart.lambda0_of_u(us), values, read


_BATCH_CASES = [(EndpointSpec("d6", "inf1", +1), P_GEN), (EndpointSpec("d7", "inf1", +1), 2 + 1j)]


#: The first three bounds are the counts of the ×1 + ×2 leg pair the one
#: graded rule replaced; the last three are the one rule's measured counts.
@pytest.mark.parametrize("target, most", [("inf1", 608), ("inf3", 224), ("zero_cinf", 176),
                                          ("inf1", 400), ("inf3", 176), ("zero_cinf", 160)])
def test_oracle_solves_at_most_its_measured_nodes(target, most):
    # The circle's samples plus the leg's nodes, 16 to a panel: a wider leg
    # or a denser circle shows here before it shows in a timing.
    diag = voros_numeric_oracle(EndpointSpec("d6", target, +1), P_GEN, n_max=2).diagnostics
    for d in diag.values():
        assert d["nodes"] == voros._CIRCLE_SAMPLES + 16 * d["panels"] <= most


_ENDPOINT_CASES = _BATCH_CASES + [
    (EndpointSpec("d6", "zero_c0", +1), P_GEN), (EndpointSpec("d7", "zero_c", +1), 2 + 1j)]
_ENDPOINT_IDS = ["d6-inf1", "d7-inf1", "d6-zero_c0", "d7-zero_c"]


@pytest.mark.parametrize("spec, params", _ENDPOINT_CASES, ids=_ENDPOINT_IDS)
def test_leg_panels_are_graded_by_the_nearest_special_point(spec, params):
    chart, _, u_pts, w_pts, specials = _leg_of(spec, params)
    w_specials = 1 / specials[np.abs(specials) > 1e-9]
    for pts, poles in ((u_pts, specials), (w_pts, w_specials)):
        for a, b in zip(pts, pts[1:]):
            edges = voros._graded_edges(a, b, poles, 0.0)
            s = (edges - a) / (b - a)
            assert s[0] == 0 and s[-1] == pytest.approx(1, abs=1e-15)
            assert np.all(np.diff(s.real) > 0) and np.allclose(s.imag, 0, atol=1e-15)
            start = np.min(np.abs(poles[None, :] - edges[:-1, None]), axis=1)
            most = 1.5 * voros._PANEL_FRACTION * start * (1 + 1e-12)
            assert np.all(np.abs(np.diff(edges)) <= most)


@pytest.mark.parametrize("spec, params", _ENDPOINT_CASES[2:], ids=_ENDPOINT_IDS[2:])
def test_leg_grading_leaves_out_the_finite_endpoint(spec, params):
    # The leg ends on its endpoint, a double pole of the chart, where the
    # integrand is integrable; as a special point it would refuse the leg.
    chart, _, u_pts, _, specials = _leg_of(spec, params)
    u_star, tiny = voros._target_of(chart, spec), 1e-9 * chart.scale
    assert u_star in chart.singular_points() and u_pts[-1] == u_star
    assert np.min(np.abs(specials - u_star)) > 1e-6 * chart.scale
    voros._graded_edges(u_pts[-2], u_star, specials, tiny)
    with pytest.raises(PathError, match="passes through"):
        voros._graded_edges(u_pts[-2], u_star, np.append(specials, u_star), tiny)


def test_leg_segment_through_a_special_point_is_refused():
    specials = np.array([1 + 1j, 3 - 2j])
    with pytest.raises(PathError, match="passes through"):
        voros._graded_edges(0j, 2 + 2j, specials, 1e-9)
    with pytest.raises(PathError, match="passes through"):
        voros._graded_edges(0j, 1 + (1 + 1e-12) * 1j, specials, 1e-9)
    with pytest.raises(PathError, match="panels"):   # the guard off: panels halve forever
        voros._graded_edges(0j, 2 + 2j, specials, 0.0)
    assert len(voros._graded_edges(0j, 2 + 2.2j, specials, 1e-9)) > 2


def test_leg_runs_straight_unless_it_runs_through_a_special_point():
    # The nearest other point of 1 + 1j is 1 - 0.5j, so d = 1.5.
    specials = np.array([1 + 1j, 3 - 2j, 1 - 0.5j])
    for b in (2 + 2.2j, 2 + 2.002j):          # clear of every point; 7e-4 from 1 + 1j
        assert voros._straight_run(0j, b, specials, 1e-9) == [0j, b]
    a, way, b = voros._straight_run(0j, 2 + 2j, specials, 1e-9)
    assert (a, b) == (0j, 2 + 2j)
    step = (way - (1 + 1j)) / (b - a)         # to the left: a positive multiple of 1j
    assert abs(step.real) < 1e-15 and step.imag > 0
    assert abs(way - (1 + 1j)) == pytest.approx(0.48 * 1.5, rel=1e-15)
    for lo, hi in ((a, way), (way, b)):
        voros._graded_edges(lo, hi, specials, 1e-9)


def _loop_pick(chart, spec, u_tp, P):
    """The far-out leg end as the oracle once picked it: each of the 24
    candidates scored by its own call, the first best kept by ``max``."""
    specials = voros._leg_specials(chart, spec)

    def clearance(end):
        seg = end - P
        feet = np.clip(((specials - P) * seg.conjugate()).real / abs(seg) ** 2, 0.0, 1.0)
        return np.min(np.abs(specials - (P + feet * seg)))

    return max((u_tp + 12.0 * chart.scale * cmath.exp(1j * (2 * math.pi * m / 24))
                for m in range(24)), key=clearance)


def test_far_out_leg_end_is_the_loops_pick():
    # The candidates are scored in one broadcast; np.argmax keeps the first
    # best as max did, and the distances are the loop's bit for bit, so the
    # pick is the same end, the same Python complex.  On the u = infinity
    # cases of _CROSS_CASES and the voros_oracle benchmark's seed-4711 checks.
    seeded = [task.args for task in _workloads().VorosOracle.tasks(4711, 57)]
    cases = [(spec, params) for spec, params in _CROSS_CASES + seeded
             if spec.row.capture is None]
    assert len(cases) > 20
    for spec, params in cases:
        chart, _, u_pts, w_pts, _ = _leg_of(spec, params)
        P, u_tp = u_pts[0], voros._select_turning_point(chart, spec)
        want = _loop_pick(chart, spec, u_tp, P)
        assert type(u_pts[-1]) is type(want) and u_pts[-1] == want and w_pts[0] == 1 / want


#: Seed 106, chamber I: two legs that the graded panels alone keep accurate
#: where they pass near a special point (the d6:inf3 one passes 0.015 from
#: one).  Measured at n_max = 2: W_1 1.9e-13 and 1.3e-13, W_2 2.2e-8 and
#: 5.1e-9 relative to the closed form.
_NEAR_PASSES = [
    (EndpointSpec("d6", "inf3", +1),
     Parameters(2.4496175845922807 + 0.370661537812228j, 0.37787991148647804 - 0.018176683245693104j)),
    (EndpointSpec("d6", "inf4", +1),
     Parameters(-0.5528919735228933 + 0.2320059328119728j, -2.8987946476330806 + 0.5517798873377071j)),
]


@pytest.mark.parametrize("spec, params", _NEAR_PASSES, ids=["inf3", "inf4"])
def test_straight_leg_past_a_special_point_meets_the_closed_form(spec, params):
    chart, _, u_pts, w_pts, _ = _leg_of(spec, params)
    assert len(u_pts) == 2 and u_pts[-1] == voros._target_of(chart, spec) and w_pts == []
    res = voros_numeric_oracle(spec, params, n_max=2)
    closed = voros_closed_form(spec, params, 2)
    for n, tol in ((1, 1e-11), (2, 1e-6)):
        rel = abs(res.values[n] - closed[n]) / abs(closed[n])
        assert rel <= tol, f"n={n}: rel {rel:.2e}"


@pytest.mark.parametrize("spec, params", _ENDPOINT_CASES, ids=_ENDPOINT_IDS)
def test_lowest_jet_order_gives_the_same_r_values(spec, params, monkeypatch):
    # On the oracle's nodes the series solve at the lowest K the order
    # budget admits gives the R values of K = N + 4 bit for bit; the oracle
    # takes B_2n from it where the rational B_2n are ill-conditioned.
    _, ts, lams, _, _ = _oracle_nodes(spec, params, monkeypatch)
    N, model = 4, series.model_for(params)
    low, high = (riccati_solution(zero_param_solution(
        ts, BranchPoint(ts, lams), N=N, K=K, model=model), +1).R
        for K in (series.lowest_jet_order(N, model.shifted), N + 4))
    for power in low.powers():
        assert np.array_equal(low.slot_value(power), high.slot_value(power)), power


@pytest.mark.parametrize("spec, params", _ENDPOINT_CASES + [_REPRODUCER] + _NEAR_PASSES,
                         ids=_ENDPOINT_IDS + ["reproducer", "near-inf3", "near-inf4"])
def test_leg_error_estimate_bounds_the_quartered_rule(spec, params, monkeypatch):
    # The reference leg runs on the oracle's panels each split into four.
    graded = voros._graded_edges

    def quartered(*args):
        edges = graded(*args)
        lo, hi = edges[:-1, None], edges[1:, None]
        return np.append((lo + (hi - lo) * (np.arange(4) / 4)).ravel(), edges[-1])

    res = voros_numeric_oracle(spec, params, n_max=2)
    monkeypatch.setattr(voros, "_graded_edges", quartered)
    ref = voros_numeric_oracle(spec, params, n_max=2)
    for n, diag in res.diagnostics.items():
        est = diag["leg_rel_err"] * abs(diag["leg"])
        assert abs(diag["leg"] - ref.diagnostics[n]["leg"]) <= est <= 1e-6 * abs(diag["leg"])


@pytest.mark.parametrize("spec, params", _BATCH_CASES, ids=_ENDPOINT_IDS[:2])
def test_oracle_refuses_a_leg_on_panels_too_coarse(spec, params, monkeypatch):
    # Panels twice the distance to the nearest special point: the tail
    # estimate must give them away.
    monkeypatch.setattr(voros, "_PANEL_FRACTION", 2.0)
    with pytest.raises(PathError, match="leg quadrature not converged"):
        voros_numeric_oracle(spec, params, n_max=2)


@pytest.mark.parametrize("spec, params", _ENDPOINT_CASES, ids=_ENDPOINT_IDS)
def test_residuals_vanish_on_every_node_of_the_oracle_batch(spec, params, monkeypatch):
    # The oracle's own nodes at K = N + 2, the lowest order whose residuals
    # reach every slot, where R has the values of the lowest K bit for bit:
    # both residuals vanish on eta^2 .. eta^(2-N) at every node, relative to
    # 1 + the node's largest slot (the rule of the series_scalar benchmark
    # gate).
    _, ts, lams, _, _ = _oracle_nodes(spec, params, monkeypatch)
    N, model = 4, series.model_for(params)
    lowest = riccati_solution(zero_param_solution(
        ts, BranchPoint(ts, lams), N=N, K=series.lowest_jet_order(N, model.shifted),
        model=model), +1).R
    zp = zero_param_solution(ts, BranchPoint(ts, lams), N=N, K=N + 2, model=model)
    ric = riccati_solution(zp, +1)
    assert np.array_equal(lowest.coeffs[:, 0], ric.R.coeffs[:, 0])
    for res, sol in ((series.main_equation_residual(zp), zp.lam),
                     (series.riccati_residual(ric.R, zp), ric.R)):
        size = 1.0 + np.abs(sol.coeffs[:, 0]).max(axis=0)
        err = np.abs([res.slot_value(p) for p in range(2, 1 - N, -1)]).max(axis=0)
        assert np.all(err <= 1e-9 * size), np.max(err / size)


def _double_pole_nodes():
    """The 32 smallest-|t| nodes of a d7:zero_c:+ leg with four times the
    uniform panels the oracle once used (about 3 L / rho per segment of
    length L, 4 to 48 of them) on the circle it once used (0.3 of the
    distance to the nearest singular point), at a c where that leg runs to
    |t| = 6e-5 beside the double pole: (t, lambda_0, model).  The graded leg
    keeps further from the pole, so it no longer reaches these nodes."""
    c = -0.7638629002045076 + 1.259755939720333j
    chart, rho, u_pts, _, _ = _leg_of(EndpointSpec("d7", "zero_c", +1), c, radius_factor=0.3)
    us = np.concatenate([
        _gl_segment_by_panels(a, b, 4 * max(4, min(48, int(np.ceil(3.0 * abs(b - a) / rho)))))[0]
        for a, b in zip(u_pts, u_pts[1:])])
    us = us[np.argsort(np.abs(chart.t_of_u(us)))[:32]]
    return chart.t_of_u(us), chart.lambda0_of_u(us), D7Model(c)


def _double_pole_ric(ts, lams, model, K, dtype=np.complex128):
    zp = zero_param_solution(np.asarray(ts, dtype), BranchPoint(ts, lams), N=4, K=K, model=model)
    return riccati_solution(zp, +1)


_HAS_80_BIT = np.finfo(np.longdouble).eps < 1e-18


@pytest.mark.skipif(not _HAS_80_BIT, reason="numpy's longdouble is no wider than double here")
def test_double_pole_batch_at_k8_matches_the_80_bit_solve():
    # At K = N + 4 the jet-Newton lambda_0 once left its residual above the
    # gate at the smallest |t| (1.15e-8 at node 0).  Read off the u-chart,
    # lambda_0's jet leaves 5.9e-16, and the batch's R slots lie within
    # 1.9e-11 relative of the 80-bit solve.
    ts, lams, model = _double_pole_nodes()
    ric = _double_pole_ric(ts, lams, model, 8)
    assert ric.zp.diagnostics["newton_ratio"] <= 1e-14
    R, wide = ric.R, _double_pole_ric(ts, lams, model, 8, np.clongdouble).R
    for power in R.powers():
        want = wide.slot_value(power)
        assert np.all(np.abs(R.slot_value(power) - want) <= 5e-11 * np.abs(want)), power


def test_double_pole_batch_at_the_oracle_order_matches_one_node_solves():
    # Batch and one-node solves agree within 3.4e-12 relative: lambda_0's
    # jets agree within 3.5e-16 of each order, and the slot recursions' two
    # product kernels differ on coefficients of size rho^(-k).  Each lies
    # within 1.9e-11 of the 80-bit solve (1.7e-10 when lambda_0 came from
    # the jet Newton).
    ts, lams, model = _double_pole_nodes()
    R = _double_pole_ric(ts, lams, model, 6).R
    wide = _double_pole_ric(ts, lams, model, 6, np.clongdouble).R if _HAS_80_BIT else None
    for k in range(len(ts)):
        one = _double_pole_ric(complex(ts[k]), lams[k], model, 6).R
        for power in one.powers():
            got, want = R.slot_value(power)[k], one.slot_value(power)
            assert abs(got - want) <= 1e-11 * abs(want)
            if wide is not None:
                ref = complex(wide.slot_value(power)[k])
                assert max(abs(got - ref), abs(want - ref)) <= 5e-11 * abs(ref)


# ---------------------------------------------------------------------------
# The odd slots as rational functions against the node solve
# ---------------------------------------------------------------------------

_CROSS_CASES = [*((EndpointSpec("d6", t, +1), P_GEN)
                  for t in ("zero_cinf", "zero_c0", "inf1", "inf2", "inf3", "inf4")),
                (EndpointSpec("d7", "zero_c", +1), 2 + 1j), (EndpointSpec("d7", "inf1", +1), 2 + 1j),
                *_NEAR_PASSES, _REPRODUCER,
                # The first seeded checks of the voros_oracle benchmark at
                # seeds 4711, 101 and 7.
                *((EndpointSpec("d6", "inf1", +1), Parameters(*p)) for p in (
                    (2.171769715204236 - 0.33474609327059923j, 0.7976725881844997 + 0.45035116175978307j),
                    (2.238601257208553 - 0.5752464632833378j, 0.6217128690310447 + 0.9422119027075473j),
                    (1.7400458253090048 - 0.8602891528507621j, 0.22097161464303583 - 0.8185739733122699j)))]
_CROSS_IDS = [str(spec) for spec, _ in _CROSS_CASES[:8]] + [
    "near-inf3", "near-inf4", "reproducer", "seed-4711", "seed-101", "seed-7"]


def _read_slot_errors(spec, params, n_max, monkeypatch) -> np.ndarray:
    """Per node the oracle reads B_2n at off the family's table, in
    complex128 or in clongdouble, the largest error of the slots B_2n
    sqrt(Delta) against the node solve at K = N + 4 (in 80 bits where numpy
    has them), relative to 1 + the node's largest slot, the rule of
    test_series_80bit."""
    us, ts, lams, values, read = _oracle_nodes(spec, params, monkeypatch, n_max)
    N = 2 * n_max
    dtype = np.clongdouble if _HAS_80_BIT else np.complex128
    R = riccati_solution(zero_param_solution(np.asarray(ts, dtype), BranchPoint(ts, lams), N=N,
                                             K=N + 4, model=series.model_for(params)), +1).R
    slots = np.array([R.slot_value(1 - 2 * n) for n in range(n_max + 1)]).astype(complex)
    size = 1 + np.abs(slots).max(axis=0)
    return (np.abs(values * slots[0] - slots[1:]).max(axis=0) / size)[read < 2]


@pytest.mark.parametrize("n_max", [2, 3])
@pytest.mark.parametrize("spec, params", _CROSS_CASES, ids=_CROSS_IDS)
def test_odd_slot_ratios_match_the_node_solve_on_the_oracle_nodes(spec, params, n_max, monkeypatch):
    # Every slot the oracle reads from B_2n, in complex128 or again in
    # clongdouble where the first read is ill-conditioned, lies within 1e-13
    # of the node solve.  The other nodes, where the condition of both reads
    # is above the oracle's bounds, take the node solve itself.
    err = _read_slot_errors(spec, params, n_max, monkeypatch)
    assert np.all(err <= 1e-13), np.max(err)


@pytest.mark.parametrize("chart_cls, spec, params", [
    (D6Chart, *_CROSS_CASES[-3]), (D7Chart, EndpointSpec("d7", "zero_c", +1), 2 + 1j)],
    ids=["d6-seed-4711", "d7-zero_c"])
def test_a_table_rescaled_with_a_wrong_exponent_fails_the_node_solve_check(
        chart_cls, spec, params, monkeypatch):
    # One more power of the scale (c_p on D6, c on D7) on every numerator:
    # the check above must see it on the nodes it reads.
    right = chart_cls.numerator_scales

    def wrong(chart, n, rows, cols, dtype=np.complex128):
        return right(chart, n, rows, cols, dtype) * (chart.p.c_p if chart_cls is D6Chart else chart.c)

    monkeypatch.setattr(chart_cls, "numerator_scales", wrong)
    err = _read_slot_errors(spec, params, 2, monkeypatch)
    assert len(err) and np.max(err) > 1e-13


def _exact_d6_ratios(params, n_max, us):
    """B_2n(u) of D6 at the points us in mpmath at 50 digits, from the exact
    numerators at unit scale: B_2n = u^2n (u^2 - (c_m/c_p)^2) M_n(u) /
    ((u + 1)^n T(u)^5n), T = c_p^2 u^3 + c_m^2, with the coefficient of
    u^i X^j in M_n at unit scale times c_p^(8n - j) c_m^j."""
    with mpmath.workdps(50):
        cp, cm = mpmath.mpc(params.c_p), mpmath.mpc(params.c_m)
        out = []
        for n, M in enumerate(series._exact_numerators(D6Chart, series.D6Model, n_max), 1):
            coeffs = [sum(mpmath.mpf(int(a)) / M.den * cp ** (8 * n - j) * cm ** j
                          for j, a in enumerate(row)) for row in M.c]
            out.append([complex(u ** (2 * n) * (u * u - (cm / cp) ** 2)
                                * mpmath.polyval(coeffs[::-1], u) * u ** M.lo
                                / ((u + 1) ** n * (cp * cp * u ** 3 + cm * cm) ** (5 * n)))
                        for u in us])
        return np.array(out)


@pytest.mark.parametrize("n_max", [2, 3])
@pytest.mark.parametrize("spec, params", [(EndpointSpec("d6", "zero_c0", +1), P_GEN), *_NEAR_PASSES],
                         ids=["d6:zero_c0:+", "near-inf3", "near-inf4"])
def test_table_reads_match_the_exact_numerators_in_mpmath(spec, params, n_max, monkeypatch):
    # B_2n at every node the oracle reads off the family's table, in
    # complex128 or again in clongdouble, lies within 1e-13 of max(1, |B_2n|)
    # of B_2n from the exact numerators at 50 digits: a reference that
    # shares neither the table's rounding nor the node solve.  These legs
    # run near -c_m/c_p, where most of their nodes are ill-conditioned in
    # complex128 (zero_c0 at n_max = 3 leaves all 160 to the node solve).
    _, xs, k, values, read = _oracle_reads(spec, params, monkeypatch, n_max)
    with mpmath.workdps(50):
        us = [mpmath.mpc(x) if i < k else 1 / mpmath.mpc(x) for i, x in enumerate(xs)]
    exact = _exact_d6_ratios(params, n_max, us)
    err = (np.abs(values - exact) / np.maximum(1, np.abs(exact))).max(axis=0)[read < 2]
    assert np.all(err <= 1e-13), np.max(err)


@pytest.mark.parametrize("target", ["zero_cinf", "zero_c0", "inf1", "inf2", "inf3", "inf4"])
def test_without_a_wider_type_every_ill_node_takes_the_node_solve(target, monkeypatch):
    # Where numpy's clongdouble is no wider than complex128 the second read
    # is gated at _RATIO_CONDITION itself and takes no node: the node solve
    # takes every node whose complex128 condition exceeds it, and W_n is that
    # of the oracle with the clongdouble reads refused, bit for bit.
    spec = EndpointSpec("d6", target, +1)
    evaluate = series.OddSlotRatios.evaluate

    def refuse_wide(ratios, x, inverted=False):
        values, condition = evaluate(ratios, x, inverted)
        wide = ratios.coefficients.dtype != np.complex128
        return values, np.full_like(condition, np.inf) if wide else condition

    with monkeypatch.context() as patch:
        patch.setattr(series.OddSlotRatios, "evaluate", refuse_wide)
        want = voros_numeric_oracle(spec, P_GEN, n_max=2)
    with monkeypatch.context() as patch:
        patch.setattr(np, "clongdouble", np.complex128)
        got, xs, k, _, read = _oracle_reads(spec, P_GEN, monkeypatch)
    ratios = odd_slot_ratios(P_GEN, 2)
    condition = np.concatenate([ratios.evaluate(xs[:k])[1], ratios.evaluate(xs[k:], True)[1]])
    ill = np.count_nonzero(condition > voros._RATIO_CONDITION)
    assert np.count_nonzero(read == 2) == ill
    assert ill or target != "zero_c0"
    for n, diag in got.diagnostics.items():
        assert (diag["wide_nodes"], diag["node_solves"]) == (0, ill)
        assert got.values[n] == want.values[n] and diag["leg"] == want.diagnostics[n]["leg"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("nan"))])
def test_d7_closed_form_refuses_a_non_finite_parameter(bad):
    with pytest.raises(AlgebraError, match="parameter c = "):
        voros_closed_form(EndpointSpec("d7", "zero_c", +1), bad)


_HOMOGENEITY_NODES = 0.9 + 0.55j + 0.4 * np.exp(2j * np.pi * np.arange(12) / 12)


@pytest.mark.parametrize("s", [0.6 - 1.3j, -2.1 + 0.4j])
@pytest.mark.parametrize("params", [P_GEN, 1.3 - 0.4j], ids=["d6", "d7"])
def test_odd_slot_ratios_are_homogeneous_in_the_parameters(params, s):
    # The identities the family tables rest on, read off the t-jet node
    # solve, not off a table, at n = 1..3:
    #   D6: B_2n(u; s c_p, s c_m) = s^-2n B_2n(u; c_p, c_m),
    #   D7: B_2n(u; c) = c^-2n B_2n(u / c; 1), here with c = s params.
    us = _HOMOGENEITY_NODES
    if isinstance(params, Parameters):
        scaled = Parameters(s * params.c_inf, s * params.c_0)
        base, at_scale = (voros._node_ratios(u_chart(p), p, us, 3) for p in (params, scaled))
    else:
        s = s * params
        base, at_scale = (voros._node_ratios(u_chart(c), c, c * us, 3) for c in (1.0, s))
    for n in range(1, 4):
        want = s ** (-2 * n) * base[n - 1]
        assert np.all(np.abs(at_scale[n - 1] - want) <= 2e-13 * np.abs(want)), n


def test_the_family_table_cannot_be_corrupted_by_its_callers():
    # Every chart of a family reads one shared table: neither the table nor
    # the arrays odd_slot_ratios returns take a write, and a later chart's
    # B_2n stays as it was.
    other = Parameters(2 + 1j, 3 - 0.5j)
    us = _HOMOGENEITY_NODES
    before = odd_slot_ratios(other, 2)(us)
    ratios = odd_slot_ratios(P_GEN, 2)
    for array in (*ratios.numerators, ratios.coefficients, ratios.weights,
                  *(a for pair in series._slot_table(D6Chart, series.D6Model, 2, np.float64)
                    for a in pair),
                  *(M.c for M in series._exact_numerators(D6Chart, series.D6Model, 2))):
        with pytest.raises(ValueError):
            array[..., 0] = 1.0
    assert np.array_equal(odd_slot_ratios(other, 2)(us), before)


@pytest.mark.parametrize("params", [P_GEN, Parameters(2 + 1j, 3 - 0.5j),
                                    Parameters(1.2 - 0.7j, -0.4 + 1.1j), 2 + 1j, -0.7 + 1.3j])
def test_odd_slot_ratios_have_the_structure_of_their_chart(params):
    # B_2n (u - u_s)^n T^5n is a polynomial of degree (5 deg T - 1) n: 14n
    # for D6 (a zero of order 2n at u = 0 among them), 4n for D7; each
    # double pole is a simple zero.
    chart, ratios = u_chart(params), odd_slot_ratios(params, 3)
    deg_T = len(chart.turning_polynomial) - 1
    for n, (M, zeros) in enumerate(zip(ratios.numerators, ratios.zeros), 1):
        assert len(M) - 1 + len(zeros) == (5 * deg_T - 1) * n
        assert sorted(zeros.tolist(), key=abs) == sorted(
            [0j] * (2 * n * len(chart.finite_infinities_u)) + list(chart.double_poles_u.values()), key=abs)
        assert M[-1] != 0 and M[0] != 0
