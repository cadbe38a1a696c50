"""Stratification of parameter space: wall/chamber classification, the
wall -> jumping-coefficient map, exchange symmetry, agreement with the
summability report, and the empirical correspondence between walls and
degenerations of the traced curve geometry."""

import cmath
import math
import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from p3wkb.algebra import AlgebraError, NearDegenerateWarning, Parameters
from p3wkb.borel import borel_sum_F, borel_sum_G, summability_report
from p3wkb.geometry import stokes_diagram
from p3wkb.walls import (
    CHAMBER_SIGNS,
    StratificationError,
    Stratum,
    WALL_TABLE,
    classify,
    jumping_coefficients,
)

ROMAN = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII"]

# one representative parameter per wall (W2..W5 are printed examples)
WALL_POINTS = {
    "W1": Parameters(2 + 1j, 3j),
    "W2": Parameters(2, 2 - 1j),
    "W3": Parameters(1j, 3 + 0.5j),
    "W4": Parameters(-2 + 1j, 2 + 0.5j),
    "W5": Parameters(-3 + 1j, 0.5j),
    "W6": Parameters(-2 + 1j, -2 + 0.5j),
    "W7": Parameters(1j, -3 + 0.5j),
    "W8": Parameters(2 + 1j, -2 + 0.5j),
}

CHAMBER_POINTS = {
    "I": Parameters(2 + 0.3j, 1 - 0.2j),
    "II": Parameters(2 + 1j, 3),
    "III": Parameters(-1 + 1j, 2),
    "IV": Parameters(-2 + 1j, 1),
    "V": Parameters(-2 + 1j, -1),
    "VI": Parameters(-1 + 1j, -2),
    "VII": Parameters(1 + 1j, -2),
    "VIII": Parameters(2 + 1j, -1),
}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", sorted(WALL_POINTS))
def test_wall_points_classify(label):
    s = classify(WALL_POINTS[label])
    assert s == Stratum("wall", label)


@pytest.mark.parametrize("label", ROMAN)
def test_chamber_points_classify(label):
    s = classify(CHAMBER_POINTS[label])
    assert s == Stratum("chamber", label)


def test_wall_labels_are_anchored_between_chambers():
    # walls at projection angle 45(k-1) degrees separate chambers
    # (k-1, k) cyclically; in particular W2 separates I and II,
    # W3 separates II and III, W4 III and IV, W5 IV and V.
    for k in range(8):
        theta = math.radians(45 * k)
        below = classify(Parameters(
            complex(2 * math.cos(theta - 0.05), 0.4),
            complex(2 * math.sin(theta - 0.05), -0.3)))
        above = classify(Parameters(
            complex(2 * math.cos(theta + 0.05), 0.4),
            complex(2 * math.sin(theta + 0.05), -0.3)))
        assert below == Stratum("chamber", ROMAN[k - 1])
        assert above == Stratum("chamber", ROMAN[k])


def test_crossing_w2_flips_between_I_and_II():
    # tolerance: 1e-12 off the wall still counts as the wall, 1e-6 does not
    assert classify(Parameters(2, 2 - 1j + 1e-12)).label == "W2"
    assert classify(Parameters(2, 2 - 1j + 1e-6)) == Stratum("chamber", "II")
    assert classify(Parameters(2, 2 - 1j - 1e-6)) == Stratum("chamber", "I")


def test_corner_locus_raises():
    with pytest.raises(StratificationError, match="corner"):
        classify(Parameters(1j, 0.5j))
    with pytest.raises(StratificationError):
        classify(Parameters(1e-11 + 1j, 0.5j))


def test_chamber_sign_table_is_consistent():
    assert set(CHAMBER_SIGNS.values()) == set(ROMAN)
    for (si, s0, sp, sm) in CHAMBER_SIGNS:
        # 2 c_p = c_inf + c_0 and 2 c_m = c_inf - c_0 force one sign:
        # equal Re-signs of c_inf, c_0 fix Re c_p, unequal fix Re c_m
        if si == s0:
            assert sp == si
        else:
            assert sm == si


# ---------------------------------------------------------------------------
# Jumping coefficients
# ---------------------------------------------------------------------------

def test_jumping_coefficients_per_wall():
    expected = {
        "W1": {"G(c_0)"}, "W5": {"G(c_0)"},
        "W3": {"G(c_inf)"}, "W7": {"G(c_inf)"},
        "W2": {"F(c_m)"}, "W6": {"F(c_m)"},
        "W4": {"F(c_p)"}, "W8": {"F(c_p)"},
    }
    for label, want in expected.items():
        assert jumping_coefficients(Stratum("wall", label)) == want


def test_jumping_coefficients_on_chambers_empty():
    for label in ROMAN:
        assert jumping_coefficients(Stratum("chamber", label)) == set()


def test_summability_report_agrees_with_walls():
    for label, p in WALL_POINTS.items():
        jumping = jumping_coefficients(classify(p))
        report = summability_report(p)
        for key, summable in report.items():
            assert summable == (key not in jumping)
    for p in CHAMBER_POINTS.values():
        assert all(summability_report(p).values())


def test_wall_point_is_not_borel_summable():
    # Re c_0 = 3e-11 sits inside the wall's relative tolerance.
    p = Parameters(1 + 0.5j, 3e-11 + 1j)
    assert classify(p) == Stratum("wall", "W1")
    assert not borel_sum_G(p.c_0, 1.0).summable
    assert summability_report(p)["G(c_0)"] is False


@pytest.mark.parametrize("p, chamber", [(Parameters(1e-6 + 1j, 3 + 0.5j), "II"),
                                        (Parameters(2 + 1j, 1e-6 + 3j), "I")],
                         ids=["near-W3", "near-W1"])
def test_tracer_reports_no_loop_where_classify_sees_a_chamber(p, chamber):
    # Re c_inf (Re c_0) is 1e-6 of its size: off the wall, so the residue at
    # the double pole is not purely imaginary and no loop may be reported.
    assert classify(p) == Stratum("chamber", chamber)
    assert stokes_diagram(p).degenerations == []


def test_small_parameter_off_the_axis_is_in_a_chamber():
    # |c_0| = 1e-3: Re c_0 = 5e-12 is 5e-9 of |c_0|, well off the wall.
    p = Parameters(2 + 1j, 5e-12 + 1e-3j)
    assert classify(p).kind == "chamber"
    assert all(summability_report(p).values())
    assert borel_sum_G(p.c_0, 1.0).summable


#: quantity -> (model series, summability-report key)
_BLOCKS = {"c_inf": (borel_sum_G, "G(c_inf)"), "c_0": (borel_sum_G, "G(c_0)"),
           "c_p": (borel_sum_F, "F(c_p)"), "c_m": (borel_sum_F, "F(c_m)")}


@given(st.sampled_from(sorted(_BLOCKS)),
       st.sampled_from([0.0, 1e-13, -3e-11, 9e-11, -1.1e-10, 5e-10, 1e-6]),
       st.floats(-4.0, 0.5),
       st.floats(0.2, 2.0),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
@settings(max_examples=200, deadline=None)
def test_walls_and_summability_agree_near_walls(near, rel_re, log_size, im, other):
    """classify, jumping_coefficients, summability_report and the lateral
    Borel sums give one verdict per quantity, also at small |c|."""
    size = 10.0 ** log_size
    a = size * complex(rel_re * im, im)        # Re a / |a| ~ rel_re
    b = size * other
    c_inf, c_0 = {"c_inf": (a, b), "c_0": (b, a),
                  "c_p": (a + b, a - b), "c_m": (b + a, b - a)}[near]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearDegenerateWarning)
            p = Parameters(c_inf, c_0)
    except (AlgebraError, NearDegenerateWarning):
        assume(False)
    report = summability_report(p)
    off_axis = {}
    for name, (borel_sum, key) in _BLOCKS.items():
        c = getattr(p, name)
        side = "minus" if c.real >= 0 else "plus"   # away from the Gamma poles
        off_axis[key] = borel_sum(c, 1.0, side).summable
        assert report[key] is off_axis[key]
    jumping = {key for key, ok in off_axis.items() if not ok}
    try:
        stratum = classify(p)
    except StratificationError:
        assert len(jumping) >= 2
        return
    assert jumping_coefficients(stratum) == jumping


# ---------------------------------------------------------------------------
# Continuity and exchange symmetry
# ---------------------------------------------------------------------------

def test_classification_continuous_off_walls():
    rng = random.Random(7)
    for label, p in CHAMBER_POINTS.items():
        for _ in range(20):
            q = Parameters(
                p.c_inf + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-6,
                p.c_0 + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-6)
            assert classify(q) == Stratum("chamber", label)


WALL_SWAP = {"W1": "W3", "W3": "W1", "W5": "W7", "W7": "W5",
             "W2": "W2", "W6": "W6", "W4": "W8", "W8": "W4"}
CHAMBER_SWAP = {"I": "II", "II": "I", "III": "VIII", "VIII": "III",
                "IV": "VII", "VII": "IV", "V": "VI", "VI": "V"}


_COEFF_SWAP = {"G(c_inf)": "G(c_0)", "G(c_0)": "G(c_inf)",
               "F(c_p)": "F(c_p)", "F(c_m)": "F(c_m)"}


def test_exchange_symmetry_on_walls():
    for label, p in WALL_POINTS.items():
        s = classify(p.swapped())
        assert s == Stratum("wall", WALL_SWAP[label])
        mapped = {_COEFF_SWAP[k] for k in jumping_coefficients(classify(p))}
        assert jumping_coefficients(s) == mapped


def test_exchange_symmetry_on_chambers():
    for label, p in CHAMBER_POINTS.items():
        assert classify(p.swapped()) == Stratum("chamber", CHAMBER_SWAP[label])


# ---------------------------------------------------------------------------
# Wall <-> degeneration correspondence
# ---------------------------------------------------------------------------

#: what the curve tracer must find on each wall
_EXPECTED_DEGENERATION = {
    "G(c_0)": ("loop", "zero_c0"),
    "G(c_inf)": ("loop", "zero_cinf"),
    "F(c_m)": ("triangle", None),
    "F(c_p)": ("triangle", None),
}


@pytest.mark.parametrize("label", sorted(WALL_POINTS))
def test_degeneration_found_on_every_wall(label):
    p = WALL_POINTS[label]
    (coefficient,) = jumping_coefficients(classify(p))
    kind, pole = _EXPECTED_DEGENERATION[coefficient]
    records = stokes_diagram(p).degenerations
    matches = [g for g in records if g.kind == kind
               and (pole is None or pole in g.participants)]
    assert matches, f"no {kind} degeneration found on {label}"


def _turned(p, degrees):
    """The D6 parameters p with their imaginary one turned by ``degrees``."""
    turn = cmath.exp(1j * math.radians(degrees))
    return Parameters(p.c_inf * turn if p.c_inf.real == 0 else p.c_inf,
                      p.c_0 * turn if p.c_0.real == 0 else p.c_0)


def _chamber_sample(rng, k):
    """Random generic parameter strictly inside chamber k (0-based)."""
    while True:
        theta = math.radians(45 * k + rng.uniform(6.0, 39.0))
        r = rng.uniform(0.8, 3.0)
        try:
            p = Parameters(
                complex(r * math.cos(theta), rng.uniform(-1, 1)),
                complex(r * math.sin(theta), rng.uniform(-1, 1)))
        except AlgebraError:
            continue
        return p


@pytest.mark.parametrize("k", range(8))
def test_no_degeneration_inside_chamber(k):
    rng = random.Random(1000 + k)
    for _ in range(12):
        p = _chamber_sample(rng, k)
        assert classify(p) == Stratum("chamber", ROMAN[k])
        assert stokes_diagram(p).degenerations == []


@given(st.integers(min_value=0, max_value=7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_chamber_points_classify_and_stay_put(k, pyrandom):
    p = _chamber_sample(pyrandom, k)
    s = classify(p)
    assert s == Stratum("chamber", ROMAN[k])
    nudged = Parameters(p.c_inf + 1e-6j, p.c_0 - 1e-6)
    try:
        assert classify(nudged).kind == "chamber"
    except StratificationError:  # pragma: no cover - needs a wall hit
        pass
    assert classify(p.swapped()) == Stratum("chamber", CHAMBER_SWAP[ROMAN[k]])
