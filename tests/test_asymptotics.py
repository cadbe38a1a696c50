"""Tests of the branch-profile layer: reference expansions of the six labeled
solution branches against the series machinery, repaired-row handling, the
rescaled-frame evaluation at small |t|, and the scaling-weight checks."""

import pytest

from p3wkb.algebra import Parameters

import asymptotics_reference as A
from asymptotics_reference import (
    BRANCHES,
    HOMOGENEITY_WEIGHTS,
    INF_BRANCHES,
    ZERO_BRANCHES,
    branch_point,
    branch_series,
    compare_profile,
    compare_slots,
    computed_profile,
    homogeneity_defects,
    reference_profile,
    reference_slots,
    relative_error,
    series_value,
)

P = Parameters(2 + 0.6j, 1.1 - 0.4j)

#: (near, far, eta) base points per regime: the far point is where the
#: acceptance gate applies, the near point anchors the decay check.
INF_T = (1e3, 1e4, 1.0)
ZERO_T = (1e-3, 1e-4, 4.0)

PROFILE_KEYS = ("lambda0", "mu0", "lambda_series", "mu_series",
                "r_minus1", "r_plus", "r_minus")

# Frozen ceilings ~5x the observed defects at the far base point.  The
# observed values themselves shrink by ~2 orders per decade of |t| (see the
# decay test), so these would be violated by any wrong table row.
PROFILE_CEILING = {
    "inf": {"lambda0": 1.5e-6, "mu0": 3e-5, "lambda_series": 1.5e-6,
            "mu_series": 7e-5, "r_minus1": 1.6e-6, "r_plus": 1.2e-6,
            "r_minus": 2e-6},
    "zero_cinf": {"lambda0": 2e-13, "mu0": 2e-13, "lambda_series": 3e-12,
                  "mu_series": 4e-11, "r_minus1": 5e-13, "r_plus": 7e-9,
                  "r_minus": 8e-9},
    "zero_c0": {"lambda0": 1.5e-10, "mu0": 1.7e-7, "lambda_series": 3e-9,
                "mu_series": 8e-5, "r_minus1": 2e-10, "r_plus": 2.5e-7,
                "r_minus": 9e-7},
}

SLOT_CEILING = {
    "inf": {
        "lambda_series": {0: 1.5e-6},
        "mu_series": {0: 3e-5, -1: 1.2e-4},
        "r_plus": {1: 1.6e-6, 0: 6e-4, -1: 0.1},
    },
    "zero_cinf": {
        "lambda_series": {0: 2e-13, -2: 2e-7, -4: 2e-6, -6: 2e-5},
        "mu_series": {0: 2e-13, -1: 1e-12, -2: 2.5e-7, -3: 4.5e-7,
                      -4: 2.2e-6, -5: 4.5e-6, -6: 2e-5},
        "r_plus": {1: 7e-9, -1: 1.1e-3, -3: 4.5e-3, -5: 1.8e-2},
    },
    "zero_c0": {
        "lambda_series": {0: 1.5e-10, -2: 1.4e-5, -4: 1.4e-4, -6: 1.3e-3},
        "mu_series": {0: 1.7e-7, -1: 1.8e-6, -2: 8e-6, -3: 3.2e-5,
                      -4: 1.2e-4, -5: 4e-4, -6: 1.2e-3},
        "r_plus": {1: 4e-7, 0: 1e-6, -1: 1e-2, -2: 2e-2, -3: 4e-2,
                   -4: 8e-2, -5: 0.17},
    },
}


def _regime(tag):
    return (INF_T, "inf") if tag in INF_BRANCHES else \
        (ZERO_T, tag)


# ---------------------------------------------------------------------------
# Profile comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", BRANCHES)
def test_profile_within_acceptance_gate(tag):
    (_, far, eta), _ = _regime(tag)
    errs = compare_profile(tag, far, P, eta)
    assert set(errs) == set(PROFILE_KEYS)
    for key, err in errs.items():
        assert err < 0.1, (tag, key, err)


@pytest.mark.parametrize("tag", BRANCHES)
def test_profile_frozen_ceilings(tag):
    (_, far, eta), bucket = _regime(tag)
    errs = compare_profile(tag, far, P, eta)
    for key, ceiling in PROFILE_CEILING[bucket].items():
        assert errs[key] < ceiling, (tag, key, errs[key], ceiling)


@pytest.mark.parametrize("tag", BRANCHES)
def test_profile_defects_decay(tag):
    # A wrong table row leaves a defect that does not shrink as the base
    # point moves a decade deeper into the branch's regime; every entry
    # (except the eta-tail-limited mu_series at the small-|t| branches)
    # must shrink by well over 5x per decade.
    (near, far, eta), _ = _regime(tag)
    near_errs = compare_profile(tag, near, P, eta)
    far_errs = compare_profile(tag, far, P, eta)
    keys = PROFILE_KEYS if tag in INF_BRANCHES else \
        tuple(k for k in PROFILE_KEYS if k != "mu_series")
    for key in keys:
        assert far_errs[key] < near_errs[key] / 5, (tag, key)


@pytest.mark.parametrize("tag", BRANCHES)
def test_slot_tables_frozen_ceilings(tag):
    (_, far, _), bucket = _regime(tag)
    errs = compare_slots(tag, far, P)
    for key, ceilings in SLOT_CEILING[bucket].items():
        for m, ceiling in ceilings.items():
            assert m in errs[key], (tag, key, m)
            assert errs[key][m] < ceiling, (tag, key, m, errs[key][m])


@pytest.mark.parametrize("tag", ("inf1", "inf3"))
def test_inf_slot_sum_matches_profile(tag):
    # The large-|t| R tables are polynomial in 1/eta, so the jet-extracted
    # slots must resum to the directly evaluated profile exactly.
    slots = reference_slots(tag, 1e4, P)
    prof = reference_profile(tag, 1e4, P, 1.0)
    resummed = series_value(slots["r_plus"], 1.0)
    assert abs(resummed - prof["r_plus"]) < 1e-12 * abs(prof["r_plus"])


# ---------------------------------------------------------------------------
# Repaired rows: the verbatim variants exhibit the defects
# ---------------------------------------------------------------------------


def test_inf2_verbatim_row_defect():
    have = computed_profile("inf2", 1e4, P, 1.0)
    good = reference_profile("inf2", 1e4, P, 1.0)
    bad = reference_profile("inf2", 1e4, P, 1.0, corrected=False)
    e_good = relative_error(have["r_plus"], good["r_plus"])
    e_bad = relative_error(have["r_plus"], bad["r_plus"])
    assert e_bad > 1e-3
    assert e_bad > 1000 * e_good


def test_inf3_verbatim_row_defect():
    have = computed_profile("inf3", 1e4, P, 1.0)
    good = reference_profile("inf3", 1e4, P, 1.0)
    bad = reference_profile("inf3", 1e4, P, 1.0, corrected=False)
    e_good = relative_error(have["r_plus"], good["r_plus"])
    e_bad = relative_error(have["r_plus"], bad["r_plus"])
    assert e_bad > 3e-6
    assert e_bad > 20 * e_good


def test_zero_cinf_verbatim_lambda_row_defect():
    # The repaired eta^-2 lambda slot converges like t^2, the verbatim one
    # only like t: the decay rate, not just the size, tells them apart.
    errs = {}
    for t in (1e-3, 1e-4):
        lam, _, _ = branch_series("zero_cinf", t, P)
        for corr in (True, False):
            ref = reference_slots("zero_cinf", t, P, corrected=corr)
            errs[t, corr] = relative_error(lam[-2], ref["lambda_series"][-2])
    assert errs[1e-4, False] > 100 * errs[1e-4, True]
    assert errs[1e-4, True] < 0.02 * errs[1e-3, True]      # ~t^2 decay
    assert errs[1e-4, False] > 0.05 * errs[1e-3, False]    # only ~t decay


# ---------------------------------------------------------------------------
# Case conventions and input validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", BRANCHES)
def test_minus_case_swaps_riccati_orientations(tag):
    (_, far, eta), _ = _regime(tag)
    plus = reference_profile(tag, far, P, eta, case=+1)
    minus = reference_profile(tag, far, P, eta, case=-1)
    assert minus["r_minus1"] == -plus["r_minus1"]
    assert minus["r_plus"] == plus["r_minus"]
    assert minus["r_minus"] == plus["r_plus"]
    for key in ("lambda0", "mu0", "lambda_series", "mu_series"):
        assert minus[key] == plus[key]


def test_input_validation():
    with pytest.raises(ValueError):
        reference_profile("inf1", 1e4, P, 1.0, case=0)
    with pytest.raises(ValueError):
        reference_profile("inf1", 1e4, P, 0.0)
    with pytest.raises(ValueError):
        reference_profile("nope", 1e4, P, 1.0)
    with pytest.raises(ValueError):
        branch_point("nope", 1e4, P)


@pytest.mark.parametrize("tag,t", [
    ("inf1", 1e4), ("inf2", 1e4), ("inf3", 1e4), ("inf4", 1e4),
    ("zero_cinf", 1e-4), ("zero_c0", 1e-4),
])
def test_branch_point_matches_reference_root(tag, t):
    b = branch_point(tag, t, P)
    ref = reference_profile(tag, t, P, 1.0)["lambda0"]
    assert relative_error(b.lambda0, ref) < 1e-5


# ---------------------------------------------------------------------------
# Rescaled-frame evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ZERO_BRANCHES)
def test_rescaled_route_matches_direct_route(tag, monkeypatch):
    # At t = 5e-3 both the direct evaluation and the rescaled-frame
    # evaluation converge; the mapping between frames is an exact identity,
    # so they must agree to the direct route's conditioning floor.
    t = 5e-3
    rescaled = branch_series(tag, t, P)
    monkeypatch.setattr(A, "RESCALE_BELOW", 1e-3)
    direct = branch_series(tag, t, P)
    for table_r, table_d in zip(rescaled, direct):
        for m in table_d:
            assert relative_error(table_d[m], table_r[m]) < 1e-7, (tag, m)


# ---------------------------------------------------------------------------
# Scaling weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", (2.0, 1.7))
def test_homogeneity_defects_vanish(r):
    defects = homogeneity_defects(P, 1.3 + 0.7j, 1.0, r)
    assert set(defects) == set(HOMOGENEITY_WEIGHTS)
    for key, defect in defects.items():
        assert defect < 1e-10, (key, defect)
