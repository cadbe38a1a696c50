"""Large- and small-|t| profiles of the labeled solution branches: the
reference that tests/test_asymptotics.py checks the series solver against.
It also holds ``phi_primitive``, the t-form of the u-charts' primitive of
sqrt(q) du, against which tests/test_algebra.py checks ``D6Chart.phi``.

Each labeled branch of the two-parameter family carries a reference table:
the first orders of the algebraic root lambda_0, its momentum mu_0, the
eta-corrected series lambda^(0) / mu^(0), the square-root slot R_{-1}, and
both orientations R_+ / R_- of the Riccati series.  This module evaluates
those tables, compares them against the values the series machinery produces
at a concrete base point, and checks the scaling weights every quantity must
obey under (t, c_inf, c_0, eta) -> (r^-2 t, r^-1 c_inf, r^-1 c_0, r eta).

Conventions
-----------
* s = principal sqrt(t).  The four large-|t| branches have lambda_0 ~ s, -s,
  i s, -i s and are tagged inf1..inf4, matching _classify_branch.
* x = eta^-1.  R tables are stored premultiplied by x ("xr"), which makes
  them regular at x = 0, so eta-slots can be read off by jet expansion in x.
* R_- equals R_+ evaluated at -eta (odd slots flip sign).  The "minus" case
  of a branch label flips R_{-1} and swaps R_+ / R_-; lambda- and mu-series
  are case-independent.
* The eta-linear part of the R_+/R_- table must reproduce the R_{-1} table
  row by row, and every other row must converge against the computed series
  as the base point moves deeper into the branch's regime.  Four deep rows
  fail those cross-checks and are repaired or truncated here (pass
  corrected=False for the verbatim variants):

  - the inf2 1/t row: its eta-linear part contradicts the branch's own
    R_{-1} row in the sign of c_0; repaired.
  - the eta^0 part of the inf3 s^-3 row: off from the computed side by a
    constant i 12 c_0 / 64 over three decades of |t|, while the sign-flipped
    c_0 term converges like s^-1; repaired.
  - the c_0^2 eta^-2 term in the zero_cinf lambda-series t^2 row: with the
    verbatim sign the eta^-2 slot's t^2 coefficient is (4c_inf^2 -
    11c_0^2)/c_inf^7, while an exact symbolic solve of the root recursion
    gives (4c_inf^2 - 13c_0^2)/c_inf^7; the sign-flipped row matches every
    x-slot of the computed series at truncation level; repaired.
  - the t^1 rows of both small-|t| branches' R tables: garbled beyond repair
    (their eta-linear parts cannot be reconciled with R_{-1}); those tables
    stop at their last verified row, so their truncation error is O(t)
    against a leading term of size 1/t.
"""

from __future__ import annotations

import cmath

import numpy as np

from p3wkb.algebra import (
    AlgebraError,
    BranchPoint,
    Parameters,
    delta,
    lambda0_branches,
    mu0,
)
from p3wkb.numerics import Jet
from p3wkb.series import D6Model, riccati_solution, zero_param_solution
from p3wkb.voros import EndpointSpec, voros_closed_form

from chart_reference import turning_points


class BranchCutError(AlgebraError):
    """A logarithm in the t-form primitive hit its branch point."""


def phi_primitive(b: BranchPoint, p: Parameters) -> complex:
    """Closed-form primitive of the leading Riccati slot along a branch:
    its t-derivative is R_{-1}.  Uses principal logarithms; continuity along
    a path is the caller's concern (evaluate pointwise and chain).  The
    t-form of the u-charts' primitive ``D6Chart.phi``, kept as its
    independent reference."""
    t, lam = complex(b.t), complex(b.lambda0)
    r = b.sign * cmath.sqrt(delta(b, p))
    ci, c0 = p.c_inf, p.c_0
    a1 = 2 * lam - ci + t * r
    a2 = 2 * lam - ci - t * r
    b1 = 2 * t * t - c0 * t * lam + t * t * lam * r
    b2 = 2 * t * t - c0 * t * lam - t * t * lam * r
    amax = max(abs(a1), abs(a2), abs(b1), abs(b2), 1.0)
    if min(abs(a1), abs(a2)) < 1e-14 * amax or min(abs(b1), abs(b2)) < 1e-14 * amax:
        raise BranchCutError("logarithm argument vanishes in the phase primitive")
    return 0.5 * (4 * t * r - ci * cmath.log(a1 / a2) - c0 * cmath.log(b1 / b2))


BRANCHES = ("inf1", "inf2", "inf3", "inf4", "zero_cinf", "zero_c0")
INF_BRANCHES = BRANCHES[:4]
ZERO_BRANCHES = BRANCHES[4:]

#: Scaling weight w of each quantity: evaluating at (r^-2 t, r^-1 c, r eta)
#: multiplies the quantity by r^w.
HOMOGENEITY_WEIGHTS = {
    "lambda0": -1,
    "mu0": 0,
    "delta": 2,
    "turning_point": -2,
    "riccati": 2,
    "riccati_odd": 2,
    "phi": -1,
    "lambda_series": -1,
    "mu_series": 0,
    "voros_inf": 0,
    "voros_zero": 0,
}


def relative_error(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def series_value(series, eta: complex) -> complex:
    """Numeric value of a truncated eta-series at a concrete eta.

    ``series`` is an ``EtaSeries`` or a ``{eta_power: value}`` slot dict, as
    built by reference_slots and branch_series.  The sum runs over the slots
    given; no truncation tail is added."""
    slots = series if isinstance(series, dict) else series.slot_values()
    eta = complex(eta)
    return sum(v * eta ** m for m, v in slots.items())


def _classify_branch(b: BranchPoint, p: Parameters) -> str:
    """Label a branch at large or small |t| by its leading behavior:
    inf1..inf4 (lambda0 ~ +-t^{1/2}, +-i t^{1/2}), zero_cinf (lambda0 -> c_inf),
    zero_c0 (lambda0 ~ t/c_0), simple_pole (lambda0 ~ +-sqrt(c_0 t/c_inf));
    'generic' if nothing matches well."""
    t, lam = b.t, b.lambda0
    if abs(t) >= 100:
        root = np.sqrt(complex(t))
        cands = {"inf1": root, "inf2": -root, "inf3": 1j * root, "inf4": -1j * root}
        label, ref = min(cands.items(), key=lambda kv: abs(lam - kv[1]))
        if abs(lam - ref) < 0.5 * abs(root):
            return label
        return "generic"
    if abs(t) <= 0.01 * min(abs(p.c_inf), abs(p.c_0)) ** 2:
        if abs(lam - p.c_inf) < 0.1 * abs(p.c_inf):
            return "zero_cinf"
        if abs(lam - t / p.c_0) < 0.1 * abs(t / p.c_0):
            return "zero_c0"
        sp = np.sqrt(complex(p.c_0 * t / p.c_inf))
        if min(abs(lam - sp), abs(lam + sp)) < 0.5 * abs(sp):
            return "simple_pole"
    return "generic"


def branch_point(tag: str, t0: complex, p: Parameters) -> BranchPoint:
    """The root of the leading quartic at t0 whose asymptotic label is tag."""
    if tag not in BRANCHES:
        raise ValueError(f"unknown branch tag {tag!r}")
    for b in lambda0_branches(t0, p):
        if _classify_branch(b, p) == tag:
            return b
    raise ValueError(f"no branch at t={t0} is recognizable as {tag!r}; "
                     "|t| may be too moderate for the asymptotic labels")


# ---------------------------------------------------------------------------
# Reference tables
#
# Each _ref_* returns {lambda0, mu0, lambda_series, mu_series, r_minus1,
# xr_plus}.  The three *_series entries are functions of x = eta^-1 and
# accept a complex or a Jet; xr_plus is x * R_+ (upper-sign orientation).
# ---------------------------------------------------------------------------


def _ref_inf1(t: complex, p: Parameters, x):
    s = cmath.sqrt(t)
    ci, c0 = p.c_inf, p.c_0
    lam0 = s + (ci - c0) / 4 + (ci - c0) * (3 * ci + c0) / (32 * s)
    return {
        "lambda0": lam0,
        "mu0": (ci + c0) / (4 * s),
        "lambda_series": lam0 + 0 * x,
        "mu_series": (ci + c0 - x) / (4 * s),
        "r_minus1": 2 / s - (ci + c0) / (4 * t)
                    + (3 * ci - c0) * (ci - 3 * c0) / (64 * s ** 3),
        "xr_plus": 2 / s - (ci + c0 - x) / (4 * t)
                   + (3 * ci * ci - 10 * ci * c0 + 3 * c0 * c0
                      + (6 * c0 - 10 * ci) * x - x * x) / (64 * s ** 3),
    }


def _ref_inf2(t: complex, p: Parameters, x, corrected: bool = True):
    s = cmath.sqrt(t)
    ci, c0 = p.c_inf, p.c_0
    lam0 = -s + (ci - c0) / 4 - (ci - c0) * (3 * ci + c0) / (32 * s)
    # The uncorrected 1/t row reads -(ci - c0 - x); its eta-linear part then
    # contradicts the branch's own R_{-1} row, whose 1/t coefficient is
    # -(ci + c0)/4.  The cross-check forces the c0 sign flipped.
    mid = (ci + c0 - x) if corrected else (ci - c0 - x)
    return {
        "lambda0": lam0,
        "mu0": -(ci + c0) / (4 * s),
        "lambda_series": lam0 + 0 * x,
        "mu_series": -(ci + c0 - x) / (4 * s),
        "r_minus1": -2 / s - (ci + c0) / (4 * t)
                    - (3 * ci - c0) * (ci - 3 * c0) / (64 * s ** 3),
        "xr_plus": -2 / s - mid / (4 * t)
                   - (3 * ci * ci - 10 * ci * c0 + 3 * c0 * c0
                      + (6 * c0 - 10 * ci) * x - x * x) / (64 * s ** 3),
    }


def _ref_inf3(t: complex, p: Parameters, x, corrected: bool = True):
    s = cmath.sqrt(t)
    ci, c0 = p.c_inf, p.c_0
    lam0 = 1j * s + (ci + c0) / 4 - 1j * (ci + c0) * (3 * ci - c0) / (32 * s)
    # The uncorrected s^-3 row carries (10 ci - 6 c0) at eta^0; the computed
    # series pins the c0 term's sign the other way (see module docstring).
    lin = (10 * ci + 6 * c0) if corrected else (10 * ci - 6 * c0)
    return {
        "lambda0": lam0,
        "mu0": 1 + 1j * (ci - c0) / (4 * s),
        "lambda_series": lam0 + 0 * x,
        "mu_series": 1 + 1j * (ci - c0 + x) / (4 * s),
        "r_minus1": 2j / s - (ci - c0) / (4 * t)
                    - 1j * (3 * ci + c0) * (ci + 3 * c0) / (64 * s ** 3),
        "xr_plus": 2j / s + (x - ci + c0) / (4 * t)
                   + 1j * (-3 * ci * ci - 10 * ci * c0 - 3 * c0 * c0
                           + lin * x + x * x) / (64 * s ** 3),
    }


def _ref_inf4(t: complex, p: Parameters, x):
    s = cmath.sqrt(t)
    ci, c0 = p.c_inf, p.c_0
    lam0 = -1j * s + (ci + c0) / 4 + 1j * (ci + c0) * (3 * ci - c0) / (32 * s)
    return {
        "lambda0": lam0,
        "mu0": 1 - 1j * (ci - c0) / (4 * s),
        "lambda_series": lam0 + 0 * x,
        "mu_series": 1 - 1j * (ci - c0 + x) / (4 * s),
        "r_minus1": -2j / s - (ci - c0) / (4 * t)
                    + 1j * (3 * ci + c0) * (ci + 3 * c0) / (64 * s ** 3),
        "xr_plus": -2j / s + (x - ci + c0) / (4 * t)
                   - 1j * (-3 * ci * ci - 10 * ci * c0 - 3 * c0 * c0
                           + (10 * ci + 6 * c0) * x + x * x) / (64 * s ** 3),
    }


def _ref_zero_cinf(t: complex, p: Parameters, x, corrected: bool = True):
    ci, c0 = p.c_inf, p.c_0
    x2 = x * x
    # The uncorrected t^2 row carries +c0^2 x^2 in the numerator; with that
    # sign the x^2 slot's t^2 coefficient comes out (4 ci^2 - 11 c0^2)/ci^7
    # while the series recursion forces (4 ci^2 - 13 c0^2)/ci^7.  Flipping
    # the one sign reconciles every x-slot at truncation level.
    c0x = (-c0 ** 2 if corrected else c0 ** 2) * x2
    return {
        "lambda0": ci - c0 * t / ci ** 2 + (ci ** 2 - 2 * c0 ** 2) * t ** 2 / ci ** 5,
        "mu0": (ci + c0) / (2 * ci) - (ci ** 2 - c0 ** 2) * t / (2 * ci ** 4)
               - 3 * c0 * (ci ** 2 - c0 ** 2) * t ** 2 / (2 * ci ** 7),
        "lambda_series": ci - c0 * t / (ci ** 2 - x2)
            + (ci ** 4 - 2 * ci ** 2 * c0 ** 2 - 2 * ci ** 2 * x2
               + c0x + x2 * x2) * t ** 2
              / (ci * (ci ** 2 - 4 * x2) * (ci ** 2 - x2) ** 2),
        "mu_series": (ci + c0 - x) / (2 * ci)
            - (ci ** 2 - (c0 - x) ** 2) * t / (2 * ci ** 2 * (ci ** 2 - x2))
            - 3 * (ci ** 2 * c0 - c0 ** 3 - ci ** 2 * x + 3 * c0 ** 2 * x
                   - 3 * c0 * x2 + x * x2) * t ** 2
              / (2 * ci ** 3 * (ci ** 2 - 4 * x2) * (ci ** 2 - x2)),
        "r_minus1": ci / t - 2 * c0 / ci ** 2
                    + (5 * ci ** 2 - 9 * c0 ** 2) * t / (2 * ci ** 5),
        # table stops at the t^0 row; the t^1 row fails the cross-check
        "xr_plus": ci / t - 2 * c0 / (ci ** 2 - x2),
    }


def _ref_zero_c0(t: complex, p: Parameters, x):
    ci, c0 = p.c_inf, p.c_0
    x2 = x * x
    return {
        "lambda0": t / c0 + ci * t ** 2 / c0 ** 4
                   + (3 * ci ** 2 - c0 ** 2) * t ** 3 / c0 ** 7,
        "mu0": (ci + c0) / (2 * c0) + (ci ** 2 - c0 ** 2) * t / (2 * c0 ** 4),
        "lambda_series": t / c0 + ci * t ** 2 / (c0 ** 2 * (c0 ** 2 - x2))
            + (3 * ci ** 2 - c0 ** 2 + x2) * t ** 3
              / (c0 ** 3 * (c0 ** 2 - 4 * x2) * (c0 ** 2 - x2)),
        "mu_series": (ci + c0 - x) / (2 * (c0 - x))
            + (ci ** 2 - (c0 - x) ** 2) * t
              / (2 * c0 * (c0 - 2 * x) * (c0 - x) ** 2),
        "r_minus1": c0 / t - 2 * ci / c0 ** 2
                    + (5 * c0 ** 2 - 9 * ci ** 2) * t / (2 * c0 ** 5),
        # table stops at the t^0 row; the t^1 row fails the cross-check
        "xr_plus": (c0 + x) / t - 2 * ci / (c0 * (c0 + x)),
    }


_REF_BUILDERS = {
    "inf1": _ref_inf1,
    "inf2": _ref_inf2,
    "inf3": _ref_inf3,
    "inf4": _ref_inf4,
    "zero_cinf": _ref_zero_cinf,
    "zero_c0": _ref_zero_c0,
}


def _ref_table(tag: str, t: complex, p: Parameters, x, corrected: bool):
    if tag not in _REF_BUILDERS:
        raise ValueError(f"unknown branch tag {tag!r}")
    build = _REF_BUILDERS[tag]
    if tag in ("inf2", "inf3", "zero_cinf"):
        return build(t, p, x, corrected=corrected)
    return build(t, p, x)


def reference_profile(tag: str, t: complex, p: Parameters, eta: complex, *,
                      case: int = +1, corrected: bool = True) -> dict:
    """Reference values {lambda0, mu0, lambda_series, mu_series, r_minus1,
    r_plus, r_minus} at a concrete (t, eta).  case=-1 gives the companion
    labeling that flips R_{-1} and swaps R_+/R_-."""
    if case not in (+1, -1):
        raise ValueError("case must be +1 or -1")
    eta = complex(eta)
    if eta == 0:
        raise ValueError("eta must be nonzero")
    x = 1 / eta
    tab = _ref_table(tag, complex(t), p, x, corrected)
    tab_m = _ref_table(tag, complex(t), p, -x, corrected)
    r_plus = eta * tab["xr_plus"]
    r_minus = -eta * tab_m["xr_plus"]     # R_-(eta) = R_+(-eta)
    if case < 0:
        r_plus, r_minus = r_minus, r_plus
    return {
        "lambda0": tab["lambda0"],
        "mu0": tab["mu0"],
        "lambda_series": tab["lambda_series"],
        "mu_series": tab["mu_series"],
        "r_minus1": case * tab["r_minus1"],
        "r_plus": r_plus,
        "r_minus": r_minus,
    }


def reference_slots(tag: str, t: complex, p: Parameters, *, order: int = 8,
                    corrected: bool = True) -> dict:
    """Eta-slot tables {lambda_series, mu_series, r_plus} of the reference
    expansions, obtained by jet expansion in x = eta^-1 around x = 0.  Keys
    of each inner dict are eta-powers; r_plus runs from eta^1 downward."""
    jx = Jet.variable(0j, order)
    tab = _ref_table(tag, complex(t), p, jx, corrected)

    def coeffs(val, top_power):
        if not isinstance(val, Jet):
            val = val + 0 * jx
        return {top_power - k: val[k] for k in range(val.order + 1)}

    return {
        "lambda_series": coeffs(tab["lambda_series"], 0),
        "mu_series": coeffs(tab["mu_series"], 0),
        "r_plus": coeffs(tab["xr_plus"], 1),
    }


# ---------------------------------------------------------------------------
# Computed side and comparisons
# ---------------------------------------------------------------------------

#: Below this |t|, small-|t| branch series are evaluated in a rescaled frame.
#: Raw jets at a base point that close to t = 0 are float-hostile: the
#: quartic's lambda-derivative at the vanishing root is O(t), and dividing
#: jets by it amplifies order-k coefficients by |t|^-k.
RESCALE_BELOW = 1e-2


def _flip_odd(slots: dict) -> dict:
    return {m: -v if m % 2 else v for m, v in slots.items()}


def branch_series(tag: str, t0: complex, p: Parameters, *, N: int = 6):
    """Numeric eta-slot dicts (lambda_series, mu_series, r_plus) of the
    computed series at t0, truncated at eta^-N; r_plus is oriented so its
    eta^1 slot matches the reference R_{-1}.

    Base points with |t0| < RESCALE_BELOW on a small-|t| branch are computed
    at t = 1 with parameters scaled by r = t0^{-1/2} and mapped back through
    the exact scaling weights (an identity, not an approximation: every slot
    is a homogeneous rational function of (t, c_inf, c_0))."""
    t0 = complex(t0)
    if tag in ZERO_BRANCHES and abs(t0) < RESCALE_BELOW:
        r = 1 / cmath.sqrt(t0)
        pw = Parameters(r * p.c_inf, r * p.c_0)
        lam, mu, R = branch_series(tag, r * r * t0, pw, N=N)
        lam = {m: v * r ** (-1 - m) for m, v in lam.items()}
        mu = {m: v * r ** (-m) for m, v in mu.items()}
        R = {m: v * r ** (2 - m) for m, v in R.items()}
    else:
        b = branch_point(tag, t0, p)
        zp = zero_param_solution(t0, b, model=D6Model(p), N=N)
        ric = riccati_solution(zp, +1)
        lam = zp.lam.slot_values()
        mu = zp.mu.slot_values()
        R = ric.R.slot_values()
    ref = _ref_table(tag, t0, p, 0j, True)["r_minus1"]
    if abs(R[1] - ref) > abs(R[1] + ref):
        R = _flip_odd(R)
    return lam, mu, R


def computed_profile(tag: str, t0: complex, p: Parameters, eta: complex, *,
                     N: int = 6) -> dict:
    """Same keys as reference_profile, evaluated from the series machinery
    at base point t0 (truncated at eta^-N)."""
    lam, mu, R = branch_series(tag, t0, p, N=N)
    eta = complex(eta)
    return {
        "lambda0": lam[0],
        "mu0": mu[0],
        "lambda_series": series_value(lam, eta),
        "mu_series": series_value(mu, eta),
        "r_minus1": R[1],
        "r_plus": series_value(R, eta),
        "r_minus": series_value(_flip_odd(R), eta),
    }


def compare_profile(tag: str, t0: complex, p: Parameters, eta: complex, *,
                    N: int = 6) -> dict:
    """Relative error of each reference-profile entry against the computed
    profile.  Errors shrink like a power of |t| (large-|t| tags) or of
    1/|t| (small-|t| tags) as the base point moves into the branch's
    asymptotic regime."""
    ref = reference_profile(tag, t0, p, eta)
    have = computed_profile(tag, t0, p, eta, N=N)
    return {k: relative_error(have[k], ref[k]) for k in ref}


def compare_slots(tag: str, t0: complex, p: Parameters, *, N: int = 6) -> dict:
    """Slotwise relative errors {quantity: {eta_power: err}} for the three
    slot tables.  Slots whose reference value is exactly zero, or that lie
    below the computed truncation depth, are skipped."""
    lam, mu, R = branch_series(tag, t0, p, N=N)
    refs = reference_slots(tag, t0, p, order=N + 2)
    have = {"lambda_series": lam, "mu_series": mu, "r_plus": R}
    out = {}
    for key, table in refs.items():
        slots = have[key]
        errs = {}
        for m, v in table.items():
            if v == 0 or m not in slots:
                continue
            errs[m] = relative_error(slots[m], v)
        out[key] = errs
    return out


# ---------------------------------------------------------------------------
# Homogeneity
# ---------------------------------------------------------------------------


def homogeneity_defects(p: Parameters, t0: complex, eta: complex = 1.0,
                        r: float = 2.0, *, N: int = 4,
                        n_voros: int = 3) -> dict:
    """Relative defect of Q(r^-2 t, r^-1 c, r eta) against r^w Q(t, c, eta)
    for every weighted quantity.  r must be a positive real so that
    principal square roots scale exactly."""
    r = float(r)
    if r <= 0:
        raise ValueError("scaling factor r must be positive")
    p2 = Parameters(p.c_inf / r, p.c_0 / r)
    t2 = complex(t0) / r ** 2
    eta2 = complex(eta) * r

    b = max(lambda0_branches(t0, p), key=lambda bb: abs(bb.lambda0))
    b2 = min(lambda0_branches(t2, p2),
             key=lambda bb: abs(bb.lambda0 - b.lambda0 / r))
    out = {}

    def put(key, scaled, plain):
        out[key] = relative_error(scaled, plain * r ** HOMOGENEITY_WEIGHTS[key])

    put("lambda0", b2.lambda0, b.lambda0)
    put("mu0", mu0(b2, p2), mu0(b, p))
    put("delta", delta(b2, p2), delta(b, p))

    tv2 = [tp.t for tp in turning_points(p2)]
    defect = 0.0
    for tp in turning_points(p):
        target = tp.t * r ** HOMOGENEITY_WEIGHTS["turning_point"]
        defect = max(defect, min(relative_error(z, target) for z in tv2))
    out["turning_point"] = defect

    put("phi", phi_primitive(b2, p2), phi_primitive(b, p))

    zp = zero_param_solution(t0, b, model=D6Model(p), N=N)
    zp2 = zero_param_solution(t2, b2, model=D6Model(p2), N=N)
    put("lambda_series", series_value(zp2.lam, eta2), series_value(zp.lam, eta))
    put("mu_series", series_value(zp2.mu, eta2), series_value(zp.mu, eta))

    ric = riccati_solution(zp, +1)
    ric2 = riccati_solution(zp2, +1)
    put("riccati", series_value(ric2.R, eta2), series_value(ric.R, eta))
    put("riccati_odd", series_value(ric2.r_odd, eta2),
        series_value(ric.r_odd, eta))

    for key, target in (("voros_inf", "inf3"), ("voros_zero", "zero_cinf")):
        spec = EndpointSpec("d6", target, +1)

        def wsum(pp, ee):
            table = voros_closed_form(spec, pp, n_max=n_voros)
            return sum(w * complex(ee) ** (1 - 2 * n) for n, w in table.items())

        put(key, wsum(p2, eta2), wsum(p, eta))
    return out
