"""Tests for the foundational arithmetic layer."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb import numerics, voros
from p3wkb.algebra import Parameters
from p3wkb.numerics import (
    DenseJets,
    Jet,
    LaurentAtInfinity,
    SingularJetError,
    _chain_signs,
    bernoulli,
    log_gamma,
    poly_roots,
)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def _bernoulli_by_series_division(n_max: int) -> list[Fraction]:
    """Independent oracle: Taylor coefficients of w/(e^w - 1) by exact
    rational division, b[k] = B_k / k!."""
    # e^w - 1 = sum_{k>=1} w^k / k!; divide w by it.
    denom = [Fraction(1, math.factorial(k + 1)) for k in range(n_max + 1)]
    out = [Fraction(1)]
    for k in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += out[j] * denom[k - j]
        out.append(-acc)
    return [out[k] * math.factorial(k) for k in range(n_max + 1)]


def test_bernoulli_low_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_generating_function_division():
    oracle = _bernoulli_by_series_division(40)
    for n in range(2, 41, 2):
        assert bernoulli(n) == oracle[n], f"B_{n} mismatch"
    # Odd coefficients beyond B_1 vanish in the oracle too.
    for n in range(3, 41, 2):
        assert oracle[n] == 0


def test_bernoulli_domain_errors():
    for bad in (-2, 0, 1, 3, 7):
        with pytest.raises(ValueError):
            bernoulli(bad)


# ---------------------------------------------------------------------------
# Polynomial roots
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, x):
    acc = 0j
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def test_roots_of_unity():
    roots = poly_roots([-1, 0, 0, 0, 1])  # x^4 - 1
    expected = [1, -1, 1j, -1j]
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-12


def test_constructed_factorization_multiset():
    # (x-2)^2 (x-3) (x+1) = x^4 - 6x^3 + 9x^2 + 4x - 12
    roots = sorted(poly_roots([-12, 4, 9, -6, 1]), key=lambda z: (z.real, z.imag))
    expected = sorted([2, 2, 3, -1])
    for r, e in zip(roots, expected):
        assert abs(r - e) < 1e-5


def test_leading_quartic_residual():
    # Quartic for the leading algebraic function at t=1, (c_inf, c_0) = (2, 2-1j).
    t, c_inf, c_0 = 1.0, 2.0, 2.0 - 1.0j
    coeffs = [-t * t, c_0 * t, 0.0, -c_inf, 1.0]
    for r in poly_roots(coeffs):
        assert abs(_poly_eval(coeffs, r)) < 1e-12


def test_poly_roots_domain_errors():
    with pytest.raises(ValueError):
        poly_roots([3.0])
    with pytest.raises(ValueError):
        poly_roots([1.0, 0.0, 0.0])  # degree collapses to 0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                                   allow_nan=False, allow_infinity=False),
                min_size=5, max_size=5))
def test_poly_roots_vieta(coeffs):
    roots = poly_roots(coeffs)
    a0, a3, a4 = coeffs[0], coeffs[3], coeffs[4]
    s = sum(roots)
    p = 1
    for r in roots:
        p *= r
    scale = max(abs(a) for a in coeffs)
    assert abs(s - (-a3 / a4)) < 1e-9 * max(1.0, abs(a3 / a4)) * (scale / abs(a4) + 1)
    assert abs(p - (a0 / a4)) < 1e-9 * max(1.0, abs(a0 / a4)) * (scale / abs(a4) + 1)


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------

def test_log_gamma_exact_points():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-12


def test_log_gamma_duplication():
    # log G(2z) - log G(z) - log G(z+1/2) - (2z-1) log 2 + (1/2) log pi = 0
    for z in (0.3 + 0.7j, 2.5 - 1.2j, 10.0 + 3.0j, 0.8, 40.0 - 7.0j):
        lhs = (log_gamma(2 * z) - log_gamma(z) - log_gamma(z + 0.5)
               - (2 * z - 1) * math.log(2) + 0.5 * math.log(math.pi))
        assert abs(lhs) < 1e-10, z


def test_log_gamma_pole():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.0)


# ---------------------------------------------------------------------------
# Square-root sign chain
# ---------------------------------------------------------------------------

def _chain_signs_by_loop(values, start=None):
    """Reference: the continuation rule applied one value at a time."""
    signs = np.ones(len(values))
    prev = values[0] if start is None else start
    for k, v in enumerate(values):
        if abs(v - prev) > abs(v + prev):
            signs[k] = -1.0
        prev = signs[k] * v
    return signs


def test_chain_signs_break_an_exact_tie_like_the_loop():
    # -1 flips against 1; then 1j is exactly as far from the signed
    # predecessor 1 as from -1, and the tie keeps its own sign.  A running
    # product of the unsigned flips would negate it.
    values = np.array([1, -1, 1j])
    assert list(_chain_signs(values)) == list(_chain_signs_by_loop(values)) == [1, -1, 1]


def test_chain_signs_match_the_loop_on_random_walks():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        steps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        values = np.cumsum(steps) * rng.choice([-1.0, 1.0], n)
        start = complex(rng.standard_normal(), rng.standard_normal())
        for s in (None, start):
            assert np.array_equal(_chain_signs(values, s), _chain_signs_by_loop(values, s))


@pytest.mark.parametrize("target", ["inf1", "zero_c0"])
def test_chain_signs_match_the_loop_on_oracle_arrays(target, monkeypatch):
    # Every circle and leg array the contour oracle continues at P_GEN.
    seen = []

    def spy(values, start=None):
        seen.append((np.array(values), start))
        return numerics._chain_signs(values, start)

    monkeypatch.setattr(voros, "_chain_signs", spy)
    voros.voros_numeric_oracle(voros.EndpointSpec("d6", target, +1),
                               Parameters(3 + 1j, 1 + 0.5j), n_max=2)
    assert len(seen) == 3
    for values, start in seen:
        assert np.array_equal(_chain_signs(values, start), _chain_signs_by_loop(values, start))


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def _jet(coeffs, base=0.0):
    return Jet(base, tuple(complex(c) for c in coeffs))


def test_jet_sqrt_squares_back():
    a = _jet([1, 1, 0, 0, 0, 0, 0, 0, 0])  # 1 + s
    s = a.sqrt()
    back = s * s
    for x, y in zip(back.coeffs, a.coeffs):
        assert abs(x - y) < 1e-14


def test_jet_derive():
    a = _jet([0, 0, 1, 0])  # s^2
    d = a.derive()
    assert d.coeffs == (0j, 2 + 0j, 0j)


def test_jet_reciprocal_of_exp():
    K = 10
    e = _jet([1 / math.factorial(k) for k in range(K + 1)])
    inv = 1 / e
    for k in range(K + 1):
        assert abs(inv.coeffs[k] - (-1) ** k / math.factorial(k)) < 1e-14


def test_jet_log_of_exp():
    K = 10
    e = _jet([1 / math.factorial(k) for k in range(K + 1)])
    lg = e.log()
    # log(e^s) = s
    assert abs(lg.coeffs[0]) < 1e-15
    assert abs(lg.coeffs[1] - 1) < 1e-14
    for k in range(2, K + 1):
        assert abs(lg.coeffs[k]) < 1e-14


def test_jet_rebase_evaluates_consistently():
    a = _jet([2, -1, 0.5, 0.25, -0.125], base=1.0)
    b = a.rebase(1.3)
    # Same underlying polynomial evaluated at t = 1.45.
    assert abs(a(0.45) - b(0.15)) < 1e-13


def test_jet_singularities():
    zero_const = _jet([0, 1, 2])
    with pytest.raises(SingularJetError):
        1 / zero_const
    with pytest.raises(SingularJetError):
        zero_const.sqrt()
    with pytest.raises(SingularJetError):
        zero_const.log()


def test_jet_array_coefficients_batch():
    t0 = np.array([1.0 + 0j, 2.0 + 0j, 0.5 + 0.5j])
    t = Jet.variable(t0, 4)
    f = (t * t + 1) / t
    for i, z in enumerate(t0):
        expect = z + 1 / z
        assert abs(f.coeffs[0][i] - expect) < 1e-14


_coeff = st.complex_numbers(min_magnitude=0.2, max_magnitude=3,
                            allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=40)
@given(st.lists(_coeff, min_size=5, max_size=5),
       st.lists(_coeff, min_size=5, max_size=5),
       st.lists(_coeff, min_size=5, max_size=5))
def test_jet_ring_axioms(xs, ys, zs):
    a, b, c = _jet(xs), _jet(ys), _jet(zs)
    lhs = (a * b) * c
    rhs = a * (b * c)
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x))
    lhs = a * (b + c)
    rhs = a * b + a * c
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x))


@settings(deadline=None, max_examples=40)
@given(st.lists(_coeff, min_size=5, max_size=5),
       st.lists(_coeff, min_size=5, max_size=5))
def test_jet_product_rule(xs, ys):
    a, b = _jet(xs), _jet(ys)
    lhs = (a * b).derive()
    rhs = a.derive() * b.truncate(3) + a.truncate(3) * b.derive()
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x))


@pytest.mark.parametrize("nodes", [3, 40])
def test_dense_jets_match_jet_arithmetic(nodes):
    # Both product kernels (outer products for a few nodes, shifted rows
    # for many) and the one-jet division and square root, against the
    # tuple-based Jet loops on the same coefficients.
    rng = np.random.default_rng(7)
    K = 9
    t0 = rng.uniform(0.5, 2, nodes) * np.exp(1j * rng.uniform(-3, 3, nodes))
    X, Y = (rng.standard_normal((2, K + 1, nodes)) + 1j * rng.standard_normal((2, K + 1, nodes))
            for _ in range(2))
    Y[:, 0] += 3.0
    dense = DenseJets(t0, K)
    got = {"mul": dense.products(X, Y), "div": dense.divide(X[0], Y[0]),
           "sqrt": dense.sqrt(Y[0]), "dt": dense.derive(X), "tx": dense.times_t(X)}
    for node in range(nodes):
        a, b = (Jet(t0[node], tuple(Z[0, :, node])) for Z in (X, Y))
        t = Jet.variable(t0[node], K)
        want = {"mul": a * b, "div": a / b, "sqrt": b.sqrt(), "dt": a.derive(), "tx": t * a}
        for key, jet in want.items():
            row = got[key][0, :, node] if got[key].ndim == 3 else got[key][:, node]
            ref = np.array(jet.coeffs)
            assert np.max(np.abs(row[:len(ref)] - ref)) <= 1e-13 * np.max(np.abs(ref)), key


def test_dense_eta_products_match_slot_sums():
    # mul, inverse and one slot of a product, on two five-slot eta-series.
    rng = np.random.default_rng(8)
    dense = DenseJets(0.7 + 0.2j, 6)
    A, B = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)) for _ in range(2))
    B[0, 0] += 4.0
    prod = dense.mul(A, B)
    for m in range(5):
        want = sum(dense.products(A[i:i + 1], B[m - i:m - i + 1])[0] for i in range(m + 1))
        assert np.allclose(prod[m], want, rtol=1e-14, atol=1e-13)
        assert np.allclose(dense.slot(A, B, m, 0, m), want, rtol=1e-14, atol=1e-13)
    one = dense.mul(B, dense.inverse(B))
    assert np.allclose(one[0], dense.constant(1.0), atol=1e-12)
    assert np.allclose(one[1:], 0, atol=1e-11)


# ---------------------------------------------------------------------------
# Laurent series at infinity
# ---------------------------------------------------------------------------

def test_laurent_shift_matches_binomial():
    # (z+1)^{-2} = z^{-2} - 2 z^{-3} + 3 z^{-4} - ...
    s = LaurentAtInfinity.monomial(-2, 1, depth=8).shift(1)
    for k in range(2, 9):
        assert s.coefficient(-k) == Fraction((-1) ** k * (k - 1))


def test_laurent_shift_positive_power():
    # (z+1)^2 = z^2 + 2z + 1 exactly
    s = LaurentAtInfinity.monomial(2, 1, depth=6).shift(1)
    assert s.coefficient(2) == 1
    assert s.coefficient(1) == 2
    assert s.coefficient(0) == 1
    assert s.coefficient(-1) == 0


def test_laurent_log_expansion():
    s = LaurentAtInfinity.log1p_over_z(Fraction(1, 2), depth=6)
    for k in range(1, 7):
        assert s.coefficient(-k) == Fraction((-1) ** (k + 1), k) * Fraction(1, 2 ** k)


def test_laurent_classic_identity():
    # (z + 1/2) * log(1 + 1/z) = 1 + (1/12) z^{-2} - (1/12) z^{-3} + ...
    depth = 10
    lhs = (LaurentAtInfinity.monomial(1, 1, depth)
           + LaurentAtInfinity.monomial(0, Fraction(1, 2), depth)) \
        * LaurentAtInfinity.log1p_over_z(1, depth)
    assert lhs.coefficient(0) == 1
    assert lhs.coefficient(-1) == 0
    assert lhs.coefficient(-2) == Fraction(1, 12)
    assert lhs.coefficient(-3) == Fraction(-1, 12)
    assert lhs.coefficient(-4) == Fraction(3, 40)


def test_laurent_equality_and_mismatch():
    a = LaurentAtInfinity({0: Fraction(1), -3: Fraction(2, 7)}, depth=5)
    b = LaurentAtInfinity({0: Fraction(1), -3: Fraction(2, 7)}, depth=9)
    assert a == b
    c = LaurentAtInfinity({0: Fraction(1), -3: Fraction(3, 7)}, depth=5)
    assert a != c
    assert a.first_mismatch(c) == -3
    assert a.first_mismatch(b) is None
