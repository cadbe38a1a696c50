"""Tests for the foundational arithmetic layer."""

from __future__ import annotations

import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb import numerics, voros
from p3wkb.algebra import Parameters
from p3wkb.numerics import (
    DenseJets,
    ExactLaurent,
    Jet,
    SingularJetError,
    _chain_signs,
    bernoulli,
    binet,
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
# Binet's function, through log Gamma
# ---------------------------------------------------------------------------

def _log_gamma(z: complex) -> complex:
    """log Gamma(z) = J(z) + (z - 1/2) log z - z + log(2 pi)/2, principal
    branches: the checks below hold binet to log Gamma's known values."""
    z = complex(z)
    return binet(z) + (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi)


def test_log_gamma_exact_points():
    assert abs(_log_gamma(1.0)) < 1e-14
    assert abs(_log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
    assert abs(_log_gamma(5.0) - math.log(24.0)) < 1e-12


def test_log_gamma_duplication():
    # log G(2z) - log G(z) - log G(z+1/2) - (2z-1) log 2 + (1/2) log pi = 0
    for z in (0.3 + 0.7j, 2.5 - 1.2j, 10.0 + 3.0j, 0.8, 40.0 - 7.0j):
        lhs = (_log_gamma(2 * z) - _log_gamma(z) - _log_gamma(z + 0.5)
               - (2 * z - 1) * math.log(2) + 0.5 * math.log(math.pi))
        assert abs(lhs) < 1e-10, z


def test_log_gamma_pole():
    for w in (0.0, -3.0):
        with pytest.raises(ValueError, match="pole"):
            binet(w)


def _seeded_quadrant_points(seed, per_quadrant=150):
    """|z| log-uniform on [1e-3, 1e3], the argument uniform in each quadrant."""
    rng = random.Random(seed)
    return [cmath.rect(10 ** rng.uniform(-3, 3), (q + rng.random()) * math.pi / 2)
            for q in range(4) for _ in range(per_quadrant)]


@pytest.mark.parametrize("seed", [1, 2])
def test_binet_and_log_gamma_match_mpmath(seed):
    with mp.workdps(30):
        for z in _seeded_quadrant_points(seed):
            zm = mp.mpc(z)
            lg = mp.loggamma(zm)
            j = complex(lg - (zm - 0.5) * mp.log(zm) + zm - mp.log(2 * mp.pi) / 2)
            lg = complex(lg)
            assert abs(binet(z) - j) <= 1e-14 * abs(j), z
            assert abs(_log_gamma(z) - lg) <= 1e-14 * max(1.0, abs(lg)), z


def test_log_gamma_lips_of_the_negative_axis():
    # The upper lip (Im z = +0) is the limit from Im z > 0, the lower lip
    # from Im z < 0, as the principal branch of log Gamma is continued.
    upper, lower = _log_gamma(-2.5 + 0j), _log_gamma(complex(-2.5, -0.0))
    assert abs(upper.imag + 3 * math.pi) < 1e-14
    assert abs(lower.imag - 3 * math.pi) < 1e-14
    assert abs(upper.real - math.log(abs(math.gamma(-2.5)))) < 1e-14
    assert upper.real == lower.real
    assert abs(_log_gamma(complex(-2.5, 1e-300)) - upper) < 1e-14
    assert abs(_log_gamma(complex(-2.5, -1e-300)) - lower) < 1e-14
    with pytest.raises(ValueError):
        binet(complex(-2.0, -0.0))


def test_binet_series_is_the_g_series():
    # The Stirling series binet sums and the Voros series G have one definition.
    for n, c in enumerate(numerics._STIRLING, start=1):
        assert c == float(voros.g_coefficient(n))


def test_importing_every_module_leaves_scipy_out():
    # A fresh interpreter that imports all of p3wkb has not loaded scipy:
    # the package's start-up cost is numpy's alone.
    code = ("import importlib, pkgutil, sys, p3wkb\n"
            "for m in pkgutil.iter_modules(p3wkb.__path__):\n"
            "    importlib.import_module('p3wkb.' + m.name)\n"
            "print(len(list(pkgutil.iter_modules(p3wkb.__path__))), 'scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert int(out[0]) == 7 and out[1] == "False"


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
    assert len(seen) == 2
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
    assert np.array_equal(d.coeffs, [0, 2, 0])


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


def test_jet_singularities():
    zero_const = _jet([0, 1, 2])
    with pytest.raises(SingularJetError):
        1 / zero_const
    with pytest.raises(SingularJetError):
        zero_const.sqrt()
    with pytest.raises(SingularJetError):
        zero_const.log()
    # The dense kernels refuse the same, naming the first node at fault:
    # one node (a jet of shape (K+1,)) and a batch with the zero at node 1.
    one = np.array([0, 1, 2], complex)
    batch = np.ones((3, 4), complex)
    batch[0, 1] = 0
    for y, node in ((one, 0), (batch, 1)):
        with pytest.raises(SingularJetError, match=f"at node {node}$"):
            DenseJets.divide(np.ones_like(y), y)
        with pytest.raises(SingularJetError, match=f"at node {node}$"):
            DenseJets.sqrt(y)


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
    # The product kernel at a few nodes and at many, the one-jet division
    # and square root, d/dt and times t,
    # against numpy's polynomial arithmetic truncated to the jet order:
    # products and t-operations directly, the quotient multiplied back
    # by the divisor and the square root squared back.
    rng = np.random.default_rng(7)
    K = 9
    t0 = rng.uniform(0.5, 2, nodes) * np.exp(1j * rng.uniform(-3, 3, nodes))
    X, Y = (rng.standard_normal((2, K + 1, nodes)) + 1j * rng.standard_normal((2, K + 1, nodes))
            for _ in range(2))
    Y[:, 0] += 3.0
    dense = DenseJets(t0, K)
    got = {"mul": dense.products(X, Y), "div": dense.divide(X[0], Y[0]),
           "sqrt": dense.sqrt(Y[0]), "dt": dense.derive(X), "tx": dense.times_t(X)}
    poly = np.polynomial.polynomial
    for node in range(nodes):
        x, y = X[0, :, node], Y[0, :, node]
        pairs = {"mul": (got["mul"][0, :, node], poly.polymul(x, y)[:K + 1]),
                 "div": (poly.polymul(got["div"][:, node], y)[:K + 1], x),
                 "sqrt": (poly.polymul(got["sqrt"][:, node], got["sqrt"][:, node])[:K + 1], y),
                 "dt": (got["dt"][0, :K, node], poly.polyder(x)),
                 "tx": (got["tx"][0, :, node], poly.polymul([t0[node], 1], x)[:K + 1])}
        for key, (row, ref) in pairs.items():
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref)), key


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


_WIDE = [np.complex128] + ([np.clongdouble] if np.finfo(np.longdouble).eps < 1e-18 else [])

#: (m, lo, hi, step) of DenseJets.slot: every pair of a 9-slot stack, down
#: to B[0]; step 2 from lo = 1 with hi off the step; two runs of B that stop
#: above B[0]; one pair; and an empty range, a zero jet.
_SLOT_RANGES = [(8, 0, 8, 1), (8, 1, 8, 2), (7, 1, 6, 2), (8, 2, 5, 1), (4, 4, 4, 1), (5, 3, 2, 1)]


def _stacks(rng, n, K, nodes, dtype):
    return [(rng.standard_normal((n, K + 1) + nodes)
             + 1j * rng.standard_normal((n, K + 1) + nodes)).astype(dtype) for _ in range(2)]


@pytest.mark.parametrize("dtype", _WIDE)
@pytest.mark.parametrize("nodes", [(), (5,), (20,)])
def test_slot_matches_a_loop_over_its_terms(nodes, dtype):
    # Each coefficient k of slot is one sum of the terms A[i, j] B[m - i, k - j]
    # over the pairs i and j <= k; a plain loop adds them in turn.  The two
    # orders differ by rounding only: 4 eps times the sum of the moduli.
    rng = np.random.default_rng(11)
    K = 8
    jets = DenseJets((0.7 + 0.2j + rng.random(nodes)).astype(dtype), K)
    A, B = _stacks(rng, 9, K, nodes, dtype)
    eps = np.finfo(jets.t0.real.dtype).eps
    for m, lo, hi, step in _SLOT_RANGES:
        got = jets.slot(A, B, m, lo, hi, step)
        assert got.shape == (K + 1,) + nodes and got.dtype == dtype
        want, scale = np.zeros_like(got), np.zeros(got.shape, jets.t0.real.dtype)
        for i in range(lo, hi + 1, step):
            for k in range(K + 1):
                for j in range(k + 1):
                    want[k] += A[i, j] * B[m - i, k - j]
                    scale[k] += abs(A[i, j] * B[m - i, k - j])
        if hi < lo:
            assert not got.any()
        assert np.all(np.abs(got - want) <= 4 * eps * scale), (m, lo, hi, step)


def test_slot_bits_do_not_depend_on_order_or_node_count():
    # A slot cut to order q equals the slot through K + 4 cut afterwards,
    # and five or forty nodes solved at once equal each node on its own,
    # bit for bit.
    rng = np.random.default_rng(12)
    K = 6
    for nodes in (5, 40):
        A, B = _stacks(rng, 9, K + 4, (nodes,), np.complex128)
        for m, lo, hi, step in _SLOT_RANGES:
            for q in (0, K):
                full = DenseJets.slot(A, B, m, lo, hi, step)
                cut = DenseJets.slot(A, B, m, lo, hi, step, order=q)
                assert cut.tobytes() == full[:q + 1].tobytes(), (nodes, m, lo, hi, step, q)
                for node in range(nodes):
                    one = DenseJets.slot(A[..., node], B[..., node], m, lo, hi, step, order=q)
                    assert one.tobytes() == cut[..., node].tobytes(), (m, lo, hi, step, q, node)


#: (a, b, m, lo, hi, step) sums of DenseJets.slots over three stacks of nine
#: slots: steps 1 and 2, stacks read against others and against themselves,
#: one pair, and empty ranges, such as R_1's sum of R_i R_(1-i) over 0 < i < 1.
_FUSED_SUMS = ((0, 1, 1, 1, 0, 1), (0, 0, 8, 1, 7, 1), (1, 2, 6, 0, 6, 2), (2, 2, 6, 0, 6, 2),
               (1, 0, 4, 4, 4, 1), (2, 0, 7, 1, 6, 2), (0, 2, 3, 3, 2, 2))


@pytest.mark.parametrize("nodes", [(), (20,)])
def test_fused_slots_equal_each_slot_alone(nodes):
    # One gather for several sums gives each sum the bytes of its own slot
    # call, at full order, cut below it and at orders mixed in one call
    # (zero above each sum's own), and twenty nodes at once give each node
    # the bytes of its one-node call.
    rng = np.random.default_rng(14)
    K = 7
    X, Y = (rng.standard_normal((3, 9, K + 1) + nodes)
            + 1j * rng.standard_normal((3, 9, K + 1) + nodes) for _ in range(2))
    for orders in ((K,) * 7, (3,) * 7, (0,) * 7, (5, 0, 7, 3, 2, 6, 1)):
        sums = tuple(s + (q,) for s, q in zip(_FUSED_SUMS, orders))
        fused = DenseJets.slots(X, Y, sums)
        assert fused.shape == (len(sums), max(orders) + 1) + nodes
        for got, (a, b, m, lo, hi, step, q) in zip(fused, sums):
            alone = DenseJets.slot(X[a], Y[b], m, lo, hi, step, order=q)
            assert got[:q + 1].tobytes() == alone.tobytes(), (q, a, b, m, lo, hi, step)
            assert not got[q + 1:].any() and (hi >= lo or not got.any())
            for node in range(nodes[0] if nodes else 0):
                one = DenseJets.slot(X[a, ..., node], Y[b, ..., node], m, lo, hi, step, order=q)
                assert got[:q + 1, ..., node].tobytes() == one.tobytes(), (q, m, lo, hi, step, node)
    empty = DenseJets.slots(X, Y, ((0, 1, 1, 1, 0, 1, K), (0, 2, 3, 3, 2, 2, 2)))
    assert empty.shape == (2, K + 1) + nodes and not empty.any()


def test_slot_orders_above_the_stacks_are_refused():
    # An order above the stacks' would read the next jet's coefficients;
    # it is refused by name, alone or beside sums within the order, and
    # still after a plan of the same stacks was cached.
    rng = np.random.default_rng(15)
    K = 3
    A, B = _stacks(rng, 3, K, (), np.complex128)
    DenseJets.slot(A, B, 2, 0, 2, order=K)
    with pytest.raises(ValueError, match=f"order {K + 2} above the stacks' order {K}"):
        DenseJets.slot(A, B, 2, 0, 2, order=K + 2)
    with pytest.raises(ValueError, match=f"order {K + 1} above"):
        DenseJets.slots(A[None], B[None], ((0, 0, 2, 0, 2, 1, K), (0, 0, 1, 0, 1, 1, K + 1)))


def test_product_orders_above_the_jets_are_refused():
    # As for slots: the order the jets cannot reach is named, for either
    # operand, where a gather past the jet raised an IndexError before.
    rng = np.random.default_rng(16)
    A, B = _stacks(rng, 2, 3, (4,), np.complex128)
    for X, Y, q in ((A, B, 5), (A, B[:, :3], 3)):
        with pytest.raises(ValueError, match=f"order {q} above the jets' order"):
            DenseJets.products(X, Y, q)


def test_mul_and_inverse_clamp_orders_above_the_stacks():
    # mul and inverse take the orders of the series they serve and, as
    # documented, stop at the stacks' order where those are higher.
    rng = np.random.default_rng(17)
    K = 4
    A, B = _stacks(rng, 5, K, (3,), np.complex128)
    A[0, 0] += 3.0
    high = (K + 2,) * 5
    assert DenseJets.mul(A, B, orders=high).tobytes() == DenseJets.mul(A, B).tobytes()
    assert DenseJets.inverse(A, orders=high).tobytes() == DenseJets.inverse(A).tobytes()


def test_t_powers_are_read_only():
    # A solve, its mu and its R share one DenseJets and so its cached
    # t-powers; a write into one would corrupt the others.
    jets = DenseJets(np.array([0.7 + 0.2j, 1.1 - 0.4j]), 5)
    power = jets.t_power(-2)
    with pytest.raises(ValueError):
        power[1] += 1.0
    assert jets.t_power(-2) is power


#: const and factors of ``DenseJets.product_of``: u (as the charts list it),
#: two linear factors, a quadratic and a cubic.
_PRODUCT = (0.5 - 2j, [(0, 1), (1.5, -0.5 + 1j), (-1, 1), (2, 0.3j, -1), (0.7, 0, 1j, 1.2)])


def _taylor_shift(p, u0):
    """The coefficients of p(u0 + v) in v, in the type of u0."""
    out = [u0 * 0] * len(p)
    for i, c in enumerate(p):
        for k in range(i + 1):
            out[k] = out[k] + c * (math.comb(i, k) * u0 ** (i - k))
    return out


@pytest.mark.parametrize("dtype", _WIDE)
def test_product_of_matches_numpy_polynomial_arithmetic(dtype):
    # const prod p(u0 + v) through v^K: each factor shifted to u0, the
    # shifted factors multiplied by np.convolve, in the base points' type.
    K = 7
    u0 = np.array([0.7 + 0.2j, -1.3 + 0.4j, 2.1 - 1.5j]).astype(dtype)
    jets = DenseJets(u0, K)
    got = jets.product_of(*_PRODUCT)
    assert got.shape == (K + 1, 3) and got.dtype == dtype
    const, polys = _PRODUCT
    eps = np.finfo(jets.t0.real.dtype).eps
    for node, u in enumerate(u0):
        ref = reduce(np.convolve, [_taylor_shift(p, u) for p in polys], [dtype(const)])[:K + 1]
        assert np.max(np.abs(got[:, node] - ref)) <= 100 * eps * np.max(np.abs(ref))


def test_product_of_gives_a_batch_the_bytes_of_one_node_calls():
    u0 = np.array([0.7 + 0.2j, -1.3 + 0.4j, 2.1 - 1.5j, -1 + 1e-6j, 0.3])
    batch = DenseJets(u0, 6).product_of(*_PRODUCT)
    for node, u in enumerate(u0):
        assert DenseJets(u, 6).product_of(*_PRODUCT).tobytes() == batch[:, node].tobytes()


def test_product_of_keeps_the_digits_of_a_linear_factor_next_to_its_root():
    # At 1e-6 of the root of u + 1 each coefficient keeps its relative
    # digits, as the factor enters by its value, also after another
    # factor; the same product multiplied out first, or the linear factor
    # taken by Horner's rule, loses about 1/distance ulps.  Measured 2.0e-16
    # against 2.2e-10 multiplied out.
    const, polys = 1, [(2, 0.3j, -1), (1, 1)]
    u0 = -1 + 1e-6 * np.exp(1j * np.array([0.3, 1.9, 4.0]))
    with mp.workdps(30):
        ref = np.array([[complex(c) for c in reduce(np.convolve, [
            np.array(_taylor_shift([mp.mpc(c) for c in p], mp.mpc(u)), object) for p in polys])[:4]]
            for u in u0]).T
    factored = DenseJets(u0, 3).product_of(const, polys)
    expanded = DenseJets(u0, 3).product_of(const, [reduce(np.convolve, polys)])
    assert np.max(np.abs(factored - ref) / np.abs(ref)) <= 1e-15
    assert np.max(np.abs(expanded[0] - ref[0]) / np.abs(ref[0])) >= 1e-12


@pytest.mark.parametrize("kernel, pairs", [("products", 3), ("slot", 3), ("mul", 6)])
def test_cauchy_kernels_allocate_about_twice_their_terms(kernel, pairs):
    # tracemalloc sees numpy's buffers.  A kernel gathers both factors of
    # each term A[i, j] B[i', k - j] it keeps and multiplies them in place
    # of the first gather, so one call on three-slot stacks of 2000 jets of
    # order 16 peaks at about twice the bytes of its terms (17 * 18 / 2 per
    # pair and node).  Forming the outer products of every (j, l) first
    # would peak near 2.9 times.
    rng = np.random.default_rng(13)
    A, B = _stacks(rng, 3, 16, (2000,), np.complex128)
    call = {"products": lambda: DenseJets.products(A, B),
            "slot": lambda: DenseJets.slot(A, B, 2, 0, 2),
            "mul": lambda: DenseJets.mul(A, B)}[kernel]
    call()                  # builds the index tables, which later calls share
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = pairs * 17 * 18 // 2 * 2000 * A.itemsize
    assert peak <= 2.2 * terms, peak / terms


# ---------------------------------------------------------------------------
# Laurent series at infinity: ExactLaurent in z, through voros's helpers
# ---------------------------------------------------------------------------

def test_laurent_shift_matches_binomial():
    # (z+1)^{-2} = z^{-2} - 2 z^{-3} + 3 z^{-4} - ...
    s = voros._shifted(ExactLaurent([[1]], -2), 1, depth=8)
    assert s.lo == -8
    for k in range(2, 9):
        assert voros._coefficient(s, -k) == Fraction((-1) ** k * (k - 1))


@pytest.mark.parametrize("a", [Fraction(-1), Fraction(1, 2)], ids=["-1", "1/2"])
def test_laurent_shift_matches_binomial_at(a):
    # (2 z^{-3} + 5 z^{-1}) / 7 at z + a: (z+a)^{-3} = sum_j binom(-3, j)
    # a^j z^{-3-j} and (z+a)^{-1} = sum_k (-a)^k z^{-1-k}.  a = -1 is the
    # shift of c_0 in the shift lemma with which = 2.
    s = voros._shifted(ExactLaurent([[2], [0], [5]], -3, 7), a, depth=9)
    assert voros._coefficient(s, -1) == Fraction(5, 7)
    assert voros._coefficient(s, -2) == Fraction(5, 7) * -a
    for j in range(0, 7):
        assert voros._coefficient(s, -3 - j) == (
            Fraction(2, 7) * (-1) ** j * Fraction((j + 1) * (j + 2), 2) * a ** j
            + Fraction(5, 7) * (-a) ** (j + 2))
    assert s.lo == -9


def test_laurent_shift_positive_power():
    # (z+1)^2 = z^2 + 2z + 1 exactly
    s = voros._shifted(ExactLaurent([[1]], 2), 1, depth=6)
    assert voros._coefficient(s, 2) == 1
    assert voros._coefficient(s, 1) == 2
    assert voros._coefficient(s, 0) == 1
    assert s.lo == 0


def test_laurent_log_expansion():
    s = voros._log1p_over(Fraction(1, 2), depth=6)
    assert s.lo == -6
    for k in range(1, 7):
        assert voros._coefficient(s, -k) == Fraction((-1) ** (k + 1), k) * Fraction(1, 2 ** k)


def test_laurent_classic_identity():
    # (z + 1/2) * log(1 + 1/z) = 1 + (1/12) z^{-2} - (1/12) z^{-3} + ...
    lhs = voros._printed_block(10, a_log=Fraction(1), z_coeff=Fraction(1, 2))
    assert lhs.lo == -10
    assert voros._coefficient(lhs, 1) == 0
    assert voros._coefficient(lhs, 0) == 1
    assert voros._coefficient(lhs, -1) == 0
    assert voros._coefficient(lhs, -2) == Fraction(1, 12)
    assert voros._coefficient(lhs, -3) == Fraction(-1, 12)
    assert voros._coefficient(lhs, -4) == Fraction(3, 40)


def test_laurent_equality_and_mismatch():
    a = voros._series({0: Fraction(1), -3: Fraction(2, 7)})
    b = voros._cut(a + voros._series({-7: Fraction(5)}), 5)
    assert voros._first_mismatch(a, b) is None
    c = voros._series({0: Fraction(1), -3: Fraction(3, 7), -4: Fraction(1)})
    assert voros._first_mismatch(a, c) == -3
    assert voros._first_mismatch(a, 1) == -3
    assert voros._first_mismatch(a, 0) == 0


# ---------------------------------------------------------------------------
# Exact Laurent polynomials in u and X
# ---------------------------------------------------------------------------

def _exact(terms: dict) -> ExactLaurent:
    """{(power of u, power of X): rational} as an ExactLaurent."""
    terms = {k: Fraction(v) for k, v in terms.items() if v}
    if not terms:
        return ExactLaurent([[0]])
    den = math.lcm(*(v.denominator for v in terms.values()))
    lo = min(i for i, _ in terms)
    c = np.zeros((max(i for i, _ in terms) - lo + 1, max(j for _, j in terms) + 1), object)
    for (i, j), v in terms.items():
        c[i - lo, j] = int(v * den)
    return ExactLaurent(c, lo, den)


def _terms(e: ExactLaurent) -> dict:
    return {(e.lo + i, j): Fraction(v, e.den) for (i, j), v in np.ndenumerate(e.c) if v}


def _product(a: dict, b: dict) -> dict:
    out = {}
    for (i, j), v in a.items():
        for (k, l), w in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + v * w
    return {k: v for k, v in out.items() if v}


def _assert_canonical(e: ExactLaurent):
    assert e.den > 0 and math.gcd(e.den, *e.c.flat) == 1
    assert not e.c.flags.writeable
    assert all(type(v) is int for v in e.c.flat)
    if e.c.any():
        assert e.c[0].any() and e.c[-1].any() and e.c[:, -1].any()
    else:
        assert e.c.shape == (1, 1) and e.lo == 0


_LAURENT_TERMS = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=6)


@settings(max_examples=60, deadline=None)
@given(_LAURENT_TERMS, _LAURENT_TERMS, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_exact_laurent_arithmetic_is_the_arithmetic_of_its_terms(a, b, r):
    x, y = _exact(a), _exact(b)
    a, b = _terms(x), _terms(y)
    keys = set(a) | set(b)
    results = {
        "sum": (x + y, {k: a.get(k, 0) + b.get(k, 0) for k in keys}),
        "difference": (x - y, {k: a.get(k, 0) - b.get(k, 0) for k in keys}),
        "reflected difference": (r - x, {**{k: -v for k, v in a.items()},
                                         (0, 0): r - a.get((0, 0), 0)}),
        "product": (x * y, _product(a, b)),
        "scaled": (r * x, {k: r * v for k, v in a.items()}),
        "quotient": (x / 3, {k: v / 3 for k, v in a.items()}),
        "theta": (x.theta(), {(i, j): i * v for (i, j), v in a.items()}),
        "square": (x ** 2, _product(a, a)),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert _terms(got) == {k: v for k, v in want.items() if v}, name


def test_exact_laurent_subtracts_from_a_scalar():
    # 1 - L works as 1 + L and 2 * L do, and is -(L - 1).
    L = _exact({(0, 0): Fraction(1, 3), (-2, 1): 5, (1, 0): -2})
    _assert_canonical(1 - L)
    assert _terms(1 - L) == _terms(-(L - 1))
    assert _terms(1 - _exact({(0, 0): 1})) == {}


def test_exact_laurent_takes_a_float_at_its_exact_value():
    x = _exact({(0, 1): 1})
    assert _terms(0.5 * x + 0.25) == {(0, 1): Fraction(1, 2), (0, 0): Fraction(1, 4)}
    assert _terms(x * 0.1) == {(0, 1): Fraction(0.1)}
    with pytest.raises(TypeError):
        ExactLaurent([[0.5]])


@pytest.mark.parametrize("divisor", [{(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 0): 1},
                                     {(1, 0): 1}], ids=["u^2-X^2", "u+1", "u"])
def test_exact_laurent_division_reports_whether_it_leaves_a_remainder(divisor):
    z = _exact(divisor)
    q = _exact({(0, 0): Fraction(3, 2), (2, 1): -4, (3, 0): Fraction(1, 3), (1, 3): 7})
    quotient, exact = (z * q).divide(z)
    assert exact and _terms(quotient) == _terms(q)
    _assert_canonical(quotient)
    # A constant term the divisor cannot absorb: z * q + 1 is u^0 P with
    # P(0) = 1 for z = u too.
    assert not (z * q + 1).divide(z)[1]
    # A Laurent dividend u^m P, m < 0: z divides it where it divides P.
    shifted = z * q * _exact({(-2, 0): 1})
    quotient, exact = shifted.divide(z)
    assert exact == (divisor != {(1, 0): 1})
    if exact:
        assert _terms(quotient) == _terms(q * _exact({(-2, 0): 1}))


@pytest.mark.parametrize("divisor", [{(1, 0): 2, (0, 0): 1}, {(1, 1): 1, (0, 0): 1},
                                     {(1, 0): Fraction(1, 2)}])
def test_exact_laurent_refuses_a_divisor_not_monic_in_u(divisor):
    with pytest.raises(ValueError, match="monic"):
        _exact({(3, 0): 1}).divide(_exact(divisor))
