"""Products stopped at their certified Taylor orders against products
through the full jet order.

``FullOrderJets`` is the reference arithmetic: every product runs through
the full jet order K, and an order argument only cuts the result
afterwards.  Solved with it and with every slot order raised to K, then
zeroed above ``series._slot_orders``, the series must equal the
order-aware solve byte for byte, and so must both residuals."""

from dataclasses import replace

import numpy as np
import pytest

from p3wkb import numerics, series
from p3wkb.algebra import BranchPoint, Parameters
from p3wkb.numerics import DenseJets
from p3wkb.series import (
    D6Model,
    D7Model,
    EtaSeries,
    backlund_model,
    main_equation_residual,
    riccati_residual,
    riccati_solution,
    zero_param_solution,
)


class FullOrderJets(DenseJets):
    """DenseJets whose products run through order K whatever order is
    asked: mul and inverse ignore ``orders``; products and slot cut their
    full result to ``order`` + 1 coefficients, the width callers expect."""

    def products(self, X, Y, order=None):
        K1 = X.shape[1]
        if K1 == 1:
            full = X * Y
        elif self.small:
            M = X[:, :, None] * Y[:, None, :]
            cells, starts = numerics._antidiagonals(K1 - 1)
            M = M.reshape((M.shape[0], K1 * K1) + M.shape[3:])[:, cells]
            full = np.add.reduceat(M, starts, axis=1)
        else:
            full = X[:, :1] * Y
            for j in range(1, K1):
                full[:, j:] += X[:, j:j + 1] * Y[:, :K1 - j]
        return full if order is None else full[:, :order + 1]

    def slot(self, A, B, m, lo, hi, step=1, *, order=None):
        i = np.arange(lo, hi + 1, step)
        full = self.products(A[i], B[m - i]).sum(axis=0) if len(i) else np.zeros_like(A[0])
        return full if order is None else full[:order + 1]

    def mul(self, A, B, step_a=1, step_b=1, orders=None):
        first, second, starts, ms = numerics._cauchy_pairs(len(A), step_a, step_b)
        out = np.zeros_like(A)
        out[ms] = np.add.reduceat(self.products(A[first], B[second]), starts, axis=0)
        return out

    def inverse(self, A, step=1, orders=None):
        out = np.zeros_like(A)
        out[0] = self.divide(self.constant(1.0), A[0])
        for m in range(step, len(A), step):
            out[m] = -self.products(self.slot(A, out, m, step, m, step)[None], out[:1])[0]
        return out


def _cut(s: EtaSeries, orders) -> EtaSeries:
    coeffs = s.coeffs.copy()
    coeffs[np.arange(coeffs.shape[1]) > np.asarray(orders)[:, None]] = 0
    return EtaSeries(s.offset, coeffs, np.asarray(orders), s.t0)


def _certified(s: EtaSeries) -> list:
    return [s.coeffs[m, :s.orders[m] + 1].tobytes() for m in range(s.n_slots)]


def _solve(t0, branch, N, K, model):
    zp = zero_param_solution(t0, branch, N=N, K=K, model=model)
    R = riccati_solution(zp, +1).R
    return zp.lam, zp.mu, R, main_equation_residual(zp), riccati_residual(R, zp)


def _full_order_solve(monkeypatch, t0, branch, N, K, model):
    """The solve with every product through order K; lambda is zeroed
    above its certified orders before mu and R are built from it, as the
    solver hands it on."""
    lam_o, mu_o, r_o = series._slot_orders(K, N, model.shifted)
    full = np.full(N + 1, K)
    with monkeypatch.context() as patch:
        patch.setattr(series, "DenseJets", FullOrderJets)
        patch.setattr(series, "_slot_orders", lambda K, N, shifted: (full, full, full))
        zp = zero_param_solution(t0, branch, N=N, K=K, model=model)
        zp = replace(zp, lam=_cut(zp.lam, lam_o))
        R = _cut(riccati_solution(zp, +1).R, r_o)
        return zp.lam, _cut(zp.mu, mu_o), R, main_equation_residual(zp), riccati_residual(R, zp)


P = Parameters(2 + 1j, 3)
C7 = 2 + 1j


def _nodes(model, count):
    rng = np.random.default_rng(count)
    ts = 0.8 + 0.6j + 0.4 * (rng.random(count) + 1j * rng.random(count))
    lams = np.array([model.branches(complex(t))[k % 3].lambda0 for k, t in enumerate(ts)])
    if count == 1:
        return complex(ts[0]), BranchPoint(complex(ts[0]), complex(lams[0]))
    return ts, BranchPoint(ts, lams)


@pytest.mark.parametrize("nodes", [1, 20])
@pytest.mark.parametrize("dK", [2, 4])
@pytest.mark.parametrize("N", [4, 8, 12])
@pytest.mark.parametrize("family", ["d6", "d7", "d6-shifted", "d7-shifted"])
def test_certified_coefficients_equal_the_full_order_solve(family, N, dK, nodes, monkeypatch):
    # One node multiplies by outer products, twenty by shifted rows; the
    # shifted models fill every slot of lambda (step 1), the others every
    # other slot (step 2).
    model = D6Model(P) if family.startswith("d6") else D7Model(C7)
    if family.endswith("shifted"):
        model = backlund_model(model, 1)
    t0, branch = _nodes(model, nodes)
    got = _solve(t0, branch, N, N + dK, model)
    want = _full_order_solve(monkeypatch, t0, branch, N, N + dK, model)
    for name, a, b in zip(("lam", "mu", "R", "main residual", "riccati residual"), got, want):
        assert np.array_equal(a.orders, b.orders), name
        assert _certified(a) == _certified(b), name


@pytest.mark.parametrize("nodes", [(), (3,), (20,)])
@pytest.mark.parametrize("steps", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_kernels_stop_at_the_orders_they_are_given(steps, nodes):
    # Random stacks and random orders that do not rise with the slot: mul
    # and inverse equal the full-order kernels zeroed above the orders,
    # and slot equals the full-order slot cut to its order.  (Not K = 0:
    # at one node the full-order slot's sum adds one-coefficient terms
    # pairwise, while slot adds them in turn.)
    rng = np.random.default_rng(len(nodes) + 10 * steps[0] + 100 * steps[1])
    for K in (1, 4, 9):
        for n in (1, 3, 7):
            t0 = 0.9 + 0.3j + rng.random(nodes)
            jets, full = DenseJets(t0, K), FullOrderJets(t0, K)
            A, B = (rng.standard_normal((n, K + 1) + nodes) + 1j * rng.standard_normal((n, K + 1) + nodes)
                    for _ in range(2))
            A[1:][np.arange(1, n) % steps[0] != 0] = 0
            B[1:][np.arange(1, n) % steps[1] != 0] = 0
            A[0, 0] += 3.0
            orders = np.minimum.accumulate(rng.integers(0, K + 1, n))
            above = np.arange(K + 1) > orders[:, None]
            want = full.mul(A, B, *steps)
            want[above] = 0
            assert jets.mul(A, B, *steps, orders=orders).tobytes() == want.tobytes()
            want = full.inverse(A, steps[0])
            want[above] = 0
            assert jets.inverse(A, steps[0], orders=orders).tobytes() == want.tobytes()
            for m in range(n):
                q = orders[m]
                assert (jets.slot(A, B, m, 0, m, order=q).tobytes()
                        == full.slot(A, B, m, 0, m)[:q + 1].tobytes())


def test_cached_order_tables_are_read_only():
    # Every solve shares these tables; a write must not corrupt the next one.
    tables = (numerics._cauchy_cells(5, 2, 2, 6, (6, 6, 4, 4, 2))
              + numerics._cauchy_by_order(5, 1, 2, (6, 5, 4, 3, 2))[0][1:]
              + series._slot_orders(6, 4, False))
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1
