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
    main_equation_residual,
    riccati_residual,
    riccati_solution,
    zero_param_solution,
)


def _loop_pairs(n, step_a, step_b):
    """The slot pairs (m, i, j), m = i + j < n, of an eta-product of stacks
    nonzero on multiples of step_a and step_b, by m, i rising."""
    return sorted((i + j, i, j) for i in range(0, n, step_a) for j in range(0, n - i, step_b))


class FullOrderJets(DenseJets):
    """DenseJets whose products run through order K whatever order is
    asked: mul and inverse ignore ``orders`` (and inverse the first slot it
    is handed, which it divides out itself); products, slot and slots cut
    their full result to ``order`` + 1 coefficients, the width callers
    expect."""

    @staticmethod
    def products(X, Y, order=None):
        K1 = X.shape[1]
        if K1 == 1:
            full = X * Y
        else:
            # Every outer product X[j] Y[l], then its antidiagonal cells
            # j + l = k, j rising, one reduceat run per k.
            M = X[:, :, None] * Y[:, None, :]
            cells = [j * K1 + k - j for k in range(K1) for j in range(k + 1)]
            M = M.reshape((M.shape[0], K1 * K1) + M.shape[3:])[:, cells]
            full = np.add.reduceat(M, [k * (k + 1) // 2 for k in range(K1)], axis=1)
        return full if order is None else full[:, :order + 1]

    @staticmethod
    def slot(A, B, m, lo, hi, step=1, *, order=None):
        i = np.arange(lo, hi + 1, step)
        if not len(i):
            full = np.zeros_like(A[0])
        else:
            # One reduction per coefficient k over the terms A[i, j] B[m - i, k - j]
            # of every pair, pair by pair, j rising.
            M = A[i][:, :, None] * B[m - i][:, None, :]
            full = np.array([np.add.reduceat(np.array([M[p, j, k - j] for p in range(len(i))
                                                       for j in range(k + 1)]), [0], axis=0)[0]
                             for k in range(A.shape[1])])
        return full if order is None else full[:order + 1]

    @staticmethod
    def slots(X, Y, sums, order=None):
        return np.stack([FullOrderJets.slot(X[a], Y[b], m, lo, hi, step, order=order)
                         for a, b, m, lo, hi, step in sums])

    @staticmethod
    def mul(A, B, step_a=1, step_b=1, orders=None):
        pairs = _loop_pairs(len(A), step_a, step_b)
        ms = np.array([m for m, _, _ in pairs])
        starts = np.flatnonzero(np.diff(ms, prepend=-1))
        out = np.zeros_like(A)
        out[ms[starts]] = np.add.reduceat(FullOrderJets.products(
            A[[i for _, i, _ in pairs]], B[[j for _, _, j in pairs]]), starts, axis=0)
        return out

    @staticmethod
    def inverse(A, step=1, orders=None, first=None):
        out = np.zeros_like(A)
        one = np.zeros_like(A[0])
        one[0] = 1.0
        out[0] = FullOrderJets.divide(one, A[0])
        for m in range(step, len(A), step):
            out[m] = -FullOrderJets.products(FullOrderJets.slot(A, out, m, step, m, step)[None],
                                             out[:1])[0]
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
    # One node and twenty; the shifted models fill every slot of lambda
    # (step 1), the others every other slot (step 2).
    model = D6Model(P) if family.startswith("d6") else D7Model(C7)
    if family.endswith("shifted"):
        model = model.backlund_shifted(1)
    t0, branch = _nodes(model, nodes)
    got = _solve(t0, branch, N, N + dK, model)
    want = _full_order_solve(monkeypatch, t0, branch, N, N + dK, model)
    for name, a, b in zip(("lam", "mu", "R", "main residual", "riccati residual"), got, want):
        assert np.array_equal(a.orders, b.orders), name
        assert _certified(a) == _certified(b), name


@pytest.mark.parametrize("nodes", [1, 20])
@pytest.mark.parametrize("N", range(6))
@pytest.mark.parametrize("family", ["d6", "d7", "d7-shifted"])
def test_lowest_jet_orders_give_the_values_of_k_n_plus_4(family, N, nodes):
    # The lowest K the budget admits (N, at least 1; N + 1 when the model
    # shifts its parameters) and one above give every value of lambda and R
    # bit for bit as K = N + 4 does, down to N = 0; one below is refused.
    model = D6Model(P) if family == "d6" else D7Model(C7)
    if family.endswith("shifted"):
        model = model.backlund_shifted(1)
    t0, branch = _nodes(model, nodes)
    lowest = series.lowest_jet_order(N, model.shifted)
    assert lowest == (N + 1 if model.shifted else max(N, 1))
    with pytest.raises(series.OrderBudgetError):
        zero_param_solution(t0, branch, N=N, K=lowest - 1, model=model)

    def values(K):
        zp = zero_param_solution(t0, branch, N=N, K=K, model=model)
        return zp.lam.coeffs[:, 0], riccati_solution(zp, +1).R.coeffs[:, 0]

    want = values(N + 4)
    for K in (lowest, lowest + 1):
        for got, full in zip(values(K), want):
            assert np.array_equal(got, full), K


@pytest.mark.parametrize("nodes", [(), (3,), (20,)])
@pytest.mark.parametrize("steps", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_kernels_stop_at_the_orders_they_are_given(steps, nodes):
    # Random stacks and random orders that do not rise with the slot: mul
    # and inverse equal the full-order kernels zeroed above the orders,
    # and slot equals the full-order slot cut to its order.
    rng = np.random.default_rng(len(nodes) + 10 * steps[0] + 100 * steps[1])
    for K in (1, 4, 9, 0):
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
    tables = (numerics._cauchy_factors(5, 2, 2, 6, (6, 6, 4, 4, 2))
              + numerics._antidiagonal_factors(3, 4, 5) + numerics._cauchy_pairs(5, 2, 2)
              + numerics._slot_factors(((0, 1, 4, 0, 4, 2), (1, 1, 3, 1, 0, 1)), 5, 5, 7, 4)
              + series._slot_orders(6, 4, False))
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1


def _loop_antidiagonal_factors(pairs, q, stride):
    """``numerics._antidiagonal_factors`` term by term: for each k, pair p
    and j <= k, the flat indices of X[p, j] and Y[pairs - 1 - p, k - j],
    row p starting at p * stride."""
    xs, ys, starts = [], [], []
    for k in range(q + 1):
        starts.append(len(xs))
        for p in range(pairs):
            for j in range(k + 1):
                xs.append(p * stride + j)
                ys.append((pairs - 1 - p) * stride + k - j)
    return xs, ys, starts


def _loop_cauchy_factors(n, step_a, step_b, K, orders):
    """``numerics._cauchy_factors`` term by term: for each product slot m,
    order k <= orders[m], pair (i, i') and j <= k, the flat indices of
    A[i, j] and B[i', k - j]; the starts of the (m, k, pair) runs and of
    the (m, k) blocks, and each block's flat index in the product."""
    pairs = _loop_pairs(n, step_a, step_b)
    xs, ys, runs, blocks, targets = [], [], [], [], []
    for m in sorted({m for m, _, _ in pairs}):
        for k in range(orders[m] + 1):
            blocks.append(len(runs))
            targets.append(m * (K + 1) + k)
            for i, i2 in [(i, i2) for mm, i, i2 in pairs if mm == m]:
                runs.append(len(xs))
                for j in range(k + 1):
                    xs.append(i * (K + 1) + j)
                    ys.append(i2 * (K + 1) + k - j)
    return xs, ys, runs, blocks, targets


@pytest.mark.parametrize("pairs, q, stride", [(1, 0, 1), (1, 7, 8), (3, 4, 5), (2, 12, 34),
                                              (40, 84, 170)])
def test_antidiagonal_factor_tables_equal_a_loop(pairs, q, stride):
    # One pair of single jets is the table of ``products``; the others are
    # ``slot``'s over stacks of step 1 and 2, down to orders below the
    # stacks' (q < stride - 1), and 40 pairs of step 2 at q = 84 is its
    # size in a one-node solve at N = 80.
    got = numerics._antidiagonal_factors(pairs, q, stride)
    for table, want in zip(got, _loop_antidiagonal_factors(pairs, q, stride)):
        assert table.tolist() == want


@pytest.mark.parametrize("n, steps, K", [(1, (1, 1), 4), (7, (1, 1), 9), (7, (1, 2), 9),
                                         (7, (2, 1), 9), (8, (2, 2), 9), (41, (2, 2), 44)])
def test_cauchy_factor_tables_equal_a_loop(n, steps, K):
    # Orders that fall with the slot, as the solver's do, down to 0; the
    # last case is a one-node solve's stack at N = 40.
    orders = tuple(max(K - m - m // 3, 0) for m in range(n))
    got = numerics._cauchy_factors(n, *steps, K, orders)
    for table, want in zip(got, _loop_cauchy_factors(n, *steps, K, orders)):
        assert table.tolist() == want
