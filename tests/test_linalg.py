"""The lifted cyclic solver `exact_gauss` against a plain `Fraction`
Gaussian elimination kept here as the reference, and the float solve's
sparse path against its dense one."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mdpwf.linalg
from mdpwf import EXACT, FLOAT, MdpwfError, RandomMdpConfig, random_mdp
from mdpwf.evaluate import eval_stationary_mixed
from mdpwf.linalg import _entries, _prime_below, exact_gauss, policy_values_float, sparse_pays, topo_order
from mdpwf.numeric import PI_IMPROVEMENT_TOL
from mdpwf.strategies import MixedStationaryStrategy
from mdpwf.welfare import optimize


def fraction_gauss(n, rows, cols, vals, b):
    """Dense elimination over `Fraction`s with row pivoting; repeated
    positions are summed."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j, v in zip(rows, cols, vals):
        a[i][j] += v
    b = [Fraction(x) for x in b]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
            b[r] -= f * b[c]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        x[r] = (b[r] - sum(a[r][k] * x[k] for k in range(r + 1, n))) / a[r][r]
    return x


def policy_system(asym, sigma, principal):
    """(rows, cols, vals, b) of (I - lam P_sigma) v = r_sigma, and the
    policy graph's topological order (None when it has a cycle)."""
    view = asym.float_view(EXACT)
    rows = view.row_ptr[:-1] + np.asarray(sigma)
    src, dst, prob = _entries(view, rows)
    diag = np.arange(asym.n_states)
    lam = view.discounts[principal]
    system = (
        np.concatenate([src, diag]),
        np.concatenate([dst, diag]),
        [*(-lam * prob), *[1] * asym.n_states],
        view.rewards[rows, principal].tolist(),
    )
    return system, topo_order(asym.n_states, src, dst)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lifted_solve_matches_fraction_elimination(data):
    asym = random_mdp(
        RandomMdpConfig(
            num_states=data.draw(st.integers(2, 12), label="states"),
            actions_per_state=data.draw(st.integers(1, 3), label="actions"),
            num_principals=2,
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
    )
    sigma = data.draw(
        st.tuples(*(st.integers(0, len(acts) - 1) for acts in asym.mdp.actions)), label="sigma"
    )
    principal = data.draw(st.integers(0, 1), label="principal")
    system, order = policy_system(asym, sigma, principal)
    assume(order is None)
    assert exact_gauss(*system) == fraction_gauss(asym.n_states, *system)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lifted_solve_pivots_and_detects_singular(data):
    """Sparse matrices with zero pivots: a row swap, or no solution."""
    n = data.draw(st.integers(1, 6), label="n")
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-7, 3)])
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    b = data.draw(st.lists(entry, min_size=n, max_size=n), label="b")
    rows, cols = np.nonzero(np.array(a, dtype=object) != 0)
    system = (rows, cols, [a[i][j] for i, j in zip(rows, cols)], b)
    try:
        want = fraction_gauss(n, *system)
    except StopIteration:  # no pivot left: singular
        with pytest.raises(MdpwfError, match="singular"):
            exact_gauss(*system)
    else:
        assert exact_gauss(*system) == want


def test_prime_dividing_the_determinant_is_skipped(monkeypatch):
    """s0 <-> s1 with lam = 1 / (p + 1): the scaled rows are [p + 1, -1]
    and [-1, p + 1], whose determinant p (p + 2) vanishes mod p."""
    p = _prime_below(2**26)
    lam = Fraction(1, p + 1)
    system = ([0, 0, 1, 1], [0, 1, 0, 1], [1, -lam, -lam, 1], [Fraction(3), Fraction(-5, 7)])
    tried = []
    real = mdpwf.linalg._inverse_mod

    def spy(a, rows, cols, n, q):
        inv = real(a, rows, cols, n, q)
        tried.append((q, inv is None))
        return inv

    monkeypatch.setattr(mdpwf.linalg, "_inverse_mod", spy)
    assert exact_gauss(*system) == fraction_gauss(2, *system)
    assert tried == [(p, True), (_prime_below(p), False)]


def test_entries_far_beyond_int64():
    """40-digit denominators: the scaled rows reach about 10^120 and the
    residual update runs on Python integers."""
    rng = np.random.default_rng(7)
    n = 6
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            den = 10**40 + int(rng.integers(1, 10**6))
            num = int(rng.integers(1, 10**6)) * 10**33
            rows.append(i)
            cols.append(j)
            vals.append(1 + Fraction(num, den) if i == j else Fraction(-num, den))
    b = [Fraction(int(rng.integers(-10**9, 10**9)), 10**40 + k) for k in range(n)]
    assert max(v.denominator for v in vals) > 2**63
    assert exact_gauss(rows, cols, vals, b) == fraction_gauss(n, rows, cols, vals, b)


def test_failed_check_raises(monkeypatch):
    real = mdpwf.linalg._reconstruct

    def off_by_one(*args):
        y, d = real(*args)
        return y + 1, d

    monkeypatch.setattr(mdpwf.linalg, "_reconstruct", off_by_one)
    system = ([0, 0, 1, 1], [0, 1, 0, 1], [1, Fraction(-1, 2), Fraction(-1, 3), 1], [1, 2])
    with pytest.raises(MdpwfError, match="exact check"):
        exact_gauss(*system)


def _both_paths(monkeypatch, solve):
    """solve() with the float solve forced onto the sparse path, then onto
    the dense one."""
    out = []
    for sparse in (True, False):
        monkeypatch.setattr(mdpwf.linalg, "sparse_pays", lambda n, nnz, sparse=sparse: sparse)
        out.append(solve())
    return out


def _close(got, want):
    """Agreement within the margin policy iteration switches on, relative to
    max(1, max|want|)."""
    want = np.asarray(want)
    return np.max(np.abs(np.asarray(got) - want)) <= PI_IMPROVEMENT_TOL * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("lam", [Fraction(9, 10), Fraction(99, 100)])
@pytest.mark.parametrize("successors", [(1, 3), (4, 6)])
@pytest.mark.parametrize("n", [256, 257, 600, 601])
def test_sparse_solve_matches_dense_at_the_switch(monkeypatch, n, successors, lam):
    asym = random_mdp(
        RandomMdpConfig(num_states=n, successors=successors, discounts=[lam, Fraction(1, 10)], seed=n)
    )
    view = asym.float_view(FLOAT)
    rows = view.row_ptr[:-1]
    entries, r = _entries(view, rows), view.rewards[rows, 0]
    # the measured switch: sparse above 600 states, and above 256 for about
    # two successors a row but not for five
    assert sparse_pays(n, len(entries[0])) == (n > 600 or (n > 256 and successors == (1, 3)))
    sparse, dense = _both_paths(monkeypatch, lambda: policy_values_float(view, 0, entries, r))
    a = np.eye(n)
    np.add.at(a, entries[:2], -float(lam) * entries[2])
    for v in (sparse, dense):
        assert _close(a @ v, r)
    assert _close(sparse, dense)


def test_sparse_solve_sums_repeated_entries(monkeypatch):
    # mixing two actions that share a successor repeats (state, successor)
    # pairs among the entries; the CSC build must add them up
    n = 300
    asym = random_mdp(RandomMdpConfig(num_states=n, seed=0))
    strategy = MixedStationaryStrategy([[Fraction(1, 2), Fraction(1, 2)]] * n)
    view = asym.float_view(FLOAT)
    src, dst, _ = _entries(view, np.arange(view.n_rows), np.full(view.n_rows, 0.5))
    assert len(set(zip(src.tolist(), dst.tolist()))) < len(src)
    sparse, dense = _both_paths(monkeypatch, lambda: eval_stationary_mixed(asym, strategy))
    for got, want in zip(sparse.per_principal, dense.per_principal):
        assert _close(got, want)


def test_float_optimize_same_on_either_path(monkeypatch):
    asym = random_mdp(RandomMdpConfig(num_states=300, seed=0))
    view = asym.float_view(FLOAT)
    assert sparse_pays(300, len(_entries(view, view.row_ptr[:-1])[0]))
    sparse = optimize(asym, mode=FLOAT)
    monkeypatch.setattr(mdpwf.linalg, "_DENSE_LIMIT", 600)
    dense = optimize(asym, mode=FLOAT)
    assert sparse.kappa == dense.kappa > 0
    assert sparse.long_term.restricted == dense.long_term.restricted
    assert sparse.strategy.tail == dense.strategy.tail
    assert sparse.strategy.runs == dense.strategy.runs
