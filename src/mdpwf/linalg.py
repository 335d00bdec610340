"""Policy evaluation back-ends: exact rational and binary64 solvers.

Policy evaluation solves (I - lam * P_sigma) v = r_sigma.  Both modes
assemble it from the same successor entries of the row view (`_entries`),
once per strategy in the caller, and solve it once per principal.
The matrix is strictly row diagonally dominant for lam < 1, so Gaussian
elimination needs no pivoting; when the policy graph is acyclic apart from
self loops, exact mode back-substitutes along a topological order instead.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import MdpwfError

_DENSE_LIMIT = 600


def exact_gauss(a, b):
    """Solve a dense rational system held in object arrays; `a` and `b`
    are consumed."""
    n = len(b)
    for col in range(n):
        if a[col, col] == 0:
            below = np.flatnonzero(a[col + 1:, col] != 0)
            if not len(below):
                raise MdpwfError("singular linear system (internal invariant violated)")
            pivot = col + 1 + below[0]
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        inv = 1 / a[col, col]
        for r in range(col + 1, n):
            factor = a[r, col] * inv
            if factor != 0:
                a[r, col:] -= factor * a[col, col:]
                b[r] -= factor * b[col]
    x = np.empty(n, dtype=object)
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - a[r, r + 1:] @ x[r + 1:]) / a[r, r]
    return x.tolist()


def topo_order(n, src, dst):
    """Reverse topological order (sinks first) of the graph on n states with
    edges src -> dst, ignoring self loops; None if it has a cycle through
    two or more states."""
    keep = src != dst
    succs = [[] for _ in range(n)]
    for s, t in zip(src[keep].tolist(), dst[keep].tolist()):
        succs[s].append(t)
    indeg = np.bincount(dst[keep], minlength=n).tolist()
    order = [s for s in range(n) if not indeg[s]]
    for s in order:  # Kahn's algorithm; the list is its queue and grows as it is read
        for t in succs[s]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    return order[::-1] if len(order) == n else None


def _entries(view, rows, weight=None):
    """Successor entries of the view's `rows` (ascending), in row order:
    source state, successor and probability arrays.  With `weight`, one
    number per row of the view, each probability is scaled by its row's."""
    take = np.zeros(view.n_rows, dtype=bool)
    take[rows] = True
    e = take[view.succ_row]
    row = view.succ_row[e]
    prob = view.succ_prob[e] if weight is None else weight[row] * view.succ_prob[e]
    return view.row_state[row], view.succ_idx[e], prob


def policy_values_float(view, principal, entries, r):
    """binary64 value vector for one principal of the policy system with
    successor `entries` and rewards `r`: LAPACK solve, dense up to
    _DENSE_LIMIT states and sparse above."""
    lam = float(view.discounts[principal])
    n = view.n_states
    src, dst, prob = entries
    data = -lam * prob
    if n <= _DENSE_LIMIT:
        a = np.eye(n)
        np.add.at(a, (src, dst), data)
        return np.linalg.solve(a, r)
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    a = sparse.coo_matrix(
        (data, (src, dst)), shape=(n, n)
    ).tocsr() + sparse.identity(n, format="csr")
    return spsolve(a, r)


def policy_values_exact(view, principal, entries, r, order):
    """Exact value vector for one principal of the policy system with
    successor `entries` and rewards `r` (consumed): back-substitution along
    `order`, a `topo_order` valid for the policy's graph, summing each
    state's self-loop entries; `exact_gauss` when `order` is None (a cycle)."""
    lam = view.discounts[principal]
    n = view.n_states
    src, dst, prob = entries
    if order is None:
        a = np.full((n, n), Fraction(0), dtype=object)
        np.fill_diagonal(a, Fraction(1))
        np.add.at(a, (src, dst), -lam * prob)  # sums repeated successors
        return exact_gauss(a, r)
    ptr = np.searchsorted(src, np.arange(n + 1)).tolist()
    dst, prob, r = dst.tolist(), prob.tolist(), r.tolist()
    v = [Fraction(0)] * n
    for s in order:
        acc, self_p = r[s], Fraction(0)
        for k in range(ptr[s], ptr[s + 1]):
            if dst[k] == s:
                self_p += prob[k]
            else:
                acc += lam * prob[k] * v[dst[k]]
        v[s] = acc / (1 - lam * self_p)
    return v
