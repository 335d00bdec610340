"""Policy evaluation back-ends: exact rational and binary64 solvers.

Policy evaluation solves (I - lam * P_sigma) v = r_sigma.  The matrix is
strictly row diagonally dominant for lam < 1, so Gaussian elimination
needs no pivoting; when the policy graph is acyclic apart from self
loops, plain back-substitution along a topological order is used instead.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import MdpwfError

_DENSE_LIMIT = 600


def exact_gauss(a, b):
    """Solve a dense rational system in place; `a` and `b` are consumed."""
    n = len(b)
    for col in range(n):
        if a[col][col] == 0:
            pivot = next(
                (r for r in range(col + 1, n) if a[r][col] != 0), None
            )
            if pivot is None:
                raise MdpwfError("singular linear system (internal invariant violated)")
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            row, prow = a[r], a[col]
            for c in range(col, n):
                row[c] -= factor * prow[c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        row = a[r]
        for c in range(r + 1, n):
            acc -= row[c] * x[c]
        x[r] = acc / row[r]
    return x


def policy_topo_order(transitions, sigma):
    """Reverse topological order of the policy graph ignoring self loops,
    or None if it has a cycle through two or more states."""
    n = len(sigma)
    succs = []
    for s in range(n):
        succs.append([t for t, _ in transitions[s][sigma[s]] if t != s])
    indeg = [0] * n
    for s in range(n):
        for t in succs[s]:
            indeg[t] += 1
    stack = [s for s in range(n) if indeg[s] == 0]
    order = []
    while stack:
        s = stack.pop()
        order.append(s)
        for t in succs[s]:
            indeg[t] -= 1
            if indeg[t] == 0:
                stack.append(t)
    if len(order) < n:
        return None
    order.reverse()  # evaluate sinks first
    return order


def policy_values_exact(asym, sigma, principal, order=None):
    """Exact value vector of a positional strategy for one principal."""
    lam = asym.discounts[principal]
    trans = asym.mdp.transitions
    n = asym.n_states
    if order is None:
        order = policy_topo_order(trans, sigma)
    if order is not None:
        v = [Fraction(0)] * n
        for s in order:
            acc = asym.rewards[s][sigma[s]][principal]
            self_p = Fraction(0)
            for t, p in trans[s][sigma[s]]:
                if t == s:
                    self_p += p
                else:
                    acc += lam * p * v[t]
            v[s] = acc / (1 - lam * self_p)
        return v
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for s in range(n):
        a[s][s] = Fraction(1)
        b[s] = asym.rewards[s][sigma[s]][principal]
        for t, p in trans[s][sigma[s]]:
            a[s][t] -= lam * p
    return exact_gauss(a, b)


def policy_values_float(view, sigma, principal):
    """binary64 value vector of a positional strategy for one principal."""
    lam = float(view.discounts[principal])
    n = view.n_states
    rows = view.row_ptr[:-1] + np.asarray(sigma, dtype=np.int64)
    r = view.rewards[rows, principal]
    played = np.zeros(view.n_rows, dtype=bool)
    played[rows] = True
    # successor entries of the played rows, in state order
    take = played[view.succ_row]
    src = view.row_state[view.succ_row[take]]
    cols = view.succ_idx[take]
    data = -lam * view.succ_prob[take]
    if n <= _DENSE_LIMIT:
        a = np.eye(n)
        np.add.at(a, (src, cols), data)
        return np.linalg.solve(a, r)
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    a = sparse.coo_matrix(
        (data, (src, cols)), shape=(n, n)
    ).tocsr() + sparse.identity(n, format="csr")
    return spsolve(a, r)
