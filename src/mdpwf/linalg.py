"""Policy evaluation back-ends: exact rational and binary64 solvers.

Policy evaluation solves (I - lam * P_sigma) v = r_sigma.  Both modes
assemble it from the same successor entries of the row view (`_entries`),
once per strategy in the caller, and solve it once per principal.
The matrix is strictly row diagonally dominant for lam < 1, hence
nonsingular.  Float mode solves it by LAPACK.  Exact mode back-substitutes
along a topological order when the policy graph is acyclic apart from self
loops, and otherwise solves it on integers by p-adic lifting
(`exact_gauss`), whose result is checked exactly before it is returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import MdpwfError

_DENSE_LIMIT = 600


def exact_gauss(rows, cols, vals, b):
    """Solve the nonsingular sparse rational system A x = b exactly: A has
    entry vals[k] at (rows[k], cols[k]), repeated positions summed, and the
    result is the list of `Fraction`s x.

    Dixon's p-adic lifting (Numer. Math. 40, 1982): scale each row to
    integers, invert A mod a prime p in int64, and lift x one base-p digit
    at a time with an integer residual update over the entries, until p**k
    exceeds twice the product of the Hadamard bounds on x's numerators and
    on its common denominator.
    The vector is reconstructed with one growing common denominator d
    (Wang, Guy & Davenport, SIGSAM Bull. 16(2), 1982) and accepted only if
    A y = d b holds exactly in integers.  A prime dividing det A is
    skipped for the next one."""
    n = len(b)
    by_row = np.argsort(rows, kind="stable")
    rows, cols = np.asarray(rows)[by_row], np.asarray(cols)[by_row]
    vals = [vals[k] for k in by_row.tolist()]
    scale = [x.denominator for x in b]
    for i, x in zip(rows.tolist(), vals):
        scale[i] = math.lcm(scale[i], x.denominator)
    a = _scaled(vals, [scale[i] for i in rows.tolist()])
    rhs = _scaled(b, scale)
    # Hadamard bounds, with each row's 2-norm bounded by its 1-norm: |det A|
    # by det_bound, every Cramer numerator |det A_j| by num_bound
    norms = np.zeros(n, dtype=object)
    np.add.at(norms, rows, np.abs(a))
    det_bound, num_bound = math.prod(norms.tolist()), math.prod((norms + np.abs(rhs)).tolist())
    ptr = np.searchsorted(rows, np.arange(n + 1))
    p, tried = min(2**26, math.isqrt(2**62 // max(n, 1))), 1  # n p^2 <= 2^62
    while True:
        p = _prime_below(p)
        if tried > det_bound:  # every prime tried divides det A, so it is 0
            raise MdpwfError("singular linear system (internal invariant violated)")
        tried *= p
        inv = _inverse_mod(a, rows, cols, n, p)
        if inv is not None:
            break
    steps = (2 * det_bound * num_bound).bit_length() // (p.bit_length() - 1) + 1
    x, pk, r = np.zeros(n, dtype=object), 1, rhs
    for _ in range(steps):
        digit = (inv @ (r % p).astype(np.int64) % p).astype(object)
        x += digit * pk
        r = (r - np.add.reduceat(a * digit[cols], ptr[:-1])) // p
        pk *= p
    y, d = _reconstruct(x, pk, num_bound, det_bound)
    if not np.array_equal(np.add.reduceat(a * y[cols], ptr[:-1]), d * rhs):
        raise MdpwfError("lifted solution failed its exact check (internal invariant violated)")
    return [Fraction(v, d) for v in y.tolist()]


def _scaled(xs, scales):
    """The integers x * s of rationals xs and multiples s of their denominators."""
    return np.array([x.numerator * (s // x.denominator) for x, s in zip(xs, scales)], dtype=object)


@cache
def _prime_below(q):
    """The largest prime below q (q > 3)."""
    q -= 1 + q % 2
    while not np.all(q % np.arange(3, math.isqrt(q) + 1, 2)):
        q -= 2
    return q


def _inverse_mod(a, rows, cols, n, p):
    """Inverse mod p of the n x n matrix with entries `a` at (rows, cols),
    by Gauss-Jordan elimination on [A | I] in int64; None when the matrix
    is singular mod p.

    Only the pivot row and column are reduced at each step: every other
    entry gains less than p^2 per step, and n p^2 <= 2^62.  A row swap also
    swaps the two identity columns (recorded in `order`), so that at step c
    the pivot row is zero past column n + c and each step updates only
    columns c to n + c."""
    m = np.zeros((n, 2 * n), dtype=np.int64)
    np.add.at(m, (rows, cols), (a % p).astype(np.int64))
    m[:, n:] = np.eye(n, dtype=np.int64)
    order = np.arange(n)
    for c in range(n):
        col = m[:, c] % p
        nonzero = np.flatnonzero(col[c:])
        if not len(nonzero):
            return None
        k = c + nonzero[0]
        if k != c:
            m[[c, k]], col[[c, k]] = m[[k, c]], col[[k, c]]
            m[:, [n + c, n + k]] = m[:, [n + k, n + c]]
            order[[c, k]] = order[[k, c]]
        live = slice(c, n + c + 1)
        pivot = m[c, live] % p * pow(int(col[c]), -1, p) % p
        col[c] = 0
        m[:, live] -= col[:, None] * pivot
        m[c, live] = pivot
    inv = np.empty((n, n), dtype=np.int64)
    inv[:, order] = m[:, n:] % p
    return inv


def _reconstruct(x, modulus, num_bound, det_bound):
    """Common denominator d and numerators y with y = d x mod `modulus`,
    where x is a vector of residues of rationals whose numerators are at
    most num_bound and whose common denominator is at most det_bound, and
    2 num_bound det_bound < modulus.  d grows coordinate by coordinate, so
    each coordinate needs a Euclidean reconstruction only when its
    denominator does not divide the d found so far.  Bounds are not
    rechecked: the caller's exact check rejects any wrong result."""
    y, d = [], 1
    for v in x.tolist():
        t, top = d * v % modulus, d * num_bound
        if t > modulus // 2:
            t -= modulus
        if abs(t) > top:  # the half extended Euclid (Wang)
            r0, r1, s0, s1 = modulus, t % modulus, 0, 1
            while r1 > top:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            t, e = (r1, s1) if s1 > 0 else (-r1, -s1)
            y = [w * e for w in y]
            d *= e
        y.append(t)
    return np.array(y, dtype=object), d


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
    successor `entries` and rewards `r`: back-substitution along
    `order`, a `topo_order` valid for the policy's graph, summing each
    state's self-loop entries; the lifted solve `exact_gauss` when `order`
    is None (a cycle)."""
    lam = view.discounts[principal]
    n = view.n_states
    src, dst, prob = entries
    if order is None:
        diag = np.arange(n)
        return exact_gauss(
            np.concatenate([src, diag]), np.concatenate([dst, diag]), [*(-lam * prob), *[1] * n], r
        )
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
