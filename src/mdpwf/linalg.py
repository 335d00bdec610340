"""Policy evaluation back-ends: exact rational and binary64 solvers.

Policy evaluation solves (I - lam * P_sigma) v = r_sigma.  Both modes
assemble it from the same successor entries of the row view (`_entries`),
once per strategy in the caller, and solve it for all principals in one
call, one value column per discount; the matrix is strictly row diagonally
dominant for lam < 1, hence nonsingular.  Float mode solves it by dense
LAPACK or by sparse LU (`sparse_pays` picks which).  Exact mode
back-substitutes along a topological order when the policy graph is acyclic
apart from self loops, and otherwise solves it on integers by p-adic lifting
(`exact_gauss`), whose result is checked exactly before it is returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import MdpwfError

_DENSE_LIMIT = 256  # sparse_pays: no sparse solve at or below this many states
_SPARSE_LIMIT = 600  # sparse_pays: always a sparse solve above this many states
_SPARSE_ENTRIES_PER_STATE = 2.5  # sparse_pays: the densest system sparse above _DENSE_LIMIT


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


def power_pays(n, length):
    """Whether `length` steps over n states cost more step by step than by the
    power P^length of `evaluate._counting_values`: a sparse step takes at least
    2n multiplications, repeated squaring at most 2 bit_length(length) n x n
    matrix products of at most (n+1)^3 each (the policy solve is not counted)."""
    return length.bit_length() * (n + 1) ** 3 < n * length


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


def _dense(view, entries):
    """The n_states x n_states transition matrix of successor `entries`
    (`_entries` of one row per state), with repeated successors summed."""
    src, dst, prob = entries
    p = np.zeros((view.n_states, view.n_states), dtype=view.dtype)
    np.add.at(p, (src, dst), prob)
    return p


def sparse_pays(n, nnz):
    """Whether the policy system over n states with nnz successor entries
    is cheaper to solve by sparse LU than by dense LAPACK.  Above
    _SPARSE_LIMIT states always, which also bounds the dense path's n^2
    memory; above _DENSE_LIMIT when the rows hold at most
    _SPARSE_ENTRIES_PER_STATE entries on average.  Measured on one thread of
    a 2-core x86 host, dense solve against the symmetric-mode LU on random
    policy systems: with (1, 3) successors per row sparse wins from about
    256 states, with (2, 4) from about 600, with (3, 5) they break even and
    with (4, 6) dense wins at every size up to 2000."""
    return n > _SPARSE_LIMIT or (n > _DENSE_LIMIT and nnz <= _SPARSE_ENTRIES_PER_STATE * n)


def policy_values_float(view, entries, r, lams):
    """binary64 values of the policy system with successor `entries`, one
    column per discount: (I - lams[i] P) v[:, i] = r[:, i].  Dense LAPACK
    solves the stacked matrices in one call; where `sparse_pays`, SuperLU
    factors each column's CSC matrix (repeated entries summed), one at a
    time, in symmetric mode, which permutes rows as the fill-reducing column
    order and prefers diagonal pivots.  A symmetric permutation keeps
    I - lam P strictly row diagonally dominant, and elimination on such a
    matrix is stable on its diagonal (growth factor at most 2; Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., Thm 9.9)."""
    n, k = view.n_states, len(lams)
    src, dst, prob = entries
    data = prob[:, None] * -lams  # entry x column
    if not sparse_pays(n, len(src)):
        a = np.zeros((n, n, k))
        a.reshape(n * n, k)[:: n + 1] = 1
        np.add.at(a, (src, dst), data)
        return np.linalg.solve(a.transpose(2, 0, 1), r.T[:, :, None])[..., 0].T
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    diag = np.arange(n)
    rows, cols = np.concatenate([src, diag]), np.concatenate([dst, diag])
    a = (csc_array((np.concatenate([d, np.ones(n)]), (rows, cols)), shape=(n, n)) for d in data.T)
    return np.array([splu(m, options=dict(SymmetricMode=True)).solve(b) for m, b in zip(a, r.T)]).T


def policy_values_exact(view, entries, r, lams):
    """Exact values of the policy system with successor `entries`, one
    column per discount as in `policy_values_float`: back-substitution along
    the policy graph's `topo_order`, summing each state's self-loop entries,
    or the lifted solve `exact_gauss` when the graph has a cycle."""
    n = view.n_states
    src, dst, prob = entries
    order = topo_order(n, src, dst)
    if order is None:
        diag = np.arange(n)
        rows, cols = np.concatenate([src, diag]), np.concatenate([dst, diag])
        v = [exact_gauss(rows, cols, [*(-lam * prob), *[1] * n], ri) for lam, ri in zip(lams, r.T)]
        return np.array(v, dtype=object).T
    ptr = np.searchsorted(src, np.arange(n + 1)).tolist()
    dst, prob, v = dst.tolist(), prob.tolist(), np.empty((n, len(lams)), dtype=object)
    for i, lam in enumerate(lams):
        ri, vi = r[:, i].tolist(), [Fraction(0)] * n
        for s in order:
            acc, self_p = ri[s], Fraction(0)
            for j in range(ptr[s], ptr[s + 1]):
                if dst[j] == s:
                    self_p += prob[j]
                else:
                    acc += lam * prob[j] * vi[dst[j]]
            vi[s] = acc / (1 - lam * self_p)
        v[:, i] = vi
    return v
