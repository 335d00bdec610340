"""Evaluation of positional, mixed-stationary, and counting strategies:
per-principal discounted payoffs and social welfare, exact or binary64."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _dense, _entries, policy_values_exact, policy_values_float, power_pays, topo_order
from .model import AsymMdp
from .numeric import FLOAT, NumericMode
from .strategies import CountingStrategy, MixedStationaryStrategy, check_positional


@dataclass
class EvalResult:
    """Per-principal value vectors plus their per-state sum."""

    per_principal: list  # one vector per principal
    social_welfare: list


def _bundle(vectors):
    n = len(vectors[0])
    sw = [sum(v[s] for v in vectors) for s in range(n)]
    return EvalResult(per_principal=vectors, social_welfare=sw)


def _policy_system(view, entries, r, mode):
    """Payoffs of the policy system with successor `entries` and
    n_states x n_principals rewards `r`, solved once per principal; exact
    mode finds the graph's `topo_order` once for all of them."""
    if not mode.is_exact:
        return _bundle([policy_values_float(view, i, entries, ri) for i, ri in enumerate(r.T)])
    order = topo_order(view.n_states, *entries[:2])
    return _bundle([policy_values_exact(view, i, entries, ri, order) for i, ri in enumerate(r.T)])


def eval_positional(asym: AsymMdp, sigma, mode: NumericMode = FLOAT) -> EvalResult:
    """Discounted payoff of a pure positional strategy, for every state."""
    check_positional(asym, sigma)
    view = asym.float_view(mode)
    rows = view.row_ptr[:-1] + np.asarray(sigma, dtype=np.int64)
    return _policy_system(view, _entries(view, rows), view.rewards[rows], mode)


def eval_stationary_mixed(
    asym: AsymMdp, strategy: MixedStationaryStrategy, mode: NumericMode = FLOAT
) -> EvalResult:
    """Payoffs of a per-state action distribution: the policy system of the
    view's rows, each weighted by its action's probability."""
    strategy.check(asym, mode)
    view = asym.float_view(mode)
    weight = np.array([w for dist in strategy.probs for w in dist], dtype=view.dtype)
    rows = np.flatnonzero(weight)
    r = np.zeros((view.n_states, view.n_principals), dtype=view.dtype)
    np.add.at(r, view.row_state[rows], weight[rows, None] * view.rewards[rows])
    return _policy_system(view, _entries(view, rows, weight), r, mode)


def eval_counting(asym: AsymMdp, cs: CountingStrategy, mode: NumericMode = FLOAT) -> EvalResult:
    """Payoffs of a counting strategy, for every start state.

    Computed by backward recursion over the prefix on top of the tail's
    positional values; equals the forward expectation sum_j lam^j E[R] plus
    the lam^kappa-weighted tail value.  Both modes hold all principals at
    once in an n_states x n_principals array over the mode's row view, and
    the prefix is taken run by run (see `_counting_values`).
    """
    cs.check(asym)
    tail_vals = eval_positional(asym, cs.tail, mode)
    return _bundle(_counting_values(asym.float_view(mode), cs, tail_vals))


def _counting_values(view, cs, tail_vals):
    """Per-principal value lists of a checked counting strategy, given its
    tail's values.

    The prefix is taken run by run, last run first.  A run of L steps
    playing rows sigma applies the affine map u -> r_sigma + lam * P_sigma u L times.
    When repeated squaring of each principal's (n+1) x (n+1) augmented
    matrix takes fewer multiplications than L sparse steps, the run is one
    matrix power; otherwise the played rows' successor entries are gathered
    once and each step is one segment sum of their successor values."""
    n = view.n_states
    u = np.array(tail_vals.per_principal, dtype=view.dtype).T
    for length, row in reversed(cs.runs):
        played = view.row_ptr[:-1] + np.asarray(row, dtype=np.int64)
        if power_pays(n, length):
            u = _affine_power(view, played, length, u)
            continue
        src, dst, prob = _entries(view, played)
        starts, prob = np.searchsorted(src, np.arange(n)), prob[:, None]
        r = view.rewards[played]
        for _ in range(length):
            u = r + view.discounts * np.add.reduceat(prob * u[dst], starts)
    return u.T.tolist()


def _affine_power(view, played, length, u):
    """u after `length` steps of u -> r + lam * P u over the played rows, by
    repeated squaring of each principal's augmented matrix [[lam P, r], [0, 1]]."""
    n = view.n_states
    base = np.zeros((view.n_principals, n + 1, n + 1), dtype=view.dtype)
    base[:, :n, :n] = view.discounts[:, None, None] * _dense(view, played)
    base[:, :n, n] = view.rewards[played].T
    base[:, n, n] = 1
    power = None
    while True:
        if length & 1:
            power = base if power is None else power @ base
        length >>= 1
        if not length:
            break
        base = base @ base
    return ((power[:, :n, :n] @ u.T[:, :, None])[:, :, 0] + power[:, :n, n]).T


def counting_value_from(asym: AsymMdp, prefixes, tail_vals, start: int, mode: NumericMode = FLOAT):
    """Payoffs from one start state of a block of prefix tables that share
    one tail, by forward occupancy propagation (the counting oracle's scan,
    kept apart from `eval_counting`'s backward recursion).

    `prefixes` holds local action indices, block x kappa x n_states, and
    `tail_vals` is the shared tail's `EvalResult`.  Returns the block x
    n_principals payoffs and the block's social welfare.  Each step visits
    only the states with mass, one column per table, and scatters their
    played rows' successor entries into the next occupancy.
    """
    view = asym.float_view(mode)
    prefixes = np.asarray(prefixes, dtype=np.int64)
    block = len(prefixes)
    dist = np.zeros((view.n_states, block), dtype=view.dtype)
    dist[start] = 1
    totals = np.zeros((block, view.n_principals), dtype=view.dtype)
    pows = np.ones(view.n_principals, dtype=view.dtype)
    src = view.row_state[view.succ_row]
    for step in prefixes.transpose(1, 0, 2):
        s, col = np.nonzero(dist)
        rows = step[col, s] + view.row_ptr[s]
        np.add.at(totals, col, pows * dist[s, col, None] * view.rewards[rows])
        played = np.zeros((block, view.n_rows), dtype=bool)
        played[col, rows] = True
        col, e = np.nonzero(played[:, view.succ_row])
        mass = dist[src[e], col] * view.succ_prob[e]
        dist = np.zeros_like(dist)
        np.add.at(dist, (view.succ_idx[e], col), mass)
        pows = pows * view.discounts
    s, col = np.nonzero(dist)
    tail = np.array(tail_vals.per_principal, dtype=view.dtype).T
    np.add.at(totals, col, pows * dist[s, col, None] * tail[s])
    return totals, totals.sum(axis=1)
