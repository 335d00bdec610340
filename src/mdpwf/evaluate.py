"""Evaluation of positional, mixed-stationary, and counting strategies:
per-principal discounted payoffs and social welfare, exact or binary64."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .linalg import _dense, _entries, policy_values_exact, policy_values_float, power_pays
from .model import AsymMdp
from .numeric import DECOMPOSITION_TOL, FLOAT, NumericMode
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


def _solve(view, entries, r, mode):
    """Values of the policy system with successor `entries` and rewards `r`, a
    column per principal, from one call to the mode's solver, looked up when called."""
    solver = policy_values_exact if mode.is_exact else policy_values_float
    return solver(view, entries, r, view.discounts)


def _policy_system(view, entries, r, mode):
    """Payoffs of the policy system with successor `entries` and rewards `r`."""
    v = _solve(view, entries, r, mode)
    return _bundle(v.T.tolist() if mode.is_exact else list(v.T))


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


def eval_counting(
    asym: AsymMdp, cs: CountingStrategy, mode: NumericMode = FLOAT, *, tail_values=None
) -> EvalResult:
    """Payoffs of a counting strategy, for every start state.

    Computed by backward recursion over the prefix on top of the tail's
    positional values; equals the forward expectation sum_j lam^j E[R] plus
    the lam^kappa-weighted tail value.  All principals are held at once in
    an n_states x n_principals array, and the prefix is taken run by run, a
    long run in closed form (see `_counting_values`).

    The tail's values are solved for, unless `tail_values` gives them, one
    vector per principal, as `optimize` gives the cascade's.  Exact mode
    takes them as given: `advantages` has certified that the tail's rows have
    zero advantage, so the values solve the tail's policy system.  Float mode
    checks them by their residual (`_check_tail`).
    """
    cs.check(asym)
    view = asym.float_view(mode)
    if tail_values is None:
        tail_values = eval_positional(asym, cs.tail, mode).per_principal
    elif not mode.is_exact:
        _check_tail(asym, view, cs.tail, tail_values)
    return _bundle(_counting_values(view, cs, tail_values, mode))


def _step(view, entries, r):
    """u -> r + lam * P u, over the successor `entries` of one row per state
    and their rewards `r`, for u with a column per principal."""
    src, dst, prob = entries
    starts, prob = np.searchsorted(src, np.arange(view.n_states)), prob[:, None]
    return lambda u: r + view.discounts * np.add.reduceat(prob * u[dst], starts)


def _check_tail(asym, view, tail, tail_values):
    """CertificationError unless float values V_i are within
    DECOMPOSITION_TOL * max(1, max|V_i|) of the tail's values for every
    principal i, by the bound |V^tail - V| <= |rho|_inf / (1 - lam) on the
    residual rho = r + lam P V - V over the tail's rows (Williams & Baird,
    "Tight performance bounds on greedy policies based on imperfect value
    functions", Northeastern Univ. NU-CCS-93-14, 1993)."""
    played = view.row_ptr[:-1] + np.asarray(tail, dtype=np.int64)
    u = np.array(tail_values, dtype=float).T
    residual = np.abs(_step(view, _entries(view, played), view.rewards[played])(u) - u)
    bound = residual.max(axis=0, initial=0.0) / (1 - view.discounts)
    tol = DECOMPOSITION_TOL * np.maximum(1.0, np.abs(u).max(axis=0, initial=0.0))
    bad = bound > tol
    if bad.any():
        i = int(bad.argmax())
        s = int(residual[:, i].argmax())
        raise CertificationError(
            f"tail values fail their residual check at state {asym.mdp.states[s]!r} for "
            f"principal {i}: residual {residual[s, i]}, bound {bound[i]} against {tol[i]}"
        )


def _counting_values(view, cs, tail_values, mode):
    """Per-principal value lists of a checked counting strategy, given its
    tail's values, one vector per principal.

    The prefix is taken run by run, last run first, each from its played
    rows' successor entries.  Where `power_pays`, a run of L steps of
    T(u) = r + lam * P u is T^L(u) = w + lam^L * P^L (u - w), from the policy
    values w = T(w) of one solve and one power P^L for all principals
    (Puterman, "Markov Decision Processes", 1994, sec. 6.1); otherwise each
    step is one segment sum of the successor values (`_step`)."""
    n = view.n_states
    u = np.array(tail_values, dtype=view.dtype).T
    for length, row in reversed(cs.runs):
        played = view.row_ptr[:-1] + np.asarray(row, dtype=np.int64)
        entries, r = _entries(view, played), view.rewards[played]
        if power_pays(n, length):
            w = _solve(view, entries, r, mode)
            power = np.linalg.matrix_power(_dense(view, entries), length)
            u = w + view.discounts**length * (power @ (u - w))
            continue
        step = _step(view, entries, r)
        for _ in range(length):
            u = step(u)
    return u.T.tolist()


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
