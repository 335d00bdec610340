"""Single-principal discounted solving: optimal values, Q-values, and
optimal-action sets, on an optionally action-restricted model.  A
restriction is a bool mask over the rows of `asym.float_view(mode)`;
per-state lists of action indices are its public form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .linalg import _entries, policy_values_exact, policy_values_float
from .model import AsymMdp
from .numeric import FLOAT, PI_IMPROVEMENT_TOL, TIE_TOL, NumericMode, format_fraction


@dataclass(eq=False)
class QTable:
    """One-step lookahead values q over the view's rows, and the
    restriction's row mask `allowed`."""

    q: np.ndarray
    allowed: np.ndarray


@dataclass
class SolveResult:
    values: list | np.ndarray  # per-state values: Fractions (exact) or binary64
    q: QTable
    strategy: list  # one optimal action per state


def _row_mask(asym, view, restriction):
    """The restriction as a bool mask over the view's rows: all rows for
    None, else the rows of per-state lists of local action indices,
    checked state by state."""
    if restriction is None:
        return np.ones(view.n_rows, dtype=bool)
    if len(restriction) > view.n_states:
        raise ValueError(f"restriction has {len(restriction)} entries for {view.n_states} states")
    starts = view.row_ptr.tolist()
    mask = [False] * view.n_rows
    for s, name in enumerate(asym.mdp.states):
        allowed = restriction[s] if s < len(restriction) else []
        n = starts[s + 1] - starts[s]
        if not allowed or not set(allowed) <= set(range(n)):
            raise ValueError(f"restriction allows {allowed} at state {name!r} (actions 0..{n - 1})")
        for a in allowed:
            mask[starts[s] + a] = True
    return np.array(mask, dtype=bool)


def solve_discounted(
    asym: AsymMdp,
    principal: int,
    mode: NumericMode = FLOAT,
    restriction=None,
) -> SolveResult:
    """Optimal discounted values for one principal, by policy iteration
    with exact per-policy solves.

    `restriction` lists the allowed local action indices of every state
    (None allows all); the order within a list does not matter, and ties
    go to the lowest allowed index.
    """
    view = asym.float_view(mode)
    mask = _row_mask(asym, view, restriction)
    lam = asym.discounts[principal]
    if not 0 < lam < 1:
        raise ValueError("discount factor must lie in (0, 1)")
    return _policy_iteration(view, principal, mask, mode)


def optimal_action_set(
    asym: AsymMdp,
    q: QTable,
    v,
    mode: NumericMode = FLOAT,
):
    """Per-state allowed actions whose q-value ties the optimum: exact mode
    keeps q(s, a) == v(s), float mode q(s, a) >= v(s) - TIE_TOL.  A
    state left empty raises ConvergenceError naming its shortfall
    v(s) - max allowed q(s, a) and the tolerance."""
    view = asym.float_view(mode)
    vs = np.asarray(v, dtype=view.dtype)[view.row_state]
    hit = q.q == vs if mode.is_exact else q.q >= vs - TIE_TOL
    hit &= q.allowed
    sets = [[] for _ in range(view.n_states)]
    for s, a in zip(view.row_state[hit].tolist(), view.local_action[hit].tolist()):
        sets[s].append(a)
    if not all(sets):
        s = sets.index([])
        best, _ = _masked_max(view, q.q, q.allowed)
        gap = v[s] - best.item(s)
        raise ConvergenceError(
            f"empty optimal action set at state {asym.mdp.states[s]!r}: "
            f"v(s) - max allowed q(s, a) = {format_fraction(gap) if mode.is_exact else gap} "
            f"against tie tolerance {0 if mode.is_exact else TIE_TOL}; solver tolerance too tight"
        )
    return sets


# -- policy iteration --------------------------------------------------------


def _one_step_all_rows(view, principal, lam, v):
    prod = view.succ_prob * v[view.succ_idx]
    sums = np.add.reduceat(prod, view.succ_ptr[:-1]) if len(prod) else np.zeros(0)
    return view.rewards[:, principal] + lam * sums


def _masked_max(view, q, mask):
    """Per-state maximum of q over the rows in `mask`, and q with the rows
    outside it set to -inf."""
    q = np.where(mask, q, -np.inf)
    return np.maximum.reduceat(q, view.row_ptr[:-1]), q


def _lowest_actions(view, hit):
    """Per state, the lowest local action index whose row has `hit` set."""
    return np.minimum.reduceat(np.where(hit, view.local_action, view.n_rows), view.row_ptr[:-1])


def _policy_iteration(view, principal, mask, mode):
    """Policy iteration over the mode's row view.  A state switches to its
    best allowed action (the lowest index among ties) only when that
    improves its q-value by more than eps: 0 in exact mode, which keeps
    the iteration acyclic, and PI_IMPROVEMENT_TOL * max(1, max|v|) in float mode."""
    lams = view.discounts[principal : principal + 1]  # one column: this principal's
    starts = view.row_ptr[:-1]
    sigma = _lowest_actions(view, mask)
    for _ in range(100_000):
        rows = starts + sigma
        system = view, _entries(view, rows), view.rewards[rows, principal : principal + 1], lams
        if mode.is_exact:
            v = policy_values_exact(*system)[:, 0].tolist()
            eps = 0
        else:
            v = policy_values_float(*system)[:, 0]
            eps = PI_IMPROVEMENT_TOL * max(1.0, float(np.max(np.abs(v), initial=0.0)))
        q = _one_step_all_rows(view, principal, lams[0], np.asarray(v, dtype=view.dtype))
        best, masked = _masked_max(view, q, mask)
        better = best > q[rows] + eps
        if not np.count_nonzero(better):
            return SolveResult(values=v, q=QTable(q, mask), strategy=sigma.tolist())
        sigma = np.where(better, _lowest_actions(view, masked == best[view.row_state]), sigma)
    raise ConvergenceError("policy iteration failed to stabilise")
