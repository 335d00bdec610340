"""Single-principal discounted solving: optimal values, Q-values, and
optimal-action sets, on an optionally action-restricted model."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError
from .linalg import policy_values_exact, policy_values_float
from .model import AsymMdp
from .numeric import DEFAULT_TIE_TOLERANCE, FLOAT, NumericMode


@dataclass
class ValueVector:
    """Optimal per-state values for one principal on a restricted model."""

    values: list
    discount: Fraction
    principal: int

    def __getitem__(self, s):
        return self.values[s]


@dataclass
class QTable:
    """One-step lookahead values q(s, a) for the allowed rows."""

    q: dict  # (state, local action) -> value

    def value(self, s, a):
        return self.q[(s, a)]


@dataclass
class SolveResult:
    values: ValueVector
    q: QTable
    strategy: list  # one optimal action per state


def full_restriction(asym: AsymMdp):
    return [list(range(len(asym.mdp.actions[s]))) for s in range(asym.n_states)]


def _check_restriction(asym, restriction):
    if restriction is None:
        return full_restriction(asym)
    for s, allowed in enumerate(restriction):
        if not allowed:
            raise ValueError(f"restriction leaves state {asym.mdp.states[s]!r} without actions")
    return restriction


def solve_discounted(
    asym: AsymMdp,
    principal: int,
    mode: NumericMode = FLOAT,
    method: str = "pi",
    restriction=None,
    max_iterations: int = 1_000_000,
) -> SolveResult:
    """Optimal discounted values for one principal.

    `method` is "pi" (policy iteration with exact per-policy solves) or
    "vi" (value iteration, float mode only, stopping when the sup-norm
    residual drops below tolerance * (1 - lam) / (2 lam)).
    """
    restriction = _check_restriction(asym, restriction)
    lam = asym.discounts[principal]
    if not 0 < lam < 1:
        raise ValueError("discount factor must lie in (0, 1)")
    if method == "pi":
        return _policy_iteration(asym, principal, restriction, mode)
    if method == "vi":
        if mode.is_exact:
            raise ValueError("value iteration requires float mode (exact mode has tolerance 0)")
        return _value_iteration_float(asym, principal, restriction, mode, max_iterations)
    raise ValueError(f"unknown method {method!r}")


def optimal_action_set(
    asym: AsymMdp,
    q: QTable,
    v: ValueVector,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    mode: NumericMode = FLOAT,
):
    """Per-state actions whose q-value ties the optimum.

    Exact mode keeps q(s, a) == v(s); float mode keeps
    q(s, a) >= v(s) - tie_tolerance.  Never empty for valid inputs.
    """
    sets = [[] for _ in range(len(v.values))]
    for (s, a), qv in q.q.items():
        if mode.is_exact:
            keep = qv == v.values[s]
        else:
            keep = qv >= v.values[s] - tie_tolerance
        if keep:
            sets[s].append(a)
    for s, allowed in enumerate(sets):
        allowed.sort()
        if not allowed:
            raise ConvergenceError(
                f"empty optimal action set at state {asym.mdp.states[s]!r}; "
                "solver tolerance too tight"
            )
    return sets


# -- back-ends ---------------------------------------------------------------


def _restriction_arrays(view, restriction):
    rows = []
    ptr = [0]
    for s, allowed in enumerate(restriction):
        base = int(view.row_ptr[s])
        rows.extend(base + a for a in allowed)
        ptr.append(len(rows))
    return np.asarray(rows, dtype=np.int64), np.asarray(ptr, dtype=np.int64)


def _one_step_all_rows(view, principal, lam, v):
    prod = view.succ_prob * v[view.succ_idx]
    sums = np.add.reduceat(prod, view.succ_ptr[:-1]) if len(prod) else np.zeros(0)
    return view.rewards[:, principal] + lam * sums


def _q_dict(view, restriction, q_all):
    starts = view.row_ptr.tolist()
    q = q_all.tolist()
    return {(s, a): q[starts[s] + a] for s, allowed in enumerate(restriction) for a in allowed}


def _policy_iteration(asym, principal, restriction, mode):
    """Policy iteration over the mode's row view.  A state switches to its
    best allowed action (the lowest index among ties) only when that
    improves its q-value by more than eps: 0 in exact mode, which keeps
    the iteration acyclic, and 1e-12 * max(1, max|v|) in float mode."""
    view = asym.float_view(mode)
    lam = view.discounts[principal]
    starts = view.row_ptr.tolist()
    sigma = [allowed[0] for allowed in restriction]
    for _ in range(100_000):
        if mode.is_exact:
            v = policy_values_exact(view, sigma, principal)
            eps = 0
        else:
            v = policy_values_float(view, sigma, principal)
            eps = 1e-12 * max(1.0, float(np.max(np.abs(v))))
        q_all = _one_step_all_rows(view, principal, lam, np.asarray(v, dtype=view.dtype))
        q = q_all.tolist()
        changed = False
        for s, allowed in enumerate(restriction):
            qs = q[starts[s]:starts[s + 1]]
            best = max(allowed, key=qs.__getitem__)
            if qs[best] > qs[sigma[s]] + eps:
                sigma[s] = best
                changed = True
        if not changed:
            vv = ValueVector(values=v, discount=asym.discounts[principal], principal=principal)
            return SolveResult(
                values=vv, q=QTable(_q_dict(view, restriction, q_all)), strategy=sigma
            )
    raise ConvergenceError("policy iteration failed to stabilise")


def _value_iteration_float(asym, principal, restriction, mode, max_iterations):
    view = asym.float_view()
    lam = float(view.discounts[principal])
    res_rows, res_ptr = _restriction_arrays(view, restriction)
    target = mode.tolerance * (1 - lam) / (2 * lam)
    if target <= 0:
        raise ValueError("value iteration needs a positive tolerance")
    v = np.zeros(view.n_states)
    for _ in range(max_iterations):
        q_all = _one_step_all_rows(view, principal, lam, v)
        v_new = np.maximum.reduceat(q_all[res_rows], res_ptr[:-1])
        resid = float(np.max(np.abs(v_new - v)))
        v = v_new
        if resid < target:
            break
    else:
        raise ConvergenceError(
            f"value iteration did not converge within {max_iterations} sweeps"
        )
    q_all = _one_step_all_rows(view, principal, lam, v)
    sigma = []
    for s, allowed in enumerate(restriction):
        base = int(view.row_ptr[s])
        best = allowed[0]
        for a in allowed[1:]:
            if q_all[base + a] > q_all[base + best]:
                best = a
        sigma.append(best)
    # report v consistent with the final q table: v(s) = max_a q(s, a)
    v = np.maximum.reduceat(q_all[res_rows], res_ptr[:-1])
    vv = ValueVector(values=v, discount=asym.discounts[principal], principal=principal)
    return SolveResult(
        values=vv, q=QTable(_q_dict(view, restriction, q_all)), strategy=sigma
    )
