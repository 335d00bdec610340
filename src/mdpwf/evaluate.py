"""Evaluation of positional, mixed-stationary, and counting strategies:
per-principal discounted payoffs and social welfare, exact or binary64."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import policy_topo_order, policy_values_exact, policy_values_float
from .model import AsymMdp, Mdp
from .numeric import FLOAT, NumericMode
from .strategies import CountingStrategy, MixedStationaryStrategy, check_positional


@dataclass
class EvalResult:
    """Per-principal value vectors plus their per-state sum."""

    per_principal: list  # one vector per principal
    social_welfare: list

    def at(self, s):
        return [v[s] for v in self.per_principal], self.social_welfare[s]


def _bundle(vectors):
    n = len(vectors[0])
    sw = [sum(v[s] for v in vectors) for s in range(n)]
    return EvalResult(per_principal=vectors, social_welfare=sw)


def eval_positional(asym: AsymMdp, sigma, mode: NumericMode = FLOAT) -> EvalResult:
    """Discounted payoff of a pure positional strategy, for every state."""
    check_positional(asym, sigma)
    if mode.is_exact:
        order = policy_topo_order(asym.mdp.transitions, sigma)
        vectors = [
            policy_values_exact(asym, sigma, i, order=order)
            for i in range(asym.n_principals)
        ]
    else:
        view = asym.float_view()
        vectors = [
            policy_values_float(view, sigma, i) for i in range(asym.n_principals)
        ]
    return _bundle(vectors)


def eval_stationary_mixed(
    asym: AsymMdp, strategy: MixedStationaryStrategy, mode: NumericMode = FLOAT
) -> EvalResult:
    """Payoffs of a per-state action distribution: the positional value of
    the averaged chain, a model with one action per state."""
    strategy.check(asym, tolerance=0.0 if mode.is_exact else 1e-12)
    avg_trans = []
    avg_rewards = []
    for s, dist in enumerate(strategy.probs):
        acc = {}
        for a, w in enumerate(dist):
            if w == 0:
                continue
            for t, p in asym.mdp.transitions[s][a]:
                acc[t] = acc.get(t, Fraction(0)) + w * p
        avg_trans.append([list(acc.items())])
        avg_rewards.append([[
            sum((w * r[i] for w, r in zip(dist, asym.rewards[s]) if w), Fraction(0))
            for i in range(asym.n_principals)
        ]])
    chain = AsymMdp(
        mdp=Mdp(asym.mdp.states, [["mixed"]] * asym.n_states, avg_trans),
        principals=asym.principals,
        rewards=avg_rewards,
    )
    return eval_positional(chain, [0] * asym.n_states, mode)


def eval_counting(asym: AsymMdp, cs: CountingStrategy, mode: NumericMode = FLOAT) -> EvalResult:
    """Payoffs of a counting strategy, for every start state.

    Computed by backward recursion over the prefix steps on top of the
    tail's positional values; equals the forward expectation
    sum_j lam^j E[R] plus the lam^kappa-weighted tail value.  Both modes
    hold all principals at once in an n_states x n_principals array over
    the mode's row view: each step is one segment sum of successor values
    over every row, then a gather of the rows that step plays.
    """
    cs.check(asym)
    tail_vals = eval_positional(asym, cs.tail, mode)
    return _bundle(_counting_values(asym.float_view(mode), cs, tail_vals))


def _counting_values(view, cs, tail_vals):
    """Per-principal value lists of a checked counting strategy, given its
    tail's values."""
    n = view.n_states
    rows = np.fromiter(
        itertools.chain.from_iterable(cs.prefix), dtype=np.intp, count=cs.kappa * n
    ).reshape(cs.kappa, n)
    rows += view.row_ptr[:-1]
    u = np.array(tail_vals.per_principal, dtype=view.dtype).T
    prob = view.succ_prob[:, None]
    starts = view.succ_ptr[:-1]
    for played in rows[::-1]:
        g = np.add.reduceat(prob * u[view.succ_idx], starts)
        u = view.rewards[played] + view.discounts * g[played]
    return u.T.tolist()


def counting_value_from(
    asym: AsymMdp,
    cs: CountingStrategy,
    start: int,
    mode: NumericMode = FLOAT,
    tail_vals: EvalResult | None = None,
):
    """Social welfare of a counting strategy from one start state, by
    forward occupancy propagation (oracle fast path)."""
    if tail_vals is None:
        tail_vals = eval_positional(asym, cs.tail, mode)
    n_p = asym.n_principals
    exact = mode.is_exact
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    lams = [d if exact else float(d) for d in asym.discounts]
    totals = [zero] * n_p
    pows = [one] * n_p
    dist = {start: one}
    trans = asym.mdp.transitions
    for j in range(cs.kappa):
        row = cs.prefix[j]
        nxt = {}
        for s, mass in dist.items():
            a = row[s]
            for i in range(n_p):
                r = asym.rewards[s][a][i]
                totals[i] += pows[i] * mass * (r if exact else float(r))
            for t, p in trans[s][a]:
                w = mass * (p if exact else float(p))
                nxt[t] = nxt.get(t, zero) + w
        dist = nxt
        for i in range(n_p):
            pows[i] *= lams[i]
    for i in range(n_p):
        tv = tail_vals.per_principal[i]
        totals[i] += pows[i] * sum(mass * tv[s] for s, mass in dist.items())
    return totals, sum(totals)
