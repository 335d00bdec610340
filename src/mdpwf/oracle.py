"""Brute-force ground truth on small instances: exhaustive positional and
bounded-horizon counting search, and the stationary threshold decision."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError
from .evaluate import counting_value_from, eval_positional
from .linalg import policy_topo_order, policy_values_exact
from .model import AsymMdp
from .numeric import EXACT, FLOAT, NumericMode
from .strategies import CountingStrategy

DEFAULT_CAP = 10**6


def _full_graph_topo(asym):
    """Reverse topological order of the union graph over all actions,
    ignoring self loops; None if cyclic.  Valid for every policy."""
    union = [
        [list({t: p for succ in per_action for t, p in succ}.items())]
        for per_action in asym.mdp.transitions
    ]
    return policy_topo_order(union, [0] * asym.n_states)


class _FastPositional:
    """Float evaluator amortized over many positional strategies."""

    def __init__(self, asym: AsymMdp):
        self.asym = asym
        self.order = _full_graph_topo(asym)
        self.n_principals = asym.n_principals
        self.lams = [float(d) for d in asym.discounts]
        # per state, per action: (rewards tuple, [(t, p)...], self prob)
        self.rows = []
        for s in range(asym.n_states):
            per_action = []
            for a in range(len(asym.mdp.actions[s])):
                items = []
                self_p = 0.0
                for t, p in asym.mdp.transitions[s][a]:
                    if t == s:
                        self_p += float(p)
                    else:
                        items.append((t, float(p)))
                rewards = tuple(float(r) for r in asym.rewards[s][a])
                per_action.append((rewards, items, self_p))
            self.rows.append(per_action)

    def social_at(self, sigma, start):
        if self.order is None:
            res = eval_positional(self.asym, list(sigma), FLOAT)
            return float(res.social_welfare[start])
        total = 0.0
        n = self.asym.n_states
        for i in range(self.n_principals):
            lam = self.lams[i]
            v = [0.0] * n
            for s in self.order:
                rewards, items, self_p = self.rows[s][sigma[s]]
                acc = rewards[i]
                for t, p in items:
                    acc += lam * p * v[t]
                v[s] = acc / (1.0 - lam * self_p)
            total += v[start]
        return total


def _social_exact(asym, sigma, start, order):
    total = Fraction(0)
    for i in range(asym.n_principals):
        total += policy_values_exact(asym, list(sigma), i, order=order)[start]
    return total


@dataclass
class PositionalSearch:
    best_social_welfare: object
    best_strategy: list
    table: list | None = None


def _positional_space(asym, cap):
    counts = [len(asym.mdp.actions[s]) for s in range(asym.n_states)]
    size = math.prod(counts)
    if size > cap:
        raise CapExceededError(size, cap)
    return itertools.product(*(range(k) for k in counts))


def enumerate_positional(
    asym: AsymMdp,
    start: int,
    mode: NumericMode = FLOAT,
    cap: int = DEFAULT_CAP,
    return_table: bool = False,
) -> PositionalSearch:
    """Evaluate every pure positional strategy; ties resolve to the
    lexicographically first strategy."""
    fast = _FastPositional(asym)
    order = _full_graph_topo(asym)
    best_sw = None
    best = None
    table = [] if return_table else None
    for sigma in _positional_space(asym, cap):
        if mode.is_exact:
            sw = _social_exact(asym, sigma, start, order)
        else:
            sw = fast.social_at(sigma, start)
        if table is not None:
            table.append((list(sigma), sw))
        if best_sw is None or sw > best_sw:
            best_sw, best = sw, list(sigma)
    return PositionalSearch(best_social_welfare=best_sw, best_strategy=best, table=table)


@dataclass
class ThresholdDecision:
    satisfied: bool
    witness: list | None
    witness_social_welfare: object | None


def threshold_decide_positional(
    asym: AsymMdp,
    start: int,
    threshold,
    mode: NumericMode = EXACT,
    cap: int = DEFAULT_CAP,
) -> ThresholdDecision:
    """Does some pure positional strategy reach social welfare >= threshold?

    Scans the strategy space with a float prescreen and, in exact mode,
    confirms candidate witnesses with rational arithmetic, so boundary
    equality is decided exactly.
    """
    fast = _FastPositional(asym)
    order = _full_graph_topo(asym)
    thr_f = float(threshold)
    margin = 1e-9 * max(1.0, abs(thr_f))
    for sigma in _positional_space(asym, cap):
        sw = fast.social_at(sigma, start)
        if sw < thr_f - margin:
            continue
        if mode.is_exact:
            exact_sw = _social_exact(asym, sigma, start, order)
            if exact_sw >= threshold:
                return ThresholdDecision(True, list(sigma), exact_sw)
        else:
            return ThresholdDecision(True, list(sigma), sw)
    return ThresholdDecision(False, None, None)


@dataclass
class CountingSearch:
    best_social_welfare: object
    best_strategy: CountingStrategy


def _reachable_layers(asym, start, horizon):
    layers = []
    current = {start}
    for _ in range(horizon):
        layers.append(sorted(current))
        nxt = set()
        for s in current:
            for a in range(len(asym.mdp.actions[s])):
                nxt.update(t for t, _ in asym.mdp.transitions[s][a])
        current = nxt
    closure = set()
    frontier = {start}
    while frontier:
        s = frontier.pop()
        if s in closure:
            continue
        closure.add(s)
        for a in range(len(asym.mdp.actions[s])):
            frontier.update(
                t for t, _ in asym.mdp.transitions[s][a] if t not in closure
            )
    return layers, sorted(closure)


def canonical_trim(asym: AsymMdp, cs: CountingStrategy, start: int) -> CountingStrategy:
    """Pin prefix cells unreachable under the strategy to the tail action,
    then drop trailing prefix rows that equal the tail."""
    support = {start}
    prefix = []
    for j in range(cs.kappa):
        row = []
        for s in range(asym.n_states):
            row.append(cs.prefix[j][s] if s in support else cs.tail[s])
        prefix.append(row)
        nxt = set()
        for s in support:
            nxt.update(t for t, _ in asym.mdp.transitions[s][cs.prefix[j][s]])
        support = nxt
    while prefix and prefix[-1] == cs.tail:
        prefix.pop()
    return CountingStrategy(kappa=len(prefix), prefix=prefix, tail=list(cs.tail))


def enumerate_counting(
    asym: AsymMdp,
    start: int,
    horizon: int,
    mode: NumericMode = FLOAT,
    cap: int = DEFAULT_CAP,
) -> CountingSearch:
    """Exhaust all prefix tables of depth <= horizon with all positional
    tails; prefix cells unreachable from the start at their step are
    pruned (welfare-neutral)."""
    layers, closure = _reachable_layers(asym, start, horizon)
    cells = [(j, s) for j, layer in enumerate(layers) for s in layer]
    counts = [len(asym.mdp.actions[s]) for _, s in cells]
    tail_counts = [len(asym.mdp.actions[s]) for s in closure]
    size = math.prod(counts) * math.prod(tail_counts)
    if size > cap:
        raise CapExceededError(size, cap)
    best_sw = None
    best = None
    base_tail = [0] * asym.n_states
    for tail_choice in itertools.product(*(range(k) for k in tail_counts)):
        tail = list(base_tail)
        for s, a in zip(closure, tail_choice):
            tail[s] = a
        tail_vals = eval_positional(asym, tail, mode)
        for prefix_choice in itertools.product(*(range(k) for k in counts)):
            prefix = [list(tail) for _ in range(horizon)]
            for (j, s), a in zip(cells, prefix_choice):
                prefix[j][s] = a
            cs = CountingStrategy(kappa=horizon, prefix=prefix, tail=tail)
            _, sw = counting_value_from(asym, cs, start, mode, tail_vals=tail_vals)
            if best_sw is None or sw > best_sw:
                best_sw, best = sw, cs
    return CountingSearch(
        best_social_welfare=best_sw,
        best_strategy=canonical_trim(asym, best, start),
    )
