"""Brute-force ground truth on small instances: exhaustive positional and
bounded-horizon counting search, and the stationary threshold decision."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .evaluate import counting_value_from, eval_positional
from .linalg import _entries, policy_values_exact, topo_order
from .model import AsymMdp
from .numeric import EXACT, FLOAT, PRESCREEN_TOL, NumericMode
from .strategies import CountingStrategy

DEFAULT_CAP = 10**6
BLOCK = 1024  # strategies scored per array pass


def _full_graph_topo(asym):
    """Reverse topological order of the union graph over all actions,
    ignoring self loops; None if cyclic.  Valid for every policy."""
    view = asym.float_view()
    return topo_order(asym.n_states, view.row_state[view.succ_row], view.succ_idx)


def _blocks(counts, cap=math.inf):
    """The product space over `counts` in `itertools.product` order (last
    digit fastest), BLOCK ranks at a time, as block x len(counts) arrays."""
    size = math.prod(counts)
    if size > cap:
        raise CapExceededError(size, cap)
    for lo in range(0, size, BLOCK):
        rank = np.arange(lo, min(lo + BLOCK, size))
        digits = np.empty((len(rank), len(counts)), dtype=np.int64)
        for k in reversed(range(len(counts))):
            rank, digits[:, k] = np.divmod(rank, counts[k])
        yield digits


def _row_plans(view):
    """Per row of the view, as principal columns: its rewards, its successors
    other than itself with lam * p, and 1 - lam * (self-loop probability)."""
    lams = view.discounts[:, None]
    plans = []
    for row, s in enumerate(view.row_state):
        lo, hi = view.succ_ptr[row], view.succ_ptr[row + 1]
        succ = list(zip(view.succ_idx[lo:hi].tolist(), view.succ_prob[lo:hi]))
        self_p = sum(p for t, p in succ if t == s)
        others = [(t, p * lams) for t, p in succ if t != s]
        plans.append((view.rewards[row][:, None], others, 1 - self_p * lams))
    return plans


def _scored_blocks(asym, start, mode, order, cap):
    """(strategies, social welfare from `start`) per block of the positional
    space, in rank order.  With an acyclic union graph the block is
    back-substituted along `order`, all principals and one column per
    strategy at once, in the scalar pass's operation order; otherwise each
    strategy goes to `eval_positional` as a block of its own, so scans can
    stop at the first witness."""
    view = asym.float_view(mode)
    plans = _row_plans(view)
    for sig in _blocks([len(acts) for acts in asym.mdp.actions], cap):
        if order is None:
            for sigma in sig.tolist():
                sw = eval_positional(asym, sigma, mode).social_welfare[start]
                yield np.array([sigma]), np.array([sw], dtype=view.dtype)
            continue
        shape = (view.n_principals, len(sig))
        v = np.zeros((asym.n_states, *shape), dtype=view.dtype)
        vals = np.zeros((max(map(len, asym.mdp.actions)), *shape), dtype=view.dtype)
        # flat index into vals of each state's played action, per principal and column
        pick = sig.T[:, None, :] * math.prod(shape) + np.arange(math.prod(shape)).reshape(shape)
        for s in order:
            for a, (reward, others, den) in enumerate(plans[view.row_ptr[s]:view.row_ptr[s + 1]]):
                acc = reward
                for t, lam_p in others:
                    acc = acc + lam_p * v[t]
                vals[a] = acc / den
            v[s] = vals.take(pick[s])
        yield sig, sum(v[start])


@dataclass
class PositionalSearch:
    best_social_welfare: object
    best_strategy: list


def enumerate_positional(
    asym: AsymMdp,
    start: int,
    mode: NumericMode = FLOAT,
    cap: int = DEFAULT_CAP,
) -> PositionalSearch:
    """Evaluate every pure positional strategy, a block per array pass over
    the model's row view; ties resolve to the lexicographically first
    strategy."""
    best_sw = None
    best = None
    for sig, sw in _scored_blocks(asym, start, mode, _full_graph_topo(asym), cap):
        sw = sw.tolist()
        k = int(np.argmax(sw))
        if best_sw is None or sw[k] > best_sw:
            best_sw, best = sw[k], sig[k].tolist()
    return PositionalSearch(best_social_welfare=best_sw, best_strategy=best)


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

    Scans the strategy space in rank order with a float prescreen that
    passes welfare down to PRESCREEN_TOL * max(1, |threshold|) below the
    threshold.  Exact mode confirms candidates in rational arithmetic, in
    rank order, so the witness is the first strategy reaching the threshold
    exactly; float mode returns the first candidate, which may fall short
    by that margin.
    A confirmation back-substitutes along the policy graph's own order (the
    lifted integer solve `exact_gauss` only when that graph is cyclic).
    """
    thr_f = float(threshold)
    margin = PRESCREEN_TOL * max(1.0, abs(thr_f))
    for sig, sw in _scored_blocks(asym, start, FLOAT, _full_graph_topo(asym), cap):
        for k in np.flatnonzero(~(sw < thr_f - margin)):
            sigma = sig[k].tolist()
            if not mode.is_exact:
                return ThresholdDecision(True, sigma, float(sw[k]))
            view = asym.float_view(EXACT)
            rows = view.row_ptr[:-1] + sig[k]
            v = policy_values_exact(view, _entries(view, rows), view.rewards[rows], view.discounts)
            exact_sw = sum(v[start].tolist())
            if exact_sw >= threshold:
                return ThresholdDecision(True, sigma, exact_sw)
    return ThresholdDecision(False, None, None)


@dataclass
class CountingSearch:
    best_social_welfare: object
    best_strategy: CountingStrategy


def _reachable_layers(asym, start, horizon):
    """The states reachable from `start` in exactly j steps, for each
    j < horizon, and those reachable in any number of steps."""
    succ = [{t for pairs in acts for t, _ in pairs} for acts in asym.mdp.transitions]
    layers, current = [], {start}
    for _ in range(horizon):
        layers.append(sorted(current))
        current = set().union(*(succ[s] for s in current))
    closure, frontier = {start}, [start]
    while frontier:
        new = succ[frontier.pop()] - closure
        closure |= new
        frontier.extend(new)
    return layers, sorted(closure)


def canonical_trim(asym: AsymMdp, cs: CountingStrategy, start: int) -> CountingStrategy:
    """Pin prefix cells unreachable under the strategy to the tail action,
    then drop trailing prefix rows that equal the tail."""
    support = {start}
    prefix = []
    for row in cs.prefix:
        prefix.append([row[s] if s in support else cs.tail[s] for s in range(asym.n_states)])
        support = {t for s in support for t, _ in asym.mdp.transitions[s][row[s]]}
    while prefix and prefix[-1] == cs.tail:
        prefix.pop()
    return CountingStrategy.from_rows(prefix, list(cs.tail))


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
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    layers, closure = _reachable_layers(asym, start, horizon)
    cells = [(j, s) for j, layer in enumerate(layers) for s in layer]
    counts = [len(asym.mdp.actions[s]) for _, s in cells]
    tail_counts = [len(asym.mdp.actions[s]) for s in closure]
    size = math.prod(counts) * math.prod(tail_counts)
    if size > cap:
        raise CapExceededError(size, cap)
    steps, states = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    best_sw = None
    best = None
    for tail_choice in itertools.product(*(range(k) for k in tail_counts)):
        tail = np.zeros(asym.n_states, dtype=np.int64)
        tail[closure] = tail_choice
        tail_vals = eval_positional(asym, tail.tolist(), mode)
        for digits in _blocks(counts):
            prefixes = np.tile(tail, (len(digits), horizon, 1))
            prefixes[:, steps, states] = digits
            _, sw = counting_value_from(asym, prefixes, tail_vals, start, mode)
            k = int(np.argmax(sw))
            if best_sw is None or sw[k] > best_sw:
                best_sw = sw.tolist()[k]
                best = CountingStrategy.from_rows(prefixes[k], tail.tolist())
    return CountingSearch(
        best_social_welfare=best_sw,
        best_strategy=canonical_trim(asym, best, start),
    )
