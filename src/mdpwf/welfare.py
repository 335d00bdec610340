"""Welfare-optimal strategy synthesis.

Pipeline: a lexicographic cascade of per-principal optimality
restrictions fixes the long-term positional tail; one-step advantage
tables quantify deviations from it; a forward scan finds the horizon
after which no aggregate deviation can help; backward induction over the
unrolled step-indexed DAG extracts the optimal counting prefix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificationError, HorizonExceededError
from .evaluate import eval_counting
from .model import AsymMdp
from .numeric import DEFAULT_TIE_TOLERANCE, FLOAT, NumericMode
from .solve import full_restriction, optimal_action_set, solve_discounted
from .strategies import CountingStrategy


@dataclass
class LongTermResult:
    """Output of the cascade: surviving actions, V_0..V_{n-1}, and the
    deterministic tail (lowest surviving action index per state)."""

    restricted: list  # per-state surviving action indices
    values: list  # list[ValueVector], one per principal on its level
    tail: list  # positional strategy inside the final restriction


def long_term(
    asym: AsymMdp,
    mode: NumericMode = FLOAT,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    method: str = "pi",
) -> LongTermResult:
    """Restrict the model level by level: solve for principal j, keep only
    its optimal actions, and hand the rest to principal j+1."""
    restriction = full_restriction(asym)
    values = []
    for j in range(asym.n_principals):
        result = solve_discounted(
            asym, j, mode=mode, method=method, restriction=restriction
        )
        values.append(result.values)
        restriction = optimal_action_set(
            asym, result.q, result.values, tie_tolerance=tie_tolerance, mode=mode
        )
    tail = [allowed[0] for allowed in restriction]
    return LongTermResult(restricted=restriction, values=values, tail=tail)


@dataclass
class AdvantageTable:
    """delta0[(s, a)][i]: principal i's one-step payoff difference for
    playing a at s instead of its optimal continuation.  Rows of retained
    actions are certified zero and clamped."""

    delta0: dict
    retained: set
    minimal_nonzero: dict  # (s, a) -> least i with delta0 != 0, or None


def advantages(asym: AsymMdp, lt: LongTermResult, mode: NumericMode = FLOAT) -> AdvantageTable:
    """Advantage table for every enabled (state, action) pair.

    Computes the whole n_rows x n_principals table from the mode's row
    view as r + lam * (P @ V) - V[state] (successor sums by segment).
    Float mode clamps entries within 1e-7 * max(1, max|V|) of zero.  Then
    certifies that retained rows are zero and that no removed row leads
    with a positive entry."""
    exact = mode.is_exact
    view = asym.float_view(mode)
    v = np.array([vec.values for vec in lt.values], dtype=view.dtype).T
    succ = np.add.reduceat(view.succ_prob[:, None] * v[view.succ_idx], view.succ_ptr[:-1])
    delta = view.rewards + view.discounts * succ - v[view.row_state]
    if not exact:
        delta[np.abs(delta) <= 1e-7 * max(1.0, float(np.max(np.abs(v))))] = 0.0
    delta0 = {}
    retained = set()
    minimal = {}
    for (s, a), row in zip(asym.rows(), delta.tolist()):
        is_retained = a in lt.restricted[s]
        if is_retained:
            retained.add((s, a))
            bad = [i for i, d in enumerate(row) if d != 0]
            if bad:
                raise CertificationError(
                    f"retained action ({asym.mdp.states[s]!r}, "
                    f"{asym.mdp.actions[s][a]!r}) has nonzero advantage "
                    f"for principal {bad[0]}: {row[bad[0]]}"
                )
            row = [Fraction(0) if exact else 0.0] * asym.n_principals
        first = next((i for i, d in enumerate(row) if d != 0), None)
        if not is_retained and first is not None and row[first] > 0:
            raise CertificationError(
                f"removed action ({asym.mdp.states[s]!r}, "
                f"{asym.mdp.actions[s][a]!r}) has positive leading advantage "
                f"{row[first]} for principal {first}"
            )
        delta0[(s, a)] = row
        minimal[(s, a)] = first
    return AdvantageTable(delta0=delta0, retained=retained, minimal_nonzero=minimal)


def find_kappa(
    asym: AsymMdp,
    adv: AdvantageTable,
    slack=None,
    max_kappa: int = 10**7,
    mode: NumericMode = FLOAT,
) -> int:
    """Least j at which every advantage prefix sum is below `slack`,
    simultaneously for all (s, a); the condition is absorbing, so the
    forward scan stops at the first satisfying depth.

    Each row is rescaled by its leading discount power so the test stays
    meaningful at depths where lam^j underflows binary64.  The rows and the
    ratio table lam_p / lam_lead are arrays in the mode's number type; the
    ratios are formed from the exact discounts first, then cast.
    """
    if slack is None:
        slack = mode.default_slack
    rows = [
        (key, i)
        for key, i in adv.minimal_nonzero.items()
        if i is not None
    ]
    if not rows:
        return 0
    lams = asym.discounts
    u = np.array([adv.delta0[key] for key, _ in rows], dtype=mode.dtype)
    ratios = np.array(
        [[lam / lams[imin] for lam in lams] for _, imin in rows], dtype=mode.dtype
    )
    if not mode.is_exact:
        slack = float(slack)
    j = 0
    while True:
        if np.all(np.cumsum(u, axis=1) <= slack):
            return j
        if j >= max_kappa:
            raise HorizonExceededError(max_kappa, _worst_pair(asym, rows, u))
        u *= ratios
        j += 1


def _worst_pair(asym, rows, cur):
    worst, worst_val = None, None
    for (key, _), terms in zip(rows, cur):
        val = max(np.cumsum([float(t) for t in terms]))
        if worst_val is None or val > worst_val:
            s, a = key
            worst = (asym.mdp.states[s], asym.mdp.actions[s][a])
            worst_val = val
    return worst


@dataclass
class KappaActionEstimate:
    minimal_index: int | None
    kappa_prime: object  # sum of positive later advantages over |leading|
    kappa: int


@dataclass
class KappaEstimate:
    per_action: dict  # (s, a) -> KappaActionEstimate
    bound: int


def kappa_estimate(asym: AsymMdp, adv: AdvantageTable, mode: NumericMode = FLOAT) -> KappaEstimate:
    """Closed-form per-action horizon bound and its maximum.

    For a removed action with leading nonzero index i < n-1:
    kappa' = sum_{p>i} max(0, delta0_p) / |delta0_i| and
    kappa = ceil(log kappa' / log(lam_i / lam_{i+1})); retained actions
    and i = n-1 contribute 0.
    """
    n = asym.n_principals
    lams = asym.discounts
    per_action = {}
    bound = 0
    for key, row in adv.delta0.items():
        imin = adv.minimal_nonzero[key]
        if imin is None or imin == n - 1:
            per_action[key] = KappaActionEstimate(imin, None, 0)
            continue
        lead = row[imin]
        pos = [row[p] for p in range(imin + 1, n) if row[p] > 0]
        if not pos:
            per_action[key] = KappaActionEstimate(imin, None, 0)
            continue
        kp = sum(pos, Fraction(0) if mode.is_exact else 0.0) / abs(lead)
        if kp <= 1:
            k = 0
        else:
            base = lams[imin] / lams[imin + 1]
            k = max(0, math.ceil(math.log(float(kp)) / math.log(float(base))))
            if mode.is_exact:
                # float log can be off by one at the boundary; fix exactly
                while k > 0 and base ** (k - 1) >= kp:
                    k -= 1
                while base**k < kp:
                    k += 1
        per_action[key] = KappaActionEstimate(imin, kp, k)
        bound = max(bound, k)
    return KappaEstimate(per_action=per_action, bound=bound)


@dataclass
class WelfareReport:
    """Per-start-state summary of the synthesized strategy."""

    state: str
    per_principal: list
    social_welfare: object
    baseline: object
    deviation_gain: object
    kappa: int


@dataclass
class OptimizeResult:
    strategy: CountingStrategy
    reports: dict  # state name -> WelfareReport
    long_term: LongTermResult
    advantage: AdvantageTable
    kappa: int
    kappa_bound: KappaEstimate
    timings: dict


def _backward_induction(asym, adv, kappa, mode):
    """Backward induction over the mode's row view.  Each layer scores
    every row as delta @ lam^j plus its expected successor gain, then takes
    a segment argmax per state: the segment maximum, then the least row
    index that attains it, so ties go to the lowest action index."""
    view = asym.float_view(mode)
    delta = np.array([adv.delta0[key] for key in asym.rows()], dtype=view.dtype)
    lams = view.discounts
    starts = view.row_ptr[:-1]
    row_ids = np.arange(view.n_rows)
    e = np.zeros(view.n_states, dtype=view.dtype)
    prefix = [None] * kappa
    with np.errstate(under="ignore"):
        for j in range(kappa - 1, -1, -1):
            layer_r = delta @ (lams**j)
            glue = np.add.reduceat(
                view.succ_prob * e[view.succ_idx], view.succ_ptr[:-1]
            )
            vals = layer_r + glue
            e = np.maximum.reduceat(vals, starts)
            ties = np.where(vals == e[view.row_state], row_ids, view.n_rows)
            prefix[j] = (np.minimum.reduceat(ties, starts) - starts).tolist()
    return prefix, e.tolist()


def optimize(
    asym: AsymMdp,
    mode: NumericMode = FLOAT,
    slack=None,
    max_kappa: int = 10**7,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    method: str = "pi",
) -> OptimizeResult:
    """Synthesize the welfare-optimal counting strategy and its report."""
    t0 = time.perf_counter()
    lt = long_term(asym, mode=mode, tie_tolerance=tie_tolerance, method=method)
    t1 = time.perf_counter()
    adv = advantages(asym, lt, mode=mode)
    kappa = find_kappa(asym, adv, slack=slack, max_kappa=max_kappa, mode=mode)
    est = kappa_estimate(asym, adv, mode=mode)
    if kappa == 0:
        prefix, gain = [], _zero_gain(asym, mode)
    else:
        prefix, gain = _backward_induction(asym, adv, kappa, mode)
    cs = CountingStrategy(kappa=kappa, prefix=prefix, tail=lt.tail)
    payoffs = eval_counting(asym, cs, mode)
    t2 = time.perf_counter()
    reports = {}
    for s, name in enumerate(asym.mdp.states):
        baseline = sum(v.values[s] for v in lt.values)
        sw = payoffs.social_welfare[s]
        _check_decomposition(mode, sw, baseline, gain[s], name)
        reports[name] = WelfareReport(
            state=name,
            per_principal=[v[s] for v in payoffs.per_principal],
            social_welfare=sw,
            baseline=baseline,
            deviation_gain=gain[s],
            kappa=kappa,
        )
    return OptimizeResult(
        strategy=cs,
        reports=reports,
        long_term=lt,
        advantage=adv,
        kappa=kappa,
        kappa_bound=est,
        timings={
            "long_term": t1 - t0,
            "unroll": t2 - t1,
            "total": t2 - t0,
        },
    )


def _zero_gain(asym, mode):
    zero = Fraction(0) if mode.is_exact else 0.0
    return [zero] * asym.n_states


def _check_decomposition(mode, sw, baseline, gain, state):
    if mode.is_exact:
        if sw != baseline + gain:
            raise CertificationError(
                f"welfare decomposition failed at state {state!r}: "
                f"{sw} != {baseline} + {gain}"
            )
    else:
        scale = max(1.0, abs(float(sw)))
        if abs(float(sw) - float(baseline) - float(gain)) > 1e-6 * scale:
            raise CertificationError(
                f"welfare decomposition failed at state {state!r}: "
                f"{float(sw)} vs {float(baseline)} + {float(gain)}"
            )
