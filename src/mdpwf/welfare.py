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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise

import numpy as np

from .errors import CertificationError, HorizonExceededError
from .evaluate import eval_counting
from .linalg import _dense, _entries, _scaled, policy_values_float, power_pays
from .model import AsymMdp, _check_discount_order
from .numeric import ADVANTAGE_ZERO_TOL, DECOMPOSITION_TOL, FLOAT, NumericMode, format_fraction
from .solve import _row_mask, optimal_action_set, solve_discounted
from .strategies import CountingStrategy

CHUNK = 1024  # backward-induction steps scored per power table and matmul
_WINDOW_START = 64  # steps in the first closed-form window of a run
_WINDOW_CAP = 2 * CHUNK  # steps in the widest closed-form window


@dataclass
class LongTermResult:
    """Output of the cascade: surviving actions, V_0..V_{n-1}, and the
    deterministic tail (lowest surviving action index per state)."""

    restricted: list  # per-state surviving action indices
    values: list  # one per principal on its level: `SolveResult.values`
    tail: list  # positional strategy inside the final restriction


def long_term(asym: AsymMdp, mode: NumericMode = FLOAT) -> LongTermResult:
    """Restrict the model level by level: solve for principal j by policy
    iteration, keep only its optimal actions, and hand the rest to
    principal j+1.

    The model needs principals whose discounts descend strictly, as do
    `advantages`, `find_kappa` and `kappa_estimate`; else ValueError."""
    _check_discount_order(asym)
    restriction = None
    values = []
    for j in range(asym.n_principals):
        result = solve_discounted(asym, j, mode=mode, restriction=restriction)
        values.append(result.values)
        restriction = optimal_action_set(asym, result.q, result.values, mode=mode)
    tail = [allowed[0] for allowed in restriction]
    return LongTermResult(restricted=restriction, values=values, tail=tail)


@dataclass(frozen=True, eq=False)
class AdvantageTable:
    """The advantage table over the rows of `asym.rows()`, as arrays.

    delta[r, i] is principal i's one-step payoff difference for playing
    row r's action instead of its optimal continuation: an n_rows x
    n_principals C-contiguous array in the mode's number type.  lead[r] is
    the least i with delta[r, i] != 0, or -1 for an all-zero row, and
    kept[r] marks the rows of the final restriction, which are certified
    zero.  State s's local action a is row `view.row_ptr[s] + a`."""

    asym: AsymMdp = field(repr=False)
    delta: np.ndarray
    lead: np.ndarray
    kept: np.ndarray

    def names(self, r):
        """(state name, action name) of row r."""
        s, a = list(self.asym.rows())[r]
        return self.asym.mdp.states[s], self.asym.mdp.actions[s][a]


def advantages(asym: AsymMdp, lt: LongTermResult, mode: NumericMode = FLOAT) -> AdvantageTable:
    """Advantage table for every enabled (state, action) pair.

    Computes the whole n_rows x n_principals table from the mode's row
    view as r + lam * (P @ V) - V[state] (successor sums by segment).
    Float mode clamps entries within ADVANTAGE_ZERO_TOL * max(1, max|V|)
    of zero.  Then certifies that retained rows are zero and that no
    removed row leads with a positive entry; the message names the first
    failing row."""
    _check_discount_order(asym)
    view = asym.float_view(mode)
    v = np.array(lt.values, dtype=view.dtype)  # one row per principal
    succ = view.successor_sums(v, view.succ_prob).T
    delta = view.rewards + view.discounts * succ - v.T[view.row_state]
    if not mode.is_exact:
        scale = max(1.0, float(np.abs(v).max(initial=0.0)))
        delta[np.abs(delta) <= ADVANTAGE_ZERO_TOL * scale] = 0.0
    first = (delta != 0).argmax(axis=1)
    leading = delta[view.row_index, first]  # 0 on all-zero rows
    lead = first - (leading == 0)
    kept = _row_mask(asym, view, lt.restricted)
    adv = AdvantageTable(asym, delta, lead, kept)
    bad = (leading > 0) | (kept & (leading != 0))
    if bad.any():
        r = int(bad.argmax())
        pair, i = adv.names(r), int(lead[r])
        value = format_fraction(delta[r, i]) if mode.is_exact else delta[r].tolist()[i]
        raise CertificationError(
            f"retained action {pair!r} has nonzero advantage for principal {i}: {value}"
            if kept[r]
            else f"removed action {pair!r} has positive leading advantage {value} for principal {i}"
        )
    return adv


def find_kappa(
    asym: AsymMdp,
    adv: AdvantageTable,
    max_kappa: int = 10**7,
    mode: NumericMode = FLOAT,
) -> int:
    """Least j at which every advantage prefix sum is at most the mode's
    slack (0 exactly, KAPPA_SLACK in float mode), simultaneously for all
    (s, a).

    Each nonzero row is rescaled by its leading discount power, so at depth
    j it reads u * rho^j in closed form, rho = lam / lam_lead, and the test
    stays meaningful at depths where lam^j underflows binary64.  The ratio
    rows are formed from the exact discounts, once per distinct leading
    index, then cast to the mode's number type.  The condition is
    absorbing, so after depth 0 an exponential search brackets kappa and a
    binary search finds it: about 2 log2(kappa) tests (Bentley & Yao,
    "An almost optimal algorithm for unbounded searching", IPL 5(3), 1976).
    """
    _check_discount_order(asym)
    slack = mode.default_slack
    rows = (adv.lead >= 0).nonzero()[0]
    u = adv.delta[rows]
    if (u.cumsum(axis=1) <= slack).all():
        return 0
    lams = asym.discounts
    lead = adv.lead[rows]
    table = np.zeros((len(lams), len(lams)), dtype=mode.dtype)
    for i in set(lead.tolist()):
        table[i] = [lam / lams[i] for lam in lams]
    ratios = table[lead]
    ratios[u == 0] = 1  # entries left of the lead have rho > 1, and rho^j would overflow

    def scaled(j):
        return u * ratios**j

    def holds(j):
        return (scaled(j).cumsum(axis=1) <= slack).all()

    lo, hi = 0, min(1, max(max_kappa, 0))  # depth lo fails
    while not holds(hi):
        if hi >= max_kappa:  # name the row whose prefix sums peak highest, first on ties
            peaks = scaled(hi).astype(float).cumsum(axis=1).max(axis=1)
            raise HorizonExceededError(max_kappa, adv.names(rows[peaks.argmax()]))
        lo, hi = hi, min(2 * hi, max_kappa)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def kappa_estimate(asym: AsymMdp, adv: AdvantageTable, mode: NumericMode = FLOAT) -> int:
    """Closed-form horizon bound: the maximum over the rows of `adv` of
    each row's own bound.

    For a row with leading nonzero index i and some positive later entry:
    kappa' = sum_{p>i} max(0, delta_p) / |delta_i| (summed left to right)
    and kappa = ceil(log kappa' / log(lam_i / lam_{i+1})), which exact mode
    corrects to the least k with (lam_i / lam_{i+1})^k >= kappa'; every
    other row (retained, all-zero, or no positive entry after i)
    contributes 0.
    """
    _check_discount_order(asym)
    bases = [a / b for a, b in pairwise(asym.discounts)]  # lam_i / lam_{i+1}
    # every nonzero row leads negative (certified), so its positive entries
    # all lie after its leading index
    total = np.maximum(adv.delta, 0).cumsum(axis=1)[:, -1]
    rows = total.nonzero()[0]
    lead = adv.lead[rows]
    # exact mode takes logs of the integers: float(kp) overflows past binary64's range
    log = (lambda q: math.log(q.numerator) - math.log(q.denominator)) if mode.is_exact else math.log
    bound = 0
    for i, t, d in zip(lead.tolist(), total[rows].tolist(), adv.delta[rows, lead].tolist()):
        kp = t / abs(d)
        if kp > 1:
            base = bases[i]
            k = max(0, math.ceil(log(kp) / log(base)))
            if mode.is_exact:
                # float log can be off by one at the boundary; fix exactly
                while k > 0 and base ** (k - 1) >= kp:
                    k -= 1
                while base**k < kp:
                    k += 1
            bound = max(bound, k)
    return bound


@dataclass
class WelfareReport:
    """Per-start-state summary of the synthesized strategy."""

    per_principal: list
    social_welfare: object
    baseline: object
    deviation_gain: object


@dataclass
class OptimizeResult:
    strategy: CountingStrategy
    reports: dict  # state name -> WelfareReport
    long_term: LongTermResult
    advantage: AdvantageTable
    kappa: int
    kappa_bound: int  # `kappa_estimate`
    timings: dict


def _backward_induction(asym, adv, kappa, tail, mode):
    """Backward induction over the mode's row view, in units of lam_0^j: the
    optimal counting strategy of depth kappa before `tail`, and its gain.

    The gain e_j from step j on, scaled as g_j = e_j / lam_0^j, obeys
    g_j = max_a [delta . rho^j + lam_0 P g_{j+1}], rho = lam / lam_0, so g_0
    is the gain and no term underflows against the leading principal's.
    Exact mode runs the same loop on integers (`_integer_terms`): it scores
    H_j = S_j g_j with S_j = D b^j (m b)^(kappa - j) > 0, where D, b and m
    are common denominators of delta, rho and lam_0 P, so no step needs a
    gcd and every comparison is that of the rationals; g_0 = H_0 / S_0.
    Float mode scores a chunk of CHUNK steps with one power table and one
    matmul; each step then adds its successor sums and takes each state's
    maximum, and the chunk's rows, ties to the lowest action index, are
    taken in bulk (`FloatView`).  Where a closed form over kappa steps
    pays (`power_pays`), float mode instead takes the prefix as runs that
    play one row per state, each run in closed form, at a cost that follows
    the number of runs rather than kappa (`_float_runs`)."""
    view = asym.float_view(mode)
    if not mode.is_exact and power_pays(view.n_states, kappa):
        return _float_runs(view, adv.delta, kappa, tail)
    if mode.is_exact:
        # exact integers grow with the depth, and a chunk's table would hold
        # a chunk's worth of them at once: each step scores its own row T_j
        chunk, (delta, lam_prob, terms, scale) = 1, _integer_terms(view, adv.delta, kappa)
    else:
        rho = view.discounts / view.discounts[0]
        chunk, delta, lam_prob, scale = CHUNK, adv.delta, view.discounts[0] * view.succ_prob, 1.0
        terms = (
            rho ** np.arange(max(0, hi - CHUNK), hi, dtype=float)[:, None]
            for hi in range(kappa, 0, -CHUNK)
        )
    g = np.zeros(view.n_states, dtype=view.dtype)
    prefix = np.empty((kappa, view.n_states), dtype=np.int64)
    for hi in range(kappa, 0, -chunk):
        lo = max(0, hi - chunk)
        scores = next(terms) @ delta.T
        for row in scores[::-1]:
            row += view.successor_sums(g, lam_prob)
            g = view.segment_max(row)
        prefix[lo:hi] = view.local_action[view.first_best(scores)]
    return CountingStrategy.from_rows(prefix, tail), (g / scale).tolist()


def _float_runs(view, delta, kappa, tail):
    """Float backward induction as runs of steps that play one row per state,
    each run in closed form.

    A run starts with one step of the stepwise arithmetic, which fixes the
    rows sigma at step hi - 1.  While sigma is played, g_j = U rho^j + M g_{j+1}
    with M = lam_0 P_sigma and U = delta[sigma], whose solution is
    g_j = sum_i rho_i^j w_i + M^(hi - j) z, where (I - rho_i M) w_i = U_i, the
    policy system of sigma under lam_i = rho_i lam_0 (`policy_values_float`), and
    z = g_hi - sum_i rho_i^hi w_i.  The transient M^k z is built by doubling,
    [X, M^|X| X], so it is exact up to rounding.  A window of steps below hi
    is then scored row by row as the stepwise loop scores them, and accepted
    down to the highest step where sigma is not the `first_best` rows
    (`_beaten`); the next run starts there.  A clean window doubles the
    next one, from _WINDOW_START up to _WINDOW_CAP steps."""
    n, lam0 = view.n_states, view.discounts[0]
    rho = view.discounts / lam0
    lam_prob = lam0 * view.succ_prob

    def scored(powers, gs):  # step j's scores from rho^j and g_{j+1}
        return powers @ delta.T + view.successor_sums(gs, lam_prob)

    g = np.zeros(n)
    runs = []  # (steps, local actions), last run first
    hi = kappa
    while hi:
        sigma = view.first_best(scored((rho ** (hi - 1.0))[None], g[None]))[0]
        entries = _entries(view, sigma)
        m = lam0 * _dense(view, entries)
        w = policy_values_float(view, entries, delta[sigma], view.discounts).T
        width, run_top = _WINDOW_START, hi
        while hi:
            lo = max(0, hi - width)
            powers = rho ** np.arange(lo, hi + 1, dtype=float)[:, None]  # steps lo..hi
            x, mk = (g - powers[-1] @ w)[None], m  # rows M^k z, and M^len(x)
            while len(x) <= hi - lo:
                x, mk = np.concatenate([x, x[: hi - lo + 1 - len(x)] @ mk.T]), mk @ mk
            gs = powers @ w + x[hi - lo :: -1]
            gs[-1] = g  # g_hi itself, not its rounded closed form
            scores = scored(powers[:-1], gs[1:])
            off = _beaten(view, scores, sigma)
            off[-1] &= hi < run_top  # the run's first step fixed sigma
            top = lo + 1 + int(off.nonzero()[0][-1]) if off.any() else lo
            g, hi = gs[top - lo], top
            if top > lo:  # sigma is beaten at step top - 1
                break
            width = min(2 * width, _WINDOW_CAP)
        runs.append((run_top - hi, view.local_action[sigma].tolist()))
    return CountingStrategy(kappa, runs[::-1], tail), g.tolist()


def _beaten(view, scores, sigma):
    """Per step (row of `scores`), whether a row beats sigma's in its state by
    a higher score or a tie at a lower index: `first_best` for a fixed sigma,
    without its reductions (on a 2,048-step window of `badly_spaced(70)`, 119
    against 283 us on a 2-core x86 host)."""
    rival = sigma[view.row_state]  # sigma's row in each row's state
    own = scores[:, rival]
    return np.where(view.row_index < rival, scores >= own, scores > own).any(axis=1)


def _integer_terms(view, delta, kappa):
    """Exact backward induction's integer inputs, with D, b and m the least
    common denominators of delta, rho and lam_0 P, and a = b rho: D delta,
    m lam_0 P, the one-row tables T_j = a^j (m b)^(kappa - j) for
    j = kappa - 1 down to 0, and the scale S_0 = D (m b)^kappa as a
    `Fraction`.  Each table follows from the last by one exact division,
    T_{j-1} = T_j m b / a."""
    lam = view.discounts
    rho = [x / lam[0] for x in lam]
    lam_prob = [lam[0] * p for p in view.succ_prob.tolist()]
    flat = delta.ravel().tolist()
    d, b, m = (math.lcm(*(x.denominator for x in xs)) for xs in (flat, rho, lam_prob))
    a = _scaled(rho, [b] * len(rho))

    def tables():
        t = a**kappa
        for _ in range(kappa):
            t = t * (m * b) // a
            yield t[None]

    return (
        _scaled(flat, [d] * len(flat)).reshape(delta.shape),
        _scaled(lam_prob, [m] * len(lam_prob)),
        tables(),
        Fraction(d * (m * b) ** kappa),
    )


def optimize(
    asym: AsymMdp,
    mode: NumericMode = FLOAT,
    max_kappa: int = 10**7,
) -> OptimizeResult:
    """Synthesize the welfare-optimal counting strategy and its report.

    Discounts that do not descend strictly raise ValueError (`long_term`)."""
    t0 = time.perf_counter()
    lt = long_term(asym, mode=mode)
    t1 = time.perf_counter()
    adv = advantages(asym, lt, mode=mode)
    kappa = find_kappa(asym, adv, max_kappa=max_kappa, mode=mode)
    bound = kappa_estimate(asym, adv, mode=mode)
    cs, gain = _backward_induction(asym, adv, kappa, lt.tail, mode)
    payoffs = eval_counting(asym, cs, mode, tail_values=lt.values)
    t2 = time.perf_counter()
    reports = {}
    for s, name in enumerate(asym.mdp.states):
        baseline = sum(v[s] for v in lt.values)
        sw = payoffs.social_welfare[s]
        _check_decomposition(mode, sw, baseline, gain[s], name)
        reports[name] = WelfareReport(
            per_principal=[v[s] for v in payoffs.per_principal],
            social_welfare=sw,
            baseline=baseline,
            deviation_gain=gain[s],
        )
    return OptimizeResult(
        strategy=cs,
        reports=reports,
        long_term=lt,
        advantage=adv,
        kappa=kappa,
        kappa_bound=bound,
        timings={
            "long_term": t1 - t0,
            "unroll": t2 - t1,
            "total": t2 - t0,
        },
    )


def _check_decomposition(mode, sw, baseline, gain, state):
    if mode.is_exact:
        if sw != baseline + gain:
            raise CertificationError(
                f"welfare decomposition failed at state {state!r}: "
                f"{format_fraction(sw)} != {format_fraction(baseline)} + {format_fraction(gain)}"
            )
    else:
        scale = max(1.0, abs(float(sw)))
        if abs(float(sw) - float(baseline) - float(gain)) > DECOMPOSITION_TOL * scale:
            raise CertificationError(
                f"welfare decomposition failed at state {state!r}: "
                f"{float(sw)} vs {float(baseline)} + {float(gain)}"
            )
