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
from functools import cached_property
from itertools import compress, pairwise

import numpy as np

from .errors import CertificationError, HorizonExceededError
from .evaluate import eval_counting
from .model import AsymMdp
from .numeric import ADVANTAGE_ZERO_TOL, DECOMPOSITION_TOL, FLOAT, NumericMode
from .solve import _row_mask, optimal_action_set, solve_discounted
from .strategies import CountingStrategy

CHUNK = 1024  # backward-induction steps scored per power table and matmul


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
    method: str = "pi",
) -> LongTermResult:
    """Restrict the model level by level: solve for principal j, keep only
    its optimal actions, and hand the rest to principal j+1."""
    restriction = None
    values = []
    for j in range(asym.n_principals):
        result = solve_discounted(
            asym, j, mode=mode, method=method, restriction=restriction
        )
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
    zero.  The (s, a)-keyed views `delta0`, `retained` and
    `minimal_nonzero` are built on first read and cannot be reassigned."""

    asym: AsymMdp = field(repr=False)
    delta: np.ndarray
    lead: np.ndarray
    kept: np.ndarray

    def names(self, r):
        """(state name, action name) of row r."""
        s, a = list(self.asym.rows())[r]
        return self.asym.mdp.states[s], self.asym.mdp.actions[s][a]

    @cached_property
    def delta0(self):
        return dict(zip(self.asym.rows(), self.delta.tolist()))

    @cached_property
    def retained(self):
        return frozenset(compress(self.asym.rows(), self.kept.tolist()))

    @cached_property
    def minimal_nonzero(self):
        """(s, a) -> least i with delta0 != 0, or None."""
        leads = [None if i < 0 else i for i in self.lead.tolist()]
        return dict(zip(self.asym.rows(), leads))


def advantages(asym: AsymMdp, lt: LongTermResult, mode: NumericMode = FLOAT) -> AdvantageTable:
    """Advantage table for every enabled (state, action) pair.

    Computes the whole n_rows x n_principals table from the mode's row
    view as r + lam * (P @ V) - V[state] (successor sums by segment).
    Float mode clamps entries within ADVANTAGE_ZERO_TOL * max(1, max|V|)
    of zero.  Then certifies that retained rows are zero and that no
    removed row leads with a positive entry; the message names the first
    failing row."""
    view = asym.float_view(mode)
    v = np.array([vec.values for vec in lt.values], dtype=view.dtype).T
    succ = np.add.reduceat(view.succ_prob[:, None] * v[view.succ_idx], view.succ_ptr[:-1])
    delta = view.rewards + view.discounts * succ - v[view.row_state]
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
        value = delta[r].tolist()[i]
        raise CertificationError(
            f"retained action {pair!r} has nonzero advantage for principal {i}: {value}"
            if kept[r]
            else f"removed action {pair!r} has positive leading advantage {value} for principal {i}"
        )
    return adv


def find_kappa(
    asym: AsymMdp,
    adv: AdvantageTable,
    slack=None,
    max_kappa: int = 10**7,
    mode: NumericMode = FLOAT,
) -> int:
    """Least j at which every advantage prefix sum is below `slack`,
    simultaneously for all (s, a).

    Each nonzero row is rescaled by its leading discount power, so at depth
    j it reads u * rho^j in closed form, rho = lam / lam_lead, and the test
    stays meaningful at depths where lam^j underflows binary64.  The ratio
    rows are formed from the exact discounts, once per distinct leading
    index, then cast to the mode's number type.  The condition is
    absorbing, so after depth 0 an exponential search brackets kappa and a
    binary search finds it: about 2 log2(kappa) tests (Bentley & Yao,
    "An almost optimal algorithm for unbounded searching", IPL 5(3), 1976).
    """
    if slack is None:
        slack = mode.default_slack
    if not mode.is_exact:
        slack = float(slack)
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


@dataclass
class KappaActionEstimate:
    minimal_index: int | None
    kappa_prime: object  # sum of positive later advantages over |leading|
    kappa: int


@dataclass(frozen=True, eq=False)
class KappaEstimate:
    """The closed-form horizon bound; `per_action` is built on first read."""

    bound: int
    _adv: AdvantageTable = field(repr=False)
    _estimates: dict = field(repr=False)  # row -> (kappa', kappa) where kappa' is set

    @cached_property
    def per_action(self):
        return {
            key: KappaActionEstimate(i, *self._estimates.get(r, (None, 0)))
            for r, (key, i) in enumerate(self._adv.minimal_nonzero.items())
        }


def kappa_estimate(asym: AsymMdp, adv: AdvantageTable, mode: NumericMode = FLOAT) -> KappaEstimate:
    """Closed-form per-action horizon bound and its maximum.

    For a row with leading nonzero index i and some positive later entry:
    kappa' = sum_{p>i} max(0, delta0_p) / |delta0_i| (summed left to right)
    and kappa = ceil(log kappa' / log(lam_i / lam_{i+1})); every other row
    (retained, all-zero, or no positive entry after i) contributes 0.
    """
    bases = [a / b for a, b in pairwise(asym.discounts)]  # lam_i / lam_{i+1}
    # every nonzero row leads negative (certified), so its positive entries
    # all lie after its leading index
    total = np.maximum(adv.delta, 0).cumsum(axis=1)[:, -1]
    rows = total.nonzero()[0]
    lead = adv.lead[rows]
    cols = zip(rows.tolist(), lead.tolist(), total[rows].tolist(), adv.delta[rows, lead].tolist())
    estimates, bound = {}, 0
    for r, i, t, d in cols:
        kp, k = t / abs(d), 0
        if kp > 1:
            base = bases[i]
            k = max(0, math.ceil(math.log(float(kp)) / math.log(float(base))))
            if mode.is_exact:
                # float log can be off by one at the boundary; fix exactly
                while k > 0 and base ** (k - 1) >= kp:
                    k -= 1
                while base**k < kp:
                    k += 1
        estimates[r] = (kp, k)
        bound = max(bound, k)
    return KappaEstimate(bound, adv, estimates)


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
    kappa_bound: KappaEstimate
    timings: dict


def _backward_induction(asym, adv, kappa, mode):
    """Backward induction over the mode's row view, in units of lam_0^j.

    The gain e_j from step j on, scaled as g_j = e_j / lam_0^j, obeys
    g_j = max_a [delta . (lam / lam_0)^j + lam_0 P g_{j+1}], so g_0 is the
    gain and no term underflows against the leading principal's.  In float
    mode a chunk of CHUNK steps is scored with one power table and one
    matmul; each step then adds its expected successor gain and takes the
    segment maximum per state, and the chunk's segment argmax (the least row
    index attaining the maximum, so ties go to the lowest action index) is
    taken in bulk."""
    view = asym.float_view(mode)
    rho = view.discounts / view.discounts[0]
    lam_prob = view.discounts[0] * view.succ_prob
    starts, succ_starts = view.row_ptr[:-1], view.succ_ptr[:-1]
    g = np.full(view.n_states, Fraction(0) if mode.is_exact else 0.0, dtype=view.dtype)
    prefix = np.empty((kappa, view.n_states), dtype=np.int64)
    # exact numbers grow with the depth: a chunk would hold a chunk's worth
    # of them at once to save per-call costs their arithmetic outweighs
    # (exact badly_spaced(12): 6.3 MB instead of 0.13 MB, no faster)
    chunk = 1 if mode.is_exact else CHUNK
    for hi in range(kappa, 0, -chunk):
        lo = max(0, hi - chunk)
        # exponents as Python ints in exact mode: Fraction ** int64 overflows
        scores = (rho ** np.arange(lo, hi, dtype=mode.dtype)[:, None]) @ adv.delta.T
        for row in scores[::-1]:
            row += np.add.reduceat(lam_prob * g[view.succ_idx], succ_starts)
            g = np.maximum.reduceat(row, starts)
        best = np.maximum.reduceat(scores, starts, axis=1)
        ties = np.where(scores == best[:, view.row_state], view.row_index, view.n_rows)
        prefix[lo:hi] = np.minimum.reduceat(ties, starts, axis=1) - starts
    return prefix.tolist(), g.tolist()


def optimize(
    asym: AsymMdp,
    mode: NumericMode = FLOAT,
    slack=None,
    max_kappa: int = 10**7,
    method: str = "pi",
) -> OptimizeResult:
    """Synthesize the welfare-optimal counting strategy and its report."""
    t0 = time.perf_counter()
    lt = long_term(asym, mode=mode, method=method)
    t1 = time.perf_counter()
    adv = advantages(asym, lt, mode=mode)
    kappa = find_kappa(asym, adv, slack=slack, max_kappa=max_kappa, mode=mode)
    est = kappa_estimate(asym, adv, mode=mode)
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
        kappa_bound=est,
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
                f"{sw} != {baseline} + {gain}"
            )
    else:
        scale = max(1.0, abs(float(sw)))
        if abs(float(sw) - float(baseline) - float(gain)) > DECOMPOSITION_TOL * scale:
            raise CertificationError(
                f"welfare decomposition failed at state {state!r}: "
                f"{float(sw)} vs {float(baseline)} + {float(gain)}"
            )
