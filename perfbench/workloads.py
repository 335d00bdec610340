"""The four benchmark workloads: their inputs, their requests and the
checks of each request's output against the recorded references.

Every request is one closed-loop call into the library.  Calls go through
module attributes (``m.welfare.optimize``, ``m.bench.sweep_discounts``,
``m.oracle.threshold_decide_positional``, ``m.generators.*``) so that the
tracer in ``tracing.py`` sees them when it replaces those attributes.

Inputs come from a fixed pool whose outputs are recorded under
``references/``.  The seed shuffles the request order and, on
``exact-oracle``, draws the SAT subset from strata of equal recorded cost,
so a round holds the same work whichever seed runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Float welfare must match the reference within this relative bound
# (absolute below magnitude 1); exact values must be equal.
FLOAT_REL_TOL = 1e-9

TWO_DISCOUNTS = (Fraction(9, 10), Fraction(3, 10))
SWEEP_GRID = [Fraction(k, 51) for k in range(1, 51)]
SAT_STRATA = 100


@dataclass
class Request:
    key: str  # names the recorded reference
    call: Callable[[], object]  # the timed program call
    summarize: Callable[[object], dict]  # output -> comparable summary
    check: Callable[[dict, dict], bool]  # (summary, reference) -> ok


def _fmt_number(x, exact):
    """Float as is; an exact rational as "p/q", or as the SHA-256 of its hex
    form when that would be long (exact long-horizon values run to
    thousands of digits)."""
    if not exact:
        return float(x)
    q = Fraction(x)
    text = f"{q.numerator:x}/{q.denominator:x}"
    if len(text) <= 64:
        return str(q)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def summarize_optimize(asym, res, exact):
    return {
        "kappa": res.kappa,
        "tail": list(res.strategy.tail),
        "welfare": [
            _fmt_number(res.reports[s].social_welfare, exact) for s in asym.mdp.states
        ],
    }


def check_optimize(got, ref):
    """kappa and tail equal; welfare equal (exact) or within FLOAT_REL_TOL.
    Prefix rows are not compared: float rows past j ~ 1,100 already differ
    from exact ones on long horizons, and fixing that must not read as a
    failure."""
    if got["kappa"] != ref["kappa"] or got["tail"] != ref["tail"]:
        return False
    if len(got["welfare"]) != len(ref["welfare"]):
        return False
    for g, r in zip(got["welfare"], ref["welfare"]):
        if isinstance(r, str):
            if g != r:
                return False
        elif not abs(g - r) <= FLOAT_REL_TOL * max(1.0, abs(r)):
            return False
    return True


def _optimize_request(m, key, asym, exact):
    mode = m.EXACT if exact else m.FLOAT

    def call():
        # a fresh copy per request rebuilds the cached FloatView, as every
        # CLI run and sweep cell does
        return m.welfare.optimize(asym.with_discounts(asym.discounts), mode=mode)

    return Request(
        key=key,
        call=call,
        summarize=lambda res: summarize_optimize(asym, res, exact),
        check=check_optimize,
    )


def _random(m, states, principals, seed, discounts=None):
    g = m.generators
    cfg = g.RandomMdpConfig(
        num_states=states,
        num_principals=principals,
        discounts=None if discounts is None else list(discounts),
        seed=seed,
    )
    return g.random_mdp(cfg)


# -- scaling -------------------------------------------------------------

# Four models large in states (both sides of the dense/sparse
# policy-evaluation limit of 600 states) and three large in principals.
# By cost the round sorts as p20 < s500 x2 < p40 < s2000 x2 < p100, so the
# median latency is the p40 request's, never a jump across the gap between
# two classes.
SCALING_POOL = [
    ("s500-i0", 500, 2, 0),
    ("s500-i1", 500, 2, 1),
    ("s2000-i0", 2000, 2, 0),
    ("s2000-i1", 2000, 2, 1),
    ("p20-i0", 30, 20, 0),
    ("p40-i0", 30, 40, 0),
    ("p100-i0", 30, 100, 0),
]


def scaling_pool(m):
    out = []
    for key, states, principals, seed in SCALING_POOL:
        discounts = TWO_DISCOUNTS if principals == 2 else None
        out.append((key, _random(m, states, principals, seed, discounts), False))
    return out


# -- long-horizon ----------------------------------------------------------

# (n, requests per round): kappa from 761 (n=10) to 55,541 (n=70) on
# three states.  n=100 (kappa 120,324) is left out: one request takes about
# 4 s, so a 15 s run would hold three samples of the class that dominates
# its time.  The counts put the median inside the n=20 class.
LONG_HORIZON_MIX = [(10, 4), (20, 7), (35, 1), (50, 2), (70, 1)]


def long_horizon_pool(m):
    return [
        (f"bs{n}", m.generators.badly_spaced(n), False)
        for n, count in LONG_HORIZON_MIX
        for _ in range(count)
    ]


# -- sweep -------------------------------------------------------------------


def check_equal(got, ref):
    return got == ref


def _sweep_requests(m):
    template = m.generators.builtin("investment")

    def summarize(cells):
        (cell,) = cells
        return {
            "status": cell.status,
            "kappa": cell.kappa,
            "waiting": m.bench.steps_until_action(cell, "b"),
        }

    requests = []
    for a in SWEEP_GRID:
        for b in SWEEP_GRID:
            if a <= b:
                continue

            def call(a=a, b=b):
                fresh = template.with_discounts(template.discounts)
                return m.bench.sweep_discounts(fresh, [a], [b], start=0, max_kappa=10**5)

            key = f"{a * 51}-{b * 51}"  # grid indices k_alpha-k_beta
            requests.append(
                Request(key=key, call=call, summarize=summarize, check=check_equal)
            )
    return requests


# -- exact-oracle ---------------------------------------------------------------


def formula_key(cnf):
    return "sat:" + str(cnf.num_vars) + ":" + ";".join(
        ",".join(str(lit) for lit in clause) for clause in cnf.clauses
    )


# exact optimize requests: badly_spaced(n) and a random instance
EXACT_BADLY_SPACED = 10
EXACT_RANDOM = (60, 0)  # states, instance seed
# the criterion-8 family: formulas of up to 3 variables and 3 clauses
SAT_FAMILY = (3, 3)


def _exact_pool(m):
    states, seed = EXACT_RANDOM
    return [
        (f"bs{EXACT_BADLY_SPACED}-exact", m.generators.badly_spaced(EXACT_BADLY_SPACED), True),
        (f"r{states}-exact-i{seed}", _random(m, states, 2, seed, TWO_DISCOUNTS), True),
    ]


def _sat_request(m, cnf):
    asym, threshold, _ = m.generators.sat_reduction(cnf)
    truth = m.generators.truth_table_satisfiable(cnf)

    def call():
        return m.oracle.threshold_decide_positional(asym, 0, threshold, mode=m.EXACT)

    return Request(
        key=formula_key(cnf),
        call=call,
        summarize=lambda dec: {
            "satisfied": bool(dec.satisfied),
            "cost": sat_scan_cost(asym, dec.witness),
        },
        # the truth table is the independent oracle for every answer
        check=lambda got, ref: got["satisfied"] == truth,
    )


def sat_subset(refs, seed):
    """One formula per stratum of the recorded scan-cost proxy, drawn by the
    seed.  Strata of near-equal cost keep the subset's total work steady
    across seeds while every seed tests different formulas."""
    keys = sorted(
        (k for k in refs if k.startswith("sat:")), key=lambda k: (refs[k]["cost"], k)
    )
    rng = random.Random(seed)
    n = len(keys)
    bounds = [round(i * n / SAT_STRATA) for i in range(SAT_STRATA + 1)]
    return [keys[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def sat_scan_cost(asym, witness):
    """Strategies the threshold scan visits before it stops, times the
    states each evaluation touches: the product-order rank of the witness,
    or the whole space when there is none."""
    counts = [len(a) for a in asym.mdp.actions]
    total = 1
    for c in counts:
        total *= c
    if witness is None:
        visited = total
    else:
        rank = 0
        for c, a in zip(counts, witness):
            rank = rank * c + a
        visited = rank + 1
    return visited * asym.n_states


# -- workload table -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # Wall seconds one round took when the benchmark was defined (2-core
    # x86 box, one OpenBLAS thread).  --seconds / round_seconds fixes the
    # number of rounds, so two commits compared always do the same work.
    round_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scaling", 3.0),
        Workload("long-horizon", 4.4),
        Workload("sweep", 0.36),
        Workload("exact-oracle", 1.3),
    )
}


def load_references(name):
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_requests(m, name, seed, refs):
    """Generate the workload's inputs and its requests in seed order.  This
    is the timed input-generation part of set-up."""
    if name == "scaling":
        requests = [_optimize_request(m, k, a, e) for k, a, e in scaling_pool(m)]
    elif name == "long-horizon":
        requests = [_optimize_request(m, k, a, e) for k, a, e in long_horizon_pool(m)]
    elif name == "sweep":
        requests = _sweep_requests(m)
    elif name == "exact-oracle":
        requests = [_optimize_request(m, k, a, e) for k, a, e in _exact_pool(m)]
        chosen = set(sat_subset(refs, seed))
        for cnf in m.generators.small_formula_representatives(*SAT_FAMILY):
            if formula_key(cnf) in chosen:
                requests.append(_sat_request(m, cnf))
        if len(requests) != len(chosen) + 2:
            raise KeyError("recorded SAT formulas missing from the generator")
    else:
        raise KeyError(name)
    random.Random(seed).shuffle(requests)
    return requests


def all_requests(m, name):
    """Every request the pool can produce, for recording references."""
    if name == "exact-oracle":
        requests = [_optimize_request(m, k, a, e) for k, a, e in _exact_pool(m)]
        return requests + [
            _sat_request(m, cnf)
            for cnf in m.generators.small_formula_representatives(*SAT_FAMILY)
        ]
    return build_requests(m, name, 0, {})
