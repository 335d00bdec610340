"""Scaling studies over seeded random instances and the discount-grid
sweep, emitting CSV for downstream plotting.

Absolute runtimes are machine-dependent; rows record them for trend
inspection only.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import MdpwfError
from .generators import RandomMdpConfig, random_mdp
from .model import AsymMdp, _check_start
from .numeric import as_fraction
from .welfare import optimize


def worker_count() -> int:
    """Worker cap from MDPWF_THREADS, defaulting to the logical cores."""
    raw = os.environ.get("MDPWF_THREADS", "")
    if raw.strip():
        return max(1, int(raw))
    return os.cpu_count() or 1


# default study sizes: 100 instances per research question
DEFAULT_RQ1_STATES = list(range(2, 2001, 20))
DEFAULT_RQ2_PRINCIPALS = list(range(2, 102))
DEFAULT_RQ3_RATIOS = [1.32 * (16 / 1.32) ** (i / 99) for i in range(100)]


@dataclass
class BenchRow:
    states: int
    actions: int
    principals: int
    discount_ratio: float | None
    seed: int
    kappa: int | None = None
    social_welfare: float | None = None
    wall_time_total: float | None = None
    wall_time_longterm: float | None = None
    wall_time_unroll: float | None = None
    error: str | None = None


def _run_spec(cfg) -> BenchRow:
    row = BenchRow(
        states=cfg.num_states,
        actions=cfg.actions_per_state,
        principals=cfg.num_principals,
        discount_ratio=None,
        seed=cfg.seed,
    )
    try:
        lams = cfg.resolved_discounts()
        if len(lams) >= 2:
            row.discount_ratio = float(lams[0] / lams[1])
        asym = random_mdp(cfg)
        optimize(asym)  # warm-up run, timing discarded
        result = optimize(asym)
    except MdpwfError as e:
        row.error = str(e)
        return row
    row.kappa = result.kappa
    row.social_welfare = float(result.reports[asym.mdp.states[0]].social_welfare)
    row.wall_time_total = result.timings["total"]
    row.wall_time_longterm = result.timings["long_term"]
    row.wall_time_unroll = result.timings["unroll"]
    return row


def _study(cfgs, workers, key, rejected=()):
    """Optimize every config in float mode (in worker processes when there
    are several), then sort its rows and the `rejected` ones by (`key`
    attribute, seed)."""
    workers = worker_count() if workers is None else workers
    if workers <= 1 or len(cfgs) <= 1:
        rows = [_run_spec(cfg) for cfg in cfgs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_spec, cfgs))
    return sorted([*rows, *rejected], key=lambda r: (getattr(r, key), r.seed))


def run_rq1(states=None, seeds=(0,), workers=None):
    """Scaling in the number of states on random instances with two actions
    per state and two principals, discounts 9/10 and 3/10."""
    if states is None:
        states = DEFAULT_RQ1_STATES
    cfgs = [
        RandomMdpConfig(
            num_states=n,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 10)],
            seed=seed,
        )
        for n in states
        for seed in seeds
    ]
    return _study(cfgs, workers, "states")


def run_rq2(principals=None, states: int = 30, seeds=(0,), workers=None):
    """Scaling in the number of principals on random instances with two
    actions per state; discounts follow the arithmetic progression from
    0.99 down to 0.05."""
    if principals is None:
        principals = DEFAULT_RQ2_PRINCIPALS
    cfgs = [
        RandomMdpConfig(
            num_states=states,
            actions_per_state=2,
            num_principals=p,
            discounts=None,
            seed=seed,
        )
        for p in principals
        for seed in seeds
    ]
    return _study(cfgs, workers, "principals")


def run_rq3(ratios=None, states: int = 30, seeds=(0,), workers=None):
    """Scaling in the discount-factor ratio lam0/lam1 on random instances
    with two actions per state, lam0 held at 9/10."""
    if ratios is None:
        ratios = DEFAULT_RQ3_RATIOS
    lam0 = Fraction(9, 10)
    cfgs = []
    rejected = []
    for ratio in ratios:
        for seed in seeds:
            r = as_fraction(ratio)
            lam1 = lam0 / r
            if r <= 1 or not (0 < lam1 < 1):
                rejected.append(
                    BenchRow(
                        states=states,
                        actions=2,
                        principals=2,
                        discount_ratio=float(r),
                        seed=seed,
                        error=f"ratio {float(r)} does not give a discount in (0, 1)",
                    )
                )
                continue
            cfgs.append(
                RandomMdpConfig(
                    num_states=states,
                    actions_per_state=2,
                    num_principals=2,
                    discounts=[lam0, lam1],
                    seed=seed,
                )
            )
    return _study(cfgs, workers, "discount_ratio", rejected)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (float, Fraction)):
        return f"{float(x):.9g}"
    return str(x)


def write_csv(path, header, rows):
    """Write a header line and the rows as CSV (csv module dialect, CRLF line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def rows_to_csv(rows, path):
    header = [f.name for f in fields(BenchRow)]
    write_csv(path, header, ([_fmt(getattr(r, f)) for f in header] for r in rows))


# -- discount-grid sweep -----------------------------------------------------


@dataclass
class SweepCell:
    alpha: Fraction
    beta: Fraction
    status: str  # ok | empty | error
    kappa: int | None = None
    prefix_signature: str = ""
    tail_action: str = ""
    social_welfare: float | None = None
    error: str | None = None


def sweep_discounts(
    template: AsymMdp,
    alphas,
    betas,
    start: int = 0,
    max_kappa: int = 10**5,
):
    """Optimize the template in float mode under every (alpha, beta) grid
    cell with alpha > beta; cells on or below the diagonal stay empty."""
    if template.n_principals != 2:
        raise ValueError("sweep_discounts needs a two-principal template")
    _check_start(template, start)
    cells = []
    for alpha in alphas:
        a = as_fraction(alpha)
        for beta in betas:
            b = as_fraction(beta)
            if a <= b:
                cells.append(SweepCell(alpha=a, beta=b, status="empty"))
                continue
            asym = template.with_discounts([a, b])
            try:
                res = optimize(asym, max_kappa=max_kappa)
            except MdpwfError as e:
                cells.append(SweepCell(alpha=a, beta=b, status="error", error=str(e)))
                continue
            cs = res.strategy
            names = asym.mdp.actions[start]
            sig = ";".join(names[row[start]] for steps, row in cs.runs for _ in range(steps))
            cells.append(
                SweepCell(
                    alpha=a,
                    beta=b,
                    status="ok",
                    kappa=res.kappa,
                    prefix_signature=sig,
                    tail_action=names[cs.tail[start]],
                    social_welfare=float(
                        res.reports[asym.mdp.states[start]].social_welfare
                    ),
                )
            )
    return cells


def steps_until_action(cell: SweepCell, action: str):
    """First step at which the swept strategy plays `action` at the start
    state; None when it never does (the waiting time of a cell)."""
    if cell.status != "ok":
        return None
    names = cell.prefix_signature.split(";") if cell.prefix_signature else []
    if action in names:
        return names.index(action)
    return cell.kappa if cell.tail_action == action else None


_SWEEP_FIELDS = [f.name for f in fields(SweepCell)]


def sweep_to_csv(cells, path):
    write_csv(path, _SWEEP_FIELDS, ([_fmt(getattr(c, f)) for f in _SWEEP_FIELDS] for c in cells))
