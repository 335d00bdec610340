import csv
from fractions import Fraction

import pytest

from mdpwf import (
    FLOAT,
    RandomMdpConfig,
    eval_counting,
    optimize,
    random_mdp,
    run_rq1,
    run_rq2,
    run_rq3,
    steps_until_action,
    sweep_discounts,
)
from mdpwf.bench import rows_to_csv, sweep_to_csv, worker_count


def test_rq1_row_counts():
    rows = run_rq1(states=[4, 6], seeds=(0, 1, 2), workers=1)
    assert len(rows) == 6
    assert [(r.states, r.seed) for r in rows] == sorted((s, k) for s in (4, 6) for k in range(3))
    assert all(r.error is None for r in rows)
    assert all(r.wall_time_total >= 0 for r in rows)


def test_rq1_empty_states():
    assert run_rq1(states=[], workers=1) == []


def test_default_study_sizes():
    from mdpwf.bench import DEFAULT_RQ1_STATES, DEFAULT_RQ2_PRINCIPALS, DEFAULT_RQ3_RATIOS

    assert len(DEFAULT_RQ1_STATES) == 100 and DEFAULT_RQ1_STATES[0] == 2
    assert DEFAULT_RQ2_PRINCIPALS == list(range(2, 102))
    assert len(DEFAULT_RQ3_RATIOS) == 100
    assert abs(DEFAULT_RQ3_RATIOS[0] - 1.32) < 1e-12
    assert abs(DEFAULT_RQ3_RATIOS[-1] - 16.0) < 1e-12


def test_rq2_duplicate_counts_kept():
    rows = run_rq2(principals=[3, 3], states=4, seeds=(0,), workers=1)
    assert len(rows) == 2
    assert rows[0].principals == rows[1].principals == 3


def test_rq2_single_row_discounts():
    rows = run_rq2(principals=[2], states=6, seeds=(0,), workers=1)
    assert len(rows) == 1
    # progression endpoints 0.99 and 0.05 give ratio 19.8
    assert abs(rows[0].discount_ratio - float(Fraction(99, 5))) < 1e-12


def test_rq3_ratio_handling():
    rows = run_rq3(ratios=[16], states=4, seeds=(0,), workers=1)
    assert len(rows) == 1 and rows[0].error is None
    # lam1 = 0.9 / 16
    assert abs(rows[0].discount_ratio - 16.0) < 1e-12
    bad = run_rq3(ratios=[0.5], states=4, seeds=(0,), workers=1)
    assert bad[0].error is not None


def test_bench_row_social_welfare_reevaluates():
    rows = run_rq1(states=[5], seeds=(3,), workers=1)
    cfg = RandomMdpConfig(num_states=5, actions_per_state=2, num_principals=2,
                          discounts=[Fraction(9, 10), Fraction(3, 10)], seed=3)
    asym = random_mdp(cfg)
    res = optimize(asym, mode=FLOAT)
    sw = float(eval_counting(asym, res.strategy, FLOAT).social_welfare[0])
    assert abs(rows[0].social_welfare - sw) < 1e-9
    assert rows[0].kappa == res.kappa


def test_bench_csv_output(tmp_path):
    rows = run_rq1(states=[4], seeds=(0,), workers=1)
    path = tmp_path / "rq1.csv"
    rows_to_csv(rows, path)
    with open(path, newline="") as f:
        data = list(csv.reader(f))
    assert data[0] == [
        "states", "actions", "principals", "discount_ratio", "seed", "kappa", "social_welfare",
        "wall_time_total", "wall_time_longterm", "wall_time_unroll", "error",
    ]
    assert len(data) == 2


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MDPWF_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("MDPWF_THREADS")
    assert worker_count() >= 1


# -- discount sweep ----------------------------------------------------------


def test_sweep_investment_cells(investment):
    alphas = [Fraction(2, 3), Fraction(9, 10)]
    betas = [Fraction(1, 3), Fraction(89, 100), Fraction(9, 10)]
    cells = sweep_discounts(investment, alphas, betas)
    by = {(c.alpha, c.beta): c for c in cells}
    main = by[(Fraction(2, 3), Fraction(1, 3))]
    assert main.status == "ok"
    assert steps_until_action(main, "b") == 2
    quick = by[(Fraction(9, 10), Fraction(89, 100))]
    assert steps_until_action(quick, "b") == 0
    assert by[(Fraction(9, 10), Fraction(9, 10))].status == "empty"
    assert by[(Fraction(2, 3), Fraction(9, 10))].status == "empty"


def test_sweep_cells_order_independent(investment):
    grid = [Fraction(k, 7) for k in range(1, 7)]
    a = sweep_discounts(investment, grid, grid)
    b = sweep_discounts(investment, list(reversed(grid)), grid)
    key = lambda c: (c.alpha, c.beta)
    strip = lambda c: (c.alpha, c.beta, c.status, c.kappa, c.prefix_signature,
                       c.tail_action, c.social_welfare)
    assert sorted(map(strip, a), key=lambda t: t[:2]) == sorted(
        map(strip, b), key=lambda t: t[:2]
    )


def test_sweep_requires_two_principals(twins):
    with pytest.raises(ValueError):
        sweep_discounts(twins, [Fraction(1, 2)], [Fraction(1, 4)])


@pytest.mark.parametrize("start", [-1, 2])
def test_sweep_rejects_a_start_out_of_range(investment, start):
    # -1 used to report the last state, and 2 raised a bare IndexError
    with pytest.raises(ValueError, match=rf"start {start} out of range \(model has 2 states\)"):
        sweep_discounts(investment, [Fraction(2, 3)], [Fraction(1, 3)], start=start)


def test_sweep_csv(investment, tmp_path):
    cells = sweep_discounts(investment, [Fraction(2, 3)], [Fraction(1, 3)])
    path = tmp_path / "sweep.csv"
    sweep_to_csv(cells, path)
    with open(path, newline="") as f:
        data = list(csv.reader(f))
    assert data == [
        ["alpha", "beta", "status", "kappa", "prefix_signature", "tail_action",
         "social_welfare", "error"],
        ["0.666666667", "0.333333333", "ok", "2", "a;a", "b", "14.1111111", ""],
    ]
