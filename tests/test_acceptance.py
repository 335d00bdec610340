"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Tolerances are pinned here, not configurable.

Criteria 4-6 check the four-, six- and seven-state worked examples.
Criterion 4 pins external reference values that the four-state model as
transcribed does not reach, so it fails until the model or the reference
is corrected from the paper.  Criteria 5 and 6 pin hand-derived Bellman
solutions of the models as transcribed, asserted exactly in EXACT mode and
within 1e-9 in FLOAT mode, and cross-checked by the exhaustive counting
oracle at depth kappa + 1."""

import time
from fractions import Fraction

from mdpwf import (
    EXACT,
    FLOAT,
    CnfFormula,
    CountingStrategy,
    MixedStationaryStrategy,
    RandomMdpConfig,
    advantages,
    badly_spaced,
    builtin,
    decode_assignment,
    enumerate_counting,
    enumerate_positional,
    eval_counting,
    eval_positional,
    eval_stationary_mixed,
    find_kappa,
    kappa_estimate,
    long_term,
    optimize,
    random_mdp,
    run_rq3,
    sat_reduction,
    spacing_report,
    sweep_discounts,
    threshold_decide_positional,
    truth_table_satisfiable,
)
from mdpwf.bench import steps_until_action
from mdpwf.generators import assignment_satisfies, small_formula_representatives


def _criterion(n, checks):
    failed = [label for ok, label in checks if not ok]
    status = "PASS" if not failed else "FAIL (" + "; ".join(failed) + ")"
    print(f"[acceptance] criterion {n}: {status}")
    assert not failed, f"criterion {n} failed: {failed}"


def _close(x, target, tol):
    return abs(float(x) - float(target)) <= tol


def test_criterion_01_investment_exact():
    inv = builtin("investment")
    t0 = time.perf_counter()
    res = optimize(inv, mode=EXACT)
    oracle = enumerate_counting(inv, 0, 4, mode=EXACT, cap=10**6)
    elapsed = time.perf_counter() - t0
    rep = res.reports["s0"]
    prefix_s0 = [inv.mdp.actions[0][row[0]] for row in res.strategy.prefix]
    tail = [inv.mdp.actions[s][a] for s, a in enumerate(res.strategy.tail)]
    _criterion(
        1,
        [
            (res.kappa == 2, f"kappa {res.kappa} != 2"),
            (prefix_s0 == ["a", "a"], f"prefix {prefix_s0} != [a, a]"),
            (tail == ["b", "b"], f"tail {tail}"),
            (rep.social_welfare == Fraction(127, 9), f"SW {rep.social_welfare}"),
            (rep.baseline == 13, f"baseline {rep.baseline}"),
            (
                res.long_term.values[0][0] == 11 and res.long_term.values[1][0] == 2,
                "V != (11, 2)",
            ),
            (
                oracle.best_social_welfare == rep.social_welfare,
                f"oracle {oracle.best_social_welfare} != optimize {rep.social_welfare}",
            ),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s"),
        ],
    )


def test_criterion_02_per_strategy_payoffs():
    inv = builtin("investment")
    checks = []

    def counting(k):
        cs = CountingStrategy(kappa=k, prefix=[[0, 0]] * k, tail=[1, 0])
        return [v[0] for v in eval_counting(inv, cs, EXACT).per_principal]

    a_inf = [v[0] for v in eval_positional(inv, [0, 0], EXACT).per_principal]
    checks.append((_close(a_inf[0], 9, 0.01) and _close(a_inf[1], 4.5, 0.01), "a^w"))
    b_inf = counting(0)
    checks.append((_close(b_inf[0], 11, 0.01) and _close(b_inf[1], 2, 0.01), "b^w"))
    a3 = counting(3)
    checks.append((_close(a3[0], 9.59, 0.01) and _close(a3[1], 4.41, 0.01), "a^3 b^w"))
    a1 = counting(1)
    checks.append(
        (a1 == [Fraction(31, 3), Fraction(11, 3)], f"a b^w exact {a1}")
    )
    a2 = counting(2)
    checks.append(
        (a2 == [Fraction(89, 9), Fraction(38, 9)], f"a^2 b^w exact {a2}")
    )
    # binary64 evaluation agrees with the closed form to 1e-12
    cs = CountingStrategy(kappa=1, prefix=[[0, 0]], tail=[1, 0])
    f1 = [v[0] for v in eval_counting(inv, cs, FLOAT).per_principal]
    checks.append(
        (
            _close(f1[0], Fraction(31, 3), 1e-12) and _close(f1[1], Fraction(11, 3), 1e-12),
            "a b^w float",
        )
    )
    _criterion(2, checks)


def test_criterion_03_mixed_beats_positional():
    inv = builtin("investment")
    t0 = time.perf_counter()
    mix = MixedStationaryStrategy([[Fraction(3, 4), Fraction(1, 4)], [Fraction(1)]])
    sw = eval_stationary_mixed(inv, mix, EXACT).social_welfare[0]
    best = enumerate_positional(inv, 0, mode=EXACT).best_social_welfare
    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        [
            (sw == Fraction(41, 3), f"mixed SW {sw} != 41/3"),
            (best == Fraction(27, 2), f"positional best {best} != 13.5"),
            (sw > best, "mixed does not exceed positional"),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s"),
        ],
    )


def _agrees(mode, x, target):
    """Exact equality in EXACT mode, within 1e-9 in FLOAT mode."""
    if mode.is_exact:
        return x == target
    return _close(x, target, 1e-9)


def _oracle_sw(asym, kappa):
    """Best social welfare from s0 over every counting strategy of depth
    kappa + 1, by exhaustion."""
    return enumerate_counting(asym, 0, kappa + 1, mode=EXACT).best_social_welfare


# Criterion 4 pins the external reference values for the four-state
# example.  The model as transcribed does not reach them (README "Testing"):
# it gives kappa 2, V0(s0) 450/23, V1(s0) 150/287 and SW 132600/6601, which
# test_welfare.py pins.  All five pins hold if the reward of (s0, b) is 26/25
# instead of 0; without the paper's appendix neither side can be corrected.
def test_criterion_04_four_state_example():
    ex2 = builtin("appendix_ex2")
    res = optimize(ex2, mode=FLOAT)
    rep = res.reports["s0"]
    tail = [ex2.mdp.actions[s][a] for s, a in enumerate(res.strategy.tail)]
    v0 = float(res.long_term.values[0][0])
    v1 = float(res.long_term.values[1][0])
    _criterion(
        4,
        [
            (res.kappa == 1, f"kappa {res.kappa} != 1"),
            (tail == ["b", "d", "e", "f"], f"tail {tail}"),
            (_close(v0, 21.83, 0.01), f"V0(s0) {v0:.4f} != 21.83 +- 0.01"),
            (_close(v1, 1.79, 0.01), f"V1(s0) {v1:.4f} != 1.79 +- 0.01"),
            (
                _close(rep.social_welfare, 23.62, 0.01),
                f"SW {float(rep.social_welfare):.4f} != 23.62 +- 0.01",
            ),
        ],
    )


def test_criterion_05_six_state_example():
    # The external reference gave SW 1073.23: P0's optimum 1072.2294 (b at
    # s0) plus P1's optimum 1.0000 (a at s0), which no single strategy
    # reaches since it cannot play both actions at s0.
    ex3 = builtin("appendix_ex3")
    kappa = 1
    v0 = Fraction(5361147, 5000)
    sw = Fraction(24125173, 22500)
    oracle = _oracle_sw(ex3, kappa)
    checks = [(oracle == sw, f"oracle SW {oracle} != {sw}")]
    for mode in (EXACT, FLOAT):
        res = optimize(ex3, mode=mode)
        rep = res.reports["s0"]
        got_v0 = res.long_term.values[0][0]
        m = mode.kind
        checks += [
            (res.kappa == kappa, f"{m}: kappa {res.kappa} != {kappa}"),
            (
                _agrees(mode, rep.deviation_gain, 0)
                and res.strategy.prefix[0][0] == res.strategy.tail[0],
                f"{m}: start state deviates",
            ),
            (_agrees(mode, got_v0, v0), f"{m}: V0(s0) {got_v0} != {v0}"),
            (_agrees(mode, rep.social_welfare, sw), f"{m}: SW {rep.social_welfare} != {sw}"),
        ]
    _criterion(5, checks)


def test_criterion_06_seven_state_example():
    # The external reference gave kappa 2.  kappa is the least depth from
    # which no aggregate deviation helps, and every aggregate advantage is
    # already negative at depth 1 (the largest, (s4, h), is -1.364).  So the
    # step-1 action at s4 is the tail's.
    ex4 = builtin("appendix_ex4")
    kappa = 1
    gain = Fraction(936559, 200000)
    sw = Fraction(1247718809, 10200000)
    oracle = _oracle_sw(ex4, kappa)
    s4 = ex4.state_index("s4")
    checks = [(oracle == sw, f"oracle SW {oracle} != {sw}")]
    for mode in (EXACT, FLOAT):
        res = optimize(ex4, mode=mode)
        rep = res.reports["s0"]
        cs = res.strategy
        rows = cs.prefix + [cs.tail]  # step j plays rows[min(j, kappa)]
        first = ex4.mdp.actions[0][rows[0][0]]
        second = ex4.mdp.actions[s4][rows[min(1, cs.kappa)][s4]]
        m = mode.kind
        checks += [
            (res.kappa == kappa, f"{m}: kappa {res.kappa} != {kappa}"),
            (first == "a", f"{m}: step-0 action at s0 is {first}"),
            (second == "j", f"{m}: step-1 action at s4 is {second}"),
            (_agrees(mode, rep.deviation_gain, gain), f"{m}: gain {rep.deviation_gain} != {gain}"),
            (_agrees(mode, rep.social_welfare, sw), f"{m}: SW {rep.social_welfare} != {sw}"),
        ]
    _criterion(6, checks)


def test_criterion_07_badly_spaced_family():
    t0 = time.perf_counter()
    checks = []
    for n, reported in ((10, 762), (100, 120324)):
        asym = badly_spaced(n)
        lt = long_term(asym, FLOAT)
        adv = advantages(asym, lt, FLOAT)
        kappa = find_kappa(asym, adv, mode=FLOAT)
        bound = kappa_estimate(asym, adv, FLOAT)
        checks.append(
            (abs(kappa - reported) <= 2, f"n={n}: kappa {kappa} not within {reported}+-2")
        )
        checks.append((bound >= kappa, f"n={n}: bound {bound} < adaptive {kappa}"))
        checks.append(
            (
                not spacing_report(asym, 100).all_spaced,
                f"n={n}: flagged reasonably spaced for bound 100",
            )
        )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"))
    _criterion(7, checks)


def test_criterion_08_sat_reduction():
    t0 = time.perf_counter()
    phi = CnfFormula(num_vars=3, clauses=[(1, -2, 3), (-1, -2, 3), (-1, 2, -3)])
    asym, threshold, meta = sat_reduction(phi)
    dec = threshold_decide_positional(asym, 0, threshold, mode=EXACT)
    assignment = decode_assignment(asym, dec.witness) if dec.satisfied else None
    padded = CnfFormula(num_vars=1, clauses=[(1, 1, 1), (-1, -1, -1)])
    asym2, th2, _ = sat_reduction(padded)
    dec2 = threshold_decide_positional(asym2, 0, th2, mode=EXACT)

    lam0, lam1 = asym.discounts
    sigma = [0] * asym.n_states
    lit = asym.state_index("x1")
    sigma[lit] = asym.action_index(lit, "to_TOP")
    vals = eval_positional(asym, sigma, EXACT)
    short_p0 = lam0**2 * vals.per_principal[0][lit]
    short_p1 = lam1**2 * vals.per_principal[1][lit]

    checks = [
        (dec.satisfied, "satisfiable formula rejected"),
        (
            dec.satisfied and assignment_satisfies(phi, assignment),
            "witness does not decode to a satisfying assignment",
        ),
        (not dec2.satisfied, "padded contradiction accepted"),
        (short_p0 == Fraction(729, 14375), f"short-path payoff {short_p0}"),
        (short_p1 == Fraction(-4, 75), f"short-path payoff {short_p1}"),
        (Fraction(meta["c_short"]) == Fraction(113, 43125), "c_short"),
        (Fraction(meta["c_long"]) == Fraction(13049, 2156250), "c_long"),
    ]

    # exhaustive agreement: every <=3-var, <=3-clause formula up to variable
    # renaming and polarity flips (both sides are invariant under them)
    disagreements = 0
    for cnf in small_formula_representatives(3, 3):
        a, t, _ = sat_reduction(cnf)
        d = threshold_decide_positional(a, 0, t, mode=EXACT)
        if d.satisfied != truth_table_satisfiable(cnf):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    checks.append((disagreements == 0, f"{disagreements} truth-table disagreements"))
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"))
    _criterion(8, checks)


def test_criterion_09_oracle_equivalence_suite():
    checks = []
    worst_eq = worst_dec = 0.0
    dominance_ok = absorption_ok = late_ok = True
    for seed in range(200):
        cfg = RandomMdpConfig(
            num_states=4,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 20)],  # spacing 1/5 <= 10
            seed=seed,
        )
        asym = random_mdp(cfg)
        res = optimize(asym, mode=FLOAT)
        rep = res.reports["s0"]
        sw = float(rep.social_welfare)
        cnt = enumerate_counting(asym, 0, res.kappa, mode=FLOAT, cap=10**6)
        worst_eq = max(worst_eq, abs(sw - float(cnt.best_social_welfare)))
        pos = enumerate_positional(asym, 0, mode=FLOAT)
        if sw < float(pos.best_social_welfare) - 1e-9:
            dominance_ok = False
        worst_dec = max(
            worst_dec,
            abs(sw - float(rep.baseline) - float(rep.deviation_gain)),
        )
        lams = [float(d) for d in asym.discounts]
        for j in range(res.kappa, res.kappa + 6):
            for row, imin in zip(res.advantage.delta.tolist(), res.advantage.lead.tolist()):
                if imin < 0:
                    continue
                scale = lams[imin] ** j
                acc = 0.0
                for p, d in enumerate(row):
                    acc += (lams[p] ** j / scale) * float(d)
                    if acc > 1e-12:
                        absorption_ok = False
                agg = sum(float(d) * lam**j for d, lam in zip(row, lams))
                if agg > 1e-12:
                    late_ok = False
    checks.append((worst_eq <= 1e-9, f"optimize vs counting oracle gap {worst_eq:.2e}"))
    checks.append((dominance_ok, "optimize below best positional"))
    checks.append((worst_dec <= 1e-9, f"decomposition gap {worst_dec:.2e}"))
    checks.append((absorption_ok, "absorption violated past kappa"))
    checks.append((late_ok, "positive aggregate layer reward past kappa"))
    _criterion(9, checks)


def test_criterion_10_scaling_smoke():
    cfg = RandomMdpConfig(
        num_states=2000,
        actions_per_state=2,
        num_principals=2,
        discounts=[Fraction(9, 10), Fraction(3, 10)],
        seed=0,
    )
    asym = random_mdp(cfg)
    t0 = time.perf_counter()
    res = optimize(asym, mode=FLOAT)
    elapsed = time.perf_counter() - t0
    ratios = [1.32 * (16 / 1.32) ** (i / 11) for i in range(12)]
    rows = run_rq3(ratios=ratios, states=30, actions=2, seeds=(0,), workers=1)
    ks = [r.kappa for r in rows if r.error is None]
    _criterion(
        10,
        [
            (elapsed < 60.0, f"2000-state optimize took {elapsed:.1f}s"),
            (res.kappa >= 0, "optimize failed"),
            (len(ks) == 12, "rq3 rows missing"),
            (
                all(a >= b for a, b in zip(ks, ks[1:])),
                f"kappa not non-increasing over ratios: {ks}",
            ),
        ],
    )


def test_criterion_11_waiting_time_sweep():
    inv = builtin("investment")
    grid = [Fraction(k, 51) for k in range(1, 51)]  # includes 2/3 and 1/3
    t0 = time.perf_counter()
    cells = sweep_discounts(inv, grid, grid, start=0, max_kappa=10**5)
    by = {(c.alpha, c.beta): c for c in cells}

    def waiting(cell):
        w = steps_until_action(cell, "b")
        return float("inf") if w is None else w

    checks = []
    main_cell = by[(Fraction(34, 51), Fraction(17, 51))]
    checks.append(
        (
            main_cell.status == "ok" and waiting(main_cell) == 2,
            f"cell (2/3, 1/3) waiting {waiting(main_cell)}",
        )
    )
    # banded regions: every grid line crosses each region at most once,
    # i.e. waiting is non-increasing in alpha and unimodal in beta
    def unimodal(seq):
        i = 0
        while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
            i += 1
        while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
            i += 1
        return i == len(seq) - 1

    contiguous = True
    integer_valued = True
    for beta in grid:
        seq = [
            waiting(by[(alpha, beta)])
            for alpha in grid
            if by[(alpha, beta)].status == "ok"
        ]
        if any(x < y for x, y in zip(seq, seq[1:])):
            contiguous = False
    for alpha in grid:
        seq = [
            waiting(by[(alpha, beta)])
            for beta in grid
            if by[(alpha, beta)].status == "ok"
        ]
        if seq and not unimodal(seq):
            contiguous = False
        if any(w != float("inf") and w != int(w) for w in seq):
            integer_valued = False
    checks.append((contiguous, "waiting-time regions not contiguous"))
    checks.append((integer_valued, "non-integer waiting time"))

    sampled = 0
    cross_ok = True
    for ka in range(3, 50, 9):
        for kb in range(2, ka, 7):
            cell = by[(Fraction(ka + 1, 51), Fraction(kb, 51))]
            if cell.status != "ok" or cell.kappa > 8:
                continue
            asym = inv.with_discounts([cell.alpha, cell.beta])
            cnt = enumerate_counting(asym, 0, 8, mode=FLOAT, cap=2**18)
            if abs(cell.social_welfare - float(cnt.best_social_welfare)) > 1e-9:
                cross_ok = False
            sampled += 1
    elapsed = time.perf_counter() - t0
    checks.append((sampled >= 10, f"only {sampled} cells cross-checked"))
    checks.append((cross_ok, "sweep cell disagrees with counting oracle"))
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s"))
    _criterion(11, checks)
