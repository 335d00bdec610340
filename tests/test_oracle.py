import itertools
from fractions import Fraction

import pytest

from mdpwf import (
    EXACT,
    FLOAT,
    AsymMdp,
    CapExceededError,
    CnfFormula,
    CountingStrategy,
    canonical_trim,
    enumerate_counting,
    enumerate_positional,
    eval_counting,
    eval_positional,
    RandomMdpConfig,
    optimize,
    random_mdp,
    sat_reduction,
    threshold_decide_positional,
)
import mdpwf.linalg
import mdpwf.oracle
from mdpwf.oracle import BLOCK, DEFAULT_CAP, _full_graph_topo, _scored_blocks


def _scan(asym, mode):
    """(strategy, social welfare from state 0) for every pure positional
    strategy, in the order `enumerate_positional` scores them."""
    blocks = _scored_blocks(asym, 0, mode, _full_graph_topo(asym), DEFAULT_CAP)
    return [pair for sig, sw in blocks for pair in zip(sig.tolist(), sw.tolist())]


def test_enumerate_positional_investment(investment):
    res = enumerate_positional(investment, 0, mode=EXACT)
    assert res.best_social_welfare == Fraction(27, 2)
    assert investment.mdp.actions[0][res.best_strategy[0]] == "a"


def test_single_action_mdp_unique_strategy():
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2))],
        actions=[("s0", "a", [("s1", 1)], 1), ("s1", "b", [("s1", 1)], 2)],
    )
    res = enumerate_positional(asym, 0, mode=EXACT)
    assert res.best_strategy == [0, 0]


def test_positional_cap(investment):
    with pytest.raises(CapExceededError):
        enumerate_positional(investment, 0, cap=1)


def test_enumerate_counting_investment(investment):
    res = enumerate_counting(investment, 0, 4, mode=EXACT, cap=10**6)
    assert res.best_social_welfare == Fraction(127, 9)
    cs = res.best_strategy
    # winner behaves like two waiting steps followed by the investment
    rows = cs.prefix + [cs.tail]  # step j plays rows[min(j, kappa)]
    seq = [investment.mdp.actions[0][rows[min(j, cs.kappa)][0]] for j in range(3)]
    assert seq == ["a", "a", "b"]
    check = eval_counting(investment, cs, EXACT)
    assert check.social_welfare[0] == Fraction(127, 9)


def test_counting_horizon_zero_equals_positional(investment):
    cnt = enumerate_counting(investment, 0, 0, mode=EXACT)
    pos = enumerate_positional(investment, 0, mode=EXACT)
    assert cnt.best_social_welfare == pos.best_social_welfare
    assert cnt.best_strategy.kappa == 0


def test_counting_rejects_negative_horizon(investment):
    with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
        enumerate_counting(investment, 0, -1)


def test_counting_cap(investment):
    with pytest.raises(CapExceededError):
        enumerate_counting(investment, 0, 12, cap=100)


def test_counting_matches_optimize_on_deviating_example(ex4):
    res = optimize(ex4, mode=FLOAT)
    cnt = enumerate_counting(ex4, 0, 3, mode=FLOAT, cap=10**6)
    assert abs(
        float(res.reports["s0"].social_welfare) - float(cnt.best_social_welfare)
    ) < 1e-9


def test_canonical_trim(investment):
    cs = CountingStrategy.from_rows([[0, 0], [0, 0], [1, 0]], [1, 0])
    trimmed = canonical_trim(investment, cs, 0)
    assert trimmed.kappa == 2  # trailing tail-equal row dropped
    assert trimmed.prefix == [[0, 0], [0, 0]]
    # cells unreachable under the strategy are pinned to the tail first:
    # after b at step 0 the walk sits at s1, so the step-1 cell at s0 is moot
    cs2 = CountingStrategy.from_rows([[1, 0], [0, 0]], [1, 0])
    assert canonical_trim(investment, cs2, 0).kappa == 0


def test_threshold_sentinel_accepts_first(investment):
    dec = threshold_decide_positional(investment, 0, Fraction(-10**9), mode=EXACT)
    assert dec.satisfied
    assert dec.witness == [0, 0]  # lexicographically first strategy


def test_threshold_witness_reevaluates(investment):
    dec = threshold_decide_positional(investment, 0, Fraction(27, 2), mode=EXACT)
    assert dec.satisfied
    sw = eval_positional(investment, dec.witness, EXACT).social_welfare[0]
    assert sw >= Fraction(27, 2)
    assert dec.witness_social_welfare == sw


def test_threshold_unreachable(investment):
    dec = threshold_decide_positional(investment, 0, Fraction(15), mode=EXACT)
    assert not dec.satisfied
    assert dec.witness is None


def test_threshold_on_reduction_model():
    phi = CnfFormula(num_vars=3, clauses=[(1, -2, 3), (-1, -2, 3), (-1, 2, -3)])
    asym, threshold, _ = sat_reduction(phi)
    dec = threshold_decide_positional(asym, 0, threshold, mode=EXACT)
    assert dec.satisfied
    # the exact optimum sits exactly on the threshold for satisfiable input
    assert dec.witness_social_welfare == threshold


def test_three_principal_oracle_equivalence():
    from mdpwf import RandomMdpConfig, optimize, random_mdp

    for seed in range(30):
        cfg = RandomMdpConfig(
            num_states=3,
            actions_per_state=2,
            num_principals=3,
            discounts=[Fraction(9, 10), Fraction(2, 5), Fraction(1, 10)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        res = optimize(asym, mode=FLOAT)
        cnt = enumerate_counting(asym, 0, res.kappa, mode=FLOAT, cap=10**6)
        gap = abs(
            float(res.reports["s0"].social_welfare) - float(cnt.best_social_welfare)
        )
        assert gap < 1e-9, (seed, gap)


def test_exact_mode_oracle_equality(investment, ex4):
    # welfare synthesis coincides with the exhaustive counting search
    # exactly, not just within a tolerance
    for asym in (investment, ex4):
        res = optimize(asym, mode=EXACT)
        cnt = enumerate_counting(asym, 0, res.kappa, mode=EXACT, cap=10**6)
        assert cnt.best_social_welfare == res.reports[asym.mdp.states[0]].social_welfare


def test_exhaustive_search_tops_out_at_threshold():
    # full scan over all 13824 positional strategies of the reduction
    phi = CnfFormula(num_vars=3, clauses=[(1, -2, 3), (-1, -2, 3), (-1, 2, -3)])
    asym, threshold, _ = sat_reduction(phi)
    best = enumerate_positional(asym, 0, mode=FLOAT, cap=20000)
    assert abs(float(best.best_social_welfare) - float(threshold)) < 1e-12
    sw = eval_positional(asym, best.best_strategy, EXACT).social_welfare[0]
    assert sw == threshold


# -- block boundaries of the scans ----------------------------------------------


def _strategies(asym):
    return [list(s) for s in itertools.product(*(range(len(a)) for a in asym.mdp.actions))]


def test_threshold_witness_past_first_block():
    phi = CnfFormula(3, [(1, -1, 2), (1, 2, 3), (1, -2, 3)])
    asym, threshold, _ = sat_reduction(phi)
    space = _strategies(asym)
    assert len(space) == 13824  # 13.5 blocks
    # reference: the first strategy in rank order whose exact welfare reaches
    # the threshold, screened in float with a margin far wider than rounding
    rank = next(
        k for k, sigma in enumerate(space)
        if eval_positional(asym, sigma, FLOAT).social_welfare[0] >= float(threshold) - 1e-6
        and eval_positional(asym, sigma, EXACT).social_welfare[0] >= threshold
    )
    assert rank == 2844 and rank >= BLOCK
    dec = threshold_decide_positional(asym, 0, threshold, mode=EXACT)
    assert dec.satisfied and dec.witness == space[rank]
    witness_sw = eval_positional(asym, space[rank], EXACT).social_welfare[0]
    assert dec.witness_social_welfare == witness_sw


def test_unsatisfiable_scan_covers_every_block():
    phi = CnfFormula(3, [(1, 2, 3), (-1, -1, -1), (-2, -2, -2), (-3, -3, -3)])
    asym, threshold, _ = sat_reduction(phi)
    space = _strategies(asym)
    assert len(space) % BLOCK and len(space) > BLOCK  # the last block is partial
    assert not threshold_decide_positional(asym, 0, threshold, mode=EXACT).satisfied
    scan = _scan(asym, FLOAT)
    assert [sigma for sigma, _ in scan] == space
    want = [eval_positional(asym, sigma, FLOAT).social_welfare[0] for sigma in space]
    assert [sw for _, sw in scan] == pytest.approx(want, rel=1e-12)
    assert max(want) < float(threshold)


@pytest.mark.parametrize("mode", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("cyclic", [False, True], ids=["acyclic", "cyclic"])
def test_enumerate_positional_matches_reference_scan(investment, mode, cyclic):
    asym = random_mdp(RandomMdpConfig(num_states=4, seed=1)) if cyclic else investment
    assert (_full_graph_topo(asym) is None) == cyclic
    res = enumerate_positional(asym, 0, mode=mode)
    scan = _scan(asym, mode)
    space = _strategies(asym)
    want = [eval_positional(asym, sigma, mode).social_welfare[0] for sigma in space]
    assert [sigma for sigma, _ in scan] == space
    assert all(type(a) is int for sigma, _ in scan for a in sigma)
    assert all(type(sw) is (Fraction if mode.is_exact else float) for _, sw in scan)
    assert type(res.best_social_welfare) is (Fraction if mode.is_exact else float)
    assert [sw for _, sw in scan] == pytest.approx(want, rel=1e-12)
    assert res.best_strategy == space[want.index(max(want))]


def test_counting_scan_crosses_prefix_blocks():
    asym = AsymMdp.build(
        states=["s0", "s1", "s2"],
        principals=[("A", Fraction(9, 10)), ("B", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s1", Fraction(1, 2)), ("s2", Fraction(1, 2))], [3, -1]),
            ("s0", "b", [("s0", Fraction(1, 3)), ("s1", Fraction(2, 3))], [1, 2]),
            ("s1", "a", [("s0", 1)], [0, 5]),
            ("s1", "b", [("s2", Fraction(3, 4)), ("s1", Fraction(1, 4))], [2, 0]),
            ("s2", "a", [("s0", Fraction(1, 5)), ("s2", Fraction(4, 5))], [-1, 7]),
        ],
    )
    horizon = 6
    # cell (0, s0), then (j, s0) and (j, s1) for j = 1..5: 2 * 4**5 = 2048
    # prefix tables per tail, two blocks each
    cells = [(0, 0)] + [(j, s) for j in range(1, horizon) for s in (0, 1)]
    assert 2 ** len(cells) == 2 * BLOCK
    best_sw, best = None, None
    for tail in itertools.product((0, 1), (0, 1), (0,)):
        for choice in itertools.product((0, 1), repeat=len(cells)):
            prefix = [list(tail) for _ in range(horizon)]
            for (j, s), a in zip(cells, choice):
                prefix[j][s] = a
            cs = CountingStrategy.from_rows(prefix, list(tail))
            sw = eval_counting(asym, cs, FLOAT).social_welfare[0]
            if best_sw is None or sw > best_sw:
                best_sw, best = sw, cs
    cnt = enumerate_counting(asym, 0, horizon, mode=FLOAT)
    assert cnt.best_social_welfare == pytest.approx(best_sw, rel=1e-12)
    assert cnt.best_strategy == canonical_trim(asym, best, 0)


def test_exact_oracles_agree_on_repeated_self_loops(doubled_self_loop):
    # the exact confirmation must sum both self-loop entries of s0's action
    # a, as the block scan does (value 4/3, not 8/7)
    asym = doubled_self_loop
    best = enumerate_positional(asym, 0, mode=EXACT)
    assert (best.best_social_welfare, best.best_strategy) == (Fraction(4, 3), [0, 0])
    dec = threshold_decide_positional(asym, 0, Fraction(4, 3), mode=EXACT)
    assert (dec.satisfied, dec.witness, dec.witness_social_welfare) == (True, [0, 0], Fraction(4, 3))


def test_one_assembly_per_exact_confirmation(count_calls):
    phi = CnfFormula(num_vars=3, clauses=[(1, -2, 3), (-1, -2, 3), (-1, 2, -3)])
    asym, threshold, _ = sat_reduction(phi)
    assembled = count_calls("_entries", mdpwf.linalg, mdpwf.oracle)
    solves = count_calls("policy_values_exact", mdpwf.oracle)
    assert threshold_decide_positional(asym, 0, threshold, mode=EXACT).satisfied
    assert len(solves) == len(assembled)  # one solve for all principals
    assert len(assembled) >= 1


def test_cyclic_union_graph_confirms_along_policy_order(count_calls):
    """The union graph s0 <-> s1 is cyclic, but the first strategy plays
    only self loops: its exact confirmation back-substitutes."""
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2)), ("B", Fraction(1, 3))],
        actions=[
            ("s0", "stay", [("s0", 1)], [1, 2]),
            ("s0", "go", [("s1", 1)], [0, 1]),
            ("s1", "stay", [("s1", 1)], [3, 1]),
            ("s1", "go", [("s0", 1)], [1, 0]),
        ],
    )
    assert _full_graph_topo(asym) is None
    gauss = count_calls("exact_gauss", mdpwf.linalg)
    dec = threshold_decide_positional(asym, 0, Fraction(5), mode=EXACT)
    assert dec.witness == [0, 0]
    assert dec.witness_social_welfare == Fraction(2) + Fraction(3)
    assert gauss == []
