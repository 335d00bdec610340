import re
from fractions import Fraction

import numpy as np
import pytest

import mdpwf.linalg
import mdpwf.solve
from mdpwf import (
    EXACT,
    FLOAT,
    AsymMdp,
    ConvergenceError,
    RandomMdpConfig,
    eval_positional,
    optimal_action_set,
    random_mdp,
    solve_discounted,
)
from mdpwf.numeric import VI_TOL


def test_alice_optimal_values(investment):
    res = solve_discounted(investment, 0, mode=EXACT)
    assert res.values == [Fraction(11), Fraction(18)]
    assert investment.mdp.actions[0][res.strategy[0]] == "b"


def test_bob_unrestricted(investment):
    res = solve_discounted(investment, 1, mode=EXACT)
    assert res.values[0] == Fraction(9, 2)
    assert investment.mdp.actions[0][res.strategy[0]] == "a"


def test_bob_restricted_to_alice_optimal(investment):
    res = solve_discounted(investment, 1, mode=EXACT, restriction=[[1], [0]])
    assert res.values[0] == Fraction(2)


def test_q_values_and_action_set(investment):
    res = solve_discounted(investment, 0, mode=EXACT)
    assert res.q.value(0, 0) == Fraction(31, 3)  # 3 + (2/3) * 11
    assert res.q.value(0, 1) == Fraction(11)
    sets = optimal_action_set(investment, res.q, res.values, mode=EXACT)
    assert sets == [[1], [0]]


def test_identical_actions_both_kept():
    asym = AsymMdp.build(
        states=["s0"],
        principals=[("A", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s0", 1)], 1),
            ("s0", "b", [("s0", 1)], 1),
        ],
    )
    res = solve_discounted(asym, 0, mode=EXACT)
    sets = optimal_action_set(asym, res.q, res.values, mode=EXACT)
    assert sets[0] == [0, 1]


def test_float_tie_tolerance_keeps_near_ties():
    asym = AsymMdp.build(
        states=["s0"],
        principals=[("A", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s0", 1)], 1),
            ("s0", "b", [("s0", 1)], 1 - 1e-12),
        ],
    )
    res = solve_discounted(asym, 0, mode=FLOAT)
    sets = optimal_action_set(asym, res.q, res.values, mode=FLOAT)
    assert sets[0] == [0, 1]


def test_vi_requires_float_mode(investment):
    with pytest.raises(ValueError):
        solve_discounted(investment, 0, mode=EXACT, method="vi")


def test_empty_restriction_rejected(investment):
    with pytest.raises(ValueError):
        solve_discounted(investment, 0, restriction=[[], [0]])


def _bellman_residual(asym, res, restriction=None):
    # max_a q(s, a) must reproduce v(s)
    worst = 0.0
    for s in range(asym.n_states):
        allowed = range(len(asym.mdp.actions[s])) if restriction is None else restriction[s]
        best = max(float(res.q.value(s, a)) for a in allowed)
        worst = max(worst, abs(best - float(res.values[s])))
    return worst


def test_exact_bellman_residual_zero(investment):
    res = solve_discounted(investment, 0, mode=EXACT)
    for s in range(investment.n_states):
        best = max(
            res.q.value(s, a) for a in range(len(investment.mdp.actions[s]))
        )
        assert best == res.values[s]


def test_pi_vi_agree_on_seeded_instances():
    worst = 0.0
    for seed in range(100):
        cfg = RandomMdpConfig(
            num_states=3 + seed % 8,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 10)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        for i in range(2):
            pi = solve_discounted(asym, i, mode=FLOAT, method="pi")
            vi = solve_discounted(asym, i, mode=FLOAT, method="vi")
            gap = float(
                np.max(np.abs(np.asarray(pi.values) - np.asarray(vi.values)))
            )
            worst = max(worst, gap)
            assert _bellman_residual(asym, pi) < 1e-8
    assert worst < 2 * VI_TOL


def test_returned_strategy_evaluates_to_values():
    for seed in range(40):
        cfg = RandomMdpConfig(
            num_states=5,
            actions_per_state=3,
            num_principals=2,
            discounts=[Fraction(4, 5), Fraction(2, 5)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        res = solve_discounted(asym, 0, mode=FLOAT, method="pi")
        ev = eval_positional(asym, res.strategy, FLOAT)
        gap = np.max(
            np.abs(np.asarray(ev.per_principal[0]) - np.asarray(res.values))
        )
        assert gap < 1e-9


def test_exact_strategy_evaluates_to_values(investment):
    res = solve_discounted(investment, 0, mode=EXACT)
    ev = eval_positional(investment, res.strategy, EXACT)
    assert list(ev.per_principal[0]) == list(res.values)


SOLVERS = [
    pytest.param(EXACT, "pi", id="pi-exact"),
    pytest.param(FLOAT, "pi", id="pi-float"),
    pytest.param(FLOAT, "vi", id="vi-float"),
]


@pytest.mark.parametrize("mode, method", SOLVERS)
@pytest.mark.parametrize(
    "restriction, message",
    [
        ([[-1], [0]], "state 's0'"),  # would play s1's row from s0
        ([[2], [0]], "state 's0'"),
        ([[0]], "state 's1'"),  # covers one state of two
        ([[0, 5], [0]], "state 's0'"),
        ([[0], [0], [0]], "3 entries for 2 states"),
    ],
)
def test_bad_restriction_rejected(investment, restriction, message, mode, method):
    with pytest.raises(ValueError, match=message):
        solve_discounted(investment, 0, mode=mode, method=method, restriction=restriction)


def test_q_value_outside_restriction_raises(investment):
    res = solve_discounted(investment, 1, mode=EXACT, restriction=[[1], [0]])
    assert res.q.value(0, 1) == Fraction(-1) + Fraction(1, 3) * 9
    for key in [(0, 0), (0, 2), (1, 1), (2, 0), (-1, 0)]:
        with pytest.raises(KeyError):
            res.q.value(*key)


@pytest.mark.parametrize(
    "mode, bump", [(EXACT, Fraction(1, 7)), (FLOAT, 1e-6)], ids=["exact", "float"]
)
def test_empty_optimal_set_names_margin(investment, mode, bump):
    res = solve_discounted(investment, 0, mode=mode)
    res.values[1] += bump  # s1's only action now falls short of v(s1)
    pattern = r"state 's1': v\(s\) - max allowed q\(s, a\) = (\S+) against tie tolerance (\S+);"
    with pytest.raises(ConvergenceError, match=pattern) as info:
        optimal_action_set(investment, res.q, res.values, mode=mode)
    gap, tolerance = re.search(pattern, str(info.value)).groups()
    assert float(Fraction(gap)) == pytest.approx(float(bump), rel=1e-6)
    assert float(tolerance) == (0 if mode.is_exact else 1e-9)


def _tie_model():
    # s0: b and d tie for the best allowed q; e is better but disallowed.
    # s1: y and z tie; x is better but disallowed.
    return AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s0", 1)], 1),
            ("s0", "b", [("s0", 1)], 3),
            ("s0", "c", [("s0", 1)], 2),
            ("s0", "d", [("s0", 1)], 3),
            ("s0", "e", [("s0", 1)], 5),
            ("s1", "x", [("s1", 1)], 4),
            ("s1", "y", [("s1", 1)], 2),
            ("s1", "z", [("s1", 1)], 2),
        ],
    )


@pytest.mark.parametrize("mode, method", SOLVERS)
def test_strategy_takes_lowest_allowed_index_among_ties(mode, method):
    asym = _tie_model()
    res = solve_discounted(asym, 0, mode=mode, method=method, restriction=[[0, 1, 2, 3], [1, 2]])
    assert res.strategy == [1, 1]
    assert res.q.value(0, 1) == res.q.value(0, 3)
    assert float(res.values[0]) == pytest.approx(6)
    full = solve_discounted(asym, 0, mode=mode, method=method)
    assert full.strategy == [4, 0]


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_optimal_action_set_matches_loop_over_q(mode):
    """The array compare keeps the allowed (s, a) that the per-pair
    definition keeps, on an unrestricted and on a restricted level."""

    def loop(res, allowed):
        def keep(q, v):
            return q == v if mode.is_exact else q >= v - 1e-9

        return [[a for a in acts if keep(res.q.value(s, a), res.values[s])]
                for s, acts in enumerate(allowed)]

    for seed in range(20):
        asym = random_mdp(RandomMdpConfig(num_states=6, actions_per_state=3, seed=seed))
        top = solve_discounted(asym, 0, mode=mode)
        sets = optimal_action_set(asym, top.q, top.values, mode=mode)
        assert sets == loop(top, [range(3)] * 6)
        low = solve_discounted(asym, 1, mode=mode, restriction=sets)
        assert optimal_action_set(asym, low.q, low.values, mode=mode) == loop(low, sets)
        assert all(a in sets[s] for s, a in enumerate(low.strategy))


@pytest.mark.parametrize("mode, method", SOLVERS)
def test_ties_ignore_restriction_list_order(mode, method):
    res = solve_discounted(
        _tie_model(), 0, mode=mode, method=method, restriction=[[3, 2, 1, 0], [2, 1]]
    )
    assert res.strategy == [1, 1]


@pytest.mark.parametrize("mode, method", SOLVERS)
def test_edited_optimal_sets_are_honoured(investment, mode, method):
    top = solve_discounted(investment, 0, mode=mode)
    sets = optimal_action_set(investment, top.q, top.values, mode=mode)
    assert sets == [[1], [0]]
    sets[0].remove(1)
    with pytest.raises(ValueError, match="state 's0'"):
        solve_discounted(investment, 1, mode=mode, method=method, restriction=sets)
    sets[0].append(0)  # s0 may now play only a
    res = solve_discounted(investment, 1, mode=mode, method=method, restriction=sets)
    assert res.strategy == [0, 0]
    with pytest.raises(KeyError):
        res.q.value(0, 1)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_one_assembly_per_policy_iteration_step(count_calls, mode):
    asym = random_mdp(RandomMdpConfig(num_states=6, actions_per_state=3, seed=2))
    assembled = count_calls("_entries", mdpwf.linalg, mdpwf.solve)
    solver = "policy_values_exact" if mode.is_exact else "policy_values_float"
    steps = count_calls(solver, mdpwf.solve)
    solve_discounted(asym, 0, mode=mode)
    assert len(steps) > 1  # the first policy is improved at least once
    assert len(assembled) == len(steps)
