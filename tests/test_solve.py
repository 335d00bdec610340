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


def _q(asym, res, s, a):
    """q(s, a) of a solve result: state s's local action a is row row_ptr[s] + a."""
    return res.q.q.item(asym.float_view(FLOAT).row_ptr[s] + a)


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
    assert _q(investment, res, 0, 0) == Fraction(31, 3)  # 3 + (2/3) * 11
    assert _q(investment, res, 0, 1) == Fraction(11)
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


def test_empty_restriction_rejected(investment):
    with pytest.raises(ValueError):
        solve_discounted(investment, 0, restriction=[[], [0]])


def test_exact_bellman_residual_zero(investment):
    res = solve_discounted(investment, 0, mode=EXACT)
    for s in range(investment.n_states):
        best = max(
            _q(investment, res, s, a) for a in range(len(investment.mdp.actions[s]))
        )
        assert best == res.values[s]


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_values_satisfy_bellman_optimality_on_seeded_instances(mode):
    """v = max_a [r + lam P v] has one solution, the optimal values; the
    right side is formed here from the model's own transitions and rewards,
    not from the solver's view or q-table."""
    for seed in range(100):
        cfg = RandomMdpConfig(
            num_states=3 + seed % 8,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 10)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        for i, lam in enumerate(asym.discounts):
            v = solve_discounted(asym, i, mode=mode).values
            if not mode.is_exact:
                lam, v = float(lam), v.tolist()
            for s, moves in enumerate(asym.mdp.transitions):
                best = max(
                    asym.rewards[s][a][i] + lam * sum(p * v[t] for t, p in succ)
                    for a, succ in enumerate(moves)
                )
                if mode.is_exact:
                    assert best == v[s]
                else:
                    assert abs(float(best) - v[s]) <= 1e-9 * max(1.0, abs(v[s]))


@pytest.mark.parametrize("restricted", [False, True], ids=["all", "restricted"])
@pytest.mark.parametrize("num_states", [300, 600])
def test_values_satisfy_bellman_optimality_above_the_dense_limit(num_states, restricted):
    """As above, on models large enough that float policy iteration starts
    from Bellman sweeps; the restricted case keeps action 0 alone in every
    third state."""
    assert num_states > mdpwf.linalg._DENSE_LIMIT
    asym = random_mdp(
        RandomMdpConfig(
            num_states=num_states, discounts=[Fraction(99, 100), Fraction(3, 10)], seed=num_states
        )
    )
    allowed = [[0] if restricted and s % 3 == 0 else [0, 1] for s in range(num_states)]
    for i, lam in enumerate(asym.discounts):
        v = solve_discounted(asym, i, FLOAT, restriction=allowed).values.tolist()
        for s, moves in enumerate(asym.mdp.transitions):
            best = max(
                float(asym.rewards[s][a][i])
                + float(lam) * sum(float(p) * v[t] for t, p in moves[a])
                for a in allowed[s]
            )
            assert abs(best - v[s]) <= 1e-9 * max(1.0, abs(v[s]))


def test_warm_start_cuts_level_zero_solves(count_calls):
    # from the lowest-index rows, policy iteration takes 7 solves here
    asym = random_mdp(
        RandomMdpConfig(num_states=500, discounts=[Fraction(9, 10), Fraction(3, 10)], seed=0)
    )
    solves = count_calls("policy_values_float", mdpwf.solve)
    solve_discounted(asym, 0, FLOAT)
    assert 1 <= len(solves) <= 3


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
        res = solve_discounted(asym, 0, mode=FLOAT)
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
    pytest.param(EXACT, id="pi-exact"),
    pytest.param(FLOAT, id="pi-float"),
]


@pytest.mark.parametrize("mode", SOLVERS)
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
def test_bad_restriction_rejected(investment, restriction, message, mode):
    with pytest.raises(ValueError, match=message):
        solve_discounted(investment, 0, mode=mode, restriction=restriction)


def test_q_value_outside_restriction_raises(investment):
    res = solve_discounted(investment, 1, mode=EXACT, restriction=[[1], [0]])
    assert _q(investment, res, 0, 1) == Fraction(-1) + Fraction(1, 3) * 9
    assert res.q.allowed.tolist() == [False, True, True]  # rows (s0, a), (s0, b), (s1, b)


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


@pytest.mark.parametrize("mode", SOLVERS)
def test_strategy_takes_lowest_allowed_index_among_ties(mode):
    asym = _tie_model()
    res = solve_discounted(asym, 0, mode=mode, restriction=[[0, 1, 2, 3], [1, 2]])
    assert res.strategy == [1, 1]
    assert _q(asym, res, 0, 1) == _q(asym, res, 0, 3)
    assert float(res.values[0]) == pytest.approx(6)
    full = solve_discounted(asym, 0, mode=mode)
    assert full.strategy == [4, 0]


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_optimal_action_set_matches_loop_over_q(mode):
    """The array compare keeps the allowed (s, a) that the per-pair
    definition keeps, on an unrestricted and on a restricted level."""

    def loop(res, allowed):
        def keep(q, v):
            return q == v if mode.is_exact else q >= v - 1e-9

        return [[a for a in acts if keep(_q(asym, res, s, a), res.values[s])]
                for s, acts in enumerate(allowed)]

    for seed in range(20):
        asym = random_mdp(RandomMdpConfig(num_states=6, actions_per_state=3, seed=seed))
        top = solve_discounted(asym, 0, mode=mode)
        sets = optimal_action_set(asym, top.q, top.values, mode=mode)
        assert sets == loop(top, [range(3)] * 6)
        low = solve_discounted(asym, 1, mode=mode, restriction=sets)
        assert optimal_action_set(asym, low.q, low.values, mode=mode) == loop(low, sets)
        assert all(a in sets[s] for s, a in enumerate(low.strategy))


@pytest.mark.parametrize("mode", SOLVERS)
def test_ties_ignore_restriction_list_order(mode):
    res = solve_discounted(
        _tie_model(), 0, mode=mode, restriction=[[3, 2, 1, 0], [2, 1]]
    )
    assert res.strategy == [1, 1]


@pytest.mark.parametrize("mode", SOLVERS)
def test_edited_optimal_sets_are_honoured(investment, mode):
    top = solve_discounted(investment, 0, mode=mode)
    sets = optimal_action_set(investment, top.q, top.values, mode=mode)
    assert sets == [[1], [0]]
    sets[0].remove(1)
    with pytest.raises(ValueError, match="state 's0'"):
        solve_discounted(investment, 1, mode=mode, restriction=sets)
    sets[0].append(0)  # s0 may now play only a
    res = solve_discounted(investment, 1, mode=mode, restriction=sets)
    assert res.strategy == [0, 0]
    assert res.q.allowed.tolist() == [True, False, True]


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_one_assembly_per_policy_iteration_step(count_calls, mode):
    asym = random_mdp(RandomMdpConfig(num_states=6, actions_per_state=3, seed=2))
    assembled = count_calls("_entries", mdpwf.linalg, mdpwf.solve)
    solver = "policy_values_exact" if mode.is_exact else "policy_values_float"
    steps = count_calls(solver, mdpwf.solve)
    solve_discounted(asym, 0, mode=mode)
    assert len(steps) > 1  # the first policy is improved at least once
    assert len(assembled) == len(steps)


@pytest.mark.parametrize("principal", [-1, -2, 2])
def test_principal_out_of_range(investment, principal):
    # -1 used to slice an empty reward column, -2 to solve principal 0
    with pytest.raises(ValueError, match=rf"principal index {principal} out of range \(model has 2\)"):
        solve_discounted(investment, principal)
