from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpwf import (
    EXACT,
    FLOAT,
    AsymMdp,
    CountingStrategy,
    DisabledActionError,
    MixedStationaryStrategy,
    RandomMdpConfig,
    badly_spaced,
    builtin,
    eval_counting,
    eval_positional,
    eval_stationary_mixed,
    merge_equal_discounts,
    optimize,
    random_mdp,
)
import mdpwf.evaluate
import mdpwf.linalg
from mdpwf.evaluate import counting_value_from
from mdpwf.linalg import _entries, topo_order


def hotel_payoff(lam: Fraction, k: int) -> Fraction:
    """Closed form for waiting k steps before the one-off investment:
    (3 - 4 lam^k + 7 lam^(k+1)) / (1 - lam)."""
    return (3 - 4 * lam**k + 7 * lam ** (k + 1)) / (1 - lam)


def _at(res, s):
    """Per-principal payoffs and social welfare from state s."""
    return [v[s] for v in res.per_principal], res.social_welfare[s]


def test_positional_invest_everywhere(investment):
    res = eval_positional(investment, [1, 0], EXACT)
    assert _at(res, 0) == ([Fraction(11), Fraction(2)], Fraction(13))


def test_positional_never_invest(investment):
    res = eval_positional(investment, [0, 0], EXACT)
    assert _at(res, 0) == ([Fraction(9), Fraction(9, 2)], Fraction(27, 2))


def test_all_zero_rewards():
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(2, 3)), ("B", Fraction(1, 3))],
        actions=[
            ("s0", "a", [("s1", 1)], None),
            ("s1", "b", [("s0", 1)], None),
        ],
    )
    res = eval_positional(asym, [0, 0], EXACT)
    assert res.social_welfare == [0, 0]


def test_positional_disabled_action(investment):
    with pytest.raises(DisabledActionError):
        eval_positional(investment, [0, 5], EXACT)


def test_mixed_three_quarters(investment):
    mix = MixedStationaryStrategy([[Fraction(3, 4), Fraction(1, 4)], [Fraction(1)]])
    res = eval_stationary_mixed(investment, mix, EXACT)
    assert _at(res, 0) == ([Fraction(10), Fraction(11, 3)], Fraction(41, 3))


def test_mixed_one_quarter(investment):
    mix = MixedStationaryStrategy([[Fraction(1, 4), Fraction(3, 4)], [Fraction(1)]])
    res = eval_stationary_mixed(investment, mix, EXACT)
    assert _at(res, 0) == ([Fraction(54, 5), Fraction(27, 11)], Fraction(729, 55))


def test_mixed_point_equals_positional(investment):
    point = MixedStationaryStrategy([[Fraction(0), Fraction(1)], [Fraction(1)]])
    assert (
        eval_stationary_mixed(investment, point, EXACT).social_welfare
        == eval_positional(investment, [1, 0], EXACT).social_welfare
    )
    # a point mass weights each played probability by exactly 1.0
    assert (
        eval_stationary_mixed(investment, point, FLOAT).social_welfare
        == eval_positional(investment, [1, 0], FLOAT).social_welfare
    )


@pytest.mark.parametrize("seed", range(5))
def test_mixed_float_agrees_with_exact_on_cyclic_chains(seed):
    asym = random_mdp(
        RandomMdpConfig(num_states=6, actions_per_state=3, num_principals=3, seed=seed)
    )
    rng = np.random.default_rng(seed)
    probs = []
    for acts in asym.mdp.actions:
        w = rng.integers(0, 4, size=len(acts)).tolist()
        w[rng.integers(len(acts))] += 1  # at least one played action
        probs.append([Fraction(x, sum(w)) for x in w])
    mix = MixedStationaryStrategy(probs)
    # the averaged chain has a cycle through two or more states
    view = asym.float_view(EXACT)
    rows = np.flatnonzero([p for dist in probs for p in dist])
    src, dst, _ = _entries(view, rows)
    assert topo_order(asym.n_states, src, dst) is None
    exact = eval_stationary_mixed(asym, mix, EXACT)
    approx = eval_stationary_mixed(asym, mix, FLOAT)
    for v_exact, v_float in zip(exact.per_principal, approx.per_principal):
        assert list(v_float) == pytest.approx([float(x) for x in v_exact], rel=1e-12, abs=0)


def test_mixed_degenerate_on_a(investment):
    mix = MixedStationaryStrategy([[Fraction(1), Fraction(0)], [Fraction(1)]])
    res = eval_stationary_mixed(investment, mix, EXACT)
    assert _at(res, 0) == ([Fraction(9), Fraction(9, 2)], Fraction(27, 2))


def test_mixed_invalid_distribution(investment):
    mix = MixedStationaryStrategy([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1)]])
    with pytest.raises(DisabledActionError):
        eval_stationary_mixed(investment, mix, EXACT)


@pytest.mark.parametrize(
    "kappa, prefix, message",  # each prefix given as its runs
    [
        (2, [(1, [0, 0]), (1, [0, 5])], "state 's1' has no action index 5"),
        (2, [(1, [0, 0]), (1, [-1, 7])], "state 's0' has no action index -1"),
        (2, [(1, [0, 0]), (1, [0])], "strategy length does not match state count"),
        (3, [(1, [0, 0])], "prefix depth does not match kappa"),
        # the invalid row follows a run of valid ones
        (4, [(3, [0, 0]), (1, [0, 3])], "state 's1' has no action index 3"),
        (1, [(2, [0, 0])], "prefix depth does not match kappa"),
        (2, [(2, [0, 0]), (0, [1, 0])], "prefix runs must be positive"),
        (2, [(3, [0, 0]), (-1, [1, 0])], "prefix runs must be positive"),
    ],
)
@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_counting_rejects_first_invalid_entry(investment, kappa, prefix, message, mode):
    cs = CountingStrategy(kappa=kappa, runs=prefix, tail=[1, 0])
    with pytest.raises(DisabledActionError, match=message):
        eval_counting(investment, cs, mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_positional_sums_repeated_self_loops(doubled_self_loop, mode):
    res = eval_positional(doubled_self_loop, [0, 0], mode)
    assert res.per_principal[0][0] == pytest.approx(Fraction(4, 3), rel=1e-15, abs=0)
    if mode.is_exact:
        assert res.per_principal[0][0] == Fraction(4, 3)
    # a cyclic policy, solved without back-substitution: s0 -a-> {s1: 1/4,
    # s1: 1/4, s0: 1/2} with reward 1, s1 -a-> s0 with reward 0, lam 1/2, so
    # v(s0) = 1 + v(s1) / 4 + v(s0) / 4 with v(s1) = v(s0) / 2, or 8/5;
    # keeping only the last s1 entry would give 16/11
    cyclic = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s1", Fraction(1, 4)), ("s1", Fraction(1, 4)), ("s0", Fraction(1, 2))], 1),
            ("s1", "a", [("s0", 1)], 0),
        ],
    )
    res = eval_positional(cyclic, [0, 0], mode)
    assert res.per_principal[0][0] == pytest.approx(Fraction(8, 5), rel=1e-15, abs=0)
    if mode.is_exact:
        assert res.per_principal[0][0] == Fraction(8, 5)


def test_counting_two_step_wait(investment):
    cs = CountingStrategy.from_rows([[0, 0], [0, 0]], [1, 0])
    res = eval_counting(investment, cs, EXACT)
    assert _at(res, 0) == ([Fraction(89, 9), Fraction(38, 9)], Fraction(127, 9))


def test_counting_kappa_zero_is_positional(investment):
    cs = CountingStrategy.from_rows([], [1, 0])
    assert (
        eval_counting(investment, cs, EXACT).social_welfare
        == eval_positional(investment, [1, 0], EXACT).social_welfare
    )


def test_counting_one_step_wait(investment):
    cs = CountingStrategy.from_rows([[0, 0]], [1, 0])
    res = eval_counting(investment, cs, EXACT)
    assert _at(res, 0) == ([Fraction(31, 3), Fraction(11, 3)], Fraction(14))


@pytest.mark.parametrize("k", range(6))
def test_closed_form_family(investment, k):
    cs = CountingStrategy.from_rows([[0, 0]] * k, [1, 0])
    res = eval_counting(investment, cs, EXACT)
    payoffs, _ = _at(res, 0)
    assert payoffs[0] == hotel_payoff(Fraction(2, 3), k)
    assert payoffs[1] == hotel_payoff(Fraction(1, 3), k)


def _scale_principal(asym, principal, c):
    rewards = [
        [
            [r * c if i == principal else r for i, r in enumerate(per_a)]
            for per_a in per_s
        ]
        for per_s in asym.rewards
    ]
    return AsymMdp(mdp=asym.mdp, principals=asym.principals, rewards=rewards)


def test_linearity_in_rewards(investment):
    scaled = _scale_principal(investment, 0, Fraction(7, 3))
    base = eval_positional(investment, [1, 0], EXACT)
    res = eval_positional(scaled, [1, 0], EXACT)
    assert res.per_principal[0] == [v * Fraction(7, 3) for v in base.per_principal[0]]
    assert res.per_principal[1] == base.per_principal[1]


def test_merge_invariance_counting(twins):
    merged = merge_equal_discounts(twins)
    cs = CountingStrategy.from_rows([[0, 0], [1, 0]], [0, 0])
    assert (
        eval_counting(twins, cs, EXACT).social_welfare
        == eval_counting(merged, cs, EXACT).social_welfare
    )


def value_iteration_fixed_policy(asym, sigma, principal, sweeps):
    """Iterative evaluation of a fixed policy (test oracle)."""
    view = asym.float_view()
    lam = float(view.discounts[principal])
    rows = view.row_ptr[:-1] + np.asarray(sigma, dtype=np.int64)
    v = np.zeros(view.n_states)
    for _ in range(sweeps):
        nv = np.empty_like(v)
        for s in range(view.n_states):
            row = rows[s]
            lo, hi = view.succ_ptr[row], view.succ_ptr[row + 1]
            nv[s] = view.rewards[row, principal] + lam * float(
                np.dot(view.succ_prob[lo:hi], v[view.succ_idx[lo:hi]])
            )
        v = nv
    return v


def test_positional_matches_fixed_policy_iteration():
    for seed in range(100):
        cfg = RandomMdpConfig(
            num_states=4,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 10)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        sigma = [seed % 2, (seed // 2) % 2, 0, 1]
        res = eval_positional(asym, sigma, FLOAT)
        limit = value_iteration_fixed_policy(asym, sigma, 0, sweeps=400)
        assert float(np.max(np.abs(limit - np.asarray(res.per_principal[0])))) < 1e-6


def test_forward_propagation_matches_backward():
    for seed in range(20):
        cfg = RandomMdpConfig(
            num_states=4,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(4, 5), Fraction(1, 5)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        cs = CountingStrategy.from_rows(
            [[seed % 2, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]],
            [0, 0, 1, 1],
        )
        res = eval_counting(asym, cs, FLOAT)
        for start in range(4):
            tail = eval_positional(asym, cs.tail, FLOAT)
            [payoffs], [sw] = counting_value_from(asym, [cs.prefix], tail, start, FLOAT)
            assert abs(sw - res.social_welfare[start]) < 1e-10
            for i in range(2):
                assert abs(payoffs[i] - res.per_principal[i][start]) < 1e-10


def test_forward_block_columns_match_single_columns():
    # a block of tables sharing one tail scores each table as it would alone
    asym = random_mdp(RandomMdpConfig(num_states=5, actions_per_state=3, seed=3))
    rng = np.random.default_rng(0)
    prefixes = rng.integers(0, 3, size=(7, 4, 5))
    for mode in (FLOAT, EXACT):
        tail = eval_positional(asym, [2, 0, 1, 1, 0], mode)
        payoffs, sw = counting_value_from(asym, prefixes, tail, 0, mode)
        for k, prefix in enumerate(prefixes):
            [one_payoffs], [one_sw] = counting_value_from(asym, [prefix], tail, 0, mode)
            assert sw[k] == one_sw and type(sw[k]) is type(one_sw)
            assert payoffs[k].tolist() == one_payoffs.tolist()


def _assert_float_matches_exact(asym, cs):
    got = eval_counting(asym, cs, FLOAT)
    want = eval_counting(asym, cs, EXACT)
    for f, e in zip(got.per_principal, want.per_principal):
        assert f == pytest.approx([float(x) for x in e], rel=1e-9)


@pytest.mark.parametrize(
    "asym",
    [
        random_mdp(RandomMdpConfig(num_states=30, num_principals=20, seed=0)),
        badly_spaced(10),
    ],
    ids=["random-30x20", "badly_spaced-10"],
)
def test_float_counting_matches_exact_on_optimum(asym):
    cs = optimize(asym, mode=FLOAT).strategy
    assert cs.kappa > 0  # 23 and 761: the prefix recursion runs
    _assert_float_matches_exact(asym, cs)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_counting_matches_exact_property(data):
    asym = random_mdp(
        RandomMdpConfig(
            num_states=data.draw(st.integers(1, 4), label="states"),
            actions_per_state=data.draw(st.integers(1, 3), label="actions"),
            num_principals=data.draw(st.integers(1, 3), label="principals"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
    )
    positional = st.tuples(
        *(st.integers(0, len(acts) - 1) for acts in asym.mdp.actions)
    ).map(list)
    prefix = data.draw(st.lists(positional, max_size=6), label="prefix")
    tail = data.draw(positional, label="tail")
    _assert_float_matches_exact(asym, CountingStrategy.from_rows(prefix, tail))


def _stepwise_counting(asym, cs, mode):
    """Reference for `eval_counting`: one Bellman step per prefix row, in
    plain Python over the model's transitions, on top of the tail's values."""
    num = (lambda x: x) if mode.is_exact else float
    u = [list(v) for v in eval_positional(asym, cs.tail, mode).per_principal]
    for row in reversed(cs.prefix):
        u = [
            [
                num(asym.rewards[s][a][i])
                + num(lam) * sum(num(p) * u[i][t] for t, p in asym.mdp.transitions[s][a])
                for s, a in enumerate(row)
            ]
            for i, lam in enumerate(asym.discounts)
        ]
    return u


# (model, runs of (length, row)): runs of length 1 between runs long enough
# that `eval_counting` takes them in closed form (`power_pays`)
RUN_CASES = [
    ("investment", [(1, [0, 0]), (300, [1, 0]), (1, [0, 0]), (1, [1, 0]), (257, [0, 0])]),
    ("badly_spaced-10", [(600, [0, 1, 0]), (1, [0, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 0])]),
    ("appendix_ex2", [(1, [1, 1, 0, 0]), (400, [0, 0, 0, 0]), (1, [1, 0, 0, 0]), (500, [1, 1, 0, 0])]),
    ("three-principal", [(1, [1, 0, 0]), (400, [0, 1, 0]), (1, [1, 1, 0]), (700, [0, 0, 0])]),
    ("three-principal", []),
    # s0's action a lists its self loop twice: the shared power must sum both
    ("doubled-self-loop", [(1, [1, 0]), (300, [0, 0]), (1, [1, 0])]),
]
RUN_MODELS = {
    "investment": lambda: builtin("investment"),
    "badly_spaced-10": lambda: badly_spaced(10),
    "appendix_ex2": lambda: builtin("appendix_ex2"),
    "three-principal": lambda: AsymMdp.build(
        states=["s0", "s1", "s2"],
        principals=[("A", Fraction(9, 10)), ("B", Fraction(1, 2)), ("C", Fraction(1, 5))],
        actions=[
            ("s0", "a", [("s0", Fraction(1, 2)), ("s1", Fraction(1, 2))], [1, 0, 2]),
            ("s0", "b", [("s2", 1)], [0, 3, -1]),
            ("s1", "a", [("s0", Fraction(1, 3)), ("s2", Fraction(2, 3))], [2, 1, 0]),
            ("s1", "b", [("s1", 1)], [-1, 2, 1]),
            ("s2", "a", [("s2", 1)], [0, 0, 1]),
        ],
    ),
    "doubled-self-loop": lambda: AsymMdp.build(  # the `doubled_self_loop` fixture
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s0", Fraction(1, 4)), ("s0", Fraction(1, 4)), ("s1", Fraction(1, 2))], 1),
            ("s0", "c", [("s1", 1)], 1),
            ("s1", "b", [("s1", 1)], 0),
        ],
    ),
}


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("name,runs", RUN_CASES)
def test_counting_by_runs_matches_stepwise(name, runs, mode):
    asym = RUN_MODELS[name]()
    cs = CountingStrategy(sum(length for length, _ in runs), runs, [0] * asym.n_states)
    got = eval_counting(asym, cs, mode).per_principal
    want = _stepwise_counting(asym, cs, mode)
    if mode.is_exact:
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("kind", ["positional", "mixed"])
def test_one_assembly_per_strategy(count_calls, mode, kind):
    asym = random_mdp(RandomMdpConfig(num_states=5, num_principals=3, seed=4))
    assembled = count_calls("_entries", mdpwf.linalg, mdpwf.evaluate)
    if kind == "positional":
        res = eval_positional(asym, [1, 0, 1, 0, 1], mode)
    else:
        probs = [[Fraction(1, len(acts))] * len(acts) for acts in asym.mdp.actions]
        res = eval_stationary_mixed(asym, MixedStationaryStrategy(probs), mode)
    assert len(res.per_principal) == 3
    assert len(assembled) == 1


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("kind", ["positional", "mixed", "counting"])
def test_one_solve_for_all_principals(count_calls, mode, kind):
    # the wrapper sees the calls only if evaluate looks its solver up when
    # it is called, as a tracer wrapping the module attribute needs
    asym = random_mdp(RandomMdpConfig(num_states=5, num_principals=3, seed=4))
    solver = "policy_values_exact" if mode.is_exact else "policy_values_float"
    solves = count_calls(solver, mdpwf.evaluate)
    if kind == "positional":
        res = eval_positional(asym, [1, 0, 1, 0, 1], mode)
    elif kind == "mixed":
        probs = [[Fraction(1, len(acts))] * len(acts) for acts in asym.mdp.actions]
        res = eval_stationary_mixed(asym, MixedStationaryStrategy(probs), mode)
    else:
        cs = CountingStrategy.from_rows([[0] * 5, [1] * 5], [1, 0, 1, 0, 1])
        res = eval_counting(asym, cs, mode)
    assert len(res.per_principal) == 3
    assert len(solves) == 1
