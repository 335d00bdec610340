import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpwf import (
    EXACT,
    FLOAT,
    AsymMdp,
    CertificationError,
    ConvergenceError,
    HorizonExceededError,
    RandomMdpConfig,
    advantages,
    badly_spaced,
    builtin,
    enumerate_positional,
    eval_positional,
    find_kappa,
    kappa_estimate,
    long_term,
    optimize,
    random_mdp,
    solve_discounted,
)


def _names(asym, sigma):
    return [asym.mdp.actions[s][a] for s, a in enumerate(sigma)]


def test_long_term_investment(investment):
    lt = long_term(investment, EXACT)
    assert _names(investment, lt.tail) == ["b", "b"]
    assert lt.restricted == [[1], [0]]
    assert lt.values[0].values == [Fraction(11), Fraction(18)]
    assert lt.values[1].values == [Fraction(2), Fraction(9)]


def test_long_term_single_principal(investment):
    solo = AsymMdp(
        mdp=investment.mdp,
        principals=investment.principals[:1],
        rewards=[[r[:1] for r in per_s] for per_s in investment.rewards],
    )
    lt = long_term(solo, EXACT)
    direct = solve_discounted(solo, 0, mode=EXACT)
    assert lt.values[0].values == direct.values.values
    assert lt.tail == direct.strategy


def test_advantages_investment(investment):
    lt = long_term(investment, EXACT)
    adv = advantages(investment, lt, EXACT)
    assert adv.delta0[(0, 0)] == [Fraction(-2, 3), Fraction(5, 3)]
    assert adv.delta0[(0, 1)] == [Fraction(0), Fraction(0)]
    assert adv.delta0[(1, 0)] == [Fraction(0), Fraction(0)]
    assert adv.minimal_nonzero[(0, 0)] == 0
    assert adv.retained == {(0, 1), (1, 0)}


def test_advantage_sign_pattern_on_deviating_example(ex4):
    lt = long_term(ex4, EXACT)
    adv = advantages(ex4, lt, EXACT)
    row = adv.delta0[(0, 0)]  # action a at s0
    assert row[0] < 0 < row[1]


def test_certification_rejects_tampered_values(investment):
    lt = long_term(investment, EXACT)
    lt.values[0].values[0] += 1
    with pytest.raises(CertificationError):
        advantages(investment, lt, EXACT)


def test_find_kappa_investment(investment):
    lt = long_term(investment, EXACT)
    adv = advantages(investment, lt, EXACT)
    lam0, lam1 = investment.discounts
    d = adv.delta0[(0, 0)]
    # the aggregate advantage stays positive through depth 1 and flips at 2
    assert d[0] + d[1] == Fraction(1)
    assert lam0 * d[0] + lam1 * d[1] == Fraction(1, 9)
    assert lam0**2 * d[0] + lam1**2 * d[1] == Fraction(-1, 9)
    assert find_kappa(investment, adv, mode=EXACT) == 2


@pytest.mark.parametrize(
    "name,expected",
    [("appendix_ex2", 2), ("appendix_ex3", 1), ("appendix_ex4", 1)],
)
def test_find_kappa_worked_examples(name, expected):
    # depths hand-checked by evaluating every advantage prefix sum
    from mdpwf import builtin

    asym = builtin(name)
    lt = long_term(asym, EXACT)
    adv = advantages(asym, lt, EXACT)
    assert find_kappa(asym, adv, mode=EXACT) == expected


def test_find_kappa_badly_spaced_family():
    b10 = badly_spaced(10)
    lt = long_term(b10, FLOAT)
    adv = advantages(b10, lt, FLOAT)
    assert find_kappa(b10, adv, mode=FLOAT) == 761
    # exact arithmetic lands on the same crossing
    lt_e = long_term(b10, EXACT)
    adv_e = advantages(b10, lt_e, EXACT)
    assert find_kappa(b10, adv_e, mode=EXACT) == 761


def test_find_kappa_horizon_cap():
    b10 = badly_spaced(10)
    lt = long_term(b10, FLOAT)
    adv = advantages(b10, lt, FLOAT)
    with pytest.raises(HorizonExceededError):
        find_kappa(b10, adv, max_kappa=10, mode=FLOAT)


def _linear_kappa(asym, adv, mode):
    """Reference for `find_kappa`: the forward scan over every depth, with
    the rescaled rows updated as u <- u * rho one depth at a time.  Float
    mode runs one multiply-accumulate over a block of at most 4,096 depths
    and 2**18 numbers, in the same order of multiplications; exact mode, whose
    numbers grow with the depth, goes one depth per pass."""
    slack = mode.default_slack if mode.is_exact else float(mode.default_slack)
    rows = np.flatnonzero(adv.lead >= 0)
    lams = asym.discounts
    u = adv.delta[rows]
    block = 1 if mode.is_exact else min(4096, max(1, 2**18 // max(1, u.size)))
    ratios = np.array(
        [[lam / lams[i] for lam in lams] for i in adv.lead[rows].tolist()], dtype=mode.dtype
    ).reshape(u.shape)
    seq = np.empty((block, *u.shape), dtype=mode.dtype)
    seq[1:] = ratios
    depth = 0
    while True:
        seq[0] = u
        path = np.multiply.accumulate(seq, axis=0)  # depths depth .. depth + block - 1
        ok = (path.cumsum(axis=2) <= slack).all(axis=(1, 2))
        if ok.any():
            return depth + int(ok.argmax())
        u = path[-1] * ratios
        depth += block


def _assert_kappa_matches_linear_scan(asym, mode):
    adv = advantages(asym, long_term(asym, mode), mode)
    assert find_kappa(asym, adv, mode=mode) == _linear_kappa(asym, adv, mode)


def test_find_kappa_matches_linear_scan_badly_spaced():
    for n in range(2, 101):
        _assert_kappa_matches_linear_scan(badly_spaced(n), FLOAT)
    for n in range(2, 12):
        _assert_kappa_matches_linear_scan(badly_spaced(n), EXACT)


# (states, principals, seeds, modes) of random models
KAPPA_POOLS = [
    (8, 3, range(40), (EXACT, FLOAT)),
    (5, 4, range(40), (EXACT, FLOAT)),
    (6, 3, range(40), (EXACT, FLOAT)),
    (30, 20, range(5), (FLOAT,)),
    (30, 100, range(5), (FLOAT,)),
]


@pytest.mark.parametrize("states,principals,seeds,modes", KAPPA_POOLS)
def test_find_kappa_matches_linear_scan_random(states, principals, seeds, modes):
    for seed in seeds:
        asym = random_mdp(
            RandomMdpConfig(num_states=states, num_principals=principals, seed=seed)
        )
        for mode in modes:
            _assert_kappa_matches_linear_scan(asym, mode)


def test_kappa_estimate_investment(investment):
    lt = long_term(investment, EXACT)
    adv = advantages(investment, lt, EXACT)
    est = kappa_estimate(investment, adv, EXACT)
    entry = est.per_action[(0, 0)]
    assert entry.minimal_index == 0
    assert entry.kappa_prime == Fraction(5, 2)
    assert entry.kappa == 2  # ceil(log2 2.5)
    assert est.per_action[(0, 1)].kappa == 0
    assert est.bound == 2


def test_kappa_estimate_bounds_adaptive():
    for seed in range(40):
        cfg = RandomMdpConfig(
            num_states=4,
            actions_per_state=2,
            num_principals=3,
            discounts=[Fraction(9, 10), Fraction(1, 2), Fraction(1, 5)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        lt = long_term(asym, FLOAT)
        adv = advantages(asym, lt, FLOAT)
        assert kappa_estimate(asym, adv, FLOAT).bound >= find_kappa(asym, adv, mode=FLOAT)


MODES = pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])

# (model, principal, state, shift of that value, message per mode): the
# first failing row in row order is named, whichever check it fails
TAMPERED = [
    # retained (s0, b) fails before the removed (s1, a), which also leads positive
    ("appendix_ex2", 0, 3, 5, {
        "exact": "retained action ('s0', 'b') has nonzero advantage for principal 0: 9/5",
        "float": "retained action ('s0', 'b') has nonzero advantage for principal 0: "
        "1.7999999999999972",
    }),
    # removed (s0, a) leads positive before the retained (s0, b) fails
    ("investment", 0, 0, -3, {
        "exact": "removed action ('s0', 'a') has positive leading advantage 1/3 for principal 0",
        "float": "removed action ('s0', 'a') has positive leading advantage "
        "0.3333333333333339 for principal 0",
    }),
    # principal 0's entry of (s0, a) becomes zero, so principal 1 leads
    ("investment", 0, 0, -2, {
        "exact": "removed action ('s0', 'a') has positive leading advantage 5/3 for principal 1",
        "float": "removed action ('s0', 'a') has positive leading advantage "
        "1.6666666666666672 for principal 1",
    }),
]


@MODES
@pytest.mark.parametrize("name,principal,state,shift,messages", TAMPERED)
def test_certification_error_names_first_failing_row(mode, name, principal, state, shift, messages):
    asym = builtin(name)
    lt = long_term(asym, mode)
    lt.values[principal].values[state] += shift
    with pytest.raises(CertificationError) as err:
        advantages(asym, lt, mode)
    assert str(err.value) == messages[mode.kind]


@MODES
def test_horizon_cap_names_worst_pair(mode):
    # at depth 1 four rows still have a positive rescaled prefix sum; the
    # largest, about 4.94, belongs to (s3, b), the last of them in row order
    asym = random_mdp(
        RandomMdpConfig(num_states=4, actions_per_state=3, num_principals=3, seed=10)
    )
    lt = long_term(asym, mode)
    adv = advantages(asym, lt, mode)
    with pytest.raises(HorizonExceededError) as err:
        find_kappa(asym, adv, max_kappa=1, mode=mode)
    assert err.value.worst_pair == ("s3", "b")


@MODES
def test_advantage_views_hold_python_numbers(investment, mode):
    # np.float64 subclasses float and 0 == Fraction(0), so compare types
    number = Fraction if mode.is_exact else float
    res = optimize(investment, mode=mode)
    adv = res.advantage
    assert all(type(d) is number for row in adv.delta0.values() for d in row)
    assert all(type(i) is int for i in adv.minimal_nonzero.values() if i is not None)
    entry = res.kappa_bound.per_action[(0, 0)]
    assert type(entry.kappa_prime) is number
    assert type(entry.kappa) is int and type(entry.minimal_index) is int
    with pytest.raises(dataclasses.FrozenInstanceError):
        adv.delta0 = {}
    # with one principal kappa is 0 and the gain is the mode's zero
    solo = AsymMdp(
        mdp=investment.mdp,
        principals=investment.principals[:1],
        rewards=[[r[:1] for r in per_s] for per_s in investment.rewards],
    )
    res = optimize(solo, mode=mode)
    assert res.kappa == 0
    for rep in res.reports.values():
        assert type(rep.deviation_gain) is number and rep.deviation_gain == 0


def test_optimize_investment_exact(investment):
    res = optimize(investment, mode=EXACT)
    assert res.kappa == 2
    assert [_names(investment, row)[0] for row in res.strategy.prefix] == ["a", "a"]
    assert _names(investment, res.strategy.tail) == ["b", "b"]
    rep = res.reports["s0"]
    assert rep.social_welfare == Fraction(127, 9)
    assert rep.baseline == Fraction(13)
    assert rep.deviation_gain == Fraction(10, 9)
    assert rep.per_principal == [Fraction(89, 9), Fraction(38, 9)]


def test_optimize_six_state_example(ex3):
    res = optimize(ex3, mode=EXACT)
    assert res.kappa == 1
    assert _names(ex3, res.strategy.tail) == ["b", "d", "f", "g", "h", "k"]
    rep = res.reports["s0"]
    # V0(s0) = 0.99^2 * (5 + 0.99 * 1100), V1(s0) = 23/45000, no deviation
    assert res.long_term.values[0].values[0] == Fraction(5361147, 5000)
    assert res.long_term.values[1].values[0] == Fraction(23, 45000)
    assert rep.deviation_gain == 0
    assert rep.social_welfare == Fraction(24125173, 22500)


def test_optimize_seven_state_example(ex4):
    res = optimize(ex4, mode=EXACT)
    assert res.kappa == 1
    assert _names(ex4, res.strategy.tail) == ["b", "d", "f", "g", "j", "k", "m"]
    rep = res.reports["s0"]
    # gain = delta(s0, a, 0) + delta(s0, a, 1), substituted by hand
    assert rep.deviation_gain == Fraction(15921503, 3400000)
    assert res.strategy.prefix[0][0] == 0  # deviate with a at s0
    assert abs(float(rep.social_welfare) - 122.325373) < 1e-6


def test_optimize_four_state_example(ex2):
    res = optimize(ex2, mode=EXACT)
    assert res.kappa == 2
    assert _names(ex2, res.strategy.tail) == ["b", "d", "e", "f"]
    assert res.long_term.values[0].values[0] == Fraction(450, 23)
    assert res.long_term.values[1].values[0] == Fraction(150, 287)
    # the only profitable deviation sits at s1, unreachable before the
    # horizon from s0, so the start state keeps the tail behaviour
    assert res.reports["s0"].deviation_gain == 0
    assert res.reports["s1"].deviation_gain > 0


def _prefix_sums_ok(asym, adv, j, slack):
    lams = [float(d) for d in asym.discounts]
    for key, row in adv.delta0.items():
        acc = 0.0
        imin = adv.minimal_nonzero[key]
        if imin is None:
            continue
        scale = lams[imin] ** j
        for p, d in enumerate(row):
            acc += (lams[p] ** j / scale) * float(d)
            if acc > slack:
                return False
    return True


def test_absorption_and_late_layers(investment, ex3, ex4):
    for asym in (investment, ex3, ex4):
        lt = long_term(asym, FLOAT)
        adv = advantages(asym, lt, FLOAT)
        kappa = find_kappa(asym, adv, mode=FLOAT)
        for j in range(kappa, kappa + 6):
            assert _prefix_sums_ok(asym, adv, j, 1e-12)
            # aggregate layer rewards are nonpositive past the horizon
            for key, row in adv.delta0.items():
                agg = sum(
                    float(d) * float(lam) ** j
                    for d, lam in zip(row, asym.discounts)
                )
                assert agg <= 1e-12


def test_retained_layer_rewards_zero(investment):
    res = optimize(investment, mode=EXACT)
    for (s, a) in res.advantage.retained:
        assert all(d == 0 for d in res.advantage.delta0[(s, a)])


def test_dominance_over_tail_and_positional():
    for seed in range(30):
        cfg = RandomMdpConfig(
            num_states=3,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 20)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        res = optimize(asym, mode=FLOAT)
        sw = float(res.reports["s0"].social_welfare)
        tail_sw = float(eval_positional(asym, res.strategy.tail, FLOAT).social_welfare[0])
        best_pos = float(enumerate_positional(asym, 0, mode=FLOAT).best_social_welfare)
        assert sw >= tail_sw - 1e-9
        assert sw >= best_pos - 1e-9


def test_argmax_invariance_under_reward_scaling(investment):
    c = Fraction(7, 3)
    scaled = AsymMdp(
        mdp=investment.mdp,
        principals=investment.principals,
        rewards=[
            [[r * c for r in per_a] for per_a in per_s] for per_s in investment.rewards
        ],
    )
    base = optimize(investment, mode=EXACT)
    res = optimize(scaled, mode=EXACT)
    assert res.kappa == base.kappa
    assert res.strategy.prefix == base.strategy.prefix
    assert res.strategy.tail == base.strategy.tail
    assert res.reports["s0"].social_welfare == c * base.reports["s0"].social_welfare


def test_decomposition_seeded():
    for seed in range(40):
        cfg = RandomMdpConfig(
            num_states=4,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 20)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        res = optimize(asym, mode=FLOAT)
        for name in asym.mdp.states:
            rep = res.reports[name]
            assert abs(
                float(rep.social_welfare)
                - float(rep.baseline)
                - float(rep.deviation_gain)
            ) < 1e-9
            assert float(rep.deviation_gain) >= 0


def test_counting_strategy_well_formed(ex4):
    res = optimize(ex4, mode=FLOAT)
    res.strategy.check(ex4)
    for s, a in enumerate(res.strategy.tail):
        assert a in res.long_term.restricted[s]


def test_float_and_exact_modes_agree_seeded():
    for seed in range(10):
        cfg = RandomMdpConfig(
            num_states=3,
            actions_per_state=2,
            num_principals=2,
            discounts=[Fraction(9, 10), Fraction(3, 20)],
            seed=seed,
        )
        asym = random_mdp(cfg)
        f = optimize(asym, mode=FLOAT)
        e = optimize(asym, mode=EXACT)
        for name in asym.mdp.states:
            scale = max(1.0, abs(float(e.reports[name].social_welfare)))
            assert (
                abs(
                    float(f.reports[name].social_welfare)
                    - float(e.reports[name].social_welfare)
                )
                < 1e-7 * scale
            )


@settings(max_examples=60, deadline=None)
@given(
    states=st.integers(1, 5),
    actions=st.integers(1, 3),
    principals=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_float_and_exact_optimize_agree_property(states, actions, principals, seed):
    asym = random_mdp(
        RandomMdpConfig(
            num_states=states,
            actions_per_state=actions,
            num_principals=principals,
            seed=seed,
        )
    )
    f = optimize(asym, mode=FLOAT)
    e = optimize(asym, mode=EXACT)
    assert f.kappa == e.kappa
    assert f.long_term.restricted == e.long_term.restricted
    assert f.strategy.tail == e.strategy.tail
    assert f.strategy.prefix == e.strategy.prefix
    for name in asym.mdp.states:
        want = e.reports[name].social_welfare
        got = f.reports[name].social_welfare
        assert abs(float(got) - float(want)) <= 1e-9 * max(1.0, abs(float(want)))


def test_five_principal_cascade():
    cfg = RandomMdpConfig(
        num_states=3,
        actions_per_state=2,
        num_principals=5,
        discounts=["9/10", "7/10", "1/2", "3/10", "1/10"],
        seed=1,
    )
    asym = random_mdp(cfg)
    e = optimize(asym, mode=EXACT)
    f = optimize(asym, mode=FLOAT)
    assert e.kappa == f.kappa
    assert abs(
        float(e.reports["s0"].social_welfare) - float(f.reports["s0"].social_welfare)
    ) < 1e-9
    # final restriction is nonempty and well-formed
    lt = e.long_term
    for s in range(asym.n_states):
        assert lt.restricted[s]
        assert set(lt.restricted[s]) <= set(range(2))
    # every prefix sum is nonpositive at the found horizon for all 5 prefixes
    adv = e.advantage
    kappa = e.kappa
    for key, row in adv.delta0.items():
        acc = Fraction(0)
        for p, d in enumerate(row):
            acc += asym.discounts[p] ** kappa * d
            assert acc <= 0


def test_optimize_value_iteration_backend(investment, ex4):
    for asym, expected in ((investment, Fraction(127, 9)), (ex4, None)):
        pi = optimize(asym, mode=FLOAT, method="pi")
        vi = optimize(asym, mode=FLOAT, method="vi")
        assert vi.kappa == pi.kappa
        assert vi.strategy.tail == pi.strategy.tail
        gap = abs(
            float(vi.reports["s0"].social_welfare)
            - float(pi.reports["s0"].social_welfare)
        )
        assert gap < 1e-6
        if expected is not None:
            assert abs(float(vi.reports["s0"].social_welfare) - float(expected)) < 1e-6


def test_optimize_badly_spaced_end_to_end():
    # the full pipeline over 761 unrolled layers, not just the depth scan
    b10 = badly_spaced(10)
    res = optimize(b10, mode=FLOAT)
    assert res.kappa == 761
    s1 = b10.state_index("S1")
    move = b10.action_index(s1, "move")
    # deviating to the absorbing state pays while the horizon runs
    assert res.strategy.prefix[0][s1] == move
    assert res.strategy.tail[s1] == b10.action_index(s1, "loop")
    rep = res.reports["S1"]
    assert float(rep.deviation_gain) > 0
    assert abs(
        float(rep.social_welfare)
        - float(rep.baseline)
        - float(rep.deviation_gain)
    ) < 1e-9


def test_float_prefix_matches_exact_past_underflow():
    # kappa 1,146: lam^j underflows binary64 past j ~ 1,100, yet every float
    # prefix row equals the exact one
    b12 = badly_spaced(12)
    f = optimize(b12, mode=FLOAT)
    e = optimize(b12, mode=EXACT)
    assert f.kappa == e.kappa == 1146
    assert f.strategy.prefix == e.strategy.prefix


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_backward_induction_ties_go_to_lowest_index(mode):
    """investment with its waiting action after the investing one and a
    twin of each: every prefix row plays the lower index of each pair."""
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("Alice", Fraction(2, 3)), ("Bob", Fraction(1, 3))],
        actions=[
            ("s0", "b", [("s1", 1)], -1),
            ("s0", "a", [("s0", 1)], 3),
            ("s0", "a_twin", [("s0", 1)], 3),
            ("s1", "b", [("s1", 1)], 6),
            ("s1", "b_twin", [("s1", 1)], 6),
        ],
    )
    res = optimize(asym, mode=mode)
    assert res.kappa == 2
    assert res.strategy.prefix == [[1, 0], [1, 0]]


@pytest.mark.parametrize("seed", [3, 4, 6])
@pytest.mark.xfail(
    strict=True,
    raises=ConvergenceError,
    reason="known: the float tie tolerance is absolute (1e-9), below one ulp of "
    "values up to 1e9, so some state's optimal action set comes out empty",
)
def test_float_optimize_with_large_rewards(seed):
    base = random_mdp(RandomMdpConfig(8, 3, 2, seed=seed))
    big = AsymMdp(
        mdp=base.mdp,
        principals=base.principals,
        rewards=[[[r * 10**6 for r in rr] for rr in per_s] for per_s in base.rewards],
    )
    exact = optimize(big, mode=EXACT)  # exact mode solves it
    f = optimize(big, mode=FLOAT)
    assert f.kappa == exact.kappa


def test_advantages_reads_edited_restriction(investment):
    lt = long_term(investment, EXACT)
    lt.restricted[0][:] = [0]  # keep Alice's suboptimal a at s0 instead of b
    with pytest.raises(CertificationError, match=r"retained action \('s0', 'a'\)"):
        advantages(investment, lt, EXACT)
