import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpwf import (
    BUILTIN_NAMES,
    EXACT,
    FLOAT,
    AsymMdp,
    CertificationError,
    ConvergenceError,
    HorizonExceededError,
    Mdp,
    RandomMdpConfig,
    advantages,
    badly_spaced,
    builtin,
    enumerate_positional,
    eval_counting,
    eval_positional,
    find_kappa,
    kappa_estimate,
    long_term,
    optimize,
    random_mdp,
    solve_discounted,
    validate,
)
from mdpwf import welfare
import mdpwf.evaluate
import mdpwf.linalg
from mdpwf.linalg import power_pays
from mdpwf.strategies import counting_to_doc, parse_strategy
from mdpwf.welfare import _backward_induction


def _names(asym, sigma):
    return [asym.mdp.actions[s][a] for s, a in enumerate(sigma)]


def _row(asym, s, a):
    """Advantage-table row of state s and local action a (`asym.rows()` order)."""
    return list(asym.rows()).index((s, a))


def test_long_term_investment(investment):
    lt = long_term(investment, EXACT)
    assert _names(investment, lt.tail) == ["b", "b"]
    assert lt.restricted == [[1], [0]]
    assert lt.values[0] == [Fraction(11), Fraction(18)]
    assert lt.values[1] == [Fraction(2), Fraction(9)]


def test_long_term_single_principal(investment):
    solo = AsymMdp(
        mdp=investment.mdp,
        principals=investment.principals[:1],
        rewards=[[r[:1] for r in per_s] for per_s in investment.rewards],
    )
    lt = long_term(solo, EXACT)
    direct = solve_discounted(solo, 0, mode=EXACT)
    assert lt.values[0] == direct.values
    assert lt.tail == direct.strategy


def test_advantages_investment(investment):
    lt = long_term(investment, EXACT)
    adv = advantages(investment, lt, EXACT)
    delta = adv.delta.tolist()
    assert delta[_row(investment, 0, 0)] == [Fraction(-2, 3), Fraction(5, 3)]
    assert delta[_row(investment, 0, 1)] == [Fraction(0), Fraction(0)]
    assert delta[_row(investment, 1, 0)] == [Fraction(0), Fraction(0)]
    assert adv.lead[_row(investment, 0, 0)] == 0
    assert adv.kept.tolist() == [False, True, True]  # rows (0, 0), (0, 1), (1, 0)


def test_advantage_sign_pattern_on_deviating_example(ex4):
    lt = long_term(ex4, EXACT)
    adv = advantages(ex4, lt, EXACT)
    row = adv.delta[_row(ex4, 0, 0)]  # action a at s0
    assert row[0] < 0 < row[1]


def test_certification_rejects_tampered_values(investment):
    lt = long_term(investment, EXACT)
    lt.values[0][0] += 1
    with pytest.raises(CertificationError):
        advantages(investment, lt, EXACT)


def test_float_certification_rejects_tampered_tail_values(monkeypatch):
    # V_0(s3) moves by 5e-8 of its scale: inside advantages' zero clamp
    # (1e-7), but the tail's residual bound reads 5e-8 / (1 - 99/100) = 5e-6
    # against the decomposition tolerance 1e-6
    asym = random_mdp(
        RandomMdpConfig(num_states=6, discounts=[Fraction(99, 100), Fraction(3, 10)], seed=0)
    )
    real = welfare.long_term

    def tampered(asym, mode):
        lt = real(asym, mode)
        lt.values[0][3] += 5e-8 * max(1.0, np.abs(lt.values[0]).max())
        return lt

    advantages(asym, tampered(asym, FLOAT), FLOAT)
    monkeypatch.setattr(welfare, "long_term", tampered)
    with pytest.raises(CertificationError, match="at state 's3' for principal 0: residual"):
        optimize(asym, FLOAT)


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_optimize_takes_the_tail_values_from_the_cascade(count_calls, investment, mode):
    # the prefix (kappa 2 on 2 states) is stepped, so no solve is left to evaluation
    solver = "policy_values_exact" if mode.is_exact else "policy_values_float"
    solves = count_calls(solver, mdpwf.evaluate)
    res = optimize(investment, mode)
    assert res.kappa == 2 and not power_pays(investment.n_states, res.kappa)
    assert solves == []
    got = [rep.social_welfare for rep in res.reports.values()]
    want = eval_counting(investment, res.strategy, mode).social_welfare  # re-solves the tail
    assert len(solves) == 1
    if mode.is_exact:
        assert got == want
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_find_kappa_investment(investment):
    lt = long_term(investment, EXACT)
    adv = advantages(investment, lt, EXACT)
    lam0, lam1 = investment.discounts
    d = adv.delta[_row(investment, 0, 0)]
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


def _kappa_bounds_by_row(asym, adv):
    """Per row of an exact advantage table, in `Fraction`s: (kappa', k) with
    kappa' the sum of the positive entries after the leading one over the
    leading entry's magnitude, and k the least k >= 0 with
    (lam_i / lam_{i+1})^k >= kappa' for leading index i; (None, 0) on an
    all-zero row."""
    lams = asym.discounts
    bounds = []
    for row, i in zip(adv.delta.tolist(), adv.lead.tolist()):
        if i < 0:
            bounds.append((None, 0))
            continue
        kp = sum(max(d, Fraction(0)) for d in row[i + 1:]) / abs(row[i])
        k = 0
        if kp > 1:
            while (lams[i] / lams[i + 1]) ** k < kp:
                k += 1
        bounds.append((kp, k))
    return bounds


def test_kappa_estimate_investment(investment):
    lt = long_term(investment, EXACT)
    adv = advantages(investment, lt, EXACT)
    bounds = _kappa_bounds_by_row(investment, adv)
    assert adv.lead[_row(investment, 0, 0)] == 0
    assert bounds[_row(investment, 0, 0)] == (Fraction(5, 2), 2)  # ceil(log2 2.5)
    assert bounds[_row(investment, 0, 1)][1] == 0
    assert kappa_estimate(investment, adv, EXACT) == 2


@pytest.mark.parametrize("name", ["appendix_ex4", *(f"random-{seed}" for seed in range(20))])
def test_exact_kappa_estimate_matches_fraction_reference(name):
    if name.startswith("random-"):
        seed = int(name.removeprefix("random-"))
        cfg = RandomMdpConfig(num_states=8, actions_per_state=3, num_principals=3, seed=seed)
        asym = random_mdp(cfg)
    else:
        asym = builtin(name)
    adv = advantages(asym, long_term(asym, EXACT), EXACT)
    want = max(k for _, k in _kappa_bounds_by_row(asym, adv))
    assert kappa_estimate(asym, adv, EXACT) == want


def test_exact_kappa_estimate_at_a_power_boundary():
    # (s0, wait) trails (s0, go) by 1 for A and leads it by 125 for B, so
    # kappa' = 125 = 5^3 with lam_A / lam_B = 5.  The float quotient of logs
    # is 3.0000000000000004, whose ceiling exact mode corrects to 3.
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2)), ("B", Fraction(1, 10))],
        actions=[
            ("s0", "go", [("s1", 1)], [1, 0]),
            ("s0", "wait", [("s1", 1)], [0, 125]),
            ("s1", "stay", [("s1", 1)], 0),
        ],
    )
    assert math.ceil(math.log(125) / math.log(5)) == 4
    adv = advantages(asym, long_term(asym, EXACT), EXACT)
    assert _kappa_bounds_by_row(asym, adv)[_row(asym, 0, 1)] == (125, 3)
    assert kappa_estimate(asym, adv, EXACT) == 3


def test_exact_kappa_estimate_past_the_float_range():
    # a reward a hair below investment's tie 11/3 makes (s0, a)'s kappa'
    # about 1.7e400, past binary64's range: its log comes from the integers
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("Alice", Fraction(2, 3)), ("Bob", Fraction(1, 3))],
        actions=[
            ("s0", "a", [("s0", 1)], [Fraction(11, 3) - Fraction(1, 10**400), 3]),
            ("s0", "b", [("s1", 1)], -1),
            ("s1", "b", [("s1", 1)], 6),
        ],
    )
    res = optimize(asym, mode=EXACT)
    assert (res.kappa, res.kappa_bound) == (1330, 1330)
    adv = res.advantage
    kp, k = _kappa_bounds_by_row(asym, adv)[_row(asym, 0, 0)]
    assert kp > 10**400 and k == 1330


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
        assert kappa_estimate(asym, adv, FLOAT) >= find_kappa(asym, adv, mode=FLOAT)


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
    lt.values[principal][state] += shift
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
    assert all(type(d) is number for row in adv.delta.tolist() for d in row)
    assert all(type(i) is int for i in adv.lead.tolist())
    assert type(res.kappa_bound) is int
    with pytest.raises(dataclasses.FrozenInstanceError):
        adv.delta = adv.delta.copy()
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


@MODES
@pytest.mark.parametrize(
    "seed, discounts, message",
    [
        # float optimize used to return kappa 0 and SW(s0) 20.155 here,
        # where a depth-3 counting strategy reaches 34.035
        (6, (Fraction(3, 10), Fraction(9, 10)), "'P0' (3/10) vs 'P1' (9/10)"),
        # and to overflow in find_kappa here
        (0, (Fraction(3, 10), Fraction(9, 10)), "'P0' (3/10) vs 'P1' (9/10)"),
        (
            6,
            (Fraction(1, 2), Fraction(1, 2)),
            "'P0' (1/2) vs 'P1' (1/2); combine equal discounts with merge_equal_discounts",
        ),
    ],
    ids=["ascending-seed6", "ascending-seed0", "tie"],
)
def test_optimize_rejects_discounts_not_strictly_descending(mode, seed, discounts, message):
    cfg = RandomMdpConfig(
        num_states=3,
        actions_per_state=2,
        num_principals=2,
        discounts=[Fraction(9, 10), Fraction(3, 10)],
        seed=seed,
    )
    asym = random_mdp(cfg).with_discounts(list(discounts))
    with pytest.raises(ValueError) as err:
        optimize(asym, mode=mode)
    assert str(err.value) == "discounts not strictly descending: " + message
    assert validate(asym).violations == [str(err.value).split(";")[0]]


@MODES
@pytest.mark.parametrize(
    "seed, discounts, message",
    [
        # the layers after long_term used to accept these: find_kappa
        # overflowed in a power on seed 0 and returned 0 on seed 6
        (0, (Fraction(3, 10), Fraction(9, 10)), "'P0' (3/10) vs 'P1' (9/10)"),
        (6, (Fraction(3, 10), Fraction(9, 10)), "'P0' (3/10) vs 'P1' (9/10)"),
        (
            6,
            (Fraction(1, 2), Fraction(1, 2)),
            "'P0' (1/2) vs 'P1' (1/2); combine equal discounts with merge_equal_discounts",
        ),
    ],
    ids=["ascending-seed0", "ascending-seed6", "tie"],
)
def test_long_term_rejects_discounts_not_strictly_descending(mode, seed, discounts, message):
    asym = random_mdp(RandomMdpConfig(8, 3, 2, seed=seed)).with_discounts(list(discounts))
    with pytest.raises(ValueError) as err:
        long_term(asym, mode=mode)
    assert str(err.value) == "discounts not strictly descending: " + message


_ASCENDING = (Fraction(1, 3), Fraction(2, 3)), "'Alice' (1/3) vs 'Bob' (2/3)"
_TIE = (
    (Fraction(1, 3), Fraction(1, 3)),
    "'Alice' (1/3) vs 'Bob' (1/3); combine equal discounts with merge_equal_discounts",
)


# Without the check, exact kappa_estimate on ascending discounts searches
# without end for a power of a base below 1 that reaches its bound, so that
# one case is left out here.
@pytest.mark.parametrize(
    "layer, mode, discounts, message",
    [
        pytest.param(layer, mode, *case, id=f"{layer}-{name}-{mode_id}")
        for layer in ["advantages", "find_kappa", "kappa_estimate"]
        for mode, mode_id in [(EXACT, "exact"), (FLOAT, "float")]
        for case, name in [(_ASCENDING, "ascending"), (_TIE, "tie")]
        if (layer, mode_id, name) != ("kappa_estimate", "exact", "ascending")
    ],
)
def test_layers_after_long_term_reject_discounts_not_strictly_descending(
    investment, layer, mode, discounts, message
):
    # these used to raise ZeroDivisionError (kappa_estimate on the tie),
    # return 0 (kappa_estimate), overflow (find_kappa) or blame a retained
    # action (advantages)
    lt = long_term(investment, mode)
    adv = advantages(investment, lt, mode)
    calls = {
        "advantages": lambda asym: advantages(asym, lt, mode),
        # a small cap keeps the search short where the check is missing
        "find_kappa": lambda asym: find_kappa(asym, adv, max_kappa=64, mode=mode),
        "kappa_estimate": lambda asym: kappa_estimate(asym, adv, mode),
    }
    with pytest.raises(ValueError) as err:
        calls[layer](investment.with_discounts(list(discounts)))
    assert str(err.value) == "discounts not strictly descending: " + message


@MODES
def test_optimize_rejects_model_without_principals(mode):
    asym = AsymMdp.build(["s"], [], [("s", "a", [("s", 1)], None)])
    with pytest.raises(ValueError, match="^model has no principals$"):
        optimize(asym, mode=mode)
    assert validate(asym).violations == ["model has no principals"]


@pytest.mark.parametrize(
    "mode, sw, message",
    [
        (EXACT, Fraction(3), "welfare decomposition failed at state 's0': 3 != 1 + 1/2"),
        (FLOAT, 3.0, "welfare decomposition failed at state 's0': 3.0 vs 1.0 + 0.5"),
    ],
    ids=["exact", "float"],
)
def test_check_decomposition_names_state_and_terms(mode, sw, message):
    baseline, gain = Fraction(1), Fraction(1, 2)
    welfare._check_decomposition(mode, baseline + gain, baseline, gain, "s0")
    with pytest.raises(CertificationError) as err:
        welfare._check_decomposition(mode, sw, baseline, gain, "s0")
    assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_beaten_is_first_best_for_a_fixed_sigma(data):
    counts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="actions")
    states = [f"s{s}" for s in range(len(counts))]
    asym = AsymMdp.build(
        states,
        [("A", Fraction(1, 2))],
        [(name, f"a{a}", [(name, 1)], 0) for name, k in zip(states, counts) for a in range(k)],
    )
    view = asym.float_view(FLOAT)
    steps = data.draw(st.integers(1, 5), label="steps")
    # scores from a small set plant ties
    cells = st.lists(st.sampled_from([-1.0, 0.0, 0.5]), min_size=view.n_rows, max_size=view.n_rows)
    scores = np.array(data.draw(st.lists(cells, min_size=steps, max_size=steps), label="scores"))
    sigma = np.array([data.draw(st.integers(0, k - 1)) for k in counts]) + view.row_ptr[:-1]
    expected = (view.first_best(scores) != sigma).any(axis=1)
    assert welfare._beaten(view, scores, sigma).tolist() == expected.tolist()


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_model_without_states(mode):
    empty = AsymMdp.build(states=[], principals=[("A", Fraction(1, 2))], actions=[])
    res = optimize(empty, mode=mode)
    assert res.kappa == 0
    assert res.reports == {}
    pi = solve_discounted(empty, 0, mode=mode)
    assert len(pi.values) == 0 and pi.strategy == []


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
    assert res.long_term.values[0][0] == Fraction(5361147, 5000)
    assert res.long_term.values[1][0] == Fraction(23, 45000)
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
    assert res.long_term.values[0][0] == Fraction(450, 23)
    assert res.long_term.values[1][0] == Fraction(150, 287)
    # the only profitable deviation sits at s1, unreachable before the
    # horizon from s0, so the start state keeps the tail behaviour
    assert res.reports["s0"].deviation_gain == 0
    assert res.reports["s1"].deviation_gain > 0


def _prefix_sums_ok(asym, adv, j, slack):
    lams = [float(d) for d in asym.discounts]
    for row, imin in zip(adv.delta.tolist(), adv.lead.tolist()):
        acc = 0.0
        if imin < 0:
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
            for row in adv.delta.tolist():
                agg = sum(
                    float(d) * float(lam) ** j
                    for d, lam in zip(row, asym.discounts)
                )
                assert agg <= 1e-12


def test_retained_layer_rewards_zero(investment):
    res = optimize(investment, mode=EXACT)
    adv = res.advantage
    for row in adv.delta[adv.kept].tolist():
        assert all(d == 0 for d in row)


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
    for row in adv.delta.tolist():
        acc = Fraction(0)
        for p, d in enumerate(row):
            acc += asym.discounts[p] ** kappa * d
            assert acc <= 0


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


# (discounts, states, seed) of random 3-action models whose float backward
# induction takes the closed form over kappa steps, with 2 to 4 runs
CLOSED_FORM_MODELS = [
    ((Fraction(20, 39), Fraction(21, 41)), 3, 12),
    ((Fraction(20, 39), Fraction(21, 41)), 3, 21),
    ((Fraction(9, 10), Fraction(8, 9)), 3, 1),
    ((Fraction(9, 10), Fraction(8, 9)), 3, 3),
    ((Fraction(9, 10), Fraction(8, 9)), 4, 15),
    ((Fraction(9, 10), Fraction(89, 100), Fraction(22, 25)), 3, 7),
    ((Fraction(9, 10), Fraction(89, 100), Fraction(22, 25)), 3, 16),
    ((Fraction(9, 10), Fraction(89, 100), Fraction(22, 25)), 4, 22),
]


@pytest.mark.parametrize(
    "discounts, states, seed",
    CLOSED_FORM_MODELS,
    ids=[f"{len(d)}pr-{n}st-seed{seed}" for d, n, seed in CLOSED_FORM_MODELS],
)
def test_float_runs_match_exact(monkeypatch, discounts, states, seed):
    asym = random_mdp(RandomMdpConfig(states, 3, len(discounts), discounts=list(discounts), seed=seed))
    f = optimize(asym, mode=FLOAT)
    e = optimize(asym, mode=EXACT)
    assert power_pays(states, f.kappa)
    assert 2 <= len(f.strategy.runs) <= 4
    assert f.kappa == e.kappa
    assert f.strategy.prefix == e.strategy.prefix
    for name in asym.mdp.states:
        want = e.reports[name].deviation_gain
        got = f.reports[name].deviation_gain
        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))
    # a first window as long as the last run puts the second window's top
    # step where that run's rows are beaten
    last, _ = e.strategy.runs[-1]
    monkeypatch.setattr(welfare, "_WINDOW_START", last)
    assert optimize(asym, mode=FLOAT).strategy.prefix == e.strategy.prefix


def _badly_spaced_twins(n):
    """badly_spaced(n) with a twin of S1's loop and of its move, each right
    after its original."""
    return AsymMdp.build(
        states=["P0", "S1", "S2"],
        principals=[("P0", Fraction(n, 2 * n - 1)), ("P1", Fraction(n + 1, 2 * n + 1))],
        actions=[
            ("P0", "go", [("S1", Fraction(1, 2)), ("P0", Fraction(1, 2))], 0),
            ("S1", "loop", [("S1", 1)], [1, 0]),
            ("S1", "loop_twin", [("S1", 1)], [1, 0]),
            ("S1", "move", [("S2", 1)], [2, 2]),
            ("S1", "move_twin", [("S2", 1)], [2, 2]),
            ("S2", "stay", [("S2", 1)], [0, 2]),
        ],
    )


@MODES
def test_float_runs_ties_go_to_lowest_index(mode):
    twins = _badly_spaced_twins(20)
    res = optimize(twins, mode=mode)
    assert power_pays(twins.n_states, res.kappa)
    s1 = twins.state_index("S1")
    assert {row[s1] for row in res.strategy.prefix} == {twins.action_index(s1, "move")}
    original = [0, None, 1, None]  # S1's local actions in badly_spaced(20)
    mapped = [[a if s != s1 else original[a] for s, a in enumerate(row)] for row in res.strategy.prefix]
    assert mapped == optimize(badly_spaced(20), mode=mode).strategy.prefix


def test_float_runs_assemble_each_run_once(count_calls):
    asym = badly_spaced(20)
    assembled = count_calls("_entries", mdpwf.linalg, welfare)
    res = optimize(asym, mode=FLOAT)
    assert power_pays(asym.n_states, res.kappa)  # backward induction takes runs
    assert len(assembled) == len(res.strategy.runs) >= 1


def _fraction_backward_induction(asym, adv, kappa):
    """Reference: g_j = max_a [delta . rho^j + lam_0 P g_{j+1}] in
    `Fraction`s, one step at a time, ties to the lowest action."""
    lams = asym.discounts
    g, prefix = [Fraction(0)] * asym.n_states, []
    for j in reversed(range(kappa)):
        powers = [(lam / lams[0]) ** j for lam in lams]
        q = [
            [
                sum(d * w for d, w in zip(adv.delta[_row(asym, s, a)], powers))
                + lams[0] * sum(p * g[t] for t, p in asym.mdp.transitions[s][a])
                for a in range(len(acts))
            ]
            for s, acts in enumerate(asym.mdp.actions)
        ]
        g = [max(qs) for qs in q]
        prefix.append([qs.index(max(qs)) for qs in q])
    return prefix[::-1], g


def _tables(asym, mode):
    lt = long_term(asym, mode)
    adv = advantages(asym, lt, mode)
    return adv, find_kappa(asym, adv, mode=mode), lt.tail


BI_MODELS = {
    **{f"badly_spaced-{n}": (lambda n=n: badly_spaced(n)) for n in range(2, 13)},
    "investment": lambda: builtin("investment"),
    "appendix_ex4": lambda: builtin("appendix_ex4"),
    **{
        f"random-8x3x3-{seed}": (lambda seed=seed: random_mdp(RandomMdpConfig(8, 3, 3, seed=seed)))
        for seed in range(10)
    },
}


@pytest.mark.parametrize("name", BI_MODELS)
def test_integer_backward_induction_matches_fraction_recursion(name):
    asym = BI_MODELS[name]()
    adv, kappa, tail = _tables(asym, EXACT)
    cs, gain = _backward_induction(asym, adv, kappa, tail, EXACT)
    assert (cs.prefix, gain) == _fraction_backward_induction(asym, adv, kappa)
    assert all(type(x) is Fraction for x in gain)


@pytest.mark.parametrize("n", range(2, 21))
def test_float_backward_induction_matches_exact_badly_spaced(n):
    # kappa 16 to 3,570; from n = 6 on, float mode takes the one-run prefix in closed form
    asym = badly_spaced(n)
    adv, kappa, tail = _tables(asym, EXACT)
    fadv, fkappa, ftail = _tables(asym, FLOAT)
    assert (fkappa, ftail) == (kappa, tail)
    cs, gain = _backward_induction(asym, adv, kappa, tail, EXACT)
    fcs, fgain = _backward_induction(asym, fadv, fkappa, ftail, FLOAT)
    assert fcs.prefix == cs.prefix
    for got, want in zip(fgain, gain):
        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


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


def _random_8x3x3(seed):
    return random_mdp(RandomMdpConfig(8, 3, 3, seed=seed))


ROUND_TRIP_CASES = [
    *((name, builtin, name, mode) for name in BUILTIN_NAMES for mode in (EXACT, FLOAT)),
    *((f"badly_spaced-{n}", badly_spaced, n, FLOAT) for n in range(2, 21)),
    *((f"random-8x3x3-{seed}", _random_8x3x3, seed, mode) for seed in range(20) for mode in (EXACT, FLOAT)),
]


@pytest.mark.parametrize(
    "make, arg, mode",
    [case[1:] for case in ROUND_TRIP_CASES],
    ids=[f"{name}-{'exact' if mode.is_exact else 'float'}" for name, _, _, mode in ROUND_TRIP_CASES],
)
def test_optimized_runs_are_maximal_and_round_trip(make, arg, mode):
    asym = make(arg)
    cs = optimize(asym, mode=mode).strategy
    assert all(steps >= 1 for steps, _ in cs.runs)
    assert all(a != b for (_, a), (_, b) in zip(cs.runs, cs.runs[1:]))
    assert parse_strategy(json.dumps(counting_to_doc(asym, cs)), asym) == cs


METAMORPHIC_MODELS = {
    **{name: (lambda name=name: builtin(name)) for name in ("investment", "appendix_ex3", "appendix_ex4")},
    "badly_spaced-6": lambda: badly_spaced(6),  # kappa 239
    **{
        f"random-8x3x2-{seed}": (
            lambda seed=seed: random_mdp(
                RandomMdpConfig(8, 3, 2, discounts=[Fraction(9, 10), Fraction(3, 10)], seed=seed)
            )
        )
        for seed in range(5)
    },
}


def _relabelled(asym, order):
    """asym with its states listed in `order` (old indices); names, actions and rewards move along."""
    new = {old: k for k, old in enumerate(order)}
    mdp = Mdp(
        states=[asym.mdp.states[s] for s in order],
        actions=[asym.mdp.actions[s] for s in order],
        transitions=[
            [[(new[t], p) for t, p in succ] for succ in asym.mdp.transitions[s]] for s in order
        ],
    )
    return AsymMdp(mdp=mdp, principals=asym.principals, rewards=[asym.rewards[s] for s in order])


@pytest.mark.parametrize("name", METAMORPHIC_MODELS)
def test_optimize_exact_ignores_state_order(name):
    asym = METAMORPHIC_MODELS[name]()
    order = random.Random(name).sample(range(asym.n_states), asym.n_states)
    if order == sorted(order):
        order.reverse()
    base, moved = optimize(asym, mode=EXACT), optimize(_relabelled(asym, order), mode=EXACT)
    assert (moved.kappa, moved.kappa_bound) == (base.kappa, base.kappa_bound)
    assert moved.reports == base.reports
    assert moved.strategy.prefix == [[row[s] for s in order] for row in base.strategy.prefix]
    assert moved.strategy.tail == [base.strategy.tail[s] for s in order]


@pytest.mark.parametrize("name", METAMORPHIC_MODELS)
def test_optimize_exact_reward_shift_moves_values_only(name):
    asym = METAMORPHIC_MODELS[name]()
    base = optimize(asym, mode=EXACT)
    c = Fraction(-7, 3)
    for i, lam in enumerate(asym.discounts):
        rewards = [[[r + c * (k == i) for k, r in enumerate(rr)] for rr in per_s] for per_s in asym.rewards]
        res = optimize(AsymMdp(mdp=asym.mdp, principals=asym.principals, rewards=rewards), mode=EXACT)
        assert (res.kappa, res.kappa_bound, res.strategy) == (base.kappa, base.kappa_bound, base.strategy)
        move = c / (1 - lam)
        for state, rep in res.reports.items():
            was = base.reports[state]
            assert rep.deviation_gain == was.deviation_gain
            assert rep.per_principal == [v + move * (k == i) for k, v in enumerate(was.per_principal)]
            assert (rep.baseline, rep.social_welfare) == (was.baseline + move, was.social_welfare + move)
