import json
from fractions import Fraction

import pytest

from mdpwf import (
    EXACT,
    AsymMdp,
    FormatError,
    LoadError,
    badly_spaced,
    dumps,
    eval_positional,
    loads,
    merge_equal_discounts,
    spacing_report,
    validate,
)
from mdpwf.strategies import parse_strategy


def test_validate_investment_ok(investment):
    assert validate(investment).ok


def test_equal_discounts_flagged(investment):
    broken = investment.with_discounts([Fraction(1, 3), Fraction(1, 3)])
    result = validate(broken)
    assert not result.ok
    assert any("not strictly descending" in v for v in result.violations)


def test_bad_probability_row_named():
    asym = AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(2, 3)), ("B", Fraction(1, 3))],
        actions=[
            ("s0", "a", [("s0", 1)], 3),
            ("s0", "b", [("s1", Fraction(9, 10))], -1),
            ("s1", "b", [("s1", 1)], 6),
        ],
    )
    result = validate(asym)
    assert not result.ok
    bad = [v for v in result.violations if "sum to" in v]
    assert len(bad) == 1 and "'s0'" in bad[0] and "'b'" in bad[0]


def test_probability_outside_unit_interval():
    asym = AsymMdp.build(
        states=["s0"],
        principals=[("A", Fraction(1, 2))],
        actions=[("s0", "a", [("s0", 0), ("s0", 1)], 0)],
    )
    assert any("outside (0, 1]" in v for v in validate(asym).violations)


def test_duplicate_names_rejected_at_build():
    with pytest.raises(FormatError):
        AsymMdp.build(
            states=["s0", "s0"],
            principals=[("A", Fraction(1, 2))],
            actions=[("s0", "a", [("s0", 1)], 0)],
        )
    with pytest.raises(FormatError):
        AsymMdp.build(
            states=["s0"],
            principals=[("A", Fraction(1, 2))],
            actions=[
                ("s0", "a", [("s0", 1)], 0),
                ("s0", "a", [("s0", 1)], 1),
            ],
        )


# -- merging ---------------------------------------------------------------


def test_merge_two_equal_discounts():
    asym = AsymMdp.build(
        states=["s0"],
        principals=[("A", Fraction(1, 2)), ("B", Fraction(1, 2))],
        actions=[("s0", "a", [("s0", 1)], [2, 5])],
    )
    merged = merge_equal_discounts(asym)
    assert merged.n_principals == 1
    assert merged.principals[0].discount == Fraction(1, 2)
    assert merged.rewards[0][0] == [Fraction(7)]


def test_merge_identity_when_descending(investment):
    assert merge_equal_discounts(investment) is investment


def test_merge_only_tied_pair(twins):
    merged = merge_equal_discounts(twins)
    assert [p.discount for p in merged.principals] == [Fraction(9, 10), Fraction(1, 2)]
    assert merged.n_principals == 2


def test_merge_preserves_welfare(twins):
    merged = merge_equal_discounts(twins)
    for sigma in ([0, 0], [1, 0]):
        before = eval_positional(twins, sigma, EXACT).social_welfare
        after = eval_positional(merged, sigma, EXACT).social_welfare
        assert before == after


# -- file format -------------------------------------------------------------


def test_roundtrip_structural(investment):
    text = dumps(investment)
    again = loads(text)
    assert again.mdp == investment.mdp
    assert again.principals == investment.principals
    assert again.rewards == investment.rewards


def test_save_load_save_byte_stable(investment, tmp_path):
    text = dumps(investment)
    assert dumps(loads(text)) == text


def _one_state(reward=0, prob=1, discount=Fraction(1, 2)):
    return AsymMdp.build(
        states=["s"],
        principals=[("A", discount)],
        actions=[("s", "stay", [("s", prob)], [reward])],
    )


# numbers past the interpreter's default int-to-str limit of 4,300 digits
@pytest.mark.parametrize(
    "model, where",
    [
        (_one_state(reward=10**5000), "state 's', action 'stay'"),
        (_one_state(reward=Fraction(1, 10**5000)), "state 's', action 'stay'"),
        (_one_state(discount=Fraction(1, 10**5000)), "principal 'A'"),
    ],
    ids=["integer", "fraction", "discount"],
)
def test_dumps_rejects_numbers_loads_cannot_read(model, where):
    with pytest.raises(FormatError, match=f"number not writable.*at {where}"):
        dumps(model)


def test_loads_rejects_an_integer_literal_past_the_digit_limit():
    text = json.dumps(json.loads(dumps(_one_state())))
    text = text.replace('"reward": [0]', '"reward": [' + "9" * 5001 + "]")
    assert "9" * 5001 in text
    with pytest.raises(FormatError, match="invalid JSON"):
        loads(text)


def test_strategy_kappa_past_the_digit_limit_is_a_format_error(investment):
    text = '{"type": "counting", "kappa": %s, "tail": []}' % ("9" * 5001)
    with pytest.raises(FormatError, match="invalid JSON"):
        parse_strategy(text, investment)


def test_unknown_field_named():
    text = '{"states": ["s"], "principals": [], "actions": [], "wat": 1}'
    with pytest.raises(FormatError, match="wat"):
        loads(text)


def test_rational_discount_roundtrips_exactly():
    text = """{
      "states": ["s0"],
      "principals": [{"name": "A", "discount": "2/3"}],
      "actions": [{"state": "s0", "action": "a", "reward": [1],
                   "transitions": [{"to": "s0", "prob": 1}]}]
    }"""
    asym = loads(text)
    assert asym.principals[0].discount == Fraction(2, 3)


def test_decimal_literal_parses_exactly():
    text = """{
      "states": ["s0"],
      "principals": [{"name": "A", "discount": 0.54}],
      "actions": [{"state": "s0", "action": "a", "reward": [0.1],
                   "transitions": [{"to": "s0", "prob": 1}]}]
    }"""
    asym = loads(text)
    assert asym.principals[0].discount == Fraction(27, 50)
    assert asym.rewards[0][0][0] == Fraction(1, 10)


def test_missing_reward_defaults_to_zero():
    text = """{
      "states": ["s0"],
      "principals": [{"name": "A", "discount": "1/2"}, {"name": "B", "discount": "1/4"}],
      "actions": [{"state": "s0", "action": "a",
                   "transitions": [{"to": "s0", "prob": 1}]}]
    }"""
    asym = loads(text)
    assert asym.rewards[0][0] == [Fraction(0), Fraction(0)]


def test_malformed_structures_named():
    with pytest.raises(FormatError, match="must be a list"):
        loads('{"states": ["s"], "principals": {}, "actions": []}')
    with pytest.raises(FormatError, match="expected an object"):
        loads('{"states": ["s"], "principals": ["x"], "actions": []}')
    with pytest.raises(FormatError, match="transitions"):
        loads(
            '{"states": ["s"], "principals": [{"name": "A", "discount": "1/2"}],'
            ' "actions": [{"state": "s", "action": "a", "transitions": 3}]}'
        )


_NAMED_DOC = {
    "states": ["s0"],
    "principals": [{"name": "A", "discount": "1/2"}],
    "actions": [{"state": "s0", "action": "a", "transitions": [{"to": "s0", "prob": 1}]}],
}


@pytest.mark.parametrize(
    "path, value, location",
    [
        (("actions", 0, "state"), ["s0"], "actions[0]"),
        (("actions", 0, "action"), {"a": 1}, "actions[0]"),
        (("states", 0), ["s0"], "states[0]"),
        (("actions", 0, "transitions", 0, "to"), {"x": 1}, "actions[0].transitions[0]"),
        (("principals", 0, "name"), ["A"], "principals[0]"),
        (("principals", 0, "name"), 7, "principals[0]"),
    ],
)
def test_non_string_names_named(path, value, location):
    doc = json.loads(json.dumps(_NAMED_DOC))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(FormatError, match="must be a string") as err:
        loads(json.dumps(doc))
    assert location in str(err.value)


def test_load_rejects_invalid_model():
    text = """{
      "states": ["s0"],
      "principals": [{"name": "A", "discount": "1/2"}],
      "actions": [{"state": "s0", "action": "a", "reward": [1],
                   "transitions": [{"to": "s0", "prob": "1/2"}]}]
    }"""
    with pytest.raises(LoadError) as err:
        loads(text)
    assert any("sum to" in v for v in err.value.violations)


def test_load_rejects_model_without_states():
    text = '{"states": [], "principals": [{"name": "A", "discount": "1/2"}], "actions": []}'
    with pytest.raises(LoadError) as err:
        loads(text)
    assert "model has no states" in err.value.violations


# -- spacing ------------------------------------------------------------------


def test_spacing_investment(investment):
    rep = spacing_report(investment, 10)
    # 1 / (lam0/lam1 - 1) = 1 / (2 - 1)
    assert rep.pairs[0].spacing == 1
    assert rep.pairs[0].reasonably_spaced


def test_spacing_badly_spaced_family():
    n = 10
    rep = spacing_report(badly_spaced(n), 100)
    assert rep.pairs[0].spacing == 2 * n * n + n - 1 == 209
    assert not rep.pairs[0].reasonably_spaced


def test_spacing_well_separated(investment):
    rep = spacing_report(
        investment.with_discounts([Fraction(9, 10), Fraction(3, 10)]), 10
    )
    assert rep.pairs[0].spacing == Fraction(1, 2)
    assert rep.pairs[0].reasonably_spaced


def test_spacing_requires_descending(investment):
    tied = investment.with_discounts([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        spacing_report(tied, 10)
