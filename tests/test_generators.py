from fractions import Fraction

import pytest

from mdpwf import (
    EXACT,
    CnfFormula,
    FormatError,
    RandomMdpConfig,
    badly_spaced,
    builtin,
    decode_assignment,
    dumps,
    eval_positional,
    parse_dimacs,
    random_mdp,
    sat_reduction,
    spacing_report,
    threshold_decide_positional,
    truth_table_satisfiable,
    validate,
    zero_sum_variant,
)
from mdpwf.generators import (
    assignment_satisfies,
    small_formula_representatives,
)
from mdpwf.strategies import positional_from_names

PHI = CnfFormula(num_vars=3, clauses=[(1, -2, 3), (-1, -2, 3), (-1, 2, -3)])
PADDED_UNSAT = CnfFormula(num_vars=1, clauses=[(1, 1, 1), (-1, -1, -1)])


# -- builtins ---------------------------------------------------------------


def test_investment_shape(investment):
    assert investment.mdp.states == ["s0", "s1"]
    assert [p.discount for p in investment.principals] == [Fraction(2, 3), Fraction(1, 3)]
    assert investment.rewards[0][0] == [Fraction(3), Fraction(3)]
    assert investment.rewards[0][1] == [Fraction(-1), Fraction(-1)]
    assert investment.rewards[1][0] == [Fraction(6), Fraction(6)]


def test_six_state_example_shape(ex3):
    assert ex3.n_states == 6
    s3 = ex3.state_index("s3")
    g = ex3.action_index(s3, "g")
    assert ex3.rewards[s3][g][0] == Fraction(11)
    assert ex3.rewards[0][ex3.action_index(0, "a")][0] == Fraction(1)
    s4 = ex3.state_index("s4")
    assert ex3.rewards[s4][ex3.action_index(s4, "j")][0] == Fraction(-2)


def test_seven_state_example_shape(ex4):
    assert ex4.n_states == 7
    assert ex4.rewards[0][ex4.action_index(0, "a")][0] == Fraction(21, 2)
    s3 = ex4.state_index("s3")
    assert ex4.rewards[s3][ex4.action_index(s3, "g")][0] == Fraction(20)


def test_every_builtin_validates():
    for name in ("investment", "appendix_ex2", "appendix_ex3", "appendix_ex4"):
        assert validate(builtin(name)).ok


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("nope")


# -- badly spaced family -----------------------------------------------------


def test_badly_spaced_discounts_and_payoffs():
    b = badly_spaced(10)
    assert [p.discount for p in b.principals] == [Fraction(10, 19), Fraction(11, 21)]
    assert validate(b).ok
    # staying on the self-loop forever pays principal 0 exactly 2 + 1/(n-1)
    loop = positional_from_names(b, {"P0": "go", "S1": "loop", "S2": "stay"})
    res = eval_positional(b, loop, EXACT)
    s1 = b.state_index("S1")
    assert res.per_principal[0][s1] == 2 + Fraction(1, 9)
    assert res.per_principal[1][s1] == 0
    # moving pays principal 1 exactly 4 + 2/n
    move = positional_from_names(b, {"P0": "go", "S1": "move", "S2": "stay"})
    res2 = eval_positional(b, move, EXACT)
    assert res2.per_principal[1][s1] == 4 + Fraction(2, 10)
    assert res2.per_principal[0][s1] == 2


def test_badly_spaced_needs_two():
    with pytest.raises(ValueError):
        badly_spaced(1)


# -- random instances ---------------------------------------------------------


def test_random_mdp_deterministic_bytes():
    cfg = RandomMdpConfig(num_states=12, actions_per_state=3, num_principals=2,
                          discounts=[Fraction(9, 10), Fraction(3, 10)], seed=7)
    assert dumps(random_mdp(cfg)) == dumps(random_mdp(cfg))


def test_random_mdp_different_seeds_differ():
    cfg_a = RandomMdpConfig(num_states=12, seed=1)
    cfg_b = RandomMdpConfig(num_states=12, seed=2)
    assert dumps(random_mdp(cfg_a)) != dumps(random_mdp(cfg_b))


def test_random_mdp_valid():
    cfg = RandomMdpConfig(num_states=30, actions_per_state=2, num_principals=2,
                          discounts=[Fraction(9, 10), Fraction(3, 10)], seed=3)
    asym = random_mdp(cfg)
    assert validate(asym, EXACT).ok  # probabilities are exact rationals


def test_progression_spacing_within_bound():
    # the descending progression from 0.99 to 0.05 stays reasonably spaced
    for n in (2, 3, 11, 51, 101):
        cfg = RandomMdpConfig(num_states=1, actions_per_state=1, num_principals=n, seed=0)
        asym = random_mdp(cfg)
        assert spacing_report(asym, 10**4).all_spaced


def test_infeasible_configs():
    with pytest.raises(ValueError):
        random_mdp(RandomMdpConfig(num_states=2, successors=(3, 5)))
    with pytest.raises(ValueError):
        random_mdp(RandomMdpConfig(num_states=0))
    with pytest.raises(ValueError):
        random_mdp(RandomMdpConfig(num_states=2, num_principals=2,
                                   discounts=[Fraction(1, 3), Fraction(1, 2)]))


def test_random_mdp_rejects_zero_principals():
    with pytest.raises(ValueError, match="at least one principal"):
        random_mdp(RandomMdpConfig(num_states=3, num_principals=0))


# -- DIMACS -------------------------------------------------------------------


def test_parse_dimacs_round():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 3
    assert cnf.clauses == [(1, -2, 3), (-1, 2, -3)]


def test_parse_dimacs_requires_three_literals():
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")


def test_parse_dimacs_needs_header():
    with pytest.raises(FormatError):
        parse_dimacs("1 2 3 0\n")


def test_cnf_literal_range():
    with pytest.raises(FormatError):
        CnfFormula(num_vars=2, clauses=[(1, 2, 3)])


# -- reduction ---------------------------------------------------------------


def test_reduction_shape_and_threshold():
    asym, threshold, meta = sat_reduction(PHI)
    assert asym.n_states == 18
    assert validate(asym, EXACT).ok
    assert threshold == Fraction(18699, 4312500)
    assert Fraction(meta["c_short"]) == Fraction(113, 43125)
    assert Fraction(meta["c_long"]) == Fraction(13049, 2156250)


def test_reduction_path_payoffs():
    asym, _, _ = sat_reduction(PHI)
    lam0, lam1 = asym.discounts
    sigma = positional_from_names(
        asym,
        {
            "s0": "down", "TOP": "stay", "BOT": "stay",
            "C1": "down", "C2": "down", "C3": "down",
            "C1p": "to_x1", "C2p": "to_nx1", "C3p": "to_nx1",
            "Vx1": "to_x1", "Vx2": "to_x2", "Vx3": "to_x3",
            "x1": "to_TOP", "nx1": "to_TOP", "x2": "to_TOP",
            "nx2": "to_TOP", "x3": "to_TOP", "nx3": "to_TOP",
        },
    )
    res = eval_positional(asym, sigma, EXACT)
    lit = asym.state_index("x1")
    # deterministic walk reward pattern 0, -1, +1, +1, ... one step in
    assert lam0**2 * res.per_principal[0][lit] == Fraction(729, 14375)
    assert lam1**2 * res.per_principal[1][lit] == Fraction(-4, 75)
    # a clause branch adds one more discounting step
    assert lam0**3 * res.per_principal[0][lit] + lam1**3 * res.per_principal[1][
        lit
    ] == Fraction(13049, 2156250)


def test_reduction_decides_satisfiability():
    asym, threshold, _ = sat_reduction(PHI)
    dec = threshold_decide_positional(asym, 0, threshold, mode=EXACT)
    assert dec.satisfied
    assignment = decode_assignment(asym, dec.witness)
    assert assignment_satisfies(PHI, assignment)
    asym2, th2, _ = sat_reduction(PADDED_UNSAT)
    assert not threshold_decide_positional(asym2, 0, th2, mode=EXACT).satisfied


def test_zero_sum_variant_properties():
    asym, _, _ = sat_reduction(PHI)
    z, zth, zmeta = zero_sum_variant(asym)
    assert validate(z, EXACT).ok
    for s, a in z.rows():
        assert z.rewards[s][a][1] == -z.rewards[s][a][0]
    dec = threshold_decide_positional(z, 0, zth, mode=EXACT)
    assert dec.satisfied
    assert assignment_satisfies(PHI, decode_assignment(z, dec.witness))
    z2, z2th, _ = zero_sum_variant(sat_reduction(PADDED_UNSAT)[0])
    assert not threshold_decide_positional(z2, 0, z2th, mode=EXACT).satisfied


def test_zero_sum_variant_wrong_input(investment):
    with pytest.raises(ValueError):
        zero_sum_variant(investment)


def test_zero_sum_variant_after_reload():
    from mdpwf import loads

    asym, _, _ = sat_reduction(PHI)
    reloaded = loads(dumps(asym))
    z, zth, _ = zero_sum_variant(reloaded)
    dec = threshold_decide_positional(z, 0, zth, mode=EXACT)
    assert dec.satisfied
    assert assignment_satisfies(PHI, decode_assignment(z, dec.witness))


# -- formula families ----------------------------------------------------------


def test_representatives_are_canonical_and_cover_sizes():
    reps = small_formula_representatives(2, 2)
    assert all(f.num_vars in (1, 2) for f in reps)
    assert all(1 <= f.num_clauses <= 2 for f in reps)
    # the padded contradiction pattern survives deduplication
    assert any(
        sorted(f.clauses) == [(1, 1, 1), (-1, -1, -1)] or
        sorted(f.clauses) == [(-1, -1, -1), (1, 1, 1)]
        for f in reps if f.num_vars == 1
    )


def test_reduction_agrees_with_truth_table_spotcheck():
    reps = small_formula_representatives(2, 2)
    for cnf in reps[:40]:
        asym, threshold, _ = sat_reduction(cnf)
        dec = threshold_decide_positional(asym, 0, threshold, mode=EXACT)
        assert dec.satisfied == truth_table_satisfiable(cnf), cnf.clauses
        if dec.satisfied:
            assert assignment_satisfies(cnf, decode_assignment(asym, dec.witness))
