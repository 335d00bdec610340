"""Instance generators: worked examples, the badly-spaced discount family,
seeded random MDPs, and the 3-SAT hardness reduction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError
from .model import AsymMdp
from .numeric import as_fraction, format_fraction
from .rng import Xoshiro256StarStar

# -- worked examples -------------------------------------------------------


def _investment():
    return AsymMdp.build(
        states=["s0", "s1"],
        principals=[("Alice", Fraction(2, 3)), ("Bob", Fraction(1, 3))],
        actions=[
            ("s0", "a", [("s0", 1)], 3),
            ("s0", "b", [("s1", 1)], -1),
            ("s1", "b", [("s1", 1)], 6),
        ],
        metadata={"kind": "builtin", "name": "investment"},
    )


def _appendix_ex2():
    return AsymMdp.build(
        states=["s0", "s1", "s2", "s3"],
        principals=[("P0", Fraction(9, 10)), ("P1", Fraction(3, 10))],
        actions=[
            ("s0", "a", [("s1", Fraction(1, 2)), ("s2", Fraction(1, 2))], Fraction(11, 4)),
            ("s0", "b", [("s0", Fraction(3, 5)), ("s3", Fraction(2, 5))], 0),
            ("s1", "c", [("s1", Fraction(3, 10)), ("s2", Fraction(2, 5)), ("s3", Fraction(3, 10))], 3),
            ("s1", "d", [("s0", Fraction(1, 2)), ("s3", Fraction(1, 2))], Fraction(-1, 2)),
            ("s2", "e", [("s2", 1)], 1),
            ("s3", "f", [("s3", 1)], Fraction(5, 2)),
        ],
        metadata={"kind": "builtin", "name": "appendix_ex2"},
    )


def _appendix_ex3():
    return AsymMdp.build(
        states=["s0", "s1", "s2", "s3", "s4", "s5"],
        principals=[("P0", Fraction(99, 100)), ("P1", Fraction(1, 100))],
        actions=[
            ("s0", "a", [("s4", 1)], 1),
            ("s0", "b", [("s1", 1)], 0),
            ("s1", "c", [("s1", 1)], 10),
            ("s1", "d", [("s2", 1)], 0),
            ("s2", "e", [("s2", 1)], 7),
            ("s2", "f", [("s3", 1)], 5),
            ("s3", "g", [("s3", 1)], 11),
            ("s4", "h", [("s5", 1)], 0),
            ("s4", "j", [("s1", 1)], -2),
            ("s5", "k", [("s3", 1)], 0),
        ],
        metadata={"kind": "builtin", "name": "appendix_ex3"},
    )


def _appendix_ex4():
    return AsymMdp.build(
        states=["s0", "s1", "s2", "s3", "s4", "s5", "s6"],
        principals=[("P0", Fraction(22, 25)), ("P1", Fraction(3, 20))],
        actions=[
            ("s0", "a", [("s4", 1)], Fraction(21, 2)),
            ("s0", "b", [("s1", 1)], 0),
            ("s1", "c", [("s1", 1)], 10),
            ("s1", "d", [("s2", 1)], 0),
            ("s2", "e", [("s2", 1)], 7),
            ("s2", "f", [("s3", 1)], 5),
            ("s3", "g", [("s3", 1)], 20),
            ("s4", "h", [("s5", 1)], 0),
            ("s4", "j", [("s1", 1)], -2),
            ("s5", "k", [("s6", 1)], 0),
            ("s6", "m", [("s3", 1)], 0),
        ],
        metadata={"kind": "builtin", "name": "appendix_ex4"},
    )


_BUILTINS = {
    "investment": _investment,
    "appendix_ex2": _appendix_ex2,
    "appendix_ex3": _appendix_ex3,
    "appendix_ex4": _appendix_ex4,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> AsymMdp:
    """One of the worked-example models, transcribed state by state."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()


def badly_spaced(n: int) -> AsymMdp:
    """Three-state family whose discount pair (n/(2n-1), (n+1)/(2n+1))
    violates reasonable spacing: the unrolling depth grows like n^2 log n."""
    if n < 2:
        raise ValueError("badly_spaced requires n >= 2")
    return AsymMdp.build(
        states=["P0", "S1", "S2"],
        principals=[
            ("P0", Fraction(n, 2 * n - 1)),
            ("P1", Fraction(n + 1, 2 * n + 1)),
        ],
        actions=[
            ("P0", "go", [("S1", Fraction(1, 2)), ("P0", Fraction(1, 2))], 0),
            ("S1", "loop", [("S1", 1)], [1, 0]),
            ("S1", "move", [("S2", 1)], [2, 2]),
            ("S2", "stay", [("S2", 1)], [0, 2]),
        ],
        metadata={"kind": "badly_spaced", "n": n},
    )


# -- seeded random instances ----------------------------------------------

_REWARD_GRID = 1000  # rewards land on the 1/1000 rational grid
_WEIGHT_MAX = 2**20


@dataclass
class RandomMdpConfig:
    num_states: int
    actions_per_state: int = 2
    num_principals: int = 2
    discounts: list | None = None  # explicit list; None selects the progression
    progression_hi: Fraction = Fraction(99, 100)
    progression_lo: Fraction = Fraction(5, 100)
    successors: tuple = (1, 3)
    reward_range: tuple = (-10, 10)
    seed: int = 0

    def resolved_discounts(self) -> list[Fraction]:
        if self.discounts is not None:
            lams = [as_fraction(d) for d in self.discounts]
        else:
            n = self.num_principals
            if n == 1:
                lams = [self.progression_hi]
            else:
                step = (self.progression_hi - self.progression_lo) / (n - 1)
                lams = [self.progression_hi - i * step for i in range(n)]
        if len(lams) != self.num_principals:
            raise ValueError("discount list length must match num_principals")
        for a, b in zip(lams, lams[1:]):
            if a <= b:
                raise ValueError("discounts must be strictly descending")
        if any(not (0 < d < 1) for d in lams):
            raise ValueError("discounts must lie in (0, 1)")
        return lams


def _action_names(k: int) -> list[str]:
    if k <= 26:
        return [chr(ord("a") + i) for i in range(k)]
    return [f"a{i:04d}" for i in range(k)]


def random_mdp(cfg: RandomMdpConfig) -> AsymMdp:
    """Deterministic random instance: per (s, a), a uniform successor count
    in cfg.successors, distinct successors, integer-weighted probabilities,
    and grid rewards.  Identical seeds give identical canonical bytes."""
    if cfg.num_states < 1 or cfg.actions_per_state < 1:
        raise ValueError("need at least one state and one action per state")
    if cfg.num_principals < 1:
        raise ValueError("need at least one principal")
    lo, hi = cfg.successors
    if not (1 <= lo <= hi):
        raise ValueError("successor range must satisfy 1 <= lo <= hi")
    if lo > cfg.num_states:
        raise ValueError("successors_per_action exceeds the number of states")
    hi = min(hi, cfg.num_states)
    r_lo = as_fraction(cfg.reward_range[0]) * _REWARD_GRID
    r_hi = as_fraction(cfg.reward_range[1]) * _REWARD_GRID
    if r_lo.denominator != 1 or r_hi.denominator != 1 or r_lo > r_hi:
        raise ValueError("reward range endpoints must be multiples of 1/1000, lo <= hi")
    lams = cfg.resolved_discounts()
    rng = Xoshiro256StarStar(cfg.seed)
    states = [f"s{i}" for i in range(cfg.num_states)]
    names = _action_names(cfg.actions_per_state)
    actions = []
    for s in range(cfg.num_states):
        for name in names:
            k = rng.integer(lo, hi)
            succs = rng.sample_distinct(k, cfg.num_states)
            weights = [rng.integer(1, _WEIGHT_MAX) for _ in succs]
            total = sum(weights)
            transitions = [
                (states[t], Fraction(w, total)) for t, w in zip(succs, weights)
            ]
            rewards = [
                Fraction(rng.integer(int(r_lo), int(r_hi)), _REWARD_GRID)
                for _ in range(cfg.num_principals)
            ]
            actions.append((states[s], name, transitions, rewards))
    return AsymMdp.build(
        states=states,
        principals=[(f"P{i}", lam) for i, lam in enumerate(lams)],
        actions=actions,
        metadata={"kind": "random", "seed": cfg.seed},
    )


# -- 3-SAT reduction --------------------------------------------------------


@dataclass
class CnfFormula:
    """3-CNF with nonzero signed literals of magnitude <= num_vars."""

    num_vars: int
    clauses: list  # list of 3-tuples

    def __post_init__(self):
        self.clauses = [tuple(c) for c in self.clauses]
        for c in self.clauses:
            if len(c) != 3:
                raise FormatError(f"clause {c} does not have exactly 3 literals")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise FormatError(f"literal {lit} out of range in clause {c}")

    @property
    def num_clauses(self):
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF: `p cnf V C` header, 0-terminated clause lines."""
    num_vars = None
    expected_clauses = None
    clauses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"bad problem line {line!r}", location=f"line {lineno}")
            num_vars, expected_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise FormatError("clause before problem line", location=f"line {lineno}")
        try:
            lits = [int(x) for x in line.split()]
        except ValueError:
            raise FormatError(f"bad clause line {line!r}", location=f"line {lineno}") from None
        if not lits or lits[-1] != 0:
            raise FormatError("clause line must end with 0", location=f"line {lineno}")
        lits = lits[:-1]
        if len(lits) != 3:
            raise FormatError(
                f"clause must have exactly 3 literals, got {len(lits)}",
                location=f"line {lineno}",
            )
        clauses.append(tuple(lits))
    if num_vars is None:
        raise FormatError("missing problem line")
    if expected_clauses is not None and expected_clauses != len(clauses):
        raise FormatError(
            f"header announces {expected_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars=num_vars, clauses=clauses)


def _lit_state(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"nx{-lit}"


def _discount_path_gain(lam: Fraction) -> Fraction:
    """Payoff of the deterministic walk 0,0,-1,(+1)^w from the start:
    -lam^2 + lam^3/(1-lam)."""
    return lam**3 / (1 - lam) - lam**2


def reduction_constants(lam0: Fraction, lam1: Fraction, signs=(1, 1)):
    """Per-branch welfare contributions of the clause/variable gadgets.

    Returns (c_short, c_long): the welfare contribution of a variable
    branch resolved its good way and of a clause branch resolved its good
    way.  `signs` are per-principal reward multipliers."""
    g0 = signs[0] * _discount_path_gain(lam0)
    g1 = signs[1] * _discount_path_gain(lam1)
    short_top = g0 + g1
    long_top = lam0 * g0 + lam1 * g1
    c_short = abs(short_top)
    c_long = abs(long_top)
    return c_short, c_long, short_top, long_top


def _build_reduction(cnf: CnfFormula, principals, signs, kind: str):
    n, m = cnf.num_vars, cnf.num_clauses
    lam0, lam1 = principals[0][1], principals[1][1]
    c_short, c_long, short_top, long_top = reduction_constants(lam0, lam1, signs)
    if short_top == 0 or long_top == 0 or (short_top > 0) == (long_top > 0):
        raise ValueError("reduction discounts must make short and long paths disagree")
    states = ["s0", "TOP", "BOT"]
    states += [f"C{i}" for i in range(1, m + 1)]
    states += [f"C{i}p" for i in range(1, m + 1)]
    states += [f"Vx{j}" for j in range(1, n + 1)]
    states += [_lit_state(j) for j in range(1, n + 1)]
    states += [_lit_state(-j) for j in range(1, n + 1)]
    branch = Fraction(1, n + m)
    actions = [
        (
            "s0",
            "down",
            [(f"C{i}", branch) for i in range(1, m + 1)]
            + [(f"Vx{j}", branch) for j in range(1, n + 1)],
            None,
        ),
        ("TOP", "stay", [("TOP", 1)], [s * 1 for s in signs]),
        ("BOT", "stay", [("BOT", 1)], [s * -1 for s in signs]),
    ]
    for i, clause in enumerate(cnf.clauses, start=1):
        actions.append((f"C{i}", "down", [(f"C{i}p", 1)], None))
        for lit in sorted(set(clause), key=_lit_state):
            actions.append((f"C{i}p", f"to_{_lit_state(lit)}", [(_lit_state(lit), 1)], None))
    for j in range(1, n + 1):
        for lit in (-j, j):
            actions.append((f"Vx{j}", f"to_{_lit_state(lit)}", [(_lit_state(lit), 1)], None))
    for j in range(1, n + 1):
        for lit in (j, -j):
            actions.append((_lit_state(lit), "to_BOT", [("BOT", 1)], [s * 1 for s in signs]))
            actions.append((_lit_state(lit), "to_TOP", [("TOP", 1)], [s * -1 for s in signs]))
    threshold = (m * c_long + n * c_short) / (n + m)
    # true literals route the clause branches to their good sink
    true_sink = "TOP" if long_top > 0 else "BOT"
    metadata = {
        "kind": kind,
        "num_vars": n,
        "num_clauses": m,
        "threshold": format_fraction(threshold),
        "c_short": format_fraction(c_short),
        "c_long": format_fraction(c_long),
        "true_sink": true_sink,
    }
    asym = AsymMdp.build(
        states=states, principals=principals, actions=actions, metadata=metadata
    )
    return asym, threshold, metadata


def sat_reduction(cnf: CnfFormula):
    """The hardness reduction: a two-principal model whose optimal
    positional welfare reaches the bundled threshold iff the formula is
    satisfiable.  Returns (model, threshold, metadata)."""
    principals = [("P0", Fraction(27, 50)), ("P1", Fraction(2, 5))]
    return _build_reduction(cnf, principals, (1, 1), "sat-reduction")


def zero_sum_variant(asym: AsymMdp):
    """Zero-sum twin of a reduction instance: principal 1's rewards are
    negated and the discount pair is replaced so the short/long imbalance
    survives.  Experimental: the companion construction to the
    identical-rewards reduction, with a locally chosen discount pair."""
    if asym.metadata.get("kind") != "sat-reduction":
        raise ValueError("zero_sum_variant expects a sat-reduction model")
    if asym.n_principals != 2:
        raise ValueError("zero_sum_variant expects exactly two principals")
    cnf = CnfFormula(
        num_vars=asym.metadata["num_vars"],
        clauses=_clauses_from_model(asym),
    )
    principals = [("P0", Fraction(9, 20)), ("P1", Fraction(1, 4))]
    return _build_reduction(cnf, principals, (1, -1), "sat-reduction-zero-sum")


def _clauses_from_model(asym):
    """Recover clause literal sets from a reduction model's action names."""
    clauses = []
    m = asym.metadata["num_clauses"]
    for i in range(1, m + 1):
        s = asym.state_index(f"C{i}p")
        lits = []
        for name in asym.mdp.actions[s]:
            target = name[len("to_"):]
            lits.append(-int(target[2:]) if target.startswith("nx") else int(target[1:]))
        while len(lits) < 3:
            lits.append(lits[0])  # padded clauses collapse to fewer actions
        clauses.append(tuple(lits[:3]))
    return clauses


def decode_assignment(asym: AsymMdp, sigma) -> dict:
    """Read a variable assignment off a positional strategy: variable j is
    true when its positive literal state moves to the bundled true sink."""
    true_action = f"to_{asym.metadata['true_sink']}"
    out = {}
    for j in range(1, asym.metadata["num_vars"] + 1):
        s = asym.state_index(_lit_state(j))
        out[f"x{j}"] = asym.mdp.actions[s][sigma[s]] == true_action
    return out


def assignment_satisfies(cnf: CnfFormula, assignment: dict) -> bool:
    for clause in cnf.clauses:
        if not any(
            assignment[f"x{abs(lit)}"] == (lit > 0) for lit in clause
        ):
            return False
    return True


def truth_table_satisfiable(cnf: CnfFormula) -> bool:
    """Independent satisfiability oracle by exhaustive assignment check."""
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assignment = {f"x{j + 1}": bits[j] for j in range(cnf.num_vars)}
        if assignment_satisfies(cnf, assignment):
            return True
    return False


# -- exhaustive small-formula families --------------------------------------


def _canonical_clause(lits) -> tuple:
    return tuple(sorted(lits, key=lambda l: (abs(l), l < 0)))


def all_clauses(num_vars: int) -> list:
    """Every canonical 3-literal clause (as a multiset) over num_vars."""
    literals = sorted(
        [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)],
        key=lambda l: (abs(l), l < 0),
    )
    return [
        _canonical_clause(c)
        for c in itertools.combinations_with_replacement(literals, 3)
    ]


def _signed_permutations(num_vars: int):
    for perm in itertools.permutations(range(1, num_vars + 1)):
        for flips in itertools.product((1, -1), repeat=num_vars):
            yield perm, flips


def small_formula_representatives(max_vars: int = 3, max_clauses: int = 3):
    """Representatives of every <=max_vars-variable, <=max_clauses-clause
    3-CNF (distinct clauses) up to variable renaming and polarity flips.

    Renaming and flipping are isomorphisms of the reduction model, so a
    property checked on representatives covers the whole family.  Clause
    combinations are visited in lexicographic order, so the first one met
    of each orbit is its least member, the representative; its whole orbit
    is then marked seen and skipped.
    """
    reps = []
    for n in range(1, max_vars + 1):
        clauses = all_clauses(n)
        index = {c: k for k, c in enumerate(clauses)}
        images = []
        for perm, flips in _signed_permutations(n):
            img = []
            for c in clauses:
                img.append(
                    index[
                        _canonical_clause(
                            tuple(
                                (1 if lit > 0 else -1) * flips[abs(lit) - 1] * perm[abs(lit) - 1]
                                for lit in c
                            )
                        )
                    ]
                )
            images.append(img)
        for k in range(1, max_clauses + 1):
            seen = set()
            for combo in itertools.combinations(range(len(clauses)), k):
                if combo in seen:
                    continue
                seen.update(tuple(sorted(img[c] for c in combo)) for img in images)
                reps.append(CnfFormula(num_vars=n, clauses=[clauses[c] for c in combo]))
    return reps
