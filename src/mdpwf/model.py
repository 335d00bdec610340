"""Core data model: MDPs with per-principal rewards and discount factors.

Model values are immutable after construction and hold exact rationals;
see `numeric` for how computation modes consume them.  The on-disk format
is a small JSON record documented in the README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, pairwise

import numpy as np

from .errors import FormatError, LoadError
from .numeric import FLOAT, ROW_SUM_TOL, NumericMode, as_fraction, format_fraction


@dataclass(frozen=True)
class Principal:
    name: str
    discount: Fraction


@dataclass
class Mdp:
    """Finite MDP with dense state indices and per-state action lists.

    transitions[s][a] is a list of (successor index, probability) pairs.
    """

    states: list[str]
    actions: list[list[str]]
    transitions: list[list[list[tuple[int, Fraction]]]]

    @property
    def n_states(self):
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None


@dataclass
class AsymMdp:
    """An MDP shared by several principals with descending discount factors.

    rewards[s][a][i] is principal i's immediate reward for taking action a
    in state s.  Treat instances as immutable; solvers cache derived views.
    """

    mdp: Mdp
    principals: list[Principal]
    rewards: list[list[list[Fraction]]]
    metadata: dict = field(default_factory=dict, compare=False)
    _views: dict = field(default_factory=dict, repr=False, compare=False)

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, states, principals, actions, metadata=None):
        """Assemble a model from name-based action specs.

        `actions` is an iterable of (state, action, transitions, reward)
        where transitions is a list of (successor name, prob) and reward
        is a scalar (shared by all principals), a per-principal list, or
        None for all-zero.  Missing rewards materialize as 0.
        """
        states = list(states)
        principal_objs = [
            Principal(str(n), as_fraction(d)) for n, d in principals
        ]
        index = {}
        for i, s in enumerate(states):
            if s in index:
                raise FormatError(f"duplicate state name {s!r}")
            index[s] = i
        n_p = len(principal_objs)
        act_names = [[] for _ in states]
        act_trans = [[] for _ in states]
        act_rewards = [[] for _ in states]
        for spec in actions:
            state, action, transitions, reward = spec
            if state not in index:
                raise FormatError(f"action {action!r} refers to unknown state {state!r}")
            s = index[state]
            if action in act_names[s]:
                raise FormatError(f"duplicate action {action!r} in state {state!r}")
            succ = []
            for to, prob in transitions:
                if to not in index:
                    raise FormatError(
                        f"transition of ({state!r}, {action!r}) targets unknown state {to!r}"
                    )
                succ.append((index[to], as_fraction(prob)))
            if reward is None:
                rew = [Fraction(0)] * n_p
            elif isinstance(reward, (list, tuple)):
                if len(reward) > n_p:
                    raise FormatError(
                        f"reward list of ({state!r}, {action!r}) longer than principal list"
                    )
                rew = [as_fraction(r) for r in reward]
                rew += [Fraction(0)] * (n_p - len(rew))
            else:
                rew = [as_fraction(reward)] * n_p
            act_names[s].append(str(action))
            act_trans[s].append(succ)
            act_rewards[s].append(rew)
        mdp = Mdp(states=states, actions=act_names, transitions=act_trans)
        return cls(
            mdp=mdp,
            principals=principal_objs,
            rewards=act_rewards,
            metadata=dict(metadata or {}),
        )

    # -- derived views -------------------------------------------------

    @property
    def n_states(self):
        return self.mdp.n_states

    @property
    def n_principals(self):
        return len(self.principals)

    @property
    def discounts(self) -> list[Fraction]:
        return [p.discount for p in self.principals]

    def state_index(self, name):
        return self.mdp.state_index(name)

    def action_index(self, s: int, name: str) -> int:
        try:
            return self.mdp.actions[s].index(name)
        except ValueError:
            raise KeyError(
                f"state {self.mdp.states[s]!r} has no action {name!r}"
            ) from None

    def rows(self):
        """Iterate (state, local action index) over all enabled pairs."""
        for s in range(self.n_states):
            for a in range(len(self.mdp.actions[s])):
                yield s, a

    def with_discounts(self, discounts) -> "AsymMdp":
        """Copy of the model with replaced discount factors."""
        if len(discounts) != self.n_principals:
            raise ValueError("discount count must match principal count")
        principals = [
            Principal(p.name, as_fraction(d))
            for p, d in zip(self.principals, discounts)
        ]
        return AsymMdp(
            mdp=self.mdp,
            principals=principals,
            rewards=self.rewards,
            metadata=dict(self.metadata),
        )

    def float_view(self, mode: NumericMode = FLOAT) -> "FloatView":
        """The model's row arrays in the number type of `mode`, cached."""
        if mode.is_exact not in self._views:
            self._views[mode.is_exact] = FloatView(self, mode)
        return self._views[mode.is_exact]


class FloatView:
    """Flattened arrays over the enabled (state, action) rows, in CSR form.

    Numbers are binary64 in float mode and `object` arrays holding the
    model's own Fractions in exact mode, so one array expression serves
    both; index arrays are int64 either way."""

    def __init__(self, asym: AsymMdp, mode: NumericMode = FLOAT):
        mdp = asym.mdp
        rows = list(asym.rows())
        pairs = [mdp.transitions[s][a] for s, a in rows]
        counts = [len(acts) for acts in mdp.actions]
        succ_counts = [len(p) for p in pairs]
        self.dtype = mode.dtype
        self.n_states = mdp.n_states
        self.n_rows = len(rows)
        self.n_principals = asym.n_principals
        self.discounts = self._numbers(asym.discounts)
        self.row_ptr = np.array([*accumulate(counts, initial=0)], dtype=np.int64)
        self.row_state = np.repeat(np.arange(self.n_states), counts)
        self.row_index = np.arange(self.n_rows)
        self.local_action = self.row_index - self.row_ptr[self.row_state]  # a of row (s, a)
        self.succ_ptr = np.array([*accumulate(succ_counts, initial=0)], dtype=np.int64)
        self.succ_row = np.repeat(self.row_index, succ_counts)  # row of each entry
        self.succ_idx = np.array([t for row in pairs for t, _ in row], dtype=np.int64)
        self.succ_prob = self._numbers([p for row in pairs for _, p in row])
        self.rewards = self._numbers(
            [r for s, a in rows for r in asym.rewards[s][a]]
        ).reshape(self.n_rows, self.n_principals)

    def _numbers(self, values):
        if self.dtype is object:
            return np.array(values, dtype=object)
        # float() converts a Fraction faster than numpy's cast, to the same double
        return np.array([float(x) for x in values], dtype=np.float64)


# -- validation ---------------------------------------------------------


@dataclass
class ValidationResult:
    violations: list[str]

    @property
    def ok(self):
        return not self.violations


def _order_violations(asym: AsymMdp):
    """(discount, next discount, message) for each consecutive pair of
    principals whose discounts do not strictly descend."""
    return [
        (
            a.discount,
            b.discount,
            "discounts not strictly descending: "
            f"{a.name!r} ({format_fraction(a.discount)}) vs "
            f"{b.name!r} ({format_fraction(b.discount)})",
        )
        for a, b in pairwise(asym.principals)
        if a.discount <= b.discount
    ]


def validate(asym: AsymMdp, mode: NumericMode = FLOAT) -> ValidationResult:
    """Check every model invariant; violations are data, not exceptions."""
    v = []
    mdp = asym.mdp
    if not mdp.states:
        v.append("model has no states")
    if not asym.principals:
        v.append("model has no principals")
    for p in asym.principals:
        if not (0 < p.discount < 1):
            v.append(f"discount of principal {p.name!r} = {format_fraction(p.discount)} "
                     "is outside (0, 1)")
    v.extend(message for _, _, message in _order_violations(asym))
    seen_states = set()
    for name in mdp.states:
        if name in seen_states:
            v.append(f"duplicate state name {name!r}")
        seen_states.add(name)
    for s, name in enumerate(mdp.states):
        if not mdp.actions[s]:
            v.append(f"state {name!r} has no enabled action")
        seen = set()
        for a, act in enumerate(mdp.actions[s]):
            if act in seen:
                v.append(f"duplicate action {act!r} in state {name!r}")
            seen.add(act)
            pairs = mdp.transitions[s][a]
            if not pairs:
                v.append(f"({name!r}, {act!r}) has no successors")
                continue
            total = Fraction(0)
            for t, p in pairs:
                if not (0 <= t < mdp.n_states):
                    v.append(f"({name!r}, {act!r}) targets invalid state index {t}")
                if not (0 < p <= 1):
                    v.append(
                        f"({name!r}, {act!r}) has probability "
                        f"{format_fraction(p)} outside (0, 1]"
                    )
                total += p
            if mode.is_exact:
                if total != 1:
                    v.append(
                        f"({name!r}, {act!r}) probabilities sum to "
                        f"{format_fraction(total)}, not 1"
                    )
            elif abs(float(total) - 1.0) > ROW_SUM_TOL:
                v.append(
                    f"({name!r}, {act!r}) probabilities sum to {float(total)!r}, not 1"
                )
            if len(asym.rewards[s][a]) != asym.n_principals:
                v.append(f"({name!r}, {act!r}) reward list has wrong length")
    return ValidationResult(v)


def merge_equal_discounts(asym: AsymMdp) -> AsymMdp:
    """Merge principals sharing a discount factor, summing their rewards.

    Social welfare of every strategy is preserved; the output has strictly
    descending discounts.
    """
    order = sorted(
        range(asym.n_principals),
        key=lambda i: (-asym.principals[i].discount, i),
    )
    groups: list[list[int]] = []
    for i in order:
        if groups and asym.principals[groups[-1][0]].discount == asym.principals[i].discount:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) == asym.n_principals and order == list(range(asym.n_principals)):
        return asym
    principals = [
        Principal(
            "+".join(asym.principals[i].name for i in g),
            asym.principals[g[0]].discount,
        )
        for g in groups
    ]
    rewards = [
        [
            [sum((asym.rewards[s][a][i] for i in g), Fraction(0)) for g in groups]
            for a in range(len(asym.mdp.actions[s]))
        ]
        for s in range(asym.n_states)
    ]
    return AsymMdp(
        mdp=asym.mdp,
        principals=principals,
        rewards=rewards,
        metadata=dict(asym.metadata),
    )


# -- discount spacing ----------------------------------------------------


@dataclass
class SpacingPair:
    index: int  # pair (index, index + 1)
    spacing: Fraction  # 1 / (lam_i / lam_{i+1} - 1)
    reasonably_spaced: bool


@dataclass
class SpacingReport:
    bound: Fraction
    pairs: list[SpacingPair]

    @property
    def all_spaced(self):
        return all(p.reasonably_spaced for p in self.pairs)


def spacing_report(asym: AsymMdp, bound) -> SpacingReport:
    """Report 1/(lam_i/lam_{i+1} - 1) for each consecutive discount pair.

    A pair is flagged reasonably spaced when the value is <= bound.
    """
    bound = as_fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    pairs = []
    lams = asym.discounts
    for i in range(len(lams) - 1):
        if lams[i] <= lams[i + 1]:
            raise ValueError("spacing_report requires strictly descending discounts")
        spacing = 1 / (lams[i] / lams[i + 1] - 1)
        pairs.append(SpacingPair(i, spacing, spacing <= bound))
    return SpacingReport(bound=bound, pairs=pairs)


# -- file format ----------------------------------------------------------

_TOP_FIELDS = {"states", "principals", "actions", "metadata"}
_PRINCIPAL_FIELDS = {"name", "discount"}
_ACTION_FIELDS = {"state", "action", "reward", "transitions"}
_TRANSITION_FIELDS = {"to", "prob"}


def _check_fields(record, allowed, where):
    if not isinstance(record, dict):
        raise FormatError("expected an object", location=where)
    for key in record:
        if key not in allowed:
            raise FormatError(f"unknown field {key!r}", location=where)


_KIND_NAMES = {str: "string", list: "list"}


def _field(rec, name, where, kind=None):
    """rec[name], once rec is an object holding it (of type `kind` if given)."""
    if not isinstance(rec, dict):
        raise FormatError("expected an object", location=where)
    if name not in rec:
        raise FormatError(f"missing field {name!r}", location=where)
    value = rec[name]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(
            f"field {name!r} must be a {_KIND_NAMES[kind]}, not {value!r}", location=where
        )
    return value


def _parse_number(value, where):
    try:
        return as_fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise FormatError(f"bad number {value!r}: {e}", location=where) from None


def _read_json(text):
    """The JSON value of a model or strategy file; malformed JSON raises
    FormatError (naming its line where json reports one)."""
    try:
        # parse_float keeps the literal text so decimals stay exact
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}") from None
    except ValueError as e:  # an integer literal past the int-to-str digit limit
        raise FormatError(f"invalid JSON: {e}") from None


def loads(text: str, validate_mode: NumericMode = FLOAT) -> AsymMdp:
    """Parse the JSON model format; validation failures raise LoadError."""
    raw = _read_json(text)
    _check_fields(raw, _TOP_FIELDS, "top level")
    states = _field(raw, "states", "top level", list)
    principal_records = _field(raw, "principals", "top level", list)
    action_records = _field(raw, "actions", "top level", list)
    for k, name in enumerate(states):
        if not isinstance(name, str):
            raise FormatError(
                f"state name must be a string, not {name!r}", location=f"states[{k}]"
            )
    principals = []
    for k, p in enumerate(principal_records):
        where = f"principals[{k}]"
        _check_fields(p, _PRINCIPAL_FIELDS, where)
        name = _field(p, "name", where, str)
        principals.append((name, _parse_number(_field(p, "discount", where), where)))
    actions = []
    for k, rec in enumerate(action_records):
        where = f"actions[{k}]"
        _check_fields(rec, _ACTION_FIELDS, where)
        state = _field(rec, "state", where, str)
        action = _field(rec, "action", where, str)
        reward = rec.get("reward")
        if reward is not None:
            reward = [_parse_number(x, where) for x in _field(rec, "reward", where, list)]
        transitions = []
        for j, tr in enumerate(_field(rec, "transitions", where, list)):
            twhere = f"{where}.transitions[{j}]"
            _check_fields(tr, _TRANSITION_FIELDS, twhere)
            to = _field(tr, "to", twhere, str)
            transitions.append((to, _parse_number(_field(tr, "prob", twhere), twhere)))
        actions.append((state, action, transitions, reward))
    asym = AsymMdp.build(
        states=states,
        principals=principals,
        actions=actions,
        metadata=raw.get("metadata"),
    )
    result = validate(asym, validate_mode)
    if not result.ok:
        raise LoadError(result.violations)
    return asym


def load(path, validate_mode: NumericMode = FLOAT) -> AsymMdp:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read(), validate_mode)


def _json_number(q: Fraction, where):
    """q as an int or 'p/q' text; FormatError at `where` if `loads` could not read it back."""
    try:
        text = str(q)
    except ValueError as e:
        raise FormatError(f"number not writable: {e}", location=where) from None
    return q.numerator if q.denominator == 1 else text


def dumps(asym: AsymMdp) -> str:
    """Canonical serialization: declaration-ordered states, lexicographic
    actions within each state, exact 'p/q' literals.  Stable byte-for-byte."""
    mdp = asym.mdp
    actions = []
    for s in range(asym.n_states):
        for a in sorted(range(len(mdp.actions[s])), key=lambda a: mdp.actions[s][a]):
            where = f"state {mdp.states[s]!r}, action {mdp.actions[s][a]!r}"
            actions.append(
                {
                    "state": mdp.states[s],
                    "action": mdp.actions[s][a],
                    "reward": [_json_number(r, where) for r in asym.rewards[s][a]],
                    "transitions": [
                        {"to": mdp.states[t], "prob": _json_number(p, where)}
                        for t, p in mdp.transitions[s][a]
                    ],
                }
            )
    doc = {
        "states": list(mdp.states),
        "principals": [
            {"name": p.name, "discount": _json_number(p.discount, f"principal {p.name!r}")}
            for p in asym.principals
        ],
        "actions": actions,
    }
    if asym.metadata:
        doc["metadata"] = asym.metadata
    return json.dumps(doc, indent=2) + "\n"


def save(asym: AsymMdp, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(asym))
