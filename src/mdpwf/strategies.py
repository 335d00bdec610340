"""Strategy representations and their JSON file format.

Positional strategies are plain lists of local action indices (one per
state).  Mixed stationary and counting strategies get small dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DisabledActionError, FormatError
from .model import AsymMdp, _check_fields, _field, _parse_number, _read_json
from .numeric import ROW_SUM_TOL, NumericMode, format_fraction

# One enabled action index per state.
Positional = "list[int]"


def positional_from_names(asym: AsymMdp, mapping: dict) -> list[int]:
    """Translate {state name: action name} into local action indices."""
    sigma = []
    for s, state in enumerate(asym.mdp.states):
        if state not in mapping:
            raise FormatError(f"strategy does not cover state {state!r}")
        sigma.append(asym.action_index(s, mapping[state]))
    return sigma


def positional_names(asym: AsymMdp, sigma: list[int]) -> dict:
    return {
        asym.mdp.states[s]: asym.mdp.actions[s][a] for s, a in enumerate(sigma)
    }


def check_positional(asym: AsymMdp, sigma) -> None:
    if len(sigma) != asym.n_states:
        raise DisabledActionError("strategy length does not match state count")
    for s, a in enumerate(sigma):
        if not (0 <= a < len(asym.mdp.actions[s])):
            raise DisabledActionError(
                f"state {asym.mdp.states[s]!r} has no action index {a}"
            )


@dataclass
class MixedStationaryStrategy:
    """Per-state probability distribution over the enabled actions."""

    probs: list[list[Fraction]]  # aligned with mdp.actions[s]

    def check(self, asym: AsymMdp, mode: NumericMode) -> None:
        """Arity, signs and sums: exactly 1 in exact mode, within ROW_SUM_TOL in float mode."""
        if len(self.probs) != asym.n_states:
            raise DisabledActionError("distribution list does not match state count")
        for s, dist in enumerate(self.probs):
            if len(dist) != len(asym.mdp.actions[s]):
                raise DisabledActionError(
                    f"distribution at state {asym.mdp.states[s]!r} has wrong arity"
                )
            if any(p < 0 for p in dist):
                raise DisabledActionError(
                    f"negative probability at state {asym.mdp.states[s]!r}"
                )
            total = sum(dist)
            ok = total == 1 if mode.is_exact else abs(float(total) - 1.0) <= ROW_SUM_TOL
            if not ok:
                raise DisabledActionError(
                    f"probabilities at state {asym.mdp.states[s]!r} sum to "
                    f"{format_fraction(Fraction(total))}, not 1"
                )

    @classmethod
    def point(cls, asym: AsymMdp, sigma: list[int]) -> "MixedStationaryStrategy":
        probs = []
        for s, a in enumerate(sigma):
            dist = [Fraction(0)] * len(asym.mdp.actions[s])
            dist[a] = Fraction(1)
            probs.append(dist)
        return cls(probs)


@dataclass
class CountingStrategy:
    """Step-indexed prefix table of depth kappa plus a positional tail."""

    kappa: int
    prefix: list[list[int]]  # prefix[j][s], j in 0..kappa-1
    tail: list[int]

    def action_at(self, step: int, state: int) -> int:
        if step < self.kappa:
            return self.prefix[step][state]
        return self.tail[state]

    def check(self, asym: AsymMdp) -> None:
        if self.kappa != len(self.prefix):
            raise DisabledActionError("prefix depth does not match kappa")
        check_positional(asym, self.tail)
        checked = None
        for row in self.prefix:
            if row != checked:  # a row equal to the one before is valid too
                check_positional(asym, row)
                checked = row


# -- strategy files -------------------------------------------------------

_TOP_FIELDS = {
    "positional": {"type", "actions"},
    "mixed": {"type", "distributions"},
    "counting": {"type", "kappa", "prefix", "tail", "report"},
}


def _int_field(rec, name, where):
    value = _field(rec, name, where)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise FormatError(f"field {name!r} is not an integer: {value!r}", location=where) from None


def _by_state(asym, records, where, name, kind=None):
    """{state index: (rec[name], location)} over records {state, name}; a
    state the model lacks or one listed twice is an error at its record."""
    by_state = {}
    for k, rec in enumerate(records):
        rwhere = f"{where}[{k}]"
        _check_fields(rec, {"state", name}, rwhere)
        state = _field(rec, "state", rwhere, str)
        try:
            s = asym.state_index(state)
        except KeyError as e:
            raise FormatError(e.args[0], location=rwhere) from None
        if s in by_state:
            raise FormatError(f"state {state!r} listed twice", location=rwhere)
        by_state[s] = _field(rec, name, rwhere, kind), rwhere
    return by_state


def _pairs_to_positional(asym, records, where):
    by_state = _by_state(asym, records, where, "action")
    mapping = {asym.mdp.states[s]: a for s, (a, _) in by_state.items()}
    try:
        return positional_from_names(asym, mapping)
    except KeyError as e:
        raise FormatError(e.args[0], location=where) from None


def parse_strategy(text: str, asym: AsymMdp):
    """Parse a strategy file; returns a positional list,
    MixedStationaryStrategy, or CountingStrategy depending on "type".
    Malformed input raises FormatError naming its location."""
    raw = _read_json(text)
    kind = _field(raw, "type", "top level", str)
    if kind not in _TOP_FIELDS:
        raise FormatError(f"unknown strategy type {kind!r}", location="top level")
    _check_fields(raw, _TOP_FIELDS[kind], "top level")
    if kind == "positional":
        return _pairs_to_positional(asym, _field(raw, "actions", "top level", list), "actions")
    if kind == "mixed":
        records = _field(raw, "distributions", "top level", list)
        by_state = _by_state(asym, records, "distributions", "choices", list)
        probs = []
        for s, state in enumerate(asym.mdp.states):
            if s not in by_state:
                raise FormatError(f"mixed strategy does not cover state {state!r}")
            choices, where = by_state[s]
            dist = [Fraction(0)] * len(asym.mdp.actions[s])
            for j, choice in enumerate(choices):
                cwhere = f"{where}.choices[{j}]"
                _check_fields(choice, {"action", "prob"}, cwhere)
                try:
                    a = asym.action_index(s, _field(choice, "action", cwhere))
                except KeyError as e:
                    raise FormatError(e.args[0], location=cwhere) from None
                dist[a] = _parse_number(_field(choice, "prob", cwhere), cwhere)
            probs.append(dist)
        return MixedStationaryStrategy(probs)
    kappa = _int_field(raw, "kappa", "top level")
    if kappa < 0:
        raise FormatError("kappa must be nonnegative", location="top level")
    tail = _pairs_to_positional(asym, _field(raw, "tail", "top level", list), "tail")
    prefix = [list(tail) for _ in range(kappa)]
    records = _field(raw, "prefix", "top level", list) if "prefix" in raw else []
    given = set()
    for k, rec in enumerate(records):
        where = f"prefix[{k}]"
        _check_fields(rec, {"step", "state", "action"}, where)
        step = _int_field(rec, "step", where)
        if not (0 <= step < kappa):
            raise FormatError(f"prefix step {step} outside 0..kappa-1", location=where)
        try:
            s = asym.state_index(_field(rec, "state", where))
            prefix[step][s] = asym.action_index(s, _field(rec, "action", where))
        except KeyError as e:
            raise FormatError(e.args[0], location=where) from None
        if (step, s) in given:
            raise FormatError(
                f"prefix step {step} at state {asym.mdp.states[s]!r} listed twice", location=where
            )
        given.add((step, s))
    return CountingStrategy(kappa=kappa, prefix=prefix, tail=tail)


def load_strategy(path, asym: AsymMdp):
    with open(path, "r", encoding="utf-8") as f:
        return parse_strategy(f.read(), asym)


def counting_to_doc(asym: AsymMdp, cs: CountingStrategy) -> dict:
    """JSON document for a counting strategy; prefix rows equal to the
    tail are omitted (they are implied)."""
    mdp = asym.mdp
    prefix = []
    for j, row in enumerate(cs.prefix):
        for s, a in enumerate(row):
            if a != cs.tail[s]:
                prefix.append(
                    {"step": j, "state": mdp.states[s], "action": mdp.actions[s][a]}
                )
    return {
        "type": "counting",
        "kappa": cs.kappa,
        "prefix": prefix,
        "tail": [
            {"state": mdp.states[s], "action": mdp.actions[s][a]}
            for s, a in enumerate(cs.tail)
        ],
    }
