"""Strategy representations and their JSON file format.

Positional strategies are plain lists of local action indices (one per
state).  Mixed stationary and counting strategies get small dataclasses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DisabledActionError, FormatError
from .model import AsymMdp, _check_fields, _parse_number
from .numeric import format_fraction

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

    def check(self, asym: AsymMdp, tolerance: float = 0.0) -> None:
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
            if tolerance == 0.0:
                ok = total == 1
            else:
                ok = abs(float(total) - 1.0) <= tolerance
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


def _field(rec, name, where, kind=None):
    """rec[name], once rec is an object holding it (of type `kind` if given)."""
    if not isinstance(rec, dict):
        raise FormatError("expected an object", location=where)
    if name not in rec:
        raise FormatError(f"missing field {name!r}", location=where)
    if kind is not None and not isinstance(rec[name], kind):
        raise FormatError(f"field {name!r} must be a {kind.__name__}", location=where)
    return rec[name]


def _int_field(rec, name, where):
    value = _field(rec, name, where)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise FormatError(f"field {name!r} is not an integer: {value!r}", location=where) from None


def _pairs_to_positional(asym, records, where):
    mapping = {}
    for k, rec in enumerate(records):
        rwhere = f"{where}[{k}]"
        _check_fields(rec, {"state", "action"}, rwhere)
        mapping[_field(rec, "state", rwhere, str)] = _field(rec, "action", rwhere)
    try:
        return positional_from_names(asym, mapping)
    except KeyError as e:
        raise FormatError(e.args[0], location=where) from None


def parse_strategy(text: str, asym: AsymMdp):
    """Parse a strategy file; returns a positional list,
    MixedStationaryStrategy, or CountingStrategy depending on "type".
    Malformed input raises FormatError naming its location."""
    try:
        raw = json.loads(text, parse_float=str)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}") from None
    kind = _field(raw, "type", "top level")
    if kind == "positional":
        return _pairs_to_positional(asym, _field(raw, "actions", "top level", list), "actions")
    if kind == "mixed":
        by_state = {}
        for k, rec in enumerate(_field(raw, "distributions", "top level", list)):
            where = f"distributions[{k}]"
            state = _field(rec, "state", where, str)
            by_state[state] = (_field(rec, "choices", where, list), where)
        probs = []
        for s, state in enumerate(asym.mdp.states):
            if state not in by_state:
                raise FormatError(f"mixed strategy does not cover state {state!r}")
            choices, where = by_state[state]
            dist = [Fraction(0)] * len(asym.mdp.actions[s])
            for j, choice in enumerate(choices):
                cwhere = f"{where}.choices[{j}]"
                try:
                    a = asym.action_index(s, _field(choice, "action", cwhere))
                except KeyError as e:
                    raise FormatError(e.args[0], location=cwhere) from None
                dist[a] = _parse_number(_field(choice, "prob", cwhere), cwhere)
            probs.append(dist)
        return MixedStationaryStrategy(probs)
    if kind == "counting":
        kappa = _int_field(raw, "kappa", "top level")
        if kappa < 0:
            raise FormatError("kappa must be nonnegative", location="top level")
        tail = _pairs_to_positional(asym, _field(raw, "tail", "top level", list), "tail")
        prefix = [list(tail) for _ in range(kappa)]
        records = _field(raw, "prefix", "top level", list) if "prefix" in raw else []
        for k, rec in enumerate(records):
            where = f"prefix[{k}]"
            step = _int_field(rec, "step", where)
            if not (0 <= step < kappa):
                raise FormatError(f"prefix step {step} outside 0..kappa-1", location=where)
            try:
                s = asym.state_index(_field(rec, "state", where))
                prefix[step][s] = asym.action_index(s, _field(rec, "action", where))
            except KeyError as e:
                raise FormatError(e.args[0], location=where) from None
        return CountingStrategy(kappa=kappa, prefix=prefix, tail=tail)
    raise FormatError(f"unknown strategy type {kind!r}", location="top level")


def load_strategy(path, asym: AsymMdp):
    with open(path, "r", encoding="utf-8") as f:
        return parse_strategy(f.read(), asym)


def counting_to_doc(asym: AsymMdp, cs: CountingStrategy, report=None) -> dict:
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
    doc = {
        "type": "counting",
        "kappa": cs.kappa,
        "prefix": prefix,
        "tail": [
            {"state": mdp.states[s], "action": mdp.actions[s][a]}
            for s, a in enumerate(cs.tail)
        ],
    }
    if report is not None:
        doc["report"] = report
    return doc


def save_strategy(path, asym: AsymMdp, cs: CountingStrategy, report=None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(counting_to_doc(asym, cs, report), indent=2) + "\n")
