"""Strategy representations and their JSON file format.

Positional strategies are plain lists of local action indices (one per
state).  Mixed stationary and counting strategies get small dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

import numpy as np

from .errors import DisabledActionError, FormatError
from .model import AsymMdp, _check_fields, _field, _parse_number, _read_json
from .numeric import ROW_SUM_TOL, NumericMode, format_fraction


def positional_from_names(asym: AsymMdp, mapping: dict) -> list[int]:
    """Translate {state name: action name} into local action indices; every
    state must be covered and every key must name a state."""
    known = set(asym.mdp.states)
    for state in mapping:
        if state not in known:
            raise FormatError(f"unknown state {state!r}")
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


@dataclass
class CountingStrategy:
    """A depth-kappa prefix, as (steps, row) runs in step order, then a positional tail."""

    kappa: int
    runs: list[tuple[int, list[int]]]
    tail: list[int]

    @classmethod
    def from_rows(cls, rows, tail):
        """The strategy that plays rows[j] at step j < len(rows), as maximal runs."""
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(tail))
        cuts = (rows[1:] != rows[:-1]).any(axis=1).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), len(rows)] if len(rows) else []
        return cls(len(rows), [(hi - lo, rows[lo].tolist()) for lo, hi in pairwise(bounds)], tail)

    @property
    def prefix(self) -> list[list[int]]:
        """The runs expanded to one row per step: prefix[j][s], j < kappa."""
        return [list(row) for steps, row in self.runs for _ in range(steps)]

    def check(self, asym: AsymMdp) -> None:
        check_positional(asym, self.tail)
        for steps, row in self.runs:
            if steps < 1:
                raise DisabledActionError("prefix runs must be positive")
            check_positional(asym, row)
        if sum(steps for steps, _ in self.runs) != self.kappa:
            raise DisabledActionError("prefix depth does not match kappa")


def _append_run(runs, steps, row):
    """Append `steps` steps of `row` to `runs`, merged into the last run if it plays `row`."""
    if steps and runs and runs[-1][1] == row:
        runs[-1] = (runs[-1][0] + steps, row)
    elif steps:
        runs.append((steps, row))


# -- strategy files -------------------------------------------------------

_TOP_FIELDS = {
    "positional": {"type", "actions"},
    "mixed": {"type", "distributions"},
    "counting": {"type", "kappa", "prefix", "tail", "report"},
}


def _int_field(rec, name, where):
    value = _field(rec, name, where)
    if not isinstance(value, bool):  # JSON true/false are not integers
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise FormatError(f"field {name!r} is not an integer: {value!r}", location=where)


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
    records = _field(raw, "prefix", "top level", list) if "prefix" in raw else []
    rows, given = {}, set()  # rows: step -> row, for the steps the file lists
    for k, rec in enumerate(records):
        where = f"prefix[{k}]"
        _check_fields(rec, {"step", "state", "action"}, where)
        step = _int_field(rec, "step", where)
        if not (0 <= step < kappa):
            raise FormatError(f"prefix step {step} outside 0..kappa-1", location=where)
        try:
            s = asym.state_index(_field(rec, "state", where))
            a = asym.action_index(s, _field(rec, "action", where))
        except KeyError as e:
            raise FormatError(e.args[0], location=where) from None
        if (step, s) in given:
            raise FormatError(
                f"prefix step {step} at state {asym.mdp.states[s]!r} listed twice", location=where
            )
        given.add((step, s))
        rows.setdefault(step, list(tail))[s] = a
    runs, done, tail_row = [], 0, list(tail)  # the steps below `done` are in `runs`
    for step in sorted(rows):
        _append_run(runs, step - done, tail_row)
        _append_run(runs, 1, rows[step])
        done = step + 1
    _append_run(runs, kappa - done, tail_row)
    return CountingStrategy(kappa=kappa, runs=runs, tail=tail)


def load_strategy(path, asym: AsymMdp):
    with open(path, "r", encoding="utf-8") as f:
        return parse_strategy(f.read(), asym)


def counting_to_doc(asym: AsymMdp, cs: CountingStrategy) -> dict:
    """JSON document for a counting strategy; prefix rows equal to the
    tail are omitted (they are implied)."""
    mdp = asym.mdp
    prefix, step = [], 0
    for steps, row in cs.runs:
        changed = [(s, a) for s, a in enumerate(row) if a != cs.tail[s]]
        if changed:  # a run that plays the tail writes nothing, however long
            prefix += (
                {"step": j, "state": mdp.states[s], "action": mdp.actions[s][a]}
                for j in range(step, step + steps) for s, a in changed
            )
        step += steps
    return {
        "type": "counting",
        "kappa": cs.kappa,
        "prefix": prefix,
        "tail": [
            {"state": mdp.states[s], "action": mdp.actions[s][a]}
            for s, a in enumerate(cs.tail)
        ],
    }
