"""Numeric mode selection and rational/float conversion helpers.

All model data is stored as exact rationals (`fractions.Fraction`); the
numeric mode only decides how computations run: ``exact`` keeps rational
arithmetic end to end, ``float`` converts to binary64 at the solver
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

# Float mode's tolerances, all of them; exact mode compares exactly and reads
# none.  A bound marked "rel x" is scaled by max(1, x) where it is used.
TIE_TOL = 1e-9  # optimal_action_set keeps q(s, a) >= v(s) - TIE_TOL
PI_IMPROVEMENT_TOL = 1e-12  # policy iteration switches on a gain above this, rel max|v|
ADVANTAGE_ZERO_TOL = 1e-7  # advantages clamps |delta| up to this to 0, rel max|V|
DECOMPOSITION_TOL = 1e-6  # optimize checks SW = baseline + gain within this, rel |SW|
KAPPA_SLACK = 1e-12  # find_kappa's slack: every prefix sum <= this
ROW_SUM_TOL = 1e-12  # probability rows and action distributions sum to 1 within this
PRESCREEN_TOL = 1e-9  # threshold oracle passes float welfare this far short, rel |threshold|


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic regime for a run: exact rationals or binary64."""

    kind: str  # "exact" | "float"

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode {self.kind!r}")

    @property
    def is_exact(self):
        return self.kind == "exact"

    @property
    def dtype(self):
        """Array element type of the mode: Fraction objects or binary64."""
        return object if self.is_exact else np.float64

    @property
    def default_slack(self):
        return Fraction(0) if self.is_exact else KAPPA_SLACK


EXACT = NumericMode("exact")
FLOAT = NumericMode("float")


def as_fraction(value) -> Fraction:
    """Coerce a number-like value to an exact Fraction.

    Strings accept decimal literals ("0.54") and ratios ("27/50"); floats
    convert to their exact binary value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _digits(n: int) -> str:
    """Decimal text of n.  `str` refuses integers past the interpreter's
    int-to-str digit limit, which stays in force because it also guards the
    parsing of model and strategy files; `Decimal` writes them."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_fraction(q: Fraction) -> str:
    """Canonical text form: plain integer or 'p/q', of any size."""
    q = Fraction(q)
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def number_for_json(value, mode: NumericMode):
    """Render a computed number for JSON output in the given mode."""
    if isinstance(value, Fraction) and mode.is_exact:
        return format_fraction(value)
    return float(value)
