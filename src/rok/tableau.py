"""Rosenbrock tableau loading and validation.

Coefficients live in flat text files, one record per line, with exact
decimal or rational values::

    s 4
    order 4
    embedded_order 3
    gamma 1/2
    alpha 2 1 1
    gamma_lower 2 1 -2
    b 1 8/27
    b_hat 1 16/27

Each record is its name, its 1-based stage indices and one value, and a
line holds exactly those tokens (RECORD_INDICES gives the index count):
s, order, embedded_order (integers) and gamma take none; b and b_hat
take the stage i; alpha and gamma_lower take i and j with i > j (strict
lower triangle).  A rational is one token: 12/25, not 12 / 25.  Each
entry is set by one record; a second record for it is an error.  Text
after '#' is a comment.

Tableau.evaluates_f says which stages call f: stage 1 uses f(y), which
the caller supplies, and a stage whose alpha row repeats the previous
stage's reuses that stage's F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

DEFAULT_TABLEAU_RESOURCE = "ros4s.tab"

RECORD_INDICES = {"s": 0, "order": 0, "embedded_order": 0, "gamma": 0,
                  "b": 1, "b_hat": 1, "alpha": 2, "gamma_lower": 2}
INTEGER_RECORDS = ("s", "order", "embedded_order")


class TableauError(ValueError):
    """A coefficient file is malformed or violates the tableau invariants."""


@dataclass(frozen=True)
class Tableau:
    """Coefficients of an s-stage Rosenbrock-type method.

    alpha and gamma_lower are strictly lower triangular; gamma is the
    shared diagonal of the gamma matrix.  b are the solution weights and
    b_hat the embedded (error estimator) weights of order embedded_order.
    """

    s: int
    alpha: np.ndarray
    gamma_lower: np.ndarray
    gamma: float
    b: np.ndarray
    b_hat: np.ndarray
    order: int
    embedded_order: int
    name: str = "tableau"

    @cached_property
    def gamma_full(self) -> np.ndarray:
        """Lower-triangular gamma matrix including the diagonal."""
        return self.gamma_lower + self.gamma * np.eye(self.s)

    @cached_property
    def beta(self) -> np.ndarray:
        """alpha + gamma_full, the matrix entering the classical stability function."""
        return self.alpha + self.gamma_full

    @cached_property
    def evaluates_f(self) -> tuple[bool, ...]:
        """Per stage: whether it evaluates f at an argument of its own.

        False for stage 1, whose F is f(y), and for a stage whose alpha
        row equals the previous one, which reuses the previous F.
        """
        return (False,) + tuple(not np.array_equal(self.alpha[i], self.alpha[i - 1])
                                for i in range(1, self.s))

    @cached_property
    def f_source(self) -> tuple[int, ...]:
        """Per stage: the stage whose F it uses, its own or, for a stage
        that reuses F, the last earlier stage that evaluated one (0 for
        stage 1's f(y))."""
        return tuple(max(j for j in range(i + 1) if j == 0 or self.evaluates_f[j])
                     for i in range(self.s))

    def validate(self) -> None:
        for name, mat in (("alpha", self.alpha), ("gamma_lower", self.gamma_lower)):
            if mat.shape != (self.s, self.s):
                raise TableauError(f"{name} must be {self.s}x{self.s}")
            if np.any(np.triu(mat) != 0.0):
                raise TableauError(f"{name} must be strictly lower triangular")
        if self.gamma <= 0.0:
            raise TableauError("gamma must be positive")
        if self.b.shape != (self.s,) or self.b_hat.shape != (self.s,):
            raise TableauError("b and b_hat must have one weight per stage")
        if np.array_equal(self.b, self.b_hat):
            raise TableauError("embedded weights must differ from the solution weights")
        if not (self.order >= 1 and self.embedded_order >= 1):
            raise TableauError("orders must be positive")
        for name, arr in (("alpha", self.alpha), ("gamma_lower", self.gamma_lower),
                          ("b", self.b), ("b_hat", self.b_hat)):
            if not np.all(np.isfinite(arr)):
                raise TableauError(f"{name} contains non-finite entries")


def _parse_value(token: str) -> float:
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise TableauError(f"cannot parse coefficient value {token!r}") from exc


def parse_tableau(text: str, name: str = "tableau") -> Tableau:
    records: dict[str, dict[tuple, float]] = {key: {} for key in RECORD_INDICES}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key, *args = tokens
        if key not in RECORD_INDICES:
            raise TableauError(f"line {lineno}: unknown record {key!r}")
        if len(args) != RECORD_INDICES[key] + 1:
            raise TableauError(f"line {lineno}: {key} takes {RECORD_INDICES[key]} "
                               f"stage indices and one value, got {raw.strip()!r}")
        try:
            index = tuple(int(a) for a in args[:-1])
            value = int(args[-1]) if key in INTEGER_RECORDS else _parse_value(args[-1])
        except ValueError as exc:
            raise TableauError(f"line {lineno}: malformed record {raw.strip()!r}: {exc}") from exc
        if index in records[key]:
            raise TableauError(f"line {lineno}: {raw.strip()!r} sets an entry that is already set")
        records[key][index] = value

    scalars = {key: records.pop(key).get(()) for key in ("s", "order", "embedded_order", "gamma")}
    for key, value in scalars.items():
        if value is None:
            raise TableauError(f"missing required record {key!r}")
    s = scalars["s"]
    if s < 1:
        raise TableauError("stage count must be >= 1")
    if not records["b_hat"]:
        raise TableauError("tableau lacks embedded weights (b_hat); the error controller requires them")

    arrays = {key: np.zeros((s,) * RECORD_INDICES[key]) for key in records}
    for key, entries in records.items():
        for index, value in entries.items():
            # stages in 1..s, and i > j for the strict lower triangle
            if not (index[0] <= s and index[-1] >= 1 and all(i > j for i, j in zip(index, index[1:]))):
                raise TableauError(f"{key} index {index} outside the stages 1..{s}"
                                   + (" or the strict lower triangle" if len(index) == 2 else ""))
            arrays[key][tuple(i - 1 for i in index)] = value

    tab = Tableau(name=name, **scalars, **arrays)
    tab.validate()
    return tab


def load_tableau(path) -> Tableau:
    """Load and validate a UTF-8 tableau coefficient file."""
    path = Path(path)
    return parse_tableau(path.read_text(encoding="utf-8"), name=path.stem)


def default_tableau() -> Tableau:
    """The packaged 4(3) Rosenbrock tableau."""
    text = resources.files("rok").joinpath("tableaus", DEFAULT_TABLEAU_RESOURCE).read_text()
    return parse_tableau(text, name="ros4s")
