"""REGDECOMP and its 3SAT reduction — the paper's Appendix, executable.

The Appendix proves that deciding whether a flow table admits a
semantically equivalent pipeline of at most ``k`` *regular* tables (single
field, no masks except a final catch-all) is coNP-hard, by reducing 3SAT:
given a CNF formula, build a table with one column per variable plus an
extra column ``Y``; the formula is unsatisfiable **iff** the table is
equivalent to the single regular table ``{Y=1 -> false, Y=0 -> true}``.

This module implements the construction over abstract tables (rows of
``0``/``1``/``*`` cells) and the brute-force oracles needed to *verify*
the reduction on small instances — which the test suite does, clause by
clause: ``single_regular_equivalent(reduction_table(f)) ==
not brute_force_satisfiable(f)``.

A CNF formula is a list of clauses; a clause is a tuple of non-zero signed
integers (DIMACS convention: ``3`` means x3, ``-3`` means ¬x3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

Clause = tuple[int, ...]
Cnf = Sequence[Clause]

WILDCARD = "*"


@dataclass
class AbstractTable:
    """Rows of per-column cells (0, 1, or '*') mapping to boolean actions."""

    n_columns: int
    rows: list[tuple[tuple[object, ...], bool]]  # (cells, action), priority order

    def __post_init__(self) -> None:
        for cells, _action in self.rows:
            if len(cells) != self.n_columns:
                raise ValueError("row width does not match column count")
            for cell in cells:
                if cell not in (0, 1, WILDCARD):
                    raise ValueError(f"invalid cell {cell!r}")


def evaluate(table: AbstractTable, assignment: Sequence[int]) -> bool:
    """First-match evaluation of the table on a 0/1 input vector."""
    if len(assignment) != table.n_columns:
        raise ValueError("assignment width does not match column count")
    for cells, action in table.rows:
        if all(c == WILDCARD or c == v for c, v in zip(cells, assignment)):
            return action
    raise ValueError("table has no catch-all; input unmatched")


def is_regular(table: AbstractTable) -> bool:
    """Single constrained column, no wildcards except a final catch-all."""
    constrained: set[int] = set()
    for i, (cells, _action) in enumerate(table.rows):
        non_wild = [j for j, c in enumerate(cells) if c != WILDCARD]
        if not non_wild:
            if i != len(table.rows) - 1:
                return False  # catch-all must be last
            continue
        if len(non_wild) != 1:
            return False
        constrained.add(non_wild[0])
    return len(constrained) <= 1


def reduction_table(cnf: Cnf, n_vars: int) -> AbstractTable:
    """The Appendix's construction: columns X1..Xn plus Y.

    Row i encodes clause i: ``0`` where the variable appears positively,
    ``1`` where negated, ``*`` where absent; Y is pinned to 1; action
    ``false``. A final catch-all returns ``true``. With Y=1 the table
    computes f(X): row i matches — yielding false — iff clause i is
    unsatisfied by X.
    """
    rows: list[tuple[tuple[object, ...], bool]] = []
    for clause in cnf:
        cells: list[object] = [WILDCARD] * n_vars + [1]
        for literal in clause:
            var = abs(literal) - 1
            if not 0 <= var < n_vars:
                raise ValueError(f"literal {literal} out of range")
            cells[var] = 0 if literal > 0 else 1
        rows.append((tuple(cells), False))
    rows.append((tuple([WILDCARD] * (n_vars + 1)), True))
    return AbstractTable(n_columns=n_vars + 1, rows=rows)


def target_regular_table(n_vars: int) -> AbstractTable:
    """The single regular table ``{Y=1 -> false, * -> true}``."""
    y_one: list[object] = [WILDCARD] * n_vars + [1]
    catch: list[object] = [WILDCARD] * (n_vars + 1)
    return AbstractTable(
        n_columns=n_vars + 1,
        rows=[(tuple(y_one), False), (tuple(catch), True)],
    )


def brute_force_satisfiable(cnf: Cnf, n_vars: int) -> bool:
    """Exhaustive SAT check (exponential; for verifying the reduction)."""
    for bits in itertools.product((0, 1), repeat=n_vars):
        if all(
            any((bits[abs(l) - 1] == 1) == (l > 0) for l in clause) for clause in cnf
        ):
            return True
    return False


def single_regular_equivalent(table: AbstractTable, n_vars: int) -> bool:
    """Is ``table`` equivalent to the target regular table? (brute force)

    Per the Appendix this holds iff the encoded 3SAT instance is
    unsatisfiable: the table must return false for Y=1 *independently of X*.
    """
    target = target_regular_table(n_vars)
    for bits in itertools.product((0, 1), repeat=n_vars + 1):
        if evaluate(table, bits) != evaluate(target, bits):
            return False
    return True
