"""Tests for the Appendix's 3SAT → REGDECOMP reduction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from regdecomp import (
    AbstractTable,
    WILDCARD,
    brute_force_satisfiable,
    evaluate,
    is_regular,
    reduction_table,
    single_regular_equivalent,
    target_regular_table,
)


class TestAbstractTable:
    def test_first_match_semantics(self):
        t = AbstractTable(2, [((0, WILDCARD), True), ((WILDCARD, WILDCARD), False)])
        assert evaluate(t, (0, 1)) is True
        assert evaluate(t, (1, 1)) is False

    def test_no_catch_all_raises(self):
        t = AbstractTable(1, [((0,), True)])
        with pytest.raises(ValueError):
            evaluate(t, (1,))

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            AbstractTable(1, [((2,), True)])

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            AbstractTable(2, [((0,), True)])
        t = AbstractTable(1, [((WILDCARD,), True)])
        with pytest.raises(ValueError):
            evaluate(t, (0, 1))


class TestRegularity:
    def test_target_table_regular(self):
        assert is_regular(target_regular_table(3))

    def test_two_column_table_not_regular(self):
        t = AbstractTable(2, [((0, 1), True), ((WILDCARD, WILDCARD), False)])
        assert not is_regular(t)

    def test_mid_table_catch_all_not_regular(self):
        t = AbstractTable(
            1, [((WILDCARD,), True), ((0,), False), ((WILDCARD,), False)]
        )
        assert not is_regular(t)


class TestPaperExample:
    """(X1 v ~X3 v X4) ^ (~X1 v X2 v X3), the Appendix's worked table."""

    CNF = [(1, -3, 4), (-1, 2, 3)]

    def test_table_rows(self):
        t = reduction_table(self.CNF, 4)
        assert t.rows[0][0] == (0, WILDCARD, 1, 0, 1)
        assert t.rows[1][0] == (1, 0, 0, WILDCARD, 1)
        assert t.rows[2][0] == (WILDCARD,) * 5
        assert [a for _c, a in t.rows] == [False, False, True]

    def test_table_computes_formula(self):
        t = reduction_table(self.CNF, 4)
        for bits in itertools.product((0, 1), repeat=4):
            expected = all(
                any((bits[abs(l) - 1] == 1) == (l > 0) for l in clause)
                for clause in self.CNF
            )
            assert evaluate(t, bits + (1,)) == expected

    def test_satisfiable_hence_not_equivalent(self):
        assert brute_force_satisfiable(self.CNF, 4)
        assert not single_regular_equivalent(reduction_table(self.CNF, 4), 4)


class TestReductionTheorem:
    def test_unsat_formula_is_equivalent(self):
        # (x1) ^ (~x1) is unsatisfiable (padded to 3 literals).
        cnf = [(1, 1, 1), (-1, -1, -1)]
        assert not brute_force_satisfiable(cnf, 1)
        assert single_regular_equivalent(reduction_table(cnf, 1), 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equivalence_iff_unsat(self, seed):
        """The Appendix's theorem, verified end to end on random CNFs."""
        rng = random.Random(seed)
        n_vars = rng.randrange(2, 6)
        n_clauses = rng.randrange(1, 6)
        cnf = []
        for _ in range(n_clauses):
            lits = rng.sample(range(1, n_vars + 1), min(3, n_vars))
            cnf.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
        table = reduction_table(cnf, n_vars)
        assert single_regular_equivalent(table, n_vars) == (
            not brute_force_satisfiable(cnf, n_vars)
        )

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            reduction_table([(5,)], 3)
