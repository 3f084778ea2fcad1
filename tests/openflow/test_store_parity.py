"""Property parity: the tombstone store against the pre-PR list semantics.

Two oracles, both hypothesis-driven over adversarial op sequences
(same-rule duplicates, priority ties, interleaved strict/non-strict
deletes, predicate removals, forced compactions):

* ``add_bulk`` must be observationally identical to sequential ``add`` —
  the same live order, the same ``has_rule``/``full``/``feature_counts``
  answers.
* The tombstone store must present exactly the sorted-insort list
  semantics the previous implementation had: live order (which is also
  lookup probe order), lengths, finds, and version-bump behavior (a
  mutation that changes nothing bumps nothing).

The pools are small on purpose: the same match recurs at several
priorities, so every rule-level answer (``find_rule``/``has_rule``/
``rule_priorities``, strict and non-strict ``remove``, ADD-replace) is
checked against the model where the single per-match index has more than
one entry to tell apart — and a rule taken out and put back ahead of its
recorded follower (``follower`` / ``add(entry, before=...)``, the undo of
a delete) must leave the live order exactly as it was. One match's entries
are also walked from one to several and back, deleting from either end.

The rule index holds a match's lone entry bare and only same-match
duplicates in a list, so every path that moves a match between one entry
and several (ADD, ADD-replace, strict delete, ``put_back``,
``add(before=...)``, a pickled copy) is walked step by step too, with the
index's shape checked beside every answer.

The shape multiset (``feature_counts``) is counted by the mutation paths
themselves, never rebuilt: after every one of them it equals a recount of
the live entries, and ``shapes_version`` moves exactly when its key set
does.
"""

import bisect
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import Output, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, entry_features
from repro.openflow.match import Match

#: Small pools so duplicates and priority ties actually happen.
PORTS = list(range(6))
PRIOS = list(range(4))


def mk_entry(prio: int, port: int, timed: bool = False) -> FlowEntry:
    return FlowEntry(Match(tcp_dst=port), priority=prio, actions=[Output(1)],
                     idle_timeout=5.0 if timed else 0.0)


entries_st = st.lists(
    st.tuples(st.sampled_from(PRIOS), st.sampled_from(PORTS)),
    min_size=0,
    max_size=24,
)


class ListModel:
    """The pre-PR reference: one sorted list, insort_right adds."""

    def __init__(self):
        self.entries: list[FlowEntry] = []

    def add(self, entry: FlowEntry) -> None:
        for i, e in enumerate(self.entries):
            if e.priority == entry.priority and e.match == entry.match:
                self.entries[i] = entry
                return
        bisect.insort_right(self.entries, entry, key=lambda e: -e.priority)

    def remove(self, match: Match, priority: "int | None") -> int:
        if priority is None:
            keep = [e for e in self.entries if e.match != match]
        else:
            keep = [
                e
                for e in self.entries
                if not (e.priority == priority and e.match == match)
            ]
        removed = len(self.entries) - len(keep)
        self.entries = keep
        return removed

    def remove_if(self, predicate) -> int:
        keep = [e for e in self.entries if not predicate(e)]
        removed = len(self.entries) - len(keep)
        self.entries = keep
        return removed

    def find(self, match: Match) -> "FlowEntry | None":
        for e in self.entries:
            if e.match == match:
                return e
        return None

    def find_rule(self, match: Match, priority: int) -> "FlowEntry | None":
        for e in self.entries:
            if e.priority == priority and e.match == match:
                return e
        return None

    def rule_priorities(self, match: Match) -> "tuple[int, ...]":
        return tuple(e.priority for e in self.entries if e.match == match)

    def follower(self, entry: FlowEntry) -> "FlowEntry | None":
        at = self.entries.index(entry) + 1
        after = self.entries[at] if at < len(self.entries) else None
        return after if after is not None and after.priority == entry.priority else None

    def timed_entries(self) -> "list[FlowEntry]":
        return [e for e in self.entries if e.idle_timeout or e.hard_timeout]


def by_id(entries) -> list:
    return sorted(entries, key=lambda e: e.entry_id)


def assert_rule_answers(store: FlowTable, model: ListModel) -> None:
    """Every rule-level query, over the whole (priority, match) pool."""
    for port in PORTS:
        match = Match(tcp_dst=port)
        assert store.find(match) is model.find(match)
        assert store.rule_priorities(match) == model.rule_priorities(match)
        for prio in PRIOS:
            want = model.find_rule(match, prio)
            assert store.find_rule(match, prio) is want
            assert store.has_rule(match, prio) == (want is not None)
    for entry in model.entries:
        assert store.follower(entry) is model.follower(entry)
    assert by_id(store.timed_entries()) == by_id(model.timed_entries())
    assert store.feature_counts() == Counter(
        entry_features(e) for e in model.entries
    )
    # A lone entry is held bare, duplicates in a list, nothing else.
    counts = Counter(e.match for e in model.entries)
    index = store._index()
    assert index.keys() == counts.keys()
    for match, n in counts.items():
        assert (type(index[match]) is list) == (n > 1)
        if n > 1:
            assert len(index[match]) == n


def ids_of(entries) -> list:
    return [None if e is None else e.entry_id for e in entries]


def assert_same_answers(clone: FlowTable, store: FlowTable) -> None:
    """A pickled copy answers every rule-level query as the original,
    entry for entry (ids survive the round trip, objects do not)."""
    assert ids_of(clone.entries) == ids_of(store.entries)
    for port in PORTS:
        match = Match(tcp_dst=port)
        assert ids_of([clone.find(match)]) == ids_of([store.find(match)])
        assert clone.rule_priorities(match) == store.rule_priorities(match)
        for prio in PRIOS:
            assert ids_of([clone.find_rule(match, prio)]) == ids_of(
                [store.find_rule(match, prio)])
    for mine, theirs in zip(clone.entries, store.entries):
        assert ids_of([clone.follower(mine)]) == ids_of([store.follower(theirs)])
    assert sorted(ids_of(clone.timed_entries())) == sorted(
        ids_of(store.timed_entries()))
    assert clone.feature_counts() == store.feature_counts()


class TestAddBulkParity:
    @given(batch=entries_st, pre=entries_st)
    @settings(max_examples=150, deadline=None)
    def test_bulk_equals_sequential(self, batch, pre):
        seq = FlowTable(0, max_entries=16)
        bulk = FlowTable(0, max_entries=16)
        for prio, port in pre:
            e = mk_entry(prio, port)
            seq.add(e)
            bulk.add(e)
        batch_entries = [mk_entry(prio, port) for prio, port in batch]
        for e in batch_entries:
            seq.add(e)
        bulk.add_bulk(batch_entries)
        assert bulk.entries == seq.entries  # same objects, same order
        assert len(bulk) == len(seq)
        assert bulk.full == seq.full
        assert bulk.feature_counts() == seq.feature_counts()
        for prio in PRIOS:
            for port in PORTS:
                match = Match(tcp_dst=port)
                assert bulk.has_rule(match, prio) == seq.has_rule(match, prio)
                assert bulk.find(match) is seq.find(match)


op_st = st.one_of(
    st.tuples(
        st.just("add"), st.sampled_from(PRIOS), st.sampled_from(PORTS)
    ),
    st.tuples(
        st.just("remove_strict"),
        st.sampled_from(PRIOS),
        st.sampled_from(PORTS),
    ),
    st.tuples(st.just("remove"), st.just(0), st.sampled_from(PORTS)),
    st.tuples(st.just("remove_if"), st.sampled_from(PRIOS), st.just(0)),
    st.tuples(st.just("compact"), st.just(0), st.just(0)),
    st.tuples(
        st.just("put_back"), st.sampled_from(PRIOS), st.sampled_from(PORTS)
    ),
    st.tuples(st.just("pickle"), st.just(0), st.just(0)),
)
ops_st = st.lists(op_st, min_size=0, max_size=60)


def apply_op(store: FlowTable, model: ListModel, op: str, prio: int, port: int) -> int:
    """One op of ``ops_st`` on both; returns the version bumps it owes.
    ``pickle`` round-trips the store in place (its entries are copies
    then, so the model is swapped for the copy's objects too)."""
    if op == "add":
        e = mk_entry(prio, port, timed=bool(prio & 1))
        store.add(e)
        model.add(e)
        return 1
    if op == "remove_strict":
        got = store.remove(Match(tcp_dst=port), priority=prio)
        want = model.remove(Match(tcp_dst=port), prio)
    elif op == "remove":
        got = store.remove(Match(tcp_dst=port))
        want = model.remove(Match(tcp_dst=port), None)
    elif op == "remove_if":
        got = store.remove_if(lambda e: e.priority == prio)
        want = model.remove_if(lambda e: e.priority == prio)
    elif op == "put_back":
        # The undo of a delete: the same object re-enters ahead of the
        # follower recorded while it was live, so the model does not
        # move at all.
        e = model.find_rule(Match(tcp_dst=port), prio)
        if e is None:
            return 0
        follower = store.follower(e)
        assert store.remove(e.match, priority=prio) == 1
        assert store.add(e, before=follower) is e
        return 2
    elif op == "pickle":  # the copy's state, objects and all
        clone, model.entries = pickle.loads(pickle.dumps((store, model.entries)))
        store.__dict__ = clone.__dict__
        return 0
    else:  # compact: invisible, never a version bump
        store.compact()
        return 0
    assert got == want
    return int(want > 0)


def assert_slots(store: FlowTable, gone=()) -> None:
    """Every live entry's slot is where the store holds it (its hint, or
    the renumbering a stale one asks for); an entry it does not hold has
    none."""
    for entry in store.entries:
        assert store._entries[store._slot_of(entry)] is entry
    for entry in gone:
        with pytest.raises(KeyError):
            store._slot_of(entry)


class TestStoreParity:
    @given(ops=ops_st)
    @settings(max_examples=150, deadline=None)
    def test_random_ops_match_list_semantics(self, ops):
        store = FlowTable(0)
        model = ListModel()
        for op, prio, port in ops:
            version = store.version
            before = list(model.entries)
            bumps = apply_op(store, model, op, prio, port)
            # No-op mods bump nothing; real mods bump exactly once.
            assert store.version == version + bumps
            # Live order — which is also lookup probe order — matches the
            # insort-list reference, object for object.
            assert store.entries == tuple(model.entries)
            assert len(store) == len(model.entries)
            assert_rule_answers(store, model)
            # after put_back, replace, memmove, compaction and a pickle
            # round trip alike: no slot answer is stale.
            live = set(map(id, model.entries))
            assert_slots(store, [e for e in before if id(e) not in live])
            # The feature multiset is maintained by every path above.
            assert store.feature_counts() == Counter(
                entry_features(e) for e in model.entries
            )

    @given(pre=entries_st, ops=st.lists(st.tuples(st.integers(0, 1), op_st), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_entries_held_by_two_tables(self, pre, ops):
        """One entry object in two tables, at different slots: each
        table's numbering overwrites the other's hints, so each asks for
        a renumbering more often — and both answer as their models."""
        stores, models = (FlowTable(0), FlowTable(1)), (ListModel(), ListModel())
        for prio, port in pre:  # the second table alone: other slots there
            e = mk_entry(prio, port)
            stores[1].add(e)
            models[1].add(e)
        for which, (op, prio, port) in ops:
            if op == "add":  # one object, into both tables
                e = mk_entry(prio, port)
                for store, model in zip(stores, models):
                    store.add(e)
                    model.add(e)
            elif op != "pickle":  # a copy would share nothing
                apply_op(stores[which], models[which], op, prio, port)
            for store, model in zip(stores, models):
                assert store.entries == tuple(model.entries)
                assert_rule_answers(store, model)
                assert_slots(store)

    def test_same_match_at_three_priorities(self):
        """The spelled-out case: one match, three priorities, one index."""
        store, model = FlowTable(0), ListModel()
        match = Match(tcp_dst=1)
        for prio in (1, 3, 2):
            e = mk_entry(prio, 1)
            store.add(e)
            model.add(e)
        assert store.rule_priorities(match) == (3, 2, 1)
        assert_rule_answers(store, model)
        replacement = mk_entry(2, 1)  # ADD-replace of the middle one
        store.add(replacement)
        model.add(replacement)
        assert store.find_rule(match, 2) is replacement
        assert len(store) == 3
        assert_rule_answers(store, model)
        assert store.remove(match, priority=3) == model.remove(match, 3) == 1
        assert store.find(match) is replacement  # the new head
        assert_rule_answers(store, model)
        assert store.remove(match) == model.remove(match, None) == 2
        assert not store.has_rule(match, 1)
        assert_rule_answers(store, model)

    @pytest.mark.parametrize("first", ["head", "tail"])
    def test_one_entry_to_several_and_back(self, first):
        """Same-match ADDs at other priorities grow one match from one
        entry to three; deleting the head and the tail shrinks it back to
        one, then none — every answer checked at each step, with a
        same-priority neighbour on another match so that ``follower``
        crosses matches."""
        store, model = FlowTable(0), ListModel()
        match = Match(tcp_dst=1)

        def apply(op, prio, timed=False):
            if op == "add":
                e = mk_entry(prio, 1, timed)
                store.add(e)
                model.add(e)
            else:
                assert store.remove(match, priority=prio) == model.remove(match, prio) == 1
            assert store.entries == tuple(model.entries)
            assert_rule_answers(store, model)

        neighbour = mk_entry(2, 2)
        store.add(neighbour)
        model.add(neighbour)
        apply("add", 2, timed=True)
        apply("add", 2, timed=False)  # ADD-replace of a lone entry
        apply("add", 3)
        apply("add", 1, timed=True)
        assert store.rule_priorities(match) == (3, 2, 1)
        apply("remove", 3 if first == "head" else 1)
        apply("remove", 1 if first == "head" else 3)
        assert store.find(match).priority == 2
        apply("remove", 2)
        assert store.find(match) is None
        assert store.find(neighbour.match) is neighbour

    def test_bare_and_listed_index_walk(self):
        """One match moved between a bare entry and a list by every path
        that can: ADD, ADD-replace of the bare entry, ``put_back`` onto it,
        ``add(before=...)`` of a duplicate ahead of a neighbour, strict
        deletes back to one — each step checked against the list model and
        through a pickled copy."""
        store, model = FlowTable(0), ListModel()
        match = Match(tcp_dst=1)

        def check():
            assert store.entries == tuple(model.entries)
            assert_rule_answers(store, model)
            clone = pickle.loads(pickle.dumps(store))
            assert_same_answers(clone, store)

        def add(entry, before=None):
            assert store.add(entry, before=before) is entry
            model.add(entry)
            if before is not None:  # the model's insort put it last
                model.entries.remove(entry)
                model.entries.insert(model.entries.index(before), entry)
            check()
            return entry

        def remove(prio):
            assert store.remove(match, priority=prio) == model.remove(match, prio) == 1
            check()

        neighbour = add(mk_entry(3, 2))
        lone = add(mk_entry(2, 1, timed=True))  # bare
        replacement = add(mk_entry(2, 1))  # ADD-replace of the bare entry
        # put_back onto the bare slot: the undo of that replace.
        assert store.put_back(lone, None) is lone
        model.add(lone)
        check()
        assert store.find(match) is lone and store.find_rule(match, 2) is lone
        assert replacement not in store.entries
        # A duplicate ahead of the neighbour of its priority: bare -> list.
        head = add(mk_entry(3, 1, timed=True), before=neighbour)
        assert store.entries[:2] == (head, neighbour)
        add(mk_entry(1, 1))
        assert store.rule_priorities(match) == (3, 2, 1)
        # put_back of a listed entry ahead of its recorded follower.
        follower = store.follower(head)
        assert follower is neighbour
        assert store.remove(match, priority=3) == 1
        assert store.add(head, before=follower) is head
        check()
        remove(1)
        remove(3)  # strict delete back to one: bare again
        assert store.find(match) is lone
        # The pickled copy keeps working on its own index.
        clone = pickle.loads(pickle.dumps(store))
        assert clone.remove(match, priority=2) == 1
        assert clone.find(match) is None and clone.rule_priorities(match) == ()
        assert store.find(match) is lone
        remove(2)
        assert store.find(match) is None


#: Four match shapes and two action shapes over a small value pool, so
#: shape classes appear, empty and come back.
SHAPES = (
    lambda v: Match(tcp_dst=v),
    lambda v: Match(ipv4_dst=(v << 8, 0xFFFFFF00)),
    lambda v: Match(ipv4_dst=v),
    lambda v: Match(),
)
ACTIONS = ([Output(1)], [SetField("tcp_dst", 7), Output(1)])

rule_st = st.tuples(
    st.sampled_from(PRIOS),
    st.integers(0, len(SHAPES) - 1),
    st.integers(0, 2),
    st.integers(0, len(ACTIONS) - 1),
)
shape_ops_st = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["add", "remove_strict", "remove", "remove_if", "put_back"]),
            rule_st,
        ),
        st.tuples(st.just("add_bulk"), st.lists(rule_st, max_size=6)),
        st.tuples(st.sampled_from(["clear", "compact", "pickle"]), st.none()),
    ),
    max_size=40,
)


def shaped(prio: int, shape: int, value: int, action: int) -> FlowEntry:
    return FlowEntry(SHAPES[shape](value), priority=prio, actions=ACTIONS[action])


class TestShapeMultiset:
    """Every mutation path keeps the shape multiset equal to a recount,
    and moves ``shapes_version`` exactly when the shape set changes."""

    @staticmethod
    def step(store: FlowTable, mutate) -> FlowTable:
        """``mutate(store)`` checked; returns the table it leaves (a
        pickled copy, for the round trip)."""
        shapes, version = set(store.feature_counts()), store.shapes_version
        after = mutate(store)
        store = after if isinstance(after, FlowTable) else store
        recount = Counter(entry_features(e) for e in store.entries)
        assert store.feature_counts() == recount
        assert (store.shapes_version != version) == (recount.keys() != shapes)
        return store

    @given(pre=st.lists(rule_st, max_size=8), ops=shape_ops_st)
    @settings(max_examples=200, deadline=None)
    def test_every_path_counts_and_moves_exactly(self, pre, ops):
        step = self.step
        store = step(FlowTable(0), lambda t: t.add_bulk([shaped(*r) for r in pre]))
        for op, arg in ops:
            if op == "add":  # an ADD-replace when the rule is held
                store = step(store, lambda t: t.add(shaped(*arg)))
            elif op == "remove_strict":
                prio, shape, value, _action = arg
                store = step(store, lambda t: t.remove(SHAPES[shape](value), prio))
            elif op == "remove":
                store = step(store, lambda t: t.remove(SHAPES[arg[1]](arg[2])))
            elif op == "remove_if":
                store = step(store, lambda t: t.remove_if(lambda e: e.priority == arg[0]))
            elif op == "put_back":
                prio, shape, value, action = arg
                held = store.find_rule(SHAPES[shape](value), prio)
                follower = None
                if held is not None:
                    follower = store.follower(held)
                    if action:  # the undo of an ADD-replace
                        other = shaped(prio, shape, value, 1 - action)
                        store = step(store, lambda t: t.add(other))
                    else:  # the undo of a strict delete
                        store = step(store, lambda t: t.remove(held.match, prio))
                back = held if held is not None else shaped(*arg)
                store = step(store, lambda t: t.put_back(back, follower))
            elif op == "add_bulk":
                store = step(store, lambda t: t.add_bulk([shaped(*r) for r in arg]))
            elif op == "clear":
                store = step(store, FlowTable.clear)
            elif op == "compact":
                store = step(store, FlowTable.compact)
            else:
                store = step(store, lambda t: pickle.loads(pickle.dumps(t)))
