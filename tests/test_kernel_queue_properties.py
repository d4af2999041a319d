"""Differential property tests for the kernel's indexed event queue.

:class:`repro.sim.equeue.EventQueue` (lazy deletion, tombstone
compaction, batched inserts) is checked against a deliberately naive
reference model — a plain list scanned for its minimum — across ~200
seeded random interleavings of schedule/cancel/pop/peek/compact ops.
Randomness comes from :mod:`repro.sim.rng` streams, so every failure
reproduces from its seed. ``pop_until`` — the fused peek+pop the event
loop calls once per event — is checked against the two calls it
replaced on hypothesis-generated op sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.equeue import NO_ARG, EventQueue
from repro.sim.rng import RngRegistry


class NaiveQueue:
    """Reference model: the simplest thing that could be correct."""

    def __init__(self):
        self.entries = []  # [when, key, call, arg, alive]

    def push(self, when, key, call, arg):
        entry = [when, key, call, arg, True]
        self.entries.append(entry)
        return entry

    def cancel(self, entry):
        if not entry[4]:
            return False
        entry[4] = False
        return True

    def pop(self):
        live = [e for e in self.entries if e[4]]
        if not live:
            return None
        best = min(live, key=lambda e: (e[0], e[1]))
        self.entries.remove(best)
        best[4] = False  # consumed: cancel-after-pop is a no-op, like the real queue
        return best

    def peek_when(self):
        live = [e for e in self.entries if e[4]]
        return min((e[0], e[1]) for e in live)[0] if live else None

    def __len__(self):
        return sum(1 for e in self.entries if e[4])


def _run_interleaving(seed: int, ops: int = 120) -> int:
    rng = RngRegistry(seed).stream("queue-fuzz")
    real = EventQueue(min_compact=8)  # low floor: exercise compaction
    model = NaiveQueue()
    handles = []  # (real_entry, model_entry, canceled_already)
    key = 0
    pops = 0

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.40:  # single push
            when = float(rng.integers(0, 50))
            arg = int(rng.integers(0, 1000))
            call = ("call", key)
            handles.append((real.push(when, key, call, arg), model.push(when, key, call, arg)))
            key += 1
        elif roll < 0.50:  # batched push
            batch = []
            for _ in range(int(rng.integers(1, 12))):
                when = float(rng.integers(0, 50))
                batch.append((when, key, ("call", key), NO_ARG))
                key += 1
            got = real.push_many(batch)
            for (when, k, call, arg), entry in zip(batch, got):
                handles.append((entry, model.push(when, k, call, arg)))
        elif roll < 0.75 and handles:  # cancel a random handle (maybe dead)
            idx = int(rng.integers(0, len(handles)))
            r_entry, m_entry = handles[idx]
            assert real.cancel(r_entry) == model.cancel(m_entry)
        elif roll < 0.95:  # pop
            got, want = real.pop(), model.pop()
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0], got[1], got[2], got[3]) == tuple(want[:4])
                pops += 1
        else:  # peek / explicit compaction
            assert real.peek_when() == model.peek_when()
            if rng.random() < 0.5:
                real.compact()

        # Shape invariants hold after every operation.
        assert len(real) == len(model)
        assert bool(real) == bool(model)
        assert real.tombstones >= 0
        assert real.physical_depth >= len(real)

    # Drain both queues completely: identical remaining order.
    while True:
        got, want = real.pop(), model.pop()
        if want is None:
            assert got is None
            break
        assert (got[0], got[1], got[2], got[3]) == tuple(want[:4])
        pops += 1
    assert len(real) == 0 and real.peek_when() is None
    return pops


@pytest.mark.parametrize("seed", range(200))
def test_differential_interleavings(seed):
    _run_interleaving(seed)


def test_cancel_is_idempotent_and_popped_entries_uncancelable():
    q = EventQueue()
    e = q.push(1.0, 0, "a")
    assert q.cancel(e) is True
    assert q.cancel(e) is False  # double cancel
    e2 = q.push(2.0, 1, "b")
    assert q.pop() == (2.0, 1, "b", NO_ARG)
    assert q.cancel(e2) is False  # already fired
    assert len(q) == 0


def test_compaction_triggers_and_preserves_order():
    q = EventQueue(min_compact=4)
    entries = [q.push(float(i % 7), i, ("c", i)) for i in range(64)]
    # Cancel most entries so tombstones outnumber live ones.
    for i, e in enumerate(entries):
        if i % 8:
            q.cancel(e)
    assert q.compactions >= 1
    assert q.tombstones < 56  # auto-compaction scrubbed at least some
    q.compact()
    assert q.tombstones == 0
    order = []
    while q:
        order.append(q.pop()[1])
    survivors = [i for i in range(64) if i % 8 == 0]
    assert order == sorted(survivors, key=lambda k: (float(k % 7), k))


def test_push_many_matches_sequential_pushes():
    rng = RngRegistry(7).stream("batch")
    items = [
        (float(rng.integers(0, 20)), k, ("c", k), k * 2) for k in range(500)
    ]
    one, many = EventQueue(), EventQueue()
    for when, key, call, arg in items:
        one.push(when, key, call, arg)
    many.push_many(items)
    while True:
        a, b = one.pop(), many.pop()
        assert (a is None) == (b is None)
        if a is None:
            break
        assert a[:4] == b[:4]


def test_stats_counters_account_for_everything():
    q = EventQueue(min_compact=1000)  # suppress auto-compaction
    entries = [q.push(float(i), i, None if False else ("c", i)) for i in range(100)]
    for e in entries[:40]:
        q.cancel(e)
    popped = 0
    while q.pop() is not None:
        popped += 1
    s = q.stats()
    assert s["pushes"] == 100
    assert s["cancels"] == 40
    assert s["pops"] == popped == 60
    assert s["peak_depth"] == 100
    assert s["depth"] == 0


# ---------------------------------------------------------------------------
# pop_until: the event loop's one queue call per event
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 12)),
        st.tuples(st.just("cancel"), st.integers(0, 400)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("pop_until"), st.one_of(st.integers(-1, 13), st.just(float("inf")))),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, min_compact=st.integers(1, 6))
def test_pop_until_equals_peek_then_pop(ops, min_compact):
    """``pop_until(limit)`` returns what ``peek_when()`` + ``pop()`` (the
    loop it replaced) would, leaves the same queue behind, and keeps the
    same op counters — whatever pushes, cancels and compactions surround
    it, tombstones at the head included."""
    fused, split = EventQueue(min_compact), EventQueue(min_compact)
    handles = []
    for key, (op, x) in enumerate(ops):
        if op == "push":
            handles.append((fused.push(float(x), key, ("c", key), key), split.push(float(x), key, ("c", key), key)))
        elif op == "cancel" and handles:
            a, b = handles[x % len(handles)]
            assert fused.cancel(a) == split.cancel(b)
        elif op == "compact":
            fused.compact()
            split.compact()
        elif op == "pop_until":
            when = split.peek_when()
            want = None if when is None or when > x else split.pop()
            assert fused.pop_until(x) == want
            # peek_when had to drop the head's tombstones to answer;
            # pop_until drops them on the same occasions.
            assert fused.tombstones == split.tombstones
        assert len(fused) == len(split)
        assert fused.stats() == split.stats()
        assert fused.peek_when() == split.peek_when()
    while split:
        assert fused.pop_until(float("inf")) == split.pop()
    assert fused.pop_until(float("inf")) is None and split.pop() is None
    assert fused.stats() == split.stats()


def test_pop_until_leaves_a_future_head_and_its_handle_alive():
    q = EventQueue()
    dead = q.push(1.0, 0, "dead")
    live = q.push(2.0, 1, "live", "arg")
    q.cancel(dead)
    assert q.pop_until(1.5) is None  # head tombstone skipped, 2.0 is past the limit
    assert q.tombstones == 0 and len(q) == 1 and q.pops == 0
    assert q.pop_until(2.0) == (2.0, 1, "live", "arg")  # due exactly at the limit
    assert q.cancel(live) is False  # consumed in place: cancel-after-pop is a no-op
    assert q.pop_until(float("inf")) is None
