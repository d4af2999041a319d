"""Property and unit tests for SWIM membership-state precedence rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.na import Address
from repro.ssg import MembershipView, Status, Update


def addr(i: int) -> Address:
    return Address(f"na+sim://nid{i:05d}/m{i}")


ME = addr(0)
OTHER = addr(1)


def test_initial_view_contains_self():
    view = MembershipView(ME)
    assert view.alive() == [ME]
    assert view.contains(ME)
    assert view.size() == 1


def test_alive_update_adds_member():
    view = MembershipView(ME)
    assert view.apply(Update(Status.ALIVE, OTHER, 0))
    assert view.alive() == sorted([ME, OTHER])
    assert view.status_of(OTHER) is Status.ALIVE


def test_duplicate_alive_is_noop():
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 0))
    assert not view.apply(Update(Status.ALIVE, OTHER, 0))


def test_alive_refutes_suspect_only_with_higher_incarnation():
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 0))
    view.apply(Update(Status.SUSPECT, OTHER, 0))
    assert view.status_of(OTHER) is Status.SUSPECT
    assert not view.apply(Update(Status.ALIVE, OTHER, 0))   # same inc: no
    assert view.apply(Update(Status.ALIVE, OTHER, 1))       # higher inc: yes
    assert view.status_of(OTHER) is Status.ALIVE


def test_suspect_overrides_alive_same_incarnation():
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 3))
    assert view.apply(Update(Status.SUSPECT, OTHER, 3))
    assert view.status_of(OTHER) is Status.SUSPECT


def test_stale_suspect_does_not_override_newer_alive():
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 5))
    assert not view.apply(Update(Status.SUSPECT, OTHER, 4))
    assert view.status_of(OTHER) is Status.ALIVE


def test_dead_is_terminal():
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 0))
    view.apply(Update(Status.DEAD, OTHER, 0))
    assert not view.contains(OTHER)
    # Nothing resurrects a dead member (tombstone).
    assert not view.apply(Update(Status.ALIVE, OTHER, 99))
    assert view.status_of(OTHER) is Status.DEAD


def test_left_is_terminal_and_counts_as_departure():
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 0))
    view.apply(Update(Status.LEFT, OTHER, 0))
    assert not view.contains(OTHER)
    assert OTHER not in view.alive()


def test_terminal_update_about_unknown_member_is_tombstoned():
    view = MembershipView(ME)
    assert view.apply(Update(Status.DEAD, OTHER, 0))
    assert not view.apply(Update(Status.ALIVE, OTHER, 5))


def test_suspects_still_count_as_members():
    """SWIM: suspects remain in the membership list until declared dead."""
    view = MembershipView(ME)
    view.apply(Update(Status.ALIVE, OTHER, 0))
    view.apply(Update(Status.SUSPECT, OTHER, 0))
    assert OTHER in view.alive()


def test_snapshot_roundtrip_reproduces_view():
    view = MembershipView(ME)
    for i in range(1, 5):
        view.apply(Update(Status.ALIVE, addr(i), i))
    view.apply(Update(Status.SUSPECT, addr(2), 2))
    view.apply(Update(Status.DEAD, addr(3), 3))

    other = MembershipView(addr(9))
    for update in view.snapshot_updates():
        other.apply(update)
    assert set(other.alive()) >= set(view.alive())
    assert other.status_of(addr(3)) is Status.DEAD
    assert other.status_of(addr(2)) is Status.SUSPECT


# ---------------------------------------------------------------------------
# properties
statuses = st.sampled_from([Status.ALIVE, Status.SUSPECT, Status.DEAD, Status.LEFT])
members = st.integers(min_value=1, max_value=5).map(addr)
updates = st.builds(
    Update,
    status=statuses,
    member=members,
    incarnation=st.integers(min_value=0, max_value=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(updates, max_size=30))
def test_property_view_convergence_is_order_insensitive_for_terminal(seq):
    """If any terminal update about member m appears in a sequence, m is
    not a member afterwards, regardless of order."""
    view = MembershipView(ME)
    for u in seq:
        view.apply(u)
    for u in seq:
        if u.status.terminal:
            assert not view.contains(u.member)


@settings(max_examples=300, deadline=None)
@given(st.lists(updates, max_size=30))
def test_property_incarnation_never_decreases(seq):
    """The recorded incarnation for a member is non-decreasing."""
    view = MembershipView(ME)
    last = {}
    for u in seq:
        before = view.incarnation_of(u.member)
        view.apply(u)
        after = view.incarnation_of(u.member)
        assert after >= before


@settings(max_examples=200, deadline=None)
@given(st.lists(updates, max_size=25))
def test_property_applying_twice_is_idempotent(seq):
    view1 = MembershipView(ME)
    for u in seq:
        view1.apply(u)
    view2 = MembershipView(ME)
    for u in seq:
        view2.apply(u)
        view2.apply(u)
    assert view1.alive() == view2.alive()
    for i in range(1, 6):
        assert view1.status_of(addr(i)) == view2.status_of(addr(i))


@settings(max_examples=200, deadline=None)
@given(st.lists(updates, max_size=25))
def test_property_self_always_member(seq):
    """Updates about others never remove the view owner."""
    view = MembershipView(ME)
    for u in seq:
        if u.member != ME:
            view.apply(u)
    assert view.contains(ME)
