"""Property tests for the grouped probe of ``IndexedJoinState.apply``.

The state groups each delta batch by join key and probes the stored
side once per distinct key.  Over several rounds, its output delta must
equal the three-term reference :func:`incremental_join_delta` over
dict-backed ``ZSet``s, and its integrated sides must equal the
reference states.  The generated deltas carry duplicate rows,
opposite-sign pairs of one row inside one batch, NULL join keys, and a
skewed key distribution (one hot key takes most of the entries).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.zset import ZSet, ZSetBatch, incremental_join_delta, zset_join
from repro.zset.incremental import IndexedJoinState

# Skewed keys: "hot" is drawn six times as often as each cold key.
_key = st.sampled_from(["hot"] * 6 + ["a", "b", "c", None])
_value = st.one_of(st.none(), st.integers(-3, 3))
_row = st.tuples(_key, _value)


@st.composite
def _delta(draw) -> list[tuple[tuple, int]]:
    """Raw (row, weight) entries of one batch: arbitrary weights, rows
    repeated verbatim, and rows inserted and retracted together."""
    entries = draw(
        st.lists(st.tuples(_row, st.integers(-3, 3)), max_size=14)
    )
    repeated = draw(st.lists(st.sampled_from(entries), max_size=4)) if (
        entries
    ) else []
    pairs = draw(st.lists(_row, max_size=3))
    return (
        entries
        + repeated
        + [(row, 1) for row in pairs]
        + [(row, -1) for row in pairs]
    )


def _batch(entries) -> ZSetBatch:
    if not entries:
        return ZSetBatch.empty(2)
    return ZSetBatch.from_rows(
        [row for row, _ in entries], [weight for _, weight in entries]
    )


def _zset(entries) -> ZSet:
    merged: dict[tuple, int] = {}
    for row, weight in entries:
        merged[row] = merged.get(row, 0) + weight
    return ZSet(merged)


def _join_on(key_width: int):
    def key(row):
        value = row[:key_width]
        return None if any(v is None for v in value) else value

    return lambda a, b: zset_join(a, b, key, key)


def _joinable(zset: ZSet, key_width: int) -> ZSet:
    """The rows a join side can ever match (NULL-keyed rows are never
    stored by the indexed state)."""
    return ZSet(
        {
            row: weight
            for row, weight in zset.items()
            if not any(v is None for v in row[:key_width])
        }
    )


def _check_rounds(initial_left, initial_right, rounds, key_width):
    key = list(range(key_width))
    state = IndexedJoinState(key, key)
    state.load_left(row for row, _ in initial_left)
    state.load_right(row for row, _ in initial_right)
    left = _zset((row, 1) for row, _ in initial_left)
    right = _zset((row, 1) for row, _ in initial_right)
    join = _join_on(key_width)
    for dl_entries, dr_entries in rounds:
        dl, dr = _zset(dl_entries), _zset(dr_entries)
        want = incremental_join_delta(left, dl, right, dr, join)
        got = state.apply(_batch(dl_entries), _batch(dr_entries))
        assert got.to_zset() == want
        left, right = left + dl, right + dr
    sides: tuple[dict, dict] = ({}, {})
    for side, row, weight in state.dump():
        sides[side][row] = sides[side].get(row, 0) + weight
    assert ZSet(sides[0]) == _joinable(left, key_width)
    assert ZSet(sides[1]) == _joinable(right, key_width)


_initial = st.lists(st.tuples(_row, st.just(1)), max_size=12)
_rounds = st.lists(st.tuples(_delta(), _delta()), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(_initial, _initial, _rounds)
def test_grouped_apply_matches_three_term_reference(left, right, rounds):
    _check_rounds(left, right, rounds, key_width=1)


@settings(max_examples=100, deadline=None)
@given(_initial, _initial, _rounds)
def test_grouped_apply_on_composite_keys(left, right, rounds):
    """Two-column join keys: a NULL in either column keeps the row out."""
    _check_rounds(left, right, rounds, key_width=2)


def test_opposite_signs_in_one_batch_leave_no_trace():
    state = IndexedJoinState([0], [0])
    state.load_right([("hot", 1)])
    out = state.apply(
        _batch([(("hot", 5), 1), (("hot", 5), -1), ((None, 2), 1)]),
        ZSetBatch.empty(2),
    )
    assert len(out) == 0
    assert state.dump() == [(1, ("hot", 1), 1)]
