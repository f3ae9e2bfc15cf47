"""Differentiation / integration, reference delta computations, and the
persistent indexed join state.

These are the D and I operators of DBSP as the paper states them:

    D:  ΔT = T' − T          and   ΔV = V' − V
    I:  T + ΔT = T'          and   V + ΔV = V'

:func:`delta_view` is the *specification* of IVM — compute the view on the
old and new integrated states and difference them.  The compiler's output
must produce exactly this ΔV effect on the materialized table, so tests
run both and compare.

:class:`IndexedJoinState` is the *implementation-grade* form of the
three-term join delta: instead of rescanning the full stored Z-set on
every propagation, each side keeps its integrated state in a per-key index
backed by the ART of :mod:`repro.storage.art`, so a delta batch only
touches the keys it actually contains.  :class:`GroupLivenessState` and
:class:`GroupExtremaState` are the same idea for the two non-invertible
maintenance questions — is a group still alive, and what is its MIN/MAX
after a retraction — each integrating exactly the auxiliary per-group
structure that answers its question in O(log n) instead of a rescan.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.storage.art import ARTIndex
from repro.storage.keys import decode_key, encode_key
from repro.zset.batch import ZSetBatch
from repro.zset.zset import ZSet

Query = Callable[..., ZSet]


def delta_view(query: Query, tables: list[ZSet], deltas: list[ZSet]) -> ZSet:
    """ΔV = Q(T1+ΔT1, ..., Tn+ΔTn) − Q(T1, ..., Tn).

    Works for *any* query, linear or not — this is the brute-force
    differentiation that incremental plans must be equivalent to.
    """
    if len(tables) != len(deltas):
        raise ValueError("tables and deltas must align")
    new_tables = [t + d for t, d in zip(tables, deltas)]
    return query(*new_tables) - query(*tables)


def integrate(state: ZSet, delta: ZSet) -> ZSet:
    """I: fold a delta into the integrated state."""
    return state + delta


def incremental_join_delta(
    left: ZSet,
    delta_left: ZSet,
    right: ZSet,
    delta_right: ZSet,
    join: Callable[[ZSet, ZSet], ZSet],
) -> ZSet:
    """The three-term bilinear join delta (paper: "the incremental form of
    a join consists of three relational join operators").

    With OLD states on both sides:

        Δ(A ⋈ B) = ΔA ⋈ B  +  A ⋈ ΔB  +  ΔA ⋈ ΔB

    (Equivalently, with NEW states the last term is subtracted; the
    compiler emits the new-state form because base tables are updated
    before propagation runs.)
    """
    return (
        join(delta_left, right)
        + join(left, delta_right)
        + join(delta_left, delta_right)
    )


# ---------------------------------------------------------------------------
# Persistent group liveness state
# ---------------------------------------------------------------------------


class GroupLivenessState:
    """Exact per-group row counters — the I operator over COUNT(*) deltas.

    Views without a stored liveness column (a visible SUM, no COUNT(*))
    leave the SQL path only the paper's imprecise ``DELETE ... WHERE
    sum = 0`` test, which both deletes live groups whose values genuinely
    sum to zero and keeps dead groups whose float sums carry residue.
    This state integrates the *weighted count* of every group instead —
    an exact integer, so cancellation is exact — and reports the groups
    whose count reaches zero.  It is persistent across refreshes, like
    :class:`IndexedJoinState`, and is seeded from a COUNT(*) recompute at
    view-creation time.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def count(self, key: tuple) -> int:
        return self._counts.get(key, 0)

    def load(self, entries: Iterable[tuple[tuple, int]]) -> None:
        """Seed the counters with ``(key, count)`` pairs."""
        self._counts = {key: int(count) for key, count in entries}

    def dump(self) -> list[tuple[tuple, int]]:
        """Checkpoint image: every ``(key, count)`` pair.  ``load`` of a
        dump reproduces the state exactly."""
        return list(self._counts.items())

    def apply(
        self, keys: Sequence[tuple], nets: Sequence[int]
    ) -> list[tuple]:
        """Integrate one refresh round's per-group count deltas.

        Returns the keys whose integrated count dropped to zero (or below)
        this round — the groups step 3 must delete.  Dead groups are
        removed from the state so a later re-insert starts fresh.
        """
        dead: list[tuple] = []
        for key, net in zip(keys, nets):
            count = self._counts.get(key, 0) + int(net)
            if count <= 0:
                self._counts.pop(key, None)
                dead.append(key)
            else:
                self._counts[key] = count
        return dead


# ---------------------------------------------------------------------------
# Persistent per-group extrema state (MIN/MAX retraction)
# ---------------------------------------------------------------------------


class GroupExtremaState:
    """Ordered multiset of aggregate input values per group — the I
    operator over one MIN/MAX column's source values.

    MIN/MAX retraction is not invertible from the stored extremum alone:
    deleting the current extremum needs the runner-up, which the
    materialized row no longer carries.  The SQL fallback (step 2b)
    answers that with a full per-group rescan of the base tables —
    O(|base|) per touched group.  This state instead integrates the
    weighted count of every (group, value) pair: an outer ART maps the
    memcomparable group key to a per-group inner ART over the encoded
    value, whose leaves hold mutable ``[value, count]`` cells.  The
    ordered ART makes the post-retraction extremum one outer descent plus
    one leftmost/rightmost edge walk — O(log n) per touched group.

    Like :class:`GroupLivenessState` it is persistent across refreshes,
    fed source-level deltas by the native step 1, and seeded from a
    ``GROUP BY key, value`` COUNT(*) recompute at view-creation time.
    NULL values never enter the state (SQL MIN/MAX skip NULLs), so an
    all-NULL group reads back as None — the SQL answer.
    """

    __slots__ = ("_art",)

    def __init__(self) -> None:
        self._art = ARTIndex()

    def __len__(self) -> int:
        """Number of groups currently holding at least one value."""
        return len(self._art)

    def load(self, entries: Iterable[tuple[tuple, object, int]]) -> None:
        """Seed with ``(group_key, value, count)`` triples."""
        self._art = ARTIndex()
        for key, value, count in entries:
            self.apply([key], [value], [count])

    def dump(self) -> list[tuple[tuple, object, int]]:
        """Checkpoint image: ``(group_key, value, count)`` triples in
        (group, value) key order.  Group keys are rebuilt through
        :func:`~repro.storage.keys.decode_key`, so their numbers come
        back as floats — encoding-equivalent to the originals (the state
        addresses groups by encoded bytes), and ``load`` of a dump
        answers every ``extremum`` query identically.  Values keep their
        original objects: the inner cells store them verbatim."""
        out: list[tuple[tuple, object, int]] = []
        for group_encoded, payloads in self._art.items():
            key = tuple(decode_key(group_encoded))
            bucket: ARTIndex = payloads[0]
            for _, cells in bucket.items():
                value, count = cells[0]
                out.append((key, value, count))
        return out

    def apply(self, keys: Sequence[tuple], values: Sequence, nets) -> None:
        """Integrate one refresh round's per-(group, value) count deltas.

        Counts that reach zero drop the value cell; groups left empty
        drop entirely, so a later re-insert starts fresh.
        """
        for key, value, net in zip(keys, values, nets):
            net = int(net)
            if net == 0 or value is None:
                continue
            group_key = encode_key(key)
            found = self._art.search(group_key)
            bucket = found[0] if found else None
            if bucket is None:
                if net < 0:
                    continue  # retraction of a value never integrated
                bucket = ARTIndex()
                self._art.insert(group_key, bucket)
            value_key = encode_key((value,))
            cells = bucket.search(value_key)
            if cells:
                cell = cells[0]
                cell[1] += net
                if cell[1] <= 0:
                    bucket.delete(value_key)
            elif net > 0:
                bucket.insert(value_key, [value, net])
            if len(bucket) == 0:
                self._art.delete(group_key)

    def extremum(self, key: tuple, want_max: bool):
        """Current MIN (or MAX) of ``key``'s multiset, or None when the
        group holds no non-NULL values."""
        found = self._art.search(encode_key(key))
        if not found:
            return None
        bucket: ARTIndex = found[0]
        item = bucket.last_item() if want_max else bucket.first_item()
        if item is None:
            return None
        return item[1][0][0]  # (key, [cell]) -> cell -> original value


# ---------------------------------------------------------------------------
# Persistent indexed join state
# ---------------------------------------------------------------------------


class _SideIndex:
    """One join side's integrated Z-set, indexed by encoded join key.

    The ART maps each memcomparable key encoding to a single mutable
    ``dict[row, weight]`` payload, so point lookups cost one tree descent
    and integration of a delta batch touches only the keys in the batch.
    """

    __slots__ = ("key_ordinals", "_art", "_row_count")

    def __init__(self, key_ordinals: Sequence[int]) -> None:
        self.key_ordinals = list(key_ordinals)
        self._art = ARTIndex()
        self._row_count = 0

    def __len__(self) -> int:
        return self._row_count

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.key_ordinals)

    def lookup(self, key: tuple) -> dict[tuple, int]:
        """Rows stored under ``key`` (empty dict when absent)."""
        found = self._art.search(encode_key(key))
        return found[0] if found else {}

    def group(self, batch: ZSetBatch) -> "dict[tuple, list[tuple[tuple, int]]]":
        """Group a delta batch's consolidated entries by join key:
        ``key -> [(row, weight), ...]``.  One pass materializes each
        entry once, and the probe and :meth:`integrate` then pay one key
        encoding and one ART descent per *distinct* key.  NULL-keyed
        entries are dropped — they can never join, so they are never
        stored either."""
        groups: dict[tuple, list[tuple[tuple, int]]] = {}
        batch = batch.consolidate()
        if len(batch) == 0:
            return groups
        columns = batch.columns
        key_columns = [columns[i] for i in self.key_ordinals]
        # zip materializes the row and key tuples at C level, without a
        # per-row Python comprehension.
        rows = zip(*columns)
        keys = (
            zip(*key_columns)
            if len(key_columns) != 1
            else ((value,) for value in key_columns[0])
        )
        for row, key, weight in zip(rows, keys, batch.weights.tolist()):
            bucket = groups.get(key)
            if bucket is None:
                if any(v is None for v in key):
                    continue
                groups[key] = bucket = []
            bucket.append((row, weight))
        return groups

    def integrate(
        self, groups: "dict[tuple, list[tuple[tuple, int]]]"
    ) -> None:
        """Fold key-grouped delta entries (:meth:`group`) into the state
        (I operator): one tree descent per distinct key."""
        for key, entries in groups.items():
            encoded = encode_key(key)
            found = self._art.search(encoded)
            if found:
                bucket = found[0]
            else:
                bucket = {}
                self._art.insert(encoded, bucket)
            for row, weight in entries:
                new_weight = bucket.get(row, 0) + weight
                if new_weight == 0:
                    if row in bucket:
                        del bucket[row]
                        self._row_count -= 1
                else:
                    if row not in bucket:
                        self._row_count += 1
                    bucket[row] = new_weight

    def bulk_load(self, rows: Iterable[tuple]) -> None:
        """Initial build from base rows (weight +1 each), via the chunked
        ART construction path used for CREATE-time index builds."""
        self.load_weighted((row, 1) for row in rows)

    def load_weighted(self, entries: Iterable[tuple[tuple, int]]) -> None:
        """Build from ``(row, weight)`` pairs (the checkpoint image
        shape); zero-weight survivors are dropped like ``integrate``
        would."""
        buckets: dict[tuple, dict[tuple, int]] = {}
        for row, weight in entries:
            key = self.key_of(row)
            if any(v is None for v in key):
                continue
            bucket = buckets.setdefault(key, {})
            new_weight = bucket.get(row, 0) + int(weight)
            if new_weight == 0:
                bucket.pop(row, None)
            else:
                bucket[row] = new_weight
        built = [
            (encode_key(key), bucket)
            for key, bucket in buckets.items()
            if bucket
        ]
        self._row_count = sum(len(b) for _, b in built)
        built.sort(key=lambda kv: kv[0])
        self._art = ARTIndex.build_chunked(built)

    def dump(self) -> list[tuple[tuple, int]]:
        """Checkpoint image: every stored ``(row, weight)`` pair, in key
        order.  ``load_weighted`` of a dump reproduces the state."""
        out: list[tuple[tuple, int]] = []
        for _, payloads in self._art.items():
            for row, weight in payloads[0].items():
                out.append((row, weight))
        return out


class IndexedJoinState:
    """Incremental equi-join with ART-indexed per-key state on both sides.

    Maintains A and B (as Z-sets over their row tuples) and answers

        Δ(A ⋈ B) = ΔA ⋈ B  +  A ⋈ ΔB  +  ΔA ⋈ ΔB

    per update *without* rescanning A or B: the ΔA⋈B term probes B's index
    once per distinct key in ΔA (and symmetrically), so propagation cost is
    O(|Δ| · matches), independent of |A| + |B|.  After computing the output
    delta both deltas are integrated, keeping the state consistent for the
    next round.
    """

    def __init__(
        self,
        left_key: Sequence[int],
        right_key: Sequence[int],
        left_out: Sequence[int] | None = None,
        right_out: Sequence[int] | None = None,
    ) -> None:
        self._left = _SideIndex(left_key)
        self._right = _SideIndex(right_key)
        self._left_out = None if left_out is None else list(left_out)
        self._right_out = None if right_out is None else list(right_out)

    # -- loading -----------------------------------------------------------

    def load_left(self, rows: Iterable[tuple]) -> None:
        self._left.bulk_load(rows)

    def load_right(self, rows: Iterable[tuple]) -> None:
        self._right.bulk_load(rows)

    def dump(self) -> list[tuple[int, tuple, int]]:
        """Checkpoint image: ``(side, row, weight)`` triples (side 0 is
        left, 1 is right).  ``load_dump`` reproduces the state."""
        return [
            (side, row, weight)
            for side, index in ((0, self._left), (1, self._right))
            for row, weight in index.dump()
        ]

    def load_dump(self, entries: Iterable[tuple[int, tuple, int]]) -> None:
        """Rebuild both sides from a :meth:`dump` image."""
        sides: tuple[list, list] = ([], [])
        for side, row, weight in entries:
            sides[side].append((row, weight))
        self._left.load_weighted(sides[0])
        self._right.load_weighted(sides[1])

    def rewind(self, delta_left: ZSetBatch, delta_right: ZSetBatch) -> None:
        """Back the state out of deltas that are already *in* the loaded
        base rows but not yet propagated (pending ΔT at load time)."""
        self._left.integrate(self._left.group(-delta_left))
        self._right.integrate(self._right.group(-delta_right))

    # -- the three-term delta ----------------------------------------------

    def apply(
        self, delta_left: ZSetBatch, delta_right: ZSetBatch
    ) -> ZSetBatch:
        """Output delta for one round of input deltas; integrates them.

        Both deltas are grouped by join key first (:meth:`_SideIndex.
        group`), so each *distinct* key pays one encoding and one ART
        descent per side, shared by every delta entry under it.  Skewed
        deltas revisit the same few keys, so this collapses the per-row
        descents that would otherwise dominate the probe."""
        dl_groups = self._left.group(delta_left)
        dr_groups = self._right.group(delta_right)

        lrows: list[tuple] = []
        rrows: list[tuple] = []
        wprod: list[int] = []
        # ΔA ⋈ B and ΔA ⋈ ΔB: one stored-side descent per distinct ΔA
        # key, shared by every ΔA entry under that key.
        for key, lentries in dl_groups.items():
            stored = self._right.lookup(key)
            fresh = dr_groups.get(key)
            if not stored and not fresh:
                continue
            for lrow, lweight in lentries:
                for rrow, rweight in stored.items():
                    lrows.append(lrow)
                    rrows.append(rrow)
                    wprod.append(lweight * rweight)
                if fresh:
                    for rrow, rweight in fresh:
                        lrows.append(lrow)
                        rrows.append(rrow)
                        wprod.append(lweight * rweight)
        # A ⋈ ΔB (old A — ΔA not yet folded), one descent per ΔB key.
        for key, rentries in dr_groups.items():
            stored = self._left.lookup(key)
            if not stored:
                continue
            for rrow, rweight in rentries:
                for lrow, lweight in stored.items():
                    lrows.append(lrow)
                    rrows.append(rrow)
                    wprod.append(lweight * rweight)

        self._left.integrate(dl_groups)
        self._right.integrate(dr_groups)

        left_out = self._left_out
        right_out = self._right_out
        if not lrows:
            left_arity = len(left_out) if left_out is not None else (
                delta_left.arity
            )
            right_arity = len(right_out) if right_out is not None else (
                delta_right.arity
            )
            return ZSetBatch.empty(left_arity + right_arity)
        left_batch = ZSetBatch.from_rows(lrows, wprod)
        right_batch = ZSetBatch.from_rows(rrows, np.ones(len(rrows), dtype=np.int64))
        if left_out is None:
            left_out = range(left_batch.arity)
        if right_out is None:
            right_out = range(right_batch.arity)
        columns = [left_batch.columns[j] for j in left_out]
        columns += [right_batch.columns[j] for j in right_out]
        return ZSetBatch(columns, left_batch.weights).consolidate()
