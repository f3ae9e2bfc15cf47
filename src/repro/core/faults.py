"""Deterministic, seedable fault injection for the robustness runtime.

A :class:`FaultPlan` is attached to :class:`~repro.core.flags.
CompilerFlags` (``flags.fault_plan``) and consulted at four named sites
on the write/refresh path:

========================  ===================================================
site                      instrumented in
========================  ===================================================
``wal.append``            :meth:`repro.storage.wal.WriteAheadLog.append`
``checkpoint.write``      :meth:`repro.storage.checkpoint.DurabilityManager.
                          checkpoint`
``fused.fold``            :meth:`repro.core.fused.FusedRefresh.run`
                          (after step 1 integrated the join state, before
                          the fold and the view writes)
``queue.enqueue``         :meth:`repro.core.runtime.IngestQueue.enqueue`
========================  ===================================================

Each :class:`FaultSpec` describes one scheduled fault: the site it fires
at, the kind (``error`` raises :class:`~repro.errors.FaultInjectedError`,
``latency`` sleeps, ``torn`` asks the caller to perform a partial write
before failing), a per-visit probability, and firing-count bounds
(``after`` skips the first N visits, ``times`` caps total firings).

Determinism: every spec owns its own ``random.Random`` seeded from the
plan seed, the site name, and the spec's position, so a plan replays the
identical fault schedule for the identical sequence of site visits —
regardless of wall time or interleaving of *other* sites.  Counters are
guarded by a lock because a site may be visited from several threads
(concurrent writers all reach ``queue.enqueue``).

The chaos oracle (``tests/properties/test_chaos_oracle.py``) drives 200+
randomized DML steps under such schedules and checks every view still
converges to the full-recompute ground truth.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import FaultInjectedError, IVMError

KINDS = ("error", "latency", "torn")
SITES = ("wal.append", "checkpoint.write", "fused.fold", "queue.enqueue")


@dataclass
class FaultSpec:
    """One scheduled fault at one site.

    ``probability`` is evaluated per *eligible* visit (those past
    ``after`` and below ``times`` firings); ``times=None`` means
    unbounded.  ``latency`` seconds are slept for the ``latency`` kind.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    times: int | None = None
    after: int = 0
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise IVMError(
                f"fault kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise IVMError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.times is not None and self.times < 0:
            raise IVMError(f"fault times must be >= 0, got {self.times}")
        if self.after < 0:
            raise IVMError(f"fault after must be >= 0, got {self.after}")
        if self.latency < 0:
            raise IVMError(f"fault latency must be >= 0, got {self.latency}")


@dataclass
class _SpecState:
    """Runtime bookkeeping for one spec (visits seen, times fired)."""

    spec: FaultSpec
    rng: random.Random
    visits: int = 0
    fired: int = 0


class TornWrite:
    """Directive returned by :meth:`FaultPlan.check` for ``torn`` faults:
    the caller should persist only ``fraction`` of the payload bytes and
    then raise the attached error — simulating a crash mid-write that
    the recovery path must tolerate."""

    def __init__(self, site: str, fraction: float) -> None:
        self.site = site
        self.fraction = fraction
        self.error = FaultInjectedError(site, detail="torn write")

    def cut(self, payload: bytes) -> bytes:
        return payload[: max(1, int(len(payload) * self.fraction))]


class FaultPlan:
    """A deterministic schedule of injected faults across named sites."""

    def __init__(self, seed: int = 0, specs: tuple | list = ()) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._states: list[_SpecState] = []
        self._sleep = time.sleep
        for index, spec in enumerate(specs):
            self.add(spec, _index=index)

    def add(self, spec: FaultSpec, _index: int | None = None) -> "FaultPlan":
        """Register one spec; chainable.  The spec's RNG is seeded from
        (plan seed, site, registration index) so schedules replay."""
        index = len(self._states) if _index is None else _index
        rng = random.Random(f"{self.seed}:{spec.site}:{index}")
        with self._lock:
            self._states.append(_SpecState(spec=spec, rng=rng))
        return self

    # -- firing ----------------------------------------------------------

    def check(self, site: str, **detail) -> TornWrite | None:
        """Consult the plan at ``site``.

        ``error`` faults raise :class:`~repro.errors.FaultInjectedError`
        here; ``latency`` faults sleep here and return None; ``torn``
        faults return a :class:`TornWrite` directive for the caller to
        apply.  At most one spec fires per visit (first match wins);
        every matching spec's visit counter advances either way.
        """
        chosen: FaultSpec | None = None
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.site != site:
                    continue
                state.visits += 1
                if chosen is not None:
                    continue
                if state.visits <= spec.after:
                    continue
                if spec.times is not None and state.fired >= spec.times:
                    continue
                if spec.probability < 1.0 and (
                    state.rng.random() >= spec.probability
                ):
                    continue
                state.fired += 1
                chosen = spec
        if chosen is None:
            return None
        if chosen.kind == "latency":
            self._sleep(chosen.latency)
            return None
        if chosen.kind == "torn":
            return TornWrite(site, fraction=0.5)
        raise FaultInjectedError(site, detail=_describe(detail))

    # -- diagnostics -----------------------------------------------------

    def fired(self, site: str | None = None) -> int:
        """Total firings, optionally restricted to one site."""
        with self._lock:
            return sum(
                state.fired
                for state in self._states
                if site is None or state.spec.site == site
            )

    def visits(self, site: str | None = None) -> int:
        """Total eligible-site visits, optionally restricted to one site.
        Multiple specs on the same site count each visit once per spec."""
        with self._lock:
            return sum(
                state.visits
                for state in self._states
                if site is None or state.spec.site == site
            )

    def snapshot(self) -> list[dict]:
        """Per-spec (site, kind, visits, fired) — for health reports."""
        with self._lock:
            return [
                {
                    "site": state.spec.site,
                    "kind": state.spec.kind,
                    "visits": state.visits,
                    "fired": state.fired,
                }
                for state in self._states
            ]


def _describe(detail: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in sorted(detail.items()))
