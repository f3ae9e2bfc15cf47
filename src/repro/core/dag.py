"""View dependency DAG.

A materialized view's FROM clause may name other materialized views.  This module tracks the resulting dependency
graph so the extension can (a) reject cycles and self-references at
CREATE time with a typed :class:`~repro.errors.DependencyCycleError`,
(b) order refreshes topologically (upstreams before dependents), and
(c) answer the closure queries the cascade runtime needs: "which views
must be fresh before this one refreshes?" (upstream closure) and "which
views consume this one's output delta?" (dependents closure).

The graph is tiny (one node per view) and mutated only under the
extension's statement path, so plain dicts + recomputed traversals are
the right weight — no incremental topo maintenance.
"""

from __future__ import annotations

from repro.errors import DependencyCycleError

__all__ = ["ViewDependencyGraph"]


class ViewDependencyGraph:
    """Directed acyclic graph of view-over-view dependencies.

    Edges point *upstream*: ``upstream(v)`` is the set of views ``v``
    reads from; ``dependents(v)`` is the reverse.  Base tables are not
    nodes — a view with no view-sources is a root (depth 0).
    """

    def __init__(self) -> None:
        # view name (lower) -> set of upstream view names (lower)
        self._upstream: dict[str, set[str]] = {}
        # reverse adjacency, maintained in lockstep
        self._dependents: dict[str, set[str]] = {}

    # -- mutation ----------------------------------------------------------

    def add_view(self, name: str, upstream: set[str] | frozenset[str] | list[str] | tuple[str, ...] = ()) -> None:
        """Register ``name`` reading from the views in ``upstream``.

        Raises :class:`DependencyCycleError` (leaving the graph
        untouched) if the new edges would close a cycle — including the
        degenerate ``name in upstream`` self-reference.  Upstream names
        that are not registered views are ignored: callers pass only
        known view names, but being lenient here keeps the graph usable
        during recovery replay.
        """
        key = name.lower()
        ups = {u.lower() for u in upstream}
        if key in ups:
            raise DependencyCycleError(
                f"view {name} references itself", cycle=(key, key)
            )
        known_ups = {u for u in ups if u in self._upstream}
        # A cycle through the new node needs a path from one of its
        # upstreams back to it — impossible unless ``key`` already
        # exists (CREATE OR REPLACE over a view with dependents).
        if key in self._upstream:
            for start in known_ups:
                path = self._find_path(start, key)
                if path is not None:
                    raise DependencyCycleError(
                        f"view {name} would close a dependency cycle: "
                        + " -> ".join((key, *path)),
                        cycle=(key, *path),
                    )
        self._upstream[key] = known_ups
        self._dependents.setdefault(key, set())
        for up in known_ups:
            self._dependents.setdefault(up, set()).add(key)

    def remove_view(self, name: str) -> None:
        key = name.lower()
        for up in self._upstream.pop(key, set()):
            self._dependents.get(up, set()).discard(key)
        self._dependents.pop(key, None)
        # Dangling edges from dependents of a dropped view cannot exist:
        # the extension refuses to drop a view that still has dependents.

    # -- queries -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._upstream

    def upstream(self, name: str) -> set[str]:
        """Direct view-sources of ``name``."""
        return set(self._upstream.get(name.lower(), set()))

    def dependents(self, name: str) -> set[str]:
        """Views reading directly from ``name``."""
        return set(self._dependents.get(name.lower(), set()))

    def upstream_closure(self, name: str) -> list[str]:
        """All transitive upstreams of ``name``, topologically ordered
        (furthest upstream first).  Excludes ``name`` itself."""
        members = self._closure(name, self._upstream)
        return [v for v in self.topo_sort() if v in members]

    def dependents_closure(self, name: str) -> list[str]:
        """All transitive dependents of ``name``, topologically ordered
        (nearest dependent first).  Excludes ``name`` itself."""
        members = self._closure(name, self._dependents)
        return [v for v in self.topo_sort() if v in members]

    def topo_sort(self) -> list[str]:
        """Every registered view, upstreams before dependents.  Ties are
        broken by registration order, so the result is deterministic and
        matches creation order for a creation-ordered input (recovery
        relies on this)."""
        indegree = {v: len(ups) for v, ups in self._upstream.items()}
        order: list[str] = []
        ready = [v for v in self._upstream if indegree[v] == 0]
        while ready:
            node = ready.pop(0)
            order.append(node)
            for dep in sorted(self._dependents.get(node, set())):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        return order

    def depth(self, name: str) -> int:
        """Longest upstream chain below ``name``; 0 for a view over base
        tables only."""
        key = name.lower()
        if key not in self._upstream:
            return 0
        best = 0
        for up in self._upstream[key]:
            best = max(best, self.depth(up) + 1)
        return best

    # -- internals ---------------------------------------------------------

    def _closure(self, name: str, adjacency: dict[str, set[str]]) -> set[str]:
        seen: set[str] = set()
        stack = list(adjacency.get(name.lower(), set()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, set()) - seen)
        return seen

    def _find_path(self, start: str, goal: str) -> tuple[str, ...] | None:
        """Path start -> ... -> goal following upstream edges, or None."""
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        seen: set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for up in self._upstream.get(node, set()):
                stack.append((up, path + (up,)))
        return None
