"""Weighted graph view of an ontology, with shortest-path distances.

The Sentence Distance Evaluation (section 4.3) asks "how far apart are
these two keywords in the knowledge ontology?".  We answer with weighted
shortest paths over the relation graph, treating relations as undirected
for distance purposes (being operated-on is as close as operating).

The implementation is self-contained (binary-heap Dijkstra); ``networkx``
is used only in the test suite as an oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import Ontology, RelationKind

INFINITY = float("inf")


@dataclass(frozen=True, slots=True)
class PathResult:
    """A shortest path between two ontology items."""

    distance: float
    nodes: tuple[int, ...]

    @property
    def reachable(self) -> bool:
        return self.distance != INFINITY


class OntologyGraph:
    """Adjacency view over an :class:`~repro.ontology.model.Ontology`.

    The view follows the ontology: every query checks the ontology's
    generation and rebuilds the adjacency when it moved.  Single-source
    distance rows are memoised per generation and answer
    :meth:`distance` too; relation weights are 1.0 and 2.0, so every
    path sum is exact and a row entry equals the early-exit Dijkstra's
    answer.  Tables are built whole and published by one assignment, so
    worker threads sharing a graph never read a half-built one.
    """

    def __init__(self, ontology: Ontology, kinds: tuple[RelationKind, ...] | None = None) -> None:
        self.ontology = ontology
        self.kinds = kinds
        self._view: _GraphView | None = None

    def _current(self) -> _GraphView:
        view = self._view
        if view is None or view.generation != self.ontology.generation:
            view = _GraphView(self.ontology, self.kinds)
            self._view = view
        return view

    def neighbors(self, node: int) -> list[tuple[int, float]]:
        return list(self._current().adjacency.get(node, ()))

    def shortest_path(self, source: int, target: int) -> PathResult:
        """Dijkstra shortest path; ``INFINITY`` when unreachable."""
        adjacency = self._current().adjacency
        if source not in adjacency or target not in adjacency:
            return PathResult(INFINITY, ())
        if source == target:
            return PathResult(0.0, (source,))
        best: dict[int, float] = {source: 0.0}
        previous: dict[int, int] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > best.get(node, INFINITY):
                continue
            if node == target:
                break
            for neighbor, weight in adjacency[node]:
                candidate = dist + weight
                if candidate < best.get(neighbor, INFINITY):
                    best[neighbor] = candidate
                    previous[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        if target not in best:
            return PathResult(INFINITY, ())
        path = [target]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return PathResult(best[target], tuple(path))

    def distance(self, source: int, target: int) -> float:
        return self._row(source).get(target, INFINITY)

    def distances_from(self, source: int) -> dict[int, float]:
        """Single-source distances to every reachable node."""
        return dict(self._row(source))

    def _row(self, source: int) -> dict[int, float]:
        """The memoised distance row of ``source`` (do not mutate)."""
        view = self._current()
        row = view.rows.get(source)
        if row is None:
            row = _dijkstra(view.adjacency, source)
            view.rows[source] = row
        return row

    def connected_components(self) -> list[set[int]]:
        """Connected components of the (undirected) relation graph."""
        adjacency = self._current().adjacency
        seen: set[int] = set()
        components: list[set[int]] = []
        for start in adjacency:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor, _ in adjacency[node]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            seen |= component
            components.append(component)
        return components


class _GraphView:
    """One generation's adjacency plus its memoised distance rows."""

    __slots__ = ("generation", "adjacency", "rows")

    def __init__(self, ontology: Ontology, kinds: tuple[RelationKind, ...] | None) -> None:
        # Stamp before reading, as the ontology's own index does.
        self.generation = ontology.generation
        adjacency: dict[int, list[tuple[int, float]]] = {
            item.item_id: [] for item in ontology.items()
        }
        for relation in ontology.relations():
            if kinds is not None and relation.kind not in kinds:
                continue
            weight = relation.kind.weight
            adjacency[relation.source].append((relation.target, weight))
            adjacency[relation.target].append((relation.source, weight))
        self.adjacency = adjacency
        self.rows: dict[int, dict[int, float]] = {}


def _dijkstra(adjacency: dict[int, list[tuple[int, float]]], source: int) -> dict[int, float]:
    """Single-source distances to every node reachable from ``source``."""
    if source not in adjacency:
        return {}
    best: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > best.get(node, INFINITY):
            continue
        for neighbor, weight in adjacency[node]:
            candidate = dist + weight
            if candidate < best.get(neighbor, INFINITY):
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return best
