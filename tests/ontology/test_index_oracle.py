"""Differential suite: the indexed ontology against the relation scans.

``Ontology`` answers every structural query from tables built once per
generation, and ``OntologyGraph`` memoises one distance row per source.
The oracle below keeps the earlier implementations verbatim: each query
linearly scans the relation list, and every distance runs a fresh
Dijkstra over an adjacency built at construction.  Both sides are fed
the same mutations and must answer every query identically, over the
shipped domain, over generated ontologies with diamonds, multiple
inheritance, IS-A cycles and duplicate relations, and while queries are
interleaved with mutations.
"""

from __future__ import annotations

import heapq
import importlib.util
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.semantic_agent import SemanticAgent
from repro.ontology import (
    INFINITY,
    Item,
    ItemKind,
    Ontology,
    OntologyGraph,
    PathResult,
    Relation,
    RelationKind,
)
from repro.ontology.domains import default_ontology
from repro.simulation import SimulatedLearner

KINDS = (None, *RelationKind)


class ScanOntology(Ontology):
    """The relation-scan queries, kept verbatim as the oracle."""

    def relations_from(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        source = self.resolve(key).item_id
        return [
            r for r in self._relations
            if r.source == source and (kind is None or r.kind == kind)
        ]

    def relations_to(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        target = self.resolve(key).item_id
        return [
            r for r in self._relations
            if r.target == target and (kind is None or r.kind == kind)
        ]

    def parents(self, key: int | str) -> list[Item]:
        """IS-A parents of an item."""
        return [self.get(r.target) for r in self.relations_from(key, RelationKind.IS_A)]

    def ancestors(self, key: int | str) -> list[Item]:
        """All transitive IS-A ancestors, nearest first (BFS order)."""
        start = self.resolve(key).item_id
        seen: list[int] = []
        frontier = [start]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for relation in self.relations_from(node, RelationKind.IS_A):
                    if relation.target not in seen and relation.target != start:
                        seen.append(relation.target)
                        next_frontier.append(relation.target)
            frontier = next_frontier
        return [self.get(item_id) for item_id in seen]

    def operations_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        """Operations supported by a concept, optionally via IS-A chains."""
        concept = self.resolve(key)
        sources = [concept] + (self.ancestors(concept.item_id) if inherit else [])
        operations: dict[int, Item] = {}
        for source in sources:
            for relation in self.relations_from(source.item_id, RelationKind.HAS_OPERATION):
                operations.setdefault(relation.target, self.get(relation.target))
        return list(operations.values())

    def has_operation(self, concept: int | str, operation: int | str, inherit: bool = True) -> bool:
        """Does ``concept`` support ``operation`` (directly or inherited)?"""
        target = self.resolve(operation).item_id
        return any(op.item_id == target for op in self.operations_of(concept, inherit=inherit))

    def concepts_with_operation(self, operation: int | str, inherit: bool = True) -> list[Item]:
        """All concepts supporting ``operation`` — the QA template
        "Which data structure has the method X?"."""
        result = []
        for item in self.items_of_kind(ItemKind.CONCEPT):
            if self.has_operation(item.item_id, operation, inherit=inherit):
                result.append(item)
        return result

    def properties_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        """Properties of a concept (LIFO, FIFO, ...), optionally inherited."""
        concept = self.resolve(key)
        sources = [concept] + (self.ancestors(concept.item_id) if inherit else [])
        properties: dict[int, Item] = {}
        for source in sources:
            for relation in self.relations_from(source.item_id, RelationKind.HAS_PROPERTY):
                properties.setdefault(relation.target, self.get(relation.target))
        return list(properties.values())

    def validate(self) -> list[str]:
        """Consistency problems (dangling relations, IS-A cycles)."""
        problems = []
        for relation in self._relations:
            if relation.source not in self._items or relation.target not in self._items:
                problems.append(f"dangling relation {relation}")
        # IS-A cycles would make inheritance loop forever conceptually.
        for item in self.items():
            seen = {item.item_id}
            frontier = [item.item_id]
            while frontier:
                node = frontier.pop()
                for relation in self.relations_from(node, RelationKind.IS_A):
                    if relation.target == item.item_id:
                        problems.append(f"is-a cycle through {item.name!r}")
                        frontier = []
                        break
                    if relation.target not in seen:
                        seen.add(relation.target)
                        frontier.append(relation.target)
        return problems


class ScanGraph(OntologyGraph):
    """The construction-time adjacency and per-call Dijkstra, verbatim."""

    def __init__(self, ontology: Ontology, kinds: tuple[RelationKind, ...] | None = None) -> None:
        self.ontology = ontology
        self._adjacency: dict[int, list[tuple[int, float]]] = {}
        for item in ontology.items():
            self._adjacency[item.item_id] = []
        for relation in ontology.relations():
            if kinds is not None and relation.kind not in kinds:
                continue
            weight = relation.kind.weight
            self._adjacency[relation.source].append((relation.target, weight))
            self._adjacency[relation.target].append((relation.source, weight))

    def shortest_path(self, source: int, target: int) -> PathResult:
        """Dijkstra shortest path; ``INFINITY`` when unreachable."""
        if source not in self._adjacency or target not in self._adjacency:
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
            for neighbor, weight in self._adjacency[node]:
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
        return self.shortest_path(source, target).distance

    def distances_from(self, source: int) -> dict[int, float]:
        """Single-source distances to every reachable node."""
        if source not in self._adjacency:
            return {}
        best: dict[int, float] = {source: 0.0}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > best.get(node, INFINITY):
                continue
            for neighbor, weight in self._adjacency[node]:
                candidate = dist + weight
                if candidate < best.get(neighbor, INFINITY):
                    best[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return best


def scan_copy(source: Ontology) -> ScanOntology:
    """The same knowledge body (shared item objects) behind the scans."""
    copy = ScanOntology(source.domain)
    for item in source.items():
        copy.add_item(item)
    for relation in source.relations():
        copy.add_relation(relation.source, relation.kind, relation.target)
    return copy


def ids(items) -> list[int]:
    return [item.item_id for item in items]


def structural_answers(ontology: Ontology) -> dict:
    """Every structural query, for every item, kind and inherit flag."""
    item_ids = [item.item_id for item in ontology.items()]
    answers: dict = {"validate": ontology.validate()}
    for item_id in item_ids:
        for kind in KINDS:
            answers["from", item_id, kind] = ontology.relations_from(item_id, kind)
            answers["to", item_id, kind] = ontology.relations_to(item_id, kind)
        answers["parents", item_id] = ids(ontology.parents(item_id))
        answers["ancestors", item_id] = ids(ontology.ancestors(item_id))
        for inherit in (False, True):
            answers["ops", item_id, inherit] = ids(ontology.operations_of(item_id, inherit))
            answers["props", item_id, inherit] = ids(ontology.properties_of(item_id, inherit))
            answers["with", item_id, inherit] = ids(
                ontology.concepts_with_operation(item_id, inherit)
            )
            answers["has", item_id, inherit] = [
                other for other in item_ids if ontology.has_operation(item_id, other, inherit)
            ]
    return answers


def distance_answers(graph: OntologyGraph, item_ids: list[int]) -> dict:
    answers: dict = {}
    for source in item_ids:
        answers["row", source] = graph.distances_from(source)
        for target in item_ids:
            answers["distance", source, target] = graph.distance(source, target)
            answers["path", source, target] = graph.shortest_path(source, target).distance
    return answers


def assert_matches_oracle(ontology: Ontology, graph: OntologyGraph) -> None:
    """``ontology`` and ``graph`` (over it) answer as the scans do."""
    oracle = scan_copy(ontology)
    assert structural_answers(ontology) == structural_answers(oracle)
    item_ids = [item.item_id for item in ontology.items()] + [10_000]
    assert distance_answers(graph, item_ids) == distance_answers(ScanGraph(oracle), item_ids)


class TestDefaultOntology:
    def test_every_query_matches_the_scans(self):
        ontology = default_ontology()
        assert_matches_oracle(ontology, OntologyGraph(ontology))

    def test_kind_filtered_graph_matches(self):
        ontology = default_ontology()
        kinds = (RelationKind.IS_A, RelationKind.HAS_OPERATION)
        item_ids = [item.item_id for item in ontology.items()]
        ours = distance_answers(OntologyGraph(ontology, kinds), item_ids)
        theirs = distance_answers(ScanGraph(scan_copy(ontology), kinds), item_ids)
        assert ours == theirs

    def test_answers_are_fresh_lists(self):
        ontology = default_ontology()
        stack = ontology.find("stack").item_id
        first = ontology.operations_of(stack)
        first.clear()
        assert ontology.operations_of(stack)
        ontology.relations_from(stack).clear()
        assert ontology.relations_from(stack)
        graph = OntologyGraph(ontology)
        graph.distances_from(stack).clear()
        assert graph.distances_from(stack)


# --------------------------------------------------- generated ontologies

ITEM_KINDS = (ItemKind.CONCEPT, ItemKind.CONCEPT, ItemKind.OPERATION, ItemKind.PROPERTY)


@st.composite
def mutation_scripts(draw):
    """A list of ``add_item``/``add_relation`` steps over up to 9 items.

    Relation endpoints are drawn with replacement from the items added so
    far, so scripts contain duplicate relations, IS-A diamonds, multiple
    inheritance, self-loops and IS-A cycles.
    """
    steps = []
    count = 0
    for _ in range(draw(st.integers(2, 24))):
        if count < 2 or (count < 9 and draw(st.integers(0, 3)) == 0):
            steps.append(("item", count, draw(st.sampled_from(ITEM_KINDS))))
            count += 1
        else:
            steps.append((
                "relation",
                draw(st.integers(0, count - 1)),
                draw(st.sampled_from(list(RelationKind))),
                draw(st.integers(0, count - 1)),
            ))
    return steps


def apply_step(ontology: Ontology, step) -> None:
    if step[0] == "item":
        _, index, kind = step
        # Ids are deliberately not in insertion order.
        ontology.add_item(Item(item_id=(index * 7) % 11 + 1, name=f"n{index}", kind=kind))
    else:
        _, source, kind, target = step
        ontology.add_relation(f"n{source}", kind, f"n{target}")


def cyclic_ontology() -> Ontology:
    """A diamond under a root whose IS-A chain loops back to a child."""
    ontology = Ontology("cycles")
    for index, kind in enumerate(ITEM_KINDS * 2):
        apply_step(ontology, ("item", index, kind))
    for source, kind, target in (
        (0, RelationKind.IS_A, 1), (0, RelationKind.IS_A, 4),  # multiple inheritance
        (1, RelationKind.IS_A, 5), (4, RelationKind.IS_A, 5),  # diamond
        (5, RelationKind.IS_A, 0),                             # cycle back
        (5, RelationKind.HAS_OPERATION, 2), (1, RelationKind.HAS_OPERATION, 6),
        (4, RelationKind.HAS_PROPERTY, 3), (5, RelationKind.HAS_PROPERTY, 7),
        (1, RelationKind.IS_A, 5), (6, RelationKind.USES, 3),  # duplicate
    ):
        apply_step(ontology, ("relation", source, kind, target))
    return ontology


class TestGeneratedOntologies:
    def test_is_a_cycle_terminates_with_the_scan_result(self):
        ontology = cyclic_ontology()
        assert ontology.validate()  # the cycle is reported
        assert_matches_oracle(ontology, OntologyGraph(ontology))

    @given(mutation_scripts())
    @settings(max_examples=80, deadline=None)
    def test_built_ontologies_match(self, script):
        ontology = Ontology("generated")
        for step in script:
            apply_step(ontology, step)
        assert_matches_oracle(ontology, OntologyGraph(ontology))

    @given(mutation_scripts())
    @settings(max_examples=40, deadline=None)
    def test_queries_interleaved_with_mutations(self, script):
        """One ontology and one graph live through the whole script, so
        every answer after a mutation must come from a rebuilt index."""
        ontology = Ontology("interleaved")
        graph = OntologyGraph(ontology)
        for step in script:
            generation = ontology.generation
            apply_step(ontology, step)
            assert ontology.generation >= generation
            assert_matches_oracle(ontology, graph)

    def test_generation_moves_only_on_change(self):
        ontology = Ontology("g")
        apply_step(ontology, ("item", 0, ItemKind.CONCEPT))
        apply_step(ontology, ("item", 1, ItemKind.OPERATION))
        before = ontology.generation
        apply_step(ontology, ("relation", 0, RelationKind.HAS_OPERATION, 1))
        assert ontology.generation == before + 1
        apply_step(ontology, ("relation", 0, RelationKind.HAS_OPERATION, 1))
        assert ontology.generation == before + 1  # duplicate: no change


class TestConcurrentReaders:
    def test_threads_after_a_mutation_see_the_oracle(self):
        """After each mutation, more threads than cores query one ontology
        and one graph at once, with a tiny switch interval so they
        interleave inside the builds; every answer equals the oracle's."""
        ontology = cyclic_ontology()
        graph = OntologyGraph(ontology)
        assert_matches_oracle(ontology, graph)  # index and rows exist
        item_ids = [item.item_id for item in ontology.items()]
        threads = 8
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for mutation in (
                ("relation", 6, RelationKind.IS_A, 0),
                ("relation", 3, RelationKind.HAS_OPERATION, 2),
                ("relation", 7, RelationKind.RELATED_TO, 2),
            ):
                apply_step(ontology, mutation)
                oracle = scan_copy(ontology)
                expected = (
                    structural_answers(oracle),
                    distance_answers(ScanGraph(oracle), item_ids),
                )
                barrier = threading.Barrier(threads, timeout=60)
                results: list = [None] * threads

                def reader(slot: int) -> None:
                    barrier.wait()
                    results[slot] = (
                        structural_answers(ontology),
                        distance_answers(graph, item_ids),
                    )

                workers = [
                    threading.Thread(target=reader, args=(slot,)) for slot in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                    assert not worker.is_alive()
                assert all(result == expected for result in results)
        finally:
            sys.setswitchinterval(previous_interval)


# ------------------------------------------------------ semantic reviews


def _bench_templates() -> list[str]:
    path = Path(__file__).resolve().parents[2] / "bench" / "traffic.py"
    spec = importlib.util.spec_from_file_location("bench_traffic", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return [text for text, _label in module.TEMPLATES]


def _classroom_stream(count: int = 300) -> list[str]:
    ontology = default_ontology()
    learners = [SimulatedLearner(f"l{n}", ontology, seed=n) for n in range(5)]
    return [learners[n % 5].next_utterance().text for n in range(count)]


class TestSemanticReviewsUnchanged:
    @pytest.fixture(scope="class")
    def agents(self):
        indexed = SemanticAgent(default_ontology())
        scanning = SemanticAgent(scan_copy(default_ontology()))
        scanning.evaluator.graph = ScanGraph(scanning.ontology)
        return indexed, scanning

    def test_bench_templates(self, agents):
        indexed, scanning = agents
        texts = _bench_templates()
        assert len(texts) == 25
        for text in texts:
            assert indexed.review(text) == scanning.review(text), text

    def test_seeded_classroom_stream(self, agents):
        indexed, scanning = agents
        reviews = 0
        for text in _classroom_stream():
            ours, theirs = indexed.review(text), scanning.review(text)
            assert ours == theirs, text
            reviews += bool(ours.suggestions)
        assert reviews > 0  # the stream exercises the suggestion path
