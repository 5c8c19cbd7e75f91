"""Derived ontology views follow mutations (generation invalidation).

``SemanticDistanceEvaluator`` builds its ``OntologyGraph`` once, while
its capability checks read the live ontology.  The graph must therefore
notice a mutation by itself: distances after ``add_relation`` or
``add_item`` must equal those of a graph built fresh.
"""

from __future__ import annotations

from repro.ontology import INFINITY, Item, OntologyGraph, RelationKind, SemanticDistanceEvaluator
from repro.ontology.domains import build_data_structure_ontology


def test_evaluator_distance_follows_a_new_relation():
    ontology = build_data_structure_ontology()  # private copy: we mutate it
    evaluator = SemanticDistanceEvaluator(ontology)
    assert evaluator.distance("tree", "queue") == 3.0
    ontology.add_relation("tree", RelationKind.RELATED_TO, "queue")
    assert OntologyGraph(ontology).distance(
        ontology.find("tree").item_id, ontology.find("queue").item_id
    ) == 2.0
    assert evaluator.distance("tree", "queue") == 2.0
    assert evaluator.evaluate_pair("tree", "queue").related


def test_evaluator_reaches_an_item_added_later():
    ontology = build_data_structure_ontology()
    evaluator = SemanticDistanceEvaluator(ontology)
    evaluator.distance("stack", "queue")  # the graph and a row exist now
    ontology.add_item(Item(item_id=9001, name="skip list"))
    assert evaluator.graph.distance(9001, ontology.find("list").item_id) == INFINITY
    ontology.add_relation("skip list", RelationKind.IS_A, "list")
    assert evaluator.distance("skip list", "list") == 1.0
    assert evaluator.distance("list", "skip list") == 1.0
    assert evaluator.ontology.has_operation("skip list", "insert")
    names = [item.name for item in evaluator.concepts_supporting("insert", near="list")]
    assert "skip list" in names


def test_graph_neighbors_and_components_follow_mutations():
    ontology = build_data_structure_ontology()
    graph = OntologyGraph(ontology)
    assert len(graph.connected_components()) == 1
    ontology.add_item(Item(item_id=9002, name="island"))
    assert len(graph.connected_components()) == 2
    ontology.add_relation("island", RelationKind.USES, "array")
    assert graph.neighbors(9002) == [(ontology.find("array").item_id, 2.0)]
    assert len(graph.connected_components()) == 1
