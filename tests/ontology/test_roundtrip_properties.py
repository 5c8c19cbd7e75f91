"""Property-based serialisation round-trips over random ontologies.

The XML and DDL/DML pipelines must be exact inverses for *any* knowledge
body an author could build, not just the shipped domain: hypothesis
composes random ontologies (names with spaces and quotes, aliases,
symbols, algorithms, arbitrary relation wiring) and both pipelines must
reproduce them exactly.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ontology import (
    Ontology,
    RelationKind,
    from_xml,
    interpret_script,
    render_script,
    to_xml,
    translate,
)
from repro.ontology.builder import OntologyBuilder

_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_TEXT_ALPHABET = _NAME_ALPHABET + " '\"-(),."

_names = st.lists(
    st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=8),
    min_size=2,
    max_size=8,
    unique=True,
)
_texts = st.text(alphabet=_TEXT_ALPHABET, min_size=0, max_size=60)


@st.composite
def ontologies(draw) -> Ontology:
    builder = OntologyBuilder(domain=draw(st.sampled_from(["Alpha", "Beta Domain"])))
    concept_names = draw(_names)
    # Item names are unique across kinds: a concept drawn as "pop" must
    # not meet an operation built from "p".
    operation_names = [
        name + "op"
        for name in draw(
            _names.filter(lambda names: not {n + "op" for n in names} & set(concept_names))
        )
    ]
    for name in concept_names:
        builder.concept(
            name,
            description=draw(_texts),
            symbols={draw(st.sampled_from(["top", "front", "core"])): draw(_texts)}
            if draw(st.booleans())
            else None,
        )
    for name in operation_names:
        builder.operation(name, description=draw(_texts))
    # Acyclic is-a chain over concepts (ordered by construction).
    for child, parent in zip(concept_names[1:], concept_names):
        if draw(st.booleans()):
            builder.is_a(child, parent)
    for concept in concept_names:
        for operation in operation_names:
            if draw(st.integers(0, 3)) == 0:
                builder.supports(concept, operation)
    if draw(st.booleans()):
        builder.attach_algorithm(
            concept_names[0], "algo", draw(st.sampled_from(["c", "text"])), draw(_texts)
        )
    extra_kind = draw(
        st.sampled_from([RelationKind.USES, RelationKind.RELATED_TO, RelationKind.PART_OF])
    )
    builder.ontology.add_relation(concept_names[0], extra_kind, concept_names[-1])
    return builder.build()


def _assert_equivalent(a: Ontology, b: Ontology) -> None:
    assert len(a) == len(b)
    assert a.domain == b.domain
    for item in a.items():
        other = b.get(item.item_id)
        assert other.name == item.name
        assert other.kind == item.kind
        assert other.aliases == item.aliases
        assert other.definition.description == item.definition.description
        assert other.definition.symbols == item.definition.symbols
        assert [(x.name, x.type, x.body) for x in other.algorithms] == [
            (x.name, x.type, x.body) for x in item.algorithms
        ]
    assert set(a.relations()) == set(b.relations())


@given(ontologies())
@settings(max_examples=60, deadline=None)
def test_xml_round_trip(ontology):
    _assert_equivalent(ontology, from_xml(to_xml(ontology)))


@given(ontologies())
@settings(max_examples=60, deadline=None)
def test_ddl_round_trip(ontology):
    script = render_script(translate(ontology))
    _assert_equivalent(ontology, interpret_script(script, ontology.domain))


@given(ontologies())
@settings(max_examples=30, deadline=None)
def test_double_round_trip_is_stable(ontology):
    once = from_xml(to_xml(ontology))
    twice = from_xml(to_xml(once))
    _assert_equivalent(once, twice)


@given(ontologies())
@settings(max_examples=30, deadline=None)
def test_pipelines_commute(ontology):
    """XML-then-DDL equals DDL-then-XML."""
    via_xml = from_xml(to_xml(ontology))
    via_ddl = interpret_script(render_script(translate(ontology)), ontology.domain)
    _assert_equivalent(via_xml, via_ddl)
