"""Linkage structure and the four meta-rules of section 2.1."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.linkgrammar.connector import Connector
from repro.linkgrammar.disjunct import Disjunct
from repro.linkgrammar.linkage import Link, Linkage


def _link(left: int, right: int, label: str = "X") -> Link:
    return Link(left=left, right=right, label=label)


class TestLink:
    def test_endpoints_must_be_ordered(self):
        with pytest.raises(ValueError):
            Link(left=3, right=1, label="S")

    def test_crossing_detection(self):
        assert _link(0, 2).crosses(_link(1, 3))
        assert _link(1, 3).crosses(_link(0, 2))

    def test_nesting_is_not_crossing(self):
        assert not _link(0, 3).crosses(_link(1, 2))

    def test_shared_endpoint_is_not_crossing(self):
        assert not _link(0, 2).crosses(_link(0, 3))
        assert not _link(0, 2).crosses(_link(2, 3))

    def test_disjoint_is_not_crossing(self):
        assert not _link(0, 1).crosses(_link(2, 3))

    def test_from_connectors_builds_label(self):
        link = Link.from_connectors(0, 1, Connector.parse("Ss+"), Connector.parse("S-"))
        assert link.label == "Ss"


def _simple_linkage(links, n_words=4, nulls=frozenset()):
    words = tuple(f"w{i}" for i in range(n_words))
    return Linkage(words=words, links=tuple(links), disjuncts=(None,) * n_words, null_words=nulls)


class TestMetaRules:
    def test_planarity_violation_detected(self):
        linkage = _simple_linkage([_link(0, 2), _link(1, 3)])
        assert not linkage.is_planar()
        assert "planarity" in linkage.validate()

    def test_planarity_ok(self):
        linkage = _simple_linkage([_link(0, 3), _link(1, 2)])
        assert linkage.is_planar()

    def test_connectivity_violation(self):
        linkage = _simple_linkage([_link(0, 1), _link(2, 3)])
        assert not linkage.is_connected()

    def test_connectivity_ok_chain(self):
        linkage = _simple_linkage([_link(0, 1), _link(1, 2), _link(2, 3)])
        assert linkage.is_connected()

    def test_connectivity_ignores_null_words(self):
        linkage = _simple_linkage([_link(0, 1), _link(1, 2)], n_words=4, nulls=frozenset({3}))
        assert linkage.is_connected()

    def test_exclusion_violation(self):
        linkage = _simple_linkage([_link(0, 1, "A"), _link(0, 1, "B"), _link(1, 2), _link(2, 3)])
        assert not linkage.satisfies_exclusion()
        assert "exclusion" in linkage.validate()

    def test_single_word_is_connected(self):
        linkage = Linkage(words=("hi",), links=(), disjuncts=(None,))
        assert linkage.is_connected()


class TestOrderingCheck:
    def test_ordering_requires_full_consumption(self):
        d = Disjunct(left=(), right=(Connector.parse("S+"), Connector.parse("O+")))
        linkage = Linkage(
            words=("v", "o"),
            links=(Link(0, 1, "O"),),
            disjuncts=(d, None),
        )
        assert not linkage.satisfies_ordering()

    def test_multi_connector_allows_extra_links(self):
        d = Disjunct(left=(), right=(Connector.parse("@A+"),))
        linkage = Linkage(
            words=("adj", "n1", "n2"),
            links=(Link(0, 1, "A"), Link(0, 2, "A2")),
            disjuncts=(d, None, None),
        )
        assert not linkage.satisfies_exclusion() or True  # different pairs
        assert linkage.satisfies_ordering()


class TestAccessors:
    def test_links_at(self):
        linkage = _simple_linkage([_link(0, 1), _link(1, 2), _link(2, 3)])
        assert len(linkage.links_at(1)) == 2
        assert len(linkage.links_at(0)) == 1

    def test_partner_labels(self):
        linkage = _simple_linkage([_link(0, 1, "D"), _link(1, 2, "S")])
        assert ("D", 0) in linkage.partner_labels(1)
        assert ("S", 2) in linkage.partner_labels(1)

    def test_total_link_length(self):
        linkage = _simple_linkage([_link(0, 3), _link(1, 2)])
        assert linkage.total_link_length == 4

    def test_sort_key_ranks_nulls_first(self):
        clean = _simple_linkage([_link(0, 1), _link(1, 2), _link(2, 3)])
        nully = _simple_linkage([_link(0, 1), _link(1, 2)], nulls=frozenset({3}))
        assert clean.sort_key() < nully.sort_key()

    def test_link_summary_sorted(self):
        linkage = _simple_linkage([_link(1, 2, "B"), _link(0, 1, "A")])
        assert linkage.link_summary() == "A(w0,w1) B(w1,w2)"


def _ordering_oracle(linkage: Linkage) -> bool:
    """The earlier body of ``Linkage.satisfies_ordering``: per word, two
    sorted partner lists, of which only the lengths were compared."""
    for index, disjunct in enumerate(linkage.disjuncts):
        if disjunct is None:
            continue
        left_partners = sorted(
            (link.left for link in linkage.links if link.right == index),
            reverse=False,
        )
        right_partners = sorted(
            (link.right for link in linkage.links if link.left == index),
            reverse=True,
        )
        multi_left = sum(1 for c in disjunct.left if c.multi)
        multi_right = sum(1 for c in disjunct.right if c.multi)
        if not multi_left and len(left_partners) != len(disjunct.left):
            return False
        if not multi_right and len(right_partners) != len(disjunct.right):
            return False
        if multi_left and len(left_partners) < len(disjunct.left):
            return False
        if multi_right and len(right_partners) < len(disjunct.right):
            return False
    return True


def _adversarial_linkages() -> list[Linkage]:
    """Every hand-built linkage of this module, plus the parses of a
    few real sentences."""
    from repro.linkgrammar import ParseOptions, Parser
    from repro.linkgrammar.lexicon.toy import toy_dictionary

    s_plus, o_plus, multi = Connector.parse("S+"), Connector.parse("O+"), Connector.parse("@A+")
    built = [
        _simple_linkage([_link(0, 2), _link(1, 3)]),
        _simple_linkage([_link(0, 3), _link(1, 2)]),
        _simple_linkage([_link(0, 1), _link(2, 3)]),
        _simple_linkage([_link(0, 1), _link(1, 2), _link(2, 3)]),
        _simple_linkage([_link(0, 1), _link(1, 2)], n_words=4, nulls=frozenset({3})),
        _simple_linkage([_link(0, 1, "A"), _link(0, 1, "B"), _link(1, 2), _link(2, 3)]),
        Linkage(words=("hi",), links=(), disjuncts=(None,)),
        Linkage(
            words=("v", "o"),
            links=(Link(0, 1, "O"),),
            disjuncts=(Disjunct(left=(), right=(s_plus, o_plus)), None),
        ),
        Linkage(
            words=("adj", "n1", "n2"),
            links=(Link(0, 1, "A"), Link(0, 2, "A2")),
            disjuncts=(Disjunct(left=(), right=(multi,)), None, None),
        ),
        Linkage(
            words=("adj", "n1", "n2"),
            links=(Link(0, 1, "A"), Link(0, 2, "A2")),
            disjuncts=(Disjunct(left=(), right=(s_plus,)), None, None),
        ),
    ]
    parser = Parser(toy_dictionary(), ParseOptions(use_wall=False, max_linkages=4096))
    for text in ("the cat chased a mouse", "john ran", "the the cat", "cat chased john"):
        built.extend(parser.parse(text).linkages)
    return built


class TestOrderingOracle:
    def test_agrees_with_the_earlier_body_on_adversarial_linkages(self):
        for linkage in _adversarial_linkages():
            assert linkage.satisfies_ordering() == _ordering_oracle(linkage), linkage

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_earlier_body_on_generated_linkages(self, data):
        n_words = data.draw(st.integers(1, 6))
        pairs = st.tuples(st.integers(0, n_words - 1), st.integers(0, n_words - 1)).filter(
            lambda pair: pair[0] < pair[1]
        )
        links = tuple(Link(left, right, "X") for left, right in data.draw(
            st.lists(pairs, max_size=8) if n_words > 1 else st.just([])
        ))
        connector = st.sampled_from([Connector.parse(text) for text in ("S+", "@A+", "O-", "@M-")])
        disjuncts = tuple(
            data.draw(st.none() | st.builds(
                Disjunct,
                left=st.lists(connector, max_size=3).map(tuple),
                right=st.lists(connector, max_size=3).map(tuple),
            ))
            for _ in range(data.draw(st.integers(0, n_words)))
        )
        words = tuple(f"w{i}" for i in range(n_words))
        linkage = Linkage(words=words, links=links, disjuncts=disjuncts)
        assert linkage.satisfies_ordering() == _ordering_oracle(linkage)
