"""The document format: parsing, errors with line numbers, round trips."""

import pathlib

import pytest

from flowhom.errors import DuplicateName, ParseError, UnresolvedReference
from flowhom.flows import Flow
from flowhom.poset import Poset
from flowhom.textio import Document, emit, parse

from test_poset import two_routes_poset

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "demos" / "documents" / "two_routes.fhm"

MINIMAL = """
poset P
  elem a b
  rel a < b
end
"""


class TestParse:
    def test_minimal_poset(self):
        doc = parse(MINIMAL)
        assert doc.posets["P"] == Poset.from_relations(["a", "b"], [("a", "b")])

    def test_sample_document(self):
        doc = parse(SAMPLE.read_text())
        assert doc.posets["ROUTES"] == two_routes_poset()
        flow = Flow(doc.flows["FP"])
        assert len(flow.path_set("bot", "top")) == 1
        assert doc.tmaps["SUBDIV"].source_name == "STEP"
        assert doc.balls["EDGE"].flow_name == "FP"

    def test_comments_and_blank_lines(self):
        doc = parse("# nothing\n\nposet P\n  elem a  # trailing\nend\n")
        assert doc.posets["P"].elements == ("a",)

    def test_reflexive_relation(self):
        with pytest.raises(ParseError) as err:
            parse("poset P\n  elem a\n  rel a < a\nend\n")
        assert err.value.line == 3

    def test_unknown_directive_with_line(self):
        with pytest.raises(ParseError) as err:
            parse("poset P\n  elem a\n  bogus x\nend\n")
        assert err.value.line == 3

    def test_unknown_top_level(self):
        with pytest.raises(ParseError):
            parse("orbit X\nend\n")

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse("poset P\nend\nposet P\nend\n")

    def test_duplicate_keyed_line(self):
        # every reader of a tmap or ball block must see the same value, so
        # a second line for one key is rejected at that line
        text = SAMPLE.read_text()
        for line, extra in (
            ("  send p1 -> q1\n", "  send p1 -> qm\n"),
            ("  map p1 -> B\n", "  map p1 -> C\n"),
            ("  path p0 p1 = uAB\n", "  path p0 p1 = uAB\n"),
        ):
            lines = text.splitlines(keepends=True)
            at = lines.index(line) + 1
            with pytest.raises(DuplicateName) as err:
                parse("".join(lines[:at] + [extra] + lines[at:]))
            assert err.value.line == at + 1

    def test_separator_in_name(self):
        # words join generator names with '.', and ':' ends a gen header
        # name, so a defined name holding either would print ambiguously;
        # an empty generator name would print as an empty word
        contains, empty = "may not contain", "may not be empty"
        for text, line, message in (
            ("flow F\n  state a b\n  gen x.y: a -> b\nend\n", 3, contains),
            ("flow F\n  state a b\n  gen x:: a -> b\nend\n", 3, contains),
            ("flow F\n  state a: b\nend\n", 2, contains),
            ("flow F\n  state a\n  state b.c\nend\n", 3, contains),
            ("poset P\n  elem a b:c\nend\n", 2, contains),
            ("poset P\n  elem a\n  elem .\nend\n", 3, contains),
            ("flow F\n  state a b\n  gen : a -> b\nend\n", 3, empty),
        ):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.line == line
            assert message in err.value.message

    def test_unresolved_reference(self):
        with pytest.raises(UnresolvedReference):
            parse("flow F\n  state a\nend\nball B in G\nend\n")
        with pytest.raises(UnresolvedReference):
            parse("tmap T: P1 -> P2\nend\n")

    def test_unclosed_block(self):
        with pytest.raises(ParseError):
            parse("poset P\n  elem a\n")

    def test_cycle_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            parse("poset P\n  elem a b\n  rel a < b\n  rel b < a\nend\n")

    def test_flow_block(self):
        doc = parse(
            "flow F\n  state a b c\n  gen f: a -> b\n  gen g: b -> c\n"
            "  gen h: a -> c\n  eq f.g = h\nend\n"
        )
        flow = Flow(doc.flows["F"])
        assert len(flow.path_set("a", "c")) == 1


class TestEmit:
    def test_round_trip_is_stable(self):
        text = SAMPLE.read_text()
        once = emit(parse(text))
        twice = emit(parse(once))
        assert once == twice

    def test_round_trip_random_documents(self):
        import random

        from flowhom.randgen import random_bounded_poset, random_refinement_instance
        from flowhom.textio import BallBlock, TMapBlock

        rng = random.Random(71)
        for _ in range(15):
            doc = Document()
            doc.posets["P0"] = random_bounded_poset(rng)
            host, pattern, embedding = random_refinement_instance(rng)
            doc.posets["SRC"] = pattern.source
            doc.posets["TGT"] = pattern.target
            doc.flows["HOST"] = host.presentation
            doc.tmaps["T"] = TMapBlock("SRC", "TGT", pattern.mapping)
            doc.balls["B"] = BallBlock("HOST", embedding.state_map, embedding.path_choice)
            once = emit(doc)
            reparsed = parse(once)
            assert emit(reparsed) == once
            assert reparsed.posets["SRC"] == pattern.source
            assert reparsed.flows["HOST"].generators == tuple(
                sorted(host.presentation.generators)
            )

    def test_emit_normalizes_order(self):
        scrambled = "poset B\n  elem y x\n  rel x < y\nend\nposet A\n  elem a\nend\n"
        out = emit(parse(scrambled))
        assert out.index("poset A") < out.index("poset B")
        assert "elem x y" in out

    def test_empty_document(self):
        assert emit(Document()) == ""
