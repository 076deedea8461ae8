"""The line-oriented document format.

Blocks, one directive per line, ``#`` starting a comment, blank lines
ignored::

    poset NAME
      elem a b c
      rel a < b
    end

    flow NAME
      state a b
      gen g: a -> b
      eq g1.g2 = g3
    end

    tmap NAME: P1 -> P2
      send a -> b
    end

    ball NAME in FLOW
      map p -> s
      path a b = g1.g2
    end

Words are dot-separated generator names, so no name (of a block, poset
element, state or generator) may be empty or contain ``.`` or ``:`` (the
colon ends a ``gen`` or ``tmap`` header name).  :func:`emit` writes a
normalized form (blocks and lines sorted), and parse-emit round-trips are
stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateName, ParseError, UnresolvedReference
from .flows import FlowPresentation, Word
from .poset import Poset


@dataclass
class BallBlock:
    """A ball embedding as written: resolved against a flow and a poset
    only when a command needs it."""

    flow_name: str
    state_map: tuple[tuple[str, str], ...]
    paths: tuple[tuple[tuple[str, str], Word], ...]


@dataclass
class TMapBlock:
    source_name: str
    target_name: str
    mapping: tuple[tuple[str, str], ...]


@dataclass
class Document:
    posets: dict[str, Poset] = field(default_factory=dict)
    flows: dict[str, FlowPresentation] = field(default_factory=dict)
    tmaps: dict[str, TMapBlock] = field(default_factory=dict)
    balls: dict[str, BallBlock] = field(default_factory=dict)


def _tokens(line: str) -> list[str]:
    return line.split()


def _check_names(what: str, names: list[str], lineno: int) -> None:
    """Reject an empty defined name, or one holding a word or header
    separator."""
    for name in names:
        if not name:
            raise ParseError(lineno, f"{what} name may not be empty")
        if "." in name or ":" in name:
            raise ParseError(lineno, f"{what} name {name!r} may not contain '.' or ':'")


def parse(text: str) -> Document:
    doc = Document()
    block: str | None = None
    name = ""
    start_line = 0
    acc: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = _tokens(line)
        head = words[0]
        if block is None:
            block, name, acc = _open_block(doc, head, words, lineno)
            _check_names(block, [name], lineno)
            start_line = lineno
            continue
        if head == "end":
            if len(words) != 1:
                raise ParseError(lineno, "end takes no arguments")
            _close_block(doc, block, name, acc, start_line)
            block = None
            continue
        _block_line(block, name, acc, head, words, lineno)
    if block is not None:
        raise ParseError(start_line, f"{block} {name!r} is never closed")
    return doc


def _open_block(doc: Document, head: str, words: list[str], lineno: int):
    if head == "poset":
        if len(words) != 2:
            raise ParseError(lineno, "usage: poset NAME")
        name = words[1]
        if name in doc.posets:
            raise DuplicateName(lineno, f"poset {name!r} already defined")
        return "poset", name, {"elems": [], "covers": []}
    if head == "flow":
        if len(words) != 2:
            raise ParseError(lineno, "usage: flow NAME")
        name = words[1]
        if name in doc.flows:
            raise DuplicateName(lineno, f"flow {name!r} already defined")
        return "flow", name, {"states": [], "gens": [], "eqs": []}
    if head == "tmap":
        # tmap NAME: P1 -> P2
        if len(words) != 5 or not words[1].endswith(":") or words[3] != "->":
            raise ParseError(lineno, "usage: tmap NAME: P1 -> P2")
        name, src, dst = words[1][:-1], words[2], words[4]
        if name in doc.tmaps:
            raise DuplicateName(lineno, f"tmap {name!r} already defined")
        for ref in (src, dst):
            if ref not in doc.posets:
                raise UnresolvedReference(lineno, f"poset {ref!r} is not defined")
        return "tmap", name, {"src": src, "dst": dst, "sends": {}}
    if head == "ball":
        if len(words) != 4 or words[2] != "in":
            raise ParseError(lineno, "usage: ball NAME in FLOW")
        name, flow_name = words[1], words[3]
        if name in doc.balls:
            raise DuplicateName(lineno, f"ball {name!r} already defined")
        if flow_name not in doc.flows:
            raise UnresolvedReference(lineno, f"flow {flow_name!r} is not defined")
        return "ball", name, {"flow": flow_name, "maps": {}, "paths": {}}
    raise ParseError(lineno, f"unknown directive {head!r}")


def _block_line(block: str, name: str, acc: dict, head: str, words: list[str], lineno: int):
    if block == "poset":
        if head == "elem":
            _check_names("element", words[1:], lineno)
            acc["elems"].extend(words[1:])
            return
        if head == "rel":
            if len(words) != 4 or words[2] != "<":
                raise ParseError(lineno, "usage: rel a < b")
            a, b = words[1], words[3]
            if a == b:
                raise ParseError(lineno, f"reflexive relation on {a!r}")
            acc["covers"].append((a, b))
            return
    elif block == "flow":
        if head == "state":
            _check_names("state", words[1:], lineno)
            acc["states"].extend(words[1:])
            return
        if head == "gen":
            # gen g: a -> b
            if len(words) != 5 or not words[1].endswith(":") or words[3] != "->":
                raise ParseError(lineno, "usage: gen NAME: a -> b")
            _check_names("generator", [words[1][:-1]], lineno)
            acc["gens"].append((words[1][:-1], words[2], words[4]))
            return
        if head == "eq":
            if len(words) != 4 or words[2] != "=":
                raise ParseError(lineno, "usage: eq w1 = w2")
            acc["eqs"].append((tuple(words[1].split(".")), tuple(words[3].split("."))))
            return
    elif block == "tmap":
        if head == "send":
            if len(words) != 4 or words[2] != "->":
                raise ParseError(lineno, "usage: send a -> b")
            _put_once(acc["sends"], words[1], words[3], lineno, f"send {words[1]}")
            return
    elif block == "ball":
        if head == "map":
            if len(words) != 4 or words[2] != "->":
                raise ParseError(lineno, "usage: map p -> s")
            _put_once(acc["maps"], words[1], words[3], lineno, f"map {words[1]}")
            return
        if head == "path":
            if len(words) != 5 or words[3] != "=":
                raise ParseError(lineno, "usage: path a b = w")
            _put_once(acc["paths"], (words[1], words[2]), tuple(words[4].split(".")),
                      lineno, f"path {words[1]} {words[2]}")
            return
    raise ParseError(lineno, f"unknown directive {head!r} in {block} block")


def _put_once(entries: dict, key, value, lineno: int, what: str) -> None:
    """Record a keyed line; a second line for the same key is rejected, so
    every reader of the block sees the one value that was written."""
    if key in entries:
        raise DuplicateName(lineno, f"{what!r} already given in this block")
    entries[key] = value


def _close_block(doc: Document, block: str, name: str, acc: dict, start_line: int):
    if block == "poset":
        try:
            doc.posets[name] = Poset.from_relations(acc["elems"], acc["covers"])
        except Exception as exc:
            raise ParseError(start_line, f"poset {name!r}: {exc}") from exc
    elif block == "flow":
        try:
            doc.flows[name] = FlowPresentation(
                tuple(acc["states"]), tuple(acc["gens"]), tuple(acc["eqs"])
            )
        except Exception as exc:
            raise ParseError(start_line, f"flow {name!r}: {exc}") from exc
    elif block == "tmap":
        doc.tmaps[name] = TMapBlock(acc["src"], acc["dst"], tuple(acc["sends"].items()))
    elif block == "ball":
        doc.balls[name] = BallBlock(
            acc["flow"], tuple(acc["maps"].items()), tuple(acc["paths"].items())
        )


def emit(doc: Document) -> str:
    """Serialize in normalized form: blocks and lines sorted."""
    out: list[str] = []
    for name in sorted(doc.posets):
        p = doc.posets[name]
        out.append(f"poset {name}")
        if p.elements:
            out.append("  elem " + " ".join(p.elements))
        for a, b in p.covers():
            out.append(f"  rel {a} < {b}")
        out.append("end")
        out.append("")
    for name in sorted(doc.flows):
        f = doc.flows[name]
        out.append(f"flow {name}")
        if f.states:
            out.append("  state " + " ".join(sorted(f.states)))
        for gen, src, tgt in sorted(f.generators):
            out.append(f"  gen {gen}: {src} -> {tgt}")
        for left, right in sorted(f.relations):
            out.append(f"  eq {'.'.join(left)} = {'.'.join(right)}")
        out.append("end")
        out.append("")
    for name in sorted(doc.tmaps):
        t = doc.tmaps[name]
        out.append(f"tmap {name}: {t.source_name} -> {t.target_name}")
        for a, b in sorted(t.mapping):
            out.append(f"  send {a} -> {b}")
        out.append("end")
        out.append("")
    for name in sorted(doc.balls):
        b = doc.balls[name]
        out.append(f"ball {name} in {b.flow_name}")
        for p, s in sorted(b.state_map):
            out.append(f"  map {p} -> {s}")
        for (x, y), word in sorted(b.paths):
            out.append(f"  path {x} {y} = {'.'.join(word)}")
        out.append("end")
        out.append("")
    return "\n".join(out)
