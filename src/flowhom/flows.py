"""Finite loopless flows with discrete path spaces.

A flow is presented by states, generating arrows, and word relations; its
path set between two states is the set of congruence classes of composable
generator words.  Looplessness (an acyclic generator graph) bounds word
length, so the whole path space is finite and can be tabulated exactly.

Words are tuples of generator names; each congruence class is named by its
shortlex-least member, so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import LoopError, NonParallelRelation, UnknownState
from .poset import Poset
from .unionfind import UnionFind

Word = tuple[str, ...]


def _shortlex(word: Word) -> tuple[int, Word]:
    return (len(word), word)


@dataclass(frozen=True)
class FlowPresentation:
    """States, generators ``name: src -> tgt`` and parallel word relations."""

    states: tuple[str, ...]
    generators: tuple[tuple[str, str, str], ...]  # (name, src, tgt)
    relations: tuple[tuple[Word, Word], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(
            self,
            "relations",
            tuple((tuple(l), tuple(r)) for l, r in self.relations),
        )
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate states")
        names = set()
        for name, src, tgt in self.generators:
            if name in names:
                raise ValueError(f"duplicate generator {name!r}")
            names.add(name)
            if src not in states or tgt not in states:
                raise UnknownState(f"generator {name!r} endpoint missing")
            if src == tgt:
                raise LoopError(f"generator {name!r} loops at {src!r}")


class Flow:
    """An elaborated flow: tabulated path classes with their composition.

    Construct from a presentation, or through :func:`flow_of_poset` or
    :func:`glob`.  Instances are immutable; equality compares states,
    generators and the whole path structure (not the input presentation).
    """

    def __init__(self, presentation: FlowPresentation):
        self.presentation = presentation
        self.states: tuple[str, ...] = tuple(sorted(presentation.states))
        self.generator_map: dict[str, tuple[str, str]] = {
            name: (src, tgt) for name, src, tgt in presentation.generators
        }
        self._word_class: dict[Word, Word] = {}
        self._psets: dict[tuple[str, str], tuple[Word, ...]] = {}
        self._elaborate()

    # -- construction ------------------------------------------------------

    def _elaborate(self) -> None:
        order = self._toposort_states()
        words = self._enumerate_words(order)
        uf = UnionFind()
        for w in words:
            uf.add(w)
        for left, right in self.presentation.relations:
            if left not in words or right not in words:
                raise NonParallelRelation("relation side is not a composable word")
            if self._endpoints(left) != self._endpoints(right):
                raise NonParallelRelation(f"{left} and {right} are not parallel")
            uf.union(left, right)
        # close under one-sided composition with generators until stable
        changed = True
        while changed:
            changed = False
            for w in words:
                r = uf.find(w)
                if r == w:
                    continue
                src, tgt = self._endpoints(w)
                for name, (gs, gt) in self.generator_map.items():
                    if gt == src:
                        changed |= uf.union((name,) + w, (name,) + r)
                    if gs == tgt:
                        changed |= uf.union(w + (name,), r + (name,))
        classes: dict[Word, list[Word]] = {}
        for w in words:
            classes.setdefault(uf.find(w), []).append(w)
        rep_of_root = {
            root: min(members, key=_shortlex) for root, members in classes.items()
        }
        self._word_class = {w: rep_of_root[uf.find(w)] for w in words}
        psets: dict[tuple[str, str], set[Word]] = {}
        for rep in rep_of_root.values():
            psets.setdefault(self._endpoints(rep), set()).add(rep)
        self._psets = {
            pair: tuple(sorted(reps, key=_shortlex)) for pair, reps in psets.items()
        }

    def _toposort_states(self) -> list[str]:
        succ: dict[str, set[str]] = {s: set() for s in self.states}
        for src, tgt in self.generator_map.values():
            succ[src].add(tgt)
        seen: dict[str, str] = {}
        order: list[str] = []

        def visit(s: str) -> None:
            state = seen.get(s)
            if state == "done":
                return
            if state == "open":
                raise LoopError(f"generator cycle through {s!r}")
            seen[s] = "open"
            for nxt in sorted(succ[s]):
                visit(nxt)
            seen[s] = "done"
            order.append(s)

        for s in self.states:
            visit(s)
        order.reverse()
        return order

    def _enumerate_words(self, state_order: list[str]) -> set[Word]:
        by_source: dict[str, list[str]] = {s: [] for s in self.states}
        for name, (src, _) in sorted(self.generator_map.items()):
            by_source[src].append(name)
        words: set[Word] = set()
        # walk states backwards so suffix words exist before they are reused
        suffixes: dict[str, list[Word]] = {s: [()] for s in self.states}
        for s in reversed(state_order):
            for name in by_source[s]:
                _, tgt = self.generator_map[name]
                for suffix in suffixes[tgt]:
                    suffixes[s].append((name,) + suffix)
        for s, ws in suffixes.items():
            for w in ws:
                if w:
                    words.add(w)
        return words

    def _endpoints(self, word: Word) -> tuple[str, str]:
        return (self.generator_map[word[0]][0], self.generator_map[word[-1]][1])

    # -- queries -----------------------------------------------------------

    def path_set(self, a: str, b: str) -> tuple[Word, ...]:
        """Congruence classes from a to b, as shortlex-least representatives."""
        states = set(self.states)
        if a not in states:
            raise UnknownState(repr(a))
        if b not in states:
            raise UnknownState(repr(b))
        return self._psets.get((a, b), ())

    def nonempty_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._psets))

    def all_classes(self) -> tuple[Word, ...]:
        out: list[Word] = []
        for pair in sorted(self._psets):
            out.extend(self._psets[pair])
        return tuple(out)

    def class_of(self, word: Word) -> Word:
        """The class representative of an arbitrary composable word."""
        return self._word_class[tuple(word)]

    def compose(self, x: Word, y: Word) -> Word:
        """Class composition; endpoints must match."""
        if self._endpoints(x)[1] != self._endpoints(y)[0]:
            raise ValueError("classes are not composable")
        return self._word_class[x + y]

    def source(self, x: Word) -> str:
        return self._endpoints(x)[0]

    def target(self, x: Word) -> str:
        return self._endpoints(x)[1]

    @cached_property
    def state_order(self) -> Poset:
        """The partial order induced by path non-emptiness.

        Non-emptiness is already transitive (classes compose), and
        looplessness rules out P(a, a), so the pairs form a strict order.
        """
        for a in self.states:
            if (a, a) in self._psets:
                raise LoopError(f"nonempty path set at {a!r}")
        return Poset(self.states, set(self._psets))

    def initial_states(self) -> tuple[str, ...]:
        incoming = {b for _, b in self._psets}
        return tuple(s for s in self.states if s not in incoming)

    def final_states(self) -> tuple[str, ...]:
        outgoing = {a for a, _ in self._psets}
        return tuple(s for s in self.states if s not in outgoing)

    def is_full_directed_ball(self) -> bool:
        """Bounded state order with exactly one path class per comparable
        pair (the discrete reading of a ball)."""
        if not self.state_order.is_bounded():
            return False
        return all(len(self._psets[pair]) == 1 for pair in self._psets)

    def opposite(self) -> "Flow":
        """Reverse all arrows and words; an involution (cached both ways)."""
        cached = getattr(self, "_opposite", None)
        if cached is not None:
            return cached
        pres = self.presentation
        gens = tuple((name, tgt, src) for name, src, tgt in pres.generators)
        rels = tuple(
            (tuple(reversed(l)), tuple(reversed(r))) for l, r in pres.relations
        )
        flipped = Flow(FlowPresentation(pres.states, gens, rels))
        self._opposite = flipped
        flipped._opposite = self
        return flipped

    def __eq__(self, other) -> bool:
        if not isinstance(other, Flow):
            return NotImplemented
        return (
            self.states == other.states
            and self.generator_map == other.generator_map
            and self._psets == other._psets
            and self._word_class == other._word_class
        )

    def __hash__(self) -> int:
        return hash((self.states, tuple(sorted(self._psets))))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{a}->{b}:{len(ps)}" for (a, b), ps in sorted(self._psets.items())
        )
        return f"Flow(states={len(self.states)}, paths=[{pairs}])"


def flow_of_poset(p: Poset) -> Flow:
    """The flow with exactly one path class per strictly comparable pair.

    One generator per cover; relations chain together all parallel maximal
    words, which the congruence closure collapses to singletons.
    """
    gens = tuple((_cover_name(a, b), a, b) for a, b in p.covers())
    flow = Flow(FlowPresentation(p.elements, gens))
    relations: list[tuple[Word, Word]] = []
    for pair in flow.nonempty_pairs():
        reps = flow.path_set(*pair)
        relations.extend(zip(reps, reps[1:]))
    return Flow(FlowPresentation(p.elements, gens, tuple(relations)))


def _cover_name(a: str, b: str) -> str:
    return f"{a}>{b}"


def glob(k: int, state_pair: tuple[str, str] = ("0", "1")) -> Flow:
    """Two states joined by k parallel generators and no relations."""
    if k < 1:
        raise ValueError("need at least one branch")
    src, tgt = state_pair
    gens = tuple((f"g{i}", src, tgt) for i in range(1, k + 1))
    return Flow(FlowPresentation((src, tgt), gens))
