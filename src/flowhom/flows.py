"""Finite loopless flows with discrete path spaces.

A flow is presented by states, generating arrows, and word relations; its
path set between two states is the set of congruence classes of composable
generator words.  Looplessness (an acyclic generator graph) bounds word
length, so the whole path space is finite and is tabulated exactly by one
congruence-closure pass over the states, targets first (Downey–Sethi–Tarjan
1980; Nelson–Oppen 1980).

Words are tuples of generator names; each congruence class is named by its
shortlex-least member, so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

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
        self._state_set = frozenset(self.states)
        self.generator_map: dict[str, tuple[str, str]] = {
            name: (src, tgt) for name, src, tgt in presentation.generators
        }
        self._word_class: dict[Word, Word] = {}
        self._psets: dict[tuple[str, str], tuple[Word, ...]] = {}
        self._elaborate()

    # -- construction ------------------------------------------------------

    def _elaborate(self) -> None:
        # One pass over the states, targets first.  The words from s are g·w
        # for g: s -> t and w from t or empty.  The class of w is final, so
        # g·w joins g·find(w).  Each merge by a relation from s pushes the
        # pair extended by every generator leaving their common target, and
        # the pass moves on once no pushed pair merges.
        leaving: dict[str, list[str]] = {s: [] for s in self.states}
        for name, (src, _) in sorted(self.generator_map.items()):
            leaving[src].append(name)
        order = self._toposort_states(leaving)
        relations: dict[str, list[tuple[Word, Word]]] = {s: [] for s in self.states}
        for left, right in self.presentation.relations:
            if not (self._is_word(left) and self._is_word(right)):
                raise NonParallelRelation("relation side is not a composable word")
            if self._endpoints(left) != self._endpoints(right):
                raise NonParallelRelation(f"{left} and {right} are not parallel")
            relations[self._endpoints(left)[0]].append((left, right))
        uf = UnionFind()
        words_from: dict[str, list[Word]] = {}
        for s in reversed(order):
            words = words_from[s] = []
            for g in leaving[s]:
                words.append((g,))
                uf.add((g,))
                for w in words_from[self.generator_map[g][1]]:
                    gw = (g,) + w
                    words.append(gw)
                    uf.union(gw, (g,) + uf.find(w))
            pending = relations[s]
            while pending:
                x, y = pending.pop()
                if uf.union(x, y):
                    ends = leaving[self._endpoints(x)[1]]
                    pending.extend((x + (h,), y + (h,)) for h in ends)
        rep: dict[Word, Word] = {}
        for words in words_from.values():
            for w in words:
                root = uf.find(w)
                rep[root] = min(rep.get(root, w), w, key=_shortlex)
        self._word_class = {
            w: rep[uf.find(w)] for words in words_from.values() for w in words
        }
        psets: dict[tuple[str, str], list[Word]] = {}
        for r in rep.values():
            psets.setdefault(self._endpoints(r), []).append(r)
        self._psets = {
            pair: tuple(sorted(reps, key=_shortlex)) for pair, reps in psets.items()
        }

    def _toposort_states(self, leaving: dict[str, list[str]]) -> list[str]:
        """A topological order of the states (Kahn's algorithm)."""
        indegree = dict.fromkeys(self.states, 0)
        for _, tgt in self.generator_map.values():
            indegree[tgt] += 1
        order = [s for s in self.states if indegree[s] == 0]
        for s in order:  # grows while it is read
            for g in leaving[s]:
                tgt = self.generator_map[g][1]
                indegree[tgt] -= 1
                if indegree[tgt] == 0:
                    order.append(tgt)
        if len(order) < len(self.states):
            stuck = min(s for s in self.states if indegree[s])
            raise LoopError(f"a generator cycle reaches {stuck!r}")
        return order

    def _is_word(self, word: Word) -> bool:
        gens = self.generator_map
        return bool(word) and all(g in gens for g in word) and all(
            gens[a][1] == gens[b][0] for a, b in zip(word, word[1:]))

    def _endpoints(self, word: Word) -> tuple[str, str]:
        return (self.generator_map[word[0]][0], self.generator_map[word[-1]][1])

    # -- queries -----------------------------------------------------------

    def __contains__(self, state: str) -> bool:
        return state in self._state_set

    def path_set(self, a: str, b: str) -> tuple[Word, ...]:
        """Congruence classes from a to b, as shortlex-least representatives."""
        if a not in self._state_set:
            raise UnknownState(repr(a))
        if b not in self._state_set:
            raise UnknownState(repr(b))
        return self._psets.get((a, b), ())

    def classes_from(self, a: str) -> tuple[Word, ...]:
        """Every class starting at a: the path sets from a, in the order of
        :meth:`nonempty_pairs`."""
        if a not in self._state_set:
            raise UnknownState(repr(a))
        return self._classes_from.get(a, ())

    @cached_property
    def _classes_from(self) -> dict[str, tuple[Word, ...]]:
        table: dict[str, list[Word]] = {}
        for (a, _), reps in sorted(self._psets.items()):
            table.setdefault(a, []).extend(reps)
        return {a: tuple(reps) for a, reps in table.items()}

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

    One generator per cover, and the :func:`parallel_relations` of the
    relation-free flow on them.
    """
    gens = tuple((_cover_name(a, b), a, b) for a, b in p.covers())
    free = Flow(FlowPresentation(p.elements, gens))
    return Flow(FlowPresentation(p.elements, gens, parallel_relations(free)))


def parallel_relations(flow: Flow) -> tuple[tuple[Word, Word], ...]:
    """Relations chaining together the parallel classes of each pair, so
    that the flow presented with them has one class per nonempty pair."""
    pairs = flow.nonempty_pairs()
    return tuple(rel for pair in pairs for rel in pairwise(flow.path_set(*pair)))


def _cover_name(a: str, b: str) -> str:
    return f"{a}>{b}"


def glob(k: int, state_pair: tuple[str, str] = ("0", "1")) -> Flow:
    """Two states joined by k parallel generators and no relations."""
    if k < 1:
        raise ValueError("need at least one branch")
    src, tgt = state_pair
    gens = tuple((f"g{i}", src, tgt) for i in range(1, k + 1))
    return Flow(FlowPresentation((src, tgt), gens))
