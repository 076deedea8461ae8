"""Seeded generators for the benchmark's ``.fhm`` documents.

Standard library only, and flowhom is never imported here: every size
guard is computed from the presentation alone, so a change to the
program (or to its own random instance generator) cannot change which
documents a seed produces.  The same seed gives byte-identical text.

Sizes come from walk counts of the free flow (no relations):

* ``words``: the number of composable words, which is exactly what the
  word-enumerating elaborator tabulates;
* ``weight``: the total object count of all branch diagrams of the free
  flow.  Relations only merge path classes, so this bounds the weight of
  the presented flow from above; it is the same for both signs;
* ``cells``: the nerve cells of the Grothendieck constructions of those
  diagrams, both signs, likewise an upper bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

Word = tuple[str, ...]


def _chains_down(limit: int) -> list[int]:
    """Entry k: chains that start at a k-element set and descend through
    proper nonempty subsets (the start counted as a chain)."""
    out = [0, 1]
    for k in range(2, limit):
        out.append(1 + sum(math.comb(k, m) * out[m] for m in range(1, k)))
    return out


CHAINS_DOWN = _chains_down(64)


def walk_counts(states, gens) -> dict[str, dict[str, int]]:
    """``counts[a][b]``: number of composable words from a to b (a != b).

    Accepts any acyclic generator list; states need not be sorted."""
    out: dict[str, list[str]] = {s: [] for s in states}
    indegree = {s: 0 for s in states}
    for _, src, tgt in gens:
        out[src].append(tgt)
        indegree[tgt] += 1
    order = [s for s in states if not indegree[s]]
    for s in order:  # Kahn's algorithm; the list grows while it is read
        for t in out[s]:
            indegree[t] -= 1
            if not indegree[t]:
                order.append(t)
    counts: dict[str, dict[str, int]] = {}
    for a in reversed(order):
        row: dict[str, int] = {}
        for c in out[a]:
            row[c] = row.get(c, 0) + 1
            for b, n in counts[c].items():
                row[b] = row.get(b, 0) + n
        counts[a] = row
    return counts


def count_words(states, gens) -> int:
    return sum(sum(row.values()) for row in walk_counts(states, gens).values())


@dataclass
class Presentation:
    """A flow presentation, states in a topological order, with the facts
    the size guards and oracles derive from it."""

    states: list[str]
    gens: list[tuple[str, str, str]]
    rels: list[tuple[Word, Word]] = field(default_factory=list)

    def walk_counts(self) -> dict[str, dict[str, int]]:
        return walk_counts(self.states, self.gens)

    def words(self) -> int:
        return count_words(self.states, self.gens)

    def weight(self) -> int:
        """Branch-diagram weight of the free flow: over every state a, the
        sum over chains a < a0 < ... < ap of the product of walk counts."""
        counts = self.walk_counts()
        chains: dict[str, int] = {}
        for a in reversed(self.states):
            chains[a] = sum(n * (1 + chains[b]) for b, n in counts[a].items())
        return sum(chains.values())

    def cells(self) -> int:
        """Nerve cells of the Grothendieck construction of every branch
        diagram of the free flow, both signs: the size of the complexes the
        homology tables are computed from (an upper bound with relations).

        An object (simplex of k states, element) starts CHAINS_DOWN[k]
        chains of proper subchains."""
        total = 0
        for pres in (self, self.opposite()):
            counts = pres.walk_counts()
            # by_size[b][k]: products of walk counts over chains of k states from b
            by_size: dict[str, list[int]] = {}
            for b in reversed(pres.states):
                sizes = [0, 1]
                for c, n in counts[b].items():
                    tail = by_size[c]
                    sizes.extend([0] * (len(tail) + 1 - len(sizes)))
                    for k in range(1, len(tail)):
                        sizes[k + 1] += n * tail[k]
                by_size[b] = sizes
            for a in pres.states:
                for b, n in counts[a].items():
                    total += n * sum(m * d for m, d in zip(by_size[b], CHAINS_DOWN))
        return total

    def opposite(self) -> "Presentation":
        return Presentation(self.states[::-1], [(g, t, s) for g, s, t in self.gens],
                            [(l[::-1], r[::-1]) for l, r in self.rels])

    def sinks(self) -> list[str]:
        sources = {s for _, s, _ in self.gens}
        return [s for s in self.states if s not in sources]

    def sources(self) -> list[str]:
        targets = {t for _, _, t in self.gens}
        return [s for s in self.states if s not in targets]

    def germ_fibers(self, sign: str) -> dict[str, int]:
        """Germ classes per state, from the presentation alone.

        Every path from a (minus sign) shares its germ with its first
        generator, and a rewrite can change the first generator of a word
        only when the relation itself starts at a.  So the fiber at a is the
        number of classes of the generators leaving a, joined by the first
        letters of the relations that start at a.  The plus sign is the
        mirror image (last letters, relations ending at a)."""
        end = 1 if sign == "minus" else 2  # index of the anchoring endpoint
        pos = 0 if sign == "minus" else -1
        gen_of = {g[0]: g for g in self.gens}
        parent = {g[0]: g[0] for g in self.gens}

        def find(x: str) -> str:
            while parent[x] != x:
                x = parent[x]
            return x

        for left, right in self.rels:
            parent[find(left[pos])] = find(right[pos])
        fibers = {s: 0 for s in self.states}
        for g in gen_of:
            if find(g) == g:
                fibers[gen_of[g][end]] += 1
        return fibers

    def upper_chains(self) -> dict[str, tuple[int, int]]:
        """Per state a: (chains of the states strictly above a, arrows of
        its index category), the arrows of a chain of k states being its
        2^k - 2 proper nonempty subchains."""
        above = {a: set(row) for a, row in self.walk_counts().items()}
        by_len: dict[str, dict[int, int]] = {}  # chains starting at b, by size
        for b in reversed(self.states):
            sizes = {1: 1}
            for c in above[b]:
                for k, n in by_len[c].items():
                    sizes[k + 1] = sizes.get(k + 1, 0) + n
            by_len[b] = sizes
        out = {}
        for a in self.states:
            simplices = arrows = 0
            for b in above[a]:
                for k, n in by_len[b].items():
                    simplices += n
                    arrows += n * (2**k - 2)
            out[a] = (simplices, arrows)
        return out

    def out_edges(self) -> dict[str, list[tuple[str, str]]]:
        out: dict[str, list[tuple[str, str]]] = {s: [] for s in self.states}
        for name, src, tgt in self.gens:
            out[src].append((name, tgt))
        return out


def random_walk(rng: random.Random, out, counts, a: str, b: str) -> Word:
    """A uniformly random composable word from a to b (counts[a][b] > 0),
    given ``out_edges()`` and ``walk_counts()`` of the presentation."""
    word: list[str] = []
    while a != b:
        options = [(g, c, 1 if c == b else counts[c].get(b, 0)) for g, c in out[a]]
        pick = rng.randrange(sum(n for _, _, n in options))
        for g, c, n in options:
            if pick < n:
                word.append(g)
                a = c
                break
            pick -= n
    return tuple(word)


def layered(
    rng: random.Random,
    layers: int,
    max_width: int,
    p_edge: float,
    p_parallel: float,
    p_skip: float,
) -> Presentation:
    """States in ``layers`` layers of 1..max_width, listed layer by layer;
    generators between adjacent layers (every state keeps an incoming and
    an outgoing one), occasional two-layer skips and parallel copies."""
    grid = [[f"s{l}n{i}" for i in range(rng.randint(1, max_width))] for l in range(layers)]
    pairs: list[tuple[str, str]] = []
    for l in range(layers - 1):
        lower, upper = grid[l], grid[l + 1]
        chosen = {(u, v) for u in lower for v in upper if rng.random() < p_edge}
        for u in lower:
            if not any(a == u for a, _ in chosen):
                chosen.add((u, rng.choice(upper)))
        for v in upper:
            if not any(b == v for _, b in chosen):
                chosen.add((rng.choice(lower), v))
        if l + 2 < layers:
            chosen |= {(u, v) for u in lower for v in grid[l + 2] if rng.random() < p_skip}
        pairs.extend(sorted(chosen))
    gens: list[tuple[str, str, str]] = []
    for u, v in pairs:
        for _ in range(2 if rng.random() < p_parallel else 1):
            gens.append((f"g{len(gens)}", u, v))
    return Presentation([s for layer in grid for s in layer], gens)


def add_relations(rng: random.Random, pres: Presentation, count: int) -> None:
    """Append ``count`` equations between distinct random parallel walks."""
    counts, out = pres.walk_counts(), pres.out_edges()
    parallel = [(a, b) for a in pres.states for b, n in sorted(counts[a].items()) if n >= 2]
    for _ in range(count if parallel else 0):
        a, b = rng.choice(parallel)
        left = random_walk(rng, out, counts, a, b)
        right = random_walk(rng, out, counts, a, b)
        while right == left:
            right = random_walk(rng, out, counts, a, b)
        pres.rels.append((left, right))


def flow_text(pres: Presentation, name: str = "F") -> str:
    lines = [f"flow {name}", "  state " + " ".join(pres.states)]
    lines += [f"  gen {g}: {s} -> {t}" for g, s, t in pres.gens]
    lines += [f"  eq {'.'.join(l)} = {'.'.join(r)}" for l, r in pres.rels]
    lines.append("end")
    return "\n".join(lines) + "\n"


def grid_elements(rows: int, cols: int) -> tuple[list[str], list[tuple[str, str]]]:
    elems = [f"x{i}y{j}" for i in range(rows) for j in range(cols)]
    covers = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                covers.append((f"x{i}y{j}", f"x{i + 1}y{j}"))
            if j + 1 < cols:
                covers.append((f"x{i}y{j}", f"x{i}y{j + 1}"))
    return elems, covers


def poset_text(name: str, elems: list[str], covers: list[tuple[str, str]]) -> str:
    lines = [f"poset {name}", "  elem " + " ".join(elems)]
    lines += [f"  rel {a} < {b}" for a, b in covers]
    lines.append("end")
    return "\n".join(lines) + "\n"


def grid_flow(rows: int, cols: int) -> Presentation:
    """The grid as a flow: one generator per cover, and every unit square
    commutes, so each comparable pair has exactly one path class."""
    elems, covers = grid_elements(rows, cols)
    name = {pair: f"g{k}" for k, pair in enumerate(covers)}
    rels = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b, c, d = f"x{i}y{j}", f"x{i + 1}y{j}", f"x{i}y{j + 1}", f"x{i + 1}y{j + 1}"
            rels.append(((name[(a, b)], name[(b, d)]), (name[(a, c)], name[(c, d)])))
    return Presentation(elems, [(g, a, b) for (a, b), g in name.items()], rels)


def refine_text(rng: random.Random, host: Presentation) -> tuple[str, Presentation]:
    """A document holding ``host`` as flow H, a chain ball B of 1-3 steps
    along random host walks, and a tmap T that puts one new point m0
    between two ball points: adjacent ones subdivide a step, others add a
    parallel branch.  Also returns the refined flow without its gluing
    relations, whose size bounds the refined side of the check."""
    counts = host.walk_counts()
    starts = [s for s in host.states if counts[s]]
    chain = [rng.choice(starts)]
    for _ in range(rng.randint(1, 3)):
        above = sorted(counts[chain[-1]])
        if not above:
            break
        chain.append(rng.choice(above))
    out = host.out_edges()
    steps = [random_walk(rng, out, counts, a, b) for a, b in zip(chain, chain[1:])]
    k = len(steps)
    i = rng.randrange(k)
    j = rng.randint(i + 1, k)
    points = [f"p{t}" for t in range(k + 1)]
    ball_covers = list(zip(points, points[1:]))
    fine_covers = [c for c in ball_covers if c != (points[i], points[j])]
    fine_covers += [(points[i], "m0"), ("m0", points[j])]
    lines = [flow_text(host, "H")]
    lines.append(poset_text("BALL", points, ball_covers))
    lines.append(poset_text("FINE", points + ["m0"], fine_covers))
    lines.append("tmap T: BALL -> FINE\n" + "".join(f"  send {p} -> {p}\n" for p in points) + "end\n")
    ball = ["ball B in H"] + [f"  map {p} -> {s}" for p, s in zip(points, chain)]
    for a in range(k + 1):
        for b in range(a + 1, k + 1):
            word = ".".join(g for step in steps[a:b] for g in step)
            ball.append(f"  path {points[a]} {points[b]} = {word}")
    lines.append("\n".join(ball) + "\nend\n")
    low, high = chain[i], chain[j]
    states = list(host.states)
    states.insert(states.index(low) + 1, "m0")
    refined = Presentation(states, host.gens + [("n0", low, "m0"), ("n1", "m0", high)])
    return "\n".join(lines), refined
