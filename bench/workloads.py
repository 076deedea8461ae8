"""The benchmark's workloads: seeded documents, the program calls that
process one document, and an independent oracle for every output.

A document is processed by calling flowhom through module attributes
(``program.cli.main``, ``program.flows.Flow``, ...), looked up at call
time, so the tracer's wrappers see every call.  Oracles use only facts the
generator derives from the presentation (walk counts, germ fibers, chain
counts); none of them calls flowhom.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass

import gen

GOLDEN = 0.6180339887498949
SIGNS = ("minus", "plus")


def spread(i: int, lo: float, hi: float) -> float:
    """Target size of document i: log-uniform on [lo, hi] along a golden
    ratio sequence, so every seed, and every prefix of the document list,
    gets nearly the same mix of sizes."""
    return lo * (hi / lo) ** ((i + 1) * GOLDEN % 1.0)


def sized(rng: random.Random, target: float, make, size):
    """Resample ``make(rng)`` until ``size`` of it lies within 12% of target."""
    for _ in range(100_000):
        made = make(rng)
        if abs(size(made) - target) <= 0.12 * target:
            return made
    raise RuntimeError(f"no document of size {target:.0f} found")


@dataclass
class Doc:
    index: int
    text: str
    pres: gen.Presentation  # the flow the oracles reason about
    grid: tuple[int, int] | None = None


class Program:
    """flowhom's modules, plus the stage of the call in progress (so that a
    failure names it)."""

    def __init__(self):
        self.cli = importlib.import_module("flowhom.cli")
        self.textio = importlib.import_module("flowhom.textio")
        self.flows = importlib.import_module("flowhom.flows")
        self.branching = importlib.import_module("flowhom.branching")
        self.stage = ""

    def command(self, argv: list[str]) -> tuple[int, str]:
        """Run the CLI in-process; returns its exit code and its JSON lines."""
        self.stage = " ".join(argv[:1] + argv[2:])  # the command without the path
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv + ["--json-lines"])
        return code, out.getvalue()


def records(text: str, kind: str) -> list[dict]:
    return [r for r in map(json.loads, text.splitlines()) if r.get("kind") == kind]


def verdict(text: str) -> str | None:
    found = records(text, "verdict")
    return found[-1]["verdict"] if found else None


class Workload:
    name = ""
    pool = 0  # documents per seed: more than a timed run gets through today
    trace_docs = 0  # leading documents that a traced run processes
    smoke_docs = 3

    def documents(self, seed: int, count: int) -> list[Doc]:
        return list(self.generate(seed, count))

    def generate(self, seed: int, count: int):
        rng = random.Random(f"{self.name}:{seed}")
        for i in range(count):
            yield self.document(rng, i)

    def document(self, rng: random.Random, i: int) -> Doc:
        raise NotImplementedError

    def run(self, program: Program, doc: Doc, path: str):
        """The program's work on one document: the part that is timed."""
        raise NotImplementedError

    def summary(self, output) -> str:
        """Canonical text of an output, for the oracle and the digest."""
        return "\n".join(f"{label} exit {code}\n{text}" for label, code, text in output)

    def check(self, doc: Doc, output) -> list[str]:
        """Oracle mismatches, empty when the output is right."""
        raise NotImplementedError


class ElaborateLarge(Workload):
    """Parse, elaborate and both germ spaces through the API.  Word
    enumeration and the union-find fixpoint dominate; no homology runs."""

    name = "elaborate-large"
    pool = 200
    trace_docs = 30

    def document(self, rng, i):
        if i % 8 == 3:
            k = 6 if i % 16 == 3 else 7
            elems, covers = gen.grid_elements(k, k)
            return Doc(i, gen.poset_text("G", elems, covers), gen.grid_flow(k, k), (k, k))
        pres = sized(rng, spread(i, 3000, 5500),
                     lambda r: gen.layered(r, 12, 4, 0.3, 0.1, 0.05), gen.Presentation.words)
        gen.add_relations(rng, pres, 120)
        return Doc(i, gen.flow_text(pres), pres)

    def run(self, program, doc, path):
        program.stage = "parse"
        parsed = program.textio.parse(doc.text)
        if doc.grid:
            program.stage = "flow_of_poset"
            flow = program.flows.flow_of_poset(parsed.posets["G"])
        else:
            program.stage = "elaborate"
            flow = program.flows.Flow(parsed.flows["F"])
        germs = []
        for sign in SIGNS:
            program.stage = f"germ_space {sign}"
            germs.append(program.branching.germ_space(flow, sign))
        return flow, germs

    def summary(self, output):
        flow, germs = output
        lines = [f"{a} {b} " + " ".join(".".join(w) for w in flow.path_set(a, b))
                 for a, b in flow.nonempty_pairs()]
        for germ in germs:
            fibers = {}
            for c in germ.classes:
                fibers[germ.anchor[c]] = fibers.get(germ.anchor[c], 0) + 1
            lines.append(f"{germ.sign} " + " ".join(f"{s}:{n}" for s, n in sorted(fibers.items())))
        return "\n".join(lines)

    def check(self, doc, output):
        flow, germs = output
        pres = doc.pres
        counts = pres.walk_counts()
        problems = []
        pairs = {(a, b) for a, row in counts.items() for b in row}
        if set(flow.nonempty_pairs()) != pairs:
            problems.append("nonempty path sets differ from reachability")
        else:
            ends = {g: (src, tgt) for g, src, tgt in pres.gens}
            at_or_above = {a: set(row) | {a} for a, row in counts.items()}
            at_or_below = {b: {a for a in pres.states if b in at_or_above[a]} for b in pres.states}
            # pairs (a, b) whose words some relation can rewrite: a <= c, d <= b
            inner = set()
            for left, _ in pres.rels:
                c, d = ends[left[0]][0], ends[left[-1]][1]
                inner |= {(a, b) for a in at_or_below[c] for b in at_or_above[d]}
            for a, b in sorted(pairs):
                n, walks = len(flow.path_set(a, b)), counts[a][b]
                if doc.grid:
                    ok = n == 1
                elif (a, b) in inner:
                    ok = 1 <= n <= walks
                else:
                    ok = n == walks
                if not ok:
                    problems.append(f"{n} classes {a}->{b} from {walks} walks")
        for germ, sign in zip(germs, SIGNS):
            found = {s: 0 for s in pres.states}
            for c in germ.classes:
                found[germ.anchor[c]] += 1
            if found != pres.germ_fibers(sign):
                problems.append(f"{sign} germ fibers differ from the presentation's")
        return problems


class HomologyLarge(Workload):
    """``homology --per-state`` for both signs.  The Smith normal form and
    the nerve construction dominate; documents are sized by nerve cells."""

    name = "homology-large"
    pool = 250
    trace_docs = 30

    def document(self, rng, i):
        if i % 10 == 4 or i in (10, 45, 80):  # 3x4 grids: few, and all within MIN_DOCS
            rows, cols = (3, 3) if i % 10 == 4 else (3, 4)
            pres = gen.grid_flow(rows, cols)
            return Doc(i, gen.flow_text(pres), pres, (rows, cols))
        pres = sized(rng, spread(i, 3500, 7000),
                     lambda r: gen.layered(r, r.randint(5, 6), 3, 0.35, 0.2, 0.05),
                     gen.Presentation.cells)
        gen.add_relations(rng, pres, rng.randint(1, 4))
        return Doc(i, gen.flow_text(pres), pres)

    def run(self, program, doc, path):
        out = []
        for sign in SIGNS:
            argv = ["homology", path, "--flow", "F", f"--{sign}", "--per-state"]
            out.append((sign, *program.command(argv)))
        return out

    def check(self, doc, output):
        pres = doc.pres
        problems = []
        for sign, code, text in output:
            if code != 0 or verdict(text) != "ok":
                problems.append(f"{sign}: exit {code}, verdict {verdict(text)}")
                continue
            ends = pres.sinks() if sign == "minus" else pres.sources()
            fibers = pres.germ_fibers(sign)
            for r in records(text, "homology"):
                want = f"{len(ends)};" if r["n"] == 0 else None
                if doc.grid and r["n"] > 0:
                    want = "0;"
                if want is not None and r["group"] != want:
                    problems.append(f"{sign}: H_{r['n']} = {r['group']}, expected {want}")
            per_state = {r["state"]: r for r in records(text, "per-state")}
            if set(per_state) != set(pres.states):
                problems.append(f"{sign}: per-state records do not cover the states")
                continue
            for state, r in per_state.items():
                if r["empty"] != (fibers[state] == 0):
                    problems.append(f"{sign}: {state} empty={r['empty']}, fiber {fibers[state]}")
                elif not r["empty"] and r["groups"][0] != f"{fibers[state]};":
                    problems.append(f"{sign}: {state} H0 {r['groups'][0]}, fiber {fibers[state]}")
                elif doc.grid and not r["empty"] and any(g != "0;" for g in r["groups"][1:]):
                    problems.append(f"{sign}: grid state {state} has higher homology")
        return problems


def refinement(rng: random.Random):
    host = gen.layered(rng, rng.randint(3, 5), 2, 0.5, 0.2, 0.1)
    gen.add_relations(rng, host, rng.randint(0, 2))
    return (host, *gen.refine_text(rng, host))


def refine_cost(made) -> float:
    """Cost model of check-invariance: nerve cells of the host and of the
    refined flow (both free), plus a fixed cost per state, fitted to
    measured times."""
    host, _, refined = made
    return host.cells() + refined.cells() + 20 * (len(host.states) + len(refined.states))


class RefineSmall(Workload):
    """``check-invariance`` on small hosts: about 25 small complexes per
    document, so per-complex fixed costs, the pushout and the CLI count."""

    name = "refine-small"
    pool = 200
    trace_docs = 100

    def document(self, rng, i):
        host, text, _ = sized(rng, spread(i, 400, 1600), refinement, refine_cost)
        return Doc(i, text, host)

    def run(self, program, doc, path):
        argv = ["check-invariance", path, "--flow", "H", "--ball", "B", "--tmap", "T"]
        return [("check-invariance", *program.command(argv))]

    def check(self, doc, output):
        _, code, text = output[0]
        problems = []
        if code != 0 or verdict(text) != "pass":
            problems.append(f"exit {code}, verdict {verdict(text)}")
        if any(not r["ok"] for r in records(text, "check")):
            problems.append("an invariance check failed")
        new = [r["new"] for r in records(text, "refined-states")]
        if new != [["m0"]]:
            problems.append(f"new states {new}, expected [['m0']]")
        return problems


def audit_cost(pres: gen.Presentation) -> float:
    """Cost model of branch-space plus reedy-audit, in diagram objects: the
    colimits grow with the diagram weight, the audit with arrows times
    simplices (its uniqueness check scans the index for every arrow).  The
    ratio 220 was fitted to measured times."""
    return pres.weight() + sum(s * a for s, a in pres.upper_chains().values()) / 220


class ColimitAudit(Workload):
    """``branch-space`` for both signs, then ``reedy-audit`` on every state:
    set-level colimits, germ spaces and the Reedy audit; no homology."""

    name = "colimit-audit"
    pool = 250
    trace_docs = 30

    def document(self, rng, i):
        pres = sized(rng, spread(i, 500, 1400),
                     lambda r: gen.layered(r, 6, 3, 0.45, 0.2, 0.1), audit_cost)
        gen.add_relations(rng, pres, rng.randint(1, 4))
        return Doc(i, gen.flow_text(pres), pres)

    def run(self, program, doc, path):
        out = []
        for sign in SIGNS:
            out.append((sign, *program.command(["branch-space", path, "--flow", "F", f"--{sign}"])))
        out.append(("reedy", *program.command(["reedy-audit", path, "--flow", "F"])))
        return out

    def check(self, doc, output):
        pres = doc.pres
        problems = []
        for label, code, text in output:
            if code != 0 or verdict(text) != "ok":
                problems.append(f"{label}: exit {code}, verdict {verdict(text)}")
        for sign, _, text in output[:2]:
            fibers = pres.germ_fibers(sign)
            found = {r["state"]: r for r in records(text, "fiber")}
            if set(found) != set(pres.states):
                problems.append(f"{sign}: fiber records do not cover the states")
                continue
            for state, r in found.items():
                if not r["agree"] or r["germs"] != fibers[state] or r["colimit"] != fibers[state]:
                    problems.append(f"{sign}: {state} germs {r['germs']} colimit {r['colimit']}"
                                    f" agree {r['agree']}, fiber {fibers[state]}")
        text = output[2][2]
        chains = pres.upper_chains()
        bases = {r["state"]: r for r in records(text, "base")}
        if set(bases) != set(pres.states):
            problems.append("reedy: base records do not cover the states")
        for state, r in bases.items():
            if not r["ok"] or (r["simplices"], r["arrows"]) != chains[state]:
                problems.append(f"reedy: {state} ok {r['ok']} simplices {r['simplices']}"
                                f" arrows {r['arrows']}, expected {chains[state]}")
        if records(text, "problem"):
            problems.append("reedy: the audit reports problems")
        return problems


WORKLOADS = {w.name: w for w in (ElaborateLarge(), HomologyLarge(), RefineSmall(), ColimitAudit())}


def digest(summaries: list[str]) -> str:
    h = hashlib.sha256()
    for s in summaries:
        h.update(s.encode())
        h.update(b"\0")
    return h.hexdigest()
