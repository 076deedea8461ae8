"""Spans around calls into flowhom's public boundary functions.

The wrappers are installed from here, on every flowhom module attribute
(and class attribute) that holds a boundary function, so names that the
CLI imported directly are traced too.  A boundary that no longer exists
is skipped: the metrics that only it feeds are left out of the report
instead of failing the run.

Spans are kept in memory as ``[bucket, start, end, parent, doc]``.  A
span's self time is its duration minus the durations of its child spans.
Size counters run after the wrapped call returns and are recorded as
bookkeeping spans, so their cost is charged to no layer.  With
``memory=True`` the tracer records no spans and instead follows
``tracemalloc`` peaks, per layer, above the traced memory at span entry.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import gen

BOOKKEEPING = "bookkeeping"


def _elaboration(tracer, args, result):
    pres = args[1]
    tracer.add("flows.words", gen.count_words(pres.states, pres.generators))
    tracer.add("flows.classes", len(args[0].all_classes()))
    tracer.add("flows.elaborations", 1)


def _chains(tracer, args, result):
    tracer.add("poset.simplices", len(result))


def _germ(tracer, args, result):
    tracer.add("branching.germ_calls", 1)


def _colimit(tracer, args, result):
    diagram = args[0]
    objects = 0
    for simplex in diagram.simplices:
        size = 1
        for a, b in diagram.segments(simplex):
            size *= len(diagram.working_flow.path_set(a, b))
        objects += size
    tracer.add("branching.colimit_calls", 1)
    tracer.add("branching.diagram_objects", objects)


def _grothendieck(tracer, args, result):
    tracer.add("branching.grothendieck_objects", len(result.objects))
    tracer.add("branching.grothendieck_arrows", len(result.arrows))


def _complex(tracer, args, result):
    cells = sum(args[0].dims)
    tracer.add("homology.complexes", 1)
    tracer.add("homology.cells", cells)
    tracer.top("homology.cells_max", cells)


def _snf(tracer, args, result):
    tracer.add("homology.snf_calls", 1)
    tracer.add("homology.snf_nonzeros", sum(len(col) for col in args[0]))
    tracer.add("homology.snf_rank", len(result))


def _audit(tracer, args, result):
    tracer.add("reedy.arrows", sum(2 ** len(s) - 2 for s in args[0].index.simplices))


def _pushout(tracer, args, result):
    tracer.add("refine.instances", 1)


def _parse(tracer, args, result):
    tracer.add("textio.bytes", len(args[0].encode()))


# (bucket, module, attribute path, counter).  A bucket's layer is the part
# before the dot; its self time is reported as "<bucket>_s".
BOUNDARIES = (
    ("textio.parse", "flowhom.textio", "parse", _parse),
    ("flows.elaborate", "flowhom.flows", "Flow.__init__", _elaboration),
    ("flows.elaborate", "flowhom.flows", "flow_of_poset", None),
    ("flows.elaborate", "flowhom.flows", "Flow.opposite", None),
    ("poset.chains", "flowhom.poset", "Poset.order_complex", None),
    ("poset.chains", "flowhom.poset", "Poset.chains", _chains),
    ("branching.germ", "flowhom.branching", "germ_space", _germ),
    ("branching.colimit", "flowhom.branching", "diagram_colimit", _colimit),
    ("branching.colimit", "flowhom.branching", "colimit_matches_germ_fiber", None),
    ("branching.grothendieck", "flowhom.branching", "grothendieck_category", _grothendieck),
    ("branching.table", "flowhom.branching", "branch_space_homology", None),
    ("branching.table", "flowhom.branching", "homology_table", None),
    ("branching.table", "flowhom.branching", "HomologyTable.__init__", None),
    ("homology.nerve", "flowhom.homology", "nerve", None),
    ("homology.chain_check", "flowhom.homology", "ChainComplex.__init__", _complex),
    ("homology.snf", "flowhom.homology", "invariant_factors_sparse", _snf),
    ("homology.groups", "flowhom.homology", "homology", None),
    ("reedy.audit", "flowhom.reedy", "reedy_structure", None),
    ("reedy.audit", "flowhom.reedy", "ReedyStructure.__init__", None),
    ("reedy.audit", "flowhom.reedy", "audit_reedy", _audit),
    ("refine.pushout", "flowhom.refine", "refine_pushout", _pushout),
    ("refine.check", "flowhom.refine", "check_invariance", None),
    ("cli.self", "flowhom.cli", "main", None),
)

# counters and the buckets whose presence they need
COUNTS = {
    "textio.bytes": "textio.parse",
    "flows.elaborations": "flows.elaborate",
    "flows.words": "flows.elaborate",
    "flows.classes": "flows.elaborate",
    "poset.simplices": "poset.chains",
    "branching.germ_calls": "branching.germ",
    "branching.colimit_calls": "branching.colimit",
    "branching.diagram_objects": "branching.colimit",
    "branching.grothendieck_objects": "branching.grothendieck",
    "branching.grothendieck_arrows": "branching.grothendieck",
    "homology.complexes": "homology.chain_check",
    "homology.cells": "homology.chain_check",
    "homology.cells_max": "homology.chain_check",
    "homology.snf_calls": "homology.snf",
    "homology.snf_nonzeros": "homology.snf",
    "homology.snf_rank": "homology.snf",
    "reedy.arrows": "reedy.audit",
    "refine.instances": "refine.pushout",
}
PEAK_LAYERS = ("flows", "homology")


class Tracer:
    """Installs the span wrappers and keeps what they record."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc = None
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)  # layer -> bytes
        self.buckets: list[str] = []  # bucket of each installed wrapper
        self._mem: list[list[int]] = []  # per open span: [start, peak seen]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "flowhom" or name.startswith("flowhom.")]
        for bucket, module, path, counter in BOUNDARIES:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                continue  # removed by a later change: its metrics read absent
            wrapper = self._wrap(bucket, original, counter)
            if outer:
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)

    def _replace(self, owner, name, original, wrapper) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, bucket: str, original, counter):
        self.buckets.append(bucket)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.memory:
                tracer._enter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(bucket)
            spans, stack = tracer.spans, tracer.stack
            span = [bucket, 0.0, 0.0, stack[-1] if stack else -1, tracer.doc]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                extra = [BOOKKEEPING, clock(), 0.0, span[3], tracer.doc]
                counter(tracer, args, result)
                extra[2] = clock()
                spans.append(extra)
            return result

        return functools.update_wrapper(wrapper, original)

    # -- counters ------------------------------------------------------------

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def top(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts[name], n)

    def _enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _exit(self, bucket: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        start, seen = self._mem.pop()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        layer = bucket.split(".")[0]
        self.peaks[layer] = max(self.peaks[layer], max(seen, peak) - start)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per bucket (bookkeeping included under its name)."""
        child = [0.0] * len(self.spans)
        for bucket, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (bucket, start, end, _, _), inner in zip(self.spans, child):
            out[bucket] += end - start - inner
        return out

    def present(self) -> set[str]:
        return set(self.buckets)
