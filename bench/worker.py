"""One workload in one process: ``setup`` writes the documents, ``run``
measures them.  Started by ``run.py`` under a memory ceiling; prints one
JSON object on standard output.

The run is a closed loop: one document at a time, the next one only after
the previous result has been checked.  Only the program's calls are timed;
generation, a warm-up document, the oracle, a garbage collection and a
reference loop before each document are not.  Times are reported in reference seconds (see
``speed.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_DOCS = 100  # so that at least ten samples lie beyond the 90th percentile


def import_flowhom() -> None:
    """Import the checkout's own flowhom from ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flowhom
    import flowhom.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(flowhom.__file__).resolve().parent != src / "flowhom":
        raise SystemExit(f"flowhom imported from {flowhom.__file__}, not from {src}")


def doc_count(workload: workloads.Workload, smoke: bool) -> int:
    return workload.smoke_docs if smoke else workload.pool


def doc_path(work: Path, doc: workloads.Doc) -> Path:
    return work / "docs" / f"{doc.index:04d}.fhm"


def setup(args, workload) -> dict:
    """Import flowhom, then generate and write the documents, timing the
    reference loop every tenth document so that the parent can scale the
    set-up by this process's own speed."""
    refs = []
    import_flowhom()
    shutil.rmtree(args.work / "docs", ignore_errors=True)
    (args.work / "docs").mkdir(parents=True)
    for doc in workload.generate(args.seed, doc_count(workload, args.smoke)):
        if doc.index % 10 == 0:
            refs.append(speed.reference())
        doc_path(args.work, doc).write_text(doc.text, encoding="utf-8")
    refs.append(speed.reference())
    return {"reference_s": sum(refs), "scale": speed.scale(refs)}


class Loop:
    """Processes documents one at a time and keeps what the metrics need."""

    def __init__(self, workload, program, work: Path):
        self.workload = workload
        self.program = program
        self.work = work
        self.times: list[float] = []
        self.refs: list[float] = []  # reference loop timed before each document
        self.failures: list[str] = []
        self.summaries: dict[int, str] = {}  # first output of each document

    def process(self, doc) -> float:
        gc.collect()
        self.refs.append(speed.reference())
        self.program.stage = ""
        output = error = None
        start = time.perf_counter()
        try:
            output = self.workload.run(self.program, doc, str(doc_path(self.work, doc)))
        except MemoryError:
            error = "memory ceiling reached"
        except Exception as exc:  # any program error fails this document only
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        stage = self.program.stage
        if error is None:
            stage = "oracle"
            try:
                problems = self.workload.check(doc, output)
                if doc.index not in self.summaries:
                    self.summaries[doc.index] = self.workload.summary(output)
            except Exception as exc:  # an output the oracle cannot read
                problems = [f"{type(exc).__name__}: {exc}"]
            error = "; ".join(problems[:3]) if problems else None
        if error is not None:
            self.failures.append(f"{self.workload.name} document {doc.index}, {stage}: {error}")
        return elapsed

    def scaled_times(self) -> list[float]:
        """Each document's time in reference seconds, scaled by the mean of
        the reference loops timed just before and just after it.  Call once,
        after the last document."""
        refs = self.refs + [speed.reference()]
        return [t * 2 * speed.REFERENCE_S / (refs[i] + refs[i + 1])
                for i, t in enumerate(self.times)]

    def digest(self) -> tuple[str, int]:
        return workloads.digest([self.summaries[i] for i in sorted(self.summaries)]), len(self.summaries)


def timed(loop: Loop, docs, seconds: float, smoke: bool) -> dict:
    total = 0.0
    while (len(loop.times) < len(docs)) if smoke else (total < seconds or len(loop.times) < MIN_DOCS):
        total += loop.process(docs[len(loop.times) % len(docs)])
    attempted = len(loop.times)
    verified = attempted - len(loop.failures)
    times = loop.scaled_times()
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "metrics": {
            "docs_per_s": verified / sum(times),
            "doc_s.p50": statistics.median(times),
            "doc_s.p90": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_ratio": verified / attempted,
        },
        "raw_docs_per_s": verified / total,
        "scale": sum(times) / total,
    }


def traced(loop: Loop, docs, work: Path) -> dict:
    """Three passes over the same documents: untraced and checked, with
    spans and checked, and with tracemalloc peaks only."""
    for doc in docs:
        loop.process(doc)
    tracer = spans.Tracer()
    tracer.install()
    try:
        walls = []
        for doc in docs:
            tracer.doc = doc.index
            walls.append(loop.process(doc))
    finally:
        tracer.uninstall()
    n = len(docs)
    times = loop.scaled_times()
    untraced, traced_s = sum(times[:n]), sum(times[n:])
    scale = traced_s / sum(walls)
    memory = spans.Tracer(memory=True)
    tracemalloc.start()
    memory.install()
    try:
        for doc in docs:
            loop.workload.run(loop.program, doc, str(doc_path(loop.work, doc)))
    finally:
        memory.uninstall()
        tracemalloc.stop()
    with open(work / "spans.jsonl", "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")

    selfs = tracer.self_times()
    bookkeeping = selfs.pop(spans.BOOKKEEPING, 0.0)
    present = tracer.present()
    metrics = {f"{bucket}_s": selfs.get(bucket, 0.0) * scale / n for bucket in sorted(present)}
    for name, bucket in spans.COUNTS.items():
        if bucket in present:
            metrics[name] = tracer.counts.get(name, 0)
    for layer in spans.PEAK_LAYERS:
        if any(b.split(".")[0] == layer for b in present):
            metrics[f"{layer}.peak_mb"] = memory.peaks.get(layer, 0) / 2**20
    wall = sum(walls) - bookkeeping
    layers: dict[str, float] = {}
    for bucket, seconds in selfs.items():
        layer = bucket.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    metrics["trace.overhead"] = untraced / traced_s
    metrics["trace.coverage"] = sum(layers.values()) / wall
    metrics["trace.docs"] = n
    shares = {layer: round(s / wall, 4) for layer, s in sorted(layers.items())}
    return {"metrics": metrics, "layer_shares": shares}


def run(args, workload) -> dict:
    import_flowhom()
    docs = workload.documents(args.seed, doc_count(workload, args.smoke))
    for doc in docs:
        path = doc_path(args.work, doc)
        if not path.is_file() or path.read_text(encoding="utf-8") != doc.text:
            raise SystemExit(f"{path} is missing or stale: run setup first")
    program = workloads.Program()
    workload.run(program, docs[0], str(doc_path(args.work, docs[0])))  # warm-up, untimed
    gc.freeze()  # the collection before each document then skips the documents and modules
    loop = Loop(workload, program, args.work)
    if args.trace:
        result = traced(loop, docs[: workload.trace_docs], args.work)
    else:
        result = timed(loop, docs, args.seconds, args.smoke)
    result["attempted"] = len(loop.times)
    result["failures"] = loop.failures
    result["digest"], result["digest_docs"] = loop.digest()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    result = (setup if args.mode == "setup" else run)(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
