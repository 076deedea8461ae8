"""Tests of the benchmark itself: ``python -m pytest bench`` from the root."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def write_docs(tmp_path: Path, docs) -> None:
    (tmp_path / "docs").mkdir()
    for doc in docs:
        worker.doc_path(tmp_path, doc).write_text(doc.text, encoding="utf-8")


def loop_over(tmp_path, workload, count=3):
    docs = workload.documents(0, count)
    write_docs(tmp_path, docs)
    return worker.Loop(workload, workloads.Program(), tmp_path), docs


# -- generator -----------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_documents(name):
    w = workloads.WORKLOADS[name]
    first = [d.text for d in w.documents(7, 6)]
    assert first == [d.text for d in w.documents(7, 6)]
    assert first != [d.text for d in w.documents(8, 6)]


def test_generator_does_not_import_flowhom():
    for module in ("gen", "workloads"):
        source = (HERE / f"{module}.py").read_text()
        assert "import flowhom" not in source and "from flowhom" not in source


def test_presentation_facts_match_flowhom():
    """The oracles' presentation-only facts agree with flowhom's routes."""
    from flowhom import Flow, germ_space, reedy_structure
    from flowhom.randgen import diagram_weight
    from flowhom.textio import parse

    rng = random.Random(3)
    for _ in range(25):
        pres = gen.layered(rng, rng.randint(3, 6), 3, 0.45, 0.2, 0.1)
        free = Flow(parse(gen.flow_text(pres)).flows["F"])
        assert diagram_weight(free) == pres.weight()
        assert len(free.all_classes()) == pres.words()
        gen.add_relations(rng, pres, rng.randint(0, 4))
        flow = Flow(parse(gen.flow_text(pres)).flows["F"])
        for sign in ("minus", "plus"):
            germs = germ_space(flow, sign)
            fibers = Counter(germs.anchor[c] for c in germs.classes)
            assert {s: fibers[s] for s in pres.states} == pres.germ_fibers(sign)
        for state, (simplices, arrows) in pres.upper_chains().items():
            structure = reedy_structure(flow.state_order, state)
            assert (len(structure.index), len(structure.arrows())) == (simplices, arrows)


def test_grid_flow_has_one_class_per_pair():
    from flowhom import Flow
    from flowhom.textio import parse

    flow = Flow(parse(gen.flow_text(gen.grid_flow(3, 4))).flows["F"])
    pairs = (3 * 4 // 2) * (4 * 5 // 2) - 12  # comparable pairs of the 3x4 grid
    assert len(flow.all_classes()) == pairs


# -- oracles -------------------------------------------------------------------


def edit_records(text: str, kind: str, edit) -> str:
    """Apply ``edit`` to the first record of ``kind`` that it changes."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == kind and edit(record):
            lines[i] = json.dumps(record, sort_keys=True)
            break
    else:
        raise AssertionError(f"nothing to tamper with in {kind} records")
    return "\n".join(lines) + "\n"


def bump_h0(record) -> bool:
    if record["empty"]:
        return False
    betti, torsion = record["groups"][0].split(";")
    record["groups"][0] = f"{int(betti) + 1};{torsion}"
    return True


def flip_verdict(record) -> bool:
    record["verdict"] = "fail" if record["verdict"] == "pass" else "pass"
    return True


def disagree(record) -> bool:
    record["agree"] = False
    return True


def drop_a_germ(output):
    flow, germs = output
    minus = germs[0]
    return flow, [SimpleNamespace(sign=minus.sign, classes=minus.classes[1:], anchor=minus.anchor),
                  *germs[1:]]


TAMPER = {
    "homology-large": lambda out: [(out[0][0], out[0][1], edit_records(out[0][2], "per-state", bump_h0)), *out[1:]],
    "refine-small": lambda out: [(out[0][0], out[0][1], edit_records(out[0][2], "verdict", flip_verdict))],
    "colimit-audit": lambda out: [(out[0][0], out[0][1], edit_records(out[0][2], "fiber", disagree)), *out[1:]],
    "elaborate-large": drop_a_germ,
}


@pytest.mark.parametrize("name", NAMES)
def test_outputs_pass_their_oracle(tmp_path, name):
    loop, docs = loop_over(tmp_path, workloads.WORKLOADS[name])
    metrics = worker.timed(loop, docs, 0.0, smoke=True)["metrics"]
    assert loop.failures == []
    assert metrics["verified_ratio"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_tampered_output_counts_as_failed(tmp_path, name):
    honest = workloads.WORKLOADS[name]

    class Tampered(type(honest)):
        def run(self, program, doc, path):
            return TAMPER[name](super().run(program, doc, path))

    loop, docs = loop_over(tmp_path, Tampered())
    metrics = worker.timed(loop, docs, 0.0, smoke=True)["metrics"]
    assert len(loop.failures) == len(docs)
    assert metrics["verified_ratio"] == 0.0
    assert all(f"document {d.index}, oracle" in f for d, f in zip(docs, loop.failures))


def test_program_error_names_document_and_stage(tmp_path):
    class OutOfMemory(workloads.ElaborateLarge):
        def run(self, program, doc, path):
            program.stage = "elaborate"
            raise MemoryError

    loop, docs = loop_over(tmp_path, OutOfMemory(), count=1)
    loop.process(docs[0])
    assert loop.failures == ["elaborate-large document 0, elaborate: memory ceiling reached"]


# -- tracing -------------------------------------------------------------------


def test_missing_boundary_reads_as_absent(monkeypatch):
    import flowhom.branching
    import flowhom.cli

    gone = ("branching.gone", "flowhom.branching", "no_such_function", None)
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + (gone,))
    original = flowhom.cli.germ_space
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert flowhom.cli.germ_space is not original
        assert flowhom.branching.germ_space is flowhom.cli.germ_space
        assert "branching.gone" not in tracer.present()
    finally:
        tracer.uninstall()
    assert flowhom.cli.germ_space is original


@pytest.mark.parametrize("name", ["homology-large", "colimit-audit"])
def test_traced_counts_repeat_exactly(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    counted = []
    for _ in range(2):
        loop, docs = loop_over(tmp_path, workload, count=2)
        result = worker.traced(loop, docs, tmp_path)
        counted.append({k: v for k, v in result["metrics"].items() if k in spans.COUNTS})
        shutil.rmtree(tmp_path / "docs")
    assert counted[0] == counted[1]
    assert any(counted[0].values())


# -- the command -----------------------------------------------------------------


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_declared_metrics(trace, kind):
    done = bench("--workload", "all", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert sorted(results) == NAMES
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == declared(kind)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "refine-small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
