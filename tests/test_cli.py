"""Command-line behaviour: outputs, exit codes, determinism."""

import json
import pathlib

import pytest

from flowhom.cli import main

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "demos" / "documents" / "two_routes.fhm"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


# the seeded instance streams are part of the contract: a change that draws
# different instances changes these counts
SELFTEST_SEED5_COUNT3 = (
    "selftest seed=5 count=3\n"
    "germ-vs-colimit: 21 checked, ok\n"
    "reedy-axioms: 22 checked, ok\n"
    "latching-formula: 17 checked, ok\n"
    "latching-injective-free: 14 checked, ok\n"
    "cube-and-product-colimits: 3 checked, ok\n"
    "refinement-invariance: 3 checked, ok\n"
    "plus-minus-duality: 3 checked, ok\n"
    "verdict: pass\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomologyCommand:
    def test_minus_table(self, capsys):
        code, out, _ = run(capsys, "homology", str(SAMPLE), "--flow", "FP", "--minus")
        assert code == 0
        assert "H_0^- = Z" in out
        assert "H_1^- = 0" in out
        assert "H_4^- = 0" in out  # longest chain 3, so degrees up to 4

    def test_plus_table(self, capsys):
        code, out, _ = run(capsys, "homology", str(SAMPLE), "--flow", "FP", "--plus")
        assert code == 0
        assert "H_0^+ = Z" in out

    def test_per_state_marks_empty(self, capsys):
        code, out, _ = run(
            capsys, "homology", str(SAMPLE), "--flow", "FP", "--minus", "--per-state"
        )
        assert code == 0
        assert "hop^-_top = EMPTY" in out
        assert "hop^-_A: H_0=Z" in out

    def test_unknown_flow_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "homology", str(SAMPLE), "--flow", "NOPE", "--minus")
        assert code == 3
        assert "NOPE" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.fhm"
        for text, where in (
            ("poset P\n  rel a < a\nend\n", "line 2"),
            # a generator x.y could never be told apart from the word x.y
            ("flow FP\n  state a b\n  gen x.y: a -> b\nend\n", "line 3: generator name 'x.y'"),
            # an empty generator name would print its germ class as {}
            ("flow FP\n  state a b\n  gen : a -> b\nend\n", "line 3: generator name may not be empty"),
        ):
            bad.write_text(text)
            code, out, err = run(capsys, "homology", str(bad), "--flow", "FP", "--minus")
            assert code == 2
            assert out == ""
            assert where in err

    def test_duplicate_map_line_exit_two(self, tmp_path, capsys):
        doc = tmp_path / "dup.fhm"
        doc.write_text(SAMPLE.read_text().replace(
            "  map p1 -> B\n", "  map p1 -> B\n  map p1 -> C\n"))
        code, _, err = run(capsys, "check-invariance", str(doc),
                           "--flow", "FP", "--ball", "EDGE", "--tmap", "SUBDIV")
        assert code == 2
        assert "map p1" in err

    def test_json_lines(self, capsys):
        code, out, _ = run(
            capsys, "homology", str(SAMPLE), "--flow", "FP", "--minus", "--json-lines"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        degree0 = [r for r in records if r.get("kind") == "homology" and r["n"] == 0]
        assert degree0[0]["group"] == "1;"


class TestBranchSpaceCommand:
    def test_fibers_and_agreement(self, capsys):
        code, out, _ = run(
            capsys, "branch-space", str(SAMPLE), "--flow", "FP", "--minus"
        )
        assert code == 0
        assert "P^-_bot: 1 germ class(es)" in out
        assert "MISMATCH" not in out
        assert out.strip().endswith("verdict: ok")

    def test_single_state(self, capsys):
        code, out, _ = run(
            capsys, "branch-space", str(SAMPLE), "--flow", "FP",
            "--state", "bot", "--minus",
        )
        assert code == 0
        assert out.count("P^-_") == 1


class TestRefineCommands:
    def test_check_invariance_passes(self, capsys):
        code, out, _ = run(
            capsys, "check-invariance", str(SAMPLE),
            "--flow", "FP", "--ball", "EDGE", "--tmap", "SUBDIV",
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_refine_emits_document(self, tmp_path, capsys):
        out_file = tmp_path / "refined.fhm"
        code, out, _ = run(
            capsys, "refine", str(SAMPLE),
            "--flow", "FP", "--ball", "EDGE", "--tmap", "SUBDIV",
            "-o", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert "flow FP_refined" in text
        from flowhom.textio import parse
        from flowhom.flows import Flow

        refined = Flow(parse(text).flows["FP_refined"])
        assert len(refined.states) == 6  # one new state from the subdivision

    def test_broken_embedding_exit_three(self, tmp_path, capsys):
        doc = SAMPLE.read_text().replace("path p0 p1 = uAB", "path p0 p1 = uA")
        bad = tmp_path / "bad.fhm"
        bad.write_text(doc)
        code, _, err = run(
            capsys, "check-invariance", str(bad),
            "--flow", "FP", "--ball", "EDGE", "--tmap", "SUBDIV",
        )
        assert code == 3
        assert err


class TestReedyAudit:
    def test_audit_passes(self, capsys):
        code, out, _ = run(capsys, "reedy-audit", str(SAMPLE), "--flow", "FP")
        assert code == 0
        assert "verdict: ok" in out
        assert "d(A,B,top) = 3" in out

    def test_single_state(self, capsys):
        code, out, _ = run(
            capsys, "reedy-audit", str(SAMPLE), "--flow", "FP", "--state", "bot"
        )
        assert code == 0
        assert "base bot" in out


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "3", "--count", "4")
        assert code == 0
        assert "verdict: pass" in out

    def test_zero_count_is_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "3", "--count", "0")
        assert code == 0
        assert "verdict: pass" in out

    def test_reproducible_byte_for_byte(self, capsys):
        _, first, _ = run(capsys, "selftest", "--seed", "5", "--count", "3")
        _, second, _ = run(capsys, "selftest", "--seed", "5", "--count", "3")
        assert first == second == SELFTEST_SEED5_COUNT3

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "selftest", "--seed", "5", "--count", "2", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert "verdict: pass" in target.read_text()

    def test_json_lines_records(self, capsys):
        code, out, _ = run(
            capsys, "selftest", "--seed", "5", "--count", "2", "--json-lines"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        suites = [r for r in records if r.get("kind") == "suite"]
        assert suites and all(r["ok"] for r in suites)
        assert records[-1]["verdict"] == "pass"


class TestCommandsInOneProcess:
    """``main`` shares one parser between calls, so nothing one command
    parsed (an output file, a flag) may reach the next."""

    def test_two_commands_one_with_output_file(self, tmp_path, capsys):
        target = tmp_path / "homology.txt"
        code, out, _ = run(capsys, "homology", str(SAMPLE), "--flow", "FP",
                           "--minus", "--per-state", "-o", str(target))
        assert code == 0
        assert out == ""
        code, out, _ = run(capsys, "branch-space", str(SAMPLE), "--flow", "FP",
                           "--state", "bot", "--plus")
        assert code == 0
        assert out.startswith("command: branch-space --flow FP --plus\n")
        assert out.count("P^+_") == 1
        assert out.endswith("verdict: ok\n")
        report = target.read_text()
        assert report.startswith("command: homology --flow FP --minus\n")
        assert "hop^-_top = EMPTY" in report
        assert report.endswith("verdict: ok\n")
        # the same command without -o or --per-state: the table alone, on stdout
        code, out, _ = run(capsys, "homology", str(SAMPLE), "--flow", "FP", "--minus")
        assert code == 0
        table = [line for line in report.splitlines(keepends=True)
                 if not line.startswith("hop^")]
        assert out == "".join(table)


class TestJsonLinesInvariance:
    def test_check_invariance_records(self, capsys):
        code, out, _ = run(
            capsys, "check-invariance", str(SAMPLE),
            "--flow", "FP", "--ball", "EDGE", "--tmap", "SUBDIV", "--json-lines",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        checks = [r for r in records if r.get("kind") == "check"]
        assert len(checks) == 4 and all(r["ok"] for r in checks)


class TestGoldenReports:
    """The branch-space and reedy-audit reports, plain and ``--json-lines``,
    compared literally with transcripts captured before the colimit, germ
    space and chain-length work was shared across states."""

    @pytest.mark.parametrize(
        "document, flow",
        [(SAMPLE, "FP"), (GOLDEN / "relations.fhm", "D")],
        ids=["two_routes", "relations"],
    )
    def test_transcript(self, capsys, document, flow):
        parts = []
        for command in (["branch-space", "--minus"], ["branch-space", "--plus"],
                        ["reedy-audit"]):
            for extra in ([], ["--json-lines"]):
                tail = ["--flow", flow, *command[1:], *extra]
                code, out, _ = run(capsys, command[0], str(document), *tail)
                parts.append(f"$ flowhom {' '.join([command[0], document.name, *tail])}\n"
                             f"{out}exit {code}\n")
        golden = GOLDEN / f"{document.stem}.{flow}.txt"
        assert "".join(parts) == golden.read_text(encoding="utf-8")
