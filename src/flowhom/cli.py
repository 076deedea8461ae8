"""Command-line interface.

Commands: ``homology``, ``branch-space``, ``refine``, ``check-invariance``,
``reedy-audit``, ``selftest``.  Exit codes: 0 success, 1 property or
invariance failure, 2 document parse error, 3 precondition violation.
All output is deterministic; ``--json-lines`` switches to one sorted-key
JSON record per line with homology groups in ``b;t1,t2`` form.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .branching import (
    MINUS,
    PLUS,
    BranchDiagram,
    HomologyTable,
    colimit_matches_germ_fiber,
    diagram_colimit,
    germ_space,
)
from .errors import EmbeddingInvalid, FlowHomError, ParseError
from .flows import Flow, flow_of_poset
from .randgen import (
    random_bounded_poset,
    random_loopless_flow,
    random_refinement_instance,
    random_set_diagram,
    random_set_map,
)
from .reedy import (
    audit_reedy,
    check_latching_injective,
    flatten_pairs,
    iterated_pushout_product,
    pushout_product,
    reedy_structure,
    same_fibers,
    verify_latching_formula,
)
from .refine import BallEmbedding, TMorphism, check_invariance, refine_pushout
from .textio import Document, emit, parse
from .unionfind import product_colimit_splits


class Reporter:
    def __init__(self, json_lines: bool, out):
        self.json_lines = json_lines
        self.out = out

    def line(self, text: str, /, **record):
        if self.json_lines:
            print(json.dumps(record, sort_keys=True), file=self.out)
        else:
            print(text, file=self.out)


def _load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _flow(doc: Document, name: str) -> Flow:
    if name not in doc.flows:
        raise FlowHomError(f"flow {name!r} is not defined in the document")
    return Flow(doc.flows[name])


def _sign(args) -> str:
    return MINUS if args.minus else PLUS


def _states(flow: Flow, args) -> list[str]:
    """The state named by ``--state``, or every state of the flow."""
    if not args.state:
        return list(flow.states)
    if args.state not in flow.states:
        raise FlowHomError(f"state {args.state!r} is not in flow {args.flow!r}")
    return [args.state]


def _resolve_refinement(doc: Document, args):
    if args.tmap not in doc.tmaps:
        raise FlowHomError(f"tmap {args.tmap!r} is not defined in the document")
    if args.ball not in doc.balls:
        raise FlowHomError(f"ball {args.ball!r} is not defined in the document")
    block = doc.balls[args.ball]
    if block.flow_name != args.flow:
        raise FlowHomError(
            f"ball {args.ball!r} embeds into flow {block.flow_name!r}, not {args.flow!r}"
        )
    host = _flow(doc, args.flow)
    tblock = doc.tmaps[args.tmap]
    pattern = TMorphism(
        doc.posets[tblock.source_name], doc.posets[tblock.target_name], tblock.mapping
    )
    choices = []
    for (a, b), word in block.paths:
        try:
            choices.append(((a, b), host.class_of(word)))
        except KeyError:
            raise EmbeddingInvalid(
                f"path {'.'.join(word)} is not a composable word of {args.flow!r}"
            ) from None
    embedding = BallEmbedding(
        ball=pattern.source,
        host=host,
        state_map=block.state_map,
        path_choice=tuple(choices),
    )
    return host, pattern, embedding


# -- commands ----------------------------------------------------------------


def cmd_homology(args, rep: Reporter) -> int:
    doc = _load(args.document)
    flow = _flow(doc, args.flow)
    sign = _sign(args)
    mark = "-" if sign == MINUS else "+"
    table = HomologyTable(flow, sign)
    rep.line(f"command: homology --flow {args.flow} --{sign}",
             kind="command", command="homology", flow=args.flow, sign=sign)
    # report degrees through (longest chain) + 1, or further if nonzero
    top = max(table.max_degree, flow.state_order.height())
    for n in range(top + 1):
        g = table.group(n)
        rep.line(f"H_{n}^{mark} = {g}",
                 kind="homology", flow=args.flow, sign=sign, n=n, group=g.compact())
    if args.per_state:
        for state in flow.states:
            h = table.per_state[state]
            if h.empty:
                rep.line(f"hop^{mark}_{state} = EMPTY",
                         kind="per-state", state=state, sign=sign, empty=True)
            else:
                groups = "; ".join(
                    f"H_{n}={h.group(n)}" for n in range(h.max_degree + 1)
                )
                rep.line(f"hop^{mark}_{state}: {groups}",
                         kind="per-state", state=state, sign=sign, empty=False,
                         groups=[h.group(n).compact() for n in range(h.max_degree + 1)])
    rep.line("verdict: ok", kind="verdict", verdict="ok")
    return 0


def cmd_branch_space(args, rep: Reporter) -> int:
    doc = _load(args.document)
    flow = _flow(doc, args.flow)
    sign = _sign(args)
    mark = "-" if sign == MINUS else "+"
    states = _states(flow, args)
    germs = germ_space(flow, sign)
    # the oracle reads every diagram in the minus direction of its working flow
    working_germs = germs if sign == MINUS else germ_space(flow.opposite(), MINUS)
    ok = True
    rep.line(f"command: branch-space --flow {args.flow} --{sign}",
             kind="command", command="branch-space", flow=args.flow, sign=sign)
    for state in states:
        fiber = germs.fiber(state)
        diagram = BranchDiagram(flow, state, sign)
        colim = diagram_colimit(diagram)
        agree = (colimit_matches_germ_fiber(diagram, colim, working_germs)
                 and len(colim) == len(fiber))
        ok = ok and agree
        names = " ".join("{" + ",".join(".".join(w) for w in c) + "}" for c in fiber)
        rep.line(
            f"P^{mark}_{state}: {len(fiber)} germ class(es) {names}"
            f" | colimit {len(colim)} | {'agree' if agree else 'MISMATCH'}",
            kind="fiber", state=state, sign=sign, germs=len(fiber),
            colimit=len(colim), agree=agree,
        )
    rep.line(f"verdict: {'ok' if ok else 'fail'}",
             kind="verdict", verdict="ok" if ok else "fail")
    return 0 if ok else 1


def cmd_refine(args, rep: Reporter, check_only: bool) -> int:
    doc = _load(args.document)
    host, pattern, embedding = _resolve_refinement(doc, args)
    result = refine_pushout(host, pattern, embedding)
    report = check_invariance(host, result)
    rep.line(f"command: {'check-invariance' if check_only else 'refine'}"
             f" --flow {args.flow} --ball {args.ball} --tmap {args.tmap}",
             kind="command", command="check-invariance" if check_only else "refine",
             flow=args.flow, ball=args.ball, tmap=args.tmap)
    rep.line(f"refined states: {' '.join(result.refined.states)}",
             kind="refined-states", states=list(result.refined.states),
             new=sorted(result.new_states))
    for name, ok, witnesses in report.checks:
        rep.line(f"{'ok  ' if ok else 'FAIL'} {name}",
                 kind="check", name=name, ok=ok, witnesses=list(witnesses))
        for w in witnesses:
            rep.line(f"     {w}", kind="witness", witness=w)
    rep.line(f"verdict: {'pass' if report.passed else 'fail'}",
             kind="verdict", verdict="pass" if report.passed else "fail")
    if not check_only:
        out_doc = Document()
        out_doc.flows[f"{args.flow}_refined"] = result.refined.presentation
        text = emit(out_doc)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            rep.line("# refined document follows", kind="document", text=text)
            if not rep.json_lines:
                print(text, file=rep.out)
    return 0 if report.passed else 1


def cmd_reedy_audit(args, rep: Reporter) -> int:
    doc = _load(args.document)
    flow = _flow(doc, args.flow)
    order = flow.state_order
    states = _states(flow, args)
    rep.line(f"command: reedy-audit --flow {args.flow}",
             kind="command", command="reedy-audit", flow=args.flow)
    failures = 0
    for state in states:
        structure = reedy_structure(order, state)
        problems = audit_reedy(structure)
        failures += len(problems)
        # one non-identity arrow per nonempty proper subchain of a simplex
        arrows = sum(2 ** len(s) - 2 for s in structure.index.simplices)
        rep.line(f"base {state}: {len(structure.index)} simplices,"
                 f" {arrows} arrows,"
                 f" {'ok' if not problems else 'FAIL'}",
                 kind="base", state=state, simplices=len(structure.index),
                 arrows=arrows, ok=not problems)
        for s in structure.index.simplices:
            rep.line(f"  d({','.join(s)}) = {structure.degree(s)}",
                     kind="degree", simplex=list(s), degree=structure.degree(s))
        for p in problems:
            rep.line(f"  ! {p}", kind="problem", problem=p)
    rep.line(f"verdict: {'ok' if not failures else 'fail'}",
             kind="verdict", verdict="ok" if not failures else "fail")
    return 0 if not failures else 1


def cmd_selftest(args, rep: Reporter) -> int:
    count = args.count
    rep.line(f"selftest seed={args.seed} count={count}",
             kind="command", command="selftest", seed=args.seed, count=count)
    failures: list[str] = []

    def suite(name: str, checked: int, bad: list[str]):
        rep.line(f"{name}: {checked} checked, {'ok' if not bad else 'FAIL'}",
                 kind="suite", name=name, checked=checked, ok=not bad,
                 failures=bad[:5])
        failures.extend(f"{name}: {b}" for b in bad)

    rng = random.Random(args.seed)

    bad, states_checked = [], 0
    for i in range(count):
        flow = random_loopless_flow(random.Random(rng.randrange(2**30)))
        germs = germ_space(flow, MINUS)
        for state in flow.states:
            states_checked += 1
            diagram = BranchDiagram(flow, state, MINUS)
            if not colimit_matches_germ_fiber(diagram, diagram_colimit(diagram), germs):
                bad.append(f"instance {i}, state {state}")
    suite("germ-vs-colimit", states_checked, bad)

    bad, audited = [], 0
    for i in range(count):
        poset = random_bounded_poset(random.Random(rng.randrange(2**30)), levels=5)
        for state in poset.elements:
            audited += 1
            problems = audit_reedy(reedy_structure(poset, state))
            bad.extend(f"instance {i}, base {state}: {p}" for p in problems)
    suite("reedy-axioms", audited, bad)

    bad, simplices = [], 0
    for i in range(count):
        poset = random_bounded_poset(random.Random(rng.randrange(2**30)), max_inner=4, levels=3)
        diagram = BranchDiagram(flow_of_poset(poset), poset.bounds()[0], MINUS)
        for s in diagram.simplices:
            simplices += 1
            if not verify_latching_formula(diagram, s):
                bad.append(f"instance {i}, simplex {s}")
    suite("latching-formula", simplices, bad)

    bad, checked = [], 0
    for i in range(count):
        flow = random_loopless_flow(random.Random(rng.randrange(2**30)),
                                    max_states=8, relations=False)
        for state in flow.states:
            checked += 1
            if not check_latching_injective(BranchDiagram(flow, state, MINUS)):
                bad.append(f"instance {i}, base {state}")
    suite("latching-injective-free", checked, bad)

    bad, checked = [], 0
    for i in range(count):
        sub = random.Random(rng.randrange(2**30))
        maps = [random_set_map(sub) for _ in range(sub.randint(1, 4))]
        checked += 1
        cube = pushout_product(maps)
        folded = iterated_pushout_product(maps)
        if not same_fibers(cube, folded, lambda e: flatten_pairs(e, len(maps))):
            bad.append(f"instance {i}")
        sets, edges = random_set_diagram(sub)
        sets2, edges2 = random_set_diagram(sub)
        if not product_colimit_splits(sets, edges, sets2, edges2):
            bad.append(f"instance {i} (product colimit)")
    suite("cube-and-product-colimits", checked, bad)

    bad, checked = [], 0
    for i in range(count):
        sub = random.Random(rng.randrange(2**30))
        host, pattern, embedding = random_refinement_instance(sub)
        checked += 1
        result = refine_pushout(host, pattern, embedding)
        report = check_invariance(host, result)
        if not report.passed:
            bad.append(f"instance {i}")
    suite("refinement-invariance", checked, bad)

    bad, checked = [], 0
    for i in range(count):
        flow = random_loopless_flow(random.Random(rng.randrange(2**30)),
                                    max_states=7, max_height=5, max_weight=750)
        checked += 1
        if not HomologyTable(flow, PLUS).same_groups(
            HomologyTable(flow.opposite(), MINUS)
        ):
            bad.append(f"instance {i}")
    suite("plus-minus-duality", checked, bad)

    verdict = "pass" if not failures else "fail"
    rep.line(f"verdict: {verdict}", kind="verdict", verdict=verdict,
             failures=len(failures))
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of :func:`main`; each subcommand's ``run`` default dispatches it."""
    parser = argparse.ArgumentParser(
        prog="flowhom",
        description="Branching/merging homology of finite loopless flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, document=True):
        if document:
            p.add_argument("document", help="input document file")
        p.add_argument("--json-lines", action="store_true",
                       help="machine-readable output, one record per line")
        p.add_argument("-o", "--output", default=None, help="write output here")

    def sign_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--minus", action="store_true",
                           help="branching (germs at the start of paths)")
        group.add_argument("--plus", action="store_true",
                           help="merging (germs at the end of paths)")

    p = sub.add_parser("homology", help="graded branching/merging homology")
    common(p)
    p.add_argument("--flow", required=True)
    sign_flags(p)
    p.add_argument("--per-state", action="store_true")
    p.set_defaults(run=cmd_homology)

    p = sub.add_parser("branch-space", help="germ classes and colimit cross-check")
    common(p)
    p.add_argument("--flow", required=True)
    p.add_argument("--state", default=None)
    sign_flags(p)
    p.set_defaults(run=cmd_branch_space)

    p = sub.add_parser("refine", help="replace an embedded ball by a finer one")
    common(p)
    p.add_argument("--flow", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument("--tmap", required=True)
    p.set_defaults(run=functools.partial(cmd_refine, check_only=False))

    p = sub.add_parser("check-invariance", help="refine and verify homology invariance")
    common(p)
    p.add_argument("--flow", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument("--tmap", required=True)
    p.set_defaults(run=functools.partial(cmd_refine, check_only=True))

    p = sub.add_parser("reedy-audit", help="degree tables and factorization checks")
    common(p)
    p.add_argument("--flow", required=True)
    p.add_argument("--state", default=None)
    p.set_defaults(run=cmd_reedy_audit)

    p = sub.add_parser("selftest", help="randomized property suites")
    common(p, document=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    close = None
    if args.output and args.command != "refine":
        close = open(args.output, "w", encoding="utf-8")
        out = close
    rep = Reporter(args.json_lines, out)
    try:
        code = args.run(args, rep)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = 2
    except (FlowHomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    finally:
        if close:
            close.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
