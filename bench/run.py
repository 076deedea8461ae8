#!/usr/bin/env python3
"""Seeded end-to-end benchmark of flowhom.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --workload all --smoke      # a few documents each

Run it from the root of a checkout; it builds nothing, and imports flowhom
from that checkout's ``src``.  Each workload runs in child processes under
a memory ceiling: the set-up (interpreter start, import, document
generation and writing) runs ``SETUP_REPS`` times and its median is
``setup_s``; then one process measures documents for ``--seconds`` seconds
of program time (``--trace 0``), or traces a fixed prefix of them
(``--trace 1``).  Times are reported in reference seconds, which cancels
the drift of a shared machine's speed (see ``speed.py``).  Human-readable lines come first; the last line of
standard output is one JSON object.  Work files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
MEMORY_CEILING = 2 * 2**30  # bytes of address space per child process
DEADLINE_S = 170  # per workload; a run must end within 180 s


class BenchError(Exception):
    pass


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


def child(argv: list[str], deadline: float) -> dict:
    """Run a worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, timeout=remaining,
            preexec_fn=limit_memory, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} did not finish in time") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker {argv[0]} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{name}-{seed}"
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    common += ["--smoke"] if smoke else []
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        done = child(["setup", *common], deadline)
        setups.append((time.perf_counter() - start - done["reference_s"]) * done["scale"])
    result = child(["run", *common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    failed = len(result["failures"])
    unit = units()
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in sorted(metrics.items())},
        "details": result,
    }


def report(name: str, seed: int, outcome: dict) -> None:
    details = outcome["details"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{name} (seed {seed}): {attempted} documents, {failed} failed")
    for metric, entry in outcome["metrics"].items():
        print(f"  {metric:32} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_ratio':32} {failed / attempted:14.6g} 1")
    if "scale" in details:
        print(f"  unscaled docs_per_s {details['raw_docs_per_s']:.6g} doc/s,"
              f" reference scale {details['scale']:.4f}")
    if "layer_shares" in details:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in details["layer_shares"].items())
        print(f"  layer shares of traced time: {shares}")
    print(f"  output digest {details['digest']} over {details['digest_docs']} documents")
    for failure in details["failures"][:20]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few documents per workload, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowhom" / "__init__.py").is_file():
        print(f"no flowhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            report(name, args.seed, outcomes[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes.values():
        del outcome["details"]
    print(json.dumps(outcomes[names[0]] if len(names) == 1 else outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
