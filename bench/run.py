"""Benchmark entry point.

    python3 bench/run.py --workload pretrain|transfer|dataset-io \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. BLAS pools are pinned to one thread (the bit-exact `threads: 1`
mode) before numpy loads. With --trace 0 set-up and steps repeat for as
many rounds as take about --seconds on the reference machine, and the
end-to-end metrics are reported; with --trace 1 one untraced pass and one
traced pass run in this process and the per-layer metrics are reported. Human-readable lines come first; the last line of standard output
is the JSON result. Scratch files go to bench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Same as workloads.WORKLOADS; that module imports numpy, which must load
# only after the BLAS pools are pinned.
WORKLOADS = ("pretrain", "transfer", "dataset-io")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "leda" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import report
    import workloads
    from tracer import Tracer

    plan = workloads.Plan()
    emit = report.emit
    emit(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    emit("environment " + json.dumps(report.environment(ROOT), sort_keys=True))

    if args.trace == 0:
        rounds = workloads.rounds_for(args.workload, args.seconds)
        ledgers = [workloads.run_workload(args.workload, plan, args.seed, rounds, WORK)]
        metrics, units = report.end_to_end(ledgers[0]), dict(report.END_TO_END)
        steps = {k: v for k, v in report.stage_times(ledgers[0]).items() if v}
    else:
        once = replace(plan, setup_min=1)
        base = workloads.run_workload(args.workload, once, args.seed, 1, WORK)
        with Tracer() as tracer:
            traced = workloads.run_workload(args.workload, once, args.seed, 1, WORK, tracer=tracer)
        tracer.write(WORK / "spans" / f"{args.workload}-s{args.seed}.jsonl")
        ledgers = [base, traced]
        metrics, units = report.per_layer(base, traced, tracer, plan.fewshot_repeats), dict(report.PER_LAYER)
        steps = {}

    for name, value in metrics.items():
        emit(f"  {name:<44} {value if value is not None else float('nan'):>14.6g} {units[name]}")
    for name, value in steps.items():
        emit(f"  {name:<44} {value:>14.6g} s  (per-step median)")
    for ledger in ledgers:
        emit("samples " + json.dumps({k: [round(x, 6) for x in v] for k, v in ledger.samples.items()}))
    attempted = sum(l.attempted for l in ledgers)
    failed = sum(l.failed for l in ledgers)
    emit(f"error_rate {failed / max(attempted, 1):.6g} ratio ({failed} failed / {attempted} attempted)")
    for problem in (p for l in ledgers for p in l.problems):
        emit(f"  problem: {problem}")
    emit("fingerprint (informational) " + json.dumps(ledgers[-1].fingerprint, sort_keys=True))
    emit(report.result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
