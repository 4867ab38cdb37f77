#!/usr/bin/env python3
"""colordecode benchmark.

    python3 perfbench/run.py --workload eval-short --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # all three workloads

Synthesizes fixed-seed corpora under ``perfbench/out/``, decodes them
through the library functions the ``decode``, ``eval`` and
``gridsearch`` subcommands call, checks the outputs and prints each
metric by name with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 1`` prints the per-layer metrics instead and writes the spans
to ``perfbench/out/trace-<workload>-seed<seed>.json.gz``.

With ``--workload all`` (the default) each workload runs in its own
process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("eval-short", "decode-long", "gridsearch-offlex")


def print_result(name: str, seed: int, result: dict) -> None:
    print(
        f"workload {name} seed {seed}: attempted {result['attempted']} "
        f"failed {result['failed']} correct {'yes' if result['correct'] else 'NO'}"
    )
    for metric, body in result["metrics"].items():
        print(f"  {metric:<36} {body['value']:>16.6f} {body['unit']}")


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lang = workloads.write_inputs(workdir, args.seed, workload_cls.splits)
        workload = workload_cls(workdir, lang)
        if args.trace:
            tracer = tracing.Tracer()
            result = workloads.trace_run(workload, tracer)
            tracer.warn_missing()
            tracer.write(
                OUT / f"trace-{args.workload}-seed{args.seed}.json.gz",
                {"workload": args.workload, "seed": args.seed, "metrics": result["metrics"]},
            )
        else:
            result = workloads.measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in result["errors"][:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": unit} for k, (v, unit) in result["metrics"].items()
        },
    }
    print_result(args.workload, args.seed, out)
    print(f"  transcripts rescored independently: {result['rescored']}")
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    results = {}
    status = 0
    for name in NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps({"seed": args.seed, "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure whole rounds until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced round, per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "colordecode").is_dir():
        print(f"error: no colordecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
