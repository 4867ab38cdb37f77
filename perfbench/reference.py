#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize it.

    python3 perfbench/reference.py --seeds 1-10 --trace-seed 1 \
        --json perfbench/out/reference.json

Runs ``run.py`` once per workload and seed with tracing off, then prints
a Markdown table per workload: for each end-to-end metric the median,
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median beside the bound from BENCHMARK.json, and
the share of failed operations. With ``--trace-seed`` it also makes one
traced run per workload and prints every per-layer metric, with each
decode-phase layer's share of their summed seconds. ``--json`` keeps
every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = raw.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in raw.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(workload: str, results: list[dict]) -> list[str]:
    lines = [
        f"**{workload}** ({len(results)} runs, failed "
        f"{sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} "
        f"operations, all correct: {all(r['correct'] for r in results)})",
        "",
        "| metric | unit | median | q1 | q3 | spread | bound |",
        "| --- | --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for m in BENCHMARK["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        lines.append(
            f"| `{m['name']}` | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
            f"{spread:.3f} | {m['bound']} |"
        )
    return lines


# layers whose seconds add up to the traced decode phase; each gets its
# share of their sum beside its value
PHASE_LAYERS = (
    "decoder.frame_step_s",
    "decoder.rank_s",
    "lexicon.successors_s",
    "scorers.word_delta_s",
    "decoder.finish_s",
    "decoder.log10_rows_s",
    "corpus.read_logits_s",
    "metrics.rates_s",
)


def trace_table(traced: dict[str, dict]) -> list[str]:
    names = list(traced)
    lines = [
        "| per-layer metric | unit | " + " | ".join(names) + " |",
        "| --- | --- |" + " ---: |" * len(names),
    ]
    phase = {w: sum(traced[w]["metrics"][n]["value"] for n in PHASE_LAYERS) for w in names}
    for m in BENCHMARK["per_layer"]:
        cells = []
        for w in names:
            value = traced[w]["metrics"][m["name"]]["value"]
            share = f" ({100 * value / phase[w]:.1f}%)" if m["name"] in PHASE_LAYERS else ""
            cells.append(f"{value:.4g}{share}")
        lines.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    runs = {w: [] for w in args.workloads}
    for workload in args.workloads:
        for seed in args.seeds:
            result = run(workload, seed, args.seconds, 0)
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        print("\n".join(summary(workload, runs[workload])) + "\n")

    traced = {}
    if args.trace_seed is not None:
        for workload in args.workloads:
            traced[workload] = run(workload, args.trace_seed, args.seconds, 1)
        print("\n".join(trace_table(traced)))

    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"runs": runs, "traced": traced}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
