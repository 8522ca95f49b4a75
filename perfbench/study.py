#!/usr/bin/env python3
"""Steadiness study of the benchmark.

Runs every workload once per seed and reports, for each end-to-end metric
and each candidate tail percentile, the spread between the first and third
quartile of the runs as a share of their median (statistics.quantiles with
n=4), next to the host steal each run saw.  These spreads set the bounds in
BENCHMARK.json and the tail percentile of each workload (README.md).

    python3 perfbench/study.py --runs 10 --first-seed 1 --out perfbench/steadiness.json

A second invocation with --append adds another set of runs, so the medians
of two sets of the same code can be compared.  --report prints the table in
README.md from a saved study.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def one_run(workload, seed, seconds):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = json.loads(next(l for l in reversed(lines) if l.startswith("run "))[4:])
    detail = json.loads((ROOT / ".bench_work" / workload / "results.json").read_text())
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "tail_candidates": detail["tail_candidates"],
        "host_steal_ticks": info["host_steal_ticks"],
        "misplaced_threads": info["misplaced_threads"],
        "quiet": info["quiet"],
        "ops": info["ops"],
        "wall_s": time.monotonic() - started,
    }


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values)}
    for metric in ("op_tail_ms", "query_tail_us"):
        for cand in runs[0]["tail_candidates"][metric]:
            values = [r["tail_candidates"][metric].get(cand) for r in runs]
            if None in values:
                continue
            summary[f"{metric}@{cand}"] = {"median": statistics.median(values),
                                           "spread": spread(values)}
    return summary


def report(study, bounds):
    """Markdown table: per workload and metric, each set's median and spread,
    and the second set's median shift against the first."""
    sets = study["sets"]
    head = ["workload", "metric", "bound"]
    for i in range(len(sets)):
        head += [f"set {i + 1} median", f"set {i + 1} spread"]
    if len(sets) > 1:
        head.append("shift 2 vs 1")
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for workload in sets[0]["workloads"]:
        for metric, bound in bounds.items():
            row = [workload, metric, f"{bound:g}"]
            for one in sets:
                cell = one["workloads"][workload]["summary"][metric]
                row += [f"{cell['median']:.4g}", f"{cell['spread']:.3f}"]
            if len(sets) > 1:
                first = sets[0]["workloads"][workload]["summary"][metric]["median"]
                second = sets[1]["workloads"][workload]["summary"][metric]["median"]
                row.append(f"{(second - first) / first:+.3f}")
            lines.append("| " + " | ".join(row) + " |")
    steal = ["| workload | " + " | ".join(f"set {i + 1} host steal ticks per run (min / median / max)"
                                          for i in range(len(sets))) + " |",
             "|---|" + "---|" * len(sets)]
    for workload in sets[0]["workloads"]:
        cells = []
        for one in sets:
            ticks = sorted(r["host_steal_ticks"] for r in one["workloads"][workload]["runs"])
            cells.append(f"{ticks[0]} / {statistics.median(ticks):g} / {ticks[-1]}")
        steal.append(f"| {workload} | " + " | ".join(cells) + " |")
    return "\n".join(lines + [""] + steal)


def main():
    parser = argparse.ArgumentParser(description="benchmark steadiness study")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="campaign,recompose,query")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=None)
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--report", metavar="STUDY_JSON",
                        help="print the README table of a saved study and exit")
    args = parser.parse_args()
    if args.report:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        print(report(json.loads(Path(args.report).read_text()), bounds))
        return
    out = Path(args.out) if args.out else None
    study = json.loads(out.read_text()) if args.append and out and out.is_file() else {"sets": []}
    current = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, args.seconds))
            r = runs[-1]
            print(f"{workload} seed {seed}: steal {r['host_steal_ticks']} "
                  f"(quiet {r['quiet']['quiet_steal_per_s']:.3g}/s) ops {r['ops']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()), flush=True)
        summary = summarize(runs)
        current["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            print(f"  {workload:9s} {name:24s} median {s['median']:12.6g}  spread {s['spread']:.4f}",
                  flush=True)
    study["sets"].append(current)
    if out:
        out.write_text(json.dumps(study, indent=1) + "\n")


if __name__ == "__main__":
    main()
