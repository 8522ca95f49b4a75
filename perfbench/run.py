#!/usr/bin/env python3
"""End-to-end benchmark of the ftb daemon (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign|recompose|query \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds ftb_served and the ftb_perf client
from the checkout's sources (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload against a daemon pinned to fixed CPUs,
checks every output, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("campaign", "recompose", "query")

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "query_p50_us": "us",
    "query_tail_us": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "service.submit_ack_ms": "ms",
    "fi.golden_ms": "ms",
    "fi.golden_instructions": "count",
    "fi.pool_spawn_ms": "ms",
    "fi.pool_teardown_ms": "ms",
    "campaign.exec_ms": "ms",
    "campaign.exec_us_per_experiment": "us",
    "campaign.experiments": "count",
    "campaign.masked_share": "share",
    "campaign.journal_flush_ms": "ms",
    "campaign.journal_flushes": "count",
    "campaign.journal_bytes": "bytes",
    "boundary.replay_ms": "ms",
    "boundary.replayed_experiments": "count",
    "boundary.save_ms": "ms",
    "boundary.artifact_bytes": "bytes",
    "service.publish_ms": "ms",
    "sections.carve_ms": "ms",
    "sections.record_ms": "ms",
    "sections.replayed_experiments": "count",
    "sections.compose_ms": "ms",
    "sections.save_ms": "ms",
    "sections.artifact_bytes": "bytes",
    "sections.dirty": "count",
    "sections.reused": "count",
    "campaign.cpu_ms_per_op": "ms",
    "service.loop_cpu_us_per_query": "us",
    "service.codec_us": "us",
    "boundary.predict_ns": "ns",
    "client.cpu_us_per_query": "us",
    "query.lateness_ms": "ms",
    "query.answered": "count",
    "query.busy": "count",
    "query.errors": "count",
    "trace.unaccounted_share": "share",
}

# Ops per run whose published artifacts are compared with an in-process
# reference of the same build, seed and override state.
REFERENCE_SAMPLE = {"campaign": 1, "recompose": 3}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def same_artifact(a, b):
    """Byte equality of two artifact files (missing files never match)."""
    return Path(a).is_file() and Path(b).is_file() and sha256_file(a) == sha256_file(b)


def emit(metrics, names):
    """The result object's metrics: exactly `names`, each with its unit."""
    return {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(target) if os.path.isabs(target) else ROOT / target


def build():
    """Configures (once) and builds the daemon, the client and the tests."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "ftb_served.cpp"
    ).is_file():
        raise SystemExit("perfbench: no ftb sources next to perfbench/; run it from a checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target",
         "ftb_served", "ftb_perf", "ftb_perf_tests"],
        check=True, stdout=sys.stderr,
    )
    return out


def cpu_layout():
    """Event loop, client, and two campaign-plane CPUs, from the CPUs this
    process may use; fewer than four are shared round-robin."""
    allowed = sorted(os.sched_getaffinity(0))
    return [allowed[i % len(allowed)] for i in range(4)], len(allowed)


def host_steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


class Checkout:
    """Paths and tools of one built checkout."""

    def __init__(self, out):
        self.perf = out / "ftb_perf"
        self.served = out / "ftb" / "tools" / "ftb_served"
        self.tests = out / "ftb_perf_tests"
        digest = hashlib.sha256()
        for binary in (self.perf, self.served):
            digest.update(binary.read_bytes())
        self.build_id = digest.hexdigest()[:16]
        # Caches are keyed by build: a rebuilt program starts empty.
        self.state = ROOT / ".bench_state" / self.build_id
        self.env = dict(os.environ, FTB_THREADS="2", FTB_CACHE_DIR="off")

    def perf_cmd(self, *args, timeout=150):
        """Runs ftb_perf in its own process group; on a timeout the whole
        group (the client, its daemon and the daemon's workers) is killed
        and reaped before the error propagates."""
        proc = subprocess.Popen([str(self.perf), *args], env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)

    def fixtures(self):
        path = self.state / "fixtures"
        if not path.is_dir():
            tmp = self.state / "fixtures.tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            self.perf_cmd("fixtures", "--out", str(tmp))
            tmp.rename(path)
        return path

    def reference(self, workload, seed, overrides=""):
        """In-process reference outputs of one op, cached by build, workload
        parameters and seed."""
        tag = hashlib.sha256(overrides.encode()).hexdigest()[:16]
        path = self.state / "ref" / f"{workload}-{seed}-{tag}"
        if not path.is_dir():
            tmp = path.with_name(path.name + ".tmp")
            shutil.rmtree(tmp, ignore_errors=True)
            args = ["reference", "--workload", workload, "--seed", str(seed), "--out", str(tmp)]
            if overrides:
                args += ["--overrides", overrides]
            self.perf_cmd(*args)
            for journal in tmp.glob("*.clog"):  # only the artifacts are compared
                journal.unlink()
            tmp.rename(path)
        return path


def check_references(co, workload, seed, results, work):
    """Byte-compares a seeded sample of published artifacts with references."""
    errors = []
    ok_ops = [op for op in results["ops"] if op["ok"]]
    sample = random.Random(seed).sample(ok_ops, min(REFERENCE_SAMPLE.get(workload, 0), len(ok_ops)))
    for op in sample:
        ref = co.reference(workload, op["seed"], op["overrides"])
        exts = [".boundary"] + ([".compose"] if workload == "recompose" else [])
        for ext in exts:
            if not same_artifact(ref / (op["key"] + ext), work / "ops" / f"{op['index']}{ext}"):
                errors.append(f"op {op['index']}: published {ext} differs from the in-process reference")
    return errors, len(sample)


def canary_digests(workload, results, work, fixtures):
    if workload == "query":
        digests = {"reply_digest": results["canary"]["reply_digest"]}
        for path in sorted(fixtures.glob("*.boundary")):
            digests[path.name] = sha256_file(path)
        return digests
    digests = {"boundary_sha256": sha256_file(work / "canary.boundary")}
    if workload == "recompose":
        digests["compose_sha256"] = sha256_file(work / "canary.compose")
    return digests


def check_counts(co, workload, seed, trace, results):
    """Counts of one seed must repeat exactly across runs of one build."""
    path = co.state / "counts" / f"{workload}-{seed}.json"
    record = json.loads(path.read_text()) if path.is_file() else {"ops": {}, "trace": {}}
    current = {
        "ops": {str(op["index"]): op["counts"] for op in results["ops"] if op["ok"]},
        "trace": {
            ("queries" if c.startswith("queries") else f"replica-{i}"): c
            for i, c in enumerate(results["trace_counts"])
        } if trace else {},
    }
    current["ops"]["canary"] = results["canary"].get("counts", results["canary"].get("reply_digest"))
    errors = []
    for part in ("ops", "trace"):
        for key, counts in current[part].items():
            seen = record[part].get(key)
            if seen is not None and seen != counts:
                errors.append(f"{part} {key} counts differ from an earlier run of seed {seed}: {counts} != {seen}")
            record[part].setdefault(key, counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return errors


def layer_table(results):
    """Per-layer table of the traced run: self time per op, counts, ratios."""
    layers = results["layers"]
    rows = [("layer metric", "value", "unit")]
    for name, unit in PER_LAYER.items():
        rows.append((name, f"{layers[name]:.6g}", unit))
    self_ms = layers["replica.op_ms"] - layers["replica.traced_ms"]
    rows.append(("replica self time (not in a layer span)", f"{self_ms:.6g}", "ms"))
    experiments = layers["campaign.experiments"]
    if experiments:
        rows.append(("ratio exec_us_per_experiment = exec_ms / experiments",
                     f"{layers['campaign.exec_ms']:.6g} / {experiments:.0f}", ""))
        rows.append(("ratio masked_share = masked / experiments",
                     f"{layers['campaign.masked_share'] * experiments:.0f} / {experiments:.0f}", ""))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{a:<{width}}  {b:>16}  {c}" for a, b, c in rows)


def run(args):
    out = build()
    co = Checkout(out)
    fixtures = co.fixtures()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpus, cpu_count = cpu_layout()
    steal_start = host_steal_ticks()
    results_path = work / "results.json"
    drive = ["drive", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--served", str(co.served),
             "--work", str(work), "--fixtures", str(fixtures),
             "--cpus", ",".join(map(str, cpus)), "--out", str(results_path)]
    if args.trace:
        drive.append("--trace")
    co.perf_cmd(*drive)
    results = json.loads(results_path.read_text())

    errors = list(results["check_errors"])
    ref_errors, referenced = check_references(co, args.workload, args.seed, results, work)
    errors += ref_errors
    canary = canary_digests(args.workload, results, work, fixtures)
    canary_file = BENCH_DIR / "canary.json"
    committed = json.loads(canary_file.read_text()) if canary_file.is_file() else {}
    if args.record_canary:
        committed[args.workload] = canary
        canary_file.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
    elif committed.get(args.workload) != canary:
        errors.append(f"canary artifacts differ from perfbench/canary.json: {canary}")
    errors += check_counts(co, args.workload, args.seed, args.trace, results)

    for op in results["ops"]:
        budget = f" budget={op['budget']:.0f}" if op["budget"] else ""
        print(f"op {op['index']} {op['key']} ok={int(op['ok'])} {op['op_ms']:.3f} ms{budget} "
              f"{op['counts']}{' error=' + op['error'] if op['error'] else ''}")
    if args.trace:
        print(layer_table(results))
        for line in results["trace_counts"]:
            print(f"trace counts: {line}")
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "build": co.build_id,
        "cpus": cpu_count, "cpu_layout": cpus,
        "host_steal_ticks": host_steal_ticks() - steal_start,
        "misplaced_threads": results["misplaced_threads"],
        "phase_s": results["phase_s"], "quiet": results["quiet"], "ops": len(results["ops"]),
        "queries": results["queries_answered"], "references_checked": referenced,
        "setup_s_samples": results["setup_s"], "check_errors": errors,
    }))
    for error in errors:
        log("check failed:", error)
    metrics = results["layers"] if args.trace else results["e2e"]
    print(json.dumps({
        "correct": not errors,
        "attempted": int(results["attempted"]),
        "failed": int(results["failed"]),
        "metrics": emit(metrics, PER_LAYER if args.trace else END_TO_END),
    }))


def self_test():
    out = build()
    co = Checkout(out)
    subprocess.run([str(co.tests)], check=True, stdout=sys.stderr)
    subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", str(BENCH_DIR / "tests"), "-v"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit tests and self-checks")
    parser.add_argument("--record-canary", action="store_true",
                        help="store this run's canary digests in perfbench/canary.json")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
