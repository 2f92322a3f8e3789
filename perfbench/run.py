#!/usr/bin/env python3
"""End-to-end benchmark of the profiler: builds the driver optimized, runs one
workload, checks its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload serve_16t --seed 1 --seconds 25 --trace 0

Run it from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it, each
starting with '#', give the provenance and a readable report.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones.  The
exit code is 0 only when every operation and every check passed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("serve_16t", "fold_128t", "tenants_churn")
# The tail percentile the report names; a run must leave ten samples beyond it.
TAIL = "95"
# Share of the traced pass's wall time that may fall outside every layer span
# (the driver's own loop and bookkeeping) before the trace counts as broken.
TRACE_TOLERANCE = 0.02
# Layers whose self time the traced run reports: span name -> metric name.
LAYERS = {
    "serve": "serve.s",
    "fold": "fold.s",
    "tick": "tick.s",
    "build_full": "whole_run.build_full_s",
    "export.flush": "export.flush_s",
    "export.parse": "export.parse_s",
}
COUNT_METRICS = (
    "dsm.accesses", "dsm.object_faults", "dsm.intervals", "dsm.oal_entries",
    "net.oal_bytes", "net.object_bytes", "net.migration_bytes",
    "ingest.arenas", "ingest.entries", "ingest.backpressure", "ingest.dropped",
    "fold.entries",
    "governor.rate_changes", "governor.tighten", "governor.backoff",
    "governor.rearm", "governor.resampled_objects",
    "migration.executed", "migration.deferred",
    "retention.objects", "retention.readers", "retention.dropped",
    "arbiter.borrowers", "arbiter.lenders",
    "export.snapshot_bytes", "export.timeline_bytes",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs,
              "--target", "perfbench_driver"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return build_dir / "perfbench_driver"


def provenance(root, result):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "none"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "git_sha": sha,
        "workload": result["workload"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "shape": result["shape"],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_passes(result, traced):
    """(pass, speed factor) for each timed pass of the given kind.  Pass j is
    bracketed by host-speed probes j and j + 1; pass 0 is the warm-up."""
    speed = result["host_speed"]
    return [(p, analysis.speed_factor(speed[j], speed[j + 1]))
            for j, p in enumerate(result["passes"])
            if p["traced"] == traced and not p["warmup"]]


def end_to_end(result):
    passes = timed_passes(result, traced=False)
    epochs = [ms * f for p, f in passes for ms in p["epoch_ms"]]
    tail = analysis.tail_percentile(len(epochs))
    if tail is None or float(tail) < float(TAIL):
        raise ValueError(f"{len(epochs)} epochs leave fewer than "
                         f"{analysis.MIN_BEYOND} samples beyond p{TAIL}")
    raw_ns = [p["wall_s"] * 1e9 / p["counts"]["dsm.accesses"] for p, _f in passes]
    setups = [x * f for p, f in passes for x in p["extra_setup_s"] + [p["setup_s"]]]
    metrics = {
        "access_ns": metric(analysis.median(
            [ns * f for ns, (_p, f) in zip(raw_ns, passes)]), "ns"),
        "epoch_p50_ms": metric(analysis.percentile(epochs, "50"), "ms"),
        f"epoch_p{TAIL}_ms": metric(analysis.percentile(epochs, TAIL), "ms"),
        "setup_s": metric(analysis.median(setups), "s"),
        "peak_rss_mb": metric(
            (result["peak_rss_kb"] - result["baseline_rss_kb"]) / 1024.0, "MiB"),
        "overhead_frac": metric(result["overhead_frac"], "fraction"),
        "map_accuracy": metric(1.0 - result["map_error"], "fraction"),
    }
    raw_epochs = [ms for p, _f in passes for ms in p["epoch_ms"]]
    notes = [f"epoch samples {len(epochs)} over {len(passes)} passes "
             f"(highest percentile with >= {analysis.MIN_BEYOND} beyond: p{tail})",
             f"setup samples {len(setups)}",
             f"host speed factor median {analysis.median([f for _p, f in passes]):.4f}"
             f" (times below are at the reference speed; as measured: access_ns "
             f"{analysis.median(raw_ns):.6g}, epoch_p50_ms "
             f"{analysis.percentile(raw_epochs, '50'):.6g}, epoch_p{TAIL}_ms "
             f"{analysis.percentile(raw_epochs, TAIL):.6g})",
             f"peak resident {result['peak_rss_kb'] / 1024:.1f} MiB, of which "
             f"{result['baseline_rss_kb'] / 1024:.1f} MiB before the first pass",
             f"map_error {result['map_error']:.6g} (map_accuracy = 1 - map_error)"]
    return metrics, notes


def per_layer(result, spans):
    traced = [i for i, p in enumerate(result["passes"]) if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"] and not p["warmup"]]
    if not traced or not untraced:
        raise ValueError("a traced run needs traced and untraced passes")
    # Per traced pass: each layer's self time from its own spans.  Parent
    # links in spans.json index the whole file; re-index them per pass.
    by_pass = {i: [] for i in traced}
    index = {}
    for pass_id, name, start, end, parent, _epoch in spans:
        local = by_pass[pass_id]
        index[len(index)] = (pass_id, len(local))
        local.append((name, start, end,
                      index[parent][1] if parent >= 0 else -1))
    selfs = {i: analysis.self_times(by_pass[i]) for i in traced}
    walls = {i: sum(e - s for n, s, e, p in by_pass[i] if p < 0) for i in traced}

    def self_s(span):
        return analysis.median([selfs[i].get(span, 0) / 1e9 for i in traced])

    # Counts repeat exactly in every pass; a layer a workload leaves idle has
    # no entry and reads 0.
    counts = result["passes"][traced[0]]["counts"]

    def count(name):
        return counts.get(name, 0)

    def program_s(name):
        return analysis.median([result["passes"][i]["program_s"].get(name, 0.0)
                                for i in traced])

    wall_s = analysis.median([walls[i] / 1e9 for i in traced])
    metrics = {}
    for span, name in LAYERS.items():
        metrics[name] = metric(self_s(span), "s")
    for span in ("serve", "fold", "tick"):
        metrics[f"{span}.share"] = metric(self_s(span) / wall_s, "fraction")
    for name in COUNT_METRICS:
        metrics[name] = metric(count(name),
                               "bytes" if name.endswith("_bytes") else "count")
    accesses = count("dsm.accesses")
    entries = count("fold.entries")
    metrics["serve.ns_per_access"] = metric(self_s("serve") * 1e9 / accesses, "ns")
    metrics["dsm.sampled_frac"] = metric(count("dsm.oal_entries") / accesses,
                                         "fraction")
    metrics["fold.ns_per_entry"] = metric(
        self_s("fold") * 1e9 / entries if entries else 0.0, "ns")
    for name in ("tick.build_s", "tick.densify_s", "tick.migration_s",
                 "arbiter.decision_s"):
        metrics[name] = metric(program_s(name), "s")
    suggested = count("migration.suggested")
    metrics["migration.executed_frac"] = metric(
        count("migration.executed") / suggested if suggested else 0.0, "fraction")
    clustered = result["shape"]["tenants"] > 1
    metrics["cluster.round_s"] = metric(self_s("tick") if clustered else 0.0, "s")
    def scaled_wall(traced_side):
        return analysis.median([p["wall_s"] * f
                                for p, f in timed_passes(result, traced_side)])
    metrics["trace.overhead_frac"] = metric(
        scaled_wall(True) / scaled_wall(False) - 1.0, "fraction")
    unattributed = self_s("pass") / wall_s
    metrics["trace.unattributed_frac"] = metric(unattributed, "fraction")
    lines = [f"{'layer':<22}{'self s':>12}{'share':>9}"]
    for span in list(LAYERS) + ["pass"]:
        label = "(driver loop)" if span == "pass" else span
        lines.append(f"{label:<22}{self_s(span):>12.6f}"
                     f"{self_s(span) / wall_s:>9.2%}")
    lines.append(f"{'traced pass wall':<22}{wall_s:>12.6f}   "
                 f"({len(traced)} traced, {len(untraced)} untraced passes)")
    ok = unattributed <= TRACE_TOLERANCE
    if not ok:
        lines.append(f"self times leave {unattributed:.2%} of the wall time "
                     f"unattributed (tolerance {TRACE_TOLERANCE:.0%})")
    return metrics, lines, ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = pathlib.Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    driver = build(build_dir)
    if driver is None:
        return 1
    out_dir = build_dir / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("result.json", "spans.json"):
        (out_dir / stale).unlink(missing_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stderr=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1
    sys.stderr.write(proc.stderr)
    result_path = out_dir / "result.json"
    if not result_path.exists():
        log(f"perfbench: driver exited {proc.returncode} without a result")
        return 1
    result = json.loads(result_path.read_text())

    prov = provenance(root, result)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    correct = proc.returncode == 0 and result["failed"] == 0
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    try:
        if args.trace:
            spans = json.loads((out_dir / "spans.json").read_text())
            metrics, lines, trace_ok = per_layer(result, spans)
            correct = correct and trace_ok
        else:
            metrics, lines = end_to_end(result)
    except ValueError as err:
        log(f"perfbench: {err}")
        return 1
    analysis.check_metrics(metrics)
    for line in lines:
        print(f"# {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    share = analysis.failure_share(result["attempted"], result["failed"])
    print(f"# operations: {result['attempted']} governed epochs attempted, "
          f"{result['failed']} failed ({share:.2%})")
    (out_dir / "report.json").write_text(json.dumps(
        {"provenance": prov, "correct": correct, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
