#!/usr/bin/env python3
"""Build perfbench and run one workload for a fixed amount of work.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest|query|churn --seed N \
        --seconds S --trace 0|1

A run is a fixed number of repetitions, each a fresh perfbench process
doing a fixed amount of work: S divided by the workload's nominal
repetition time (REP_SECONDS, measured on a 2-CPU machine), at least three,
and fewer only on a machine so slow that S seconds pass first.
Repetition i uses the seed N*1000+i, so a run samples several inputs and
the same N gives the same inputs. Every metric is the median over the
repetitions, latency percentiles included (each repetition's percentile
has at least ten requests beyond it): one repetition that meets a burst of
contention from outside then moves no metric. With --trace 0 the last line
holds the end-to-end metrics of BENCHMARK.json. With --trace 1 traced and
untraced repetitions alternate in pairs on the same seed; the last line
holds the per-layer metrics (medians of the traced repetitions), the
tracing overhead is the untraced over the traced throughput, and the spans
of the last traced repetition are kept in .bench_build/spans-<workload>.jsonl.
The output of the last repetition of the reported kind is printed first.

Everything the run builds or writes stays under .bench_build/ in the
repository root. The program exits non-zero, without a result line, when
the build fails, and with a result line marked not correct when a
repetition gives a wrong answer or fails a request.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
MIN_REPS = 3
# Seconds one repetition takes on a 2-CPU machine, set-up and process
# start included.
REP_SECONDS = {"ingest": 4.0, "query": 5.8, "churn": 3.6}
# On a machine slower than that, a run stops starting repetitions once S
# seconds have passed since the build, and a repetition is killed when it
# would end later than LIMIT_S, so a run stays within three minutes.
LIMIT_S = 165


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    res = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        sys.exit("perfbench: build failed")


def run_rep(workload, seed, traced, index, timeout):
    rundir = os.path.join(BUILD, "run", f"{workload}-{os.getpid()}-{index}")
    shutil.rmtree(rundir, ignore_errors=True)
    cmd = [BIN, "-workload", workload, "-seed", str(seed), "-dir", rundir]
    if traced:
        cmd.append("-trace")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             timeout=timeout, env=go_env())
        spans = os.path.join(rundir, "spans.jsonl")
        if traced and os.path.exists(spans):
            # Keep the latest traced repetition's spans for inspection.
            os.replace(spans, os.path.join(BUILD, f"spans-{workload}.jsonl"))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: repetition {index} of {workload} killed after {timeout:.0f}s")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    lines = res.stdout.splitlines()
    rep = None
    if lines:
        try:
            rep = json.loads(lines[-1])
        except json.JSONDecodeError:
            rep = None
    if rep is None:
        sys.stderr.write(res.stdout + res.stderr)
        sys.exit(f"perfbench: repetition {index} of {workload} gave no result (exit {res.returncode})")
    return rep, "\n".join(lines[:-1]), res.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # BENCHMARK.json lists the workloads that gate a change; churn runs too
    # but is not listed (see PROVENANCE.md).
    if args.workload not in REP_SECONDS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} (want one of {sorted(REP_SECONDS)})")

    build()
    start = time.monotonic()
    planned = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    if args.trace == 1:
        planned += planned % 2  # whole traced/untraced pairs
    reps, texts = [], []
    for i in range(planned):
        elapsed = time.monotonic() - start
        if i >= MIN_REPS and elapsed >= args.seconds:
            sys.stderr.write(f"perfbench: stopped after {i} of {planned} repetitions ({elapsed:.0f}s)\n")
            break
        traced = args.trace == 1 and i % 2 == 0
        index = i // 2 if args.trace == 1 else i
        rep, text, err = run_rep(args.workload, args.seed * 1000 + index, traced, i,
                                 max(LIMIT_S - elapsed, 10))
        reps.append(rep)
        texts.append((traced, text))
        sys.stderr.write(err)
        if not rep["correct"]:
            break

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    shown = [t for tr, t in texts if tr == (args.trace == 1)][-1]
    print(shown)

    def e2e(rs):
        out = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = [r["metrics"].get(name, 0.0) for r in rs]
            count = len(vals)
            if name.endswith(("_p50_ms", "_p99_ms")):
                # The percentile of each repetition, so count the requests.
                phase = "write" if name.startswith("write") else "read"
                count = int(sum(r["info"].get(phase + "_requests", 0) for r in rs))
            out[name] = {"value": statistics.median(vals), "unit": m["unit"], "count": count}
        return out

    if args.trace == 0:
        metrics = e2e(reps)
        print(f"end-to-end ({args.workload}, seed {args.seed}, {len(reps)} repetitions, median of each):")
        for name, m in metrics.items():
            print(f"  {name:22s} {m['value']:14.6g} {m['unit']:10s} n={m['count']}")
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        # Not in BENCHMARK.json, which takes only metrics that are never 0.
        print(f"  {'failed_ratio':22s} {failed / attempted:14.6g} {'1':10s} n={attempted}")
    else:
        traced_e2e = e2e(traced_reps)
        plain_e2e = e2e(plain) if plain else {}
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.write_slowdown":
                key = "write_samples_per_s"
            elif name == "trace.query_slowdown":
                key = "queries_per_s"
            else:
                vals = [r["layers"].get(name, 0.0) for r in traced_reps]
                metrics[name] = {"value": statistics.median(vals), "unit": m["unit"], "count": len(vals)}
                continue
            t = traced_e2e[key]["value"]
            u = plain_e2e[key]["value"] if plain else 0.0
            metrics[name] = {"value": u / t if t else 0.0, "unit": m["unit"], "count": len(plain)}
            print(f"tracing overhead: {key} untraced {u:.6g} vs traced {t:.6g} ({len(plain)}/{len(traced_reps)} repetitions)")
        print(f"per-layer ({args.workload}, seed {args.seed}, {len(traced_reps)} traced repetitions):")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")

    # What the run reached (sizes, flushes, compactions, final series
    # count), so a later change can check it still exercises the same
    # mechanisms; perfbench/PROVENANCE.md records the values.
    info = {}
    for r in reps:
        for k, v in r["info"].items():
            info.setdefault(k, []).append(v)
    print("reached: " + " ".join(f"{k}={statistics.median(v):.6g}" for k, v in sorted(info.items())))

    correct = all(r["correct"] for r in reps)
    for r in reps:
        for p in r.get("problems") or []:
            print(f"FAIL: {p}")
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
