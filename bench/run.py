"""Benchmark of the algebroids library and CLI.  Stdlib only.

    python3 bench/run.py --workload {fibre,sl2-length,graded-series}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  One run:

1. times SETUP_REPEATS fresh processes that each start the interpreter,
   import `algebroids` from `src/` and write the seeded input files
   (`setup_s` is their median);
2. runs the workload's jobs one after another in a fresh process (a closed
   loop with one client): one pass, or round(S / NOMINAL_PASS_S) passes when
   a pass is shorter than S, each in its own process (`wall_s` and
   `peak_rss_mb` are medians over the passes);
3. with --trace 1, runs one more pass with the outside-in tracer installed
   and reports the per-layer metrics of that pass instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A job fails if it raises, exits nonzero, runs out of time, or its answer is
rejected by its oracle or, for inputs recorded in hashes_seed0.json, by its
report hash.  `--record-hashes` rewrites that file from a seed-0 pass.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_REPEATS = 7
RUN_BUDGET_S = 170.0   # a run must end within 180 s
# typical wall time of one pass at the seed commit on a 2-core VM (it moves
# by a quarter either way with the host); a run makes round(seconds /
# nominal) passes, at least one
NOMINAL_PASS_S = {"fibre": 23.0, "sl2-length": 15.0, "graded-series": 30.0}


def _worker(workload, seed, workdir, out, extra, timeout):
    """Run one worker process; returns (seconds, result dict or None, error)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--out", out] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, f"worker exceeded {timeout:.0f} s"
    finally:
        if proc.poll() is None:   # timed out, or this process was interrupted
            proc.kill()
            proc.communicate()
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        return seconds, None, f"worker exit {proc.returncode}: {err.decode()[-2000:]}"
    with open(out) as fh:
        return seconds, json.load(fh), None


def _pass(args, workdir, index, extra, started):
    remaining = RUN_BUDGET_S - (time.perf_counter() - started)
    sub = os.path.join(workdir, f"pass{index}")
    _, result, error = _worker(args.workload, args.seed, sub, sub + ".json",
                               extra + ["--deadline", f"{max(remaining - 10, 1):.1f}"],
                               timeout=max(remaining, 1))
    if error is not None:
        print(error, file=sys.stderr)
    return result


def run(args, workdir):
    started = time.perf_counter()
    from workloads import build
    njobs = len(build(args.workload, args.seed)[1])

    setups = []
    for i in range(SETUP_REPEATS):
        sub = os.path.join(workdir, f"setup{i}")
        seconds, _, error = _worker(args.workload, args.seed, sub, sub + ".json",
                                    ["--setup-only"], timeout=60)
        if error is not None:
            raise SystemExit(f"set-up failed: {error}")
        setups.append(seconds)

    extra = ["--no-hash-check"] if args.record_hashes else []
    passes = []
    attempted = failed = 0
    for _ in range(max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))):
        result = _pass(args, workdir, len(passes), extra, started)
        attempted += njobs
        if result is None:
            failed += njobs
            break
        passes.append(result)
        bad = [j for j in result["jobs"] if not j["ok"]]
        failed += len(bad)
        for j in bad:
            print(f"FAILED {j['id']}: {j['error']}", file=sys.stderr)

    traced = None
    if args.trace and passes:
        traced = _pass(args, workdir, len(passes), extra + ["--trace"], started)
        attempted += njobs
        if traced is None:
            failed += njobs
        else:
            bad = [j for j in traced["jobs"] if not j["ok"]]
            failed += len(bad)
            for j in bad:
                print(f"FAILED (traced) {j['id']}: {j['error']}", file=sys.stderr)

    if args.record_hashes and passes:
        record = {"seed": args.seed, "jobs": {}}
        path = os.path.join(BENCH_DIR, "hashes_seed0.json")
        if os.path.exists(path):
            with open(path) as fh:
                record = json.load(fh)
        for j in passes[0]["jobs"]:
            if j["ok"]:
                record["jobs"][j["id"]] = j["hash"]
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for label, p in [(f"pass {i}", p) for i, p in enumerate(passes)] + [("traced", traced)]:
        if p is None:
            continue
        print(f"{label}: {p['wall_s']:.3f} s", file=sys.stderr)
        for j in p["jobs"]:
            if j["seconds"] is None:
                continue
            line = f"  {j['id']:<28} {j['seconds']:8.3f} s"
            if "job_layers" in p:
                top = sorted(p["job_layers"][j["id"]].items(), key=lambda kv: -kv[1])[:3]
                line += "  " + ", ".join(f"{k} {v / j['seconds']:.0%}" for k, v in top)
            print(line, file=sys.stderr)

    metrics = {}
    if not args.trace:
        if passes:
            metrics["wall_s"] = {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                                      "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    elif traced is not None:
        from tracer import metric_names
        layers = dict(traced["layers"])
        layers["process.cpu_s"] = traced["cpu_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(p["wall_s"] for p in passes)
        units = dict(metric_names())
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in metric_names()}
    return {"correct": failed == 0 and bool(passes), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-hashes", action="store_true",
                    help="rewrite hashes_seed0.json from this run (seed 0 only)")
    args = ap.parse_args(argv)
    if args.record_hashes and args.seed != 0:
        ap.error("--record-hashes needs --seed 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "algebroids", "__init__.py")):
        print(f"no algebroids sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
