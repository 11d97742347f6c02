"""One process of a benchmark run: set up a workload, then run its jobs.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --out FILE
        [--setup-only] [--trace] [--deadline SECONDS] [--no-hash-check]

Set-up is importing `algebroids` from the checkout's `src/` and writing the
seeded input files into DIR.  Then every job of the workload runs in turn,
each under a time limit from `signal.setitimer`.  A job's time covers
producing its report; the oracle and the report hash are checked after the
clock stops.  The result, one JSON object, is written to FILE.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HASHES_PATH = os.path.join(BENCH_DIR, "hashes_seed0.json")

# a job that runs longer than this has hung; the slowest takes 10-20 s
JOB_LIMIT_S = 60.0


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def setup(workload, seed, workdir):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import algebroids  # noqa: F401  (import time is part of set-up)
    import algebroids.cli  # noqa: F401
    from workloads import build

    files, jobs = build(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    return files, jobs


def _run_job(job, files, workdir):
    """Produce the job's report through the public entry point."""
    import algebroids
    kind = job["kind"]
    if kind == "cli":
        argv = [os.path.join(workdir, a) if a in files else a for a in job["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = algebroids.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        return json.loads(text) if text.lstrip().startswith("{") else text.splitlines()
    if kind == "fibre":
        from algebroids.derivations import quasi_homogeneous_weights, tangent_derivations
        from algebroids.liealg import fibre_lie_algebra
        from algebroids.pipeline import parse_input
        with open(os.path.join(workdir, job["file"])) as fh:
            spec = parse_input(fh.read())
        weights = spec.weights
        if weights is None and len(spec.gens) == 1:
            found = quasi_homogeneous_weights(spec.gens[0])
            weights = found[0] if found else None
        dm = tangent_derivations(spec.ideal(weights))
        algebra, _basis = fibre_lie_algebra(dm, require_origin=dm.all_vanish_at_origin())
        return {"fibre_algebra": algebra.to_json(), "fingerprint": algebra.fingerprint()}
    if kind == "decompose":
        from algebroids.repmod import binary_form_rep, decompose_sl2, sym_power_rep
        dec = decompose_sl2(sym_power_rep(binary_form_rep(job["d"]), job["n"]))
        return {str(e): m for e, m in sorted(dec.items())}
    if kind == "graded_pieces":
        from algebroids.hilbert import graded_pieces_series
        from algebroids.pipeline import parse_input
        with open(os.path.join(workdir, job["file"])) as fh:
            spec = parse_input(fh.read())
        return graded_pieces_series(spec.ideal(), "ring", depth=job["depth"]).to_json()
    raise ValueError(f"unknown job kind {kind!r}")


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_digest(job, files):
    """sha256 of everything the job reads: its arguments and its input files."""
    args = {k: v for k, v in job.items() if k not in ("id", "check", "facts")}
    names = [job["file"]] if "file" in job else [a for a in job.get("argv", []) if a in files]
    return hashlib.sha256(_canonical([args, [files[n] for n in names]]).encode()).hexdigest()


def report_hash(report, fields):
    """sha256 over the canonical JSON of the report restricted to `fields`
    (the top-level keys the report had when the hashes were recorded)."""
    if fields is not None:
        report = {k: report.get(k) for k in fields}
    return hashlib.sha256(_canonical(report).encode()).hexdigest()


def _load_hashes():
    with open(HASHES_PATH) as fh:
        return json.load(fh)["jobs"]


def run_jobs(files, jobs, workdir, deadline, tracer=None, check_hashes=True):
    import algebroids
    import oracles

    known = _load_hashes() if check_hashes else {}
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    wall = cpu = 0.0
    end_by = time.monotonic() + deadline
    for job in jobs:
        entry = {"id": job["id"], "ok": False, "seconds": None, "error": None}
        results.append(entry)
        limit = min(JOB_LIMIT_S, end_by - time.monotonic())
        if limit <= 0:
            entry["error"] = "not started: the run's time budget is spent"
            continue
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if tracer is not None:
                tracer.job = job["id"]
                tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            report = _run_job(job, files, workdir)
            entry["seconds"] = time.perf_counter() - t0
            wall += entry["seconds"]
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            oracles.CHECKS[job["check"]](report, job["facts"], algebroids)
            fields = sorted(report) if isinstance(report, dict) else None
            digest = input_digest(job, files)
            stored = known.get(job["id"])
            if stored is not None and stored["input"] == digest:
                fields = stored["fields"]
                if report_hash(report, fields) != stored["sha256"]:
                    raise oracles.OracleError("report hash differs from the recorded one")
            entry["hash"] = {"input": digest, "fields": fields,
                             "sha256": report_hash(report, fields)}
            entry["ok"] = True
        except JobTimeout:
            entry["error"] = f"time limit of {limit:.0f} s exceeded"
        except Exception as exc:  # a failed job is counted, the run goes on
            entry["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.active = False
    return wall, cpu, results


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--deadline", type=float, default=150.0)
    ap.add_argument("--no-hash-check", action="store_true")
    args = ap.parse_args(argv)

    files, jobs = setup(args.workload, args.seed, args.workdir)
    result = {}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        wall, cpu, jobs_out = run_jobs(files, jobs, args.workdir, args.deadline, tracer,
                                       check_hashes=not args.no_hash_check)
        result = {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "jobs": jobs_out,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["job_layers"] = {j["id"]: tracer.self_times(j["id"]) for j in jobs}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
