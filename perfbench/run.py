"""reesmult benchmark: closed-loop workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload facets --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` in a fresh process
and prints the end-to-end metrics, with times scaled to a reference host
speed measured alongside (see worker.HOST_PROBES); set-up is repeated in
further fresh processes and reported as a median.  ``--trace 1`` replays the workload's
first jobs untraced, traced and untraced again, each in a fresh process, and
prints the per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes a record with per-job digests (and spans, when traced) under
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# set-up-only processes before and after the timed one (whose set-up counts
# too), so the median of set-up spans the run rather than one moment of it
SETUP_REPEATS = 6
# every worker of a run ends by then, or the run fails: so it ends within 180 s
RUN_BUDGET_S = 170
_deadline = time.monotonic() + RUN_BUDGET_S
# the longest --seconds a timed run honours: the loop may overrun it by
# worker.OVERRUN_S to reach MIN_JOBS, and the set-ups must still fit the budget
MAX_SECONDS = 50
# metric name -> unit, as BENCHMARK.json declares them
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
}


def _worker(root, out_dir, workload, seed, mode, tag, timeout=None, **extra):
    """Run one worker process to completion; returns (its result, spawn time).
    It must end within ``timeout`` seconds, by default the run's budget."""
    if timeout is None:
        timeout = _deadline - time.monotonic()
    out = out_dir / f"{workload}-seed{seed}-{tag}.worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REESMULT_")}
    env["PYTHONPATH"] = str(root / "src")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:  # killed and reaped by subprocess.run
        raise SystemExit(f"worker {mode} for {workload} did not end in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"worker {mode} for {workload} exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    out.unlink()
    return result, spawned


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _job_times(records, cap_s):
    """Wall time per job; a failed job counts as at least its time cap, so it
    sorts as slower than any success."""
    return [r["wall"] if r["ok"] else max(r["wall"], cap_s) for r in records]


def _host():
    sha = "unknown"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"python": platform.python_version(), "git_sha": sha, "nproc": os.cpu_count()}


def _slowdown(times, ref_s):
    """How much slower than on the reference host a probe ran."""
    return statistics.mean(times) / ref_s


def _setup(res, spawned):
    """(set-up time, the host's slowdown right after it) of one worker."""
    return res["ready"] - spawned, _slowdown(res["setup_slices"], worker.SLICE_REF_S)


def _setup_only(root, out_dir, args, count):
    return [_setup(*_worker(root, out_dir, args.workload, args.seed, "setup", "setup"))
            for _ in range(count)]


def timed_run(root, out_dir, args):
    setups = _setup_only(root, out_dir, args, SETUP_REPEATS)
    res, spawned = _worker(root, out_dir, args.workload, args.seed, "timed", "timed",
                           seconds=args.seconds)
    setups.append(_setup(res, spawned))
    setups += _setup_only(root, out_dir, args, SETUP_REPEATS)
    records = res["records"]
    ok = [r for r in records if r["ok"]]
    times = _job_times(records, worker.JOB_CAP_S[args.workload])
    raw = {
        "jobs_per_s": len(ok) / res["elapsed"],
        "job_p50_ms": _percentile(times, 0.5) * 1e3,
        "job_p90_ms": _percentile(times, 0.9) * 1e3,
        "setup_s": statistics.median(t for t, _ in setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    # how much slower than the reference the host ran the loop (and each
    # set-up): times are divided by it and the rate multiplied
    slow = _slowdown(res["host_probes"], worker.HOST_PROBES[args.workload][2])
    metrics = dict(raw, jobs_per_s=raw["jobs_per_s"] * slow,
                   job_p50_ms=raw["job_p50_ms"] / slow, job_p90_ms=raw["job_p90_ms"] / slow,
                   setup_s=statistics.median(t / s for t, s in setups))
    samples = {"jobs_per_s": len(records), "job_p50_ms": len(records),
               "job_p90_ms": len(records), "setup_s": len(setups),
               "peak_rss_mb": min(len(records), worker.PREFIX_JOBS[args.workload])}
    failed_frac = (len(records) - len(ok)) / len(records)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": 0, **_host(),
        "wall_s": res["elapsed"], "cpu_s": res["cpu_s"],
        "children_cpu_s": res["children_cpu_s"], "host_slowdown": slow,
        "host_probes_s": res["host_probes"], "setup_samples": setups,
        "metrics": metrics, "raw_metrics": raw, "failed_frac": failed_frac,
        "jobs": [[r["i"], r["digest"], r["wall"]] for r in records],
        "failures": [r for r in records if not r["ok"]],
    }
    _write(out_dir / f"{args.workload}-seed{args.seed}-trace0.json", record)
    print(f"{args.workload} seed {args.seed}: {len(records)} jobs in {res['elapsed']:.2f} s "
          f"wall, {res['cpu_s'] + res['children_cpu_s']:.2f} s cpu; host slowdown "
          f"{slow:.3f} over {len(res['host_probes'])} probes")
    print(f"  {'metric':<12} {'at ref speed':>12} {'unit':<4} {'samples':<9} {'as timed':>12}")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {UNITS[name]:<4} {'n=' + str(samples[name]):<9} "
              f"{raw[name]:12.4f}")
    print(f"  {'failed_frac':<12} {failed_frac:12.4f} {'':<4} (n={len(records)})")
    return records, {name: {"value": v, "unit": UNITS[name]}
                     for name, v in metrics.items()}


def traced_run(root, out_dir, args):
    # untraced, traced, untraced: the mean of the two untraced replays cancels
    # a host whose speed drifts linearly over the run
    n = worker.PREFIX_JOBS[args.workload]
    runs = [_worker(root, out_dir, args.workload, args.seed, "replay", f"replay{k}",
                    jobs=n, trace=trace)[0]
            for k, trace in enumerate((0, 1, 0))]
    traced = runs[1]
    records = traced["records"]
    plain = [runs[0]["records"], runs[2]["records"]]
    for b, *untraced in zip(records, *plain):
        for a in untraced:
            if a["digest"] != b["digest"] and b["ok"]:
                b["ok"] = False
                b["reason"] = f"traced digest {b['digest']} differs from untraced {a['digest']}"
    # a cli job's start-up is its untraced child's wall time minus cli.main
    plain_wall = {a["i"]: (a["wall"] + c["wall"]) / 2 for a, c in zip(*plain)}
    cli_jobs = [(plain_wall[i], nbytes, k)
                for k, (i, nbytes) in enumerate(traced.get("cli_jobs", ()))]
    metrics = tracer.summarize(traced["traces"], cli_jobs)
    base = sum(plain_wall.values())
    metrics["trace.overhead_frac"] = sum(r["wall"] for r in records) / base - 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1, **_host(),
        "jobs_replayed": n,
        "wall_s": [r["elapsed"] for r in runs],
        "cpu_s": [r["cpu_s"] + r["children_cpu_s"] for r in runs],
        "metrics": metrics,
        "jobs": [[r["i"], r["digest"], r["wall"]] for r in records],
        "failures": [r for r in records if not r["ok"]],
    }
    _write(out_dir / f"{args.workload}-seed{args.seed}-trace1.json", record)
    _write(out_dir / f"{args.workload}-seed{args.seed}-spans.json",
           {"fields": ["name", "parent", "start", "end", "cache_miss"],
            "traces": [t["spans"] for t in traced["traces"]]})
    print(f"{args.workload} seed {args.seed}: replays of {n} jobs, "
          f"untraced / traced / untraced: "
          + " / ".join(f"{r['elapsed']:.2f} s" for r in runs))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.4f} {UNITS[name]}")
    return records, {name: {"value": v, "unit": UNITS[name]}
                     for name, v in metrics.items()}


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=jobs.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS}")

    root = Path.cwd()
    if not (root / "src" / "reesmult" / "__init__.py").is_file():
        sys.exit("perfbench: run from the root of a reesmult checkout (no src/reesmult here)")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    run = traced_run if args.trace else timed_run
    records, metrics = run(root, out_dir, args)
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"  FAILED job {r['i']}: {r['reason']}: {r.get('job', '')}")
    # a job that hit a cap failed, but gave no wrong output
    wrong = [r for r in failed if not r["reason"].startswith(("time cap", "memory cap"))]
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
