"""One workload process: caps, set-up, then a closed loop of jobs.

Started by ``run.py`` in a fresh interpreter per run, so every ``lru_cache`` of
reesmult starts empty.  One client: each job starts when the previous one ends.
In ``cli`` this process runs one child process at a time.

Modes:
  setup     set up and exit (``run.py`` repeats set-up to report its median)
  timed     run jobs for ``--seconds`` (at least MIN_JOBS), untraced
  replay    run exactly the first ``--jobs`` jobs, traced with ``--trace 1``
  cli-child run one cli job in-process through ``cli.main(argv)``, traced

Set-up is the interpreter, ``import reesmult``, generating the first
PREFIX_JOBS inputs (which the loop then uses) and loading the pinned digests.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import signal
import subprocess
import sys
import time

import jobs
import tracer

MEMORY_CAP_MB = 1024  # address-space cap of every workload process and cli child
MEMORY_CAP_REASON = f"memory cap {MEMORY_CAP_MB} MB"
JOB_CAP_S = {"facets": 10.0, "verify": 30.0, "cli": 30.0}
MIN_JOBS = 100  # so at least 10 samples lie beyond the 90th percentile
# The first jobs of a workload: ``--trace 1`` replays them, and peak memory is
# read once they are done, so a faster commit that runs more jobs (and so meets
# rarer, larger inputs) is not charged for it.  In verify they cover every
# (theorem, subject, lambda) once.
PREFIX_JOBS = {"facets": 2000, "verify": 100, "cli": 100}
# A timed loop that has not done MIN_JOBS by ``--seconds`` goes on for at most
# this much longer, and then fails the run rather than report fewer jobs.
OVERRUN_S = 60.0
SETUP_SLICES = 5  # host slices right after set-up, outside the timed loop
SLICE_REF_S = 3.5e-3  # host_slice()'s typical time on the baseline's host


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM; a BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def cap_memory():
    limit = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def host_slice():
    """Time one fixed slice of integer-tuple work, like FM's row combinations.
    The collector is off, so the size of the workload's heap does not count."""
    gc.disable()
    t0 = time.perf_counter()
    rows = [tuple((i * 7 + j * 13) % 11 - 5 for j in range(6)) for i in range(40)]
    out = set()
    for a in rows:
        for b in rows:
            v = tuple(x * b[0] - y * a[0] for x, y in zip(a, b))
            g = math.gcd(*v)
            out.add(tuple(e // g for e in v) if g > 1 else v)
    sorted(out)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def host_start():
    """Time one bare interpreter start and exit: the part of a cli job that
    is the host's, not reesmult's."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


# Host speed: workload -> (probe, loop time between probes, the probe's
# typical time in seconds on the host that measured the README baseline).
# The probe is independent of reesmult; its times are recorded next to the
# run and left out of the loop's elapsed time.  A slow host slows interpreter
# start-up, which is most of a cli job, less than it slows the pure-Python
# arithmetic of the in-process jobs, so each is scaled by its own probe.
HOST_PROBES = {
    "facets": (host_slice, 0.2, SLICE_REF_S),
    "verify": (host_slice, 0.2, SLICE_REF_S),
    "cli": (host_start, 1.0, 55e-3),
}


def run_in_process(rm, workload, job, pins, i, cap_s):
    """Run one job with a time cap; returns its record."""
    # Handlers only set ``reason``: while a MemoryError is being handled, its
    # traceback still holds the job's memory, so the record is built after.
    reason = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        text, result = jobs.run(rm, workload, job)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        reason = f"time cap {cap_s} s"
    except MemoryError:
        reason = MEMORY_CAP_REASON
    except Exception as exc:  # the loop must go on; the job counts as failed
        reason = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    if reason is not None:
        return _failed(i, wall, reason)
    return _finish(i, wall, text, jobs.check(workload, job, result), pins)


def run_cli(job, pins, i, cap_s, traced=False):
    """Run one cli job in a child process; returns its record (and trace)."""
    argv, _ = job
    if traced:
        cmd = [sys.executable, __file__, "--workload", "cli", "--mode", "cli-child",
               "--argv", json.dumps(argv)]
    else:
        cmd = [sys.executable, "-m", "reesmult", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=cap_s)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return _failed(i, time.perf_counter() - t0, f"time cap {cap_s} s"), None
    wall = time.perf_counter() - t0
    trace = None
    code, stdout = proc.returncode, proc.stdout.decode("utf-8")
    if traced and code == 0:
        child = json.loads(stdout)
        code, stdout, trace = child["code"], child["stdout"], child["trace"]
    if proc.returncode < 0 or b"MemoryError" in proc.stderr:
        return _failed(i, wall, f"{MEMORY_CAP_REASON} or signal: child exit "
                                f"{proc.returncode}"), None
    rec = _finish(i, wall, stdout, jobs.check_cli(job, code, stdout), pins)
    rec["stdout_bytes"] = len(stdout.encode("utf-8"))
    return rec, trace


def _failed(i, wall, reason):
    return {"i": i, "wall": wall, "ok": False, "reason": reason, "digest": None}


def _finish(i, wall, text, problem, pins):
    d = jobs.digest(text)
    if problem is None and i in pins and pins[i] != d:
        problem = f"digest {d} differs from pinned {pins[i]}"
    return {"i": i, "wall": wall, "ok": problem is None, "reason": problem, "digest": d}


def loop(workload, seed, rm, pins, inputs=(), *, seconds=None, count=None,
         traced=False):
    """Closed loop: run jobs until the time is up (and MIN_JOBS are done) or
    ``count`` jobs are done.  ``inputs`` are the first jobs, generated during
    set-up.  Returns the records, the elapsed time less the host probes, the
    host probe times, the peak RSS in KiB over the first PREFIX_JOBS jobs and,
    for cli, child traces."""
    cap_s = JOB_CAP_S[workload]
    # for cli the memory that counts is the largest child's
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_kb = None
    signal.signal(signal.SIGALRM, _on_alarm)
    records, child_traces, probes = [], [], []
    start = time.perf_counter()
    probe, every, _ = HOST_PROBES[workload]
    probed = 0.0  # time spent in host probes
    next_probe = every
    hard_stop = None if count is not None else seconds + OVERRUN_S
    i = 0
    while True:
        now = time.perf_counter() - start
        if count is not None:
            if i >= count:
                break
        elif now >= seconds and i >= MIN_JOBS:
            break
        if hard_stop is not None and now >= hard_stop:
            raise SystemExit(f"{workload}: only {i} jobs in {now:.0f} s, "
                            f"fewer than the {MIN_JOBS} a run needs")
        cap = cap_s if hard_stop is None else min(cap_s, hard_stop - now)
        job = inputs[i] if i < len(inputs) else jobs.job(workload, seed, i)
        if workload == "cli":
            rec, trace = run_cli(job, pins, i, cap, traced)
            if trace is not None:
                child_traces.append((i, rec["stdout_bytes"], trace))
        else:
            rec = run_in_process(rm, workload, job, pins, i, cap)
        if not rec["ok"]:
            rec["job"] = jobs.describe(job)
        records.append(rec)
        i += 1
        if i == PREFIX_JOBS[workload]:
            rss_kb = resource.getrusage(who).ru_maxrss
        if time.perf_counter() - start - probed >= next_probe:
            probes.append(probe())
            probed += probes[-1]
            next_probe += every
    elapsed = time.perf_counter() - start - probed
    if rss_kb is None:
        rss_kb = resource.getrusage(who).ru_maxrss
    return records, elapsed, probes, rss_kb, child_traces


def cli_child(argv):
    """Replay one cli job in this fresh process, traced; print the outcome."""
    import reesmult.cli

    tr = tracer.Tracer()
    tr.install()

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = reesmult.cli.main(argv)
    json.dump({"code": code, "stdout": out.getvalue(), "trace": tr.record()}, sys.stdout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=jobs.PINNED_SEED)
    parser.add_argument("--mode", choices=("setup", "timed", "replay", "cli-child"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=MIN_JOBS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--argv", help="cli-child: the job's argv as JSON")
    parser.add_argument("--out", help="where to write the result JSON")
    args = parser.parse_args()

    cap_memory()
    if args.mode == "cli-child":
        cli_child(json.loads(args.argv))
        return
    import reesmult as rm

    inputs = [jobs.job(args.workload, args.seed, i) for i in range(PREFIX_JOBS[args.workload])]
    pins = jobs.pinned_digests(args.workload, args.seed)
    ready = time.monotonic()
    # the host's speed right after set-up, to scale this set-up's time by
    result = {"ready": ready, "setup_slices": [host_slice() for _ in range(SETUP_SLICES)]}
    if args.mode != "setup":
        tr = None
        if args.trace and args.workload != "cli":
            tr = tracer.Tracer()
            tr.install()
        cpu0 = time.process_time()
        records, elapsed, probes, rss_kb, child_traces = loop(
            args.workload, args.seed, rm, pins, inputs,
            seconds=args.seconds if args.mode == "timed" else None,
            count=args.jobs if args.mode == "replay" else None,
            traced=bool(args.trace))
        result.update(
            records=records,
            elapsed=elapsed,
            host_probes=probes,
            cpu_s=time.process_time() - cpu0,
            children_cpu_s=_children_cpu(),
            peak_rss_kb=rss_kb,
        )
        if tr is not None:
            result["traces"] = [tr.record()]
        elif child_traces:
            result["traces"] = [t for _, _, t in child_traces]
            result["cli_jobs"] = [(i, nbytes) for i, nbytes, _ in child_traces]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


if __name__ == "__main__":
    main()
