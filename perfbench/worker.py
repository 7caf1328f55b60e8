"""The workload process: set up, then run the workload's jobs one at a time.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is `setup` (stop just before the first job), `run` (repeat passes over
the job list while another pass fits in SECONDS) or `trace` (one untraced
pass, then one traced pass).  A pass calls `jetdiff.cli.main` once per job,
in this process, with its report captured in memory.  The last line of
stdout is a JSON summary; the reports of the first pass are written to
WORKDIR for the parent to check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jetdiff.cli  # noqa: E402  (set-up cost is part of setup_s)

from jobs import write_inputs  # noqa: E402

JOB_TIME_LIMIT_S = 60


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIME_LIMIT_S} s")


def run_job(argv: list[str]) -> dict:
    """One CLI call; a traceback or a timeout becomes an `error` entry."""
    buffer = io.StringIO()
    result: dict = {"argv": argv}
    signal.setitimer(signal.ITIMER_REAL, JOB_TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(buffer):
            result["code"] = jetdiff.cli.main(argv)
    except Exception as exc:  # the job fails, the run goes on
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    result["report"] = buffer.getvalue()
    return result


def run_pass(jobs) -> tuple[float, list[dict]]:
    """Run the jobs in order, stopping at the first that fails."""
    start = time.perf_counter()
    results = []
    for job in jobs:
        results.append(run_job(job))
        if "error" in results[-1]:
            break
    return time.perf_counter() - start, results


def main() -> int:
    mode, workload, seed, seconds, workdir = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    jobs = write_inputs(workload, seed, workdir)
    summary: dict = {"first_job_at": time.monotonic()}
    if mode == "setup":
        print(json.dumps(summary))
        return 0
    signal.signal(signal.SIGALRM, _alarm)

    elapsed, first = run_pass(jobs)
    passes = [elapsed]
    digests = [hashlib.sha256(r["report"].encode()).hexdigest() for r in first]
    for index, result in enumerate(first):
        with open(os.path.join(workdir, f"report{index}.json"), "w", encoding="utf-8") as out:
            out.write(result.pop("report"))
    attempts = [dict(result, sha256=digest) for result, digest in zip(first, digests)]

    def repeat(results: list[dict]) -> None:
        # reports are deterministic: a later pass must reproduce every byte
        for result, digest in zip(results, digests):
            text = result.pop("report")
            if "error" not in result and hashlib.sha256(text.encode()).hexdigest() != digest:
                result["error"] = "report differs from the first pass"
            attempts.append(result)

    if mode == "run":
        while not any("error" in r for r in attempts) and \
                sum(passes) + sorted(passes)[len(passes) // 2] <= seconds:
            elapsed, results = run_pass(jobs)
            passes.append(elapsed)
            repeat(results)
        summary["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer
        with Tracer() as tracer:
            traced_elapsed, results = run_pass(jobs)
        report_bytes = sum(len(r["report"].encode()) for r in results)
        repeat(results)
        summary["traced_s"] = traced_elapsed
        summary["layers"] = tracer.metrics(report_bytes, traced_elapsed / elapsed)
        tracer.write_spans(os.path.join(workdir, "spans.json"))
    summary.update(passes=passes, attempts=attempts)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
