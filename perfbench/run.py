"""jetdiff benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 60 --trace 0

Run from the root of a jetdiff source tree.  Each run launches the workload
process (perfbench/worker.py) a few times for set-up only, then once to run
the workload's jobs: one job at a time, a closed loop with one client.
Every report is checked (exit code, JSON schema, semantic checks, and at
the default seed the committed digest).  The last line of stdout is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import jsonschema

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "jetdiff")

sys.path.insert(0, HERE)
from jobs import DEFAULT_SEED, WORKLOADS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 10         # set-up-only launches, plus the measured one
RUN_LIMIT_S = 170          # a run must end within 180 s even if a job hangs
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")]


def _worker(mode: str, workload: str, seed: int, seconds: float, workdir: str,
            env: dict, deadline: float) -> tuple[float, dict | None, str]:
    """Launch one workload process; returns (launch time, summary, failure)."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
         str(seed), str(seconds), workdir],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - launched, 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return launched, None, f"workload process ran past the {RUN_LIMIT_S} s limit of a run"
    if proc.returncode != 0:
        return launched, None, f"workload process exited {proc.returncode}: {err.strip()[-2000:]}"
    return launched, json.loads(out.strip().splitlines()[-1]), ""


def _environment() -> dict:
    """Python version, CPU count, commit (when the tree is a git checkout), source digest."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def semantic_problem(argv: list[str], report: dict) -> str | None:
    """What is wrong with a report beyond its schema, or None."""
    command = argv[0]
    if command == "audit":
        if report["verdict"] != "pass" or not report["passed"]:
            return f"audit verdict {report['verdict']}"
    elif command == "solve":
        if not report["forced"] or "audit" in report:
            return "--force did not bypass the audit"
        dim = report["dimension"]
        if not dim == len(report["kernel"]) == len(report["certificates"]) <= report["columns"]:
            return "dimension, kernel and certificates disagree"
        option = {flag: int(argv[argv.index(flag) + 1]) for flag in ("--m", "--c", "--a")}
        # the two checks at infinity pass exactly when the section is
        # holomorphic there, a <= c - 4m; the affine checks always pass
        at_infinity = option["--a"] <= option["--c"] - 4 * option["--m"]
        expected = {"y_divisible": True, "surface_restriction_exact": True,
                    "infinity_exponents_ok": at_infinity,
                    "chart_transfer_verified": at_infinity}
        for cert in report["certificates"]:
            if cert["checks"] != expected:
                return f"certificate checks {cert['checks']}, expected {expected}"
    elif command == "verify":
        if not report["passed"] or not all(suite["passed"] for suite in report["suites"]):
            return "verification suite did not pass"
    return None


def check_attempts(summary: dict, workload: str, seed: int, workdir: str) -> list[str]:
    """One entry per failed job attempt; the first pass's reports are fully checked."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        digests = json.load(handle)[workload] if seed == DEFAULT_SEED else None
    failures = []
    for index, attempt in enumerate(summary["attempts"]):
        argv = attempt["argv"]
        if "error" in attempt:
            failures.append(f"{argv}: {attempt['error']}")
        elif attempt["code"] != 0:
            failures.append(f"{argv}: exit code {attempt['code']}")
        elif "sha256" in attempt:
            with open(os.path.join(workdir, f"report{index}.json"), encoding="utf-8") as handle:
                report = json.load(handle)
            with open(os.path.join(SRC, "schemas", f"{argv[0]}.schema.json"),
                      encoding="utf-8") as handle:
                schema = json.load(handle)
            problem = None
            try:
                jsonschema.validate(report, schema)
                problem = semantic_problem(argv, report)
            except (jsonschema.ValidationError, KeyError, TypeError) as exc:
                problem = f"schema: {exc}"
            if problem is None and digests is not None and attempt["sha256"] != digests[index]:
                problem = f"report sha256 {attempt['sha256']} differs from the committed digest"
            if problem:
                failures.append(f"{argv}: {problem}")
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the result object, and the workload process's summary
    (empty if it failed) with the list of failures."""
    env = {k: v for k, v in os.environ.items() if k != "JETDIFF_SEED"}
    env["PYTHONHASHSEED"] = "0"
    workdir = os.path.join(HERE, "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            launched, summary, failure = _worker("setup", workload, seed, 0, workdir, env,
                                                 deadline)
            if summary:
                setup.append(summary["first_job_at"] - launched)
        launched, summary, failure = _worker("trace" if trace else "run", workload, seed,
                                             seconds, workdir, env, deadline)
        if summary:
            setup.append(summary["first_job_at"] - launched)
            failures = check_attempts(summary, workload, seed, workdir)
            attempted = len(summary["attempts"])
            if trace:
                os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
                os.replace(os.path.join(workdir, "spans.json"),
                           os.path.join(HERE, "traces", f"{workload}-{seed}.json"))
        else:
            failures, attempted = [failure], len(WORKLOADS[workload][1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if summary and trace:
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    elif summary:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.fmean(summary["passes"]),
                  "peak_rss_mb": summary["peak_rss_kib"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = min(len(failures), attempted)
    result = {"correct": failed == 0 and bool(summary), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, dict(summary or {}, failures=failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"no jetdiff sources under {SRC}; run from a jetdiff source tree",
              file=sys.stderr)
        return 2
    result, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print("env " + json.dumps(_environment(), sort_keys=True))
    for problem in summary["failures"]:
        print(f"FAILED {problem}")
    if "passes" in summary:
        print(f"{args.workload} seed={args.seed}: untraced pass times (s) "
              + ", ".join(f"{t:.3f}" for t in summary["passes"])
              + (f"; traced pass {summary['traced_s']:.3f}" if args.trace else ""))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"error_rate = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
