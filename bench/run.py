"""fisherqp benchmark: CLI workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The checkout's own ``src/`` is measured:
every child runs with ``PYTHONPATH=<checkout>/src`` and the benchmark
refuses to report if ``fisherqp`` resolves anywhere else.

--trace 0 (end to end).  Five import-only spawns give ``setup_s``.  Then
one closed-loop client runs the workload's operations in sequence, each a
``python -m fisherqp.cli <command> --input ... --out ...`` process, and
repeats the whole batch while another batch still fits in S seconds (at
least once).  Resources come from ``os.wait4`` per child.  Per batch:
``wall_s`` from the first spawn to the last exit, ``cpu_s`` the children's
user+system time, ``peak_rss_mb`` the largest ``ru_maxrss`` of one child.
Reported values are medians over batches; ``pass_frac`` counts the
operations that exited 0 with ``overall_pass`` and met their reference.

--trace 1 (per layer).  The same operations run in one process through
``fisherqp.cli.main``, once plain and once with every layer's public
functions wrapped (see ``inprocess.py``).  Per-layer numbers come from the
traced batch; ``trace.overhead_frac`` is traced over plain batch wall - 1.

Every run checks each operation's outputs against references and against
its recorded expected verdict.  ``failed`` counts operations whose outcome
is worse than expected; ``correct`` is true when there are none.  The last
stdout line is the JSON result; the lines before it give every metric by
name and unit (including ``fail_frac`` = 1 - pass_frac), the per-operation
outcomes and the environment.  A copy goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fisherqp"
OUT = BENCH / "out"

SETUP_SPAWNS = 5
RUN_LIMIT_S = 170.0   # hard stop for any child, counted from the start of the run
# the files of src/fisherqp at the seed; loc.total counts whatever is there
LOC_MODULES = ("__init__", "cli", "errors", "extremizers", "functionals", "grid",
               "legendre", "propagator", "reports", "serialization", "states", "thermal")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PROBE = """
import json, sys
import numpy, scipy, fisherqp
deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
print(json.dumps({
    "fisherqp_file": fisherqp.__file__,
    "fisherqp_version": fisherqp.__version__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": deps.get("blas", {}).get("openblas configuration")
            or deps.get("blas", {}).get("name"),
}))
"""


class Refused(Exception):
    """The run cannot measure this checkout; no result is printed."""


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


class Child:
    """One finished child process with its own resource usage (from wait4)."""

    def __init__(self, code, wall_s, usage):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0   # Linux reports KiB
        self.minflt = usage.ru_minflt


def spawn(argv, env, cwd, deadline, stdout=subprocess.DEVNULL, stderr=None) -> Child:
    """Run argv to completion, reaping it with os.wait4 so the rusage is this
    child's alone; kill it if it outlives the run's deadline."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)

    def kill():
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:   # interrupted: never leave the child running
        kill()
        with contextlib.suppress(ChildProcessError):
            os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe(env, work, deadline) -> dict:
    """Versions and the resolved package; refuse if it is not this checkout's."""
    path = work / "probe.json"
    with open(path, "w") as fh:
        child = spawn([sys.executable, "-c", PROBE], env, work, deadline, stdout=fh,
                      stderr=subprocess.DEVNULL)
    if child.code != 0:
        raise Refused(f"cannot import fisherqp from {SRC}")
    info = json.loads(path.read_text())
    if Path(info["fisherqp_file"]).resolve().parent != PACKAGE.resolve():
        raise Refused(f"fisherqp resolves to {info['fisherqp_file']}, not {PACKAGE}")
    return info


def environment(info: dict) -> dict:
    commit = None   # a checkout without git history records only src_sha256
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        **info,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# operations and their outcomes
# ---------------------------------------------------------------------------


def prepare(ops, work) -> list:
    """Write each operation's input file; return (op, input path, out dir)."""
    planned = []
    for op in ops:
        inp = work / f"{op.label}.json"
        inp.write_text(json.dumps(op.payload, sort_keys=True))
        planned.append((op, inp, work / op.label))
    return planned


def outcome(op, code, out) -> dict:
    """Classify one finished operation against its reference and its expected
    verdict.  'unexpected' outcomes are the benchmark's failures."""
    problems = []
    report = {}
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"report.json missing or invalid ({exc})")
    failing = sorted(c["name"] for c in report.get("checks", []) if not c.get("pass"))
    passed = code == 0 and report.get("overall_pass") is True
    if report:
        problems += op.reference(out, report)
    if passed and not problems:
        status = "fixed" if op.known_fail else "pass"
    elif (op.known_fail and not problems and code == 3 and failing
          and set(failing) <= set(op.known_fail)):
        status = "known-fail"
    else:
        status = "unexpected"
    checks = report.get("checks", [])
    return {"label": op.label, "exit": code, "status": status, "failing": failing,
            "problems": problems[:5], "checks": len(checks),
            "flagged": sum(1 for c in checks if c.get("flagged"))}


def reset(planned) -> None:
    for _, _, out in planned:
        shutil.rmtree(out, ignore_errors=True)


def cli_batch(planned, env, work, deadline) -> dict:
    """One closed-loop pass over the operations, each its own CLI process."""
    reset(planned)
    children = []
    start = time.perf_counter()
    for op, inp, out in planned:
        with open(work / "stderr.log", "ab") as err:
            children.append(spawn(
                [sys.executable, "-m", "fisherqp.cli", op.command,
                 "--input", str(inp), "--out", str(out)],
                env, work, deadline, stderr=err))
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.maxrss_mb for c in children),
        "outcomes": [dict(outcome(op, c.code, out), wall_s=c.wall_s)
                     for (op, _, out), c in zip(planned, children)],
    }


def inprocess_batch(planned, env, work, deadline, traced: bool):
    """The operations in one process via fisherqp.cli.main (see inprocess.py)."""
    reset(planned)
    plan = work / "plan.json"
    plan.write_text(json.dumps({
        "package_dir": str(PACKAGE),
        "operations": [{"argv": [op.command, "--input", str(inp), "--out", str(out)]}
                       for op, inp, out in planned],
    }))
    result_path = work / ("traced.json" if traced else "plain.json")
    argv = [sys.executable, str(BENCH / "inprocess.py"), str(plan), str(result_path)]
    spans_path = work / "spans.json"
    if traced:
        argv += ["--trace", str(spans_path)]
    with open(work / "stderr.log", "ab") as err:
        child = spawn(argv, env, work, deadline, stderr=err)
    if child.code != 0:
        raise Refused(f"in-process run exited {child.code}; see {work / 'stderr.log'}")
    result = json.loads(result_path.read_text())
    result["child"] = child
    result["outcomes"] = [outcome(op, code, out)
                          for (op, _, out), code in zip(planned, result["exit_codes"])]
    return result, (spans_path if traced else None)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def median_of(batches, key):
    return statistics.median(b[key] for b in batches)


def end_to_end(planned, env, work, seconds, deadline):
    setup = [spawn([sys.executable, "-c", "import fisherqp.cli"], env, work, deadline).wall_s
             for _ in range(SETUP_SPAWNS)]
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(cli_batch(planned, env, work, deadline))
        elapsed = time.perf_counter() - start
        if elapsed + median_of(batches, "wall_s") > seconds:
            break
    outcomes = [o for b in batches for o in b["outcomes"]]
    passed = sum(o["status"] in ("pass", "fixed") for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (median_of(batches, "wall_s"), "s"),
        "cpu_s": (median_of(batches, "cpu_s"), "s"),
        "peak_rss_mb": (median_of(batches, "peak_rss_mb"), "MB"),
        "pass_frac": (passed / len(outcomes), "frac"),
    }
    detail = {"batches": len(batches), "setup_spawns_s": setup,
              "batch_wall_s": [b["wall_s"] for b in batches],
              "fail_frac": 1.0 - passed / len(outcomes)}
    return metrics, outcomes, detail


def lines_of_code() -> dict:
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts


def traced(planned, env, work, deadline, spans_dest):
    plain, _ = inprocess_batch(planned, env, work, deadline, traced=False)
    trace, spans = inprocess_batch(planned, env, work, deadline, traced=True)
    shutil.move(spans, spans_dest)
    metrics = {name: tuple(value) for name, value in trace["metrics"].items()}
    outcomes = trace["outcomes"]
    metrics.update({
        "cli.import_s": (plain["import_s"], "s"),
        "reports.checks": (sum(o["checks"] for o in outcomes), "count"),
        "reports.checks_failed": (sum(len(o["failing"]) for o in outcomes), "count"),
        "reports.flagged": (sum(o["flagged"] for o in outcomes), "count"),
        "proc.minflt": (plain["child"].minflt, "count"),
        "trace.overhead_frac": (trace["wall_s"] / plain["wall_s"] - 1.0, "frac"),
    })
    loc = lines_of_code()
    for module in LOC_MODULES:
        metrics[f"loc.{module}"] = (loc.get(module, 0), "lines")
    metrics["loc.total"] = (sum(loc.values()), "lines")
    detail = {"absent": trace["absent"], "hook_errors": trace["hook_errors"],
              "plain_wall_s": plain["wall_s"], "traced_wall_s": trace["wall_s"],
              "spans_file": str(spans_dest.relative_to(ROOT))}
    return metrics, plain["outcomes"] + outcomes, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def run(args) -> dict:
    if not (PACKAGE / "cli.py").is_file():
        raise Refused(f"no fisherqp package at {PACKAGE}")
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = run_stem(args)
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    try:
        env = child_env()
        env_info = environment(probe(env, work, deadline))
        planned = prepare(workloads.build(args.workload, args.seed), work)
        if args.trace:
            metrics, outcomes, detail = traced(planned, env, work, deadline,
                                               OUT / f"spans-{stem}.json")
        else:
            metrics, outcomes, detail = end_to_end(planned, env, work, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(o["status"] == "unexpected" for o in outcomes)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env_info, "detail": detail,
        "expected": {op.label: {"known_fail": list(op.known_fail), "why": op.why_fail}
                     for op, _, _ in planned if op.known_fail},
        "operations": outcomes,
        "result": {
            "correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def show(record: dict) -> None:
    for name, m in record["result"]["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    if "fail_frac" in record["detail"]:
        print(f"{'fail_frac':32s} {record['detail']['fail_frac']:>16.6g} frac")
    seen = collections.Counter(
        (o["label"], o["status"], json.dumps(o["failing"]), json.dumps(o["problems"]))
        for o in record["operations"])
    for (label, status, failing, problems), n in seen.items():
        print(f"op {label:20s} x{n} {status} failing={failing} problems={problems}")
    print("detail " + json.dumps(record["detail"], sort_keys=True))
    print("env " + json.dumps(record["environment"], sort_keys=True))


def check_names(record: dict) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]}
    printed = set(record["result"]["metrics"])
    if declared != printed:
        raise Refused(f"metrics differ from BENCHMARK.json: {sorted(declared ^ printed)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
        check_names(record)
    except Refused as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    (OUT / f"result-{run_stem(args)}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    show(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
