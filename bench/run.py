"""Benchmark polmod's command line on a fixed set of workloads.

    python3 bench/run.py --workload ell3-closure --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; polmod is imported from src/.
One run:

1. untraced runs time set-up (a fresh interpreter importing polmod and
   building the workload's jobs, fixtures included) SETUP_PROBES times;
2. runs whole passes over the workload's jobs through polmod.cli.main,
   one job at a time in this process, while the next pass still fits in
   --seconds (always at least one pass), and checks every document;
3. prints one JSON line describing the host and the code, then, as the
   last line, {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are wall_s (median pass), setup_s (median
probe) and peak_rss_mb. With --trace 1 untraced and traced passes
alternate and the metrics are per-layer self times and counters (medians
over traced passes) plus the tracing overhead. The full record, spans
included, goes to bench/out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def require_sources():
    if not (SRC / "polmod" / "__init__.py").is_file():
        raise SystemExit("bench: no polmod sources under %s; run from a source checkout" % SRC)


def import_polmod():
    """Import polmod from this checkout's src/, and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import polmod
    import polmod.cli.main

    if Path(polmod.__file__).resolve().parent != (SRC / "polmod").resolve():
        raise SystemExit("bench: imported polmod from %s, not from %s" % (polmod.__file__, SRC))
    return polmod


def setup_probe(workload, seed):
    """Child side of a set-up probe: import, build the jobs, say ready."""
    import_polmod()
    workloads.build(workload, seed, ROOT)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def time_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its jobs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise SystemExit("bench: set-up probe failed (exit %s): %s" % (proc.returncode, err.strip()))
        times.append(elapsed)
    return statistics.median(times), times


def run_job(main, job):
    """(exit code, stdout, stderr, seconds) of one polmod command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(job["argv"])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code = "crash: %r" % exc
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def judge(job, code, stdout):
    """(attempted, failed, problem) for one job's outcome.

    A verify job counts each replayed table check as one operation. An
    operation fails when polmod gives no document; a document that breaks
    a check makes the run incorrect.
    """
    ops = job["expect"]["checks"] if job["mode"] == "verify" else 1
    # verify exits 2 on a mismatch and still prints its document
    if code != 0 and not (code == 2 and job["mode"] == "verify"):
        return ops, ops, None
    try:
        doc = json.loads(stdout)
        checks.check_document(job["mode"], doc, job["expect"])
    except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
        return ops, 0, "%s: %s" % (type(exc).__name__, exc)
    return ops, 0, None


def one_pass(main, jobs, tracer=None):
    """Run every job once; returns (wall seconds, outcome per job)."""
    wall = 0.0
    outcomes = []
    for index, job in enumerate(jobs):
        if tracer is None:
            code, stdout, stderr, elapsed = run_job(main, job)
        else:
            code, stdout, stderr, elapsed = tracing.job_span(tracer, index, job["mode"], run_job, main, job)
        wall += elapsed
        attempted, failed, problem = judge(job, code, stdout)
        outcomes.append(
            {
                "argv": job["argv"],
                "seconds": elapsed,
                "exit": code,
                "bytes": len(stdout.encode()),
                "attempted": attempted,
                "failed": failed,
                "problem": problem,
                "stderr": stderr[-2000:] if failed else "",
            }
        )
    return wall, outcomes


def source_digest():
    """sha256 over polmod's sources and fixtures, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "polmod").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(polmod):
    from polmod import rationals

    return {
        "qq_backend": rationals.QQ.__name__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(jobs, main, seconds, trace):
    """Run passes for up to `seconds`; returns (passes, tracer)."""
    tracer = tracing.Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.pass_index = len(passes)
            uninstall = tracing.install(tracer)
        try:
            wall, outcomes = one_pass(main, jobs, tracer if traced else None)
        finally:
            if traced:
                uninstall()
        passes.append({"traced": traced, "wall_s": wall, "jobs": outcomes})
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        enough = not trace or any(p["traced"] for p in passes)
        if enough and elapsed + per_pass > seconds:
            return passes, tracer


def layer_metrics(passes, tracer):
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    traced_wall = statistics.median(passes[i]["wall_s"] for i in traced)
    per_pass = []
    for i in traced:
        values = {"%s.s" % layer: t for layer, t in tracer.self_times(i).items()}
        values.update({name: tracer.counters[i][name] for name in tracing.COUNTER_NAMES})
        values["render.bytes"] = sum(job["bytes"] for job in passes[i]["jobs"])
        per_pass.append(values)
    # counts repeat exactly from pass to pass; median_low keeps them whole
    med = {
        name: (statistics.median if name.endswith(".s") else statistics.median_low)(v[name] for v in per_pass)
        for name in per_pass[0]
    }
    units = {"render.bytes": "B"}
    out = {}
    for name, value in sorted(med.items()):
        out[name] = metric(value, "s" if name.endswith(".s") else units.get(name, "count"))
    dim_per_s = med["closure.dim"] / med["closure.s"] if med["closure.s"] else 0.0
    out["closure.dim_per_s"] = metric(dim_per_s, "1/s")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - statistics.median(plain), "s")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    require_sources()
    # set-up is an end-to-end metric, so traced runs skip it
    setup_s, setup_samples = (None, []) if args.trace else time_setup(args.workload, args.seed)
    polmod = import_polmod()
    jobs = workloads.build(args.workload, args.seed, ROOT)
    passes, tracer = measure(jobs, polmod.cli.main.main, args.seconds, args.trace)

    attempted = sum(j["attempted"] for p in passes for j in p["jobs"])
    failed = sum(j["failed"] for p in passes for j in p["jobs"])
    problems = [j["problem"] for p in passes for j in p["jobs"] if j["problem"]]
    if args.trace:
        metrics = layer_metrics(passes, tracer)
    else:
        metrics = {
            "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(polmod),
        "setup_samples_s": setup_samples,
        "passes": passes,
        "problems": problems,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        record["untraced_entry_points"] = tracer.missing
        record["spans"] = tracer.to_json()
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({"environment": record["environment"], "passes": len(passes), "problems": problems[:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
