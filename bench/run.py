"""Benchmark: time to reach MSE epsilon on `mlmc run` workloads.

    python3 bench/run.py --workload hs-dwr --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Run from the repository root.  Each run is a fresh interpreter (bench/worker.py)
that calls `adaptive_mlmc.cli.main(["run", ...])` into a scratch output
directory under `.bench_work/`; the benchmark then reads the run's
levels.csv, summary.csv and samples.csv.  `--seed n` selects the mlmc
seeds 3n, 3n+1 and 3n+2, which run in turn until `--seconds` is spent and
at least one of them has run twice.
BENCHMARK.json lists hs-dwr and adr-dwr.  A tb-meso run takes 15-30 s,
too long for a window to hold a run of each seed and a repeat; it is kept
here to be run by name.  So is adr-dwr-j2, the same runs on a pool of two
threads: on a shared two-core host its wall time measures how the host
schedules two GIL-bound threads more than it measures the package (its
spread over ten invocations reached 0.6 of the median), so the pool is
checked and traced through the --jobs 2 determinism run instead.

A run fails if the worker or `mlmc run` exits non-zero (2: not converged),
if |estimate - reference| > 3 sqrt(eps) against bench/references.json, or
if its artifacts differ from the first run of the same mlmc seed.  Each
invocation also checks, at a loose epsilon, that the advection-diffusion
workload writes the same artifacts with --jobs 1 and --jobs 2; the
--jobs 2 run is traced, so this also checks that tracing changes no
artifact and that self times stay non-negative on the pool.

--trace 0 reports the end-to-end metrics, each the mean over the three
seeds of the median of that seed's runs (setup_s: the median of all):
  time_to_eps_s  wall time of cli.main x max(1, total_variance / (eps/2)),
                 so a run that under-samples its variance target is charged
                 the extra samples it would need, at the reference machine
                 speed: x calibration.REFERENCE_S / the mean time of the
                 calibration kernel just before and after the run
  setup_s        fresh interpreter until adaptive_mlmc.cli is imported
  peak_rss_mb    ru_maxrss of the run process
--trace 1 alternates untraced and traced runs of seed 3n and reports the
per-layer metrics of bench/tracer.py; a layer a workload bypasses reports
0 calls and 0 s.  On the advection-diffusion workloads driver.pool_busy_ratio
comes from the traced --jobs 2 determinism run.  The last stdout line is the
JSON result; the line before it, prefixed "record: ", holds the environment
and every raw per-run value behind the medians, calibration times included.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

from calibration import REFERENCE_S

# This process imports neither numpy nor scipy: a child inherits the
# parent's resident size into its ru_maxrss, which peak_rss_mb reports.
BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
REFERENCES = BENCH_DIR / "references.json"
WORK_DIR = Path(".bench_work")
ARTIFACTS = ("levels.csv", "summary.csv", "samples.csv")
EXIT_OK, EXIT_NOT_CONVERGED = 0, 2  # `mlmc run` exit codes that write artifacts
SEEDS_PER_INVOCATION = 3
SETUP_PER_RUN = 2
TIME_LIMIT_S = 170  # a whole invocation, runs that hang included
REFERENCE_SIGMAS = 3.0
DETERMINISM_EPSILON = 5e-5
# The workloads use threads only through --jobs; pin BLAS pools to one thread.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    experiment: str
    refinement: str
    epsilon: float
    jobs: int

    def cli_args(self, seed, epsilon=None, jobs=None):
        return ["--experiment", self.experiment, "--refinement", self.refinement,
                "--epsilon", repr(epsilon or self.epsilon),
                "--jobs", str(jobs or self.jobs), "--seed", str(seed)]


WORKLOADS = {
    "hs-dwr": Workload("harmonic-standard", "dwr", 1e-3, 1),
    "tb-meso": Workload("two-body", "meso", 1e-3, 1),
    "adr-dwr": Workload("advection-diffusion-1d", "dwr", 2e-6, 1),
    "adr-dwr-j2": Workload("advection-diffusion-1d", "dwr", 2e-6, 2),
}
DETERMINISM_WORKLOAD = WORKLOADS["adr-dwr-j2"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------- environment

def _git_commit():
    """HEAD of the checkout's git metadata, if it has any (no git process)."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": _git_commit(),
            "seed": seed}


# ---------------------------------------------------------------- processes

def measure_setup():
    """Seconds from spawning an interpreter until adaptive_mlmc.cli is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "setup"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=CHILD_ENV)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=TIME_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"importing adaptive_mlmc.cli failed:\n{err[-2000:]}")
    return elapsed


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _artifact_hash(out_dir):
    digest = hashlib.sha256()
    for name in ARTIFACTS:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def run_once(args, trace, deadline):
    """One `mlmc run` in a fresh worker; returns its record.

    `ok` means the run converged; its artifacts are hashed whenever it
    wrote them, converged or not.
    """
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    out_dir = run_dir / "artifacts"
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(WORKER), "run", str(result_path), str(int(trace)),
           "--", *args, "--output-dir", str(out_dir)]
    record = {"traced": trace, "ok": False, "reason": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        record["reason"] = "timed out"
        return record
    finally:
        record["process_s"] = time.perf_counter() - start
    if proc.returncode != 0:
        record["reason"] = (f"worker exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-1500:]}")
        return record
    result = json.loads(result_path.read_text())
    record.update(wall_s=result["wall_s"], peak_rss_mb=result["peak_rss_mb"],
                  calibration_s=result["calibration_s"],
                  exit_code=result["exit_code"], trace=result["trace"])
    if result["exit_code"] not in (EXIT_OK, EXIT_NOT_CONVERGED):
        record["reason"] = f"mlmc run exited {result['exit_code']}"
        return record
    summary = _read_csv(out_dir / "summary.csv")[0]
    levels = _read_csv(out_dir / "levels.csv")
    samples = _read_csv(out_dir / "samples.csv")
    record.update(
        hash=_artifact_hash(out_dir),
        converged=summary["converged"] == "true",
        estimate=float(summary["estimate"]),
        total_variance=float(summary["total_variance"]),
        levels=[(int(r["elems"]), int(r["n_samples"])) for r in levels],
        sample_rows=len(samples),
        sample_failures=sum(r["status"] != "ok" for r in samples))
    shutil.rmtree(run_dir)
    if result["exit_code"] == EXIT_OK:
        record["ok"] = True
    else:
        record["reason"] = f"mlmc run exited {EXIT_NOT_CONVERGED} (not converged)"
    return record


# ---------------------------------------------------------------- checks

def check_run(record, workload, reference, first_hash):
    """Mark a completed run failed if it missed convergence, reference or hash."""
    if not record["ok"]:
        return
    tol = REFERENCE_SIGMAS * math.sqrt(workload.epsilon)
    if not record["converged"]:
        record["reason"] = "not converged"
    elif abs(record["estimate"] - reference) > tol:
        record["reason"] = (f"estimate {record['estimate']!r} differs from the "
                            f"reference {reference!r} by more than {tol:.3g}")
    elif first_hash is not None and record["hash"] != first_hash:
        record["reason"] = "artifacts differ from the first run of this seed"
    record["ok"] = record["reason"] is None


def check_jobs_determinism(seed, deadline):
    """--jobs 1 and traced --jobs 2 must write identical artifacts.

    Returns the problems found and the span aggregate of the --jobs 2 run.
    """
    runs = [run_once(DETERMINISM_WORKLOAD.cli_args(
        seed, epsilon=DETERMINISM_EPSILON, jobs=jobs), jobs == 2, deadline)
        for jobs in (1, 2)]
    for jobs, rec in zip((1, 2), runs):
        if "hash" not in rec:
            return [f"--jobs {jobs} determinism run failed: {rec['reason']}"], None
    problems = check_trace(runs[1]["trace"], DETERMINISM_WORKLOAD)
    if runs[0]["hash"] != runs[1]["hash"]:
        problems.append("artifacts differ between --jobs 1 and traced --jobs 2")
    return problems, runs[1]["trace"]


def check_trace(agg, workload):
    """Self times are non-negative; with one job they add up to the run."""
    spans = agg["spans"]
    problems = [f"{name} has a negative self time ({row['min_self_s']:.3g} s)"
                for name, row in spans.items() if row["min_self_s"] < -1e-9]
    if workload.jobs == 1:
        run_s = spans["driver.run"]["total_s"]
        covered = sum(row["self_s_by_root"].get("driver.run", 0.0)
                      for row in spans.values())
        if abs(covered - run_s) > 1e-6 * run_s:
            problems.append(f"self times sum to {covered!r} s, "
                            f"not driver.run_s = {run_s!r} s")
    return problems


# ---------------------------------------------------------------- metrics

def variance_ratio(record, workload):
    return record["total_variance"] / (0.5 * workload.epsilon)


def time_to_eps(record, workload):
    """Seconds to epsilon at the reference machine speed."""
    speed = REFERENCE_S / statistics.fmean(record["calibration_s"])
    return record["wall_s"] * max(1.0, variance_ratio(record, workload)) * speed


def pool_busy_ratio(spans, jobs):
    """Sum of take_sample time over jobs x the time fill spent on it."""
    return (spans["driver.take_sample"]["total_s"]
            / (jobs * spans["driver.fill"]["total_s"]))


def layer_metrics(traced, untraced_wall, workload, pool_trace):
    """Per-layer metrics from the traced runs (times: medians over them).

    `pool_trace` is the aggregate of the traced --jobs 2 determinism run,
    or None when the workload's own traced runs give the pool figures.
    """
    first = traced[0]
    spans = [r["trace"]["spans"] for r in traced]
    counts = first["trace"]["counts"]

    def calls(name):
        return first["trace"]["spans"].get(name, {}).get("calls", 0)

    def work(name):
        return first["trace"]["spans"].get(name, {}).get("work", 0)

    def med(name, key="self_s"):
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in spans)

    def per(seconds, n, scale=1e6):
        return seconds * scale / n if n else 0.0

    m = {}
    for name in ("solvers.forward", "solvers.adjoint", "solvers.pairing"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (med(name), "s")
        m[f"{name}.us_per_interval"] = (per(med(name), work(name)), "us")
    rhs_calls = counts.get("rhs_calls", 0)
    m["models.rhs_calls"] = (rhs_calls, "count")
    m["models.jacobian_calls"] = (counts.get("jacobian_calls", 0), "count")
    m["models.points_per_rhs_call"] = (
        per(counts.get("rhs_points", 0), rhs_calls, 1.0), "count")
    for part in ("forward", "adjoint", "decomposition", "qoi"):
        name = f"stationary.{part}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (med(name), "s")
        m[f"{name}.us_per_call"] = (per(med(name), calls(name)), "us")
    m["stationary.evaluate.calls"] = (calls("stationary.evaluate"), "count")
    m["stationary.evaluate.self_s"] = (med("stationary.evaluate"), "s")
    m["sampling.calls"] = (calls("sampling"), "count")
    m["sampling.self_s"] = (med("sampling"), "s")
    m["sampling.us_per_call"] = (per(med("sampling"), calls("sampling")), "us")

    run_s = med("driver.run", "total_s")
    elems0 = first["levels"][0][0]
    elem_solves = sum(n * (e + (first["levels"][i - 1][0] if i else 0))
                      for i, (e, n) in enumerate(first["levels"]))
    ratio = variance_ratio(first, workload)
    if pool_trace is None:
        busy = statistics.median(pool_busy_ratio(s, workload.jobs) for s in spans)
    else:
        busy = pool_busy_ratio(pool_trace["spans"], DETERMINISM_WORKLOAD.jobs)
    m["driver.run_s"] = (run_s, "s")
    # With a pool, fill's own thread only waits for the workers' samples.
    driver_spans = ("driver.run", "driver.take_sample") + \
        (("driver.fill",) if workload.jobs == 1 else ())
    m["driver.self_s"] = (statistics.median(
        sum(s[n]["self_s"] for n in driver_spans) for s in spans), "s")
    m["driver.levels"] = (len(first["levels"]), "count")
    m["driver.samples"] = (sum(n for _, n in first["levels"]), "count")
    m["driver.sample_failures"] = (first["sample_failures"], "count")
    m["driver.variance_ratio"] = (ratio, "ratio")
    m["driver.cost_to_eps"] = (elem_solves / elems0 * max(1.0, ratio), "units")
    m["driver.elem_solves_per_s"] = (per(elem_solves, run_s, 1.0), "1/s")
    m["driver.pool_busy_ratio"] = (busy, "ratio")
    m["experiments.evaluate.calls"] = (calls("experiments.evaluate"), "count")
    m["experiments.evaluate.self_s"] = (med("experiments.evaluate"), "s")
    for name in ("error_estimation", "qoi", "refinement", "meshes"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (med(name), "s")
    m["refinement.finest_elems"] = (first["levels"][-1][0], "count")
    m["cli.write_s"] = (med("cli.write", "total_s"), "s")
    m["cli.sample_rows"] = (first["sample_rows"], "count")
    m["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - untraced_wall, "s")
    return m


# ---------------------------------------------------------------- driver

def seed_mean(runs, value):
    """Mean over the mlmc seeds of the median of each seed's runs."""
    by_seed = {}
    for rec in runs:
        by_seed.setdefault(rec["mlmc_seed"], []).append(value(rec))
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def bench_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    references = json.loads(REFERENCES.read_text())
    reference = references[workload.experiment]["expectation"]
    # The work to reach epsilon differs by ~10% between mlmc seeds, so the
    # end-to-end figures average SEEDS_PER_INVOCATION of them, run in turn.
    # The traced run keeps to the first, so its counts repeat exactly.
    mlmc_seeds = [seed * SEEDS_PER_INVOCATION + j
                  for j in range(1 if trace else SEEDS_PER_INVOCATION)]
    problems = []
    deadline = time.perf_counter() + TIME_LIMIT_S
    determinism, jobs2_trace = check_jobs_determinism(mlmc_seeds[0], deadline)
    problems += determinism
    pool_trace = (jobs2_trace if workload.experiment == DETERMINISM_WORKLOAD.experiment
                  else None)

    # Set-up is timed between the runs, so that its median, like the runs',
    # spans the whole measuring window rather than one moment of it.  The
    # determinism runs above have already byte-compiled the package.
    setup = []
    runs = []
    first_hash = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        mlmc_seed = mlmc_seeds[rounds % len(mlmc_seeds)]
        if not trace:
            setup += [measure_setup() for _ in range(SETUP_PER_RUN)]
        for traced in ((False, True) if trace else (False,)):
            rec = run_once(workload.cli_args(mlmc_seed), traced, deadline)
            rec["mlmc_seed"] = mlmc_seed
            check_run(rec, workload, reference, first_hash.get(mlmc_seed))
            if rec["ok"]:
                first_hash.setdefault(mlmc_seed, rec["hash"])
            runs.append(rec)
        rounds += 1
        elapsed = time.perf_counter() - start
        # At least one seed runs twice, so its artifacts can be compared.
        if rounds > len(mlmc_seeds) and elapsed * (rounds + 1) / rounds > seconds:
            break

    # Timings come from every run that wrote artifacts; a run that then
    # failed a check is counted in `failed` and makes `correct` false.
    done = [r for r in runs if "hash" in r]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if trace:
        if not untraced or not traced:
            raise RuntimeError("no traced and untraced run completed")
        for rec in traced:
            problems += check_trace(rec["trace"], workload)
        metrics = layer_metrics(traced, statistics.median(
            r["wall_s"] for r in untraced), workload, pool_trace)
        raw = {}
    else:
        if not untraced:
            raise RuntimeError("no run completed")
        metrics = {
            "time_to_eps_s": (seed_mean(untraced, lambda r: time_to_eps(r, workload)),
                              "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (seed_mean(untraced, lambda r: r["peak_rss_mb"]), "MB"),
        }
        raw = {"time_to_eps_s": [time_to_eps(r, workload) for r in untraced],
               "setup_s": setup,
               "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
               "calibration_s": [r["calibration_s"] for r in untraced]}

    failed = [r for r in runs if not r["ok"]]
    for rec in failed:
        problems.append(f"run failed (seed {rec['mlmc_seed']}): {rec['reason']}")
    result = {
        "correct": not problems, "attempted": len(runs), "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}
    record = {
        "workload": name, "args": workload.cli_args("<mlmc seed>"),
        "mlmc_seeds": mlmc_seeds, "environment": environment(seed),
        "problems": problems, "raw": raw,
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs]}
    return result, record


def report(name, result, record, out):
    runs = len(record["runs"])
    out.write(f"{name}: {runs} runs, {result['failed']} failed "
              f"({result['failed'] / runs:.0%})\n")
    for key, metric in result["metrics"].items():
        line = f"  {key:36s} {metric['value']:.6g} {metric['unit']}"
        if key in record["raw"]:
            q1, q3 = quartiles(record["raw"][key])
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(record['raw'][key])})"
        out.write(line + "\n")
    for problem in record["problems"]:
        out.write(f"  problem: {problem}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/adaptive_mlmc/cli.py").is_file():
        sys.stderr.write("error: run from the repository root "
                         "(src/adaptive_mlmc is missing)\n")
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    results, records = {}, {}
    try:
        for name in names:
            try:
                results[name], records[name] = bench_workload(
                    name, args.seed, args.seconds, bool(args.trace))
            except RuntimeError as exc:
                sys.stderr.write(f"error: {name}: {exc}\n")
                return 1
            report(name, results[name], records[name], sys.stdout)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.workload == "all":
        sys.stdout.write("record: " + json.dumps(records) + "\n")
        sys.stdout.write(json.dumps(results) + "\n")
    else:
        sys.stdout.write("record: " + json.dumps(records[args.workload]) + "\n")
        sys.stdout.write(json.dumps(results[args.workload]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
