"""The benchmark's view of the package: `bench/worker.py` runs traced.

`bench/tracer.py` wraps package functions by the names under which the
package looks them up.  A renamed or removed lookup site either crashes the
worker or leaves a span with no calls; both fail here rather than only when
the benchmark runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"

# The bench's --jobs 2 determinism run, plus one run per ODE QoI kind and
# refinement strategy that the gated workloads do not reach.
RUNS = {
    "advection-diffusion": ["--experiment", "advection-diffusion-1d",
                            "--refinement", "dwr", "--epsilon", "5e-05",
                            "--jobs", "2", "--seed", "0"],
    "harmonic-standard": ["--experiment", "harmonic-standard",
                          "--refinement", "dwr", "--epsilon", "0.01",
                          "--jobs", "1", "--seed", "0"],
    "lorenz": ["--experiment", "lorenz", "--refinement", "meso",
               "--epsilon", "0.01", "--jobs", "1", "--seed", "0"],
}
ODE_RUNS = ("harmonic-standard", "lorenz")

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}

# Installs the tracer in a fresh interpreter and prints every span name it
# wraps; the package is patched there, never in the test process.
LIST_SPANS = """\
import json, sys
sys.path[:0] = ["bench", "src"]
from tracer import Tracer, install
tracer, names = Tracer(), set()
wrap = tracer.wrap


def recording_wrap(name, fn, work=None):
    names.add(name)
    return wrap(name, fn, work)


tracer.wrap = recording_wrap
install(tracer)
print(json.dumps(sorted(names)))
"""


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    results = {}
    for name, args in RUNS.items():
        run_dir = tmp_path_factory.mktemp(name)
        result_path = run_dir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(WORKER), "run", str(result_path), "1", "--",
             *args, "--output-dir", str(run_dir / "artifacts")],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        results[name] = json.loads(result_path.read_text())
    return results


@pytest.fixture(scope="module")
def span_names():
    proc = subprocess.run([sys.executable, "-c", LIST_SPANS], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_runs_converge(traced_runs):
    assert {name: r["exit_code"] for name, r in traced_runs.items()} == \
        {name: 0 for name in RUNS}


def test_every_patched_span_records_calls(traced_runs, span_names):
    assert "sampling" in span_names and "meshes" in span_names
    calls = {name: sum(r["trace"]["spans"].get(name, {}).get("calls", 0)
                       for r in traced_runs.values())
             for name in span_names}
    assert [name for name, n in calls.items() if n == 0] == []


@pytest.mark.parametrize("run", ODE_RUNS)
def test_model_calls_counted(traced_runs, run):
    counts = traced_runs[run]["trace"]["counts"]
    assert counts.get("rhs_calls", 0) > 0
    assert counts.get("jacobian_calls", 0) > 0
