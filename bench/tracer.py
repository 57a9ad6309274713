"""In-memory span tracer that wraps package functions where they are looked up.

The package's modules import each other by name (`from .solvers import
solve_forward_cg1`), so a function is traced by replacing the attribute in
the module (or class) that calls it, not in the module that defines it.
Nothing under `src/` is edited: `install` patches the imported modules of
one process, which then runs `cli.main` as usual.

Each thread keeps its own span stack, so samples taken on the driver's
thread pool nest under their own `driver.take_sample` span and self times
stay non-negative.  Spans stay in memory; `aggregate` folds them into
per-name totals once the run is over.
"""
from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "child_s", "work")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else name
        self.child_s = 0.0
        self.work = 0


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name, fn, work=None):
        """`fn` recorded as a span `name`; `work(args, result)` sizes the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                state.spans.append(span)
            if work is not None:
                span.work = work(args, result)
            return result
        return traced

    def counting(self, key, fn):
        """`fn` with a per-thread call count and a count of evaluated points."""
        @functools.wraps(fn)
        def counted(u, t):
            counts = self._state().counts
            counts[key + "_calls"] += 1
            counts[key + "_points"] += np.shape(u)[0] if np.ndim(u) == 2 else 1
            return fn(u, t)
        return counted

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed work.

        `self_s_by_root` splits the self time by the outermost span on the
        span's own thread, so the self times inside `driver.run` can be
        checked to add up to its duration.  `counts` sums the model-call
        counters of every thread.
        """
        table = {}
        counts = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, n in state.counts.items():
                counts[key] += n
            for span in state.spans:
                row = table.setdefault(span.name, {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
                    "min_self_s": float("inf"), "self_s_by_root": {}})
                duration = span.end - span.start
                self_s = duration - span.child_s
                row["calls"] += 1
                row["total_s"] += duration
                row["self_s"] += self_s
                row["work"] += span.work
                row["min_self_s"] = min(row["min_self_s"], self_s)
                by_root = row["self_s_by_root"]
                by_root[span.root] = by_root.get(span.root, 0.0) + self_s
        return {"spans": table, "counts": dict(counts)}


# Intervals one solver call marches over, from its arguments or result.
def _forward_intervals(args, result):
    return args[1].n_intervals            # solve_forward_cg1(problem, mesh)


def _adjoint_intervals(args, result):
    return result.mesh.n_intervals        # the refined adjoint mesh


def _pairing_intervals(args, result):
    return args[2].mesh.n_intervals       # residual_pairing(problem, fwd, adj, t*)


def install(tracer: Tracer) -> None:
    """Patch the package's lookup sites so one `cli.main` call is traced."""
    from adaptive_mlmc import (cli, driver, error_estimation, experiments,
                               meshes, qoi, refinement, sampling, solvers,
                               stationary)

    def patch(owner, attr, name, work=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))

    patch(cli, "run_adaptive_mlmc", "driver.run")
    patch(cli, "write_artifacts", "cli.write")
    patch(driver._Runner, "fill", "driver.fill")
    patch(driver, "take_sample", "driver.take_sample")
    patch(driver, "sample_parameters", "sampling")
    patch(driver, "build_next_mesh", "refinement")

    patch(experiments.OdeMlmcModel, "evaluate", "experiments.evaluate")
    patch(experiments, "solve_forward_cg1", "solvers.forward",
          _forward_intervals)
    for attr in ("estimate_standard_error", "estimate_event_time_error"):
        patch(experiments, attr, "error_estimation")
    for attr in ("eval_standard", "eval_event_time"):
        patch(experiments, attr, "qoi")
    patch(error_estimation, "solve_adjoint", "solvers.adjoint",
          _adjoint_intervals)
    patch(error_estimation, "residual_pairing", "solvers.pairing",
          _pairing_intervals)

    patch(stationary.BvpMlmcModel, "evaluate", "stationary.evaluate")
    patch(stationary, "solve_bvp_p1", "stationary.forward")
    patch(stationary, "solve_bvp_adjoint", "stationary.adjoint")
    patch(stationary, "bvp_error_decomposition", "stationary.decomposition")
    patch(stationary, "qoi_value", "stationary.qoi")

    # Every public mesh function, wherever the package looks it up.
    mesh_functions = {name for name, obj in vars(meshes).items()
                      if callable(obj) and not isinstance(obj, type)
                      and not name.startswith("_")
                      and getattr(obj, "__module__", None) == meshes.__name__}
    for module in (cli, driver, error_estimation, experiments, meshes, qoi,
                   refinement, sampling, solvers, stationary):
        for name in mesh_functions & set(vars(module)):
            patch(module, name, "meshes")

    get_experiment = cli.get_experiment

    def counting_experiment(name):
        experiment = get_experiment(name)
        make_problem = experiment.make_problem

        def counting_problem(w):
            problem = make_problem(w)
            return dataclasses.replace(
                problem, rhs=tracer.counting("rhs", problem.rhs),
                jacobian=tracer.counting("jacobian", problem.jacobian))
        return dataclasses.replace(experiment, make_problem=counting_problem)

    cli.get_experiment = counting_experiment
