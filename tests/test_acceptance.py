"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
(echoed again in the terminal summary), and asserts every sub-check.  The
benchmark-scale criteria compare against published reference intervals and
orderings rather than exact table entries, since individual runs are
realizations of a randomized algorithm.
"""
import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from adaptive_mlmc.driver import (LevelState, MlmcRunConfig,
                                  level_variance, optimal_samples,
                                  run_adaptive_mlmc, take_sample)
from adaptive_mlmc.error_estimation import (estimate_event_time_error,
                                            estimate_standard_error)
from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.meshes import common_mesoregion_refinement, uniform_mesh
from adaptive_mlmc.models import harmonic_oscillator, lorenz, two_body
from adaptive_mlmc.qoi import (NonstandardQoi, StandardQoi, eval_event_time,
                               eval_standard)
from adaptive_mlmc.refinement import build_next_mesh
from adaptive_mlmc.solvers import (Trajectory, residual_pairing, solve_adjoint,
                                   solve_forward_cg1)
from adaptive_mlmc.stationary import (PSI_SUPPORT, SOURCE_BREAKS, BvpMlmcModel,
                                      psi, source)
from stationary_reference import solve_weak
from synthetic_problems import constant_weights

SEEDS = (0, 1, 2, 3, 4)
STRATEGIES = ("uniform", "dwr", "meso")

CRITERION_LINES = []


def report(number, title, checks):
    """Record one PASS/FAIL line for the criterion, then assert it."""
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    line = f"criterion {number} [{title}]: {verdict}"
    CRITERION_LINES.append(line)
    print(line)
    assert not failed, line


def run_experiment(name, epsilon, strategy, seed):
    cfg = MlmcRunConfig(epsilon=epsilon, refinement=strategy, master_seed=seed)
    return run_adaptive_mlmc(get_experiment(name), cfg)


@pytest.fixture(scope="module")
def harmonic_runs():
    """harmonic-standard at epsilon 1e-3, all strategies x five seeds."""
    return {(s, seed): run_experiment("harmonic-standard", 1e-3, s, seed)
            for s, seed in itertools.product(STRATEGIES, SEEDS)}


def test_criterion_1_statistics_oracles():
    rng = np.random.default_rng(0)
    variance_checks = []
    for n in (2, 5, 100, 1000):
        y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        direct = float(np.sum((y - np.mean(y)) ** 2) / (n - 1))
        variance_checks.append(
            abs(level_variance(y) - direct) <= 1e-12 * abs(direct))

    # exhaustive search over equal-cost two-level allocations
    allocation_checks = []
    for v0, v1, eps in ((4.0, 1.0, 0.5), (2.25, 1.0, 0.5),
                        (1.0, 1.0, 0.1), (9.0, 4.0, 1.0)):
        n = optimal_samples([v0, v1], [1.0, 1.0], eps)
        budget = sum(n)
        achieved = v0 / n[0] + v1 / n[1]
        best = min(v0 / k + v1 / (budget - k) for k in range(1, budget))
        allocation_checks.append(achieved == best)

    report(1, "statistics oracles", [
        ("variance 1e-12 relative", all(variance_checks)),
        ("allocation exactly optimal", all(allocation_checks)),
    ])


def test_criterion_2_adjoint_vs_matrix_exponential():
    problem = harmonic_oscillator(50.0, 0.25)
    A = problem.jacobian(problem.initial, 0.0)[0]
    psi = np.array([1.0, 0.0])
    exact = expm(A.T * 3.0) @ psi
    errors = []
    for n in (16, 32, 64):
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, n))
        phi = solve_adjoint(problem, forward, 3.0, psi)
        errors.append(np.abs(phi.values[0, 0] - exact).max())
    order = 0.5 * np.log2(errors[0] / errors[-1])
    report(2, "adjoint matches matrix-exponential oracle at order 2",
           [(f"observed order {order:.2f} >= 1.8", order >= 1.8)])


def test_criterion_3_error_estimate_effectivity():
    """Effectivities against scipy's DOP853 at rtol 1e-12, independent of the
    package's solvers: u1(3) of the harmonic oscillator and the time of
    lorenz's second crossing of x = 3, found by an event."""
    ivp = dict(method="DOP853", rtol=1e-12, atol=1e-13)

    problem = harmonic_oscillator(50.0, 0.25)
    q = StandardQoi(np.array([1.0, 0.0]), 3.0)
    ref = solve_ivp(lambda t, u: [u[1], (-50.0 * u[0] - u[1]
                                         + 50.0 * np.cos(10.0 * t)) / 0.25],
                    (0.0, 3.0), [5.0, 0.0], **ivp).y[0, -1]
    forward = solve_forward_cg1(problem, uniform_mesh(3.0, 54))
    [total] = estimate_standard_error(problem, forward, q).total
    eff_std = total / (ref - eval_standard(forward, q)[0])

    lor = lorenz(1.0)
    qe = NonstandardQoi(np.array([1.0, 0.0, 0.0]), 3.0, occurrence=2)
    crossings = solve_ivp(
        lambda t, u: [10.0 * (u[1] - u[0]), 28.0 * u[0] - u[1] - u[0] * u[2],
                      u[0] * u[1] - 8.0 / 3.0 * u[2]],
        (0.0, 2.0), [1.0, 0.0, 24.0], events=lambda t, u: u[0] - 3.0,
        **ivp).t_events[0]
    t_ref = crossings[1]
    forward = solve_forward_cg1(lor, uniform_mesh(2.0, 192))
    [t_c] = eval_event_time(forward, qe)
    [total] = estimate_event_time_error(lor, forward, qe, t_c).total
    eff_evt = total / (t_c - t_ref)

    report(3, "effectivity in [0.85, 1.15] vs DOP853 reference", [
        (f"harmonic standard QoI, 54 intervals ({eff_std:.3f})",
         0.85 <= eff_std <= 1.15),
        (f"lorenz event-time QoI, 192 intervals ({eff_evt:.3f})",
         0.85 <= eff_evt <= 1.15),
    ])


def test_criterion_4_benchmark_standard_qoi(harmonic_runs):
    runs = harmonic_runs
    uniform_mean = np.mean([runs[("uniform", s)].value for s in SEEDS])
    mse_ok = all(est.mse <= 2e-3 for est in runs.values())
    levels = {s: np.mean([runs[(s, seed)].n_levels for seed in SEEDS])
              for s in STRATEGIES}
    cost_order_hits = sum(
        runs[("meso", seed)].total_cost < runs[("dwr", seed)].total_cost
        < runs[("uniform", seed)].total_cost
        for seed in SEEDS)
    report(4, "standard-QoI benchmark, 5-seed", [
        (f"uniform estimate mean {uniform_mean:.4f} in [-0.43, -0.34]",
         -0.43 <= uniform_mean <= -0.34),
        ("mse <= 2*epsilon on every run", mse_ok),
        (f"mean levels uniform {levels['uniform']:.1f} >= dwr "
         f"{levels['dwr']:.1f} >= meso {levels['meso']:.1f}",
         levels["uniform"] >= levels["dwr"] >= levels["meso"]),
        (f"cost meso < dwr < uniform in {cost_order_hits}/5 seeds",
         cost_order_hits >= 4),
    ])


def test_criterion_5_benchmark_event_time_qoi():
    checks = []
    for strategy in STRATEGIES:
        v = run_experiment("harmonic-nonstandard", 1e-5, strategy, 0).value
        checks.append((f"harmonic event-time {strategy} {v:.4f} in "
                       "[1.446, 1.466]", 1.446 <= v <= 1.466))
    for strategy in STRATEGIES:
        v = run_experiment("lorenz", 1e-4, strategy, 0).value
        checks.append((f"lorenz {strategy} {v:.4f} in [0.83, 0.86]",
                       0.83 <= v <= 0.86))
    v = run_experiment("two-body", 1e-3, "uniform", 0).value
    checks.append((f"two-body uniform {v:.3f} in [6.8, 7.4]",
                   6.8 <= v <= 7.4))
    report(5, "event-time benchmarks", checks)


def test_criterion_6_meso_merge_fixture():
    # tilings (breaks, counts): region i spans breaks[i]..breaks[i+1]
    prev = (np.array([0.0, 4.0, 10.0]), np.array([1, 5]))
    tentative = (np.array([0.0, 0.8, 7.0, 10.0]), np.array([1, 6, 1]))
    _, merged_counts = common_mesoregion_refinement(prev, tentative)
    counts = merged_counts.tolist()
    report(6, "meso merge fixture", [
        (f"four regions with counts {counts} == [1, 4, 3, 3]",
         counts == [1, 4, 3, 3]),
    ])


def test_criterion_7_stationary_problem():
    model = BvpMlmcModel()
    wins = 0
    for seed in SEEDS:
        costs = {}
        for strategy in ("dwr", "uniform"):
            cfg = MlmcRunConfig(epsilon=model.default_epsilon, refinement=strategy,
                                master_seed=seed)
            costs[strategy] = run_adaptive_mlmc(model, cfg).total_cost
        wins += costs["dwr"] < costs["uniform"]

    # symmetric case: the adjoint of the pure diffusion operator is itself,
    # so pairing the source with the adjoint equals pairing the weight with
    # the forward solution
    mesh = uniform_mesh(3.0, 64)
    b = np.array([0.0])
    u = Trajectory(mesh, solve_weak(mesh, b, source, SOURCE_BREAKS)[0, :, None])
    phi = Trajectory(mesh, solve_weak(mesh, b, psi, PSI_SUPPORT)[0, :, None])
    from test_stationary import integrate_against
    lhs = integrate_against(source, phi, SOURCE_BREAKS)
    rhs = integrate_against(psi, u, PSI_SUPPORT)
    duality_gap = abs(lhs - rhs) / max(abs(lhs), 1.0)

    report(7, "stationary advection-diffusion", [
        (f"dwr cheaper than uniform in {wins}/5 seeds", wins >= 4),
        (f"zero-advection duality gap {duality_gap:.2e} <= 1e-10",
         duality_gap <= 1e-10),
    ])


def test_criterion_8_byte_identical_artifacts(tmp_path, capsys):
    from adaptive_mlmc.cli import main

    def artifacts(tag, jobs):
        out = tmp_path / tag
        code = main(["run", "--experiment", "harmonic-standard",
                     "--epsilon", "0.02", "--seed", "1",
                     "--jobs", str(jobs), "--output-dir", str(out)])
        assert code == 0
        return {n: (out / n).read_bytes()
                for n in ("levels.csv", "summary.csv", "samples.csv")}

    first = artifacts("a", 1)
    second = artifacts("b", 1)
    flagged = artifacts("c", 4)
    capsys.readouterr()
    report(8, "determinism", [
        ("reruns byte-identical", first == second),
        ("the accepted --jobs flag changes no output", first == flagged),
    ])


def test_criterion_9_property_suite():
    # refinement never removes a node, for all three strategies
    model = get_experiment("harmonic-standard")
    mesh = model.initial_mesh()
    level = LevelState(0, mesh, None, 1.0, None)
    rows, contributions = take_sample(model, level, 0, 0, 8,
                                      want_estimate=True)
    profile = np.nansum(contributions / rows["denominator"][rows["ok"], None], axis=0)
    # uniform and dwr split intervals in place, so every node survives; meso
    # re-tiles each region uniformly, so its guarantee is that no region's
    # node density ever decreases
    monotone = True
    prev_density = mesh.n_intervals / mesh.length
    for strategy in STRATEGIES:
        new_mesh, regions = build_next_mesh(mesh, level.regions, profile,
                                            strategy, model.dwr_marking)
        if strategy == "meso":
            breaks, counts = regions
            monotone &= all(
                n / (b - a) >= prev_density * (1 - 1e-12)
                for a, b, n in zip(breaks[:-1], breaks[1:], counts))
        else:
            monotone &= set(np.round(mesh.nodes, 12)).issubset(
                set(np.round(new_mesh.nodes, 12)))

    # degenerate telescoping: the same mesh on both sides gives y = 0, and a
    # single-level run reduces to the plain Monte Carlo mean
    twin = LevelState(1, mesh, mesh, 2.0, None)
    [rec], _ = take_sample(model, twin, 0, 0, 1, want_estimate=False)
    cfg = MlmcRunConfig(epsilon=1e6, master_seed=0)
    est = run_adaptive_mlmc(model, cfg)
    q_values = est.sample_log["q_fine"][est.sample_log["ok"]]
    plain_mc = est.n_levels == 1 and rec["y"] == 0.0 and \
        est.value == pytest.approx(np.mean(q_values), rel=1e-14)

    # residual orthogonal to piecewise constants: on every interval, to d + 1
    # constant weights
    problem = harmonic_oscillator(50.0, 0.25)
    forward = solve_forward_cg1(problem, mesh)
    rng = np.random.default_rng(1)
    weights = rng.uniform(-1.0, 1.0, (problem.dim + 1, problem.dim))

    contributions = residual_pairing(problem, forward,
                                     constant_weights(mesh, weights))
    orthogonal = np.abs(contributions).max() <= 1e-10

    # analytic Jacobians against central finite differences
    jacobians_ok = True
    rng = np.random.default_rng(2)
    for make in (lambda: harmonic_oscillator(50.0, 0.25),
                 lambda: lorenz(1.0), lambda: two_body(2.0)):
        p = make()
        checked = 0
        while checked < 100:
            u = p.initial[0] + 0.5 * rng.standard_normal(p.dim)
            t = float(rng.uniform(0.0, p.horizon))
            J = p.jacobian(u[None], t)[0]
            fd = np.empty_like(J)
            for j in range(p.dim):
                h = 1e-6 * (1.0 + abs(u[j]))
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                fd[:, j] = (p.rhs(up[None], t)[0] - p.rhs(um[None], t)[0]) / (2.0 * h)
            if not (np.isfinite(J).all() and np.isfinite(fd).all()):
                continue  # two-body collision: NaN in the row
            checked += 1
            jacobians_ok &= bool(np.allclose(J, fd, rtol=1e-5, atol=1e-5))

    report(9, "property suite", [
        ("refinement keeps every node", monotone),
        ("degenerate telescoping equals plain MC mean", plain_mc),
        ("Galerkin orthogonality <= 1e-10", orthogonal),
        ("Jacobians match finite differences to 1e-5", jacobians_ok),
    ])
