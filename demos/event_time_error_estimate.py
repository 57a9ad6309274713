"""Walk through the adjoint error estimate for a time-to-event quantity.

Solves the harmonic oscillator with fixed parameters on a sequence of
uniform meshes, locates the fifth zero crossing of the position, and
compares the adjoint-based estimate of the event-time error against the
true error measured from a very fine reference solve.  The effectivity
(estimate / true error) should approach one as the mesh refines.
"""
import numpy as np

from adaptive_mlmc.error_estimation import estimate_event_time_error
from adaptive_mlmc.meshes import uniform_mesh
from adaptive_mlmc.models import harmonic_oscillator
from adaptive_mlmc.qoi import NonstandardQoi, eval_event_time
from adaptive_mlmc.solvers import solve_forward_cg1

STIFFNESS = 50.0
MASS = 0.25
OCCURRENCE = 5


def main():
    problem = harmonic_oscillator(STIFFNESS, MASS)
    qoi = NonstandardQoi(np.array([1.0, 0.0]), 0.0, occurrence=OCCURRENCE)

    reference = solve_forward_cg1(problem, uniform_mesh(problem.horizon, 100_000))
    [t_true] = eval_event_time(reference, qoi)
    print(f"oscillator with k = {STIFFNESS}, m = {MASS}")
    print(f"reference time of crossing #{OCCURRENCE}: t = {t_true:.8f}\n")

    print("intervals   computed t_c     true error      estimate    effectivity")
    for n in (36, 72, 144, 288):
        forward = solve_forward_cg1(problem, uniform_mesh(problem.horizon, n))
        [t_c] = eval_event_time(forward, qoi)
        [total] = estimate_event_time_error(problem, forward, qoi, t_c).total
        true_error = t_c - t_true
        print(f"{n:9d}   {t_c:.8f}   {true_error:+12.3e}  {total:+12.3e}"
              f"   {total / true_error:10.3f}")

    print("\nper-interval contributions on the 36-interval mesh "
          "(largest five):")
    forward = solve_forward_cg1(problem, uniform_mesh(problem.horizon, 36))
    [t_c] = eval_event_time(forward, qoi)
    [contributions] = estimate_event_time_error(problem, forward, qoi,
                                                t_c).contributions
    order = np.argsort(-np.abs(contributions))[:5]
    for i in order:
        print(f"  interval {i:2d}: {contributions[i]:+.3e}")
    print("these indicators are exactly what the DWR strategy refines")


if __name__ == "__main__":
    main()
