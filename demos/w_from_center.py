"""W-state generation by releasing one excitation from the central qubit.

With pure transverse coupling (Delta = -1) and equal strengths the center
empties completely at odd multiples of pi/Omega, leaving the excitation
spread evenly over the N outer qubits: a W state.  The script plans the
schedule, then follows the populations through one full cycle.

Run:  python3 demos/w_from_center.py
"""

import numpy as np

from ringstar import (
    basis_state,
    generation_error,
    plan_w_from_center,
    propagate,
    uniform_star,
)


def main():
    n = 4
    network = uniform_star(n, 1.0)
    plan = plan_w_from_center(network)
    print(f"N = {n} outer qubits, gamma = 1, Delta = -1 everywhere")
    print(f"Omega = {network.omega:.6f}")
    print(f"planned generation time t_W = {plan.t_w:.6f}")
    print(f"predicted generation error  = {plan.predicted_error:.3e}\n")

    start = basis_state(network, n + 1)
    print("     t      sites 1..N population      center    E_r")
    times = np.linspace(0.0, 2.0, 9) * plan.t_w
    for t, state in zip(times, propagate(network, start, times)):
        pops = np.abs(state[:n]) ** 2
        center = abs(state[n]) ** 2
        print(
            f"  {t:7.4f}   "
            + "  ".join(f"{p:.4f}" for p in pops)
            + f"   {center:.4f}   {generation_error(state):.3e}"
        )
    print("\nat t_W the center is empty and every site holds exactly 1/N")


if __name__ == "__main__":
    main()
