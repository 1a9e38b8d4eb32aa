"""Cross-checking the effective model against genuine two-level systems.

The package's dynamics run in an (N+1)-dimensional single-excitation space.
This script promotes every qubit to a real two-level system (2^(N+1) product
space), evolves there, and compares three routes: the closed-form propagator,
spectral propagation of the effective model, and the projected full-space
dynamics.  With pure transverse coupling all three coincide; with a nonzero
diagonal product the full-space diagonal genuinely differs, and the report
shows the discrepancy without asserting it away.

Run:  python3 demos/full_space_check.py
"""

import numpy as np

from ringstar import StarNetwork, basis_state, cross_validate, uniform_star


def show(title, network, source_site):
    start = basis_state(network, source_site)
    print(title)
    for check in cross_validate(network, start, np.linspace(0.0, 4.0, 9)):
        threshold = check.threshold
        bound = "reported only" if threshold is None else f"<= {threshold:.0e}"
        verdict = {True: "ok", False: "FAIL", None: "-"}[check.passed]
        print(f"  {check.name:26s} {check.max_deviation:.3e}   {bound:14s} {verdict}")
    print()


def main():
    show(
        "pure transverse star (all routes must agree):",
        uniform_star(3, 1.0),
        4,
    )
    g = np.array([1.0, 2.0])
    show(
        "common diagonal product C = 1 (full space disagrees by design):",
        StarNetwork(gammas=g, deltas=1.0 / g - 1.0),
        1,
    )
    print("the unasserted row is the footprint of the qubit z-convention;")
    print("rerun with z_convention='pauli' in cross_validate to see it double")


if __name__ == "__main__":
    main()
