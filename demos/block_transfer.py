"""Perfect transfer of an entangled two-site pattern across the star.

Sites 1..L hold an amplitude pattern; mirroring the couplings onto sites
L+1..2L (all other outer sites decoupled, pure transverse coupling) makes
the pattern's bright component Rabi-oscillate through the center while its
dark component stands still.  At half the Rabi period the whole pattern
reappears on the second block with unit fidelity.

Run:  python3 demos/block_transfer.py
"""

import math

import numpy as np

from ringstar import fidelity_curve, make_transfer_program, propagate


def main():
    alpha = math.pi / 4
    program = make_transfer_program(
        5, 2, [math.sin(alpha), math.cos(alpha)], gamma_scale=math.sqrt(2.0)
    )
    net = program.network
    print("five outer qubits, pattern (sin pi/4, cos pi/4) on sites 1, 2")
    print(f"mirrored couplings gamma = {np.round(net.gammas, 6)}")
    print(f"transfer time t_T = {program.t_transfer:.9f} (pi = {math.pi:.9f})")
    print(f"peak target fidelity = {program.peak_target_fidelity:.12f}\n")

    times = np.linspace(0.0, 2.0 * math.pi, 13)
    curve = fidelity_curve(program, times)
    print("     t        F_return    F_target")
    for t, fr, ft in zip(curve.times, curve.return_fidelity, curve.target_fidelity):
        print(f"  {t:8.4f}   {fr:9.6f}   {ft:9.6f}")

    initial = np.zeros(net.dim, dtype=complex)
    initial[:2] = [math.sin(alpha), math.cos(alpha)]
    (out,) = propagate(net, initial, [program.t_transfer])
    print("\namplitude magnitudes at t_T:", np.round(np.abs(out), 6))
    print("the pattern sits on sites 3, 4; site 5 never acquires population")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not installed; skipping the plot)")
        return
    dense = np.linspace(0.0, 2.0 * math.pi, 401)
    full = fidelity_curve(program, dense)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(dense, full.return_fidelity, label="return")
    ax.plot(dense, full.target_fidelity, label="target")
    ax.axvline(program.t_transfer, color="gray", lw=0.5)
    ax.set_xlabel("time")
    ax.set_ylabel("fidelity")
    ax.set_title("Block-to-block transfer")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demos/block_transfer.png", dpi=150)
    print("wrote demos/block_transfer.png")


if __name__ == "__main__":
    main()
