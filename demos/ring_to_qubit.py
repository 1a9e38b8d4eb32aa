"""From a microscopic spin ring to an effective qubit coupling.

Builds the four-site substituted ring (three spin-3/2 sites closed by one
spin-1 site), extracts its ground doublet, and derives the effective pair
coupling (gamma, Delta) for two identical rings attached to a central ring
through two exchange linkers.  Sweeping the strength ratio b of the second
linker shows how Delta can be steered: it crosses zero smoothly, then jumps
through a pole where the transverse sum changes sign.

Run:  python3 demos/ring_to_qubit.py
"""

import numpy as np

from ringstar import (
    Linker,
    RingSpec,
    b_sweep_evaluator,
    effective_coupling,
    find_delta_transitions,
    ring_qubit_encoding,
)


def main():
    spec = RingSpec.cr_ni(3)
    print("ring sites (spins):", spec.sites)
    print("bond couplings:    ", spec.bond_couplings)
    print("crystal fields:    ", spec.crystal_fields)
    print("Hilbert dimension: ", spec.dim)

    enc, elems = ring_qubit_encoding(spec)
    print(f"\nground doublet gap: {enc.gap:.6f}")
    print(f"doublet <S_z>:      {elems.z00.sum():+.3f}, {elems.z11.sum():+.3f}")
    print("per-site <1|tau_x|0>:", np.round(elems.x10.real, 6))
    print("per-site <0|tau_z|0>:", np.round(elems.z00.real, 6))

    links = [Linker(1, 2, 1.0), Linker(4, 4, 2.0)]
    pair = effective_coupling(elems, elems, links)
    print(f"\ntwo linkers {[(l.ring_site, l.central_site, l.strength) for l in links]}")
    print(f"effective gamma = {pair.gamma:.6f}, Delta = {pair.delta:.6f}")

    evaluate = b_sweep_evaluator()
    print("\nsweep of the linker ratio b on [0, 5]:")
    for b in np.linspace(0.0, 5.0, 11):
        point = evaluate(float(b))
        print(f"  b = {b:4.1f}   gamma = {point.gamma:+9.5f}   Delta = {point.delta:+9.4f}")

    print("\ncrossings of Delta through zero:")
    for tr in find_delta_transitions(evaluate, 0.0, 5.0):
        direction = "rising" if tr.rising else "falling"
        print(f"  {tr.kind:4s} at b = {tr.b:.12f} ({direction})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\n(matplotlib not installed; skipping the plot)")
        return
    grid = np.linspace(0.0, 5.0, 601)
    deltas = []
    for b in grid:
        try:
            deltas.append(evaluate(float(b)).delta)
        except Exception:
            deltas.append(np.nan)
    deltas = np.array(deltas)
    deltas[np.abs(deltas) > 30] = np.nan  # keep the pole off the axis
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(grid, deltas)
    ax.axhline(0.0, color="gray", lw=0.5)
    ax.set_xlabel("linker strength ratio b")
    ax.set_ylabel("effective anisotropy Delta")
    ax.set_title("Anisotropy control through one linker")
    fig.tight_layout()
    fig.savefig("demos/ring_to_qubit.png", dpi=150)
    print("\nwrote demos/ring_to_qubit.png")


if __name__ == "__main__":
    main()
