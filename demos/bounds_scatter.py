"""Monte Carlo tour of the negativity/concurrence corridor.

Samples a few thousand random two-qubit states, evaluates the determinant
witness for each, and shows that every (w, N, C) triple lands inside the
tight corridor f(w) <= N <= C <= w**(1/4).  Writes a CSV next to this script
and, when matplotlib is importable, a PNG of the classic scatter.
"""

import pathlib

import numpy as np

from uwitness import (
    bounds,
    concurrence,
    lower_bound,
    moments_direct,
    negativity,
    rescaled_witness,
    upper_bound,
    witness_value,
)
from uwitness.states import StateSampler

HERE = pathlib.Path(__file__).parent
SAMPLES = 4000
SEED = 2024


def main():
    rows = []
    worst_slack = -np.inf
    sampler = StateSampler("hs", SEED)
    for _ in range(SAMPLES):
        rho = sampler.sample()
        w = rescaled_witness(witness_value(moments_direct(rho)))
        n, c = negativity(rho), concurrence(rho)
        lo, hi = bounds(w)
        if w > 0:  # a separable state sits exactly on every edge: w = N = C = 0
            worst_slack = max(worst_slack, lo - n, n - c, c - hi)
        rows.append((w, n, c))

    print(f"{SAMPLES} Hilbert-Schmidt states, seed {SEED}")
    detected = sum(1 for w, _, _ in rows if w > 0)
    print(f"witness fired on {detected} states ({detected / SAMPLES:.1%})")
    print(f"worst corridor slack over the detected states: {worst_slack:.2e}"
          "  (negative means strictly inside)")

    csv_path = HERE / "bounds_scatter.csv"
    with open(csv_path, "w") as fh:
        fh.write("w,negativity,concurrence\n")
        fh.writelines(f"{w!r},{n!r},{c!r}\n" for w, n, c in rows)
    print(f"wrote {csv_path}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    ws = np.array([r[0] for r in rows])
    ns = np.array([r[1] for r in rows])
    cs = np.array([r[2] for r in rows])
    grid = np.linspace(1e-6, 1.0, 400)

    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.scatter(ws, ns, s=4, alpha=0.35, label="negativity", color="tab:blue")
    ax.scatter(ws, cs, s=4, alpha=0.35, label="concurrence", color="tab:orange")
    ax.plot(grid, [lower_bound(w) for w in grid], "k-", lw=1.5, label="lower bound f(w)")
    ax.plot(grid, [upper_bound(w) for w in grid], "k--", lw=1.5, label="upper bound w$^{1/4}$")
    ax.set_xlabel("rescaled witness w")
    ax.set_ylabel("entanglement measure")
    ax.set_xlim(0, max(1e-3, ws.max() * 1.05))
    ax.legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    png_path = HERE / "bounds_scatter.png"
    fig.savefig(png_path, dpi=150)
    print(f"wrote {png_path}")


if __name__ == "__main__":
    main()
