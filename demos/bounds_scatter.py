"""Monte Carlo tour of the negativity/concurrence corridor.

Samples a few thousand random two-qubit states, evaluates the determinant
witness for each, and shows that every (w, N, C) triple lands inside the
tight corridor f(w) <= N <= C <= w**(1/4).  Writes a CSV next to this script
and, when matplotlib is importable, a PNG of the classic scatter.
"""

import pathlib

import numpy as np

from uwitness import checks, lower_bound, upper_bound, witness_report
from uwitness.states import StateSampler

HERE = pathlib.Path(__file__).parent
SAMPLES = 4000
SEED = 2024


def main():
    # one call for the whole (SAMPLES, 4, 4) stack; every field is an array
    batch = StateSampler("hs", SEED).sample(SAMPLES)
    rep = witness_report(batch)
    w, n, c = rep.w, rep.negativity, rep.concurrence
    detected = w > 0
    slack, upper, inside = checks.corridor(batch)

    print(f"{SAMPLES} Hilbert-Schmidt states, seed {SEED}")
    print(f"witness fired on {detected.sum()} states ({detected.mean():.1%})")
    print(f"worst corridor slack over the detected states: f(w) - N and N - C {slack:.2e}, "
          f"C^4 - w {upper:.2e}  (negative means strictly inside)")
    print(f"every state inside the corridor: {inside}")

    csv_path = HERE / "bounds_scatter.csv"
    with open(csv_path, "w") as fh:
        fh.write("w,negativity,concurrence\n")
        fh.writelines(f"{wi!r},{ni!r},{ci!r}\n" for wi, ni, ci in zip(w.tolist(), n.tolist(), c.tolist()))
    print(f"wrote {csv_path}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    grid = np.linspace(1e-6, 1.0, 400)

    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.scatter(w, n, s=4, alpha=0.35, label="negativity", color="tab:blue")
    ax.scatter(w, c, s=4, alpha=0.35, label="concurrence", color="tab:orange")
    ax.plot(grid, lower_bound(grid), "k-", lw=1.5, label="lower bound f(w)")
    ax.plot(grid, upper_bound(grid), "k--", lw=1.5, label="upper bound w$^{1/4}$")
    ax.set_xlabel("rescaled witness w")
    ax.set_ylabel("entanglement measure")
    ax.set_xlim(0, max(1e-3, w.max() * 1.05))
    ax.legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    png_path = HERE / "bounds_scatter.png"
    fig.savefig(png_path, dpi=150)
    print(f"wrote {png_path}")


if __name__ == "__main__":
    main()
