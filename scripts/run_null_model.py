#!/usr/bin/env python3
"""Null-model baseline: spectra of i.i.d. Gaussian returns.

Builds the equal-time correlation matrix for independent series, reports how
many eigenvalues fall inside the Marchenko-Pastur band and how delocalized
the eigenvectors are.  This is the reference every structured result is
compared against.

    python scripts/run_null_model.py --n 64 --length 2048 --seeds 20
"""
import argparse

import numpy as np

from lagspec import eigendecompose, equal_time_corr, normalize, rmt_bounds, segment


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n", type=int, default=64, help="number of series")
    p.add_argument("--length", type=int, default=2048, help="returns per series")
    p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    return p.parse_args()


def main() -> int:
    args = parse_args()
    bounds = rmt_bounds(args.n, args.length)
    print(
        f"N={args.n} L={args.length} q={bounds.q:.2f} "
        f"band=[{bounds.lambda_minus:.4f}, {bounds.lambda_plus:.4f}]"
    )
    fractions, medians = [], []
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        g = normalize(rng.standard_normal((args.n, args.length)))
        system = eigendecompose(equal_time_corr(g))
        parts = segment(system.eigenvalues, bounds)
        fraction = len(parts.random) / args.n
        med = float(np.median(system.iprs))
        fractions.append(fraction)
        medians.append(med)
        print(
            f"seed {seed:3d}: in-band {fraction:6.1%}  "
            f"left {len(parts.left):2d}  right {len(parts.right):2d}  "
            f"median IPR {med:.4f}  (1/N={1/args.n:.4f})"
        )
    print(
        f"mean in-band fraction {np.mean(fractions):.4f}, "
        f"median IPR {np.median(medians):.4f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
