#!/usr/bin/env python3
"""Invariant-metric bounds walkthrough: the convex-domain sandwich against
the exact ball metric, negative-witness lower bounds, and path-integrated
distance estimates.

Run:  python demos/demo_metric_bounds.py
"""

import math

import numpy as np

import kobex as kx


def main():
    print("=" * 70)
    print("ONE-SIDED METRIC BOUNDS")
    print("=" * 70)

    B = kx.ball(2)
    rng = np.random.default_rng(0)
    print("\nConvex sandwich |v|/(2 delta(z;v)) <= k(z;v) <= |v|/delta(z;v):")
    print("  %8s %10s %10s %10s" % ("|z|", "lower", "exact", "upper"))
    for _ in range(5):
        z = (rng.random(2) - 0.5) + 1j * (rng.random(2) - 0.5)
        if np.linalg.norm(z) > 0.9:
            continue
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lo, hi = kx.graham_bounds(B, z, v)
        exact = kx.kob_metric_ball_exact(z, v)
        print("  %8.3f %10.4f %10.4f %10.4f"
              % (np.linalg.norm(z), lo.value, exact, hi.value))

    print("\nNegative-witness lower bound (recorded uniform constant):")
    u = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    b = kx.sibony_lower_bound(u, kx.cpoint(0.3, 0.1), kx.cpoint(1, 0), c=1.0)
    print("  value %.4f with constants %s" % (b.value, b.constants))

    print("\nPath-integrated distance upper estimates vs the exact ball law:")
    pairs = [(kx.cpoint(0.9, 0), kx.cpoint(0, 0.9)),
             (kx.cpoint(0.5, 0), kx.cpoint(-0.5, 0))]
    ests = kx.path_distance_upper_batch(B, [z1 for z1, _ in pairs], [z2 for _, z2 in pairs])
    for (z1, z2), est in zip(pairs, ests.tolist()):
        exact = kx.kob_distance_ball_exact(z1, z2)
        print("  est %.4f >= exact %.4f" % (est, exact))
    K = kx.fit_pair_constant(B, np.zeros(2, complex),
                             [kx.cpoint(0.9, 0)], [kx.cpoint(0, 0.9)])
    print("  fitted pair constant K = %.4f" % K)


if __name__ == "__main__":
    main()
