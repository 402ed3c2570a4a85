#!/usr/bin/env python3
"""Invariant-metric bounds walkthrough: the convex-domain sandwich against
the exact ball metric, negative-witness lower bounds, the log-type
convexity fit, and path-integrated distance estimates.

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

    print("\nLog-type convexity fit on the ball (tangential probes included):")
    samples = []
    for k in range(2, 11):
        for j in range(20):
            d = 2.0 ** -k * (0.7 + 0.6 * rng.random())
            udir = rng.standard_normal(4)
            udir /= np.linalg.norm(udir)
            z = (1 - d) * (udir[:2] + 1j * udir[2:])
            v = np.array([-np.conj(z[1]), np.conj(z[0])]) if j % 2 == 0 else \
                rng.standard_normal(2) + 1j * rng.standard_normal(2)
            samples.append((z, v))
    fit = kx.ltc_fit(B, samples)
    print("  envelope delta(z;v) <= %.3f / |log delta(z)|^(1+%.2f), "
          "max violation %.2e" % (fit.C, fit.nu, fit.max_violation))
    b = kx.ltc_metric_lower_bound(fit, np.zeros(2, complex), kx.cpoint(1, 0),
                                  1e-4)
    print("  induced metric lower bound at delta = 1e-4: %.4f" % b.value)

    print("\nFlat-face counterexample (discs never shrink along the face):")
    P = kx.polydisc((1.0, 1.0))
    flat = [(np.array([1 - 2.0 ** -k, 0.05], dtype=complex),
             np.array([0.0, 1.0], dtype=complex)) for k in range(2, 12)
            for _ in range(8)]
    try:
        kx.ltc_fit(P, flat)
    except kx.NotLogTypeConvex as exc:
        print("  %s" % exc)

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
    lb = kx.pair_lower_bound(0.1, 0.1, K)
    print("  pair lower bound at delta = 0.1, 0.1: %.4f" % lb.value)


if __name__ == "__main__":
    main()
