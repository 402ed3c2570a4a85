#!/usr/bin/env python3
"""Paired-sequence dichotomy walkthrough: two sequences approaching one
boundary point whose images are forced toward two distinct boundary
points.  The source-side distance upper bound and the target-side pair
lower bound cannot coexist once the diverging quantity l grows past the
fitted constants: the consistency margin fails at a finite index, which
is why no such map exists and boundary values are single-valued.

Run:  python demos/demo_dichotomy.py
"""

import numpy as np

import kobex as kx


def main():
    print("=" * 70)
    print("PAIRED-SEQUENCE DICHOTOMY IN THE BALL")
    print("=" * 70)

    B = kx.ball(2)
    o = np.zeros(2, dtype=complex)
    N = 24
    nus = np.arange(1, N + 1)
    d = 2.0 ** -nus.astype(float)
    th = 2.0 ** (-nus / 2.0)
    z1 = np.stack([1 - d, np.zeros(N)], axis=-1).astype(complex)
    z2 = np.stack([(1 - d) * np.cos(th), (1 - d) * np.sin(th)],
                  axis=-1).astype(complex)
    w1 = z1.copy()
    w2 = np.stack([np.zeros(N), 1 - d], axis=-1).astype(complex)

    print("\nFitting the bridge constants:")
    K = kx.fit_pair_constant(B, o, [kx.cpoint(0.95, 0), kx.cpoint(0.98, 0)],
                             [kx.cpoint(0, 0.95), kx.cpoint(0, 0.98)])
    print("  target pair constant K = %.4f" % K)
    est = kx.path_distance_upper_batch(B, z1[:4], z2[:4])
    sep = np.linalg.norm(z1[:4] - z2[:4], axis=-1)
    C = max(0.0, float(np.max(est - kx.separation_bound(d[:4], d[:4], sep))))
    print("  source separation constant C = %.4f" % C)
    print("  barrier comparison constant C0 = 1 (the witness is -delta)")

    seqs = kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=w2, C=C, K=K, C0=1.0,
                                 q=np.array([1, 0], dtype=complex),
                                 xi=np.array([0, 1], dtype=complex),
                                 sep_radius=0.5)
    rep = kx.dichotomy_report(seqs, D=B, Omega=B)
    print("\nPer-index table (margin = K + C - log C0 - l):\n")
    print(rep.table())
    print("\n  l grows monotonically: %s"
          % bool(np.all(np.diff(rep["l"]) >= -1e-12)))
    print("  first failing index  : %s" % rep.first_failure)

    print("\nControl: images collapsing to a single point stay consistent")
    seqs_same = kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=z2.copy(),
                                      C=C, K=K, C0=1.0,
                                      q=np.array([1, 0], dtype=complex),
                                      xi=np.array([1, 0], dtype=complex),
                                      sep_radius=0.01)
    rep_same = kx.dichotomy_report(seqs_same, D=B, Omega=B)
    print("  all rows consistent: %s (pair bound inapplicable: the declared"
          % bool(np.all(rep_same["consistent"])))
    print("  neighborhoods coincide, so no contradiction arises)")


if __name__ == "__main__":
    main()
