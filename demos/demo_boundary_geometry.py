#!/usr/bin/env python3
"""Boundary geometry walkthrough: distances, directional distances, nearest
points and inward normals on the bundled domains.

Run:  python demos/demo_boundary_geometry.py
"""

import math

import numpy as np

import kobex as kx


def main():
    print("=" * 70)
    print("BOUNDARY GEOMETRY ON THE BUNDLED DOMAINS")
    print("=" * 70)

    B = kx.ball(2)
    z = kx.cpoint(0.5, 0)
    print("\nUnit ball B^2, z = (0.5, 0):")
    print("  distance to the boundary        : %.12f" % kx.boundary_distance(B, z))
    print("  widest disc along e1            : %.12f"
          % kx.directional_distance(B, z, kx.cpoint(1, 0)))
    print("  widest disc along e2            : %.12f  (sqrt(0.75) = %.12f)"
          % (kx.directional_distance(B, z, kx.cpoint(0, 1)), math.sqrt(0.75)))
    print("  nearest boundary point          :", kx.nearest_boundary_point(B, z))
    print("  inward normal at (1, 0)         :", kx.inward_normal(B, kx.cpoint(1, 0)))

    Om = kx.ex21_Omega()
    z = kx.cpoint(0.3 * np.exp(0.8j), 0.2 * np.exp(-1.9j))
    print("\nCorner-sum domain { |z| + |w| < 1 }, |z| = 0.3, |w| = 0.2:")
    print("  closed-form distance            : %.12f" % kx.boundary_distance(Om, z))
    print("  (1 - |z| - |w|) / sqrt(2)       : %.12f" % ((1 - 0.5) / math.sqrt(2)))
    print("  moduli-section recomputation    : %.12f"
          % kx.boundary_distance(Om, z, method="reinhardt"))
    print("  full direction-search recompute : %.12f"
          % kx.boundary_distance(Om, z, method="generic"))
    try:
        kx.inward_normal(Om, kx.cpoint(1, 0))
    except kx.NonSmoothBoundaryError as exc:
        print("  inward normal at the corner     : %s" % exc)

    D = kx.ex21_D()
    z = kx.cpoint(0.95, 0)
    xi = kx.nearest_boundary_point(D, z)
    X, Y = kx.nearest_point_cubic(0.95, 0.0)
    print("\nCurve-capped domain { |z|^2 + |w| < 1 }, z = (0.95, 0):")
    print("  nearest boundary point          : (%.8f, %.8f)"
          % (xi[0].real, xi[1].real))
    print("  cubic-root prediction           : (%.8f, %.8f)" % (X, Y))

if __name__ == "__main__":
    main()
