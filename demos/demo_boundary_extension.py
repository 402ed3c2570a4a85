#!/usr/bin/env python3
"""Boundary extension walkthrough: recovering boundary values of the
square-first proper map along inward vertical lines, with the ladder
certificates, and checking the recovered values against direct evaluation
(the map is entire, so the truth is available).

Run:  python demos/demo_boundary_extension.py
"""

import math

import numpy as np

import kobex as kx
from kobex import charts

EV = np.array([0.0, 1j])


def main():
    print("=" * 70)
    print("HARDY-LITTLEWOOD BOUNDARY EXTENSION AT THE CORNER CHART")
    print("=" * 70)

    chart = charts.ex21_chart()

    def F(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)

    def jac(z):
        z = np.asarray(z, dtype=complex)
        J = np.zeros(z.shape + (2,), dtype=complex)
        J[..., 0, 0] = 2.0 * z[..., 0]
        J[..., 1, 1] = 1.0
        return J

    fmap = kx.HolomorphicMap.from_ambient(F, chart, jacobian=jac)
    M = kx.ModulusOfContinuity.from_function(
        lambda t: 2.0 * math.sqrt(2.0) * np.sqrt(t), 8.0, name="sqrt-rate")
    psi = kx.make_psi(M, s=1.0, alpha_star=1.0, C=1.7)
    print("\nDerivative rate: psi(y) = (C/y) M(C y), M(t) = 2 sqrt(2 t), C = 1.7")
    print("  rate tail int_0^t psi at t = 0.005: %.3e" % kx.psi_tail(psi, 0.005))

    xi = chart.boundary_point(np.array([0.04 - 0.02j]), 0.03)
    print("\nSingle boundary point, chart coordinates:", np.round(xi, 5))
    res = kx.boundary_value(fmap, xi, 0.005, 2.5e-7, psi=psi)
    print("  ladder stopped at rung %d (t = %.2e)" % (res.levels, res.t_used))
    print("  recovered value      :", np.round(res.value, 10))
    print("  direct evaluation    :", np.round(np.asarray(fmap.fn(xi)), 10))
    print("  certified tail budget: %.2e (< tol)" % res.err_budget)
    print("  telescoping residual : %.2e" % res.quadrature_error)

    print("\nVertical-line integral reproduces the coordinate difference:")
    val, err = kx.normal_line_integral(fmap, xi, 1e-4, 0.005, psi=psi)
    direct = np.asarray(fmap.fn(xi + 0.005 * EV)) - np.asarray(fmap.fn(xi + 1e-4 * EV))
    print("  integral %.3e off the difference, error estimate %.1e"
          % (float(np.max(np.abs(val - direct))), err))

    print("\n20x20 boundary grid:")
    gx = np.linspace(-0.1, 0.1, 20)
    grid = np.array([chart.boundary_point(np.array([a + 0j]), b)
                     for a in gx for b in gx])
    results = kx.extend_map(fmap, chart, grid, tprime=0.005, tol=2.5e-7, psi=psi)
    direct = np.asarray(fmap.fn(grid))
    dev = max(float(np.max(np.abs(r.value - d)))
              for r, d in zip(results, direct))
    print("  max deviation from the entire map: %.2e" % dev)
    ladder = kx.PsiLadder(psi, 0.005)
    cont = kx.continuity_modulus(results[:100], fmap, ladder)
    print("  empirical boundary modulus:")
    for r, e, c in zip(cont.radii, cont.empirical, cont.certified):
        print("    within %.3f : max deviation %.4f (certified %.4f)"
              % (r, e, c))

    print("\nCluster set of the map at the corner (two approach sequences):")
    p = np.array([1.0, 0.0], dtype=complex)
    seqs = [np.array([[1 - 4.0 ** -k, 0] for k in range(1, 14)], dtype=complex),
            np.array([[(1 - 4.0 ** -k) * np.exp(1j * 4.0 ** -k), 0.5 * 4.0 ** -k]
                      for k in range(1, 14)], dtype=complex)]
    reps = kx.cluster_set_sample(F, p, seqs)
    print("  representatives:", [np.round(r, 6) for r in reps])


if __name__ == "__main__":
    main()
