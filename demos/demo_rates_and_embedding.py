#!/usr/bin/env python3
"""Low-regularity machinery walkthrough: endpoint rate integrals, the
integrated modulus, the attached planar model domain, and the normal
embedding verification at the infinitely flat boundary point.

Run:  python demos/demo_rates_and_embedding.py
"""

import math

import numpy as np

import kobex as kx
from kobex import charts


def main():
    print("=" * 70)
    print("RATE FUNCTIONS, MODEL DOMAINS, AND THE NORMAL EMBEDDING")
    print("=" * 70)

    print("\nEndpoint integrability of monotone rates, int_0^1 omega(r)/r dr:")
    for name, fn in [("sqrt(r)", np.sqrt), ("r", lambda r: r)]:
        w = kx.ModulusOfContinuity.from_function(fn, 1.0, name=name)
        res = kx.dini_integral(w, 1.0)
        print("  omega = %-8s -> %.9f" % (name, res.value))
    def slow(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            v = 1.0 / (1.0 + np.abs(np.log(np.where(r > 0, r, 1.0))))
        return np.where(r > 0, v, 0.0)
    res = kx.dini_integral(kx.ModulusOfContinuity.from_function(slow, 1.0), 1.0)
    print("  omega = 1/(1+|log r|) -> %s" % ("DIVERGENT" if res.divergent else res.value))
    comp = kx.composed_rate(kx.ModulusOfContinuity.from_function(np.sqrt, 1.0),
                            3.0, 0.5)
    print("  composed omega(3 r^0.5) stays integrable: %.6f"
          % kx.dini_integral(comp, comp.domain_end).value)

    print("\nIntegrated modulus h and the attached model domain:")
    w_lin = kx.ModulusOfContinuity.from_function(lambda r: r, 1.0)
    print("  h(0.3) for omega = r          : %.6f  (= 0.3^2/2)"
          % kx.h_integral(w_lin, 0.3))
    params = kx.select_embedding_params(charts.flat_chart(), m=1.0, r_V=0.1,
                                        omega=w_lin)
    print("  selected beta = %.4f (= 4 sqrt 2), eps = %.6f (binding: %s)"
          % (params.beta, params.eps, params.provenance["binding"]))
    zs = kx.sample_model_domain(params, 5, seed=0)
    print("  model-domain samples          :",
          np.array2string(zs, precision=4))

    print("\nEmbedding at the infinitely flat boundary point (0, 0):")
    D = kx.ex22_D()
    chart = charts.ex22_chart()
    omega_p = kx.estimate_modulus(chart)
    print("  estimated gradient modulus at full separation: %.3e"
          % float(omega_p(omega_p.domain_end)))
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 60:
        c = (rng.random(3) - 0.5) * 0.3
        if np.linalg.norm(c) > 0.15:
            continue
        val = float(chart.phi(c))
        pts.append(chart.from_chart(np.array([c[0] + 1j * c[1],
                                              c[2] + 1j * val])))
    coords = np.array([chart.base_coords(chart.to_chart(p)) for p in pts])
    g = chart.grad_phi(coords)
    m = float(np.min(np.sqrt(1.0 + np.sum(g * g, axis=-1))))
    params = kx.select_embedding_params(chart, m=m, r_V=0.1, omega=omega_p)
    print("  beta = %.4f, eps = %.6f" % (params.beta, params.eps))
    zetas = kx.sample_model_domain(params, 80, seed=1)
    rep = kx.verify_embedding(D, chart, pts, params, zetas)
    print("  normal embeddings checked     : %d pairs, %d violations"
          % (rep.n_pairs, len(rep.violations)))
    doubled = kx.ModelDomainParams(beta=params.beta, eps=2 * params.eps,
                                   omega=params.omega)
    rep2 = kx.verify_embedding(D, chart, pts, doubled,
                               kx.sample_model_domain(doubled, 80, seed=1))
    print("  negative control (2x eps)     : %d violations"
          % len(rep2.violations))

    print("\nVertical height against boundary distance (per chart):")
    for name, mk_chart, mk_dom in (
            ("flat", charts.flat_chart, charts.flat_domain),
            ("tilted45", charts.tilted_chart, charts.tilted_domain),
            ("ball", charts.ball_chart, lambda: kx.ball(2))):
        ch = mk_chart()
        Dm = mk_dom()
        samples = []
        while len(samples) < 100:
            c = (rng.random(3) - 0.5) * (0.5 * ch.radius)
            zp = c[0] + 1j * c[1]
            if abs(zp) >= 0.25 * ch.radius:
                continue
            val = float(ch.phi(np.array([c[0], c[1], c[2]])))
            Z = np.array([zp, c[2] + 1j * (val + rng.random() * 0.2 * ch.radius + 1e-6)])
            pt = ch.from_chart(Z)
            if bool(kx.contains(Dm, pt)) and ch.in_box(Z):
                samples.append(pt)
        C = kx.verify_lipschitz_sandwich(Dm, ch, np.array(samples))
        print("  %-9s delta <= Y <= %.4f * delta   (Lip bound %.4f)"
              % (name, C, math.sqrt(1 + ch.lipschitz_estimate() ** 2)))


if __name__ == "__main__":
    main()
