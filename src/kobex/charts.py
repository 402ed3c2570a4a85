"""Bundled boundary graph charts for the stock domains.

Each chart rotates the inward normal at its base point onto the positive
imaginary axis of the last coordinate, so the domain locally becomes
{ Im Z_n > phi(Z', Re Z_n) }.  The chart matrices are exact unitaries and
the graph functions are closed-form.
"""

import numpy as np

from .domains import _phi_flat, halfspace
from .regularity import GraphChart


def ex21_chart():
    """Chart for { |z|^2 + |w| < 1 } at the non-smooth boundary point (1, 0).

    Z1 = w, Z2 = -i (z - 1); the boundary graph is
    phi(Z1, X) = 1 - sqrt(1 - X^2 - |Z1|), Lipschitz but not C^1 at Z1 = 0.
    """
    U = np.array([[0.0, 1.0], [-1j, 0.0]], dtype=complex)

    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        absz1 = np.hypot(coords[..., 0], coords[..., 1])
        x = coords[..., -1]
        rad = np.maximum(1.0 - x * x - absz1, 0.0)
        return 1.0 - np.sqrt(rad)

    return GraphChart(base=np.array([1.0, 0.0], dtype=complex), unitary=U,
                      radius=0.25, phi=phi, regularity="lipschitz",
                      name="ex21@(1,0)")


def ex22_chart():
    """Chart for { Re z > phi(|w|^2) } cap { |z|^2 + |w|^4 < 1 } at (0, 0).

    Z1 = w, Z2 = i z; the graph is phi(Z1, X) = exp(-1/|Z1|^4), flat to all
    orders at Z1 = 0 and independent of X; C^1 with a Lipschitz gradient.
    """
    U = np.array([[0.0, 1.0], [1j, 0.0]], dtype=complex)

    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        t = coords[..., 0] ** 2 + coords[..., 1] ** 2
        return _phi_flat(t) + 0.0 * coords[..., -1]

    def grad_phi(coords):
        coords = np.asarray(coords, dtype=float)
        u = coords[..., 0]
        v = coords[..., 1]
        rho2 = u * u + v * v
        val = _phi_flat(rho2)  # exp(-1/rho^4)
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.where(rho2 > 0, 4.0 * val / np.where(rho2 > 0, rho2, 1.0) ** 3, 0.0)
        out = np.zeros(coords.shape)
        out[..., 0] = fac * u
        out[..., 1] = fac * v
        return out

    return GraphChart(base=np.zeros(2, dtype=complex), unitary=U,
                      radius=0.25, phi=phi, grad_phi=grad_phi,
                      regularity="c1_dini", name="ex22@(0,0)")


def ball_chart():
    """Chart for the unit ball at (1, 0): phi = 1 - sqrt(1 - X^2 - |Z1|^2)."""
    U = np.array([[0.0, 1.0], [-1j, 0.0]], dtype=complex)

    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        q = coords[..., 0] ** 2 + coords[..., 1] ** 2 + coords[..., -1] ** 2
        return 1.0 - np.sqrt(np.maximum(1.0 - q, 0.0))

    return GraphChart(base=np.array([1.0, 0.0], dtype=complex), unitary=U,
                      radius=0.25, phi=phi, regularity="c1_dini", name="ball@(1,0)")


def flat_chart():
    """Identity chart for the flat half-space { Im w > 0 } (truncated)."""
    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        return 0.0 * coords[..., -1]

    def grad_phi(coords):
        return np.zeros(np.asarray(coords, dtype=float).shape)

    return GraphChart(base=np.zeros(2, dtype=complex),
                      unitary=np.eye(2, dtype=complex), radius=0.5,
                      phi=phi, grad_phi=grad_phi, regularity="c1_dini",
                      lip=0.0, name="flat")


def flat_domain():
    """{ Im w > 0 } truncated to a ball, matching flat_chart."""
    return halfspace(np.array([0.0, -1j]), 0.0, name="flat_half")


def tilted_chart():
    """Identity chart for { Im w > Re z }: phi(Z1, X) = Re Z1, slope one."""
    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        return coords[..., 0]

    return GraphChart(base=np.zeros(2, dtype=complex),
                      unitary=np.eye(2, dtype=complex), radius=0.5,
                      phi=phi, regularity="c1_dini", lip=1.0, name="tilted45")


def tilted_domain():
    """{ Im w > Re z } truncated to a ball, matching tilted_chart."""
    return halfspace(np.array([1.0, -1j]), 0.0, name="tilted_half")


BUNDLED_CHARTS = {
    "ex21": ex21_chart,
    "ex22": ex22_chart,
    "ball": ball_chart,
    "flat": flat_chart,
    "tilted45": tilted_chart,
}
