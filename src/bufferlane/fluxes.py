"""Scalar flux law and the derived demand/supply/Godunov interface fluxes.

The flux is fixed to f(rho) = rho * (1 - rho) with maximum at sigma = 0.5.
Every other module touches the fundamental diagram only through the
functions defined here.  Their domain is densities in [0, 1]; they do not
check it.  `solver.simulate` checks the initial state once and every step
checks the state it makes, so every density that reaches them is in range.
"""

import numpy as np

SIGMA = 0.5
F_MAX = 0.25  # f(SIGMA)


def flux(rho):
    """Flow f(rho) = rho (1 - rho)."""
    return rho * (1.0 - rho)


def velocity(rho):
    """Car speed v(rho) = 1 - rho."""
    return 1.0 - rho


def flux_derivative(rho):
    """Wave speed f'(rho) = 1 - 2 rho."""
    return 1.0 - 2.0 * rho


def demand(rho):
    """Maximum flux a road can send downstream."""
    return np.where(rho <= SIGMA, rho * (1.0 - rho), F_MAX)


def supply(rho):
    """Maximum flux a road can absorb."""
    return np.where(rho <= SIGMA, F_MAX, rho * (1.0 - rho))


def godunov_flux(u, v):
    """Godunov interface flux min{demand(u), supply(v)} for concave f."""
    return np.minimum(demand(u), supply(v))
