"""Scalar flux law and the derived demand/supply/Godunov interface fluxes.

The flux is fixed to f(rho) = rho * (1 - rho) with maximum at sigma = 0.5.
Every other module touches the fundamental diagram only through the
functions defined here.
"""

import numpy as np

from .errors import DensityOutOfRange

SIGMA = 0.5
F_MAX = 0.25  # f(SIGMA)

_CLAMP_TOL = 1e-12


def _check(rho):
    """Clamp round-off violations of [0, 1], raise on anything larger."""
    r = np.asarray(rho, dtype=float)
    lo, hi = (r.min(), r.max()) if r.size else (0.0, 0.0)
    if lo < -_CLAMP_TOL or hi > 1.0 + _CLAMP_TOL:
        bad = r[(r < -_CLAMP_TOL) | (r > 1.0 + _CLAMP_TOL)]
        raise DensityOutOfRange(f"density outside [0,1]: {bad[0]!r}")
    if lo < 0.0 or hi > 1.0:
        r = np.clip(r, 0.0, 1.0)
    return r if r.ndim else float(r)


def flux(rho):
    """Flow f(rho) = rho (1 - rho)."""
    r = _check(rho)
    return r * (1.0 - r)


def velocity(rho):
    """Car speed v(rho) = 1 - rho."""
    return 1.0 - _check(rho)


def flux_derivative(rho):
    """Wave speed f'(rho) = 1 - 2 rho."""
    return 1.0 - 2.0 * _check(rho)


def demand(rho):
    """Maximum flux a road can send downstream."""
    r = _check(rho)
    return np.where(r <= SIGMA, r * (1.0 - r), F_MAX)


def supply(rho):
    """Maximum flux a road can absorb."""
    r = _check(rho)
    return np.where(r <= SIGMA, F_MAX, r * (1.0 - r))


def godunov_flux(u, v):
    """Godunov interface flux min{demand(u), supply(v)} for concave f."""
    return np.minimum(demand(u), supply(v))
