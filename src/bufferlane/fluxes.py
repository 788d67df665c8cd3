"""Flux law and the derived demand/supply/Godunov interface fluxes.

The flux is fixed to f(rho) = rho * (1 - rho) with maximum at sigma = 0.5.
The field, and the tracker outside its car steps, touch the fundamental
diagram only through the functions defined here.  The car steps write f,
the speed v = 1 - rho and the wave speed f' = 1 - 2 rho out inline, to
make no call per step; `tests/reference.py` holds the same steps through
the named formulas, and a test holds the two equal bit for bit.  The domain is densities in
[0, 1], and nothing here checks it: `solver.simulate` checks the initial
state once and every step checks the state it makes, so every density
that reaches these functions is in range.
"""

import numpy as np

SIGMA = np.float64(0.5)  # a numpy scalar: quicker in ufuncs
F_MAX = 0.25  # f(SIGMA)


def velocity(rho):
    """Car speed v(rho) = 1 - rho."""
    return 1.0 - rho


def demand_supply(rho, out, spare):
    """Demand f(min(rho, sigma)), the most a cell can send downstream, and
    supply f(max(rho, sigma)), the most it can absorb, of every cell of
    `rho`, written to the two rows of `out`.  `spare`, of the shape of
    `out`, takes 1 - out."""
    np.minimum(rho, SIGMA, out=out[0])
    np.maximum(rho, SIGMA, out=out[1])
    out *= np.subtract(1.0, out, out=spare)
    return out


def godunov_flux(d, s):
    """Godunov interface flux for concave f: the smaller of the sending
    cells' demands `d` and the receiving cells' supplies `s`, written over
    the array `d` and returned."""
    return np.minimum(d, s, out=d)
