"""Closed-form reference trajectories for the verification scenarios.

The pieces are hard-coded: wave speeds and plateau lengths follow from
constant-state fluxes and the drained buffer loads of the scenarios (see
docs/scenarios.md for the derivation).
"""

import math

import numpy as np

# three unit roads at densities 0.3 / 0.5 / 0.7, buffer waits at both
# interior nodes; domain ends when the car leaves the third road
LINEAR_T_END = 160.0 / 21.0

# single road of length 2 with a fan from the initial jump 0.4 -> 0.2 at
# x = 0.5; the car enters the fan at t = 1.25 and rides it to the end
RAREFACTION_T_END = (19.0 + 2.0 * math.sqrt(34.0)) / 10.0

_FAN_COEFF = 2.0 * math.sqrt(5.0) / 5.0

LINEAR_WAIT_FIRST = 8.0 / 5.0 - 10.0 / 7.0    # 6/35
LINEAR_WAIT_SECOND = 30.0 / 7.0 - 18.0 / 5.0  # 24/35


def linear_network_exact(t):
    """Exact position on the three-road constant-density network."""
    if t < 0.0 or t > LINEAR_T_END + 1e-12:
        raise ValueError(f"t={t} outside [0, {LINEAR_T_END}]")
    if t <= 10.0 / 7.0:
        return 0.7 * t
    if t <= 8.0 / 5.0:
        return 1.0
    if t <= 18.0 / 5.0:
        return 1.0 + 0.5 * (t - 1.6)
    if t <= 30.0 / 7.0:
        return 2.0
    return 2.0 + 0.3 * (t - 30.0 / 7.0)


def rarefaction_exact(t):
    """Exact position on the single road with an expanding fan."""
    if t < 0.0 or t > RAREFACTION_T_END + 1e-12:
        raise ValueError(f"t={t} outside [0, {RAREFACTION_T_END}]")
    if t < 1.25:
        return 0.6 * t
    return t - _FAN_COEFF * math.sqrt(t) + 0.5


# the trajectories a scenario's `oracle` setting may name, each with the
# end of its domain
ORACLES = {
    "linear": (linear_network_exact, LINEAR_T_END),
    "rarefaction": (rarefaction_exact, RAREFACTION_T_END),
}


def truncation_error(times, positions, exact, t_end=None):
    """Sup-norm error of sampled positions against a reference trajectory.

    Samples outside the reference domain (after `t_end`) are ignored.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if times.shape != positions.shape:
        raise ValueError(f"{times.shape} vs {positions.shape}")
    err = 0.0
    for t, x in zip(times, positions):
        if t_end is not None and t > t_end + 1e-12:
            continue
        err = max(err, abs(exact(t) - x))
    return err
