"""Flux law, demand/supply split and the Godunov interface flux."""

import numpy as np
import pytest

from bufferlane import fluxes
import reference


def demand_and_supply(rho):
    """`fluxes.demand_supply` of `rho`, a number or an array."""
    rho = np.asarray(rho, dtype=float)
    out = np.empty((2, rho.size))
    fluxes.demand_supply(rho.ravel(), out, np.empty_like(out))
    return out.reshape(2, *rho.shape)


def demand(rho):
    return demand_and_supply(rho)[0]


def supply(rho):
    return demand_and_supply(rho)[1]


def test_flux_values():
    assert reference.flux(0.0) == 0.0
    assert reference.flux(1.0) == 0.0
    assert reference.flux(0.5) == pytest.approx(0.25, abs=0)
    assert reference.flux(0.3) == pytest.approx(0.21, abs=1e-15)
    assert reference.flux(0.7) == pytest.approx(0.21, abs=1e-15)


def test_velocity_and_derivative():
    for velocity in (fluxes.velocity, reference.velocity):
        assert velocity(0.0) == 1.0
        assert velocity(0.3) == pytest.approx(0.7)
    assert reference.flux_derivative(0.5) == 0.0
    assert reference.flux_derivative(0.2) == pytest.approx(0.6)
    assert reference.flux_derivative(0.8) == pytest.approx(-0.6)


def test_demand_supply_split():
    # below the maximizer the road sends f and can absorb the full 0.25
    assert demand(0.3) == pytest.approx(0.21)
    assert supply(0.3) == 0.25
    # above it the roles swap
    assert demand(0.7) == 0.25
    assert supply(0.7) == pytest.approx(0.21)
    assert demand(0.5) == 0.25
    assert supply(0.5) == 0.25
    assert demand(0.0) == 0.0
    assert supply(1.0) == 0.0


def test_demand_plus_supply_identity():
    rho = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(demand(rho) + supply(rho),
                               reference.flux(rho) + fluxes.F_MAX, atol=1e-15)


def test_demand_supply_monotone():
    rho = np.linspace(0.0, 1.0, 401)
    d = demand(rho)
    s = supply(rho)
    assert np.all(np.diff(d) >= -1e-15)
    assert np.all(np.diff(s) <= 1e-15)


def godunov(u, v):
    """Godunov flux between cells of density u (left) and v (right); the
    flux is written over an array of the demands."""
    return fluxes.godunov_flux(np.array(demand(u)), supply(v))


def test_godunov_flux_values():
    assert godunov(0.3, 0.3) == pytest.approx(0.21)
    assert godunov(0.8, 0.2) == pytest.approx(0.25)
    assert godunov(0.2, 0.8) == pytest.approx(0.16)
    assert godunov(0.0, 1.0) == 0.0


def test_godunov_consistency():
    rho = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(godunov(rho, rho), reference.flux(rho),
                               atol=1e-15)


def test_godunov_bounded_by_demand_and_supply():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, 1000)
    v = rng.uniform(0.0, 1.0, 1000)
    g = godunov(u, v)
    assert np.all(g <= demand(u) + 1e-15)
    assert np.all(g <= supply(v) + 1e-15)
    assert np.all(g >= 0.0)


def test_vectorized_matches_scalar():
    # the array pass against the scalar reference, bit for bit
    rho = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(demand(rho),
                                  [reference.demand(r) for r in rho])
    np.testing.assert_array_equal(supply(rho),
                                  [reference.supply(r) for r in rho])

