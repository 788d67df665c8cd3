"""Flux law, demand/supply split and the Godunov interface flux."""

import numpy as np
import pytest

from bufferlane import fluxes


def test_flux_values():
    assert fluxes.flux(0.0) == 0.0
    assert fluxes.flux(1.0) == 0.0
    assert fluxes.flux(0.5) == pytest.approx(0.25, abs=0)
    assert fluxes.flux(0.3) == pytest.approx(0.21, abs=1e-15)
    assert fluxes.flux(0.7) == pytest.approx(0.21, abs=1e-15)


def test_velocity_and_derivative():
    assert fluxes.velocity(0.0) == 1.0
    assert fluxes.velocity(0.3) == pytest.approx(0.7)
    assert fluxes.flux_derivative(0.5) == 0.0
    assert fluxes.flux_derivative(0.2) == pytest.approx(0.6)
    assert fluxes.flux_derivative(0.8) == pytest.approx(-0.6)


def test_demand_supply_split():
    # below the maximizer the road sends f and can absorb the full 0.25
    assert fluxes.demand(0.3) == pytest.approx(0.21)
    assert fluxes.supply(0.3) == 0.25
    # above it the roles swap
    assert fluxes.demand(0.7) == 0.25
    assert fluxes.supply(0.7) == pytest.approx(0.21)
    assert fluxes.demand(0.5) == 0.25
    assert fluxes.supply(0.5) == 0.25
    assert fluxes.demand(0.0) == 0.0
    assert fluxes.supply(1.0) == 0.0


def test_demand_plus_supply_identity():
    rho = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(fluxes.demand(rho) + fluxes.supply(rho),
                               fluxes.flux(rho) + fluxes.F_MAX, atol=1e-15)


def test_demand_supply_monotone():
    rho = np.linspace(0.0, 1.0, 401)
    d = fluxes.demand(rho)
    s = fluxes.supply(rho)
    assert np.all(np.diff(d) >= -1e-15)
    assert np.all(np.diff(s) <= 1e-15)


def test_godunov_flux_values():
    assert fluxes.godunov_flux(0.3, 0.3) == pytest.approx(0.21)
    assert fluxes.godunov_flux(0.8, 0.2) == pytest.approx(0.25)
    assert fluxes.godunov_flux(0.2, 0.8) == pytest.approx(0.16)
    assert fluxes.godunov_flux(0.0, 1.0) == 0.0


def test_godunov_consistency():
    rho = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(fluxes.godunov_flux(rho, rho),
                               fluxes.flux(rho), atol=1e-15)


def test_godunov_bounded_by_demand_and_supply():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, 1000)
    v = rng.uniform(0.0, 1.0, 1000)
    g = fluxes.godunov_flux(u, v)
    assert np.all(g <= fluxes.demand(u) + 1e-15)
    assert np.all(g <= fluxes.supply(v) + 1e-15)
    assert np.all(g >= 0.0)


def test_vectorized_matches_scalar():
    rho = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(fluxes.demand(rho),
                               [fluxes.demand(r) for r in rho])
    np.testing.assert_allclose(fluxes.supply(rho),
                               [fluxes.supply(r) for r in rho])

