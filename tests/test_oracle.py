"""Closed-form reference trajectories and the truncation-error functional."""

import math
import re

import numpy as np
import pytest

from bufferlane import oracle


class TestLinearNetworkExact:
    def test_piece_values(self):
        assert oracle.linear_network_exact(1.0) == pytest.approx(0.7)
        assert oracle.linear_network_exact(10.0 / 7.0) == pytest.approx(1.0)
        assert oracle.linear_network_exact(1.5) == pytest.approx(1.0)
        assert oracle.linear_network_exact(8.0 / 5.0) == pytest.approx(1.0)
        assert oracle.linear_network_exact(2.6) == pytest.approx(1.5)
        assert oracle.linear_network_exact(30.0 / 7.0) == pytest.approx(2.0)
        assert oracle.linear_network_exact(oracle.LINEAR_T_END) == \
            pytest.approx(3.0)

    def test_domain(self):
        end = oracle.LINEAR_T_END
        with pytest.raises(ValueError,
                           match=re.escape(f"t=-0.1 outside [0, {end}]")):
            oracle.linear_network_exact(-0.1)
        with pytest.raises(ValueError, match=re.escape(
                f"t={end + 0.1} outside [0, {end}]")):
            oracle.linear_network_exact(end + 0.1)

    def test_continuous_and_monotone(self):
        ts = np.linspace(0.0, oracle.LINEAR_T_END, 10_000)
        xs = np.array([oracle.linear_network_exact(t) for t in ts])
        assert np.all(np.diff(xs) >= -1e-12)
        assert np.max(np.abs(np.diff(xs))) < 1e-3  # no jumps

    def test_plateau_lengths_are_the_waits(self):
        assert oracle.LINEAR_WAIT_FIRST == pytest.approx(6.0 / 35.0)
        assert oracle.LINEAR_WAIT_SECOND == pytest.approx(24.0 / 35.0)
        assert oracle.LINEAR_T_END == pytest.approx(160.0 / 21.0)


class TestRarefactionExact:
    def test_piece_values(self):
        assert oracle.rarefaction_exact(1.0) == pytest.approx(0.6)
        assert oracle.rarefaction_exact(1.25) == pytest.approx(0.75)
        assert oracle.rarefaction_exact(oracle.RAREFACTION_T_END) == \
            pytest.approx(2.0)
        assert oracle.RAREFACTION_T_END == pytest.approx(
            (19.0 + 2.0 * math.sqrt(34.0)) / 10.0)

    def test_continuity_at_fan_entry(self):
        eps = 1e-9
        left = oracle.rarefaction_exact(1.25 - eps)
        right = oracle.rarefaction_exact(1.25 + eps)
        assert left == pytest.approx(right, abs=1e-7)

    def test_monotone(self):
        ts = np.linspace(0.0, oracle.RAREFACTION_T_END, 10_000)
        xs = np.array([oracle.rarefaction_exact(t) for t in ts])
        assert np.all(np.diff(xs) >= -1e-12)

    def test_domain(self):
        end = oracle.RAREFACTION_T_END
        with pytest.raises(ValueError, match=re.escape(
                f"t={end + 0.2} outside [0, {end}]")):
            oracle.rarefaction_exact(end + 0.2)


class TestTruncationError:
    def test_identical_inputs_zero(self):
        ts = np.linspace(0.0, 1.0, 11)
        xs = np.array([oracle.rarefaction_exact(t) for t in ts])
        assert oracle.truncation_error(ts, xs, oracle.rarefaction_exact) == 0.0

    def test_sup_norm(self):
        ts = np.array([0.0, 0.5, 1.0])
        xs = np.array([0.0, 0.31, 0.59])
        err = oracle.truncation_error(ts, xs, oracle.rarefaction_exact)
        assert err == pytest.approx(0.01, abs=1e-12)

    def test_samples_past_domain_ignored(self):
        ts = np.array([0.0, 1.0, 5.0])
        xs = np.array([0.0, 0.6, 99.0])
        err = oracle.truncation_error(ts, xs, oracle.rarefaction_exact,
                                      t_end=oracle.RAREFACTION_T_END)
        assert err == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("(2,) vs (1,)")):
            oracle.truncation_error([0.0, 1.0], [0.0],
                                    oracle.rarefaction_exact)
