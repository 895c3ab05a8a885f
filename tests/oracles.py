"""Test oracles: exact quantities the library is checked against, kept out
of the package because no program path uses them."""

import numpy as np
import pytest

from lrdforecast import InvalidD


def theoretical_acf_arfima0d0(d: float, max_lag: int) -> np.ndarray:
    """Exact autocorrelations of the pure fractional-noise process.

    rho(k) = rho(k-1) * (k-1+d) / (k-d) with rho(0) = 1; the sequence
    decays like k**(2d-1), the defining power law of long memory.
    """
    if not -0.5 < d < 0.5:
        raise InvalidD("theoretical ACF needs d in (-0.5, 0.5)")
    if max_lag < 0:
        raise InvalidD("max_lag must be non-negative")
    if max_lag == 0:
        return np.ones(1)
    k = np.arange(1, max_lag + 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((k - 1 + d) / (k - d))))


class TestTheoreticalAcf:
    def test_d_zero_is_white(self):
        np.testing.assert_array_equal(theoretical_acf_arfima0d0(0.0, 10)[1:], np.zeros(10))

    def test_first_lag_closed_form(self):
        rho = theoretical_acf_arfima0d0(0.3, 1)
        assert rho[1] == pytest.approx(0.3 / 0.7)

    def test_power_law_tail(self):
        # log rho(k) vs log k slope tends to 2d - 1
        d = 0.35
        rho = theoretical_acf_arfima0d0(d, 1000)
        k = np.arange(100, 1001)
        slope = np.polyfit(np.log(k), np.log(rho[100:]), 1)[0]
        assert slope == pytest.approx(2 * d - 1, abs=0.02)
