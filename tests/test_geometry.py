"""TDOA <-> direction conversions and the transit-time gate."""

import numpy as np
import pytest

from itfmap.geometry import (
    ArrayGeometry,
    direction_from_tdoa,
    tdoa_from_direction,
)

# the textbook-speed geometry reproduces transit time 5e-8 s exactly
G = ArrayGeometry(d=15.0, c=3e8)


class TestForward:
    def test_zenith(self):
        est = direction_from_tdoa(0.0, 0.0, G)
        assert (est.az_deg, est.el_deg, est.valid, est.gate_value) == (0.0, 90.0, True, 0.0)

    def test_boundary_345_triangle(self):
        # (30 ns, 40 ns): gate = (3e8/15)*50e-9 = 1 exactly -> El 0, valid
        est = direction_from_tdoa(30e-9, 40e-9, G)
        assert est.valid
        assert est.el_deg == pytest.approx(0.0, abs=1e-6)
        assert est.az_deg == pytest.approx(np.degrees(np.arctan2(3, 4)), abs=1e-9)

    def test_beyond_gate_invalid(self):
        est = direction_from_tdoa(40e-9, 40e-9, G)
        assert not est.valid
        assert est.gate_value == pytest.approx(np.sqrt(2) * 0.8, rel=1e-12)
        assert est.az_deg is None and est.el_deg is None

    @pytest.mark.parametrize("tau1, tau2", [(np.nan, 0.0), (0.0, np.nan), (np.nan, 30e-9), (np.nan, np.nan)])
    def test_nan_delay_invalid(self, tau1, tau2):
        est = direction_from_tdoa(tau1, tau2, G)
        assert not est.valid
        assert est.az_deg is None and est.el_deg is None

    def test_transit_time(self):
        assert G.transit_time == pytest.approx(5e-8, abs=0)

    def test_quadrants(self):
        scale = G.transit_time * 0.5
        for az_expect, (t1, t2) in {
            0.0: (0.0, scale),
            90.0: (scale, 0.0),
            180.0: (0.0, -scale),
            270.0: (-scale, 0.0),
            45.0: (scale, scale),
            225.0: (-scale, -scale),
        }.items():
            est = direction_from_tdoa(t1, t2, G)
            assert est.az_deg == pytest.approx(az_expect, abs=1e-9)


class TestInverse:
    def test_el_zero_az_zero(self):
        t1, t2 = tdoa_from_direction(0.0, 0.0, G)
        assert t1 == 0.0
        assert t2 == pytest.approx(50e-9, abs=0)

    def test_zenith_zero_delays(self):
        t1, t2 = tdoa_from_direction(123.0, 90.0, G)
        assert abs(t1) < 1e-23 and abs(t2) < 1e-23

    def test_az45_el60_hand_value(self):
        t1, t2 = tdoa_from_direction(45.0, 60.0, G)
        expect = 15.0 * 0.5 / (3e8 * np.sqrt(2.0))
        assert t1 == pytest.approx(expect, rel=1e-12)
        assert t2 == pytest.approx(expect, rel=1e-12)

    def test_az90_limit(self):
        t1, t2 = tdoa_from_direction(90.0, 30.0, G)
        assert t2 == pytest.approx(0.0, abs=1e-23)
        assert t1 == pytest.approx(G.transit_time * np.cos(np.radians(30.0)), rel=1e-12)

    def test_elevation_domain_enforced(self):
        with pytest.raises(ValueError, match="elevation"):
            tdoa_from_direction(0.0, 90.5, G)
        with pytest.raises(ValueError, match="elevation"):
            tdoa_from_direction(0.0, -1.0, G)

    def test_norm_never_exceeds_transit(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            t1, t2 = tdoa_from_direction(rng.uniform(0, 360), rng.uniform(0, 90), G)
            assert np.hypot(t1, t2) <= G.transit_time * (1 + 1e-12)


class TestRoundTrip:
    def test_uniform_sample(self):
        geom = ArrayGeometry()  # exact SI speed
        rng = np.random.default_rng(42)
        for _ in range(2000):
            az = rng.uniform(0.0, 360.0)
            el = rng.uniform(0.5, 90.0)
            est = direction_from_tdoa(*tdoa_from_direction(az, el, geom), geom)
            assert est.valid
            assert est.az_deg == pytest.approx(az, abs=1e-9)
            assert est.el_deg == pytest.approx(el, abs=1e-9)

    def test_gate_equals_cos_elevation(self):
        geom = ArrayGeometry()
        for el in (5.0, 30.0, 60.0, 89.0):
            est = direction_from_tdoa(*tdoa_from_direction(10.0, el, geom), geom)
            assert est.gate_value == pytest.approx(np.cos(np.radians(el)), rel=1e-12)


class TestGateProperties:
    def test_elevation_strictly_decreases_with_tau_norm(self):
        els = []
        for frac in np.linspace(0.0, 1.0, 30):
            tau = G.transit_time * frac
            est = direction_from_tdoa(tau * 0.6, tau * 0.8, G)
            els.append(est.el_deg)
        assert all(a > b for a, b in zip(els, els[1:]))

    def test_azimuth_invariant_under_tau_scaling(self):
        base = direction_from_tdoa(23e-9, 31e-9, G)
        for lam in (0.9, 0.5, 0.11):
            scaled = direction_from_tdoa(23e-9 * lam, 31e-9 * lam, G)
            assert scaled.az_deg == pytest.approx(base.az_deg, abs=1e-10)

    def test_slack_boundary_clamped(self):
        tau = G.transit_time * (1.0 + 5e-13)  # within the float slack
        est = direction_from_tdoa(tau, 0.0, G)
        assert est.valid
        assert est.el_deg == 0.0

    def test_fuzzed_invalid_never_carry_angles(self):
        rng = np.random.default_rng(9)
        n_invalid = 0
        for _ in range(2000):
            t1 = rng.uniform(-2, 2) * G.transit_time
            t2 = rng.uniform(-2, 2) * G.transit_time
            est = direction_from_tdoa(t1, t2, G)
            if np.hypot(t1, t2) > G.transit_time * (1 + 1e-12):
                assert not est.valid
                assert est.az_deg is None and est.el_deg is None
                n_invalid += 1
            else:
                assert est.valid
                assert np.isfinite(est.az_deg) and np.isfinite(est.el_deg)
        assert n_invalid > 500  # the fuzz actually exercised the gate

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(d=0.0)
        with pytest.raises(ValueError):
            ArrayGeometry(c=-1.0)
