import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minetax import (
    feasibility_threshold,
    follower_best_response,
    optimal_extraction,
    optimal_tax,
    pareto_sweep,
)
from minetax.analytical import follower_profit, solve_weighted, sweep_to_csv
from minetax.model import replace


class TestFollowerBestResponse:
    def test_choke_tax(self, params):
        assert follower_best_response(99.0, params) == 0.0

    def test_interior_tax(self, params):
        assert follower_best_response(49.5, params) == pytest.approx(12.375)

    def test_excessive_tax_clamped(self, params):
        assert follower_best_response(150.0, params) == 0.0

    def test_negative_tax_rejected(self, params):
        with pytest.raises(ValueError):
            follower_best_response(-1.0, params)

    @given(tau=st.floats(0.0, 98.0))
    @settings(max_examples=100)
    def test_first_order_condition(self, params, tau):
        q = follower_best_response(tau, params)
        h = 1e-4
        deriv = (
            follower_profit(q + h, tau, params)
            - follower_profit(q - h, tau, params)
        ) / (2 * h)
        assert abs(deriv) <= 1e-6


class TestOptimalTax:
    def test_full_revenue_weight(self, params):
        assert optimal_tax(1.0, params) == pytest.approx(49.5)

    def test_balanced_weights(self, params):
        assert optimal_tax(0.5, params) == pytest.approx(50.0)

    def test_no_damage_concern(self, params):
        p = replace(params, k=0.0)
        for w in (0.1, 0.5, 1.0):
            assert optimal_tax(w, p) == pytest.approx((p.alpha - p.gamma) / 2.0)

    def test_nonpositive_weight_rejected(self, params):
        with pytest.raises(ValueError):
            optimal_tax(0.0, params)


class TestOptimalExtraction:
    def test_full_revenue_weight(self, params):
        assert optimal_extraction(1.0, params) == pytest.approx(99.0 / 8.0)

    def test_extraction_vanishes_at_threshold(self, params):
        assert optimal_extraction(0.01, params) == pytest.approx(0.0, abs=1e-12)

    def test_below_threshold_clamped(self, params):
        assert optimal_extraction(0.005, params) == 0.0

    @pytest.mark.parametrize("w", [0.0, -0.5])
    def test_nonpositive_weight_rejected(self, params, w):
        with pytest.raises(ValueError, match="^weight must be positive$"):
            optimal_extraction(w, params)

    @given(w=st.floats(0.011, 1.0))
    @settings(max_examples=100)
    def test_consistent_with_best_response(self, params, w):
        assert follower_best_response(
            optimal_tax(w, params), params
        ) == pytest.approx(optimal_extraction(w, params), abs=1e-9)


class TestFeasibilityThreshold:
    def test_published_parameters(self, params):
        assert feasibility_threshold(params) == pytest.approx(0.01, abs=1e-12)

    def test_no_damage(self, params):
        assert feasibility_threshold(replace(params, k=0.0)) == 0.0

    def test_heavier_pollution(self, params):
        p = replace(params, k=9.0)
        assert feasibility_threshold(p) == pytest.approx(9.0 / 108.0)


class TestParetoSweep:
    def test_low_endpoint_is_origin(self, params):
        sweep = pareto_sweep(params, 50)
        assert sweep[0].revenue == pytest.approx(0.0, abs=1e-9)
        assert sweep[0].damage == pytest.approx(0.0, abs=1e-9)

    def test_high_endpoint(self, params):
        sweep = pareto_sweep(params, 50)
        assert sweep[-1].revenue == pytest.approx(612.5625, abs=1e-9)
        assert sweep[-1].damage == pytest.approx(12.375, abs=1e-9)

    def test_no_damage_gives_one_point_for_every_weight(self, params):
        # k = 0: the threshold is 0, and every weight in (0, 1] has the
        # revenue optimum (alpha - gamma)^2 / (8 (beta + delta)) at damage 0
        sweep = pareto_sweep(replace(params, k=0.0), 5)
        assert len(sweep) == 5
        assert all(0.0 < s.w <= 1.0 for s in sweep)
        for s in sweep:
            assert s.revenue == pytest.approx(612.5625, abs=1e-9)
            assert s.damage == 0.0

    def test_points_mutually_nondominated(self, params):
        sweep = pareto_sweep(params, 200)
        for a, b in zip(sweep, sweep[1:]):
            # sorted by damage; nondominance needs revenue to rise too
            assert b.damage >= a.damage
            assert b.revenue >= a.revenue - 1e-12

    def test_monotone_tradeoff_in_weight(self, params):
        sols = [solve_weighted(w / 100.0, params) for w in range(2, 101)]
        for a, b in zip(sols, sols[1:]):
            assert b.revenue >= a.revenue - 1e-9
            assert b.damage >= a.damage - 1e-9

    def test_leader_first_order_condition(self, params):
        w_min = feasibility_threshold(params)
        for w in (w_min + 1e-3, 0.05, 0.3, 0.7, 1.0):
            tau_star = optimal_tax(w, params)
            h = 1e-4

            def scalarized(tau):
                q = follower_best_response(tau, params)
                return w * tau * q - (1 - w) * params.k * q

            deriv = (scalarized(tau_star + h) - scalarized(tau_star - h)) / (2 * h)
            assert abs(deriv) <= 1e-6

    def test_follower_profit_nonnegative_on_frontier(self, params):
        assert params.phi == 0.0
        for s in pareto_sweep(params, 300):
            assert s.profit >= -1e-9

    def test_stored_objectives_recompute(self, params):
        for s in pareto_sweep(params, 30):
            assert s.revenue == pytest.approx(s.tau_star * s.q_star, abs=1e-9)
            assert s.damage == pytest.approx(params.k * s.q_star, abs=1e-9)
            assert s.profit == pytest.approx(
                follower_profit(s.q_star, s.tau_star, params), abs=1e-9
            )

    def test_too_few_points_rejected(self, params):
        with pytest.raises(ValueError):
            pareto_sweep(params, 1)

    def test_csv_export(self, params, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(pareto_sweep(params, 10), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "w,tau,q,revenue,damage,profit"
        assert len(lines) == 11
